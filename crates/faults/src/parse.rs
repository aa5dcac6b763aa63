//! The `--faults` command-line grammar (documented on
//! [`FaultPlan::parse`]).

use swallow_isa::NodeId;
use swallow_noc::LinkId;
use swallow_sim::{Time, TimeDelta};

use crate::plan::FaultPlan;

fn parse_delta(s: &str) -> Result<TimeDelta, String> {
    let (digits, mul) = if let Some(d) = s.strip_suffix("ns") {
        (d, 1_000u64)
    } else if let Some(d) = s.strip_suffix("us") {
        (d, 1_000_000)
    } else if let Some(d) = s.strip_suffix("ms") {
        (d, 1_000_000_000)
    } else {
        return Err(format!("`{s}`: time needs an ns/us/ms suffix"));
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("`{s}`: bad time value"))?;
    Ok(TimeDelta::from_ps(n.saturating_mul(mul)))
}

fn parse_time(s: &str) -> Result<Time, String> {
    Ok(Time::ZERO + parse_delta(s)?)
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("`{s}`: bad {what}"))
}

/// `<when>` or `<when>+<dur>` depending on `windowed`.
fn parse_when(s: &str, windowed: bool) -> Result<(Time, TimeDelta), String> {
    if windowed {
        let (at, dur) = s
            .split_once('+')
            .ok_or_else(|| format!("`{s}`: expected <time>+<duration>"))?;
        Ok((parse_time(at)?, parse_delta(dur)?))
    } else if s.contains('+') {
        Err(format!("`{s}`: this fault kind takes a bare time"))
    } else {
        Ok((parse_time(s)?, TimeDelta::ZERO))
    }
}

impl FaultPlan {
    /// Parses a `--faults` spec: a comma- (or semicolon-) separated list
    /// of terms.
    ///
    /// ```text
    /// kill-link:<link>@<t>          hot-unplug a directed link
    /// up-link:<link>@<t>            re-plug it
    /// corrupt:<link>@<t>+<dur>      corrupt-and-retry window
    /// drop:<link>@<t>+<dur>         data-token drop window
    /// stall:<core>@<t>+<dur>        core issues nothing for <dur>
    /// kill-core:<core>@<t>          permanent core halt
    /// brownout:<milli>@<t>+<dur>    derate all cores to milli/1000
    /// ```
    ///
    /// Times and durations take an `ns`, `us` or `ms` suffix, e.g.
    /// `corrupt:4@2us+500ns,kill-link:9@5us`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending term.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for term in spec
            .split([',', ';'])
            .map(str::trim)
            .filter(|t| !t.is_empty())
        {
            let (kind, rest) = term
                .split_once(':')
                .ok_or_else(|| format!("`{term}`: expected <kind>:<target>@<when>"))?;
            let (target, when) = rest
                .split_once('@')
                .ok_or_else(|| format!("`{term}`: expected <target>@<when>"))?;
            plan = match kind {
                "kill-link" => {
                    let link = LinkId::from_raw(parse_num(target, "link id")?);
                    let (at, _) = parse_when(when, false)?;
                    plan.link_down(at, link)
                }
                "up-link" => {
                    let link = LinkId::from_raw(parse_num(target, "link id")?);
                    let (at, _) = parse_when(when, false)?;
                    plan.link_up(at, link)
                }
                "corrupt" => {
                    let link = LinkId::from_raw(parse_num(target, "link id")?);
                    let (at, dur) = parse_when(when, true)?;
                    plan.corrupt_window(at, link, dur)
                }
                "drop" => {
                    let link = LinkId::from_raw(parse_num(target, "link id")?);
                    let (at, dur) = parse_when(when, true)?;
                    plan.drop_window(at, link, dur)
                }
                "stall" => {
                    let core = NodeId(parse_num(target, "core id")?);
                    let (at, dur) = parse_when(when, true)?;
                    plan.stall_core(at, core, dur)
                }
                "kill-core" => {
                    let core = NodeId(parse_num(target, "core id")?);
                    let (at, _) = parse_when(when, false)?;
                    plan.kill_core(at, core)
                }
                "brownout" => {
                    let milli: u32 = parse_num(target, "milli scale")?;
                    if !(1..=1000).contains(&milli) {
                        return Err(format!("`{term}`: brownout scale is 1..=1000"));
                    }
                    let (at, dur) = parse_when(when, true)?;
                    plan.brownout(at, milli, dur)
                }
                other => {
                    return Err(format!(
                        "`{other}`: unknown fault kind; known: kill-link up-link \
                         corrupt drop stall kill-core brownout"
                    ))
                }
            };
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultKind;

    #[test]
    fn full_grammar_round_trips() {
        let plan = FaultPlan::parse(
            "corrupt:4@2us+500ns, kill-link:9@5us; up-link:9@6us,\
             drop:2@1us+1us, stall:3@10ns+20ns, kill-core:7@1ms, brownout:500@3us+2us",
        )
        .expect("parses");
        assert_eq!(plan.len(), 7);
        let kinds: Vec<&FaultKind> = plan.events().iter().map(|e| &e.kind).collect();
        assert!(kinds
            .iter()
            .any(|k| matches!(k, FaultKind::LinkCorrupt { link, until }
                if link.raw() == 4 && until.as_ps() == 2_500_000)));
        assert!(kinds
            .iter()
            .any(|k| matches!(k, FaultKind::Brownout { milli: 500, .. })));
        assert!(kinds
            .iter()
            .any(|k| matches!(k, FaultKind::CoreKill(NodeId(7)))));
    }

    #[test]
    fn errors_name_the_offending_term() {
        for (spec, needle) in [
            ("nonsense", "expected <kind>"),
            ("warp:1@2us", "unknown fault kind"),
            ("kill-link:x@2us", "bad link id"),
            ("kill-link:1@2", "suffix"),
            ("corrupt:1@2us", "expected <time>+<duration>"),
            ("kill-link:1@2us+3us", "bare time"),
            ("brownout:0@1us+1us", "1..=1000"),
        ] {
            let err = FaultPlan::parse(spec).expect_err(spec);
            assert!(err.contains(needle), "{spec}: {err}");
        }
    }

    #[test]
    fn empty_spec_is_the_empty_plan() {
        assert!(FaultPlan::parse("").expect("ok").is_empty());
        assert!(FaultPlan::parse(" , ;").expect("ok").is_empty());
    }
}
