//! Board-level fault application and recovery state.
//!
//! The [`FaultEngine`] is the machine's cursor into a
//! [`swallow_faults::FaultPlan`]: it knows which scheduled events are
//! still pending, when the next one (or the end of an active brownout)
//! is due, and accumulates the board-side resilience counters. The
//! actual application — marking fabric links down, stalling cores,
//! derating clocks — lives in `Machine::apply_due_faults`, because it
//! needs the whole machine; this module keeps the bookkeeping separable
//! and unit-testable.
//!
//! Determinism: faults are applied serially at the top of the machine's
//! edge processing, at the first base-clock grid instant at or after
//! their scheduled time. Every engine stops on those instants (the
//! fault cursor feeds `next_activity_at`, and the windowed engine
//! refuses to open a window across one), so the observable fault
//! timeline is engine-invariant. See DESIGN.md §3.10.

use crate::snapshot;
use swallow_energy::{CorePowerModel, Voltage};
use swallow_faults::{FaultCounters, FaultEvent, FaultPlan};
use swallow_noc::LinkDesc;
use swallow_sim::{ByteReader, ByteWriter, CodecError, Frequency, Time};

/// Pending-fault cursor plus recovery bookkeeping for one machine.
pub(crate) struct FaultEngine {
    plan: FaultPlan,
    /// Index of the first not-yet-applied event (the plan is sorted).
    cursor: usize,
    /// Board-side counters (fabric-side ones are read live).
    pub(crate) counters: FaultCounters,
    /// True while a brownout derating is in force.
    pub(crate) derated: bool,
    /// Instant at which the active brownout ends.
    pub(crate) derate_end: Time,
    /// Per-core clocks saved at brownout entry, restored at exit.
    pub(crate) nominal: Vec<Frequency>,
    /// Per-core power models saved at brownout entry (bit-exact restore).
    pub(crate) nominal_power: Vec<CorePowerModel>,
}

impl FaultEngine {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultEngine {
            plan,
            cursor: 0,
            counters: FaultCounters::default(),
            derated: false,
            derate_end: Time::ZERO,
            nominal: Vec::new(),
            nominal_power: Vec::new(),
        }
    }

    /// True when anything is due at or before `now` — one comparison on
    /// the common (no faults) path, so the per-edge cost of an empty
    /// plan is negligible.
    #[inline]
    pub(crate) fn pending(&self, now: Time) -> bool {
        (self.derated && now >= self.derate_end)
            || self
                .plan
                .events()
                .get(self.cursor)
                .is_some_and(|e| e.at <= now)
    }

    /// Pops the next event due at or before `now`, in plan order.
    pub(crate) fn pop_due(&mut self, now: Time) -> Option<FaultEvent> {
        let ev = *self.plan.events().get(self.cursor)?;
        if ev.at <= now {
            self.cursor += 1;
            Some(ev)
        } else {
            None
        }
    }

    /// The next instant the fault subsystem needs the machine to stop
    /// on: the next scheduled event or the end of an active brownout.
    /// Feeds `next_activity_at`, so fast-forward cannot jump a fault and
    /// the windowed engine will not open a window across one.
    pub(crate) fn next_at(&self) -> Option<Time> {
        let ev = self.plan.events().get(self.cursor).map(|e| e.at);
        let restore = if self.derated {
            Some(self.derate_end)
        } else {
            None
        };
        match (ev, restore) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    // Snapshot codec. The plan itself travels in the machine's CONF
    // section (it is part of the configuration); this serializes only
    // the cursor and recovery bookkeeping layered on top of it.

    pub(crate) fn encode_state(&self, w: &mut ByteWriter) {
        w.u64(self.cursor as u64);
        snapshot::write_counters(w, &self.counters);
        w.bool(self.derated);
        w.time(self.derate_end);
        w.u64(self.nominal.len() as u64);
        for f in &self.nominal {
            w.u64(f.as_hz());
        }
        w.u64(self.nominal_power.len() as u64);
        for p in &self.nominal_power {
            w.f64_bits(p.voltage().as_volts());
        }
    }

    pub(crate) fn restore_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        let cursor = r.u64()?;
        if cursor > self.plan.len() as u64 {
            return Err(CodecError::Invalid("fault cursor past plan end"));
        }
        self.cursor = cursor as usize;
        self.counters = snapshot::read_counters(r)?;
        self.derated = r.bool()?;
        self.derate_end = r.time()?;
        self.nominal.clear();
        for _ in 0..r.len_prefixed(8)? {
            let hz = r.u64()?;
            if hz == 0 {
                return Err(CodecError::Invalid("zero nominal frequency"));
            }
            self.nominal.push(Frequency::from_hz(hz));
        }
        self.nominal_power.clear();
        for _ in 0..r.len_prefixed(8)? {
            let volts = r.f64_bits()?;
            if !volts.is_finite() || volts < 0.0 {
                return Err(CodecError::Invalid("bad saved core voltage"));
            }
            // `at_voltage` only swaps the operating point; the static and
            // idle constants are the model's own, so this reconstruction
            // is bit-exact (see `CorePowerModel::at_voltage`).
            self.nominal_power
                .push(CorePowerModel::swallow().at_voltage(Voltage::from_volts(volts)));
        }
        if self.derated
            && (self.nominal.is_empty() || self.nominal.len() != self.nominal_power.len())
        {
            return Err(CodecError::Invalid(
                "derated without saved operating points",
            ));
        }
        Ok(())
    }
}

/// Membership mask of the largest set of nodes that can all reach each
/// other over `links` (ties broken toward the component containing the
/// lowest node id). Cores outside this set after a reroute are
/// quarantined: they may sit in a minority island that can still talk
/// internally, but the machine's majority can neither feed them work
/// nor hear their results.
///
/// O(n·E) in the worst case — fine for the rare reroute event on
/// machines of a few hundred nodes.
pub(crate) fn largest_mutual_component(n: usize, links: &[LinkDesc]) -> Vec<bool> {
    let mut fwd = vec![Vec::new(); n];
    let mut rev = vec![Vec::new(); n];
    for l in links {
        let (a, b) = (l.from.raw() as usize, l.to.raw() as usize);
        if a < n && b < n {
            fwd[a].push(b);
            rev[b].push(a);
        }
    }
    let bfs = |adj: &[Vec<usize>], start: usize| -> Vec<bool> {
        let mut seen = vec![false; n];
        seen[start] = true;
        let mut queue = std::collections::VecDeque::from([start]);
        while let Some(at) = queue.pop_front() {
            for &next in &adj[at] {
                if !seen[next] {
                    seen[next] = true;
                    queue.push_back(next);
                }
            }
        }
        seen
    };
    let mut assigned = vec![false; n];
    let mut best: Vec<bool> = vec![false; n];
    let mut best_size = 0usize;
    for start in 0..n {
        if assigned[start] {
            continue;
        }
        let f = bfs(&fwd, start);
        let b = bfs(&rev, start);
        let comp: Vec<bool> = (0..n).map(|i| f[i] && b[i]).collect();
        let size = comp.iter().filter(|&&x| x).count();
        for (flag, in_comp) in assigned.iter_mut().zip(&comp) {
            *flag |= in_comp;
        }
        if size > best_size {
            best_size = size;
            best = comp;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use swallow_faults::FaultKind;
    use swallow_isa::NodeId;
    use swallow_noc::{Direction, LinkId};
    use swallow_sim::TimeDelta;

    fn desc(id: u32, from: u16, to: u16) -> LinkDesc {
        LinkDesc {
            id: LinkId::from_raw(id),
            from: NodeId(from),
            to: NodeId(to),
            dir: Direction::East,
        }
    }

    #[test]
    fn cursor_pops_in_order_and_reports_next() {
        let t = |ns: u64| Time::ZERO + TimeDelta::from_ns(ns);
        let plan = FaultPlan::new()
            .kill_core(t(30), NodeId(2))
            .link_down(t(10), LinkId::from_raw(0));
        let mut eng = FaultEngine::new(plan);
        assert_eq!(eng.next_at(), Some(t(10)));
        assert!(!eng.pending(t(9)));
        assert!(eng.pending(t(10)));
        let first = eng.pop_due(t(10)).expect("due");
        assert_eq!(first.kind, FaultKind::LinkDown(LinkId::from_raw(0)));
        assert!(eng.pop_due(t(10)).is_none());
        assert_eq!(eng.next_at(), Some(t(30)));
        // An active brownout's end also counts as a pending instant.
        eng.derated = true;
        eng.derate_end = t(20);
        assert_eq!(eng.next_at(), Some(t(20)));
        assert!(eng.pending(t(20)));
    }

    #[test]
    fn largest_component_prefers_size_then_lowest_id() {
        // 0<->1 is a 2-cycle; 2->3 is one-way; 4 is isolated.
        let links = [desc(0, 0, 1), desc(1, 1, 0), desc(2, 2, 3)];
        let keep = largest_mutual_component(5, &links);
        assert_eq!(keep, vec![true, true, false, false, false]);
        // Two equal 2-cycles: the one containing node 0 wins the tie.
        let links = [desc(0, 0, 1), desc(1, 1, 0), desc(2, 2, 3), desc(3, 3, 2)];
        let keep = largest_mutual_component(4, &links);
        assert_eq!(keep, vec![true, true, false, false]);
    }

    #[test]
    fn out_of_range_endpoints_are_ignored() {
        let links = [desc(0, 0, 9), desc(1, 9, 0)];
        let keep = largest_mutual_component(2, &links);
        assert_eq!(keep, vec![true, false]);
    }
}
