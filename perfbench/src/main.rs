//! Host-performance benchmark of the Swallow simulator.
//!
//! ```text
//! perfbench [--workload compute-480|pipeline-480|serve-fleet|all]
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` a workload is run untraced for about `--seconds` and
//! reports the end-to-end metrics; with `--trace 1` it is run with spans
//! around each layer's public calls and probes on snapshots, and reports
//! the per-layer metrics. Every run checks its outputs (lock-step oracle
//! on a prefix, energy conservation, checksums, replies) outside the
//! timed region; the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` and the exit code is
//! non-zero when any check failed. See README.md for the workloads and
//! the metric map.

mod layers;
mod machine;
mod probes;
mod serve;
mod stats;

use stats::Outcome;
use std::process::{Command, ExitCode};

/// End-to-end metrics (`--trace 0`), every one reported on every
/// workload: name and unit.
const END_TO_END: [(&str, &str); 7] = [
    ("sim_mips", "MIPS"),
    ("sim_us_per_host_s", "us/s"),
    ("ops_per_host_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_energy_mj", "mJ"),
    ("sim_uj_per_op", "uJ"),
];

/// Per-layer metrics (`--trace 1`). A layer a workload does not exercise
/// reports 0.
const PER_LAYER: [(&str, &str); 42] = [
    ("workloads.generate_ms", "ms"),
    ("core.build_ms", "ms"),
    ("xcore.load_ms", "ms"),
    ("board.snapshot_ms", "ms"),
    ("board.restore_ms", "ms"),
    ("board.snapshot_mb", "MiB"),
    ("board.run_for_ms_p50", "ms"),
    ("board.run_for_ms_p90", "ms"),
    ("board.run_for_share", "share"),
    ("fleet.step_us_p50", "us"),
    ("fleet.step_us_p90", "us"),
    ("fleet.steps_per_req", "count"),
    ("fleet.merge_ms", "ms"),
    ("board.edge_us", "us"),
    ("xcore.core_us_per_edge", "us"),
    ("xcore.ns_per_instr", "ns"),
    ("board.scan_us_per_edge", "us"),
    ("board.edge_other_us", "us"),
    ("board.sample_us", "us"),
    ("sim.trace_slowdown", "ratio"),
    ("xcore.instret", "count"),
    ("xcore.cycles", "count"),
    ("noc.tokens", "count"),
    ("noc.busy_share", "share"),
    ("noc.in_flight_mean", "tokens"),
    ("board.window_eligible_share", "share"),
    ("board.windows_per_sim_ms", "1/ms"),
    ("board.rounds_per_window", "count"),
    ("board.monitor_rows", "count"),
    ("board.bridge_frames_in", "count"),
    ("board.bridge_frames_out", "count"),
    ("board.bridge_rejected", "count"),
    ("faults.events_applied", "count"),
    ("faults.retransmits", "count"),
    ("energy.conservation_rel", "ratio"),
    ("xcore.micro_ns_per_instr", "ns"),
    ("board.micro_window_us", "us"),
    ("bench.unattributed_share", "share"),
    ("bench.trace_overhead_share", "share"),
    ("sim.span_us", "us"),
    ("fleet.sim_p50_us", "us"),
    ("fleet.sim_p99_us", "us"),
];

const WORKLOADS: [&str; 3] = ["compute-480", "pipeline-480", "serve-fleet"];

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.to_vec(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} value {value:?}: {what}");
        match flag.as_str() {
            "--workload" => {
                args.workloads = match WORKLOADS.iter().find(|&&w| w == value) {
                    Some(&w) => vec![w],
                    None if value == "all" => WORKLOADS.to_vec(),
                    None => {
                        return Err(bad(
                            "expected compute-480, pipeline-480, serve-fleet or all",
                        ))
                    }
                }
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err(bad("expected 0 < seconds <= 3600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Environment variables that switch engines or caches inside the
/// simulator; any of them would change what is measured.
fn overriding_env() -> Vec<String> {
    std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("SWALLOW_"))
        .collect()
}

/// First line of a command's standard output, if it runs and succeeds.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then_some(())?;
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_owned(),
    )
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Where and how the numbers were taken.
fn provenance() -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let load = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into());
    let commit = command_line("git", &["rev-parse", "HEAD"])
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"available_parallelism\": {parallelism}, \"cpu_model\": {}, \"loadavg_1m\": {}, \
         \"git_commit\": {}, \"rustc\": {}, \"profile\": {}}}",
        json_string(&cpu),
        json_string(&load),
        json_string(&commit),
        json_string(&rustc),
        json_string(profile)
    )
}

fn run(workload: &str, args: &Args) -> Outcome {
    use machine::Kind;
    let (seed, secs) = (args.seed, args.seconds);
    match (workload, args.trace) {
        ("compute-480", false) => machine::untraced(Kind::Compute, seed, secs),
        ("compute-480", true) => machine::traced(Kind::Compute, seed, secs),
        ("pipeline-480", false) => machine::untraced(Kind::Pipeline, seed, secs),
        ("pipeline-480", true) => machine::traced(Kind::Pipeline, seed, secs),
        (_, false) => serve::untraced(seed, secs),
        (_, true) => serve::traced(seed, secs),
    }
}

/// Orders the outcome's metrics as `names` lists them (0 for a layer the
/// workload does not exercise) and renders the result line. A value
/// that is not finite fails the run.
fn result_json(outcome: &mut Outcome, names: &[(&'static str, &'static str)]) -> String {
    for m in &outcome.metrics {
        assert!(
            names.iter().any(|&(n, u)| n == m.name && u == m.unit),
            "metric {} [{}] is not in the metric list",
            m.name,
            m.unit
        );
    }
    let mut fields = Vec::new();
    for &(name, unit) in names {
        let value = outcome
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value);
        let value = if value.is_finite() {
            value
        } else {
            outcome.fail(format!("metric {name} is not finite"));
            0.0
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    outcome.attempted = outcome.attempted.max(1);
    if !outcome.correct() {
        outcome.failed = outcome.attempted;
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let overriding = overriding_env();
    if !overriding.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: these select engines or caches and change what is measured",
            overriding.join(", ")
        );
        return ExitCode::from(2);
    }
    println!("provenance: {}", provenance());
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut all_correct = true;
    for &workload in &args.workloads {
        let mut outcome = run(workload, &args);
        let json = result_json(&mut outcome, names);
        println!(
            "== {workload}: seed {}, {} s, trace {} ==",
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        for m in &outcome.metrics {
            println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
        }
        println!(
            "  operations: attempted {}, failed {}",
            outcome.attempted, outcome.failed
        );
        for note in &outcome.notes {
            println!("  {note}");
        }
        for problem in &outcome.problems {
            println!("  FAILED: {problem}");
        }
        all_correct &= outcome.correct();
        println!("{json}");
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
