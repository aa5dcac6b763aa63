//! Regenerates every table and figure of the paper from simulation.
//!
//! ```text
//! cargo run --release -p swallow-bench --bin reproduce            # everything
//! cargo run --release -p swallow-bench --bin reproduce fig3 ec   # a subset
//! cargo run --release -p swallow-bench --bin reproduce --quick   # smaller workloads
//! ```
//!
//! Experiment names: table1 fig2 fig3 fig4 table2 eq2 latency overhead ec
//! table3 system system480 ablation proportionality throughput resilience
//! fleet.
//!
//! The fleet experiment sweeps an open-loop arrival rate over a fleet of
//! independent machines and writes `BENCH_fleet.json` (offered load,
//! goodput, p50/p95/p99 latency, joules per request — bit-identical
//! across repeat runs and host thread counts), running the per-machine
//! conservation gate on every load point:
//!
//! ```text
//! reproduce fleet --machines 4 --arrivals poisson --seed 42
//! reproduce fleet --machines 2 --arrivals bursty:16 --threads 8 --quick
//! ```
//!
//! The throughput experiment additionally writes its rows to
//! `BENCH_throughput.json` in the working directory, and accepts engine
//! overrides for one-off measurements:
//!
//! ```text
//! reproduce throughput --threads 8 --grid 2x2
//! reproduce throughput --engine lockstep --grid 1x1
//! ```
//!
//! `--engine {lockstep,windowed}` pins the engine (default: the full
//! sweep over both), `--threads N` pins the windowed engine at `N` host
//! threads (0 = one per host CPU; without it `--engine windowed` runs one
//! thread, and it cannot combine with `--engine lockstep`), and `--grid
//! WxH` sizes the measured machine in slices for the pinned-engine run.
//!
//! The observability layer is exercised with `--trace` / `--metrics`,
//! and deterministic faults are injected with `--faults`:
//!
//! ```text
//! reproduce --trace out.json --metrics out.csv
//! reproduce --trace out.json --threads 4
//! reproduce --faults "kill-link:0@2us, corrupt:8@5us+2us, brownout:600@12us+3us"
//! ```
//!
//! Any of the three flags switches to a dedicated instrumented run (a
//! six-stage pipeline on the configured grid, honouring `--engine`/
//! `--threads`/`--grid`): `--trace` writes the merged event log as
//! Chrome `trace_event` JSON (open in Perfetto), `--metrics` writes the
//! per-supply power time series as CSV, and `--faults` replays the given
//! fault schedule (grammar: `FaultPlan::parse`) while the run's fault
//! and recovery counters are reported. Every instrumented run checks
//! that the integrated supply series reproduces the energy-ledger total
//! and exits non-zero when conservation fails.
//!
//! Deterministic checkpointing (`SWLWSNAP` format, DESIGN.md §3.13):
//!
//! ```text
//! reproduce --snapshot-at 3000000 --snapshot-out warm.snap   # write at t = 3 µs
//! reproduce --restore warm.snap                              # continue bit-identically
//! reproduce --restore warm.snap --threads 4
//! ```
//!
//! `--snapshot-at <ps>` runs the instrumented pipeline to the given
//! simulated instant and serializes the whole machine; `--restore
//! <file>` resumes one (under any engine — the continuation is
//! bit-identical regardless), and performs the same always-on
//! conservation check as a cold run.

use std::path::Path;
use std::time::Instant;
use swallow::{EngineMode, FaultPlan, Frequency, SystemBuilder, TimeDelta};
use swallow_bench::experiments::{
    ablation, ec_ratio, eq2, fig2, fig3, fig4, fleet, latency, overhead, proportionality,
    resilience, system_power, table1, throughput,
};
use swallow_bench::survey;
use swallow_fleet::{ArrivalKind, FleetSpec};
use swallow_workloads::pipeline::{self, PipelineSpec};

const ALL: [&str; 17] = [
    "table1",
    "fig2",
    "fig3",
    "fig4",
    "table2",
    "eq2",
    "latency",
    "overhead",
    "ec",
    "table3",
    "system",
    "system480",
    "ablation",
    "proportionality",
    "throughput",
    "resilience",
    "fleet",
];

/// Engine/threads/grid overrides parsed from the command line.
struct EngineOverride {
    engine: Option<EngineMode>,
    /// Raw `--threads` value (also reused as the fleet's host threads).
    threads: Option<usize>,
    grid: (u16, u16),
    trace: Option<String>,
    metrics: Option<String>,
    faults: Option<FaultPlan>,
    /// Write a `SWLWSNAP` snapshot at this simulated instant (ps).
    snapshot_at: Option<u64>,
    /// Snapshot destination (default `swallow.snap`).
    snapshot_out: String,
    /// Resume an instrumented run from a snapshot file.
    restore: Option<String>,
    /// Fleet size for the fleet experiment.
    machines: usize,
    /// Fleet arrival process.
    arrivals: ArrivalKind,
    /// Fleet seed.
    seed: u64,
}

/// Pulls `--engine`, `--threads` and `--grid` (each `--flag value` or
/// `--flag=value`) out of `args`, leaving every other argument in place.
fn parse_engine_override(args: &mut Vec<String>) -> EngineOverride {
    let mut take = |flag: &str| -> Option<String> {
        let mut i = 0;
        while i < args.len() {
            if let Some(v) = args[i].strip_prefix(&format!("{flag}=")) {
                let v = v.to_owned();
                args.remove(i);
                return Some(v);
            }
            if args[i] == flag {
                args.remove(i);
                if i < args.len() {
                    return Some(args.remove(i));
                }
                die(&format!("{flag} needs a value"));
            }
            i += 1;
        }
        None
    };
    let threads: Option<usize> = take("--threads").map(|t| {
        t.parse()
            .unwrap_or_else(|_| die("--threads wants a number"))
    });
    let engine = match (take("--engine").as_deref(), threads) {
        (None, None) => None,
        (None | Some("windowed"), _) => Some(EngineMode::Windowed {
            threads: threads.unwrap_or(1),
        }),
        (Some("lockstep"), None) => Some(EngineMode::LockStep),
        (Some("lockstep"), Some(_)) => {
            die("--threads selects the windowed engine and cannot combine with --engine lockstep")
        }
        (Some(other), _) => die(&format!(
            "unknown engine `{other}`; known: lockstep windowed"
        )),
    };
    let grid = take("--grid")
        .map(|g| {
            let parse = || -> Option<(u16, u16)> {
                let (w, h) = g.split_once('x')?;
                Some((w.parse().ok()?, h.parse().ok()?))
            };
            parse()
                .filter(|&(w, h)| w > 0 && h > 0)
                .unwrap_or_else(|| die("--grid wants WxH with both sides at least 1, e.g. 2x2"))
        })
        .unwrap_or((1, 1));
    let trace = take("--trace");
    let metrics = take("--metrics");
    let faults = take("--faults")
        .map(|spec| FaultPlan::parse(&spec).unwrap_or_else(|e| die(&format!("--faults: {e}"))));
    let snapshot_at = take("--snapshot-at").map(|ps| {
        ps.parse()
            .unwrap_or_else(|_| die("--snapshot-at wants a picosecond count"))
    });
    let snapshot_out = take("--snapshot-out").unwrap_or_else(|| "swallow.snap".to_owned());
    let restore = take("--restore");
    let machines = take("--machines")
        .map(|m| {
            m.parse()
                .ok()
                .filter(|&m| m >= 1)
                .unwrap_or_else(|| die("--machines wants a positive number"))
        })
        .unwrap_or(4);
    let arrivals = take("--arrivals")
        .map(|a| {
            ArrivalKind::parse(&a)
                .unwrap_or_else(|| die("--arrivals wants poisson, bursty or bursty:N"))
        })
        .unwrap_or(ArrivalKind::Poisson);
    let seed = take("--seed")
        .map(|s| s.parse().unwrap_or_else(|_| die("--seed wants a number")))
        .unwrap_or(42);
    EngineOverride {
        engine,
        threads,
        grid,
        trace,
        metrics,
        faults,
        snapshot_at,
        snapshot_out,
        restore,
        machines,
        arrivals,
        seed,
    }
}

/// The `--trace`/`--metrics`/`--faults` run: a six-stage pipeline on the
/// configured grid with the observability layer on, faults replayed, and
/// the results exported to the requested files.
fn run_observability(overrides: &EngineOverride) {
    let mut system = match overrides.restore.as_deref() {
        // Warm start: the snapshot carries the whole machine — grid,
        // engine, fault plan, metrics series — so only an explicit
        // `--engine` override applies on top.
        Some(path) => {
            let bytes =
                std::fs::read(path).unwrap_or_else(|e| die(&format!("could not read {path}: {e}")));
            let mut system = swallow::SwallowSystem::restore(&bytes)
                .unwrap_or_else(|e| die(&format!("could not restore {path}: {e}")));
            if let Some(engine) = overrides.engine {
                system.machine_mut().set_engine(engine);
            }
            println!(
                "restored {path} at t = {} ps ({} cores, {:?})",
                system.now().as_ps(),
                system.core_count(),
                system.machine().engine()
            );
            system
        }
        None => {
            let engine = overrides.engine.unwrap_or_default();
            let (w, h) = overrides.grid;
            let mut builder = SystemBuilder::new().slices(w, h).engine(engine).metrics();
            if overrides.trace.is_some() {
                builder = builder.tracing();
            }
            if let Some(plan) = overrides.faults.clone() {
                builder = builder.faults(plan);
            }
            let mut system = builder.build().unwrap_or_else(|e| die(&e.to_string()));
            let spec = PipelineSpec {
                stages: 6,
                items: 24,
                work_per_item: 3,
            };
            let placement = pipeline::generate(&spec, system.machine().spec())
                .unwrap_or_else(|e| die(&format!("pipeline generation failed: {e}")));
            placement
                .apply(&mut system)
                .unwrap_or_else(|e| die(&format!("pipeline load failed: {e}")));
            system
        }
    };
    if let Some(at_ps) = overrides.snapshot_at {
        let now_ps = system.now().as_ps();
        if at_ps > now_ps {
            system.run_for(TimeDelta::from_ps(at_ps - now_ps));
        }
        let image = system.snapshot();
        let path = &overrides.snapshot_out;
        match std::fs::write(path, &image) {
            Ok(()) => println!(
                "  wrote {path} ({} bytes at t = {} ps)",
                image.len(),
                system.now().as_ps()
            ),
            Err(e) => die(&format!("could not write {path}: {e}")),
        }
    }
    let (w, h) = {
        let spec = system.machine().spec();
        (spec.slices_x, spec.slices_y)
    };
    let engine = system.machine().engine();
    let quiescent = system.run_until_quiescent(TimeDelta::from_ms(20));
    system.flush_metrics();

    println!("observability run ({engine:?}, {w}x{h} slices, quiescent: {quiescent}):");
    println!("{}", system.metrics_report());
    if let Some(path) = overrides.trace.as_deref() {
        let log = system.trace_log();
        match swallow::write_chrome_trace(Path::new(path), &log) {
            Ok(()) => println!(
                "  wrote {path} ({} trace records, {} dropped)",
                log.len(),
                log.dropped
            ),
            Err(e) => die(&format!("could not write {path}: {e}")),
        }
    }
    if let Some(path) = overrides.metrics.as_deref() {
        let rows = system.machine().metrics().rows();
        match swallow::write_supply_csv(Path::new(path), rows) {
            Ok(()) => println!("  wrote {path} ({} supply rows)", rows.len()),
            Err(e) => die(&format!("could not write {path}: {e}")),
        }
    }
    // The conservation gate runs on every instrumented run — warm
    // starts from a snapshot included, since the snapshot carries the
    // metrics series: the integrated supply series must reproduce the
    // energy-ledger total, faults or no faults, restore or no restore.
    if system.machine().metrics().is_enabled() {
        let metered = system.machine().metrics().total_energy().as_joules();
        let ledger = system.machine().machine_ledger().total().as_joules();
        let rel = (metered - ledger).abs() / ledger.abs().max(f64::MIN_POSITIVE);
        println!(
            "  conservation: integrated {metered:.9e} J vs ledger {ledger:.9e} J (rel {rel:.2e})"
        );
        if rel > 1e-9 {
            die("metered supply series does not integrate back to the energy ledger");
        }
    } else {
        println!("  conservation: skipped (snapshot was taken without the metrics hub enabled)");
    }
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let overrides = parse_engine_override(&mut args);
    if overrides.trace.is_some()
        || overrides.metrics.is_some()
        || overrides.faults.is_some()
        || overrides.snapshot_at.is_some()
        || overrides.restore.is_some()
    {
        run_observability(&overrides);
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let selected: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let wanted = |name: &str| {
        if selected.is_empty() {
            // system480 is expensive; only on request or with everything
            // in non-quick mode.
            name != "system480" || !quick
        } else {
            selected.contains(&name)
        }
    };
    for name in ALL {
        if !wanted(name) {
            continue;
        }
        let t0 = Instant::now();
        println!("==================================================================");
        match name {
            "table1" => println!("{}", table1::run(if quick { 128 } else { 512 })),
            "fig2" => println!(
                "{}",
                fig2::run(TimeDelta::from_us(if quick { 20 } else { 60 }))
            ),
            "fig3" => println!("{}", fig3::run(if quick { 6_000 } else { 30_000 })),
            "fig4" => println!("{}", fig4::run(if quick { 4_000 } else { 20_000 })),
            "table2" => {
                println!("Table II — candidate Swallow processors:");
                println!("{}", survey::Table2(survey::table2_candidates()));
            }
            "eq2" => println!(
                "{}",
                eq2::run(
                    Frequency::from_mhz(500),
                    if quick { 12_000 } else { 48_000 }
                )
            ),
            "latency" => println!("{}", latency::run(if quick { 16 } else { 64 })),
            "overhead" => println!("{}", overhead::run(if quick { 128 } else { 512 })),
            "ec" => println!("{}", ec_ratio::run(if quick { 64 } else { 256 })),
            "table3" => {
                println!(
                    "Table III — many-core system survey (Swallow row derived from the model):"
                );
                println!("{}", survey::Table3(survey::table3_systems()));
            }
            "system" => println!(
                "{}",
                system_power::run(TimeDelta::from_us(if quick { 10 } else { 40 }))
            ),
            "proportionality" => println!(
                "{}",
                proportionality::run(Frequency::from_mhz(500), if quick { 6_000 } else { 24_000 })
            ),
            "ablation" => println!(
                "{}",
                ablation::run(if quick { 64 } else { 256 }, if quick { 16 } else { 64 })
            ),
            "system480" => {
                println!("§III.A — direct 480-core machine run (6×5 slices, fully loaded):");
                let span = TimeDelta::from_ns(if quick { 500 } else { 2_000 });
                let (gips, watts) = system_power::run_480(span);
                println!("  measured: {gips:.1} GIPS, {watts:.1} W at the 5 V inputs");
                println!("  paper:    240 GIPS, 134 W");
            }
            "throughput" => {
                let span = TimeDelta::from_us(if quick { 5 } else { 20 });
                let t = match overrides.engine {
                    // Pinned engine: one busy-grid measurement.
                    Some(engine) => {
                        let (w, h) = overrides.grid;
                        let scenario: &'static str =
                            Box::leak(format!("busy-{w}x{h}").into_boxed_str());
                        let row = throughput::measure(scenario, engine, (w, h), 1, span)
                            .unwrap_or_else(|e| die(&e.to_string()));
                        throughput::Throughput { rows: vec![row] }
                    }
                    None => throughput::run(span),
                };
                println!("{t}");
                let path = std::path::Path::new("BENCH_throughput.json");
                match t.write_json(path) {
                    Ok(()) => println!("  wrote {}", path.display()),
                    Err(e) => eprintln!("  could not write {}: {e}", path.display()),
                }
            }
            "fleet" => {
                let rates: &[f64] = if quick {
                    &fleet::QUICK_RATES
                } else {
                    &fleet::DEFAULT_RATES
                };
                let base = FleetSpec {
                    machines: overrides.machines,
                    workers: 8,
                    requests: if quick { 48 } else { 128 },
                    work: 8,
                    arrivals: overrides.arrivals,
                    seed: overrides.seed,
                    threads: overrides
                        .threads
                        .filter(|&t| t > 0)
                        .unwrap_or_else(throughput::host_parallelism),
                    drain: TimeDelta::from_ms(1),
                    metrics: true,
                    ..FleetSpec::default()
                };
                // run_sweep gates conservation per machine per load point.
                match fleet::run_sweep(&base, rates) {
                    Ok(bench) => {
                        println!("{bench}");
                        let path = std::path::Path::new("BENCH_fleet.json");
                        match bench.write_json(path) {
                            Ok(()) => println!("  wrote {}", path.display()),
                            Err(e) => eprintln!("  could not write {}: {e}", path.display()),
                        }
                    }
                    Err(e) => die(&format!("fleet sweep failed: {e}")),
                }
            }
            "resilience" => {
                let r = resilience::run(quick);
                println!("{r}");
                let path = std::path::Path::new("BENCH_resilience.json");
                match r.write_json(path) {
                    Ok(()) => println!("  wrote {}", path.display()),
                    Err(e) => eprintln!("  could not write {}: {e}", path.display()),
                }
            }
            other => {
                eprintln!("unknown experiment `{other}`; known: {ALL:?}");
                std::process::exit(2);
            }
        }
        println!("[{name} took {:.2?}]", t0.elapsed());
    }
}
