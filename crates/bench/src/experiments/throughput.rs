//! Simulator throughput: host-side cost of the execution engines.
//!
//! Not a paper artefact — this measures the simulator itself. Three
//! scenarios bracket the workload spectrum:
//!
//! * **busy slice** — 16 cores all running the calibrated heavy mix; the
//!   windowed engine runs the compute-bound cores through negotiated
//!   windows, sharded across host threads, and must not fall below
//!   lock-step speed at one thread.
//! * **idle 480** — a full 6×5-slice machine with nothing loaded; every
//!   core tick is provably idle, so the windowed engine's fast-forward
//!   steps jump monitor window to monitor window and charge the energy
//!   analytically.
//! * **10 % active 480** — 48 of 480 cores run the heavy mix; windows
//!   let each busy core run ahead while the idle 90 % of the machine is
//!   skipped analytically.
//! * **pipeline 480** — a 480-stage pipeline over all 30 slices, 16
//!   items: tokens are in flight on almost every edge, so windows rarely
//!   open and the serial fabric step sets the pace. Its cost follows the
//!   traffic, not the machine's 2.8k links.
//!
//! Reported per engine (and per thread count for the windowed engine):
//! host wall-clock, simulated core-cycles per host second, and simulated
//! MIPS (retired instructions per host second). The busy-slice scenario
//! is additionally measured with the predecoded-instruction cache off
//! (`busy-slice-nocache`) to quantify what decode-once execution buys.
//! [`Throughput::write_json`] emits the rows as `BENCH_throughput.json`
//! for CI trend tracking.

use std::fmt;
use std::time::Instant;
use swallow::{BuildError, EngineMode, NodeId, SwallowSystem, SystemBuilder, TimeDelta};
use swallow_workloads::pipeline::{self, PipelineSpec};

use super::heavy_mix_program;

/// Thread counts the default sweep measures the windowed engine at.
pub const DEFAULT_THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One scenario × engine measurement.
#[derive(Clone, Copy, Debug)]
pub struct ThroughputRow {
    /// Scenario label.
    pub scenario: &'static str,
    /// Which engine ran it.
    pub engine: EngineMode,
    /// Whether the predecoded-instruction cache was on.
    pub decode_cache: bool,
    /// Host wall-clock for the run (milliseconds).
    pub host_ms: f64,
    /// Simulated core-cycles advanced per host second (all cores).
    pub sim_cycles_per_sec: f64,
    /// Simulated MIPS: retired instructions per host second / 1e6.
    pub mips: f64,
}

/// The whole experiment: each scenario under every engine.
#[derive(Clone, Debug)]
pub struct Throughput {
    /// Rows in (scenario, engine) order, lock-step first.
    pub rows: Vec<ThroughputRow>,
}

impl Throughput {
    fn find(&self, scenario: &str, engine: EngineMode) -> Option<&ThroughputRow> {
        self.rows
            .iter()
            .find(|r| r.scenario == scenario && r.engine == engine)
    }

    /// One-thread windowed speedup over lock-step (host time ratio).
    pub fn speedup(&self, scenario: &str) -> Option<f64> {
        let ls = self.find(scenario, EngineMode::LockStep)?;
        let one = self.find(scenario, EngineMode::Windowed { threads: 1 })?;
        Some(ls.host_ms / one.host_ms)
    }

    /// Windowed speedup at `threads` over one thread (host time ratio).
    pub fn parallel_speedup(&self, scenario: &str, threads: usize) -> Option<f64> {
        let one = self.find(scenario, EngineMode::Windowed { threads: 1 })?;
        let par = self.find(scenario, EngineMode::Windowed { threads })?;
        Some(one.host_ms / par.host_ms)
    }

    /// Serialises the rows as the `BENCH_throughput.json` schema:
    /// `{"experiment": "throughput", "host_parallelism": N, "rows":
    /// [{scenario, engine, threads, decode_cache, host_ms,
    /// sim_cycles_per_sec, mips}, ...]}`. `host_parallelism` is the
    /// producing host's `std::thread::available_parallelism` — without it
    /// a flat thread-scaling curve is indistinguishable from a scaling
    /// regression. Hand-rolled — the workspace builds offline with no
    /// serde dependency.
    pub fn to_json(&self) -> String {
        let host = host_parallelism();
        let mut out = format!(
            "{{\n  \"experiment\": \"throughput\",\n  \"host_parallelism\": {host},\n  \"rows\": [\n"
        );
        for (i, r) in self.rows.iter().enumerate() {
            let sep = if i + 1 < self.rows.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"scenario\": \"{}\", \"engine\": \"{}\", \"threads\": {}, \
                 \"decode_cache\": {}, \"host_ms\": {:.6}, \
                 \"sim_cycles_per_sec\": {:.3}, \"mips\": {:.6}}}{sep}\n",
                r.scenario,
                r.engine.name(),
                r.engine.threads(),
                r.decode_cache,
                r.host_ms,
                r.sim_cycles_per_sec,
                r.mips,
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes [`Self::to_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

impl fmt::Display for Throughput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Simulator throughput (host-side, every engine; host parallelism {}):",
            host_parallelism()
        )?;
        writeln!(
            f,
            "  {:<16} {:<12} {:>8} {:>6} {:>10} {:>16} {:>10}",
            "scenario", "engine", "threads", "cache", "host ms", "sim cycles/s", "sim MIPS"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<16} {:<12} {:>8} {:>6} {:>10.2} {:>16.3e} {:>10.1}",
                r.scenario,
                r.engine.name(),
                r.engine.threads(),
                if r.decode_cache { "on" } else { "off" },
                r.host_ms,
                r.sim_cycles_per_sec,
                r.mips
            )?;
        }
        for scenario in ["busy-slice", "idle-480", "active10-480", PIPELINE_480] {
            if let Some(s) = self.speedup(scenario) {
                writeln!(
                    f,
                    "  windowed(1) speedup over lock-step, {scenario}: {s:.1}x"
                )?;
            }
            for threads in DEFAULT_THREAD_COUNTS.into_iter().filter(|&t| t > 1) {
                if let Some(s) = self.parallel_speedup(scenario, threads) {
                    writeln!(
                        f,
                        "  windowed({threads}) vs windowed(1), {scenario}: {s:.1}x"
                    )?;
                }
            }
        }
        Ok(())
    }
}

/// Host CPUs available to the pool (1 when the query fails).
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Builds a scenario machine: `slices` grid with every `stride`-th core
/// (0 = none) running the calibrated heavy mix.
fn build(
    engine: EngineMode,
    slices: (u16, u16),
    stride: usize,
    decode_cache: bool,
) -> Result<swallow::SwallowSystem, BuildError> {
    let mut system = SystemBuilder::new()
        .slices(slices.0, slices.1)
        .engine(engine)
        .decode_cache(decode_cache)
        .build()?;
    if stride > 0 {
        let program = heavy_mix_program(4);
        let nodes: Vec<NodeId> = system.nodes().step_by(stride).collect();
        for node in nodes {
            system.load_program(node, &program).expect("fits");
        }
    }
    Ok(system)
}

/// Runs one scenario under one engine for `span` of simulated time,
/// with the predecoded cache at the process-wide default
/// (`SWALLOW_DECODE_CACHE` — the CI smoke leg compares on vs off
/// through this knob).
///
/// # Errors
///
/// The [`BuildError`] of a machine the builder rejects (an empty grid).
pub fn measure(
    scenario: &'static str,
    engine: EngineMode,
    slices: (u16, u16),
    stride: usize,
    span: TimeDelta,
) -> Result<ThroughputRow, BuildError> {
    let cache = swallow::xcore::decode_cache_default();
    measure_with_cache(scenario, engine, slices, stride, span, cache)
}

/// [`measure`] with an explicit predecoded-cache setting (the cache-off
/// rows quantify what decode-once buys).
///
/// # Errors
///
/// The [`BuildError`] of a machine the builder rejects (an empty grid).
pub fn measure_with_cache(
    scenario: &'static str,
    engine: EngineMode,
    slices: (u16, u16),
    stride: usize,
    span: TimeDelta,
    decode_cache: bool,
) -> Result<ThroughputRow, BuildError> {
    let system = build(engine, slices, stride, decode_cache)?;
    Ok(timed_row(scenario, engine, decode_cache, system, span))
}

/// Scenario label of the communicating row.
pub const PIPELINE_480: &str = "pipeline-480";

/// The communicating scenario: 480 stages over the full 6×5-slice
/// machine, each item squared once per stage.
const PIPELINE: PipelineSpec = PipelineSpec {
    stages: 480,
    items: 16,
    work_per_item: 1,
};

/// Runs the 480-stage pipeline under `engine` for `span` of simulated
/// time from boot (the first stages fill while the source streams its
/// items, so the fabric carries traffic on nearly every edge).
pub fn measure_pipeline(engine: EngineMode, span: TimeDelta) -> ThroughputRow {
    let mut system = SystemBuilder::new()
        .slices(6, 5)
        .engine(engine)
        .build()
        .expect("the 6x5 grid builds");
    pipeline::generate(&PIPELINE, system.machine().spec())
        .expect("480 stages fit 480 cores")
        .apply(&mut system)
        .expect("stage programs load");
    let cache = swallow::xcore::decode_cache_default();
    timed_row(PIPELINE_480, engine, cache, system, span)
}

/// Times `run_for(span)` on a built system and derives the row's rates.
fn timed_row(
    scenario: &'static str,
    engine: EngineMode,
    decode_cache: bool,
    mut system: SwallowSystem,
    span: TimeDelta,
) -> ThroughputRow {
    let t0 = Instant::now();
    system.run_for(span);
    let host = t0.elapsed().as_secs_f64().max(1e-9);
    let machine = system.machine();
    let cycles: u64 = machine.nodes().map(|n| machine.core(n).cycles()).sum();
    ThroughputRow {
        scenario,
        engine,
        decode_cache,
        host_ms: host * 1e3,
        sim_cycles_per_sec: cycles as f64 / host,
        mips: machine.total_instret() as f64 / host / 1e6,
    }
}

/// Runs every scenario under lock-step and under the windowed engine at
/// each of `thread_counts`. Every grid here is non-empty, so the builds
/// cannot fail.
///
/// `span` is the simulated time per busy run; the idle 480-core scenario
/// runs the same span (its lock-step cost dominates the experiment).
pub fn run_with(span: TimeDelta, thread_counts: &[usize]) -> Throughput {
    let mut rows = Vec::new();
    let engines = || {
        let windowed = thread_counts
            .iter()
            .map(|&threads| EngineMode::Windowed { threads });
        std::iter::once(EngineMode::LockStep).chain(windowed)
    };
    for (scenario, slices, stride) in [
        ("busy-slice", (1u16, 1u16), 1usize),
        ("idle-480", (6, 5), 0),
        ("active10-480", (6, 5), 10),
    ] {
        for engine in engines() {
            rows.push(measure(scenario, engine, slices, stride, span).expect("builds"));
        }
    }
    for engine in engines() {
        rows.push(measure_pipeline(engine, span));
    }
    // Cache-off reference rows on the decode-bound scenario: the
    // busy-slice delta quantifies what the predecoded-instruction cache
    // buys (results are bit-identical either way; see the differential
    // suites).
    for engine in [EngineMode::LockStep, EngineMode::Windowed { threads: 1 }] {
        let row = measure_with_cache("busy-slice-nocache", engine, (1, 1), 1, span, false);
        rows.push(row.expect("builds"));
    }
    Throughput { rows }
}

/// [`run_with`] over [`DEFAULT_THREAD_COUNTS`].
pub fn run(span: TimeDelta) -> Throughput {
    run_with(span, &DEFAULT_THREAD_COUNTS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_and_speedups_are_well_formed() {
        let t = run_with(TimeDelta::from_us(2), &[1, 2]);
        assert_eq!(t.rows.len(), 14);
        for r in &t.rows {
            assert!(r.host_ms > 0.0);
            assert!(r.sim_cycles_per_sec > 0.0, "{r:?}");
        }
        assert!(t.speedup("idle-480").expect("measured") > 0.0);
        assert!(t.speedup(PIPELINE_480).expect("measured") > 0.0);
        assert!(t.parallel_speedup("busy-slice", 2).expect("measured") > 0.0);
        assert!(t
            .rows
            .iter()
            .any(|r| r.scenario == "busy-slice-nocache" && !r.decode_cache));
        let rendered = t.to_string();
        assert!(rendered.contains("busy-slice"));
        assert!(rendered.contains("speedup"));
        assert!(rendered.contains("windowed(2)"));
    }

    /// The default engine must keep up with the reference on a machine
    /// where every tick has activity: one-thread windows (and the
    /// dense-mode hint of their fast-forward fallback) must not be
    /// slower than lock-step. Min-of-3 host time on both sides and a
    /// lenient 1.3x bound keep this stable on noisy CI hosts.
    #[test]
    fn windowed_one_thread_keeps_up_with_lockstep_when_busy() {
        let span = TimeDelta::from_us(4);
        let best = |engine: EngineMode| {
            (0..3)
                .map(|_| {
                    measure("busy-slice", engine, (1, 1), 1, span)
                        .expect("builds")
                        .host_ms
                })
                .fold(f64::INFINITY, f64::min)
        };
        let ls = best(EngineMode::LockStep);
        let one = best(EngineMode::Windowed { threads: 1 });
        assert!(
            one <= ls * 1.3,
            "windowed(1) ({one:.2} ms) regressed past lock-step ({ls:.2} ms) on a busy machine"
        );
    }

    /// Guards the negotiated windows' thread scaling: on a busy slice
    /// the windowed engine at 4 threads must not be slower than at 1
    /// (monotone thread scaling — the minimum the lock-free negotiation
    /// guarantees). Min-of-3 MIPS on both sides absorbs host noise; a
    /// host without 4 CPUs cannot exercise real parallelism, so the test
    /// logs and skips there rather than measuring scheduler jitter.
    #[test]
    fn parallel_four_threads_keeps_up_with_one_when_busy() {
        if host_parallelism() < 4 {
            eprintln!(
                "skipping parallel-scaling regression: host has {} CPUs (< 4)",
                host_parallelism()
            );
            return;
        }
        let span = TimeDelta::from_us(4);
        let best = |threads: usize| {
            (0..3)
                .map(|_| {
                    measure(
                        "busy-slice",
                        EngineMode::Windowed { threads },
                        (1, 1),
                        1,
                        span,
                    )
                    .expect("builds")
                    .mips
                })
                .fold(0.0f64, f64::max)
        };
        let one = best(1);
        let four = best(4);
        assert!(
            four >= one,
            "windowed(4) ({four:.1} MIPS) regressed below windowed(1) ({one:.1} MIPS) on a busy slice"
        );
    }

    #[test]
    fn json_has_every_row_and_field() {
        let t = run_with(TimeDelta::from_us(1), &[2]);
        let json = t.to_json();
        assert_eq!(json.matches("\"scenario\"").count(), t.rows.len());
        for field in [
            "\"experiment\": \"throughput\"",
            "\"host_parallelism\":",
            "\"engine\": \"lockstep\"",
            "\"engine\": \"windowed\"",
            "\"threads\": 0",
            "\"threads\": 2",
            "\"host_ms\":",
            "\"sim_cycles_per_sec\":",
            "\"mips\":",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        // Trailing-comma-free: the last row closes straight into the array.
        assert!(json.contains("}\n  ]\n}\n"));
    }
}
