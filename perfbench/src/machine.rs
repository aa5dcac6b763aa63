//! The two 480-core workloads: `compute-480` (48 seed-chosen cores on
//! the heavy mix, no traffic, a fixed simulated span) and `pipeline-480`
//! (a 480-stage pipeline across all 30 slices, run to quiescence under a
//! seed-drawn non-lossy fault plan).

use crate::layers::{conservation_rel, ChunkSamples, RunCounts, CONSERVATION_RTOL};
use crate::probes::{self, ProbeSize, ProbeTotals};
use crate::stats::{median, quantile, ratio, secs_since, stepwise_min_s, timed, Outcome, Spans};
use std::time::Instant;
use swallow::faults::FaultCounters;
use swallow::{
    EngineMode, FaultPlan, NodeId, Program, SwallowSystem, SystemBuilder, Time, TimeDelta,
};
use swallow_sim::DetRng;
use swallow_workloads::pipeline::{self, PipelineSpec};
use swallow_workloads::Placement;

/// The 480-core machine: 6 × 5 slices of 16 cores.
const GRID: (u16, u16) = (6, 5);

/// Host worker threads of the measured engine.
const THREADS: usize = 2;

/// Simulated time per engine advance of `compute-480`; counters are
/// sampled between advances.
const CHUNK: TimeDelta = TimeDelta::from_us(10);

/// The same for `pipeline-480`, whose simulated µs cost the host tens of
/// times more. Short advances (a few ms of host time each) let a chunk's
/// fastest time across reps miss the host's slow spells.
const PIPELINE_CHUNK: TimeDelta = TimeDelta::from_us(2);

/// `compute-480`: busy cores and the simulated span one rep covers.
const COMPUTE_ACTIVE: usize = 48;
const COMPUTE_SPAN: TimeDelta = TimeDelta::from_us(400);

/// `pipeline-480`: the pipeline, and the budget past which a run that
/// has not drained counts as hung.
const PIPELINE: PipelineSpec = PipelineSpec {
    stages: 480,
    items: 16,
    work_per_item: 1,
};
const PIPELINE_BUDGET: TimeDelta = TimeDelta::from_ms(2);

/// Roughly when the first item reaches a stage (≈ 445 µs to fill 480
/// stages); fault windows are placed relative to it so they meet traffic.
const STAGE_DELAY_PS: u64 = 930_000;

/// Corruption windows in the fault plan, and their length: short enough
/// that even the fastest link (32 ns per token) stays below the retry
/// budget that would declare it dead.
const CORRUPT_WINDOWS: usize = 6;
const CORRUPT_LEN: TimeDelta = TimeDelta::from_ns(300);

/// The core stall and the brownout (to 75 % speed). The seed picks where
/// and when, not how much, so seeds differ little in host cost.
const STALL_LEN: TimeDelta = TimeDelta::from_us(2);
const BROWNOUT_MILLI: u32 = 750;
const BROWNOUT_LEN: TimeDelta = TimeDelta::from_us(3);

/// The lock-step oracle replays this prefix of every workload.
const ORACLE_PREFIX: TimeDelta = TimeDelta::from_us(20);

/// Simulated instants at which the traced run snapshots the machine for
/// probes (at the first chunk end at or past each).
const SNAPSHOT_AT: [TimeDelta; 3] = [
    TimeDelta::from_us(100),
    TimeDelta::from_us(200),
    TimeDelta::from_us(300),
];

/// Probe sizes: edges per snapshot, and the span of the tracing
/// comparison.
const PROBE: ProbeSize = ProbeSize {
    edges: 2_000,
    trace_span: TimeDelta::from_us(10),
};

/// Minimum set-up samples per run (`setup_s` is their median).
const MIN_SETUPS: usize = 15;

/// Which of the two machine workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `compute-480`.
    Compute,
    /// `pipeline-480`.
    Pipeline,
}

/// Generated programs, before loading.
enum Programs {
    /// One program on a set of nodes.
    Same(Vec<NodeId>, Program),
    /// A generator's placement.
    Placed(Placement),
}

/// Everything observable about a finished run; `PartialEq` compares the
/// ledger bit for bit.
#[derive(Clone, Debug, PartialEq)]
struct Fingerprint {
    now_ps: u64,
    instret: u64,
    energy_bits: u64,
    outputs: Vec<(u16, String)>,
    faults: FaultCounters,
}

impl Fingerprint {
    fn of(system: &SwallowSystem) -> Self {
        let machine = system.machine();
        Fingerprint {
            now_ps: system.now().as_ps(),
            instret: machine.total_instret(),
            energy_bits: machine.machine_ledger().total().as_joules().to_bits(),
            outputs: system
                .nodes()
                .filter(|&n| !system.output(n).is_empty())
                .map(|n| (n.raw(), system.output(n).to_owned()))
                .collect(),
            faults: machine.fault_counters(),
        }
    }

    fn energy_j(&self) -> f64 {
        f64::from_bits(self.energy_bits)
    }

    /// Agreement with the lock-step oracle: exact on time, instructions,
    /// outputs and fault counters; ledger within f64 association.
    fn check_against(&self, oracle: &Fingerprint) -> Result<(), String> {
        let (a, b) = (self.energy_j(), oracle.energy_j());
        let energy_ok = (a - b).abs() <= CONSERVATION_RTOL * a.abs().max(b.abs());
        let same = Fingerprint {
            energy_bits: oracle.energy_bits,
            ..self.clone()
        };
        if same != *oracle || !energy_ok {
            return Err(format!(
                "lock-step oracle disagrees on the prefix: {self:?} vs {oracle:?}"
            ));
        }
        Ok(())
    }
}

/// One workload instance: its shape and the inputs drawn from the seed.
pub struct Workload {
    kind: Kind,
    active: Vec<NodeId>,
    faults: FaultPlan,
}

impl Workload {
    /// Draws the workload's inputs from `seed`.
    pub fn new(kind: Kind, seed: u64) -> Self {
        let mut rng = DetRng::seed_from(seed);
        let cores = SystemBuilder::new()
            .slices(GRID.0, GRID.1)
            .build()
            .expect("480-core grid builds");
        match kind {
            Kind::Compute => Workload {
                kind,
                active: compute_cores(&mut rng, &cores),
                faults: FaultPlan::new(),
            },
            Kind::Pipeline => Workload {
                kind,
                active: Vec::new(),
                faults: pipeline_faults(&mut rng, &cores),
            },
        }
    }

    /// Operations one rep attempts.
    fn ops(&self) -> u64 {
        match self.kind {
            Kind::Compute => 1,
            Kind::Pipeline => u64::from(PIPELINE.items),
        }
    }

    fn generate(&self) -> Programs {
        match self.kind {
            Kind::Compute => Programs::Same(
                self.active.clone(),
                swallow_bench::experiments::heavy_mix_program(4),
            ),
            Kind::Pipeline => Programs::Placed(
                pipeline::generate(
                    &PIPELINE,
                    swallow::GridSpec {
                        slices_x: GRID.0,
                        slices_y: GRID.1,
                    },
                )
                .expect("pipeline fits the grid"),
            ),
        }
    }

    /// Builds the machine under the measured engine, or `engine` when
    /// given (the oracle).
    fn build(&self, engine: Option<EngineMode>) -> SwallowSystem {
        let builder = SystemBuilder::new()
            .slices(GRID.0, GRID.1)
            .metrics()
            .faults(self.faults.clone());
        let builder = match engine {
            Some(engine) => builder.engine(engine),
            None => builder.parallel(THREADS),
        };
        builder.build().expect("480-core grid builds")
    }

    fn load(&self, system: &mut SwallowSystem, programs: &Programs) {
        match programs {
            Programs::Same(nodes, program) => {
                for &node in nodes {
                    system.load_program(node, program).expect("program fits");
                }
            }
            Programs::Placed(placement) => placement.apply(system).expect("programs fit"),
        }
    }

    /// Generate, build and load: one set-up.
    fn setup(&self) -> SwallowSystem {
        let programs = self.generate();
        let mut system = self.build(None);
        self.load(&mut system, &programs);
        system
    }

    /// One engine advance; true once the rep is over.
    fn advance(&self, system: &mut SwallowSystem) -> bool {
        match self.kind {
            Kind::Compute => {
                system.run_for(CHUNK);
                system.now() >= Time::ZERO + COMPUTE_SPAN
            }
            Kind::Pipeline => {
                system.run_until_quiescent(PIPELINE_CHUNK)
                    || system.now() >= Time::ZERO + PIPELINE_BUDGET
            }
        }
    }

    /// Output checks of a finished rep.
    fn verify(&self, system: &SwallowSystem) -> Result<(), String> {
        if let Some((node, trap)) = system.first_trap() {
            return Err(format!("core {} trapped: {trap:?}", node.raw()));
        }
        if self.kind == Kind::Pipeline {
            let want = format!("{}\n", pipeline::checksum(&PIPELINE));
            let sink = NodeId((PIPELINE.stages - 1) as u16);
            if system.output(sink) != want {
                return Err(format!(
                    "pipeline sink printed {:?}, checksum is {want:?} (drained: {})",
                    system.output(sink),
                    system.machine().is_quiescent()
                ));
            }
        }
        Ok(())
    }

    /// Closes the metrics series and checks §II conservation; returns the
    /// relative gap.
    fn conservation(&self, system: &mut SwallowSystem) -> Result<f64, String> {
        system.flush_metrics();
        let rel = conservation_rel(system.machine());
        if rel > CONSERVATION_RTOL {
            return Err(format!("energy conservation broke: relative gap {rel:.3e}"));
        }
        Ok(rel)
    }

    /// Replays the first [`ORACLE_PREFIX`] under the measured engine and
    /// under lock-step, and compares their fingerprints.
    fn oracle(&self) -> Result<(), String> {
        let run = |engine: Option<EngineMode>| {
            let programs = self.generate();
            let mut system = self.build(engine);
            self.load(&mut system, &programs);
            system.run_for(ORACLE_PREFIX);
            Fingerprint::of(&system)
        };
        run(None).check_against(&run(Some(EngineMode::LockStep)))
    }
}

/// The seed-chosen busy cores of `compute-480`: half in each half of the
/// machine's slices and one or two per slice, so every seed offers the
/// engine the same load balance and only core placement varies.
fn compute_cores(rng: &mut DetRng, system: &SwallowSystem) -> Vec<NodeId> {
    let spec = system.machine().spec();
    let slices = spec.slice_count();
    let half = slices / 2;
    let per_half = COMPUTE_ACTIVE / 2;
    let mut chosen = Vec::new();
    for range in [0..half, half..slices] {
        let mut order: Vec<usize> = range.clone().collect();
        rng.shuffle(&mut order);
        // One core in every slice of the half, a second in the first few.
        let doubled = per_half - range.len();
        for (i, &slice) in order.iter().enumerate() {
            let mut nodes: Vec<NodeId> = system
                .nodes()
                .filter(|&n| spec.slice_of(n) == slice)
                .collect();
            rng.shuffle(&mut nodes);
            chosen.extend_from_slice(&nodes[..1 + usize::from(i < doubled)]);
        }
    }
    chosen.sort_unstable();
    chosen
}

/// The seed-drawn non-lossy fault plan of `pipeline-480`: corruption
/// windows on the outgoing links of random stages (the first early
/// enough for the oracle prefix to cover it), one core stall and one
/// brownout. No drop windows and no link-downs, so every token arrives
/// and the sink checksum still holds.
fn pipeline_faults(rng: &mut DetRng, probe: &SwallowSystem) -> FaultPlan {
    let last_stage = PIPELINE.stages as u64 - 1;
    let stage_time = |stage: u64, offset_ns: u64| {
        Time::from_ps(stage * STAGE_DELAY_PS) + TimeDelta::from_ns(offset_ns)
    };
    let mut plan = FaultPlan::new();
    for w in 0..CORRUPT_WINDOWS {
        let stage = if w == 0 {
            rng.range(1, 8)
        } else {
            rng.range(1, last_stage)
        };
        let at = stage_time(stage, rng.range(500, 8_000));
        for desc in probe
            .machine()
            .link_descs()
            .iter()
            .filter(|d| u64::from(d.from.raw()) == stage)
        {
            plan = plan.corrupt_window(at, desc.id, CORRUPT_LEN);
        }
    }
    let stage = rng.range(1, last_stage);
    let at = stage_time(stage, rng.range(1_000, 10_000));
    plan = plan.stall_core(at, NodeId(stage as u16), STALL_LEN);
    let at = Time::from_ps(rng.range(20, 400) * 1_000_000);
    plan.brownout(at, BROWNOUT_MILLI, BROWNOUT_LEN)
}

/// Runs a rep to its end, returning the host seconds of each advance.
fn run_chunks(w: &Workload, system: &mut SwallowSystem) -> Vec<f64> {
    let mut chunks = Vec::new();
    loop {
        let (done, secs) = timed(|| w.advance(system));
        chunks.push(secs);
        if done {
            return chunks;
        }
    }
}

/// Checks run on every rep, outside the timed region.
fn check_rep(w: &Workload, system: &mut SwallowSystem, out: &mut Outcome) -> f64 {
    if let Err(e) = w.verify(system) {
        out.fail(e);
    }
    match w.conservation(system) {
        Ok(rel) => rel,
        Err(e) => {
            out.fail(e);
            f64::NAN
        }
    }
}

/// Every rep must reproduce the first bit for bit.
fn check_repeats(fingerprints: &[Fingerprint], out: &mut Outcome) {
    if let Some(bad) = fingerprints.iter().find(|f| *f != &fingerprints[0]) {
        out.fail(format!("reps diverged: {bad:?} vs {:?}", fingerprints[0]));
    }
}

/// The timed run with tracing off: reps of set-up plus run until
/// `seconds` are used, then the end-to-end metrics.
pub fn untraced(kind: Kind, seed: u64, seconds: f64) -> Outcome {
    let w = Workload::new(kind, seed);
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut chunk_s = Vec::new();
    let mut fingerprints = Vec::new();
    let mut walls = Vec::new();
    let mut rss = None;
    let t0 = Instant::now();
    loop {
        let rep_t0 = Instant::now();
        let (mut system, setup_s) = timed(|| w.setup());
        chunk_s.push(run_chunks(&w, &mut system));
        walls.push(secs_since(rep_t0));
        setups.push(setup_s);
        fingerprints.push(Fingerprint::of(&system));
        check_rep(&w, &mut system, &mut out);
        drop(system);
        // The peak of one set-up and rep: later reps add only allocator
        // churn, and how many of them fit in `seconds` is up to the host.
        rss = rss.or_else(crate::stats::peak_rss_mb);
        if secs_since(t0) + median(&walls) > seconds {
            break;
        }
    }
    while setups.len() < MIN_SETUPS {
        setups.push(timed(|| w.setup()).1);
    }
    check_repeats(&fingerprints, &mut out);
    if let Err(e) = w.oracle() {
        out.fail(e);
    }

    let fp = &fingerprints[0];
    let sim_us = fp.now_ps as f64 / 1e6;
    let run_s = stepwise_min_s(&chunk_s);
    let rate = |work: f64| work / run_s;
    out.attempted = w.ops() * chunk_s.len() as u64;
    out.put("sim_mips", rate(fp.instret as f64) / 1e6, "MIPS");
    out.put("sim_us_per_host_s", rate(sim_us), "us/s");
    out.put("ops_per_host_s", rate(w.ops() as f64), "1/s");
    out.put("setup_s", median(&setups), "s");
    out.put("peak_rss_mb", rss.unwrap_or(f64::NAN), "MiB");
    out.put("sim_energy_mj", fp.energy_j() * 1e3, "mJ");
    out.put("sim_uj_per_op", fp.energy_j() * 1e6 / w.ops() as f64, "uJ");
    out.note(format!(
        "{} reps; simulated span {sim_us:.3} us, {} instructions",
        chunk_s.len(),
        fp.instret
    ));
    out
}

/// The traced run: pairs of an untraced reference rep and a rep with a
/// span around every layer call and counters sampled between engine
/// advances, until `seconds` are used; then probes on snapshots of the
/// first traced rep, the micro probes and the oracle.
pub fn traced(kind: Kind, seed: u64, seconds: f64) -> Outcome {
    let w = Workload::new(kind, seed);
    let mut out = Outcome::default();
    let mut spans = Spans::start();
    let mut samples = ChunkSamples::default();
    let mut counts = RunCounts::default();
    let mut snapshots: Vec<Vec<u8>> = Vec::new();
    let mut reference_walls = Vec::new();
    let mut rep_walls = Vec::new();
    let mut pair_walls = Vec::new();
    let mut fingerprints = Vec::new();
    loop {
        let pair_t0 = Instant::now();
        let reference = spans.top("bench.reference", || {
            timed(|| {
                let mut system = w.setup();
                while !w.advance(&mut system) {}
            })
            .1
        });
        reference_walls.push(reference);

        let rep_t0 = Instant::now();
        let snapshot_before = spans.total("board.snapshot");
        let programs = spans.top("workloads.generate", || w.generate());
        let mut system = spans.top("core.build", || w.build(None));
        spans.top("xcore.load", || w.load(&mut system, &programs));
        let mut rep_samples = ChunkSamples::default();
        loop {
            let done = spans.top("board.run_for", || w.advance(&mut system));
            spans.top("bench.sample", || rep_samples.sample(system.machine()));
            let snapshot_due = SNAPSHOT_AT
                .get(snapshots.len())
                .is_some_and(|&at| system.now() >= Time::ZERO + at);
            if fingerprints.is_empty() && !done && snapshot_due {
                let bytes = spans.top("board.snapshot", || system.snapshot());
                snapshots.push(bytes);
            }
            if done {
                break;
            }
        }
        rep_walls.push(secs_since(rep_t0) - (spans.total("board.snapshot") - snapshot_before));
        fingerprints.push(Fingerprint::of(&system));
        let rel = spans.top("bench.check", || check_rep(&w, &mut system, &mut out));
        if fingerprints.len() == 1 {
            samples = rep_samples;
            counts = RunCounts::of(system.machine(), rel);
        }
        pair_walls.push(secs_since(pair_t0));
        if spans.wall() + median(&pair_walls) > seconds {
            break;
        }
    }
    check_repeats(&fingerprints, &mut out);

    let mut totals = ProbeTotals::default();
    for bytes in &snapshots {
        spans.top("bench.probe", || {
            probes::probe_snapshot(bytes, PROBE, &mut totals)
        });
    }
    probes::micro(&mut spans, &mut out);
    if let Err(e) = spans.top("bench.oracle", || w.oracle()) {
        out.fail(e);
    }

    out.attempted = w.ops() * fingerprints.len() as u64;
    let ms = |v: &[f64]| median(v) * 1e3;
    out.put(
        "workloads.generate_ms",
        ms(spans.get("workloads.generate")),
        "ms",
    );
    out.put("core.build_ms", ms(spans.get("core.build")), "ms");
    out.put("xcore.load_ms", ms(spans.get("xcore.load")), "ms");
    out.put("board.snapshot_ms", ms(spans.get("board.snapshot")), "ms");
    out.put("board.restore_ms", ms(&totals.restore_s), "ms");
    out.put(
        "board.snapshot_mb",
        snapshots
            .first()
            .map_or(0.0, |b| b.len() as f64 / (1024.0 * 1024.0)),
        "MiB",
    );
    let chunks = spans.get("board.run_for");
    out.put("board.run_for_ms_p50", quantile(chunks, 0.5) * 1e3, "ms");
    out.put("board.run_for_ms_p90", quantile(chunks, 0.9) * 1e3, "ms");
    out.put(
        "board.run_for_share",
        ratio(spans.total("board.run_for"), rep_walls.iter().sum()),
        "share",
    );
    probes::report(&totals, &mut out);
    samples.report(&mut out);
    counts.report(&mut out);
    out.put(
        "bench.trace_overhead_share",
        median(&rep_walls) / median(&reference_walls) - 1.0,
        "share",
    );
    out.put("sim.span_us", fingerprints[0].now_ps as f64 / 1e6, "us");
    out.put(
        "bench.unattributed_share",
        spans.unattributed_share(),
        "share",
    );
    out
}
