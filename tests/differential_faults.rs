//! Differential tests for the fault-injection subsystem: a scheduled
//! fault plan must produce the *same* fault timeline, program outputs,
//! resilience counters and (within f64 association) energy under both
//! engines — lock-step and windowed at several thread counts — and an
//! empty plan must perturb nothing at all.
//!
//! Faults are applied serially at grid instants before any core runs
//! (DESIGN.md §3.10); these tests pin that engine-invariance down, plus
//! the recovery behaviours: retry under corruption, reroute + sticky
//! rebind around a dead link, quarantine of partitioned cores, and
//! energy conservation with retransmit energy included.

mod common;

use common::{engines_under_test, every_engine};

use swallow_repro::swallow::energy::NodeCategory;
use swallow_repro::swallow::noc::{Direction, LinkId};
use swallow_repro::swallow::{
    EngineMode, FaultCounters, FaultPlan, NodeId, SwallowSystem, SystemBuilder, Time, TimeDelta,
};
use swallow_repro::swallow_workloads::pipeline;

/// Relative energy tolerance between the engines (f64 association only).
const ENERGY_RTOL: f64 = 1e-9;

/// Everything observable about a finished faulted run, fault counters
/// included. `PartialEq` compares energy bit-for-bit (used for the
/// repeated-run determinism check).
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    quiescent: bool,
    now_ps: u64,
    instret: u64,
    outputs: Vec<String>,
    energy: Vec<(NodeCategory, f64)>,
    faults: FaultCounters,
}

fn fingerprint(system: &SwallowSystem, quiescent: bool) -> Fingerprint {
    Fingerprint {
        quiescent,
        now_ps: system.now().as_ps(),
        instret: system.perf_report().instret,
        outputs: system
            .nodes()
            .map(|n| system.output(n).to_owned())
            .collect(),
        energy: system
            .power_report()
            .ledger
            .iter()
            .map(|(cat, e)| (cat, e.as_joules()))
            .collect(),
        faults: system.machine().fault_counters(),
    }
}

fn assert_equivalent(engine: EngineMode, got: &Fingerprint, ls: &Fingerprint) {
    assert_eq!(
        got.quiescent, ls.quiescent,
        "{engine:?}: quiescence verdicts differ"
    );
    assert_eq!(
        got.now_ps, ls.now_ps,
        "{engine:?}: final simulated time differs"
    );
    assert_eq!(
        got.instret, ls.instret,
        "{engine:?}: retired instruction counts differ"
    );
    assert_eq!(
        got.outputs, ls.outputs,
        "{engine:?}: program outputs differ"
    );
    assert_eq!(
        got.faults, ls.faults,
        "{engine:?}: fault/resilience counters differ"
    );
    for (&(cat, a), &(_, b)) in got.energy.iter().zip(&ls.energy) {
        let scale = a.abs().max(b.abs()).max(f64::MIN_POSITIVE);
        assert!(
            (a - b).abs() <= ENERGY_RTOL * scale,
            "{engine:?}: {cat} energy diverged: {a} J vs lock-step {b} J"
        );
    }
}

/// Runs the same faulted setup under lock-step and every engine under
/// test; each engine runs twice and must be bit-identical.
fn run_differential(
    budget: TimeDelta,
    builder: impl Fn() -> SystemBuilder,
    mut setup: impl FnMut(&mut SwallowSystem),
) -> (Fingerprint, Fingerprint) {
    let mut run = |engine: EngineMode| {
        let mut system = builder().engine(engine).build().expect("builds");
        setup(&mut system);
        let quiescent = system.run_until_quiescent(budget);
        fingerprint(&system, quiescent)
    };
    let ls = run(EngineMode::LockStep);
    let mut first = None;
    for engine in engines_under_test() {
        let fp = run(engine);
        assert_equivalent(engine, &fp, &ls);
        let again = run(engine);
        assert_eq!(fp, again, "{engine:?}: repeated runs must be bit-identical");
        first.get_or_insert(fp);
    }
    (first.expect("at least one engine under test"), ls)
}

fn t(us: u64) -> Time {
    Time::ZERO + TimeDelta::from_us(us)
}

const PIPE: pipeline::PipelineSpec = pipeline::PipelineSpec {
    stages: 6,
    items: 24,
    work_per_item: 3,
};

fn load_pipeline(system: &mut SwallowSystem) {
    pipeline::generate(&PIPE, system.machine().spec())
        .expect("generates")
        .apply(system)
        .expect("loads");
}

/// One link of the aggregated internal bundle between two nodes — the
/// kind of link a pipeline hop rides, with three spares alongside.
fn internal_link_between(system: &SwallowSystem, from: u16, to: u16) -> LinkId {
    system
        .machine()
        .link_descs()
        .iter()
        .find(|d| d.dir == Direction::Internal && d.from == NodeId(from) && d.to == NodeId(to))
        .expect("internal link exists")
        .id
}

#[test]
fn empty_fault_plan_perturbs_nothing() {
    // An explicitly-attached empty plan must leave every fingerprint
    // bit-identical to a build with no plan at all (PartialEq compares
    // the energy f64s exactly).
    let run = |with_empty_plan: bool| {
        let mut builder = SystemBuilder::new();
        if with_empty_plan {
            builder = builder.faults(FaultPlan::new());
        }
        let mut system = builder.build().expect("builds");
        load_pipeline(&mut system);
        let quiescent = system.run_until_quiescent(TimeDelta::from_ms(20));
        fingerprint(&system, quiescent)
    };
    let bare = run(false);
    let planned = run(true);
    assert!(bare.quiescent);
    assert_eq!(bare, planned, "an empty plan must be a perfect no-op");
    assert!(bare.faults.is_quiet());
}

#[test]
fn recoverable_fault_storm_runs_identically_under_every_engine() {
    // Transient link death (with recovery), a corruption window on a
    // second link, a core stall and a brownout — all while the pipeline
    // runs. Every engine must agree on the full timeline and the
    // pipeline must still deliver the right checksum.
    let probe = SystemBuilder::new().build().expect("builds");
    let hop01 = internal_link_between(&probe, 0, 1);
    let hop23 = internal_link_between(&probe, 2, 3);
    // The pipeline quiesces around 27 µs fault-free, with steady traffic
    // on every hop from ~1 µs — all instants below land inside that.
    let plan = FaultPlan::new()
        .link_down(t(2), hop01)
        .link_up(t(8), hop01)
        .corrupt_window(t(5), hop23, TimeDelta::from_us(2))
        .stall_core(t(6), NodeId(2), TimeDelta::from_us(3))
        .brownout(t(12), 600, TimeDelta::from_us(3));
    let (fp, _) = run_differential(
        TimeDelta::from_ms(20),
        || SystemBuilder::new().faults(plan.clone()),
        load_pipeline,
    );
    assert!(fp.quiescent, "storm must be survivable");
    assert_eq!(
        fp.outputs[5].trim(),
        pipeline::checksum(&PIPE).to_string(),
        "checksum must survive the storm"
    );
    assert!(fp.faults.link_downs >= 1);
    assert_eq!(fp.faults.link_ups, 1);
    assert_eq!(fp.faults.core_stalls, 1);
    assert_eq!(fp.faults.brownouts, 1);
    assert!(fp.faults.reroutes >= 2, "down and up each recompute routes");
    assert_eq!(fp.faults.quarantined_cores, 0);
}

#[test]
fn killed_link_reroutes_instead_of_deadlocking() {
    // Kill one internal link on the pipeline's first hop and never
    // restore it: flows sticky-bound to it must unbind, re-open their
    // route over a surviving aggregated link, and the pipeline must
    // drain to the correct checksum under every engine.
    let probe = SystemBuilder::new().build().expect("builds");
    let hop01 = internal_link_between(&probe, 0, 1);
    let plan = FaultPlan::new().link_down(t(1), hop01);
    let (fp, _) = run_differential(
        TimeDelta::from_ms(20),
        || SystemBuilder::new().faults(plan.clone()),
        load_pipeline,
    );
    assert!(fp.quiescent, "reroute must beat the bounded timeout");
    assert_eq!(fp.outputs[5].trim(), pipeline::checksum(&PIPE).to_string());
    assert_eq!(fp.faults.link_downs, 1);
    assert!(fp.faults.reroutes >= 1);
    assert_eq!(
        fp.faults.quarantined_cores, 0,
        "three aggregated links survive; nothing is unreachable"
    );
}

#[test]
fn drop_window_loses_tokens_identically_under_every_engine() {
    // A drop window across the pipeline's first hop: data tokens are
    // lost (their energy already spent), so the pipeline may hang — the
    // point here is that every engine agrees exactly on what was lost,
    // what was delivered and what the hang looks like.
    let probe = SystemBuilder::new().build().expect("builds");
    let descs: Vec<LinkId> = probe
        .machine()
        .link_descs()
        .iter()
        .filter(|d| d.dir == Direction::Internal && d.from == NodeId(0) && d.to == NodeId(1))
        .map(|d| d.id)
        .collect();
    let mut plan = FaultPlan::new();
    for lid in descs {
        plan = plan.drop_window(t(1), lid, TimeDelta::from_us(40));
    }
    let (fp, _) = run_differential(
        TimeDelta::from_us(300),
        || SystemBuilder::new().faults(plan.clone()),
        load_pipeline,
    );
    assert!(
        fp.faults.dropped_tokens > 0,
        "the window must actually lose data tokens"
    );
    assert!(fp.faults.delivered_rate() < 1.0);
}

#[test]
fn partition_quarantines_the_cut_off_core() {
    // Cut every link touching node 3: after the reroute the machine's
    // majority can no longer exchange tokens with it, so it must be
    // quarantined (counted and halted) — and the run must not wedge.
    let probe = SystemBuilder::new().build().expect("builds");
    let cut: Vec<LinkId> = probe
        .machine()
        .link_descs()
        .iter()
        .filter(|d| d.from == NodeId(3) || d.to == NodeId(3))
        .map(|d| d.id)
        .collect();
    assert!(!cut.is_empty());
    let mut plan = FaultPlan::new();
    for lid in cut {
        plan = plan.link_down(t(1), lid);
    }
    let (fp, _) = run_differential(
        TimeDelta::from_us(300),
        || SystemBuilder::new().faults(plan.clone()),
        load_pipeline,
    );
    assert_eq!(fp.faults.quarantined_cores, 1, "exactly node 3 is cut off");
    let mut system = SystemBuilder::new()
        .faults(
            probe
                .machine()
                .link_descs()
                .iter()
                .filter(|d| d.from == NodeId(3) || d.to == NodeId(3))
                .fold(FaultPlan::new(), |p, d| p.link_down(t(1), d.id)),
        )
        .build()
        .expect("builds");
    system.run_for(TimeDelta::from_us(10));
    assert!(
        system.machine().core(NodeId(3)).is_halted(),
        "a quarantined core is dead"
    );
}

#[test]
fn interslice_cable_fault_reroutes_identically_on_a_grid() {
    // A 2×1-slice machine: pipeline stages 0..6 span both slices, so
    // stage traffic rides an inter-slice FFC cable. Killing one cable
    // mid-run forces a route recompute — and, under the negotiated
    // windowed engine, a refresh of the shard-pair lookahead matrix —
    // while cross-slice traffic is in flight; restoring the cable
    // recomputes both again. Every engine must agree on the timeline.
    let probe = SystemBuilder::new().slices(2, 1).build().expect("builds");
    let spec = probe.machine().spec();
    let cable = probe
        .machine()
        .link_descs()
        .iter()
        .find(|d| spec.slice_of(d.from) != spec.slice_of(d.to))
        .expect("a 2x1 grid has inter-slice cables")
        .id;
    let plan = FaultPlan::new()
        .link_down(t(2), cable)
        .link_up(t(10), cable);
    let (fp, _) = run_differential(
        TimeDelta::from_ms(20),
        || SystemBuilder::new().slices(2, 1).faults(plan.clone()),
        load_pipeline,
    );
    assert!(fp.quiescent, "the spare cabling must carry the pipeline");
    assert_eq!(fp.outputs[5].trim(), pipeline::checksum(&PIPE).to_string());
    assert_eq!(fp.faults.link_downs, 1);
    assert_eq!(fp.faults.link_ups, 1);
    assert!(fp.faults.reroutes >= 2, "down and up each recompute routes");
    assert_eq!(fp.faults.quarantined_cores, 0);
}

#[test]
fn energy_conservation_holds_with_faults_under_every_engine() {
    // With faults on (including retransmit and drop energy charged at
    // the links), the metered supply rows must still integrate to the
    // machine ledger total to 1e-9 under each engine.
    let probe = SystemBuilder::new().build().expect("builds");
    let hop01 = internal_link_between(&probe, 0, 1);
    let hop23 = internal_link_between(&probe, 2, 3);
    let plan = FaultPlan::new()
        .link_down(t(2), hop01)
        .corrupt_window(t(5), hop23, TimeDelta::from_us(2))
        .brownout(t(12), 600, TimeDelta::from_us(3));
    for engine in every_engine() {
        let mut system = SystemBuilder::new()
            .faults(plan.clone())
            .metrics()
            .engine(engine)
            .build()
            .expect("builds");
        load_pipeline(&mut system);
        assert!(system.run_until_quiescent(TimeDelta::from_ms(20)));
        system.flush_metrics();
        let report = system.metrics_report();
        assert!(
            report.faults.retransmits > 0,
            "{engine:?}: corruption window must cost retransmits"
        );
        let metered = report.metered_energy.as_joules();
        let ledger = report.ledger_energy.as_joules();
        let scale = ledger.abs().max(f64::MIN_POSITIVE);
        assert!(
            (metered - ledger).abs() <= ENERGY_RTOL * scale,
            "{engine:?}: conservation broke: metered {metered} J vs ledger {ledger} J"
        );
    }
}
