//! Differential tests: the windowed engine must be observationally
//! identical to the cycle-by-cycle lock-step reference at every thread
//! count.
//!
//! Both engines process exactly the same grid-aligned instants at which
//! anything can happen (core ticks, wake-ups, fabric hops, bridge pacing,
//! monitor updates); the windowed engine's fast-forward steps merely skip
//! the provably idle instants in between and charge their energy
//! analytically, and its windows batch independent spans onto host
//! threads. These tests pin that equivalence down for representative
//! workloads: identical retired instruction counts, identical final
//! simulated time, identical program outputs, and energy ledgers equal to
//! within floating-point association error (the only permitted
//! difference: `n` idle-tick charges summed one by one versus multiplied
//! out in one shot). The windowed engine is additionally required to be
//! *bit-identical* across repeated runs at every tested thread count.
//!
//! Set `SWALLOW_THREADS` to pin the suite to one thread count (see
//! `common`).

mod common;

use common::engines_under_test;

use swallow_repro::swallow::energy::NodeCategory;
use swallow_repro::swallow::{
    Assembler, EngineMode, NodeId, RouterKind, SwallowSystem, SystemBuilder, TimeDelta,
};
use swallow_repro::swallow_workloads::{client_server, farm, pipeline};
use swallow_testkit::proptest::prelude::*;

/// Relative energy tolerance between the engines (f64 association only).
const ENERGY_RTOL: f64 = 1e-9;

/// Everything observable about a finished run. `PartialEq` compares
/// energy bit-for-bit — used for the repeated-run determinism check,
/// not for cross-engine comparison (which allows `ENERGY_RTOL`).
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    quiescent: bool,
    now_ps: u64,
    instret: u64,
    outputs: Vec<String>,
    energy: Vec<(NodeCategory, f64)>,
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
    for (&(cat, a), &(_, b)) in got.energy.iter().zip(&ls.energy) {
        let scale = a.abs().max(b.abs()).max(f64::MIN_POSITIVE);
        assert!(
            (a - b).abs() <= ENERGY_RTOL * scale,
            "{engine:?}: {cat} energy diverged: {a} J vs lock-step {b} J"
        );
    }
}

/// Runs the same setup under lock-step and every engine under test,
/// checking each fingerprint against the reference. Each engine runs
/// twice and must be bit-identical across runs. Returns the first
/// engine's fingerprint and the lock-step one.
fn run_differential_with(
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

/// [`run_differential_with`] on the default one-slice builder.
fn run_differential(
    budget: TimeDelta,
    setup: impl FnMut(&mut SwallowSystem),
) -> (Fingerprint, Fingerprint) {
    run_differential_with(budget, SystemBuilder::new, setup)
}

#[test]
fn pipeline_runs_identically_under_both_engines() {
    let spec = pipeline::PipelineSpec {
        stages: 6,
        items: 24,
        work_per_item: 3,
    };
    let (ff, _) = run_differential(TimeDelta::from_ms(20), |system| {
        pipeline::generate(&spec, system.machine().spec())
            .expect("generates")
            .apply(system)
            .expect("loads");
    });
    assert!(ff.quiescent, "pipeline must drain");
    assert_eq!(
        ff.outputs[5].trim(),
        pipeline::checksum(&spec).to_string(),
        "and still compute the right checksum"
    );
}

#[test]
fn farm_runs_identically_under_both_engines() {
    let spec = farm::FarmSpec {
        workers: 5,
        tasks: 20,
        work_per_task: 4,
    };
    let (ff, _) = run_differential(TimeDelta::from_ms(20), |system| {
        farm::generate(&spec, system.machine().spec())
            .expect("generates")
            .apply(system)
            .expect("loads");
    });
    assert!(ff.quiescent, "farm must drain");
    assert_eq!(ff.outputs[0].trim(), farm::expected_sum(&spec).to_string());
}

#[test]
fn ping_pong_runs_identically_under_both_engines() {
    // Request/reply round trips: latency-bound, so almost all simulated
    // time is idle — the regime where fast-forward does the most work.
    let spec = client_server::ServiceSpec {
        clients: 2,
        requests_per_client: 8,
    };
    let (ff, _) = run_differential(TimeDelta::from_ms(50), |system| {
        client_server::generate(&spec, system.machine().spec())
            .expect("generates")
            .apply(system)
            .expect("loads");
    });
    assert!(ff.quiescent, "ping-pong must drain");
    for i in 0..2 {
        assert_eq!(
            ff.outputs[i + 1].trim(),
            client_server::expected_client_sum(&spec, i).to_string()
        );
    }
}

#[test]
fn long_timer_sleeps_fast_forward_to_the_same_instant() {
    // Sleeps far longer than any workload message gap: the fast-forward
    // engine jumps hundreds of thousands of ticks at once here, yet must
    // land on exactly the wake instants the lock-step engine reaches.
    let (ff, _) = run_differential(TimeDelta::from_ms(10), |system| {
        for (node, ticks) in [(0u16, 50_000u32), (7, 63_456), (15, 65_001)] {
            let program = Assembler::new()
                .assemble(&format!(
                    "
                        getr  r0, timer
                        in    r1, r0
                        add   r2, r1, {ticks}
                        tmwait r0, r2
                        in    r3, r0
                        lsu   r4, r3, r2      # woke early? must be 0
                        print r4
                        freet
                    "
                ))
                .expect("assembles");
            system.load_program(NodeId(node), &program).expect("fits");
        }
    });
    assert!(ff.quiescent);
    for node in [0usize, 7, 15] {
        assert_eq!(ff.outputs[node].trim(), "0", "core {node} woke early");
    }
}

#[test]
fn idle_machine_burns_identical_energy() {
    // A fully idle slice for 200 µs: every tick of every core is skipped
    // analytically, and the ledgers must still agree to 1e-9.
    let run = |engine: EngineMode| {
        let mut system = SystemBuilder::new().engine(engine).build().expect("builds");
        system.run_for(TimeDelta::from_us(200));
        fingerprint(&system, true)
    };
    let ls = run(EngineMode::LockStep);
    let mut total = 0.0;
    for engine in engines_under_test() {
        let fp = run(engine);
        assert_equivalent(engine, &fp, &ls);
        total = fp.energy.iter().map(|(_, j)| j).sum::<f64>();
    }
    assert!(total > 0.0, "idle energy must still be charged");
}

#[test]
fn parallel_agrees_on_shortest_paths_routing() {
    // Same pipeline, but routed breadth-first instead of vertical-first:
    // different hop counts and link orderings must not perturb the
    // conservative epoch horizon or the reconciliation order.
    let spec = pipeline::PipelineSpec {
        stages: 6,
        items: 16,
        work_per_item: 3,
    };
    let (fp, _) = run_differential_with(
        TimeDelta::from_ms(20),
        || SystemBuilder::new().router(RouterKind::ShortestPaths),
        |system| {
            pipeline::generate(&spec, system.machine().spec())
                .expect("generates")
                .apply(system)
                .expect("loads");
        },
    );
    assert!(fp.quiescent, "pipeline must drain under shortest-paths");
    assert_eq!(fp.outputs[5].trim(), pipeline::checksum(&spec).to_string());
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10, // each case is two whole-machine runs
        .. ProptestConfig::default()
    })]

    /// Random wake schedules: cores sleep for arbitrary spans and then
    /// must all wake — fast-forward may never jump past a wake instant,
    /// and has to agree with lock-step on when each wake happened.
    #[test]
    fn fast_forward_never_skips_a_wake(
        schedule in proptest::collection::vec((0u16..16, 1u32..60_000), 1..6),
    ) {
        let mut nodes_used = Vec::new();
        let (ff, _) = run_differential(TimeDelta::from_ms(10), |system| {
            nodes_used.clear();
            for &(node, ticks) in &schedule {
                if nodes_used.contains(&node) {
                    continue; // one sleeper per core
                }
                nodes_used.push(node);
                let program = Assembler::new()
                    .assemble(&format!(
                        "
                            getr  r0, timer
                            in    r1, r0
                            add   r2, r1, {ticks}
                            tmwait r0, r2
                            in    r3, r0
                            lsu   r4, r3, r2
                            print r4
                            freet
                        "
                    ))
                    .expect("assembles");
                system.load_program(NodeId(node), &program).expect("fits");
            }
        });
        prop_assert!(ff.quiescent, "all sleepers must wake and drain");
        for &node in &nodes_used {
            prop_assert_eq!(
                ff.outputs[node as usize].trim(),
                "0",
                "core {} skipped past its wake instant",
                node
            );
        }
    }
}
