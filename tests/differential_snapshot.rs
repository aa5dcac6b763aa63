//! Differential continuation tests for the snapshot/restore subsystem:
//! checkpointing a running machine at an arbitrary instant and restoring
//! it — under *any* engine — must continue bit-identically with the
//! original run. The fingerprint is the same one the engine-equivalence
//! suite uses (final instant, retired instructions, program outputs,
//! fault counters all exact; energy within f64 association), plus one
//! extra obligation unique to snapshots: `restore(snapshot())` must
//! re-emit the very same bytes, proving the codec is lossless.
//!
//! Scenarios cover the representative regimes: a communication-heavy
//! pipeline, a master/worker farm, long timer sleeps (checkpointing
//! cores that are mid-`tmwait`), and a fault storm where the checkpoint
//! lands *inside* a corruption window, a core stall and a brownout — so
//! the fault engine's cursor, the derated frequencies and the fabric's
//! per-link fault windows all have to survive the round trip.
//!
//! Checkpoints are restored under lock-step and under the windowed engine
//! at each thread count `common` selects (`SWALLOW_THREADS` pins one).

mod common;

use std::sync::OnceLock;

use common::every_engine;
use swallow_repro::swallow::board::machine::{SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use swallow_repro::swallow::energy::NodeCategory;
use swallow_repro::swallow::noc::{Direction, LinkId};
use swallow_repro::swallow::{
    Assembler, CodecError, EngineMode, FaultCounters, FaultPlan, NodeId, SwallowSystem,
    SystemBuilder, Time, TimeDelta,
};
use swallow_repro::swallow_workloads::{farm, pipeline};
use swallow_testkit::proptest::prelude::*;

/// Relative energy tolerance between engines (f64 association only).
const ENERGY_RTOL: f64 = 1e-9;

/// Everything observable about a finished continuation. `PartialEq`
/// compares energy bit-for-bit (used for same-engine determinism).
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

fn assert_continuation(at_us: u64, engine: EngineMode, got: &Fingerprint, reference: &Fingerprint) {
    let who = format!("restore@{at_us}µs under {engine:?}");
    assert_eq!(
        got.quiescent, reference.quiescent,
        "{who}: quiescence verdicts differ"
    );
    assert_eq!(
        got.now_ps, reference.now_ps,
        "{who}: final simulated time differs"
    );
    assert_eq!(
        got.instret, reference.instret,
        "{who}: retired instruction counts differ"
    );
    assert_eq!(got.outputs, reference.outputs, "{who}: outputs differ");
    assert_eq!(
        got.faults, reference.faults,
        "{who}: fault/resilience counters differ"
    );
    for (&(cat, a), &(_, b)) in got.energy.iter().zip(&reference.energy) {
        let scale = a.abs().max(b.abs()).max(f64::MIN_POSITIVE);
        assert!(
            (a - b).abs() <= ENERGY_RTOL * scale,
            "{who}: {cat} energy diverged: {a} J vs {b} J"
        );
    }
}

/// Restores `bytes`, re-targets the engine, and runs to quiescence.
fn continue_after_restore(bytes: &[u8], engine: EngineMode, budget: TimeDelta) -> Fingerprint {
    let mut system = SwallowSystem::restore(bytes).expect("snapshot restores");
    system.machine_mut().set_engine(engine);
    let quiescent = system.run_until_quiescent(budget);
    fingerprint(&system, quiescent)
}

/// The core harness: for each checkpoint instant, run a cold system to
/// that instant, snapshot it, let the *original* finish (the reference),
/// then restore the snapshot under every engine under test and demand a
/// bit-identical continuation. Also checks the round trip is lossless:
/// restoring and re-snapshotting must reproduce the same bytes.
fn differential_snapshot(
    budget: TimeDelta,
    instants_us: &[u64],
    builder: impl Fn() -> SystemBuilder,
    mut setup: impl FnMut(&mut SwallowSystem),
) -> Fingerprint {
    let mut last = None;
    for &us in instants_us {
        let mut original = builder().build().expect("builds");
        setup(&mut original);
        original.run_for(TimeDelta::from_us(us));
        let bytes = original.snapshot();
        let reread = SwallowSystem::restore(&bytes).expect("snapshot restores");
        assert!(
            bytes == reread.snapshot(),
            "snapshot at {us} µs: restore→snapshot is not byte-identical"
        );
        let quiescent = original.run_until_quiescent(budget);
        let reference = fingerprint(&original, quiescent);
        for engine in every_engine() {
            let got = continue_after_restore(&bytes, engine, budget);
            assert_continuation(us, engine, &got, &reference);
        }
        last = Some(reference);
    }
    last.expect("at least one checkpoint instant")
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

/// One link of the aggregated internal bundle between two nodes.
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
fn pipeline_checkpoints_continue_bit_identically() {
    // Early (wind-up), steady-state and late (drain) checkpoints of the
    // communication-heavy pipeline: tokens are in flight, sticky flows
    // are bound and channel endpoints hold partial state at all three.
    let reference = differential_snapshot(
        TimeDelta::from_ms(20),
        &[2, 9, 17],
        SystemBuilder::new,
        load_pipeline,
    );
    assert!(reference.quiescent, "pipeline must drain");
    assert_eq!(
        reference.outputs[5].trim(),
        pipeline::checksum(&PIPE).to_string()
    );
}

#[test]
fn farm_checkpoints_continue_bit_identically() {
    // Master/worker farm: round-robin dispatch state lives in registers
    // and per-worker channels; both checkpoints land mid-dispatch.
    let spec = farm::FarmSpec {
        workers: 5,
        tasks: 20,
        work_per_task: 4,
    };
    let reference = differential_snapshot(
        TimeDelta::from_ms(50),
        &[3, 11],
        SystemBuilder::new,
        |system| {
            farm::generate(&spec, system.machine().spec())
                .expect("generates")
                .apply(system)
                .expect("loads");
        },
    );
    assert!(reference.quiescent, "farm must drain");
    assert_eq!(
        reference.outputs[0].trim(),
        farm::expected_sum(&spec).to_string()
    );
}

#[test]
fn timer_sleep_checkpoints_continue_bit_identically() {
    // Cores parked in `tmwait` (wakes at 500–650 µs on the 10 ns timer
    // tick): the 100 µs checkpoint catches all three mid-sleep, the
    // 600 µs one catches a mix of woken and still-sleeping cores. The
    // restored runs must land on exactly the original wake instants.
    let load_sleepers = |system: &mut SwallowSystem| {
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
    };
    let reference = differential_snapshot(
        TimeDelta::from_ms(10),
        &[100, 600],
        SystemBuilder::new,
        load_sleepers,
    );
    assert!(reference.quiescent, "all sleepers must wake and drain");
    for node in [0usize, 7, 15] {
        assert_eq!(
            reference.outputs[node].trim(),
            "0",
            "core {node} woke early"
        );
    }
}

#[test]
fn mid_fault_window_checkpoints_continue_bit_identically() {
    // The hard case: checkpoints taken *inside* active fault windows.
    // At 6 µs a corruption window is live on one link and a core stall
    // on node 2 is in progress; at 13 µs every core is browned out to
    // 600/1000 of nominal frequency with derated power models. The
    // fault engine's cursor, the saved nominal operating points and the
    // fabric's fault windows must all restore exactly — under every
    // engine — for the timelines to agree.
    let probe = SystemBuilder::new().build().expect("builds");
    let hop01 = internal_link_between(&probe, 0, 1);
    let hop23 = internal_link_between(&probe, 2, 3);
    let plan = FaultPlan::new()
        .link_down(t(2), hop01)
        .link_up(t(8), hop01)
        .corrupt_window(t(5), hop23, TimeDelta::from_us(2))
        .stall_core(t(6), NodeId(2), TimeDelta::from_us(3))
        .brownout(t(12), 600, TimeDelta::from_us(3));
    let reference = differential_snapshot(
        TimeDelta::from_ms(20),
        &[6, 13],
        || SystemBuilder::new().faults(plan.clone()),
        load_pipeline,
    );
    assert!(reference.quiescent, "storm must be survivable");
    assert_eq!(
        reference.outputs[5].trim(),
        pipeline::checksum(&PIPE).to_string(),
        "checksum must survive the storm"
    );
    assert_eq!(reference.faults.core_stalls, 1);
    assert_eq!(reference.faults.brownouts, 1);
    assert!(reference.faults.reroutes >= 2);
}

/// A snapshot of a busy machine, built once and shared by the corruption
/// property below (the bytes themselves are deterministic).
fn busy_snapshot() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let mut system = SystemBuilder::new().build().expect("builds");
        load_pipeline(&mut system);
        system.run_for(TimeDelta::from_us(5));
        system.snapshot()
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, // each case is a whole-machine run plus two restores
        .. ProptestConfig::default()
    })]

    /// Random snapshot instants on random sleeper programs: the
    /// snapshot→restore→snapshot round trip must be byte-identical, and
    /// the restored continuation must reach the same quiescent state.
    #[test]
    fn random_instants_round_trip_byte_identically(
        schedule in proptest::collection::vec((0u16..16, 1u32..60_000), 1..6),
        instant_us in 1u64..400,
    ) {
        let mut system = SystemBuilder::new().build().expect("builds");
        let mut nodes_used = Vec::new();
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
        system.run_for(TimeDelta::from_us(instant_us));
        let bytes = system.snapshot();
        let restored = SwallowSystem::restore(&bytes).expect("snapshot restores");
        prop_assert_eq!(restored.now(), system.now());
        prop_assert!(
            bytes == restored.snapshot(),
            "restore→snapshot must be byte-identical"
        );
        let budget = TimeDelta::from_ms(10);
        let quiescent = system.run_until_quiescent(budget);
        let reference = fingerprint(&system, quiescent);
        let got = continue_after_restore(&bytes, EngineMode::default(), budget);
        prop_assert_eq!(&got.outputs, &reference.outputs);
        prop_assert_eq!(got.now_ps, reference.now_ps);
        prop_assert_eq!(got.instret, reference.instret);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256, // pure parsing, no simulation
        .. ProptestConfig::default()
    })]

    /// Flipping any single byte of a valid snapshot must yield a clean
    /// decode error — never a panic, never a silently-wrong machine
    /// (the per-section checksums and header checks see to that).
    #[test]
    fn corrupt_one_byte_is_rejected_not_panicking(
        offset in 0usize..usize::MAX,
        mask in 1u8..=255,
    ) {
        let mut bytes = busy_snapshot().to_vec();
        let offset = offset % bytes.len();
        bytes[offset] ^= mask;
        prop_assert!(
            SwallowSystem::restore(&bytes).is_err(),
            "flipping byte {} must be rejected",
            offset
        );
    }

    /// Truncating a valid snapshot anywhere must also fail cleanly.
    #[test]
    fn truncated_snapshots_are_rejected_not_panicking(
        keep in 0usize..usize::MAX,
    ) {
        let bytes = busy_snapshot();
        let keep = keep % bytes.len(); // strictly shorter than the original
        prop_assert!(
            SwallowSystem::restore(&bytes[..keep]).is_err(),
            "truncating to {} bytes must be rejected",
            keep
        );
    }
}

#[test]
fn older_format_versions_are_rejected_by_version() {
    // A version-2 image (the format before the engine collapse) must be
    // refused by its header alone, with the version it carries.
    let mut bytes = busy_snapshot().to_vec();
    let at = SNAPSHOT_MAGIC.len();
    assert_eq!(bytes[at..at + 4], SNAPSHOT_VERSION.to_le_bytes());
    bytes[at..at + 4].copy_from_slice(&2u32.to_le_bytes());
    assert_eq!(
        SwallowSystem::restore(&bytes).err(),
        Some(CodecError::BadVersion { found: 2 })
    );
}
