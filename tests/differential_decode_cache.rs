//! Differential tests for the predecoded-instruction cache: with the
//! cache on vs off, every engine must produce *bit-identical* quiescence
//! verdicts, final simulated time, retired-instruction counts and
//! program outputs, and energy equal to 1e-9 relative (the ledgers are
//! charged from identical per-instruction values, so in practice they
//! match exactly).
//!
//! The cache entries are pure functions of the SRAM words they were
//! decoded from, and every SRAM write funnel invalidates, so the only
//! way these tests can fail is a stale entry surviving a code store —
//! which the self-modifying scenario below constructs deliberately.
//!
//! Set `SWALLOW_THREADS` to pin the windowed engine to one thread count
//! (see `common`); the CI decode-cache leg additionally runs the whole
//! workspace with `SWALLOW_DECODE_CACHE=off`.

mod common;

use common::every_engine;

use swallow_repro::swallow::energy::NodeCategory;
use swallow_repro::swallow::{Assembler, NodeId, SwallowSystem, SystemBuilder, TimeDelta};
use swallow_repro::swallow_workloads::{farm, pipeline};

/// Relative energy tolerance (f64 association only; see module doc).
const ENERGY_RTOL: f64 = 1e-9;

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

/// Runs the same setup with the cache on and off under every engine and
/// asserts the fingerprints agree. Returns the cache-on fingerprint of
/// the first engine (for scenario-level output checks).
fn run_cache_differential(
    budget: TimeDelta,
    mut setup: impl FnMut(&mut SwallowSystem),
) -> Fingerprint {
    let mut first = None;
    for engine in every_engine() {
        let mut run = |cache: bool| {
            let mut system = SystemBuilder::new()
                .engine(engine)
                .decode_cache(cache)
                .build()
                .expect("builds");
            setup(&mut system);
            let quiescent = system.run_until_quiescent(budget);
            fingerprint(&system, quiescent)
        };
        let on = run(true);
        let off = run(false);
        assert_eq!(
            on.quiescent, off.quiescent,
            "{engine:?}: quiescence differs with the cache on"
        );
        assert_eq!(
            on.now_ps, off.now_ps,
            "{engine:?}: final simulated time differs with the cache on"
        );
        assert_eq!(
            on.instret, off.instret,
            "{engine:?}: retired instructions differ with the cache on"
        );
        assert_eq!(
            on.outputs, off.outputs,
            "{engine:?}: outputs differ with the cache on"
        );
        for (&(cat, a), &(_, b)) in on.energy.iter().zip(&off.energy) {
            let scale = a.abs().max(b.abs()).max(f64::MIN_POSITIVE);
            assert!(
                (a - b).abs() <= ENERGY_RTOL * scale,
                "{engine:?}: {cat} energy diverged with the cache on: {a} J vs {b} J"
            );
        }
        first.get_or_insert(on);
    }
    first.expect("at least one engine under test")
}

#[test]
fn pipeline_is_cache_invariant_under_every_engine() {
    let spec = pipeline::PipelineSpec {
        stages: 6,
        items: 24,
        work_per_item: 3,
    };
    let fp = run_cache_differential(TimeDelta::from_ms(20), |system| {
        pipeline::generate(&spec, system.machine().spec())
            .expect("generates")
            .apply(system)
            .expect("loads");
    });
    assert!(fp.quiescent, "pipeline must drain");
    assert_eq!(fp.outputs[5].trim(), pipeline::checksum(&spec).to_string());
}

#[test]
fn farm_is_cache_invariant_under_every_engine() {
    let spec = farm::FarmSpec {
        workers: 5,
        tasks: 20,
        work_per_task: 4,
    };
    let fp = run_cache_differential(TimeDelta::from_ms(20), |system| {
        farm::generate(&spec, system.machine().spec())
            .expect("generates")
            .apply(system)
            .expect("loads");
    });
    assert!(fp.quiescent, "farm must drain");
    assert_eq!(fp.outputs[0].trim(), farm::expected_sum(&spec).to_string());
}

#[test]
fn timer_sleeps_are_cache_invariant() {
    // Mostly idle machine: the cache changes nothing, and fast-forward's
    // analytic skips must land on the same instants either way.
    let fp = run_cache_differential(TimeDelta::from_ms(10), |system| {
        for (node, ticks) in [(0u16, 40_000u32), (9, 55_555)] {
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
    assert!(fp.quiescent);
    for node in [0usize, 9] {
        assert_eq!(fp.outputs[node].trim(), "0", "core {node} woke early");
    }
}

#[test]
fn self_modifying_code_is_cache_invariant() {
    use swallow_repro::swallow::isa::{encode, Instr, Reg};

    // The program executes `dst:` once as a nop (caching the entry),
    // then stores the encoding of `ldc r0, 99` over it and jumps back.
    // Correct invalidation executes the new instruction and prints 99; a
    // stale entry would keep executing the nop and spin forever. Both
    // cache settings must agree on every engine.
    let patch = encode(&Instr::Ldc {
        d: Reg::R0,
        imm: 99,
    })
    .expect("encodes");
    assert_eq!(patch.words().len(), 1, "small ldc must be one word");
    let patch_word = patch.words()[0];

    let fp = run_cache_differential(TimeDelta::from_ms(5), |system| {
        let program = Assembler::new()
            .assemble(&format!(
                "
                        ldap  r1, patch
                        ldw   r2, r1[0]
                        ldap  r3, dst
                        ldc   r0, 0
                    dst:
                        nop
                        bt    r0, done
                        stw   r2, r3[0]
                        bu    dst
                    done:
                        print r0
                        freet
                    patch:
                        .word {patch_word}
                "
            ))
            .expect("assembles");
        system.load_program(NodeId(0), &program).expect("fits");
    });
    assert!(fp.quiescent, "self-modifying program must terminate");
    assert_eq!(
        fp.outputs[0].trim(),
        "99",
        "the spliced instruction must execute after the store"
    );
}
