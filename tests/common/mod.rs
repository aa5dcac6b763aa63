//! Engines, decode-cache settings and the run fingerprint shared by the
//! differential suites.
//!
//! Every suite compares the windowed engine against the lock-step
//! oracle at several thread counts: degenerate (1), even splits (2, 4),
//! an uneven split (7) that leaves shards of different sizes on a
//! 16-core slice, and eight two-core shards (8), more threads than a
//! small host has CPUs. The engine, trace and fault suites also run
//! every scenario with the predecoded-instruction cache on and again
//! with it off.
//!
//! Not every suite that includes this module uses every item in it.
#![allow(dead_code)]

use swallow_repro::swallow::energy::NodeCategory;
use swallow_repro::swallow::{EngineMode, FaultCounters, SwallowSystem, SystemBuilder, TimeDelta};

/// Windowed-engine thread counts compared against lock-step.
const WINDOWED_THREADS: [usize; 5] = [1, 2, 4, 7, 8];

/// Decode-cache settings a suite runs each scenario under: the default
/// (on) first, then the cache-off reference.
pub const DECODE_CACHE: [bool; 2] = [true, false];

/// The engines each scenario runs under and compares with lock-step.
pub fn engines_under_test() -> Vec<EngineMode> {
    WINDOWED_THREADS
        .map(|threads| EngineMode::Windowed { threads })
        .to_vec()
}

/// Lock-step followed by [`engines_under_test`]: for suites whose
/// obligation holds under each engine on its own (a toggle that must not
/// perturb a run, a checkpoint that must continue identically).
pub fn every_engine() -> Vec<EngineMode> {
    let mut engines = vec![EngineMode::LockStep];
    engines.extend(engines_under_test());
    engines
}

/// Everything observable about a finished run, read from its
/// [`run_report`](SwallowSystem::run_report). `PartialEq` compares the
/// energy bit for bit: it is the determinism check (same engine, same
/// schedule); [`assert_equivalent`] is the cross-engine one.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub quiescent: bool,
    pub now_ps: u64,
    pub instret: u64,
    pub outputs: Vec<String>,
    pub energy: Vec<(NodeCategory, f64)>,
    pub faults: FaultCounters,
}

impl Fingerprint {
    /// Fingerprints `system`; `quiescent` is the verdict its run returned.
    pub fn of(system: &SwallowSystem, quiescent: bool) -> Fingerprint {
        let report = system.run_report();
        Fingerprint {
            quiescent,
            now_ps: system.now().as_ps(),
            instret: report.instret(),
            outputs: system
                .nodes()
                .map(|n| system.output(n).to_owned())
                .collect(),
            energy: report
                .ledger
                .iter()
                .map(|(cat, e)| (cat, e.as_joules()))
                .collect(),
            faults: report.faults,
        }
    }
}

/// Requires `got` to match `reference` exactly in quiescence, final
/// instant, retired instructions, outputs, fault counters and every
/// energy category, bit for bit: each engine makes lock-step's ledger
/// additions in lock-step's order. `who` names the run.
pub fn assert_equivalent(who: &str, got: &Fingerprint, reference: &Fingerprint) {
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
    assert_eq!(
        got.outputs, reference.outputs,
        "{who}: program outputs differ"
    );
    assert_eq!(
        got.faults, reference.faults,
        "{who}: fault/resilience counters differ"
    );
    for (&(cat, a), &(_, b)) in got.energy.iter().zip(&reference.energy) {
        assert!(
            a.to_bits() == b.to_bits(),
            "{who}: {cat} energy diverged: {a} J vs reference {b} J"
        );
    }
}

/// Runs the same setup under lock-step and every engine under test, at
/// each decode-cache setting, checking each fingerprint against
/// lock-step at the same setting. Each engine runs twice and must be
/// bit-identical across runs, and lock-step must be bit-identical with
/// the cache on and off. Returns the first windowed engine's
/// fingerprint with the cache on.
pub fn run_differential(
    budget: TimeDelta,
    builder: impl Fn() -> SystemBuilder,
    mut setup: impl FnMut(&mut SwallowSystem),
) -> Fingerprint {
    let mut run = |engine: EngineMode, cache: bool| {
        let mut system = builder()
            .engine(engine)
            .decode_cache(cache)
            .build()
            .expect("builds");
        setup(&mut system);
        let quiescent = system.run_until_quiescent(budget);
        Fingerprint::of(&system, quiescent)
    };
    let mut cached_ls = None;
    let mut first = None;
    for cache in DECODE_CACHE {
        let ls = run(EngineMode::LockStep, cache);
        let on = cached_ls.get_or_insert_with(|| ls.clone());
        assert_eq!(&ls, on, "lock-step: the decode cache perturbed the run");
        for engine in engines_under_test() {
            let who = format!("{engine:?} (decode cache {cache})");
            let fp = run(engine, cache);
            assert_equivalent(&who, &fp, &ls);
            let again = run(engine, cache);
            assert_eq!(fp, again, "{who}: repeated runs must be bit-identical");
            first.get_or_insert(fp);
        }
    }
    first.expect("at least one engine under test")
}
