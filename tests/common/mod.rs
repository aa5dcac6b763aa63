//! Engine and decode-cache selection shared by the differential suites.
//!
//! Every suite compares the windowed engine against the lock-step
//! oracle at several thread counts: degenerate (1), even splits (2, 4),
//! an uneven split (7) that leaves shards of different sizes on a
//! 16-core slice, and eight two-core shards (8), more threads than a
//! small host has CPUs. The engine, trace and fault suites also run
//! every scenario with the predecoded-instruction cache on and again
//! with it off.

use swallow_repro::swallow::EngineMode;

/// Windowed-engine thread counts compared against lock-step.
const WINDOWED_THREADS: [usize; 5] = [1, 2, 4, 7, 8];

/// Decode-cache settings a suite runs each scenario under: the default
/// (on) first, then the cache-off reference.
#[allow(dead_code)] // Not every suite that includes this module uses it.
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
#[allow(dead_code)] // Not every suite that includes this module uses it.
pub fn every_engine() -> Vec<EngineMode> {
    let mut engines = vec![EngineMode::LockStep];
    engines.extend(engines_under_test());
    engines
}
