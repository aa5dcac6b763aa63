//! Engine selection shared by the differential suites.
//!
//! Every suite compares the windowed engine against the lock-step
//! oracle at several thread counts: degenerate (1), even splits (2, 4)
//! and an uneven split (7) that leaves shards of different sizes on a
//! 16-core slice. Set `SWALLOW_THREADS=N` to pin the suites to
//! `Windowed { threads: N }` alone — the CI thread-count legs use this.

use swallow_repro::swallow::EngineMode;

/// Windowed-engine thread counts compared against lock-step by default.
const WINDOWED_THREADS: [usize; 4] = [1, 2, 4, 7];

/// The engines each scenario runs under and compares with lock-step.
///
/// # Panics
///
/// Panics when `SWALLOW_THREADS` is set to something other than a
/// number.
pub fn engines_under_test() -> Vec<EngineMode> {
    match std::env::var("SWALLOW_THREADS") {
        Ok(t) => {
            let threads = t
                .parse()
                .unwrap_or_else(|_| panic!("SWALLOW_THREADS wants a number, got {t:?}"));
            vec![EngineMode::Windowed { threads }]
        }
        Err(_) => WINDOWED_THREADS
            .map(|threads| EngineMode::Windowed { threads })
            .to_vec(),
    }
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
