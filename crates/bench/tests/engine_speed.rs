//! Host-timing guards on the windowed engine: on a busy slice (16 cores
//! on the calibrated heavy mix) it must keep up with the lock-step
//! reference at one thread, and must not lose speed from one thread to
//! four. Each side takes the best of three runs to absorb host noise.
//! `perfbench/` measures the same engines with repeated samples; these
//! guards only catch a gross regression inside `cargo test`.

use std::time::{Duration, Instant};
use swallow::{EngineMode, NodeId, SystemBuilder, TimeDelta};
use swallow_bench::experiments::heavy_mix_program;

/// Simulated time each timed run covers.
const SPAN: TimeDelta = TimeDelta::from_us(4);

/// Host time of one `run_for(SPAN)` on a one-slice machine with every
/// core running the four-thread heavy mix, and the instructions retired.
fn busy_slice_run(engine: EngineMode) -> (Duration, u64) {
    let mut system = SystemBuilder::new()
        .engine(engine)
        .build()
        .expect("one slice builds");
    let program = heavy_mix_program(4);
    let nodes: Vec<NodeId> = system.nodes().collect();
    for node in nodes {
        system.load_program(node, &program).expect("fits");
    }
    let t0 = Instant::now();
    system.run_for(SPAN);
    (t0.elapsed(), system.machine().total_instret())
}

/// The default engine must keep up with the reference on a machine
/// where every tick has activity: one-thread windows (and their
/// fast-forward fallback, whose activity scan answers "next edge" on
/// every tick here) must not be slower than lock-step. Min-of-3 host time on both sides and a lenient 1.3x bound
/// keep this stable on noisy CI hosts.
#[test]
fn windowed_one_thread_keeps_up_with_lockstep_when_busy() {
    let best = |engine: EngineMode| {
        (0..3)
            .map(|_| busy_slice_run(engine).0.as_secs_f64() * 1e3)
            .fold(f64::INFINITY, f64::min)
    };
    let ls = best(EngineMode::LockStep);
    let one = best(EngineMode::Windowed { threads: 1 });
    assert!(
        one <= ls * 1.3,
        "windowed(1) ({one:.2} ms) regressed past lock-step ({ls:.2} ms) on a busy machine"
    );
}

/// Guards the negotiated windows' thread scaling: on a busy slice the
/// windowed engine at 4 threads must not be slower than at 1 (monotone
/// thread scaling — the minimum the lock-free negotiation guarantees).
/// Min-of-3 MIPS on both sides absorbs host noise; a host without 4 CPUs
/// cannot exercise real parallelism, so the test logs and skips there
/// rather than measuring scheduler jitter.
#[test]
fn parallel_four_threads_keeps_up_with_one_when_busy() {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus < 4 {
        eprintln!("skipping parallel-scaling regression: host has {cpus} CPUs (< 4)");
        return;
    }
    let best = |threads: usize| {
        (0..3)
            .map(|_| {
                let (host, instret) = busy_slice_run(EngineMode::Windowed { threads });
                instret as f64 / host.as_secs_f64().max(1e-9) / 1e6
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
