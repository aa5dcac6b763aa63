//! Simulator throughput: the cost of the one-thread windowed engine
//! against the lock-step reference on a busy slice, an idle 480-core machine and a
//! 10 %-active 480-core machine. Prints the simulated-cycles/s and
//! simulated-MIPS table, then times each scenario × engine pair.

use swallow::{EngineMode, TimeDelta};
use swallow_bench::experiments::throughput;
use swallow_testkit::criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    println!("{}", throughput::run(TimeDelta::from_us(20)));
    let span = TimeDelta::from_us(10);
    let mut g = c.benchmark_group("sim_throughput");
    g.sample_size(10);
    for (scenario, slices, stride) in [
        ("busy_slice", (1u16, 1u16), 1usize),
        ("idle_480", (6, 5), 0),
        ("active10_480", (6, 5), 10),
    ] {
        for engine in [EngineMode::LockStep, EngineMode::default()] {
            g.bench_function(&format!("{scenario}_{engine:?}"), |b| {
                b.iter(|| throughput::measure(scenario, engine, slices, stride, span))
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
