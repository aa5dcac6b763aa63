//! Distributed matrix–vector multiply on a Swallow slice: the vector is
//! broadcast over channels, matrix rows live in each worker's private
//! 64 KiB SRAM, results stream back to the coordinator — with the energy
//! bill itemised at the end.
//!
//! ```text
//! cargo run --release --example matvec
//! ```

use swallow_repro::swallow::{NodeId, SystemBuilder, TimeDelta};
use swallow_repro::swallow_workloads::matvec::{self, MatVecSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = MatVecSpec {
        n: 12,
        workers: 12,
        seed: 2016, // the year Swallow was published
    };
    let mut system = SystemBuilder::new().build()?;
    let placement = matvec::generate(&spec, system.machine().spec())?;
    placement.apply(&mut system)?;
    let finished = system.run_until_quiescent(TimeDelta::from_ms(50));
    assert!(finished, "matvec should finish");

    let y: Vec<i32> = system
        .output(NodeId(0))
        .lines()
        .map(|l| l.parse().expect("coordinator prints numbers"))
        .collect();
    assert_eq!(y, matvec::expected_y(&spec), "hardware result == oracle");

    println!(
        "y = A·x over {} workers ({}×{} matrix):",
        spec.workers, spec.n, spec.n
    );
    for (i, v) in y.iter().enumerate() {
        println!("  y[{i:>2}] = {v}");
    }
    println!("\ncompleted in {}", system.elapsed());
    println!("{}", system.run_report());
    Ok(())
}
