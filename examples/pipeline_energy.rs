//! Energy exploration of a stream pipeline — the kind of parallel-program
//! study Swallow was built for (§I).
//!
//! Runs the same 8-stage pipeline at three clock frequencies and reports
//! energy per item: because static power burns regardless of speed, the
//! slowest clock is *not* the most energy-efficient — the classic
//! race-to-idle trade-off made visible by the platform's energy
//! transparency.
//!
//! ```text
//! cargo run --release --example pipeline_energy
//! ```

use swallow_repro::swallow::{Frequency, SystemBuilder, TimeDelta};
use swallow_repro::swallow_workloads::pipeline::{self, PipelineSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = PipelineSpec {
        stages: 8,
        items: 64,
        work_per_item: 50,
    };
    println!(
        "8-stage pipeline, {} items, {} squarings per item per stage\n",
        spec.items, spec.work_per_item
    );
    println!(
        "{:>8} {:>12} {:>14} {:>16}",
        "clock", "finish time", "total energy", "energy per item"
    );

    for mhz in [100u64, 250, 500] {
        let mut system = SystemBuilder::new()
            .frequency(Frequency::from_mhz(mhz))
            .build()?;
        let placement = pipeline::generate(&spec, system.machine().spec())?;
        placement.apply(&mut system)?;
        let done = system.run_until_quiescent(TimeDelta::from_ms(100));
        assert!(done, "pipeline should drain");
        assert_eq!(
            system.output(placement.last_node()).trim(),
            pipeline::checksum(&spec).to_string(),
            "checksum mismatch at {mhz} MHz"
        );
        let report = system.run_report();
        let per_item = report.ledger.total() * (1.0 / spec.items as f64);
        println!(
            "{:>5}MHz {:>12} {:>14} {:>16}",
            mhz,
            system.elapsed().to_string(),
            report.ledger.total().to_string(),
            per_item.to_string(),
        );
    }
    println!(
        "\nNote the shape: halving the clock does not halve energy —\n\
         static power (46 mW/core) accrues for longer. Swallow's answer\n\
         is DVFS (see the fig4 experiment) or racing to idle."
    );
    Ok(())
}
