//! DVFS tuning (§III.B / Fig. 4): find the most energy-efficient clock
//! for a fixed batch of work.
//!
//! At a fixed 1 V, finishing fast and idling ("race to idle") usually
//! wins because static power accrues with time. With the DVFS voltage
//! curve the paper measured (0.60 V @ 71 MHz … 0.95 V @ 500 MHz), slower
//! clocks become competitive. This example computes energy-to-completion
//! for a farm workload across clocks under both supply policies.
//!
//! ```text
//! cargo run --release --example dvfs_tuning
//! ```

use swallow_repro::swallow::energy::{CorePowerModel, DvfsTable};
use swallow_repro::swallow::{Frequency, NodeId, SystemBuilder, TimeDelta};
use swallow_repro::swallow_workloads::farm::{self, FarmSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = FarmSpec {
        workers: 8,
        tasks: 40,
        work_per_task: 100,
    };
    let table = DvfsTable::swallow();
    println!(
        "farm: {} workers, {} tasks, {} squarings/task\n",
        spec.workers, spec.tasks, spec.work_per_task
    );
    println!(
        "{:>8} {:>12} {:>14} {:>8} {:>16}",
        "clock", "finish", "E @ 1V", "V(f)", "E @ DVFS"
    );

    let mut best: Option<(u64, f64)> = None;
    for mhz in [71u64, 100, 150, 250, 350, 500] {
        let f = Frequency::from_mhz(mhz);
        let volts = table.voltage_at(f);
        let mut system = SystemBuilder::new().frequency(f).build()?;
        // Apply the DVFS voltage to every core's power model.
        for node in system.nodes().collect::<Vec<_>>() {
            let model = CorePowerModel::swallow().at_voltage(volts);
            system.machine_mut().core_mut(node).set_power_model(model);
        }
        let placement = farm::generate(&spec, system.machine().spec())?;
        placement.apply(&mut system)?;
        let done = system.run_until_quiescent(TimeDelta::from_ms(200));
        assert!(done, "farm should finish at {mhz} MHz");
        assert_eq!(
            system.output(NodeId(0)).trim(),
            farm::expected_sum(&spec).to_string()
        );
        let e_dvfs = system.run_report().ledger.total();
        // The same run at 1 V scales by 1/V² (P = C·V²·f).
        let e_1v = e_dvfs * (1.0 / volts.squared());
        println!(
            "{:>5}MHz {:>12} {:>14} {:>7.2}V {:>16}",
            mhz,
            system.elapsed().to_string(),
            e_1v.to_string(),
            volts.as_volts(),
            e_dvfs.to_string(),
        );
        let joules = e_dvfs.as_joules();
        if best.map(|(_, e)| joules < e).unwrap_or(true) {
            best = Some((mhz, joules));
        }
    }
    let (mhz, _) = best.expect("swept at least one clock");
    println!("\nmost efficient clock under DVFS for this workload: {mhz} MHz");
    Ok(())
}
