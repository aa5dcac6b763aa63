//! §III.A — headline system numbers.
//!
//! The paper reports: ≤193 mW per active core; 3.1 W of core power per
//! slice; ≈4.5 W per slice at the 5 V input; ≈260 mW per core overall;
//! 134 W for the full 480-core machine; and "up to 240 GIPS" (§I). We
//! measure a fully loaded slice directly, extrapolate to 30 slices, and
//! optionally run a real 480-core machine for a short window.

use super::heavy_mix_program;
use std::fmt;
use swallow::{SystemBuilder, TimeDelta};

/// Measured + extrapolated headline numbers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SystemPower {
    /// Mean power per core, loaded (mW). Paper: 193 mW.
    pub core_mw: f64,
    /// Slice load power at the shunts (W). Paper: 3.1 W (cores only).
    pub slice_load_w: f64,
    /// Slice power at the 5 V input (W). Paper: ≈4.5 W.
    pub slice_input_w: f64,
    /// Per-core share of slice input power (mW). Paper: ≈260 mW.
    pub core_overall_mw: f64,
    /// Slice throughput (GIPS). 16 cores × 500 MIPS = 8.
    pub slice_gips: f64,
    /// Extrapolated 30-slice (480-core) machine input power (W). Paper: 134 W.
    pub machine_480_w: f64,
    /// Extrapolated 480-core throughput (GIPS). Paper: up to 240.
    pub machine_480_gips: f64,
}

/// Measures one fully loaded slice for `span` and extrapolates.
pub fn run(span: TimeDelta) -> SystemPower {
    let mut system = SystemBuilder::new().build().expect("one slice");
    let program = heavy_mix_program(4);
    system.load_program_all(&program).expect("fits");
    system.run_for(span);

    let perf = system.run_report();
    let monitor = system.machine().monitor();
    let slice_load_w = monitor.slice_load_power(0).as_watts();
    let slice_input_w = monitor.slice_input_power(0).as_watts();
    // Core power from the ledgers (the four 1 V rails without support).
    let core_mw = (0..16)
        .map(|n| {
            system
                .machine()
                .core(swallow::NodeId(n))
                .ledger()
                .total()
                .over(system.elapsed())
                .as_milliwatts()
        })
        .sum::<f64>()
        / 16.0;
    SystemPower {
        core_mw,
        slice_load_w,
        slice_input_w,
        core_overall_mw: slice_input_w * 1000.0 / 16.0,
        slice_gips: perf.gips(),
        machine_480_w: slice_input_w * 30.0,
        machine_480_gips: perf.gips() * 30.0,
    }
}

/// Runs a real 480-core (6×5 slice) machine, fully loaded, for a short
/// window and reports (GIPS, input power W). Expensive: use release
/// builds.
pub fn run_480(span: TimeDelta) -> (f64, f64) {
    let mut system = SystemBuilder::new()
        .slices(6, 5)
        .monitor_window(TimeDelta::from_ns(200))
        .build()
        .expect("480 cores");
    assert_eq!(system.core_count(), 480);
    let program = heavy_mix_program(4);
    system.load_program_all(&program).expect("fits");
    system.run_for(span);
    let perf = system.run_report();
    let power = system.machine().monitor().machine_input_power().as_watts();
    (perf.gips(), power)
}

impl fmt::Display for SystemPower {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "§III.A — headline system numbers (fully loaded):")?;
        writeln!(f, "{:<44} {:>10} {:>10}", "Quantity", "measured", "paper")?;
        let rows = [
            ("power per active core (mW)", self.core_mw, 193.0),
            ("slice load power (W)", self.slice_load_w, 3.1),
            ("slice input power (W)", self.slice_input_w, 4.5),
            (
                "per-core share incl. losses (mW)",
                self.core_overall_mw,
                260.0,
            ),
            ("slice throughput (GIPS)", self.slice_gips, 8.0),
            ("480-core machine power (W)", self.machine_480_w, 134.0),
            ("480-core throughput (GIPS)", self.machine_480_gips, 240.0),
        ];
        for (label, measured, paper) in rows {
            writeln!(f, "{label:<44} {measured:>10.2} {paper:>10.2}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_numbers_land_near_the_paper() {
        let s = run(TimeDelta::from_us(20));
        assert!((s.core_mw - 196.0).abs() < 8.0, "core = {} mW", s.core_mw);
        assert!(
            (s.slice_load_w - 3.4).abs() < 0.4,
            "load = {} W",
            s.slice_load_w
        );
        assert!(
            (4.0..5.2).contains(&s.slice_input_w),
            "input = {} W",
            s.slice_input_w
        );
        assert!(
            (230.0..320.0).contains(&s.core_overall_mw),
            "overall = {} mW/core",
            s.core_overall_mw
        );
        assert!((s.slice_gips - 8.0).abs() < 0.2, "gips = {}", s.slice_gips);
        assert!(
            (120.0..155.0).contains(&s.machine_480_w),
            "480-core = {} W",
            s.machine_480_w
        );
        assert!(
            (s.machine_480_gips - 240.0).abs() < 6.0,
            "480-core = {} GIPS",
            s.machine_480_gips
        );
    }
}
