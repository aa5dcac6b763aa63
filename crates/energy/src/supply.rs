//! Switch-mode power supply (SMPS) model.
//!
//! Each Swallow slice carries five SMPS fed from a 5 V input: four deliver
//! 1 V to two chips (four cores) each, the fifth delivers 3.3 V for I/O and
//! support logic (§II). Conversion losses plus support logic lift a slice
//! from 3.1 W of core power to ≈4.5 W at the input (§III.A) — about 18 % of
//! node power in the Fig. 2 breakdown.
//!
//! The model is the standard first-order one: a fixed controller overhead
//! plus a load-proportional conversion loss.

use crate::units::Power;

/// Conversion efficiency of the slice SMPS at typical load. Calibrated
/// so a fully loaded slice (3.1 W of core power, §III.A) draws ≈4.5 W at
/// the 5 V input — and thus a 30-slice machine draws the paper's 134 W.
pub const DEFAULT_EFFICIENCY: f64 = 0.78;
/// Fixed controller/switching overhead per supply.
pub const DEFAULT_FIXED_OVERHEAD_MW: f64 = 35.0;

/// A switch-mode supply: `P_in = P_out / η + P_fixed`.
///
/// ```
/// use swallow_energy::{Power, Smps};
/// let smps = Smps::swallow_core_rail();
/// let p_in = smps.input_power(Power::from_milliwatts(772.0)); // 4 cores @193mW
/// assert!(p_in.as_milliwatts() > 772.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Smps {
    efficiency: f64,
    fixed_overhead: Power,
    label: &'static str,
}

impl Smps {
    /// Creates a supply with the given conversion efficiency and fixed
    /// overhead.
    ///
    /// # Panics
    ///
    /// Panics if `efficiency` is not in `(0, 1]`.
    pub fn new(efficiency: f64, fixed_overhead: Power, label: &'static str) -> Self {
        assert!(
            efficiency > 0.0 && efficiency <= 1.0,
            "efficiency must be in (0, 1]"
        );
        Smps {
            efficiency,
            fixed_overhead,
            label,
        }
    }

    /// One of the four 1 V rails feeding two chips (four cores).
    pub fn swallow_core_rail() -> Self {
        Smps::new(
            DEFAULT_EFFICIENCY,
            Power::from_milliwatts(DEFAULT_FIXED_OVERHEAD_MW),
            "1V core rail",
        )
    }

    /// The 3.3 V rail feeding I/O, links and support logic.
    pub fn swallow_io_rail() -> Self {
        Smps::new(
            DEFAULT_EFFICIENCY,
            Power::from_milliwatts(DEFAULT_FIXED_OVERHEAD_MW),
            "3.3V I/O rail",
        )
    }

    /// Conversion efficiency η.
    pub fn efficiency(&self) -> f64 {
        self.efficiency
    }

    /// Descriptive label (used by the measurement subsystem).
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Input power drawn from the 5 V bus for a given output load.
    pub fn input_power(&self, output: Power) -> Power {
        output / self.efficiency + self.fixed_overhead
    }

    /// The conversion loss alone (input minus output).
    pub fn loss(&self, output: Power) -> Power {
        self.input_power(output) - output
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_exceeds_output_by_loss() {
        let s = Smps::swallow_core_rail();
        let out = Power::from_milliwatts(800.0);
        let input = s.input_power(out);
        assert!((input.as_watts() - (out + s.loss(out)).as_watts()).abs() < 1e-12);
        assert!(input.as_milliwatts() > 800.0);
    }

    #[test]
    fn slice_level_overhead_lands_near_paper() {
        // 16 cores at 193 mW = 3.09 W of core load across four 1 V rails,
        // plus an I/O rail carrying ≈0.45 W of link/support load. The paper
        // reports ≈4.5 W per slice at the 5 V input (§III.A).
        let core_rails: f64 = (0..4)
            .map(|_| {
                Smps::swallow_core_rail()
                    .input_power(Power::from_milliwatts(4.0 * 193.0))
                    .as_watts()
            })
            .sum();
        let io_rail = Smps::swallow_io_rail()
            .input_power(Power::from_milliwatts(450.0))
            .as_watts();
        let slice = core_rails + io_rail;
        assert!((4.2..=4.8).contains(&slice), "slice input = {slice} W");
    }

    #[test]
    #[should_panic(expected = "efficiency")]
    fn rejects_bad_efficiency() {
        let _ = Smps::new(0.0, Power::ZERO, "bad");
    }
}
