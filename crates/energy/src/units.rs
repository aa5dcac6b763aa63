//! Strongly-typed physical quantities.
//!
//! Newtypes over `f64` keep joules, watts, volts and farads from mixing
//! (C-NEWTYPE). Arithmetic implements only physically meaningful
//! combinations, e.g. `Power * TimeDelta = Energy`.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};
use swallow_sim::TimeDelta;

/// An amount of energy, in joules.
///
/// ```
/// use swallow_energy::{Energy, Power};
/// use swallow_sim::TimeDelta;
/// let e = Power::from_milliwatts(193.0) * TimeDelta::from_us(1);
/// assert!((e.as_nanojoules() - 193.0).abs() < 1e-9);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, PartialOrd)]
pub struct Energy(f64);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0.0);

    /// Creates an energy from joules.
    pub const fn from_joules(j: f64) -> Self {
        Energy(j)
    }

    /// Creates an energy from nanojoules.
    pub fn from_nanojoules(nj: f64) -> Self {
        Energy(nj * 1e-9)
    }

    /// The value in joules.
    pub const fn as_joules(self) -> f64 {
        self.0
    }

    /// The value in nanojoules.
    pub fn as_nanojoules(self) -> f64 {
        self.0 * 1e9
    }

    /// The value in picojoules.
    pub fn as_picojoules(self) -> f64 {
        self.0 * 1e12
    }

    /// Average power over a span; zero for a zero-length span.
    pub fn over(self, span: TimeDelta) -> Power {
        let secs = span.as_secs_f64();
        if secs == 0.0 {
            Power::ZERO
        } else {
            Power(self.0 / secs)
        }
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let j = self.0;
        let (value, unit) = if j.abs() >= 1.0 {
            (j, "J")
        } else if j.abs() >= 1e-3 {
            (j * 1e3, "mJ")
        } else if j.abs() >= 1e-6 {
            (j * 1e6, "uJ")
        } else if j.abs() >= 1e-9 {
            (j * 1e9, "nJ")
        } else {
            (j * 1e12, "pJ")
        };
        write!(f, "{value:.3}{unit}")
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sub for Energy {
    type Output = Energy;
    fn sub(self, rhs: Energy) -> Energy {
        Energy(self.0 - rhs.0)
    }
}

impl Mul<f64> for Energy {
    type Output = Energy;
    fn mul(self, rhs: f64) -> Energy {
        Energy(self.0 * rhs)
    }
}

impl Div<Energy> for Energy {
    type Output = f64;
    fn div(self, rhs: Energy) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, |a, b| a + b)
    }
}

/// A power, in watts.
#[derive(Clone, Copy, Debug, Default, PartialEq, PartialOrd)]
pub struct Power(f64);

impl Power {
    /// Zero power.
    pub const ZERO: Power = Power(0.0);

    /// Creates a power from watts.
    pub const fn from_watts(w: f64) -> Self {
        Power(w)
    }

    /// Creates a power from milliwatts.
    pub fn from_milliwatts(mw: f64) -> Self {
        Power(mw * 1e-3)
    }

    /// The value in watts.
    pub const fn as_watts(self) -> f64 {
        self.0
    }

    /// The value in milliwatts.
    pub fn as_milliwatts(self) -> f64 {
        self.0 * 1e3
    }

    /// The value in microwatts (the unit the in-system probe reports).
    pub fn as_microwatts(self) -> f64 {
        self.0 * 1e6
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.0;
        let (value, unit) = if w.abs() >= 1.0 {
            (w, "W")
        } else if w.abs() >= 1e-3 {
            (w * 1e3, "mW")
        } else {
            (w * 1e6, "uW")
        };
        write!(f, "{value:.3}{unit}")
    }
}

impl Add for Power {
    type Output = Power;
    fn add(self, rhs: Power) -> Power {
        Power(self.0 + rhs.0)
    }
}

impl AddAssign for Power {
    fn add_assign(&mut self, rhs: Power) {
        self.0 += rhs.0;
    }
}

impl Sub for Power {
    type Output = Power;
    fn sub(self, rhs: Power) -> Power {
        Power(self.0 - rhs.0)
    }
}

impl Mul<f64> for Power {
    type Output = Power;
    fn mul(self, rhs: f64) -> Power {
        Power(self.0 * rhs)
    }
}

impl Div<f64> for Power {
    type Output = Power;
    fn div(self, rhs: f64) -> Power {
        Power(self.0 / rhs)
    }
}

impl Mul<TimeDelta> for Power {
    type Output = Energy;
    fn mul(self, rhs: TimeDelta) -> Energy {
        Energy(self.0 * rhs.as_secs_f64())
    }
}

impl Sum for Power {
    fn sum<I: Iterator<Item = Power>>(iter: I) -> Power {
        iter.fold(Power::ZERO, |a, b| a + b)
    }
}

/// An electric potential, in volts.
#[derive(Clone, Copy, Debug, Default, PartialEq, PartialOrd)]
pub struct Voltage(f64);

impl Voltage {
    /// Creates a voltage from volts.
    pub const fn from_volts(v: f64) -> Self {
        Voltage(v)
    }

    /// The value in volts.
    pub const fn as_volts(self) -> f64 {
        self.0
    }

    /// `V²`, the quantity appearing in `P = C·V²·f`.
    pub fn squared(self) -> f64 {
        self.0 * self.0
    }
}

impl fmt::Display for Voltage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}V", self.0)
    }
}

/// A capacitance, in farads.
#[derive(Clone, Copy, Debug, Default, PartialEq, PartialOrd)]
pub struct Capacitance(f64);

impl Capacitance {
    /// Creates a capacitance from farads.
    pub const fn from_farads(f: f64) -> Self {
        Capacitance(f)
    }

    /// Creates a capacitance from picofarads.
    pub fn from_picofarads(pf: f64) -> Self {
        Capacitance(pf * 1e-12)
    }

    /// The value in farads.
    pub const fn as_farads(self) -> f64 {
        self.0
    }

    /// Energy of one full charge/discharge at `v`: `E = C·V²`.
    pub fn transition_energy(self, v: Voltage) -> Energy {
        Energy(self.0 * v.squared())
    }
}

impl fmt::Display for Capacitance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let farads = self.0;
        if farads.abs() >= 1e-9 {
            write!(f, "{:.2}nF", farads * 1e9)
        } else {
            write!(f, "{:.2}pF", farads * 1e12)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_times_time_is_energy() {
        let e = Power::from_watts(2.0) * TimeDelta::from_ms(500);
        assert!((e.as_joules() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn energy_over_time_is_power() {
        let p = Energy::from_joules(3.0).over(TimeDelta::from_secs(2));
        assert!((p.as_watts() - 1.5).abs() < 1e-12);
        assert_eq!(Energy::from_joules(1.0).over(TimeDelta::ZERO), Power::ZERO);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(Energy::from_joules(5.6e-12).to_string(), "5.600pJ");
        assert_eq!(Energy::from_nanojoules(212.8).to_string(), "212.800nJ");
        assert_eq!(Power::from_milliwatts(193.0).to_string(), "193.000mW");
        assert_eq!(Power::from_watts(134.0).to_string(), "134.000W");
        assert_eq!(Capacitance::from_picofarads(11.2).to_string(), "11.20pF");
        assert_eq!(Capacitance::from_picofarads(2000.0).to_string(), "2.00nF");
    }

    #[test]
    fn transition_energy_follows_cv2() {
        let c = Capacitance::from_picofarads(10.0);
        let e = c.transition_energy(Voltage::from_volts(2.0));
        assert!((e.as_picojoules() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn sums_and_scaling() {
        let total: Energy = (1..=3).map(|i| Energy::from_joules(i as f64)).sum();
        assert!((total.as_joules() - 6.0).abs() < 1e-12);
        let p: Power = [Power::from_watts(1.0), Power::from_watts(0.5)]
            .into_iter()
            .sum();
        assert!(((p * 2.0).as_watts() - 3.0).abs() < 1e-12);
        assert!(((p / 3.0).as_watts() - 0.5).abs() < 1e-12);
    }
}
