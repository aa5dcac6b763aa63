//! Picosecond-resolution simulated time and clock frequencies.
//!
//! A `u64` of picoseconds covers roughly 213 simulated days, far beyond any
//! experiment in this repository (most run for micro- to milliseconds of
//! simulated time). Arithmetic is checked in debug builds via the standard
//! integer overflow rules.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds in one nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Picoseconds in one microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Picoseconds in one millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds in one second.
pub const PS_PER_S: u64 = 1_000_000_000_000;

/// An absolute instant of simulated time, in picoseconds since boot.
///
/// ```
/// use swallow_sim::{Time, TimeDelta};
/// let t = Time::ZERO + TimeDelta::from_ns(3);
/// assert_eq!(t.as_ps(), 3_000);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Time(u64);

impl Time {
    /// The boot instant.
    pub const ZERO: Time = Time(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates an instant from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        Time(ps)
    }

    /// Returns the raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Returns the instant as (fractional) seconds, for reporting.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// Elapsed time since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is later than `self`.
    pub fn since(self, earlier: Time) -> TimeDelta {
        TimeDelta(self.0 - earlier.0)
    }

    /// Saturating elapsed time since `earlier` (zero if `earlier` is later).
    pub fn saturating_since(self, earlier: Time) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }

    /// First instant of the form `anchor + k·period` (integer `k ≥ 0`) at
    /// or after `self`. Both simulation engines process work only on a
    /// clock grid; this is the shared epoch/grid-alignment primitive.
    ///
    /// ```
    /// use swallow_sim::{Time, TimeDelta};
    /// let anchor = Time::from_ps(10);
    /// let period = TimeDelta::from_ps(4);
    /// assert_eq!(Time::from_ps(11).align_up_to(anchor, period).as_ps(), 14);
    /// assert_eq!(Time::from_ps(14).align_up_to(anchor, period).as_ps(), 14);
    /// assert_eq!(Time::from_ps(3).align_up_to(anchor, period).as_ps(), 10);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `period` is zero.
    pub fn align_up_to(self, anchor: Time, period: TimeDelta) -> Time {
        debug_assert!(period.0 > 0, "grid period must be non-zero");
        if self.0 <= anchor.0 {
            return anchor;
        }
        let span = self.0 - anchor.0;
        Time(anchor.0 + span.div_ceil(period.0) * period.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", TimeDelta(self.0))
    }
}

/// A span of simulated time, in picoseconds.
///
/// ```
/// use swallow_sim::TimeDelta;
/// assert_eq!(TimeDelta::from_us(1), TimeDelta::from_ns(1000));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimeDelta(u64);

impl TimeDelta {
    /// A zero-length span.
    pub const ZERO: TimeDelta = TimeDelta(0);

    /// Creates a span from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        TimeDelta(ps)
    }

    /// Creates a span from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        TimeDelta(ns * PS_PER_NS)
    }

    /// Creates a span from microseconds.
    pub const fn from_us(us: u64) -> Self {
        TimeDelta(us * PS_PER_US)
    }

    /// Creates a span from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        TimeDelta(ms * PS_PER_MS)
    }

    /// Creates a span from seconds.
    pub const fn from_secs(s: u64) -> Self {
        TimeDelta(s * PS_PER_S)
    }

    /// Returns the raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Returns the span as (fractional) seconds, for reporting.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// True for a zero-length span.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the span by an integer count, saturating on overflow.
    pub const fn saturating_mul(self, count: u64) -> TimeDelta {
        TimeDelta(self.0.saturating_mul(count))
    }
}

impl fmt::Display for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0s")
        } else if ps.is_multiple_of(PS_PER_S) {
            write!(f, "{}s", ps / PS_PER_S)
        } else if ps.is_multiple_of(PS_PER_MS) {
            write!(f, "{}ms", ps / PS_PER_MS)
        } else if ps.is_multiple_of(PS_PER_US) {
            write!(f, "{}us", ps / PS_PER_US)
        } else if ps.is_multiple_of(PS_PER_NS) {
            write!(f, "{}ns", ps / PS_PER_NS)
        } else {
            write!(f, "{}ps", ps)
        }
    }
}

impl Add<TimeDelta> for Time {
    type Output = Time;
    fn add(self, rhs: TimeDelta) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<TimeDelta> for Time {
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl Sub<TimeDelta> for Time {
    type Output = Time;
    fn sub(self, rhs: TimeDelta) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl Sub<Time> for Time {
    type Output = TimeDelta;
    fn sub(self, rhs: Time) -> TimeDelta {
        TimeDelta(self.0 - rhs.0)
    }
}

impl Add for TimeDelta {
    type Output = TimeDelta;
    fn add(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 + rhs.0)
    }
}

impl AddAssign for TimeDelta {
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl Sub for TimeDelta {
    type Output = TimeDelta;
    fn sub(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 - rhs.0)
    }
}

impl SubAssign for TimeDelta {
    fn sub_assign(&mut self, rhs: TimeDelta) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for TimeDelta {
    type Output = TimeDelta;
    fn mul(self, rhs: u64) -> TimeDelta {
        TimeDelta(self.0 * rhs)
    }
}

impl Div<u64> for TimeDelta {
    type Output = TimeDelta;
    fn div(self, rhs: u64) -> TimeDelta {
        TimeDelta(self.0 / rhs)
    }
}

impl Sum for TimeDelta {
    fn sum<I: Iterator<Item = TimeDelta>>(iter: I) -> TimeDelta {
        iter.fold(TimeDelta::ZERO, |a, b| a + b)
    }
}

/// A clock frequency in hertz.
///
/// Swallow cores run between 71 MHz and 500 MHz; link clocks are derived
/// from the same reference. The period is rounded to the nearest picosecond,
/// which is exact for every frequency used in this repository except the
/// 71 MHz DVFS floor (error < 0.004 %).
///
/// ```
/// use swallow_sim::{Frequency, TimeDelta};
/// let f = Frequency::from_mhz(500);
/// assert_eq!(f.period(), TimeDelta::from_ps(2_000));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Frequency(u64);

impl Frequency {
    /// Creates a frequency from hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero: a stopped clock has no period.
    pub fn from_hz(hz: u64) -> Self {
        assert!(hz > 0, "frequency must be non-zero");
        Frequency(hz)
    }

    /// Creates a frequency from kilohertz.
    pub fn from_khz(khz: u64) -> Self {
        Self::from_hz(khz * 1_000)
    }

    /// Creates a frequency from megahertz.
    pub fn from_mhz(mhz: u64) -> Self {
        Self::from_hz(mhz * 1_000_000)
    }

    /// Returns the frequency in hertz.
    pub const fn as_hz(self) -> u64 {
        self.0
    }

    /// Returns the frequency in (fractional) megahertz.
    pub fn as_mhz_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the clock period, rounded to the nearest picosecond.
    pub fn period(self) -> TimeDelta {
        TimeDelta((PS_PER_S + self.0 / 2) / self.0)
    }

    /// Time taken by `cycles` clock cycles.
    pub fn cycles(self, cycles: u64) -> TimeDelta {
        TimeDelta(self.period().as_ps() * cycles)
    }

    /// Number of whole cycles that fit into `delta`.
    pub fn cycles_in(self, delta: TimeDelta) -> u64 {
        delta
            .as_ps()
            .checked_div(self.period().as_ps())
            .unwrap_or(0)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(1_000_000) {
            write!(f, "{}MHz", self.0 / 1_000_000)
        } else if self.0.is_multiple_of(1_000) {
            write!(f, "{}kHz", self.0 / 1_000)
        } else {
            write!(f, "{}Hz", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = Time::ZERO + TimeDelta::from_ns(100);
        assert_eq!(t - Time::ZERO, TimeDelta::from_ns(100));
        assert_eq!((t - TimeDelta::from_ns(40)).as_ps(), 60_000);
        assert_eq!(t.since(Time::from_ps(50_000)), TimeDelta::from_ps(50_000));
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let early = Time::from_ps(10);
        let late = Time::from_ps(20);
        assert_eq!(early.saturating_since(late), TimeDelta::ZERO);
        assert_eq!(late.saturating_since(early), TimeDelta::from_ps(10));
    }

    #[test]
    fn delta_display_picks_natural_unit() {
        assert_eq!(TimeDelta::from_ns(5).to_string(), "5ns");
        assert_eq!(TimeDelta::from_us(3).to_string(), "3us");
        assert_eq!(TimeDelta::from_ms(7).to_string(), "7ms");
        assert_eq!(TimeDelta::from_ps(1_500).to_string(), "1500ps");
        assert_eq!(TimeDelta::ZERO.to_string(), "0s");
        assert_eq!(TimeDelta::from_secs(2).to_string(), "2s");
    }

    #[test]
    fn frequency_periods_match_swallow_clocks() {
        assert_eq!(Frequency::from_mhz(500).period(), TimeDelta::from_ps(2_000));
        assert_eq!(Frequency::from_mhz(400).period(), TimeDelta::from_ps(2_500));
        assert_eq!(Frequency::from_mhz(250).period(), TimeDelta::from_ps(4_000));
        assert_eq!(
            Frequency::from_mhz(100).period(),
            TimeDelta::from_ps(10_000)
        );
        // 71 MHz does not divide 1e12 exactly; the period rounds to nearest.
        assert_eq!(Frequency::from_mhz(71).period(), TimeDelta::from_ps(14_085));
    }

    #[test]
    fn cycle_conversions_are_consistent() {
        let f = Frequency::from_mhz(500);
        let span = f.cycles(45);
        assert_eq!(span, TimeDelta::from_ns(90));
        assert_eq!(f.cycles_in(span), 45);
        assert_eq!(f.cycles_in(span - TimeDelta::from_ps(1)), 44);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_frequency_rejected() {
        let _ = Frequency::from_hz(0);
    }

    #[test]
    fn delta_sum_and_scaling() {
        let total: TimeDelta = (1..=4).map(TimeDelta::from_ns).sum();
        assert_eq!(total, TimeDelta::from_ns(10));
        assert_eq!(TimeDelta::from_ns(10) * 3, TimeDelta::from_ns(30));
        assert_eq!(TimeDelta::from_ns(10) / 4, TimeDelta::from_ps(2_500));
    }

    #[test]
    fn grid_alignment_rounds_up_onto_the_grid() {
        let anchor = Time::from_ps(100);
        let period = TimeDelta::from_ps(7);
        for raw in 0..260 {
            let t = Time::from_ps(raw);
            let up = t.align_up_to(anchor, period);
            assert!(up >= t.max(anchor));
            assert_eq!((up.as_ps() - anchor.as_ps()) % 7, 0);
            // Off-grid instants round up by less than one period; on-grid
            // ones map to themselves.
            assert!(up.as_ps() - t.max(anchor).as_ps() < 7);
            if raw >= 100 && (raw - 100) % 7 == 0 {
                assert_eq!(up, t);
            }
        }
    }
}
