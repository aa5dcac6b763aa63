//! Per-node energy accounting (the Fig. 2 breakdown).
//!
//! Every joule spent in the simulator is attributed to one of the
//! categories the paper's Fig. 2 reports for a 260 mW node: computation &
//! memory operations (30 %), static (26 %), network interface (22 %),
//! DC-DC conversion & I/O (18 %) and other support logic (4 %).

use crate::units::{Energy, Power};
use std::fmt;
use std::ops::{Add, AddAssign};
use swallow_sim::TimeDelta;

/// Energy category of a Swallow node, matching Fig. 2's slices.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeCategory {
    /// Computation and memory operations (active issue slots).
    Compute,
    /// Static leakage plus non-computational dynamic power (clock tree).
    Static,
    /// Network interface: switch, links and channel ends.
    Network,
    /// DC-DC conversion losses and I/O rail.
    Supply,
    /// Other support logic.
    Other,
}

impl NodeCategory {
    /// All categories in Fig. 2 order.
    pub const ALL: [NodeCategory; 5] = [
        NodeCategory::Compute,
        NodeCategory::Static,
        NodeCategory::Network,
        NodeCategory::Supply,
        NodeCategory::Other,
    ];

    /// The label used in Fig. 2.
    pub const fn label(self) -> &'static str {
        match self {
            NodeCategory::Compute => "Computation & memory ops",
            NodeCategory::Static => "Static",
            NodeCategory::Network => "Network interface",
            NodeCategory::Supply => "DC-DC & I/O",
            NodeCategory::Other => "Other",
        }
    }

    /// A machine-readable identifier (CSV/JSON column names in the
    /// observability exporters).
    pub const fn short_name(self) -> &'static str {
        match self {
            NodeCategory::Compute => "compute",
            NodeCategory::Static => "static",
            NodeCategory::Network => "network",
            NodeCategory::Supply => "supply",
            NodeCategory::Other => "other",
        }
    }
}

impl fmt::Display for NodeCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// An energy ledger: joules accumulated per [`NodeCategory`].
///
/// ```
/// use swallow_energy::{Energy, EnergyLedger, NodeCategory};
/// let mut ledger = EnergyLedger::new();
/// ledger.charge(NodeCategory::Compute, Energy::from_nanojoules(10.0));
/// assert!((ledger.total().as_nanojoules() - 10.0).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyLedger {
    entries: [Energy; 5],
}

impl EnergyLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        EnergyLedger::default()
    }

    /// Charges energy to a category.
    pub fn charge(&mut self, category: NodeCategory, energy: Energy) {
        self.entries[category as usize] += energy;
    }

    /// Charges `energy` to `category` `n` times over: bit-identical to `n`
    /// [`charge`](Self::charge) calls (the same rounded f64 additions in
    /// the same order), in time that grows with the binades the total
    /// crosses rather than with `n` — the cost of a long run of idle
    /// clock edges.
    pub fn charge_repeated(&mut self, category: NodeCategory, energy: Energy, n: u64) {
        let entry = &mut self.entries[category as usize];
        *entry = Energy::from_joules(add_repeated(entry.as_joules(), energy.as_joules(), n));
    }

    /// Energy accumulated in one category.
    pub fn get(&self, category: NodeCategory) -> Energy {
        self.entries[category as usize]
    }

    /// Total energy across all categories.
    pub fn total(&self) -> Energy {
        self.entries.iter().copied().sum()
    }

    /// The fraction of total energy in `category` (0 when empty).
    pub fn fraction(&self, category: NodeCategory) -> f64 {
        let total = self.total().as_joules();
        if total == 0.0 {
            0.0
        } else {
            self.get(category).as_joules() / total
        }
    }

    /// Average power per category over a span.
    pub fn mean_power(&self, category: NodeCategory, span: TimeDelta) -> Power {
        self.get(category).over(span)
    }

    /// Iterates `(category, energy)` in Fig. 2 order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeCategory, Energy)> + '_ {
        NodeCategory::ALL.into_iter().map(|c| (c, self.get(c)))
    }

    /// The raw `f64` bit patterns of every category, in Fig. 2 order —
    /// the snapshot codec's view. Round-trips through
    /// [`EnergyLedger::from_entry_bits`] bit-identically, which `as_joules`
    /// conversions would not guarantee for every NaN/subnormal pattern.
    pub fn entry_bits(&self) -> [u64; 5] {
        let mut out = [0u64; 5];
        for (slot, e) in out.iter_mut().zip(self.entries.iter()) {
            *slot = e.as_joules().to_bits();
        }
        out
    }

    /// Rebuilds a ledger from [`EnergyLedger::entry_bits`] output.
    pub fn from_entry_bits(bits: [u64; 5]) -> Self {
        let mut out = EnergyLedger::new();
        for (slot, b) in out.entries.iter_mut().zip(bits) {
            *slot = Energy::from_joules(f64::from_bits(b));
        }
        out
    }
}

/// `x` with `a` added `n` times, each addition rounded: bit-identical to
/// `for _ in 0..n { x += a }`, in O(binade crossings) instead of O(n).
///
/// While `0 < a <= x` and `x` is normal, a sum that stays below the next
/// power of two rounds on the ulp grid of `x`'s binade, which `x` lies on.
/// Away from an exact tie, the rounding therefore moves `x` by the same
/// number of ulps at every addition, and the whole run up to the binade's
/// end is one integer multiply on the bit pattern. A tie rounds to the even
/// neighbour: from an even `x` it lands on an even multiple again, by the
/// same even step every time, so only a tie from an odd `x` (found exactly
/// by Fast2Sum, which `x >= a` allows) is added plainly, after which `x` is
/// even. The addition that crosses into the next binade, and every case
/// outside these conditions (`x` zero, subnormal or below `a`, `a <= 0`,
/// NaN), is a plain addition too; an addition that leaves `x` unchanged
/// leaves it unchanged for good.
fn add_repeated(mut x: f64, a: f64, mut n: u64) -> f64 {
    const EXP_ONE: u64 = 1 << 52;
    while n > 0 {
        let y = x + a;
        n -= 1;
        if y.to_bits() == x.to_bits() {
            return x;
        }
        if x.is_normal() && a > 0.0 && x >= a {
            let (xb, yb) = (x.to_bits(), y.to_bits());
            // The bit pattern of the power of two that ends x's binade.
            let top = (xb & !(EXP_ONE - 1)) + EXP_ONE;
            if yb < top && (xb & 1 == 0 || !is_tie(x, a, y)) {
                // Each further addition adds `step` ulps; stop before the
                // one whose result would reach `top`.
                let step = yb - xb;
                let runs = ((top - 1 - yb) / step).min(n);
                n -= runs;
                x = f64::from_bits(yb + runs * step);
                continue;
            }
        }
        x = y;
    }
    x
}

/// True when `y = fl(x + a)` was an exact tie, for normal `x >= a > 0`
/// with `y` in `x`'s binade: Fast2Sum recovers the rounding error exactly,
/// and a tie is an error of half an ulp of `x`.
fn is_tie(x: f64, a: f64, y: f64) -> bool {
    let err = a - (y - x);
    let ulp = f64::from_bits(x.to_bits() & (0x7ff << 52)) * f64::EPSILON;
    err.abs() * 2.0 == ulp
}

impl Add for EnergyLedger {
    type Output = EnergyLedger;
    fn add(self, rhs: EnergyLedger) -> EnergyLedger {
        let mut out = self;
        out += rhs;
        out
    }
}

impl AddAssign for EnergyLedger {
    fn add_assign(&mut self, rhs: EnergyLedger) {
        for i in 0..self.entries.len() {
            self.entries[i] += rhs.entries[i];
        }
    }
}

impl std::iter::Sum for EnergyLedger {
    fn sum<I: Iterator<Item = EnergyLedger>>(iter: I) -> EnergyLedger {
        iter.fold(EnergyLedger::new(), |a, b| a + b)
    }
}

impl fmt::Display for EnergyLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (cat, e) in self.iter() {
            writeln!(
                f,
                "{:<26} {:>12}  ({:>5.1}%)",
                cat.label(),
                e.to_string(),
                self.fraction(cat) * 100.0
            )?;
        }
        write!(f, "{:<26} {:>12}", "Total", self.total().to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swallow_testkit::proptest::prelude::*;

    /// `2^e` for `-1074 <= e <= 1023`, built from its bit pattern.
    fn pow2(e: i32) -> f64 {
        if e >= -1022 {
            f64::from_bits(((e + 1023) as u64) << 52)
        } else {
            f64::from_bits(1 << (e + 1074))
        }
    }

    /// An accumulator and an addend for the closed-form property.
    /// `x`: zero, subnormal, or normal at any exponent. `a`: anywhere from
    /// above `x` to far below half an ulp of it, occasionally zero or
    /// negative — or, for `shape == 4`, an odd multiple of exactly half an
    /// ulp of `x`, so that every addition in `x`'s binade is a tie.
    fn operands(shape: u8, exp: i32, mant: u64, gap: i32, a_mant: u64) -> (f64, f64) {
        const MANT: u64 = (1 << 52) - 1;
        if shape == 4 {
            // Binade exponents where half an ulp is still normal.
            let e = exp.clamp(-960, 1000);
            let x = pow2(e) * (1.0 + (mant & MANT) as f64 * f64::EPSILON);
            // Few significant bits, so the tie binade takes many steps.
            let odd = (a_mant % (1 << (gap.rem_euclid(20) + 1))) | 1;
            return (x, odd as f64 * pow2(e - 53));
        }
        let x = match shape {
            0 => 0.0,
            1 => f64::from_bits((mant & MANT).max(1)),
            _ => pow2(exp) * (1.0 + (mant & MANT) as f64 * f64::EPSILON),
        };
        // `a`'s exponent sits `gap` binades below x's (above it if `gap`
        // is negative), with a random mantissa.
        let x_exp = if x.is_normal() { exp } else { -1022 };
        let a_exp = (x_exp - gap).clamp(-1074, 1000);
        let a = pow2(a_exp) * (1.0 + (a_mant & MANT) as f64 * f64::EPSILON);
        let a = match a_mant >> 61 {
            0 => -a,
            1 => 0.0,
            _ => a,
        };
        (x, a)
    }

    proptest! {
        /// `charge_repeated`'s closed form against the plain loop of
        /// `charge` calls, bit for bit, over every regime it handles:
        /// zero and subnormal totals, normal totals at every exponent,
        /// addends above the total and below half its ulp, non-positive
        /// addends, runs of up to a million charges, and the binade in
        /// which every addition is an exact tie.
        #[test]
        fn repeated_charges_equal_the_charge_loop_bit_for_bit(
            shape in 0u8..5,
            exp in -1022i32..1000,
            mant in any::<u64>(),
            gap in -3i32..90,
            a_mant in any::<u64>(),
            n in 0u64..=1_000_000,
        ) {
            let (x, a) = operands(shape, exp, mant, gap, a_mant);
            let mut looped = EnergyLedger::new();
            looped.charge(NodeCategory::Static, Energy::from_joules(x));
            looped.charge(NodeCategory::Network, Energy::from_joules(x * 0.75));
            let mut batched = looped;
            let b = a * 0.5;
            for _ in 0..n {
                looped.charge(NodeCategory::Static, Energy::from_joules(a));
                looped.charge(NodeCategory::Network, Energy::from_joules(b));
            }
            batched.charge_repeated(NodeCategory::Static, Energy::from_joules(a), n);
            batched.charge_repeated(NodeCategory::Network, Energy::from_joules(b), n);
            for c in NodeCategory::ALL {
                let (want, got) = (looped.get(c).as_joules(), batched.get(c).as_joules());
                prop_assert!(
                    want.to_bits() == got.to_bits(),
                    "{c}: x {x:e}, a {a:e}, n {n}: loop {want:e}, closed form {got:e}"
                );
            }
        }
    }

    #[test]
    fn tie_operands_tie_at_every_addition_in_the_binade() {
        let (x, a) = operands(4, 3, 12345, 7, 0xff);
        let ulp = pow2(3 - 52);
        assert_eq!(
            (a / ulp).fract(),
            0.5,
            "a is an odd multiple of half an ulp"
        );
        let mut y = x;
        for _ in 0..1000 {
            let next = y + a;
            assert!(is_tie(y, a, next), "{y:e} + {a:e}");
            y = next;
        }
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut ledger = EnergyLedger::new();
        for (i, cat) in NodeCategory::ALL.into_iter().enumerate() {
            ledger.charge(cat, Energy::from_nanojoules((i + 1) as f64));
        }
        let sum: f64 = NodeCategory::ALL.iter().map(|&c| ledger.fraction(c)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_ledger_is_safe() {
        let ledger = EnergyLedger::new();
        assert_eq!(ledger.total(), Energy::ZERO);
        assert_eq!(ledger.fraction(NodeCategory::Compute), 0.0);
    }

    #[test]
    fn merge_adds_categorywise() {
        let mut a = EnergyLedger::new();
        a.charge(NodeCategory::Compute, Energy::from_joules(1.0));
        let mut b = EnergyLedger::new();
        b.charge(NodeCategory::Compute, Energy::from_joules(2.0));
        b.charge(NodeCategory::Network, Energy::from_joules(4.0));
        let merged: EnergyLedger = [a, b].into_iter().sum();
        assert!((merged.get(NodeCategory::Compute).as_joules() - 3.0).abs() < 1e-12);
        assert!((merged.get(NodeCategory::Network).as_joules() - 4.0).abs() < 1e-12);
        assert!((merged.total().as_joules() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn mean_power_over_span() {
        let mut ledger = EnergyLedger::new();
        ledger.charge(NodeCategory::Static, Energy::from_joules(2.0));
        let p = ledger.mean_power(NodeCategory::Static, TimeDelta::from_secs(4));
        assert!((p.as_watts() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_shows_every_category() {
        let mut ledger = EnergyLedger::new();
        ledger.charge(NodeCategory::Compute, Energy::from_nanojoules(78.0));
        let text = ledger.to_string();
        for cat in NodeCategory::ALL {
            assert!(text.contains(cat.label()), "missing {}", cat.label());
        }
        assert!(text.contains("Total"));
    }
}
