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
