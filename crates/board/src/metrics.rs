//! Per-component energy/utilization metrics on the monitor cadence.
//!
//! The [`MetricsHub`] is the numeric half of the observability layer (the
//! typed trace events are the other): every time the [`PowerMonitor`]
//! fires, the hub snapshots the *cumulative* energy attributable to each
//! supply rail of each slice — exactly the split the monitor itself uses
//! (core + on-chip-link energy onto the node's 1 V package rail;
//! board/FFC link + support energy onto the 3.3 V I/O rail) — and records
//! the delta since the previous snapshot as one [`SupplyRow`] per slice.
//!
//! Because rows are first differences of cumulative counters, their sum
//! telescopes: after [`MetricsHub::sample`] at the final instant, the
//! integrated row energy equals the machine's `EnergyLedger` total up to
//! f64 association — the conservation property pinned by the
//! `metrics_conservation` tests. Sampling only *reads* simulation state,
//! so enabling metrics can never perturb a run.

use crate::power::{PowerMonitor, IO_RAIL, RAILS};
use crate::snapshot;
use crate::topology::GridSpec;
use swallow_energy::Energy;
use swallow_noc::{Direction, Fabric};
use swallow_sim::{ByteReader, ByteWriter, CodecError, Time, TimeDelta};
use swallow_xcore::Core;

/// One monitor-window measurement of one slice: the energy each supply
/// rail delivered during the window, plus the SMPS conversion loss. This
/// is the row format of the CSV exporter (the paper's measurement
/// daughter-board view: five shunts per slice plus the input-side loss).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SupplyRow {
    /// End of the measurement window.
    pub at: Time,
    /// Window length.
    pub span: TimeDelta,
    /// Slice index.
    pub slice: u16,
    /// Output-side energy per rail (0–3 the 1 V core rails, 4 the 3.3 V
    /// I/O rail) during the window.
    pub rails: [Energy; RAILS],
    /// SMPS conversion-loss energy during the window.
    pub loss: Energy,
}

impl SupplyRow {
    /// Total energy the slice drew from the 5 V bus during this window
    /// (rail loads plus conversion loss).
    pub fn total(&self) -> Energy {
        self.rails.iter().copied().sum::<Energy>() + self.loss
    }
}

/// The conservation residual `|metered − ledger| / |ledger|`: how far a
/// supply-integrated energy strays from the ledger total it should
/// reproduce (the denominator is floored at `f64::MIN_POSITIVE`, so an
/// empty run yields 0, not NaN).
pub fn conservation_rel(metered: Energy, ledger: Energy) -> f64 {
    let (metered, ledger) = (metered.as_joules(), ledger.as_joules());
    (metered - ledger).abs() / ledger.abs().max(f64::MIN_POSITIVE)
}

/// Accumulates per-rail energy time series on the power-monitor cadence.
pub struct MetricsHub {
    spec: GridSpec,
    enabled: bool,
    last_sample_at: Time,
    /// Cumulative rail energy at the last sample, per slice.
    last_rail: Vec<[Energy; RAILS]>,
    /// Cumulative conversion-loss energy at the last sample, per slice.
    last_loss: Vec<Energy>,
    /// Reusable cumulative-energy scratch (sized once at construction).
    scratch_rail: Vec<[Energy; RAILS]>,
    rows: Vec<SupplyRow>,
}

impl MetricsHub {
    /// Creates a hub for a machine of `spec` size.
    pub fn new(spec: GridSpec, enabled: bool) -> Self {
        let slices = spec.slice_count();
        MetricsHub {
            spec,
            enabled,
            last_sample_at: Time::ZERO,
            last_rail: vec![[Energy::ZERO; RAILS]; slices],
            last_loss: vec![Energy::ZERO; slices],
            scratch_rail: vec![[Energy::ZERO; RAILS]; slices],
            rows: Vec::new(),
        }
    }

    /// True when sampling is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Enables or disables sampling.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Recorded rows, oldest first (one per slice per monitor firing).
    pub fn rows(&self) -> &[SupplyRow] {
        &self.rows
    }

    /// Integrated energy over every recorded row (rail loads plus
    /// conversion losses). After a final flush this equals the machine
    /// ledger total up to f64 association.
    pub fn total_energy(&self) -> Energy {
        self.rows.iter().map(|r| r.total()).sum()
    }

    /// Takes one measurement at `now`, recording a [`SupplyRow`] per
    /// slice for the window since the previous sample. Call whenever the
    /// [`PowerMonitor`] has just updated (and once more at the end of a
    /// run, after a final monitor flush, to capture the residual window).
    ///
    /// Pure read of cores/fabric/monitor: the rail split mirrors
    /// [`PowerMonitor::update`] — core energy and on-chip link energy to
    /// the node's package rail, board/FFC link energy and support energy
    /// to the slice I/O rail — but against *cumulative* counters, so row
    /// sums telescope exactly.
    pub fn sample(&mut self, now: Time, cores: &[Core], fabric: &Fabric, monitor: &PowerMonitor) {
        if !self.enabled || now <= self.last_sample_at {
            return;
        }
        let span = now.since(self.last_sample_at);
        let core_count = self.spec.core_count();
        self.scratch_rail.fill([Energy::ZERO; RAILS]);
        for s in fabric.link_stats() {
            let from = s.from.raw() as usize;
            if from >= core_count {
                continue; // bridge-originated tokens: host powered
            }
            let slice = self.spec.slice_of(s.from);
            if s.dir == Direction::Internal {
                self.scratch_rail[slice][monitor.rail_of(s.from)] += s.energy;
            } else {
                self.scratch_rail[slice][IO_RAIL] += s.energy;
            }
        }
        for node in self.spec.nodes() {
            let slice = self.spec.slice_of(node);
            let rail = monitor.rail_of(node);
            self.scratch_rail[slice][rail] += cores[node.raw() as usize].ledger().total();
        }
        for slice in 0..self.spec.slice_count() {
            self.scratch_rail[slice][IO_RAIL] += monitor.support_energy(slice);
            let mut rails = [Energy::ZERO; RAILS];
            for (rail, delta) in rails.iter_mut().enumerate() {
                *delta = self.scratch_rail[slice][rail] - self.last_rail[slice][rail];
            }
            let loss = monitor.loss_energy(slice) - self.last_loss[slice];
            self.last_rail[slice] = self.scratch_rail[slice];
            self.last_loss[slice] = monitor.loss_energy(slice);
            self.rows.push(SupplyRow {
                at: now,
                span,
                slice: slice as u16,
                rails,
                loss,
            });
        }
        self.last_sample_at = now;
    }

    // Snapshot codec. The per-slice vector lengths follow from the grid
    // spec (already restored via the machine's CONF section); only the
    // row count is dynamic.

    pub(crate) fn encode_state(&self, w: &mut ByteWriter) {
        w.bool(self.enabled);
        w.time(self.last_sample_at);
        for rails in &self.last_rail {
            for &e in rails {
                snapshot::write_energy(w, e);
            }
        }
        for &e in &self.last_loss {
            snapshot::write_energy(w, e);
        }
        w.u64(self.rows.len() as u64);
        for row in &self.rows {
            w.time(row.at);
            w.delta(row.span);
            w.u16(row.slice);
            for &e in &row.rails {
                snapshot::write_energy(w, e);
            }
            snapshot::write_energy(w, row.loss);
        }
    }

    pub(crate) fn restore_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.enabled = r.bool()?;
        self.last_sample_at = r.time()?;
        for rails in &mut self.last_rail {
            for e in rails.iter_mut() {
                *e = snapshot::read_energy(r)?;
            }
        }
        for e in &mut self.last_loss {
            *e = snapshot::read_energy(r)?;
        }
        let slices = self.spec.slice_count();
        self.rows.clear();
        for _ in 0..r.len_prefixed(26 + 8 * RAILS)? {
            let at = r.time()?;
            let span = r.delta()?;
            let slice = r.u16()?;
            if (slice as usize) >= slices {
                return Err(CodecError::Invalid("metrics row names an unknown slice"));
            }
            let mut rails = [Energy::ZERO; RAILS];
            for e in rails.iter_mut() {
                *e = snapshot::read_energy(r)?;
            }
            let loss = snapshot::read_energy(r)?;
            self.rows.push(SupplyRow {
                at,
                span,
                slice,
                rails,
                loss,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hub_records_nothing() {
        let spec = GridSpec::ONE_SLICE;
        let mut machine = crate::Machine::new(crate::MachineConfig::one_slice());
        let mut hub = MetricsHub::new(spec, false);
        machine.run_for(TimeDelta::from_us(3));
        // Direct sample against live components: disabled means no rows.
        let now = machine.now();
        let (cores, fabric, monitor) = machine.parts();
        hub.sample(now, cores, fabric, monitor);
        assert!(hub.rows().is_empty());
        assert_eq!(hub.total_energy(), Energy::ZERO);
    }

    #[test]
    fn rows_telescope_to_cumulative_totals() {
        let mut machine = crate::Machine::new(crate::MachineConfig::one_slice());
        machine.metrics_mut().set_enabled(true);
        machine.run_for(TimeDelta::from_us(5));
        machine.flush_metrics();
        let hub = machine.metrics();
        assert!(!hub.rows().is_empty(), "idle machine still burns energy");
        let ledger = machine.machine_ledger().total();
        let metered = hub.total_energy();
        assert!(
            conservation_rel(metered, ledger) <= 1e-9,
            "metered {metered} vs ledger {ledger}"
        );
    }
}
