//! The power tree and measurement subsystem (§II, §III.A).
//!
//! Per slice: four 1 V SMPS rails feed two packages (four cores) each;
//! one 3.3 V rail feeds the link drivers and support logic. Shunt
//! resistors on each SMPS *output* are what the measurement daughter-board
//! digitises, so probe readings report rail *load* power; conversion
//! losses appear only at the 5 V input (§III.A's 3.1 W → ≈4.5 W per
//! slice).
//!
//! [`PowerMonitor::update`] runs on a fixed cadence (default 1 µs — the
//! ADC's all-channel rate): it differentiates the energy ledgers into rail
//! powers, feeds the optional [`AdcBoard`]s and pushes live readings into
//! every core's power-probe resource (the self-measurement loop).

use crate::snapshot;
use crate::topology::{GridSpec, CHIP_COLS, CHIP_ROWS};
use swallow_energy::{AdcBoard, Energy, Power, Smps};
use swallow_noc::{Direction, Fabric};
use swallow_sim::{ByteReader, ByteWriter, CodecError, Time, TimeDelta, TraceEvent, Tracer};
use swallow_xcore::Core;

/// Default monitor cadence: the ADC's 1 MS/s all-channel rate.
pub const DEFAULT_MONITOR_WINDOW: TimeDelta = TimeDelta::from_us(1);

/// Support-logic power per slice, drawn from the 3.3 V rail (clock
/// distribution, level shifters, LEDs — the Fig. 2 "other" wedge,
/// ≈10 mW per node).
pub const SUPPORT_POWER_PER_SLICE_MW: f64 = 160.0;

/// Rails per slice: four 1 V core rails + one 3.3 V I/O rail.
pub const RAILS: usize = 5;
/// Index of the I/O rail in per-slice rail arrays.
pub const IO_RAIL: usize = 4;

/// Live power-tree state for a whole machine.
pub struct PowerMonitor {
    spec: GridSpec,
    window: TimeDelta,
    next_update: Time,
    last_core_energy: Vec<Energy>,
    last_internal_by_node: Vec<Energy>,
    last_external_by_slice: Vec<Energy>,
    /// Latest rail output (load) power per slice.
    rails: Vec<[Power; RAILS]>,
    /// Cumulative SMPS conversion-loss energy per slice.
    loss_energy: Vec<Energy>,
    /// Cumulative support-logic energy per slice.
    support_energy: Vec<Energy>,
    adc: Vec<Option<AdcBoard>>,
    smps_core: Smps,
    smps_io: Smps,
    /// Reusable window scratch: fresh on-chip link energy per source node.
    /// `update` is on every engine's hot path (it runs once per monitor
    /// window, and the windowed engine bounds every window by it), so all
    /// three scratch buffers are sized once at construction and only ever
    /// `fill`ed — the update itself performs no heap allocation.
    scratch_internal_by_node: Vec<Energy>,
    /// Reusable window scratch: fresh board/FFC link energy per slice.
    scratch_external_by_slice: Vec<Energy>,
    /// Reusable window scratch: fresh energy per rail per slice.
    scratch_rail_energy: Vec<[Energy; RAILS]>,
    /// Trace sink for [`TraceEvent::SupplySample`] records (one per rail
    /// per slice per update).
    tracer: Tracer,
}

impl PowerMonitor {
    /// Creates a monitor for a machine of `spec` size.
    pub fn new(spec: GridSpec, window: TimeDelta) -> Self {
        let slices = spec.slice_count();
        PowerMonitor {
            spec,
            window,
            next_update: Time::ZERO + window,
            last_core_energy: vec![Energy::ZERO; spec.core_count()],
            last_internal_by_node: vec![Energy::ZERO; spec.core_count()],
            last_external_by_slice: vec![Energy::ZERO; slices],
            rails: vec![[Power::ZERO; RAILS]; slices],
            loss_energy: vec![Energy::ZERO; slices],
            support_energy: vec![Energy::ZERO; slices],
            adc: (0..slices).map(|_| None).collect(),
            smps_core: Smps::swallow_core_rail(),
            smps_io: Smps::swallow_io_rail(),
            scratch_internal_by_node: vec![Energy::ZERO; spec.core_count()],
            scratch_external_by_slice: vec![Energy::ZERO; slices],
            scratch_rail_energy: vec![[Energy::ZERO; RAILS]; slices],
            tracer: Tracer::Off,
        }
    }

    /// Replaces the monitor's trace sink.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The monitor's trace sink.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The monitor cadence.
    pub fn window(&self) -> TimeDelta {
        self.window
    }

    /// Fits a measurement daughter-board to one slice.
    pub fn fit_adc(&mut self, slice: usize, board: AdcBoard) {
        if slice < self.adc.len() {
            self.adc[slice] = Some(board);
        }
    }

    /// The daughter-board of a slice, when fitted.
    pub fn adc(&self, slice: usize) -> Option<&AdcBoard> {
        self.adc.get(slice).and_then(|a| a.as_ref())
    }

    /// When the next update is due.
    pub fn next_update(&self) -> Time {
        self.next_update
    }

    /// Which rail a core node's package hangs off (0–3).
    pub fn rail_of(&self, node: swallow_isa::NodeId) -> usize {
        let c = self.spec.coord_of(node);
        let local_package = (c.y % CHIP_ROWS) * CHIP_COLS + (c.x % CHIP_COLS);
        (local_package / 2) as usize
    }

    /// Latest measured load of one rail of one slice.
    pub fn rail_power(&self, slice: usize, rail: usize) -> Power {
        self.rails
            .get(slice)
            .and_then(|r| r.get(rail))
            .copied()
            .unwrap_or(Power::ZERO)
    }

    /// Latest total load of a slice (what the five shunts sum to).
    pub fn slice_load_power(&self, slice: usize) -> Power {
        (0..RAILS).map(|r| self.rail_power(slice, r)).sum()
    }

    /// Latest slice power at the 5 V input, conversion losses included.
    pub fn slice_input_power(&self, slice: usize) -> Power {
        let core: Power = (0..IO_RAIL)
            .map(|r| self.smps_core.input_power(self.rail_power(slice, r)))
            .sum();
        core + self.smps_io.input_power(self.rail_power(slice, IO_RAIL))
    }

    /// Latest machine power at the inputs of every slice.
    pub fn machine_input_power(&self) -> Power {
        (0..self.spec.slice_count())
            .map(|s| self.slice_input_power(s))
            .sum()
    }

    /// Cumulative SMPS conversion-loss energy of a slice.
    pub fn loss_energy(&self, slice: usize) -> Energy {
        self.loss_energy.get(slice).copied().unwrap_or(Energy::ZERO)
    }

    /// Cumulative support-logic energy of a slice.
    pub fn support_energy(&self, slice: usize) -> Energy {
        self.support_energy
            .get(slice)
            .copied()
            .unwrap_or(Energy::ZERO)
    }

    /// Differentiates the ledgers over the elapsed window, refreshes rail
    /// powers, samples ADCs and pushes probe readings into the cores.
    pub fn update(&mut self, now: Time, cores: &mut [Core], fabric: &Fabric) {
        let span = now.saturating_since(self.next_update - self.window);
        if span.is_zero() {
            return;
        }
        self.next_update = now + self.window;
        let slices = self.spec.slice_count();
        let core_count = self.spec.core_count();
        // Allocation-free invariant: the scratch buffers were sized at
        // construction and are only refilled here; if these lengths ever
        // drift, something resized them (and therefore reallocated).
        debug_assert_eq!(self.scratch_internal_by_node.len(), core_count);
        debug_assert_eq!(self.scratch_external_by_slice.len(), slices);
        debug_assert_eq!(self.scratch_rail_energy.len(), slices);
        self.scratch_internal_by_node.fill(Energy::ZERO);
        self.scratch_external_by_slice.fill(Energy::ZERO);
        self.scratch_rail_energy.fill([Energy::ZERO; RAILS]);

        // Split fresh link energy: on-chip links charge their source
        // node's 1 V rail; board/FFC links charge the slice I/O rail.
        for s in fabric.link_stats() {
            let from = s.from.raw() as usize;
            if from >= core_count {
                continue; // bridge-originated tokens: host powered
            }
            if s.dir == Direction::Internal {
                self.scratch_internal_by_node[from] += s.energy;
            } else {
                self.scratch_external_by_slice[self.spec.slice_of(s.from)] += s.energy;
            }
        }

        for node in self.spec.nodes() {
            let i = node.raw() as usize;
            let core_delta = cores[i].ledger().total() - self.last_core_energy[i];
            let link_delta = self.scratch_internal_by_node[i] - self.last_internal_by_node[i];
            self.last_core_energy[i] = cores[i].ledger().total();
            self.last_internal_by_node[i] = self.scratch_internal_by_node[i];
            let slice = self.spec.slice_of(node);
            let rail = self.rail_of(node);
            self.scratch_rail_energy[slice][rail] += core_delta + link_delta;
        }
        let support = Power::from_milliwatts(SUPPORT_POWER_PER_SLICE_MW);
        for slice in 0..slices {
            let ext_delta =
                self.scratch_external_by_slice[slice] - self.last_external_by_slice[slice];
            self.last_external_by_slice[slice] = self.scratch_external_by_slice[slice];
            self.scratch_rail_energy[slice][IO_RAIL] += ext_delta + support * span;
            self.support_energy[slice] += support * span;

            for (rail, energy) in self.scratch_rail_energy[slice]
                .iter()
                .enumerate()
                .take(RAILS)
            {
                self.rails[slice][rail] = energy.over(span);
            }
            // Integrate conversion losses at the measured load.
            let loss: Power = (0..IO_RAIL)
                .map(|r| self.smps_core.loss(self.rails[slice][r]))
                .sum::<Power>()
                + self.smps_io.loss(self.rails[slice][IO_RAIL]);
            self.loss_energy[slice] += loss * span;

            if let Some(adc) = self.adc[slice].as_mut() {
                adc.sample(now, &self.rails[slice]);
            }
            if self.tracer.is_enabled() {
                for rail in 0..RAILS {
                    let microwatts =
                        self.rails[slice][rail].as_microwatts().max(0.0).round() as u64;
                    self.tracer.emit(
                        now,
                        TraceEvent::SupplySample {
                            slice: slice as u16,
                            rail: rail as u8,
                            microwatts,
                        },
                    );
                }
            }
        }

        // Self-measurement: every core sees its slice's five rails.
        for node in self.spec.nodes() {
            let slice = self.spec.slice_of(node);
            let readings = self.rails[slice];
            let core = &mut cores[node.raw() as usize];
            for (ch, p) in readings.iter().enumerate() {
                core.set_probe_reading(ch, p.as_microwatts() as u32);
            }
        }
    }

    // Snapshot codec. The lengths of every vector are a pure function of
    // the grid spec (restored from the machine's CONF section before this
    // runs), so they are not re-encoded; the SMPS models and the scratch
    // buffers are constants/derived, and ADC daughter-boards are
    // observational test fixtures that are not part of a snapshot.

    pub(crate) fn encode_state(&self, w: &mut ByteWriter) {
        w.time(self.next_update);
        for &e in &self.last_core_energy {
            snapshot::write_energy(w, e);
        }
        for &e in &self.last_internal_by_node {
            snapshot::write_energy(w, e);
        }
        for &e in &self.last_external_by_slice {
            snapshot::write_energy(w, e);
        }
        for rails in &self.rails {
            for &p in rails {
                snapshot::write_power(w, p);
            }
        }
        for &e in &self.loss_energy {
            snapshot::write_energy(w, e);
        }
        for &e in &self.support_energy {
            snapshot::write_energy(w, e);
        }
    }

    pub(crate) fn restore_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.next_update = r.time()?;
        for e in &mut self.last_core_energy {
            *e = snapshot::read_energy(r)?;
        }
        for e in &mut self.last_internal_by_node {
            *e = snapshot::read_energy(r)?;
        }
        for e in &mut self.last_external_by_slice {
            *e = snapshot::read_energy(r)?;
        }
        for rails in &mut self.rails {
            for p in rails.iter_mut() {
                *p = snapshot::read_power(r)?;
            }
        }
        for e in &mut self.loss_energy {
            *e = snapshot::read_energy(r)?;
        }
        for e in &mut self.support_energy {
            *e = snapshot::read_energy(r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swallow_isa::NodeId;

    #[test]
    fn rail_assignment_pairs_packages() {
        let spec = GridSpec::ONE_SLICE;
        let m = PowerMonitor::new(spec, DEFAULT_MONITOR_WINDOW);
        // Packages 0,1 -> rail 0; 2,3 -> rail 1; 4,5 -> rail 2; 6,7 -> rail 3.
        let mut rail_counts = [0usize; 4];
        for node in spec.nodes() {
            rail_counts[m.rail_of(node)] += 1;
        }
        assert_eq!(rail_counts, [4, 4, 4, 4]);
        // Both cores of one package share a rail.
        use swallow_noc::routing::Layer;
        let v = spec.node_at(2, 1, Layer::Vertical);
        let h = spec.node_at(2, 1, Layer::Horizontal);
        assert_eq!(m.rail_of(v), m.rail_of(h));
        let _ = NodeId(0);
    }

    #[test]
    fn empty_monitor_reports_zero() {
        let m = PowerMonitor::new(GridSpec::ONE_SLICE, DEFAULT_MONITOR_WINDOW);
        assert_eq!(m.slice_load_power(0), Power::ZERO);
        assert_eq!(m.rail_power(9, 0), Power::ZERO); // out of range is safe
                                                     // Input power still includes the fixed SMPS overhead.
        assert!(m.slice_input_power(0).as_milliwatts() > 0.0);
    }
}
