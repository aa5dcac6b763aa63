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
//! every core's power-probe resource (the self-measurement loop). The
//! [`MetricsHub`] samples in the same pass: one walk over the links and
//! one over the cores feed both, through lookup tables built once from
//! the topology (DESIGN.md §3.5).

use crate::metrics::MetricsHub;
use crate::snapshot;
use crate::topology::{GridSpec, CHIP_COLS, CHIP_ROWS};
use swallow_energy::{AdcBoard, Energy, Power, Smps};
use swallow_noc::{Direction, Fabric, LinkDesc};
use swallow_sim::{
    ByteReader, ByteWriter, CodecError, IndexSet, Time, TimeDelta, TraceEvent, Tracer,
};
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

/// The rail a link's wire energy is metered on.
#[derive(Clone, Copy, Debug)]
pub(crate) enum LinkSink {
    /// An on-chip link: its source node's package rail.
    Core {
        node: usize,
        slice: usize,
        rail: usize,
    },
    /// A board or FFC link: its source slice's I/O rail.
    Io { slice: usize },
    /// A bridge-originated link: host powered, not metered.
    Host,
}

/// Link ids grouped by the sum they feed, each group in link-id order:
/// group `g` holds `links[start[g]..start[g + 1]]`.
pub(crate) struct LinkGroups {
    start: Vec<u32>,
    links: Vec<u32>,
}

impl LinkGroups {
    /// `groups` groups over the links of `sinks` (in link-id order), each
    /// link in the group `group_of` names for its sink, if any.
    fn new(
        groups: usize,
        sinks: &[LinkSink],
        group_of: impl Fn(LinkSink) -> Option<usize>,
    ) -> Self {
        let mut start = vec![0u32; groups + 1];
        for g in sinks.iter().filter_map(|&sink| group_of(sink)) {
            start[g + 1] += 1;
        }
        for g in 0..groups {
            start[g + 1] += start[g];
        }
        let mut next = start.clone();
        let mut links = vec![0; start[groups] as usize];
        for (link, &sink) in sinks.iter().enumerate() {
            if let Some(g) = group_of(sink) {
                links[next[g] as usize] = link as u32;
                next[g] += 1;
            }
        }
        LinkGroups { start, links }
    }

    /// Group `g`'s link energies added from zero in link-id order: the
    /// additions a walk over every link makes into that group's sum.
    pub(crate) fn sum(&self, g: usize, energies: &[Energy]) -> Energy {
        let members = &self.links[self.start[g] as usize..self.start[g + 1] as usize];
        let mut sum = Energy::ZERO;
        for &link in members {
            sum += energies[link as usize];
        }
        sum
    }
}

/// Where every core's and link's energy is metered, derived once from the
/// topology so a monitor fire does no division chains per node or link.
pub(crate) struct SupplyMap {
    /// Per core node: `(slice, rail)`.
    pub(crate) nodes: Vec<(usize, usize)>,
    /// Per link, in link-id order.
    pub(crate) links: Vec<LinkSink>,
    /// The monitor's on-chip link groups, one per source node.
    by_node: LinkGroups,
    /// The monitor's board and FFC link groups, one per source slice.
    by_slice: LinkGroups,
    /// The metrics hub's link groups, one per `slice * RAILS + rail`.
    pub(crate) by_rail: LinkGroups,
}

impl SupplyMap {
    fn new(spec: GridSpec, links: &[LinkDesc]) -> Self {
        let nodes: Vec<(usize, usize)> = spec
            .nodes()
            .map(|node| (spec.slice_of(node), rail_of(spec, node)))
            .collect();
        let links: Vec<LinkSink> = links
            .iter()
            .map(|d| match nodes.get(d.from.raw() as usize) {
                None => LinkSink::Host,
                Some(&(slice, rail)) if d.dir == Direction::Internal => LinkSink::Core {
                    node: d.from.raw() as usize,
                    slice,
                    rail,
                },
                Some(&(slice, _)) => LinkSink::Io { slice },
            })
            .collect();
        let by_node = LinkGroups::new(nodes.len(), &links, |sink| match sink {
            LinkSink::Core { node, .. } => Some(node),
            _ => None,
        });
        let by_slice = LinkGroups::new(spec.slice_count(), &links, |sink| match sink {
            LinkSink::Io { slice } => Some(slice),
            _ => None,
        });
        let by_rail = LinkGroups::new(spec.slice_count() * RAILS, &links, |sink| match sink {
            LinkSink::Core { slice, rail, .. } => Some(slice * RAILS + rail),
            LinkSink::Io { slice } => Some(slice * RAILS + IO_RAIL),
            LinkSink::Host => None,
        });
        SupplyMap {
            nodes,
            links,
            by_node,
            by_slice,
            by_rail,
        }
    }
}

/// Which rail a core node's package hangs off (0–3).
fn rail_of(spec: GridSpec, node: swallow_isa::NodeId) -> usize {
    let c = spec.coord_of(node);
    let local_package = (c.y % CHIP_ROWS) * CHIP_COLS + (c.x % CHIP_COLS);
    (local_package / 2) as usize
}

/// Live power-tree state for a whole machine.
pub struct PowerMonitor {
    spec: GridSpec,
    map: SupplyMap,
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
    /// On-chip link energy per source node: its `by_node` group's sum,
    /// cached. `update` is on every engine's hot path (it runs once per
    /// monitor window, and the windowed engine bounds every window by
    /// it), so a fire re-sums only the groups `stale_nodes` names — those
    /// with a link in [`Fabric::energy_moved`] — each from zero in
    /// link-id order, as a walk over every link would. Every buffer here
    /// is sized once at construction: the update performs no heap
    /// allocation.
    internal_by_node: Vec<Energy>,
    /// Board/FFC link energy per source slice: its `by_slice` group's sum.
    external_by_slice: Vec<Energy>,
    /// Link energy per slice and rail, as the metrics hub meters it: the
    /// `by_rail` groups' sums.
    links_by_rail: Vec<[Energy; RAILS]>,
    /// Groups whose cached sum is out of date. The caches are derived:
    /// they are not in a snapshot, and a restored fabric's
    /// `energy_moved` makes every group stale.
    stale_nodes: IndexSet,
    stale_slices: IndexSet,
    /// Stale hub groups (`slice * RAILS + rail`); re-summed only on fires
    /// that sample.
    stale_rails: IndexSet,
    /// Reusable window scratch: fresh energy per rail per slice.
    scratch_rail_energy: Vec<[Energy; RAILS]>,
    /// Reusable window scratch: each slice's probe readings (µW).
    scratch_readings: Vec<[u32; RAILS]>,
    /// Trace sink for [`TraceEvent::SupplySample`] records (one per rail
    /// per slice per update).
    tracer: Tracer,
}

impl PowerMonitor {
    /// Creates a monitor for a machine of `spec` size whose fabric has
    /// the links `links` (in link-id order).
    pub fn new(spec: GridSpec, window: TimeDelta, links: &[LinkDesc]) -> Self {
        let slices = spec.slice_count();
        PowerMonitor {
            spec,
            map: SupplyMap::new(spec, links),
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
            internal_by_node: vec![Energy::ZERO; spec.core_count()],
            external_by_slice: vec![Energy::ZERO; slices],
            links_by_rail: vec![[Energy::ZERO; RAILS]; slices],
            stale_nodes: IndexSet::new(spec.core_count()),
            stale_slices: IndexSet::new(slices),
            stale_rails: IndexSet::new(slices * RAILS),
            scratch_rail_energy: vec![[Energy::ZERO; RAILS]; slices],
            scratch_readings: vec![[0; RAILS]; slices],
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
        rail_of(self.spec, node)
    }

    /// The metering tables.
    pub(crate) fn map(&self) -> &SupplyMap {
        &self.map
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
    /// powers, samples ADCs and pushes probe readings into the cores, then
    /// lets `metrics` take its sample at `now` ([`MetricsHub::sample`]).
    ///
    /// Both read the same link and core energies. The link side is one
    /// cached sum per metering group, re-summed only when a link of the
    /// group is in [`Fabric::energy_moved`] (which the fire then clears);
    /// one pass over the cores feeds the monitor's per-window deltas and
    /// the hub's cumulative sums together. Each accumulator still
    /// receives its additions in the order of a separate walk over every
    /// link and core: link-id order, then node order.
    pub fn update(
        &mut self,
        now: Time,
        cores: &mut [Core],
        fabric: &mut Fabric,
        metrics: &mut MetricsHub,
    ) {
        let span = now.saturating_since(self.next_update - self.window);
        if span.is_zero() {
            metrics.sample(now, cores, fabric, self);
            return;
        }
        self.next_update = now + self.window;
        let sample = metrics.begin_sample(now);
        let slices = self.spec.slice_count();
        let core_count = self.spec.core_count();
        // Allocation-free invariant: the buffers were sized at
        // construction and are only refilled here; if these lengths ever
        // drift, something resized them (and therefore reallocated).
        debug_assert_eq!(self.internal_by_node.len(), core_count);
        debug_assert_eq!(self.external_by_slice.len(), slices);
        debug_assert_eq!(self.scratch_rail_energy.len(), slices);
        debug_assert_eq!(self.map.links.len(), fabric.link_count());
        self.scratch_rail_energy.fill([Energy::ZERO; RAILS]);

        // Split fresh link energy: on-chip links charge their source
        // node's 1 V rail; board/FFC links charge the slice I/O rail.
        for link in fabric.energy_moved().iter() {
            match self.map.links[link] {
                LinkSink::Core { node, slice, rail } => {
                    self.stale_nodes.insert(node);
                    self.stale_rails.insert(slice * RAILS + rail);
                }
                LinkSink::Io { slice } => {
                    self.stale_slices.insert(slice);
                    self.stale_rails.insert(slice * RAILS + IO_RAIL);
                }
                LinkSink::Host => {}
            }
        }
        fabric.clear_energy_moved();
        let energies = fabric.link_energies();
        for node in self.stale_nodes.iter() {
            self.internal_by_node[node] = self.map.by_node.sum(node, energies);
        }
        self.stale_nodes.clear();
        for slice in self.stale_slices.iter() {
            self.external_by_slice[slice] = self.map.by_slice.sum(slice, energies);
        }
        self.stale_slices.clear();
        if sample {
            for g in self.stale_rails.iter() {
                self.links_by_rail[g / RAILS][g % RAILS] = self.map.by_rail.sum(g, energies);
            }
            self.stale_rails.clear();
            metrics.set_link_sums(&self.links_by_rail);
        }

        for (i, (&(slice, rail), core)) in self.map.nodes.iter().zip(cores.iter()).enumerate() {
            let total = core.ledger().total();
            let core_delta = total - self.last_core_energy[i];
            let link_delta = self.internal_by_node[i] - self.last_internal_by_node[i];
            self.last_core_energy[i] = total;
            self.last_internal_by_node[i] = self.internal_by_node[i];
            self.scratch_rail_energy[slice][rail] += core_delta + link_delta;
            if sample {
                metrics.add_node(slice, rail, total);
            }
        }
        let support = Power::from_milliwatts(SUPPORT_POWER_PER_SLICE_MW);
        for slice in 0..slices {
            let ext_delta = self.external_by_slice[slice] - self.last_external_by_slice[slice];
            self.last_external_by_slice[slice] = self.external_by_slice[slice];
            self.scratch_rail_energy[slice][IO_RAIL] += ext_delta + support * span;
            self.support_energy[slice] += support * span;

            for (rail, energy) in self.scratch_rail_energy[slice]
                .iter()
                .enumerate()
                .take(RAILS)
            {
                self.rails[slice][rail] = energy.over(span);
                self.scratch_readings[slice][rail] = self.rails[slice][rail].as_microwatts() as u32;
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
        for (&(slice, _), core) in self.map.nodes.iter().zip(cores.iter_mut()) {
            for (ch, &uw) in self.scratch_readings[slice].iter().enumerate() {
                core.set_probe_reading(ch, uw);
            }
        }
        if sample {
            metrics.finish_sample(now, self);
        }
    }

    // Snapshot codec. The lengths of every vector are a pure function of
    // the grid spec (restored from the machine's CONF section before this
    // runs), so they are not re-encoded; the SMPS models, the metering
    // tables, the cached link sums and the scratch buffers are
    // constants/derived (a restored fabric names every link in
    // `energy_moved`, so the next fire re-sums every group), and ADC
    // daughter-boards are observational test fixtures that are not part
    // of a snapshot.

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
        let m = PowerMonitor::new(spec, DEFAULT_MONITOR_WINDOW, &[]);
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
        let m = PowerMonitor::new(GridSpec::ONE_SLICE, DEFAULT_MONITOR_WINDOW, &[]);
        assert_eq!(m.slice_load_power(0), Power::ZERO);
        assert_eq!(m.rail_power(9, 0), Power::ZERO); // out of range is safe
                                                     // Input power still includes the fixed SMPS overhead.
        assert!(m.slice_input_power(0).as_milliwatts() > 0.0);
    }
}
