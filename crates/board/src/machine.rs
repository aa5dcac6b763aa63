//! A whole Swallow machine: cores + fabric + power tree + bridge.
//!
//! [`Machine`] owns everything `swallow-xcore`, `swallow-noc` and the
//! power models provide, assembled per the [`topology`](crate::topology)
//! rules. It is the engine under the public `swallow` crate's
//! `SwallowSystem` facade.
//!
//! Two engines advance the machine (see [`EngineMode`]):
//!
//! * **Lock-step**: one base clock period per [`Machine::step`], every
//!   subsystem visited every step — the reference semantics and the
//!   single oracle every other configuration is tested against.
//! * **Windowed** (default, one thread): cores are sharded
//!   (chip-granular, see the `shard` module) across a fixed pool of host
//!   threads, and each shard advances independently through a window
//!   that ends at the next instant the machine must process serially
//!   (power monitor, deadline, scheduled fault). Shards negotiate their
//!   horizons from each other's progress plus the fastest link's token
//!   time (DESIGN.md §3.12), so no core runs past an instant a token
//!   could have reached it. A core that *emits* stops the window and a
//!   serial reconciliation replays the affected grid instants exactly as
//!   lock-step would. When a window cannot open — tokens in flight,
//!   pending output, bridge backlog, fewer than two runnable cores — the
//!   engine takes one serial fast-forward step instead: it jumps `now`
//!   to the next instant anything can happen (see `ff_advance`). All
//!   processing stays on the base-clock grid and every engine charges
//!   each idle clock edge with lock-step's own additions, so results,
//!   energy included, equal lock-step's bit for bit at every thread
//!   count. See DESIGN.md §3.7, §3.8.
//!
//! Every grid instant, whichever engine reaches it, is processed by one
//! routine, `process_edge`: lock-step steps, fast-forward jumps, window
//! commits and the instants a reconciliation replays all go through it,
//! and `run_for` and `run_until_quiescent` share one advance loop.
//!
//! The per-edge passes visit only *awake* cores. A core parks when an
//! edge leaves it quiescent (halted, or every thread blocked on input or
//! output) with no pending output, or with every pending chanend parked
//! in the fabric; until one of its threads can run or the fabric can move
//! its output it can only tick idle, so the core pass, the activity scan,
//! the injection pass, the window preconditions, the windows themselves
//! and `is_quiescent` skip it. Wherever anything other than an idle tick
//! touches a parked core — a delivery, a pop of its output, a wake of one
//! of its heads, a fault, a quarantine, the power monitor — it is first
//! caught up with `Core::run_until`, which charges the idle edges it
//! missed in closed form: the very f64 additions ticking them would have
//! made, in the same order. A delivery or pop wakes it only when that
//! readied a thread (a 32-bit `in` waits for four tokens), and a pop
//! that leaves its output movable wakes it after the fabric step.
//!
//! Every public advance ends with the parked cores caught up to `now`
//! but still parked, so accessors and snapshots see eager state and the
//! next advance does not revisit them. [`Machine::core_mut`] wakes the
//! core it returns (the caller may give it work), loading programs wakes
//! the cores loaded, and [`Machine::step`] wakes every core first, so
//! lock-step still runs every core on every edge.

use crate::ethernet::EthernetBridge;
use crate::metrics::MetricsHub;
use crate::power::{PowerMonitor, DEFAULT_MONITOR_WINDOW};
use crate::resilience::FaultEngine;
use crate::shard::{EpochPool, NegotiationParams, ShardPlan};
use crate::topology::{build_topology, GridSpec, TopologyOptions};
use std::fmt;
use swallow_energy::{DvfsTable, EnergyLedger, NodeCategory};
use swallow_faults::{FaultCounters, FaultKind, FaultPlan};
use swallow_isa::{NodeId, Program, ResourceId, Token};
use swallow_noc::{CoreEndpoints, Fabric, LinkDesc, LinkId, TableRouter};
use swallow_sim::{
    ByteReader, ByteWriter, CodecError, Frequency, IndexSet, Time, TimeDelta, TraceEvent, TraceLog,
    Tracer,
};
use swallow_xcore::{Core, CoreConfig, LoadError};

/// Routing strategy selection.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RouterKind {
    /// The paper's vertical-first dimension-order routing (§V.A). Assumes
    /// a fully wired lattice.
    #[default]
    VerticalFirst,
    /// Breadth-first shortest paths — tolerant of faulted cables and
    /// custom wirings.
    ShortestPaths,
}

/// Simulation engine selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineMode {
    /// Advance one base clock period at a time, visiting every subsystem
    /// every step. The reference engine, kept for differential testing.
    LockStep,
    /// Negotiated-window execution: shard the cores chip-granularly
    /// across `threads` host threads and advance each shard through
    /// windows bounded by the shards' progress plus the fastest link's
    /// token time, falling back to serial fast-forward steps whenever a
    /// window cannot open. `threads == 0` means one thread per available
    /// host CPU; one thread runs entirely on the calling thread.
    /// Deterministic and equal to lock-step bit for bit, energy included.
    Windowed {
        /// Host worker threads (0 = available parallelism).
        threads: usize,
    },
}

impl Default for EngineMode {
    /// One-thread windows: the fastest serial configuration.
    fn default() -> Self {
        EngineMode::Windowed { threads: 1 }
    }
}

impl EngineMode {
    /// Stable lower-case name for tables, JSON and the command line.
    pub fn name(self) -> &'static str {
        match self {
            EngineMode::LockStep => "lockstep",
            EngineMode::Windowed { .. } => "windowed",
        }
    }

    /// Host worker threads of the windowed engine (0 under lock-step).
    pub fn threads(self) -> usize {
        match self {
            EngineMode::LockStep => 0,
            EngineMode::Windowed { threads } => threads,
        }
    }
}

/// Machine configuration.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Machine size in slices.
    pub grid: GridSpec,
    /// Initial core clock for every core.
    pub frequency: Frequency,
    /// Routing strategy.
    pub router: RouterKind,
    /// Fit an Ethernet bridge on the south edge.
    pub bridge: bool,
    /// Package-internal link pairs (4 on real hardware; ablation knob).
    pub internal_link_pairs: usize,
    /// Fraction of inter-slice FFC cables that fail at assembly.
    pub ffc_fault_rate: f64,
    /// Seed for cable fault injection.
    pub fault_seed: u64,
    /// Power-monitor cadence.
    pub monitor_window: TimeDelta,
    /// Simulation engine.
    pub engine: EngineMode,
    /// Per-component trace ring capacity; `None` leaves tracing off (the
    /// zero-cost default).
    pub trace_capacity: Option<usize>,
    /// Record per-supply metrics time series on the monitor cadence.
    pub metrics: bool,
    /// Scheduled fault injections (empty = fault-free; an empty plan
    /// costs one comparison per processed edge and perturbs nothing).
    pub faults: FaultPlan,
    /// Per-core predecoded-instruction cache (architecturally invisible;
    /// on by default, off only as the differential-testing reference).
    pub decode_cache: bool,
}

impl MachineConfig {
    /// One slice at the stock 500 MHz — the smallest real Swallow unit.
    pub fn one_slice() -> Self {
        MachineConfig {
            grid: GridSpec::ONE_SLICE,
            frequency: Frequency::from_mhz(500),
            router: RouterKind::VerticalFirst,
            bridge: false,
            internal_link_pairs: crate::topology::INTERNAL_LINK_PAIRS,
            ffc_fault_rate: 0.0,
            fault_seed: 0,
            monitor_window: DEFAULT_MONITOR_WINDOW,
            engine: EngineMode::default(),
            trace_capacity: None,
            metrics: false,
            faults: FaultPlan::new(),
            decode_cache: true,
        }
    }

    /// A grid of `x × y` slices.
    pub fn grid(x: u16, y: u16) -> Self {
        MachineConfig {
            grid: GridSpec {
                slices_x: x,
                slices_y: y,
            },
            ..Self::one_slice()
        }
    }
}

/// The core/bridge side of the fabric boundary.
struct Endpoints {
    cores: Vec<Core>,
    bridge: Option<EthernetBridge>,
    bridge_node: Option<NodeId>,
    /// Injection gate: a core whose local clock is *past* this instant
    /// keeps its pending output invisible to the fabric. The machine sets
    /// the gate to the step instant before every `Fabric::step`, so a
    /// core that ran ahead under the windowed engine and emitted at a
    /// *later* instant cannot have that token injected early — the
    /// replay visits its emission instant separately, exactly as
    /// lock-step would. Lock-step and fast-forward steps keep every core
    /// at `now`, so the gate never hides anything there.
    tx_gate_ps: u64,
    /// Awake core nodes with pending output, ascending, collected by the
    /// core pass that runs right before every `Fabric::step` (a fabric
    /// step never gives a core new output). `for_each_tx_node` re-checks
    /// each against the gate; the fabric's injection worklist adds the
    /// parked cores whose output it unparks, so it injects from exactly
    /// the nodes a full scan would find — without the scan.
    tx_nodes: Vec<NodeId>,
    /// Cores the per-edge passes visit (DESIGN.md §3.7). A core *parks*
    /// — leaves the set — when the core pass leaves it quiescent with no
    /// pending output, or with every pending chanend parked in the
    /// fabric: until a token arrives or the fabric takes its output it
    /// can only tick idle, has nothing the injection pass could move and
    /// no interesting instant, so skipping it is invisible to every pass.
    /// A parked core's clock lags; it is caught up with
    /// [`Core::run_until`] (bit-identical to the ticks it missed, and
    /// O(1) for an idle core) wherever anything but an idle tick touches
    /// it. It rejoins the set when a touch readies one of its threads,
    /// when the fabric can move its output again, or when
    /// [`Machine::core_mut`] hands it out.
    awake: IndexSet,
}

impl Endpoints {
    /// Catches every parked core up to `until` (they stay parked). A
    /// parked core is quiescent, so each `run_until` charges its idle
    /// edges in closed form.
    fn catch_up(&mut self, until: Time) {
        for (i, core) in self.cores.iter_mut().enumerate() {
            if !self.awake.contains(i) {
                core.run_until(until);
            }
        }
    }

    /// Debug-build invariant, checked at every catch-up point: a parked
    /// core is quiescent, has no pending output or all of it parked in
    /// `fabric`, and has not run past `edge`, the grid instant being
    /// processed.
    fn check_parked(&self, edge: Time, fabric: &Fabric) {
        if cfg!(debug_assertions) {
            for (i, core) in self.cores.iter().enumerate() {
                if !self.awake.contains(i) {
                    let pending = core.tx_pending_count();
                    assert!(
                        core.is_quiescent()
                            && (pending == 0 || fabric.tx_all_parked(NodeId(i as u16), pending))
                            && core.local_now() <= edge,
                        "parked core {i} is not idle at or before {edge:?}"
                    );
                }
            }
        }
    }

    /// Catches parked core `i` up to the gate instant before the fabric
    /// changes its state. The fabric steps at the gate instant, where the
    /// core pass left every awake core, so the core stands there too.
    fn catch_up_at_gate(&mut self, i: usize) {
        if !self.awake.contains(i) {
            let gate = Time::from_ps(self.tx_gate_ps);
            let core = &mut self.cores[i];
            debug_assert!(core.is_quiescent() && core.local_now() <= gate);
            core.run_until(gate);
        }
    }

    /// Wakes core `i` when the fabric's last touch — a delivery that
    /// completed a thread's `in`, a pop that made room for a blocked `out`
    /// — readied one of its threads. A touch that readies none leaves it
    /// parked: it is still quiescent, and output the pop left unparked
    /// keeps its node in the fabric's injection worklist, which
    /// [`Machine::wake_tx_ready`] reads after the step.
    fn wake_if_runnable(&mut self, i: usize) {
        if !self.awake.contains(i) && !self.cores[i].is_quiescent() {
            self.awake.insert(i);
        }
    }

    /// True when `node`'s pending output is visible at the current gate.
    fn tx_visible(&self, node: NodeId) -> bool {
        self.cores
            .get(node.raw() as usize)
            .map(|core| core.local_now().as_ps() <= self.tx_gate_ps)
            .unwrap_or(true)
    }
}

impl CoreEndpoints for Endpoints {
    fn has_tx_pending(&self, node: NodeId) -> bool {
        if Some(node) == self.bridge_node {
            return self
                .bridge
                .as_ref()
                .map(|b| b.ep_tx_front().is_some())
                .unwrap_or(false);
        }
        self.cores
            .get(node.raw() as usize)
            .map(|core| core.has_tx_pending())
            .unwrap_or(false)
            && self.tx_visible(node)
    }

    fn for_each_tx_node(&self, _nodes: usize, visit: &mut dyn FnMut(NodeId)) {
        for &node in &self.tx_nodes {
            if self.has_tx_pending(node) {
                visit(node);
            }
        }
        // The bridge is the highest node id, so it comes last.
        if let Some(bridge) = self.bridge_node {
            if self.has_tx_pending(bridge) {
                visit(bridge);
            }
        }
    }

    fn for_each_tx_pending(&self, node: NodeId, visit: &mut dyn FnMut(u8)) {
        if Some(node) == self.bridge_node {
            if self
                .bridge
                .as_ref()
                .map(|b| b.ep_tx_front().is_some())
                .unwrap_or(false)
            {
                visit(0);
            }
            return;
        }
        if !self.tx_visible(node) {
            return;
        }
        if let Some(core) = self.cores.get(node.raw() as usize) {
            core.tx_pending().for_each(visit);
        }
    }

    fn tx_pending_count(&self, node: NodeId) -> usize {
        if Some(node) == self.bridge_node || !self.tx_visible(node) {
            return self.has_tx_pending(node) as usize;
        }
        self.cores
            .get(node.raw() as usize)
            .map_or(0, |core| core.tx_pending_count())
    }

    fn tx_front(&self, node: NodeId, chanend: u8) -> Option<(ResourceId, Token)> {
        if Some(node) == self.bridge_node {
            return self.bridge.as_ref()?.ep_tx_front();
        }
        self.cores.get(node.raw() as usize)?.tx_front(chanend)
    }

    fn tx_pop(&mut self, node: NodeId, chanend: u8) -> Option<(ResourceId, Token)> {
        if Some(node) == self.bridge_node {
            return self.bridge.as_mut()?.ep_tx_pop();
        }
        let i = node.raw() as usize;
        if i >= self.cores.len() {
            return None;
        }
        self.catch_up_at_gate(i);
        let popped = self.cores[i].tx_pop(chanend);
        self.wake_if_runnable(i);
        popped
    }

    fn can_accept(&self, node: NodeId, chanend: u8, n: usize) -> bool {
        if Some(node) == self.bridge_node {
            return true; // host memory backs the bridge
        }
        self.cores
            .get(node.raw() as usize)
            .map(|c| c.can_accept(chanend, n))
            .unwrap_or(false)
    }

    fn take_drained(&mut self, node: NodeId) -> u32 {
        // The bridge accepts everything (host memory backs it), so a
        // delivery to it only ever waits on another flow's packet.
        if Some(node) == self.bridge_node {
            return 0;
        }
        self.cores
            .get_mut(node.raw() as usize)
            .map_or(0, Core::take_drained)
    }

    fn deliver(&mut self, node: NodeId, chanend: u8, token: Token) -> bool {
        if Some(node) == self.bridge_node {
            if let Some(b) = self.bridge.as_mut() {
                b.ep_deliver(token);
                return true;
            }
            return false;
        }
        let i = node.raw() as usize;
        if i >= self.cores.len() {
            return false;
        }
        self.catch_up_at_gate(i);
        let accepted = self.cores[i].deliver(chanend, token).is_ok();
        self.wake_if_runnable(i);
        accepted
    }
}

/// Lazily built state of the windowed engine: the worker pool and the
/// negotiation's lookahead.
struct ParState {
    /// The thread count the pool was built for (to detect engine swaps).
    threads: usize,
    pool: EpochPool,
    /// [`Machine::lookahead`], fixed for the machine's life.
    lookahead: TimeDelta,
    /// Negotiated windows run and watermark rounds summed (observability).
    windows: u64,
    rounds: u64,
}

/// A fully assembled Swallow machine.
///
/// ```
/// use swallow_board::{Machine, MachineConfig};
/// let machine = Machine::new(MachineConfig::one_slice());
/// assert_eq!(machine.core_count(), 16);
/// ```
pub struct Machine {
    /// The configuration the machine was built from, with the live
    /// engine: a snapshot embeds it so [`Machine::restore`] can rebuild
    /// the same deterministic topology before overlaying the mutable
    /// state. It is the only copy of the grid, engine and metrics switch.
    config: MachineConfig,
    eps: Endpoints,
    fabric: Fabric,
    monitor: PowerMonitor,
    now: Time,
    base_period: TimeDelta,
    faulted_cables: usize,
    par: Option<ParState>,
    metrics: MetricsHub,
    /// Link descriptions as built — the basis for recomputing routes
    /// around dead links (ids match the live fabric's).
    descs: Vec<LinkDesc>,
    /// Scheduled-fault cursor and recovery bookkeeping.
    faults: FaultEngine,
    /// Machine-level trace sink (fault, reroute and brownout events).
    tracer: Tracer,
    /// Reusable buffer for links the fabric escalated to dead.
    escalated_scratch: Vec<LinkId>,
}

impl Machine {
    /// Builds and wires a machine.
    pub fn new(config: MachineConfig) -> Self {
        let topo = build_topology(
            config.grid,
            &TopologyOptions {
                bridge: config.bridge,
                internal_link_pairs: config.internal_link_pairs,
                ffc_fault_rate: config.ffc_fault_rate,
                fault_seed: config.fault_seed,
            },
        );
        let router = match config.router {
            RouterKind::VerticalFirst => {
                let descs = topo.builder.link_descs();
                let mut table = TableRouter::vertical_first(&topo.coords, descs);
                // The bridge hangs off one reserved South header, so
                // dimension-order routing cannot discover it from any
                // other column (vertical-first steers South immediately,
                // but the only South link below the last lattice row is
                // in the bridge's own column). Alias its routes through
                // the attach node: every core reaches the bridge exactly
                // as it reaches the attach core, plus the one direct hop.
                if let Some(bridge) = topo.bridge {
                    if let Some(attach) = descs.iter().find(|d| d.to == bridge).map(|d| d.from) {
                        let direct: swallow_noc::Candidates = descs
                            .iter()
                            .filter(|d| d.from == attach && d.to == bridge)
                            .map(|d| d.id)
                            .collect();
                        table.alias_dest_via(bridge, attach, direct);
                    }
                }
                table
            }
            RouterKind::ShortestPaths => {
                TableRouter::shortest_paths(topo.builder.node_count(), topo.builder.link_descs())
            }
        };
        let bridge_node = topo.bridge;
        let descs = topo.builder.link_descs().to_vec();
        let fabric = topo.builder.build(router);
        let cores: Vec<Core> = config
            .grid
            .nodes()
            .map(|node| {
                let mut cc = CoreConfig::swallow(node);
                cc.frequency = config.frequency;
                let mut core = Core::new(cc);
                core.set_decode_cache(config.decode_cache);
                core
            })
            .collect();
        let base_period = config.frequency.period();
        let mut awake = IndexSet::new(cores.len());
        awake.fill();
        let mut machine = Machine {
            eps: Endpoints {
                cores,
                bridge: bridge_node.map(EthernetBridge::new),
                bridge_node,
                tx_gate_ps: u64::MAX,
                tx_nodes: Vec::new(),
                awake,
            },
            fabric,
            monitor: PowerMonitor::new(config.grid, config.monitor_window, &descs),
            now: Time::ZERO,
            base_period,
            faulted_cables: topo.faulted_cables,
            par: None,
            metrics: MetricsHub::new(config.grid, config.metrics),
            descs,
            faults: FaultEngine::new(config.faults.clone()),
            tracer: Tracer::Off,
            escalated_scratch: Vec::new(),
            config,
        };
        if let Some(capacity) = machine.config.trace_capacity {
            machine.set_tracing(capacity);
        }
        machine
    }

    // --- structure ---------------------------------------------------------

    /// Number of processor cores.
    pub fn core_count(&self) -> usize {
        self.eps.cores.len()
    }

    /// The machine's slice layout.
    pub fn spec(&self) -> GridSpec {
        self.config.grid
    }

    /// Inter-slice cables lost to fault injection.
    pub fn faulted_cables(&self) -> usize {
        self.faulted_cables
    }

    /// Access to one core.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a core node.
    pub fn core(&self, node: NodeId) -> &Core {
        &self.eps.cores[node.raw() as usize]
    }

    /// Mutable access to one core. The core is woken: whatever the
    /// caller changes, the next edge visits it.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a core node.
    pub fn core_mut(&mut self, node: NodeId) -> &mut Core {
        let i = node.raw() as usize;
        let Endpoints { cores, awake, .. } = &mut self.eps;
        let core = &mut cores[i];
        awake.insert(i);
        core
    }

    /// True when `node`'s core is parked: the per-edge passes skip it
    /// until one of its threads can run or the fabric can move its output
    /// (see the module docs). Observability only — between advances a
    /// parked core stands at `now` like any other. False for a node that
    /// is not a core.
    pub fn is_parked(&self, node: NodeId) -> bool {
        let i = node.raw() as usize;
        i < self.core_count() && !self.eps.awake.contains(i)
    }

    /// All core node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        self.config.grid.nodes()
    }

    /// The network fabric (statistics, link inspection).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The power monitor (rails, ADC traces, losses).
    pub fn monitor(&self) -> &PowerMonitor {
        &self.monitor
    }

    /// Mutable power monitor (to fit ADC boards).
    pub fn monitor_mut(&mut self) -> &mut PowerMonitor {
        &mut self.monitor
    }

    /// The Ethernet bridge, when fitted.
    pub fn bridge(&self) -> Option<&EthernetBridge> {
        self.eps.bridge.as_ref()
    }

    /// Mutable bridge access (to send/receive host data).
    pub fn bridge_mut(&mut self) -> Option<&mut EthernetBridge> {
        self.eps.bridge.as_mut()
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    // --- boot ----------------------------------------------------------------

    /// Loads a program onto one core and starts its thread 0.
    ///
    /// # Errors
    ///
    /// [`LoadError`] if the image exceeds the core's SRAM.
    pub fn load_program(&mut self, node: NodeId, program: &Program) -> Result<(), LoadError> {
        self.core_mut(node).load_program(program)
    }

    /// Loads the same program onto every core.
    ///
    /// # Errors
    ///
    /// [`LoadError`] if the image exceeds a core's SRAM.
    pub fn load_program_all(&mut self, program: &Program) -> Result<(), LoadError> {
        self.eps.awake.fill();
        for core in &mut self.eps.cores {
            core.load_program(program)?;
        }
        Ok(())
    }

    /// Changes one core's clock (per-core DFS, §III.B).
    pub fn set_core_frequency(&mut self, node: NodeId, f: Frequency) {
        self.core_mut(node).set_frequency(f);
        self.recompute_base_period();
    }

    /// Re-derives the machine's base clock grid from the fastest core
    /// (after any per-core frequency change, including brownouts).
    fn recompute_base_period(&mut self) {
        self.base_period = self
            .eps
            .cores
            .iter()
            .map(|c| c.frequency().period())
            .min()
            .expect("at least one core");
    }

    // --- execution -------------------------------------------------------------

    /// The active simulation engine.
    pub fn engine(&self) -> EngineMode {
        self.config.engine
    }

    /// Switches the simulation engine. Safe at any instant: both engines
    /// process the same grid instants; the windowed engine merely skips
    /// the empty ones and batches independent spans into windows.
    pub fn set_engine(&mut self, engine: EngineMode) {
        self.config.engine = engine;
    }

    /// Advances the whole machine by one base clock period (the lock-step
    /// primitive; both engines funnel through the same edge processing).
    /// Every core is visited on every step.
    pub fn step(&mut self) {
        // Wake the cores a windowed advance left parked; this edge parks
        // none, so every core runs on every lock-step edge.
        if self.eps.awake.len() < self.core_count() {
            self.wake_all(self.now);
        }
        self.process_edge(self.now + self.base_period, false);
        debug_assert_eq!(self.eps.awake.len(), self.core_count());
    }

    /// Catches the parked cores up to `until` (they stay parked), after
    /// checking the parked-core invariant against the current edge.
    fn catch_up(&mut self, until: Time) {
        self.eps.check_parked(self.now, &self.fabric);
        self.eps.catch_up(until);
    }

    /// Catches the parked cores up to `until` and wakes every core.
    fn wake_all(&mut self, until: Time) {
        self.catch_up(until);
        self.eps.awake.fill();
    }

    /// Moves `now` to the grid instant `at` and processes its clock edge:
    /// applies due faults, runs every awake core up to `at`, parks the
    /// ones it leaves quiescent when `park` is set, advances the bridge
    /// and fabric, and fires the power monitor when due. Every engine
    /// processes every grid instant it visits here, and nowhere else:
    /// lock-step steps, fast-forward jumps, window commits and the
    /// replay inside a window all call it.
    fn process_edge(&mut self, at: Time, park: bool) {
        let prev = self.now;
        self.now = at;
        // Scheduled faults land first, serially, on the grid instant —
        // before any core runs or token moves — so every engine sees an
        // identical fault timeline (see DESIGN.md §3.10). One branch
        // when the plan is empty. A fault may re-clock, stall or kill any
        // core, so every core first stands where lock-step has it: at the
        // previous grid edge, on the clock it ran at up to there. (A jump
        // reaches a fault instant from further back; its awake cores idle
        // up to that edge as one-edge steps would.)
        if self.faults.pending(self.now) {
            let before = self.now - self.base_period;
            debug_assert!(before >= prev);
            let Endpoints { cores, awake, .. } = &mut self.eps;
            for i in awake.iter() {
                cores[i].run_until(before);
            }
            self.wake_all(before);
            self.apply_due_faults();
        }
        let now = self.now;
        let fabric = &self.fabric;
        let Endpoints {
            cores,
            awake,
            tx_nodes,
            ..
        } = &mut self.eps;
        tx_nodes.clear();
        awake.retain_in(cores, |i, core| {
            // Cores may run slower than the base clock; tick on their
            // edges only. `run_until` also stops if the core halts
            // mid-span rather than spinning on a dead core.
            core.run_until(now);
            let node = NodeId(i as u16);
            let pending = core.tx_pending_count();
            // A quiescent core only wakes on a token or on the fabric
            // taking its output: park it until one of them happens when
            // it has no output the injection pass could move.
            let parks = park
                && core.is_quiescent()
                && (pending == 0 || fabric.tx_all_parked(node, pending));
            if pending > 0 && !parks {
                tx_nodes.push(node);
            }
            !parks
        });
        if let Some(bridge) = self.eps.bridge.as_mut() {
            bridge.set_now(self.now);
        }
        // The fabric scan is pure bookkeeping when nothing is in the
        // network, no head is parked and nothing wants to inject; skipping
        // it then is behaviour-preserving in both engines.
        if !self.fabric.is_idle()
            || self.fabric.parked_heads() > 0
            || self.bridge_backlog()
            || !self.eps.tx_nodes.is_empty()
        {
            // Gate injections at the edge instant: a core that ran ahead
            // under the windowed engine and emitted later must not have
            // its token picked up now (see `Endpoints::tx_gate_ps`).
            self.eps.tx_gate_ps = self.now.as_ps();
            self.fabric.step(self.now, &mut self.eps);
            self.wake_tx_ready();
            // A link that exhausted its retry budget during this step is
            // dead: account for it and route around it immediately.
            if self.fabric.has_escalations() {
                self.handle_escalations();
            }
        }
        if self.now >= self.monitor.next_update() {
            // The monitor (and the metrics hub, in the same pass) reads
            // every ledger at `now`.
            self.catch_up(self.now);
            self.monitor.update(
                self.now,
                &mut self.eps.cores,
                &mut self.fabric,
                &mut self.metrics,
            );
        }
    }

    /// Wakes the parked cores whose output the fabric left unparked (see
    /// [`Fabric::tx_ready_nodes`]), caught up to `now`: a head woken
    /// behind the injection cursor, one that could not park again (a
    /// down link, several candidate links), or a chanend a pop left with
    /// tokens the fabric did not take. The next edge must visit them,
    /// since the fabric retries that output there.
    fn wake_tx_ready(&mut self) {
        let Endpoints { cores, awake, .. } = &mut self.eps;
        for node in self.fabric.tx_ready_nodes() {
            let i = node.raw() as usize;
            if i < cores.len() && !awake.contains(i) {
                cores[i].run_until(self.now);
                awake.insert(i);
            }
        }
    }

    /// True when the Ethernet bridge holds frames still to be injected.
    fn bridge_backlog(&self) -> bool {
        self.eps.bridge.as_ref().is_some_and(|b| b.tx_backlog() > 0)
    }

    /// The earliest instant at or after `now` when anything can happen:
    /// a core's next issue slot or wake, a fabric event (an arrival, or the
    /// wake of a head time-parked behind a busy link), pending core or
    /// bridge output (immediate), or the monitor cadence. Always finite —
    /// the monitor bounds it — so fast-forward never overshoots an
    /// accounting boundary.
    ///
    /// A core whose every pending chanend is parked
    /// ([`Fabric::tx_all_parked`]) is not immediate: the fabric skips it
    /// until a wake — a time the fabric's answer covers, or a fabric
    /// event or core activity the other sources here bound — so only its
    /// next issue slot counts. The same holds for the bridge when the
    /// head of its backlog is parked. That lets fast-forward jump over a
    /// wait on a busy link, another flow's route, credit or a full
    /// chanend.
    ///
    /// A core with a ready thread counts from its next issue slot
    /// ([`Core::next_issue_at`]), not its next tick: on the edges before,
    /// no core issues, so nothing changes but the clocks and the idle
    /// energy, which the jump charges edge by edge (see
    /// [`Self::ff_advance`]).
    fn next_activity_at(&self) -> Time {
        let immediate = self.now + self.base_period;
        let mut earliest = self.monitor.next_update();
        // Scheduled faults (and the end of an active brownout) are
        // activity: fast-forward must land on their grid instants.
        if let Some(at) = self.faults.next_at() {
            if at <= immediate {
                return immediate;
            }
            earliest = earliest.min(at);
        }
        // The fabric before the cores: its query reads the heads of its
        // arrival and wake calendars, so a token due now skips the
        // O(cores) scan below.
        if let Some(at) = self.fabric.next_event_at(self.now) {
            if at <= immediate {
                return immediate;
            }
            earliest = earliest.min(at);
        }
        for i in self.eps.awake.iter() {
            let core = &self.eps.cores[i];
            let pending = core.tx_pending_count();
            if pending > 0 && !self.fabric.tx_all_parked(NodeId(i as u16), pending) {
                return immediate;
            }
            if let Some(at) = core.next_issue_at() {
                if at <= immediate {
                    return immediate;
                }
                earliest = earliest.min(at);
            }
        }
        if let (Some(bridge), Some(node)) = (self.eps.bridge.as_ref(), self.eps.bridge_node) {
            if bridge.tx_backlog() > 0 && !self.fabric.tx_all_parked(node, 1) {
                let at = bridge.next_tx_at();
                if at <= immediate {
                    return immediate;
                }
                earliest = earliest.min(at);
            }
        }
        earliest
    }

    /// First base-clock grid instant at or after `target` (and strictly
    /// after `now`). Keeping every processed instant on the grid is what
    /// makes fast-forward results identical to lock-step.
    fn grid_align(&self, target: Time) -> Time {
        if target <= self.now + self.base_period {
            return self.now + self.base_period;
        }
        let span = target.since(self.now).as_ps();
        let base = self.base_period.as_ps();
        self.now + TimeDelta::from_ps(span.div_ceil(base) * base)
    }

    /// Fast-forward by one event: jump to the next grid instant where
    /// anything can happen (capped at `deadline`). This is the serial
    /// step the windowed engine takes when a window cannot open.
    ///
    /// The edges before the target cost what one-edge steps would: the
    /// awake cores' `run_until(target)` ticks each edge a core could act
    /// on and charges the runs before a wake in closed form (the same
    /// additions), parked cores catch up the same way when next touched,
    /// and the fabric has nothing to do before the target.
    fn ff_advance(&mut self, deadline: Time) {
        let target = self.grid_align(self.next_activity_at().min(deadline));
        self.process_edge(target, true);
    }

    // --- windowed engine -----------------------------------------------------

    /// Builds (or rebuilds, after a thread-count change) the worker pool.
    fn ensure_par(&mut self, threads: usize) {
        let rebuild = match &self.par {
            Some(st) => st.threads != threads,
            None => true,
        };
        if !rebuild {
            return;
        }
        // Slice-major shards keep talking cores together and split a
        // per-slice placement evenly; the lookahead does not depend on
        // the plan, and token times never change, so it is read once.
        let plan = ShardPlan::affinity(self.config.grid, threads);
        self.par = Some(ParState {
            threads,
            pool: EpochPool::new(&plan),
            lookahead: self.lookahead(),
            windows: 0,
            rounds: 0,
        });
    }

    /// The windowed engine's lookahead: the smallest token time over the
    /// fabric's links, up or down. Every hop costs at least its link's
    /// token time (`3·Ts + Tt` link-clock cycles, §V.C), so no token
    /// lands on another core sooner than this after it is sent, whatever
    /// route it takes. Token times never change and a link going down
    /// only lengthens paths, so the bound holds across every fault and
    /// reroute. Unbounded on a machine without links.
    pub fn lookahead(&self) -> TimeDelta {
        self.fabric
            .link_stats()
            .map(|l| l.token_time)
            .min()
            .unwrap_or(TimeDelta::from_ps(u64::MAX))
    }

    /// Negotiation observability: `(windows, rounds)` — pairwise windows
    /// run and watermark rounds summed over shards. Zero under lock-step.
    pub fn negotiation_stats(&self) -> (u64, u64) {
        self.par
            .as_ref()
            .map(|st| (st.windows, st.rounds))
            .unwrap_or((0, 0))
    }

    /// One windowed advance (DESIGN.md §3.12): pick the next instant that
    /// *must* be processed serially — the power monitor's cadence, the
    /// run deadline, or the edge before a scheduled fault — and let the
    /// shards negotiate their way to it in lock-free watermark rounds
    /// ([`EpochPool::run_negotiated`]). The pool condvar is paid once per
    /// window, which is what makes busy-machine scaling monotone in
    /// threads.
    ///
    /// Falls back to [`Self::ff_advance`] whenever the window could not
    /// pay for a dispatch or the quiet-machine preconditions fail:
    /// pending core output (must inject on the very next grid instant),
    /// tokens in flight or bridge backlog (the fabric only steps
    /// serially), fewer than two runnable cores, or a window shorter
    /// than two grid periods.
    ///
    /// Correctness: within the window shards interact with nothing
    /// (fabric idle on entry, horizons bound cross-shard reachability,
    /// an emission stops the window for everyone within one round), so
    /// each shard's cores run with lock-step-identical results up to the
    /// committed target; an emission is then replayed serially by
    /// [`Self::reconcile`].
    fn windowed_advance(&mut self, deadline: Time) {
        // The O(1) preconditions first: communicating machines have
        // tokens in flight most of the time, and then the core scan below
        // would be wasted work on every fast-forward step.
        if self.bridge_backlog() || !self.fabric.is_idle() || self.fabric.parked_heads() > 0 {
            self.ff_advance(deadline);
            return;
        }
        let immediate = self.now + self.base_period;
        let mut runnable = 0usize;
        let mut any_tx = false;
        for i in self.eps.awake.iter() {
            let core = &self.eps.cores[i];
            if core.has_tx_pending() {
                any_tx = true;
                break;
            }
            if core.ready_threads() > 0 {
                runnable += 1;
            }
        }
        if any_tx || runnable < 2 {
            self.ff_advance(deadline);
            return;
        }
        let mut serial_bound = self.grid_align(self.monitor.next_update().min(deadline));
        if let Some(at) = self.faults.next_at() {
            // Stop the window strictly before the fault's grid instant:
            // faults apply serially, before any core crosses them.
            let edge = self.grid_align(at);
            serial_bound = serial_bound.min(Time::from_ps(
                edge.as_ps().saturating_sub(self.base_period.as_ps()),
            ));
        }
        if serial_bound <= immediate {
            self.ff_advance(deadline);
            return;
        }
        // Parked cores stay parked and behind: they are quiescent, so the
        // shards leave them out of the window (shard module docs, "Live
        // cores"), and a delivery in the replay catches one up.
        let st = self.par.as_mut().expect("parallel state initialised");
        let params = NegotiationParams {
            serial_bound,
            anchor: self.now,
            period: self.base_period,
            lookahead: st.lookahead,
        };
        let outcome = st.pool.run_negotiated(&mut self.eps.cores, &params);
        st.windows += 1;
        st.rounds += outcome.rounds;
        let mut target = outcome.target;
        if outcome.drained && !outcome.emitted {
            // The machine went quiescent *inside* the window: every core
            // is frozen at its last transition edge (halt, or block on
            // external input that nothing will feed — the fabric was idle
            // on entry and nothing emitted). Commit the latest of those
            // edges — the instant the serial engines detect quiescence —
            // rather than the window bound, so `run_until_quiescent`
            // stops at the same `now` as lock-step.
            let last = self
                .eps
                .cores
                .iter()
                .map(|c| c.local_now())
                .max()
                .unwrap_or(self.now);
            target = self.grid_align(last).min(target);
        }
        debug_assert!(target > self.now && target <= serial_bound);
        if outcome.emitted {
            self.reconcile(target);
        }
        // Cores frozen below the commit (externally blocked, or idle the
        // whole window) catch up on this edge's core pass; parked cores,
        // which the window never visited, when next touched.
        self.process_edge(target, true);
    }

    /// Serial replay of the grid instants inside a window where a core
    /// emitted: each one goes through `process_edge`, so it injects and
    /// delivers exactly as lock-step would, on the same instants, while
    /// cores that stayed silent keep their window results untouched (a
    /// core already past an instant has no edge left to run there). `now`
    /// advances at least one base period per injection attempt,
    /// mirroring lock-step's per-instant retry of tokens the fabric
    /// reports busy. No fault or monitor instant lies below the window's
    /// serial bound, so neither fires during the replay; no core parks.
    ///
    /// Time-parked heads do not move the replayed instants: a parked
    /// chanend belongs to a core whose pending output already makes the
    /// next edge due, and no token can reach a switch queue before
    /// `target` — the window ends within one minimum hop latency of the
    /// first emission, and a hop costs at least that.
    fn reconcile(&mut self, target: Time) {
        loop {
            // Earliest instant below `target` at which anything is due:
            // a stopped core's pending output or a fabric event
            // (including loopback returns created by earlier injections).
            let mut pending: Option<Time> = None;
            for core in &self.eps.cores {
                if core.has_tx_pending() {
                    let at = core.local_now();
                    pending = Some(pending.map_or(at, |p| p.min(at)));
                }
            }
            if let Some(at) = self.fabric.next_event_at(self.now) {
                if at < target {
                    pending = Some(pending.map_or(at, |p| p.min(at)));
                }
            }
            let Some(at) = pending else {
                // Nothing due below the horizon: cores interrupted by the
                // replay resume their isolated window run (stopping again
                // on a fresh emission).
                let mut stopped = false;
                for core in &mut self.eps.cores {
                    if core.local_now() < target && !core.has_tx_pending() && core.run_epoch(target)
                    {
                        stopped = true;
                    }
                }
                if !stopped {
                    return;
                }
                continue;
            };
            let t = self.grid_align(at);
            if t >= target {
                // Remaining work lands on the horizon edge itself, which
                // `windowed_advance` processes next.
                return;
            }
            // The injection gate hides output from any core that stopped
            // at a *later* emission instant, so this edge injects exactly
            // the tokens lock-step would inject at `t` — later emissions
            // are visited by their own loop iterations.
            self.process_edge(t, false);
        }
    }

    /// Runs for a fixed span of simulated time.
    pub fn run_for(&mut self, span: TimeDelta) {
        self.advance(self.now + span, false);
    }

    /// Runs until every core is quiescent and the network has drained, or
    /// the budget expires. Returns true when quiescent.
    ///
    /// Quiescence is a scan of per-core counters, idle spans are charged
    /// in closed form, and the fabric reuses its injection buffer.
    pub fn run_until_quiescent(&mut self, budget: TimeDelta) -> bool {
        self.advance(self.now + budget, true);
        self.is_quiescent()
    }

    /// The one advance loop behind [`Machine::run_for`] and
    /// [`Machine::run_until_quiescent`]: runs the active engine until
    /// `deadline`, or until the machine is quiescent when
    /// `until_quiescent` is set.
    fn advance(&mut self, deadline: Time, until_quiescent: bool) {
        if let EngineMode::Windowed { threads } = self.config.engine {
            self.ensure_par(threads);
        }
        while self.now < deadline && !(until_quiescent && self.is_quiescent()) {
            match self.config.engine {
                EngineMode::LockStep => self.step(),
                EngineMode::Windowed { .. } => self.windowed_advance(deadline),
            }
        }
        // A public advance ends with every core at `now`: accessors and
        // snapshots see eager state. Parked cores stay parked, and
        // `core_mut` wakes any core the caller may change.
        self.catch_up(self.now);
    }

    /// True when no core can make progress and no token is in flight.
    /// O(awake cores): every per-core check is a cached counter, and a
    /// parked core is quiescent by construction. A parked core with
    /// output has a parked head, so no head may be parked either.
    pub fn is_quiescent(&self) -> bool {
        self.fabric.is_idle()
            && self.fabric.parked_heads() == 0
            && !self.bridge_backlog()
            && self.eps.awake.iter().all(|i| {
                let core = &self.eps.cores[i];
                core.is_quiescent() && !core.has_tx_pending()
            })
    }

    // --- faults & resilience -------------------------------------------------

    /// Applies every scheduled fault due at or before `now`, in plan
    /// order, then recomputes routes once if any link topology changed.
    /// Events naming an out-of-range link or core are ignored (the plan
    /// may have been written for a larger machine).
    fn apply_due_faults(&mut self) {
        // The end of a brownout is itself a due instant: restore the
        // saved clocks/models before applying anything newly scheduled.
        let mut core_fault = self.faults.derated && self.now >= self.faults.derate_end;
        if core_fault {
            self.restore_brownout();
        }
        let mut reroute = false;
        while let Some(ev) = self.faults.pop_due(self.now) {
            match ev.kind {
                FaultKind::LinkDown(link) => {
                    if self.fabric.set_link_down(link) {
                        self.faults.counters.link_downs += 1;
                        self.tracer.emit(
                            self.now,
                            TraceEvent::LinkFault {
                                link: link.raw(),
                                up: false,
                            },
                        );
                        reroute = true;
                    }
                }
                FaultKind::LinkUp(link) => {
                    if self.fabric.set_link_up(link) {
                        self.faults.counters.link_ups += 1;
                        self.tracer.emit(
                            self.now,
                            TraceEvent::LinkFault {
                                link: link.raw(),
                                up: true,
                            },
                        );
                        // Restored capacity: recompute so routes may use
                        // it again. Cores already quarantined stay dead —
                        // a rejoined island does not resurrect them.
                        reroute = true;
                    }
                }
                FaultKind::LinkCorrupt { link, until } => {
                    self.fabric.set_link_corrupt_until(link, until);
                }
                FaultKind::LinkDrop { link, until } => {
                    self.fabric.set_link_drop_until(link, until);
                }
                FaultKind::CoreStall { core, until } => {
                    core_fault = true;
                    if let Some(c) = self.eps.cores.get_mut(core.raw() as usize) {
                        c.fault_stall_until(until);
                        self.faults.counters.core_stalls += 1;
                        self.tracer.emit(
                            self.now,
                            TraceEvent::CoreFault {
                                core: core.raw(),
                                kind: "stall",
                            },
                        );
                    }
                }
                FaultKind::CoreKill(core) => {
                    core_fault = true;
                    if let Some(c) = self.eps.cores.get_mut(core.raw() as usize) {
                        if !c.is_halted() {
                            c.fault_kill();
                            self.faults.counters.core_kills += 1;
                            self.tracer.emit(
                                self.now,
                                TraceEvent::CoreFault {
                                    core: core.raw(),
                                    kind: "kill",
                                },
                            );
                        }
                    }
                }
                FaultKind::Brownout { milli, until } => {
                    core_fault = true;
                    self.start_brownout(milli, until);
                }
            }
        }
        if reroute {
            self.reroute_and_quarantine();
        }
        if core_fault {
            // A killed, stalled or re-clocked core may accept input
            // differently: deliveries parked on its chanends retry.
            self.fabric.wake_all_parked();
        }
    }

    /// Enters a supply brownout: every core's clock is derated to
    /// `milli`/1000 of its current frequency and its power model moved
    /// to the DVFS voltage for the derated clock (a browned-out supply
    /// forces the lower operating point, §III.B). Clocks and models are
    /// saved and restored bit-exactly at `until`. An overlapping
    /// brownout only extends the window — derating twice would compound.
    fn start_brownout(&mut self, milli: u32, until: Time) {
        if self.faults.derated {
            self.faults.derate_end = self.faults.derate_end.max(until);
            return;
        }
        self.faults.counters.brownouts += 1;
        self.faults.derated = true;
        self.faults.derate_end = until;
        self.faults.nominal.clear();
        self.faults.nominal_power.clear();
        let table = DvfsTable::swallow();
        let mut derated_hz = 0u64;
        for core in &mut self.eps.cores {
            let nominal = core.frequency();
            self.faults.nominal.push(nominal);
            self.faults.nominal_power.push(core.power_model());
            let hz = (nominal.as_hz().saturating_mul(milli as u64) / 1000).max(1);
            let derated = Frequency::from_hz(hz);
            derated_hz = derated.as_hz();
            core.set_frequency(derated);
            core.set_power_model(core.power_model().at_voltage(table.voltage_at(derated)));
        }
        self.recompute_base_period();
        self.tracer.emit(
            self.now,
            TraceEvent::Brownout {
                active: true,
                hz: derated_hz,
            },
        );
    }

    /// Leaves a brownout: restores every core's saved clock and power
    /// model exactly.
    fn restore_brownout(&mut self) {
        for (i, core) in self.eps.cores.iter_mut().enumerate() {
            core.set_frequency(self.faults.nominal[i]);
            core.set_power_model(self.faults.nominal_power[i]);
        }
        self.faults.derated = false;
        self.recompute_base_period();
        let hz = self
            .eps
            .cores
            .first()
            .map(|c| c.frequency().as_hz())
            .unwrap_or(0);
        self.tracer
            .emit(self.now, TraceEvent::Brownout { active: false, hz });
    }

    /// Accounts for links the fabric just escalated to dead (retry
    /// budget exhausted) and routes around them.
    fn handle_escalations(&mut self) {
        let mut escalated = std::mem::take(&mut self.escalated_scratch);
        self.fabric.take_escalated(&mut escalated);
        for link in escalated.drain(..) {
            self.faults.counters.link_downs += 1;
            self.tracer.emit(
                self.now,
                TraceEvent::LinkFault {
                    link: link.raw(),
                    up: false,
                },
            );
        }
        self.escalated_scratch = escalated;
        // Quarantine may kill a parked core: it must have run to `now`.
        self.catch_up(self.now);
        self.reroute_and_quarantine();
        // The new routes woke every parked head.
        self.wake_tx_ready();
    }

    /// Rebuilds the routing table over the surviving links and
    /// quarantines cores the machine's majority can no longer exchange
    /// tokens with. Recovery routing is always a recomputed
    /// shortest-path table, whatever [`RouterKind`] the machine was
    /// built with — the dimension-order router assumes a fully wired
    /// lattice, which no longer holds ("new routing algorithms can
    /// simply be programmed", §V.A).
    fn reroute_and_quarantine(&mut self) {
        let alive = self.route_around_dead_links();
        let dead = (self.descs.len() - alive.len()) as u32;
        let n = self.fabric.node_count();
        self.faults.counters.reroutes += 1;
        self.tracer
            .emit(self.now, TraceEvent::RouteRecompute { dead_links: dead });
        let keep = crate::resilience::largest_mutual_component(n, &alive);
        for (i, core) in self.eps.cores.iter_mut().enumerate() {
            if !keep.get(i).copied().unwrap_or(false) && !core.is_halted() {
                core.fault_kill();
                self.faults.counters.quarantined_cores += 1;
                self.tracer.emit(
                    self.now,
                    TraceEvent::CoreFault {
                        core: i as u16,
                        kind: "quarantine",
                    },
                );
            }
        }
    }

    /// Installs the recovery router — a shortest-path table over the links
    /// still up — and returns those links.
    fn route_around_dead_links(&mut self) -> Vec<LinkDesc> {
        let alive: Vec<LinkDesc> = self
            .descs
            .iter()
            .copied()
            .filter(|d| !self.fabric.link_is_down(d.id))
            .collect();
        let n = self.fabric.node_count();
        self.fabric
            .set_router(TableRouter::shortest_paths(n, &alive));
        alive
    }

    /// Cumulative fault/resilience counters: the board-side events
    /// (downs, kills, brownouts, reroutes, quarantines) merged with the
    /// fabric's live retry/drop/delivery totals.
    pub fn fault_counters(&self) -> FaultCounters {
        let mut c = self.faults.counters;
        c.retransmits = self.fabric.total_retransmits();
        c.dropped_tokens = self.fabric.total_dropped_tokens();
        c.delivered_tokens = self.fabric.delivered_data_tokens();
        c
    }

    /// The machine's links as built (ids match the live fabric) — the
    /// basis for writing targeted fault plans.
    pub fn link_descs(&self) -> &[LinkDesc] {
        &self.descs
    }

    // --- accounting ---------------------------------------------------------------

    /// Total instructions retired machine-wide.
    pub fn total_instret(&self) -> u64 {
        self.eps.cores.iter().map(|c| c.instret()).sum()
    }

    /// The full energy ledger of one node: core-level categories plus the
    /// node's share of link, conversion-loss and support energy.
    pub fn node_ledger(&self, node: NodeId) -> EnergyLedger {
        let mut ledger = *self.core(node).ledger();
        ledger.charge(NodeCategory::Network, self.fabric.energy_from_node(node));
        let slice = self.config.grid.slice_of(node);
        let per_node = 1.0 / crate::topology::CORES_PER_SLICE as f64;
        ledger.charge(
            NodeCategory::Supply,
            self.monitor.loss_energy(slice) * per_node,
        );
        ledger.charge(
            NodeCategory::Other,
            self.monitor.support_energy(slice) * per_node,
        );
        ledger
    }

    /// The machine-wide energy ledger.
    pub fn machine_ledger(&self) -> EnergyLedger {
        self.nodes().map(|n| self.node_ledger(n)).sum()
    }

    // --- observability ------------------------------------------------------

    /// Attaches a trace ring of `capacity` records to every core, the
    /// fabric and the power monitor. Each component owns its sink, so
    /// under the windowed engine a core's tracer travels with it onto its
    /// shard thread and per-component record order stays deterministic —
    /// the rings are merged in fixed component order by
    /// [`Machine::collect_trace`].
    pub fn set_tracing(&mut self, capacity: usize) {
        for core in &mut self.eps.cores {
            core.set_tracer(Tracer::ring_with_capacity(capacity));
        }
        self.fabric.set_tracer(Tracer::ring_with_capacity(capacity));
        self.monitor
            .set_tracer(Tracer::ring_with_capacity(capacity));
        self.tracer = Tracer::ring_with_capacity(capacity);
    }

    /// Merges every component's trace ring into one chronological
    /// [`TraceLog`]: cores in node order, then the fabric, then the power
    /// monitor, then the machine's own fault/resilience ring,
    /// stable-sorted by time — deterministic run to run.
    pub fn collect_trace(&self) -> TraceLog {
        let mut log = TraceLog::new();
        for core in &self.eps.cores {
            if let Some(ring) = core.tracer().ring() {
                log.absorb(ring);
            }
        }
        if let Some(ring) = self.fabric.tracer().ring() {
            log.absorb(ring);
        }
        if let Some(ring) = self.monitor.tracer().ring() {
            log.absorb(ring);
        }
        if let Some(ring) = self.tracer.ring() {
            log.absorb(ring);
        }
        log.finish();
        log
    }

    /// The metrics hub (per-supply energy time series).
    pub fn metrics(&self) -> &MetricsHub {
        &self.metrics
    }

    /// Closes the metrics time series at the current instant: forces a
    /// final (possibly partial-window) power-monitor update so loss and
    /// support energy are integrated up to `now`, then records the
    /// residual rows. After this, the hub's integrated energy equals
    /// [`Machine::machine_ledger`]'s total up to f64 association. Call
    /// once at the end of a run, before exporting.
    pub fn flush_metrics(&mut self) {
        if !self.metrics.is_enabled() {
            return;
        }
        self.monitor.update(
            self.now,
            &mut self.eps.cores,
            &mut self.fabric,
            &mut self.metrics,
        );
    }

    /// Read access to the raw component triple the metrics hub samples
    /// (cores in node order, fabric, monitor) — test hook.
    pub fn parts(&self) -> (&[Core], &Fabric, &PowerMonitor) {
        (&self.eps.cores, &self.fabric, &self.monitor)
    }

    // --- snapshot / restore -------------------------------------------------

    /// Serializes the complete architectural state of the machine into
    /// the versioned `SWLWSNAP` binary format (DESIGN.md §3.13): a
    /// magic-plus-version header followed by checksummed sections —
    /// CONF (the build configuration with the live engine, fault plan
    /// included), MACH (clock, cable count), one CORE per core, FABR
    /// (links, in-flight tokens, sticky flows), BRDG (the Ethernet
    /// bridge, when fitted), PMON, METR and FALT in that order.
    ///
    /// Call between engine advances (any instant `run_for` or
    /// `run_until_quiescent` can stop at). Trace rings and ADC boards
    /// are observational and not serialized; everything architectural —
    /// including mid-flight fault windows and an active brownout — is.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.raw(&SNAPSHOT_MAGIC);
        w.u32(SNAPSHOT_VERSION);
        w.begin_section(*b"CONF");
        write_config(&mut w, &self.config);
        w.end_section();
        w.begin_section(*b"MACH");
        w.time(self.now);
        w.u64(self.faulted_cables as u64);
        w.end_section();
        for core in &self.eps.cores {
            w.begin_section(*b"CORE");
            core.encode_state(&mut w);
            w.end_section();
        }
        w.begin_section(*b"FABR");
        self.fabric.encode_state(&mut w);
        w.end_section();
        w.begin_section(*b"BRDG");
        match &self.eps.bridge {
            Some(bridge) => {
                w.bool(true);
                bridge.encode_state(&mut w);
            }
            None => w.bool(false),
        }
        w.end_section();
        w.begin_section(*b"PMON");
        self.monitor.encode_state(&mut w);
        w.end_section();
        w.begin_section(*b"METR");
        self.metrics.encode_state(&mut w);
        w.end_section();
        w.begin_section(*b"FALT");
        self.faults.encode_state(&mut w);
        w.end_section();
        w.finish()
    }

    /// Rebuilds a machine from a [`Machine::snapshot`] image. The
    /// continuation is bit-identical to the original run under every
    /// engine: the embedded configuration deterministically rebuilds the
    /// topology (assembly cable faults included), the sections overlay
    /// every piece of mutable architectural state, and derived state —
    /// base period, recovery routing, decode caches — is recomputed,
    /// never trusted from the image.
    ///
    /// # Errors
    ///
    /// Strict-reject decoding: any truncation, checksum mismatch,
    /// unknown version or internally inconsistent field yields a
    /// [`CodecError`] (never a panic, never a half-restored machine).
    pub fn restore(bytes: &[u8]) -> Result<Machine, CodecError> {
        let mut r = ByteReader::new(bytes);
        if r.take(SNAPSHOT_MAGIC.len())? != SNAPSHOT_MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(CodecError::BadVersion { found: version });
        }
        let mut conf = r.section(*b"CONF")?;
        let config = read_config(&mut conf)?;
        conf.expect_end()?;
        // Every core has a CORE section of at least its 20-byte frame
        // (tag, length, checksum): refuse an image too short to hold them
        // before building the machine its CONF asks for.
        if r.remaining() / SECTION_FRAME_BYTES < config.grid.core_count() {
            return Err(CodecError::Truncated);
        }
        let mut machine = Machine::new(config);
        let mut mach = r.section(*b"MACH")?;
        machine.now = mach.time()?;
        if mach.u64()? != machine.faulted_cables as u64 {
            return Err(CodecError::Invalid("assembly-fault cable count mismatch"));
        }
        mach.expect_end()?;
        for core in &mut machine.eps.cores {
            let mut sec = r.section(*b"CORE")?;
            core.restore_state(&mut sec)?;
            sec.expect_end()?;
        }
        let mut fabr = r.section(*b"FABR")?;
        machine.fabric.restore_state(&mut fabr)?;
        fabr.expect_end()?;
        let mut brdg = r.section(*b"BRDG")?;
        match (machine.eps.bridge.as_mut(), brdg.bool()?) {
            (Some(bridge), true) => bridge.restore_state(&mut brdg)?,
            (None, false) => {}
            _ => return Err(CodecError::Invalid("bridge presence mismatch")),
        }
        brdg.expect_end()?;
        let mut pmon = r.section(*b"PMON")?;
        machine.monitor.restore_state(&mut pmon)?;
        pmon.expect_end()?;
        let mut metr = r.section(*b"METR")?;
        machine.metrics.restore_state(&mut metr)?;
        metr.expect_end()?;
        let mut falt = r.section(*b"FALT")?;
        machine.faults.restore_state(&mut falt)?;
        falt.expect_end()?;
        r.expect_end()?;
        if machine.faults.derated && machine.faults.nominal.len() != machine.core_count() {
            return Err(CodecError::Invalid("brownout state core count mismatch"));
        }
        // Derived state, recomputed from what was just restored. The
        // grid follows the (possibly derated) core clocks; recovery
        // routing is always a shortest-path table over the surviving
        // links, exactly as `reroute_and_quarantine` left it — the
        // original router kind only persists on machines that never
        // rerouted.
        machine.recompute_base_period();
        if machine.faults.counters.reroutes > 0 {
            machine.route_around_dead_links();
        }
        Ok(machine)
    }
}

/// Bytes a section takes beyond its payload: the 4-byte tag, the 8-byte
/// length and the 8-byte checksum ([`ByteReader::section`]).
const SECTION_FRAME_BYTES: usize = 20;

/// Leading bytes of every snapshot image.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"SWLWSNAP";
/// Format version written (and the only one accepted) by this build.
/// Version 2 extended the BRDG section with the bridge's machine tag,
/// ingress capacity, traffic counters and reassembled frame queue.
/// Version 3 dropped the epoch-mode byte from CONF and MACH and re-tagged
/// the engine as 0 = lock-step, 1 = windowed.
/// Version 4 dropped the fault-counter copy from the end of METR.
/// Version 5 dropped the engine from MACH (CONF carries the live one),
/// the enabled flag from METR (CONF's metrics switch is the only one)
/// and the received-token archive from BRDG.
/// Version 6 stores a core's SRAM sparsely in CORE: only the 256-byte
/// blocks that hold a non-zero byte, each behind its index.
pub const SNAPSHOT_VERSION: u32 = 6;

/// Engine tag plus the windowed engine's thread count (0 for lock-step).
fn write_engine(w: &mut ByteWriter, engine: EngineMode) {
    w.u8(match engine {
        EngineMode::LockStep => 0,
        EngineMode::Windowed { .. } => 1,
    });
    w.u64(engine.threads() as u64);
}

fn read_engine(r: &mut ByteReader<'_>) -> Result<EngineMode, CodecError> {
    let tag = r.u8()?;
    let threads =
        usize::try_from(r.u64()?).map_err(|_| CodecError::Invalid("thread count out of range"))?;
    match (tag, threads) {
        (0, 0) => Ok(EngineMode::LockStep),
        (1, threads) => Ok(EngineMode::Windowed { threads }),
        _ => Err(CodecError::Invalid("unknown engine tag")),
    }
}

fn write_fault_kind(w: &mut ByteWriter, kind: FaultKind) {
    match kind {
        FaultKind::LinkDown(link) => {
            w.u8(0);
            w.u32(link.raw());
        }
        FaultKind::LinkUp(link) => {
            w.u8(1);
            w.u32(link.raw());
        }
        FaultKind::LinkCorrupt { link, until } => {
            w.u8(2);
            w.u32(link.raw());
            w.time(until);
        }
        FaultKind::LinkDrop { link, until } => {
            w.u8(3);
            w.u32(link.raw());
            w.time(until);
        }
        FaultKind::CoreStall { core, until } => {
            w.u8(4);
            w.u16(core.raw());
            w.time(until);
        }
        FaultKind::CoreKill(core) => {
            w.u8(5);
            w.u16(core.raw());
        }
        FaultKind::Brownout { milli, until } => {
            w.u8(6);
            w.u32(milli);
            w.time(until);
        }
    }
}

fn read_fault_kind(r: &mut ByteReader<'_>) -> Result<FaultKind, CodecError> {
    Ok(match r.u8()? {
        0 => FaultKind::LinkDown(LinkId::from_raw(r.u32()?)),
        1 => FaultKind::LinkUp(LinkId::from_raw(r.u32()?)),
        2 => FaultKind::LinkCorrupt {
            link: LinkId::from_raw(r.u32()?),
            until: r.time()?,
        },
        3 => FaultKind::LinkDrop {
            link: LinkId::from_raw(r.u32()?),
            until: r.time()?,
        },
        4 => FaultKind::CoreStall {
            core: NodeId(r.u16()?),
            until: r.time()?,
        },
        5 => FaultKind::CoreKill(NodeId(r.u16()?)),
        6 => {
            let milli = r.u32()?;
            if !(1..=1000).contains(&milli) {
                return Err(CodecError::Invalid("brownout scale out of range"));
            }
            FaultKind::Brownout {
                milli,
                until: r.time()?,
            }
        }
        _ => return Err(CodecError::Invalid("unknown fault-kind tag")),
    })
}

fn write_config(w: &mut ByteWriter, c: &MachineConfig) {
    w.u16(c.grid.slices_x);
    w.u16(c.grid.slices_y);
    w.u64(c.frequency.as_hz());
    w.u8(match c.router {
        RouterKind::VerticalFirst => 0,
        RouterKind::ShortestPaths => 1,
    });
    w.bool(c.bridge);
    w.u32(c.internal_link_pairs as u32);
    w.f64_bits(c.ffc_fault_rate);
    w.u64(c.fault_seed);
    w.delta(c.monitor_window);
    write_engine(w, c.engine);
    match c.trace_capacity {
        None => w.u8(0),
        Some(n) => {
            w.u8(1);
            w.u64(n as u64);
        }
    }
    w.bool(c.metrics);
    w.bool(c.decode_cache);
    w.u64(c.faults.len() as u64);
    for ev in c.faults.events() {
        w.time(ev.at);
        write_fault_kind(w, ev.kind);
    }
}

fn read_config(r: &mut ByteReader<'_>) -> Result<MachineConfig, CodecError> {
    let slices_x = r.u16()?;
    let slices_y = r.u16()?;
    let slice_count = usize::from(slices_x) * usize::from(slices_y);
    if !(1..=crate::topology::MAX_SLICES).contains(&slice_count) {
        return Err(CodecError::Invalid("grid size out of range"));
    }
    let hz = r.u64()?;
    if hz == 0 {
        return Err(CodecError::Invalid("zero base frequency"));
    }
    let router = match r.u8()? {
        0 => RouterKind::VerticalFirst,
        1 => RouterKind::ShortestPaths,
        _ => return Err(CodecError::Invalid("unknown router tag")),
    };
    let bridge = r.bool()?;
    let internal_link_pairs = r.u32()?;
    if !(1..=32).contains(&internal_link_pairs) {
        return Err(CodecError::Invalid("internal link pairs out of range"));
    }
    let ffc_fault_rate = r.f64_bits()?;
    if !ffc_fault_rate.is_finite() || !(0.0..=1.0).contains(&ffc_fault_rate) {
        return Err(CodecError::Invalid("cable fault rate out of range"));
    }
    let fault_seed = r.u64()?;
    let monitor_window = r.delta()?;
    if monitor_window.as_ps() == 0 {
        return Err(CodecError::Invalid("zero monitor window"));
    }
    let engine = read_engine(r)?;
    let trace_capacity = match r.u8()? {
        0 => None,
        1 => {
            let n = r.u64()?;
            if n > 1 << 24 {
                return Err(CodecError::Invalid("trace capacity out of range"));
            }
            Some(n as usize)
        }
        _ => return Err(CodecError::Invalid("unknown trace-capacity tag")),
    };
    let metrics = r.bool()?;
    let decode_cache = r.bool()?;
    let mut faults = FaultPlan::new();
    for _ in 0..r.len_prefixed(13)? {
        let at = r.time()?;
        let kind = read_fault_kind(r)?;
        faults.push(at, kind);
    }
    Ok(MachineConfig {
        grid: GridSpec { slices_x, slices_y },
        frequency: Frequency::from_hz(hz),
        router,
        bridge,
        internal_link_pairs: internal_link_pairs as usize,
        ffc_fault_rate,
        fault_seed,
        monitor_window,
        engine,
        trace_capacity,
        metrics,
        faults,
        decode_cache,
    })
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("cores", &self.core_count())
            .field("slices", &self.config.grid.slice_count())
            .field("now", &self.now)
            .field("links", &self.fabric.link_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swallow_isa::{Assembler, ThreadId};
    use swallow_xcore::{Block, ThreadState, CHANEND_BUF_TOKENS};

    fn asm(src: &str) -> Program {
        Assembler::new().assemble(src).expect("assembles")
    }

    /// Points the chanend in `r0` at chanend 0 of `node`, via `reg`.
    fn dest(reg: &str, node: u16) -> String {
        format!("ldc {reg}, {node}\nshl {reg}, {reg}, 16\nadd {reg}, {reg}, 2\nsetd r0, {reg}\n")
    }

    /// What must agree with lock-step: `now`, instructions, every core's
    /// cycles and output, and the machine's energy bits.
    fn fingerprint(machine: &Machine) -> (Time, u64, Vec<u64>, Vec<String>, u64) {
        let cores = &machine.eps.cores;
        (
            machine.now,
            machine.total_instret(),
            cores.iter().map(Core::cycles).collect(),
            cores.iter().map(|c| c.output().to_owned()).collect(),
            machine.machine_ledger().total().as_joules().to_bits(),
        )
    }

    /// Drives a fresh one-slice machine loaded by `load` with
    /// fast-forward edges until it is quiescent, calling `each` after
    /// every edge, and checks the result against lock-step's.
    fn drive_edges(load: impl Fn(&mut Machine), mut each: impl FnMut(&Machine)) {
        let budget = TimeDelta::from_us(200);
        let mut oracle = Machine::new(MachineConfig {
            engine: EngineMode::LockStep,
            ..MachineConfig::one_slice()
        });
        load(&mut oracle);
        assert!(oracle.run_until_quiescent(budget), "the scenario finishes");
        let mut machine = Machine::new(MachineConfig::one_slice());
        load(&mut machine);
        let deadline = Time::ZERO + budget;
        while machine.now < deadline && !machine.is_quiescent() {
            let target = machine.grid_align(machine.next_activity_at().min(deadline));
            machine.process_edge(target, true);
            each(&machine);
        }
        // Catch the parked cores up, as the end of an advance does.
        machine.run_for(TimeDelta::ZERO);
        assert_eq!(fingerprint(&machine), fingerprint(&oracle));
    }

    /// Tokens waiting in chanend 0's input buffer of `core`.
    fn buffered(core: &Core) -> usize {
        let space = (0..=CHANEND_BUF_TOKENS)
            .take_while(|&n| core.can_accept(0, n))
            .last()
            .expect("chanend 0 is allocated");
        CHANEND_BUF_TOKENS - space
    }

    /// A 32-bit `in` needs four byte tokens. The receiver parks as soon
    /// as it blocks, takes the first three deliveries without waking,
    /// and the fourth — which readies its thread — wakes it on that very
    /// edge.
    #[test]
    fn a_receiver_parks_through_three_byte_tokens_and_wakes_on_the_fourth() {
        const RECEIVER: usize = 5;
        let load = |machine: &mut Machine| {
            let sender = format!(
                "getr r0, chanend\n{}getr r5, timer\nin r6, r5\nldc r7, 50\nadd r6, r6, r7\n\
                 tmwait r5, r6\nldc r2, 0x1234567\nout r0, r2\noutct r0, end\nfreet",
                dest("r1", RECEIVER as u16)
            );
            machine
                .load_program(NodeId(0), &asm(&sender))
                .expect("fits");
            let receiver = "getr r0, chanend\nin r1, r0\nchkct r0, end\nprint r1\nfreet";
            machine
                .load_program(NodeId(RECEIVER as u16), &asm(receiver))
                .expect("fits");
        };
        let mut parked_with = [false; 4];
        let mut woke_on_fourth = false;
        drive_edges(load, |machine| {
            let core = &machine.eps.cores[RECEIVER];
            let waiting = core.thread_state(ThreadId(0))
                == ThreadState::Blocked(Block::RecvTokens {
                    chanend: 0,
                    need: 4,
                });
            let awake = machine.eps.awake.contains(RECEIVER);
            match buffered(core) {
                n @ 0..=3 if waiting => {
                    assert!(!awake, "woken with {n} of 4 tokens at {:?}", machine.now);
                    parked_with[n] = true;
                }
                4 if !woke_on_fourth => {
                    assert!(awake && !waiting, "the fourth token readies the thread");
                    woke_on_fourth = true;
                }
                _ => {}
            }
        });
        assert_eq!(parked_with, [true; 4], "parked with 0, 1, 2 and 3 tokens");
        assert!(woke_on_fourth);
    }

    /// A sender that finished with its packet still queued is
    /// output-parked behind its own busy link. Every later token is a
    /// pop that readies no thread: the sender stays parked through each.
    #[test]
    fn pops_that_ready_no_thread_leave_the_sender_parked() {
        const SENDER: usize = 0;
        let load = |machine: &mut Machine| {
            let sender = format!(
                "getr r0, chanend\n{}ldc r2, 0x1234567\nout r0, r2\nout r0, r2\n\
                 outct r0, end\nfreet",
                dest("r1", 15)
            );
            machine
                .load_program(NodeId(SENDER as u16), &asm(&sender))
                .expect("fits");
            let sink = "getr r0, chanend\nin r1, r0\nin r2, r0\nchkct r0, end\n\
                        add r1, r1, r2\nprint r1\nfreet";
            machine.load_program(NodeId(15), &asm(sink)).expect("fits");
        };
        let launched = |machine: &Machine| -> u64 {
            machine
                .fabric
                .link_stats()
                .filter(|l| l.from == NodeId(SENDER as u16))
                .map(|l| l.data_tokens + l.ctrl_tokens)
                .sum()
        };
        let (mut was_parked, mut sent) = (false, 0);
        let mut parked_pops = 0;
        drive_edges(load, |machine| {
            let now_sent = launched(machine);
            let parked = !machine.eps.awake.contains(SENDER);
            if was_parked && now_sent > sent {
                assert!(
                    parked,
                    "a pop woke the finished sender at {:?}",
                    machine.now
                );
                parked_pops += 1;
            }
            (was_parked, sent) = (parked, now_sent);
        });
        assert!(
            parked_pops >= 3,
            "only {parked_pops} pops from a parked sender"
        );
    }

    /// Sends `words` one-word packets back to back to chanend 0 of `sink`.
    fn flooder(sink: u16, words: u32) -> Program {
        asm(&format!(
            "getr r0, chanend\nldc r1, {sink}\nshl r1, r1, 16\nadd r1, r1, 2\nsetd r0, r1\n\
             ldc r3, {words}\nlp:\nout r0, r3\noutct r0, end\nsub r3, r3, 1\nbt r3, lp\nfreet"
        ))
    }

    /// Reads `words` one-word packets, sleeping 100 timer ticks before each.
    fn slow_sink(words: u32) -> Program {
        asm(&format!(
            "getr r0, chanend\ngetr r5, timer\nldc r3, {words}\n\
             lp:\nin r6, r5\nldc r7, 100\nadd r6, r6, r7\ntmwait r5, r6\n\
             in r1, r0\nchkct r0, end\nsub r3, r3, 1\nbt r3, lp\nfreet"
        ))
    }

    /// Three sources flood one slow sink, so their threads block on full
    /// `out` buffers behind heads the fabric holds parked. Driven one
    /// fast-forward step at a time, the rule must park such sources —
    /// some step has fewer awake cores than cores with pending output —
    /// and after every edge each core whose output the fabric may move
    /// (pending, not all parked) must be awake, or the engine would jump
    /// past an edge where lock-step retries it. A link that escalates to
    /// dead mid-run wakes parked heads the same pass cannot re-park.
    #[test]
    fn output_parked_sources_leave_the_awake_set() {
        const SOURCES: [u16; 3] = [0, 5, 10];
        const WORDS: u32 = 12;
        let build = |faults: FaultPlan| {
            let mut machine = Machine::new(MachineConfig {
                faults,
                ..MachineConfig::one_slice()
            });
            for src in SOURCES {
                machine
                    .load_program(NodeId(src), &flooder(15, WORDS))
                    .expect("fits");
            }
            machine
                .load_program(NodeId(15), &slow_sink(WORDS * SOURCES.len() as u32))
                .expect("fits");
            machine
        };
        // A corruption window on the first source's link escalates it to
        // dead mid-run: the escalating launch and the reroute wake every
        // parked head, including ones no later pass re-parks this edge.
        let mut probe = build(FaultPlan::new());
        probe.run_for(TimeDelta::from_us(1));
        let taken = probe
            .fabric
            .link_stats()
            .find(|l| l.from == NodeId(SOURCES[0]) && l.header_tokens > 0)
            .expect("the first source has opened its route")
            .id;
        let at = Time::ZERO + TimeDelta::from_us(2);
        let mut machine = build(FaultPlan::new().corrupt_window(at, taken, TimeDelta::from_us(5)));
        let deadline = Time::ZERO + TimeDelta::from_us(300);
        let mut fewer_awake = 0;
        while machine.now < deadline && !machine.is_quiescent() {
            let target = machine.grid_align(machine.next_activity_at().min(deadline));
            machine.process_edge(target, true);
            let mut with_output = 0;
            for (i, core) in machine.eps.cores.iter().enumerate() {
                let pending = core.tx_pending_count();
                if pending == 0 {
                    continue;
                }
                with_output += 1;
                assert!(
                    machine.eps.awake.contains(i)
                        || machine.fabric.tx_all_parked(NodeId(i as u16), pending),
                    "core {i} is parked with output the fabric may move at {:?}",
                    machine.now
                );
            }
            if machine.eps.awake.len() < with_output {
                fewer_awake += 1;
            }
        }
        assert!(fewer_awake > 0, "no step parked a core with pending output");
        assert!(
            machine.fault_counters().link_downs > 0,
            "the link escalated"
        );
    }
}
