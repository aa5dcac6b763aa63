//! The system facade: building and driving a Swallow machine.

use crate::report::RunReport;
use std::fmt;
use swallow_board::{Machine, MachineConfig, RouterKind};
use swallow_isa::{NodeId, Program};
use swallow_sim::{Frequency, Time, TimeDelta, TraceLog, DEFAULT_TRACE_CAPACITY};
use swallow_xcore::LoadError;

/// Error from [`SystemBuilder::build`].
#[derive(Clone, Debug, PartialEq)]
pub enum BuildError {
    /// A grid dimension was zero.
    EmptyGrid,
    /// Fault rate outside `[0, 1]`.
    BadFaultRate(f64),
    /// More slices than [`MAX_SLICES`](swallow_board::MAX_SLICES): some
    /// cores would share a node id.
    TooManySlices(usize),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::EmptyGrid => write!(f, "grid must have at least one slice"),
            BuildError::BadFaultRate(r) => write!(f, "fault rate {r} outside [0, 1]"),
            BuildError::TooManySlices(n) => write!(
                f,
                "{n} slices is more than the {} a machine may have",
                swallow_board::MAX_SLICES
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// Builds a [`SwallowSystem`].
///
/// ```
/// use swallow::SystemBuilder;
/// # fn main() -> Result<(), swallow::BuildError> {
/// let system = SystemBuilder::new()
///     .slices(2, 1)
///     .frequency_mhz(400)
///     .build()?;
/// assert_eq!(system.core_count(), 32);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct SystemBuilder {
    config: MachineConfig,
}

impl SystemBuilder {
    /// A single 16-core slice at the stock 500 MHz.
    pub fn new() -> Self {
        SystemBuilder {
            config: MachineConfig::one_slice(),
        }
    }

    /// Machine size in slices (x × y).
    pub fn slices(mut self, x: u16, y: u16) -> Self {
        self.config.grid = swallow_board::GridSpec {
            slices_x: x,
            slices_y: y,
        };
        self
    }

    /// Core clock for every core.
    pub fn frequency(mut self, f: Frequency) -> Self {
        self.config.frequency = f;
        self
    }

    /// Core clock in megahertz (convenience).
    pub fn frequency_mhz(self, mhz: u64) -> Self {
        self.frequency(Frequency::from_mhz(mhz))
    }

    /// Routing strategy (default: the paper's vertical-first).
    pub fn router(mut self, kind: RouterKind) -> Self {
        self.config.router = kind;
        self
    }

    /// Fit an Ethernet bridge on the south edge (§V.E).
    pub fn bridge(mut self) -> Self {
        self.config.bridge = true;
        self
    }

    /// Inject inter-slice cable faults (connector yield, §IV.B).
    /// Implies nothing about routing: pair with
    /// [`RouterKind::ShortestPaths`] to route around faults.
    pub fn ffc_faults(mut self, rate: f64, seed: u64) -> Self {
        self.config.ffc_fault_rate = rate;
        self.config.fault_seed = seed;
        self
    }

    /// Power-monitor cadence (default 1 µs, the ADC all-channel rate).
    pub fn monitor_window(mut self, window: TimeDelta) -> Self {
        self.config.monitor_window = window;
        self
    }

    /// Simulation engine (default: one-thread windows). The lock-step
    /// engine is the cycle-by-cycle reference used by the differential
    /// test suite.
    pub fn engine(mut self, engine: swallow_board::EngineMode) -> Self {
        self.config.engine = engine;
        self
    }

    /// Use the windowed engine with `threads` host worker threads (0 =
    /// one per available host CPU). Shorthand for
    /// [`engine`](Self::engine) with [`EngineMode::Windowed`].
    ///
    /// [`EngineMode::Windowed`]: swallow_board::EngineMode::Windowed
    pub fn parallel(self, threads: usize) -> Self {
        self.engine(swallow_board::EngineMode::Windowed { threads })
    }

    /// Attaches typed trace rings (default capacity) to every core, the
    /// fabric and the power monitor. Off by default — and when off, the
    /// trace hooks compile down to one branch per event with no
    /// allocation, so leaving them in every hot path is free.
    pub fn tracing(self) -> Self {
        self.tracing_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// Like [`tracing`](Self::tracing) with an explicit per-component
    /// ring capacity (records kept per core/fabric/monitor).
    pub fn tracing_capacity(mut self, capacity: usize) -> Self {
        self.config.trace_capacity = Some(capacity);
        self
    }

    /// Records per-supply energy time series on the power-monitor
    /// cadence (the paper's measurement daughter-board view), exported
    /// via [`SwallowSystem::run_report`] and the CSV exporter.
    pub fn metrics(mut self) -> Self {
        self.config.metrics = true;
        self
    }

    /// Schedules deterministic fault injections: link death/recovery,
    /// token corruption/drop windows, core stalls/kills and supply
    /// brownouts, applied at their instants by every engine identically
    /// (DESIGN.md §3.10). Empty plans cost one comparison per edge.
    pub fn faults(mut self, plan: swallow_faults::FaultPlan) -> Self {
        self.config.faults = plan;
        self
    }

    /// Enables or disables the per-core predecoded-instruction cache.
    /// Architecturally invisible either way — identical timelines,
    /// outputs, traces and energy — off is the reference the
    /// differential suites compare the default against.
    pub fn decode_cache(mut self, enabled: bool) -> Self {
        self.config.decode_cache = enabled;
        self
    }

    /// Assembles the machine.
    ///
    /// # Errors
    ///
    /// [`BuildError`] for an empty or oversized grid or an out-of-range
    /// fault rate.
    pub fn build(self) -> Result<SwallowSystem, BuildError> {
        if self.config.grid.slices_x == 0 || self.config.grid.slices_y == 0 {
            return Err(BuildError::EmptyGrid);
        }
        let slices = self.config.grid.slice_count();
        if slices > swallow_board::MAX_SLICES {
            return Err(BuildError::TooManySlices(slices));
        }
        if !(0.0..=1.0).contains(&self.config.ffc_fault_rate) {
            return Err(BuildError::BadFaultRate(self.config.ffc_fault_rate));
        }
        Ok(SwallowSystem {
            machine: Machine::new(self.config),
            started: None,
        })
    }
}

impl Default for SystemBuilder {
    fn default() -> Self {
        SystemBuilder::new()
    }
}

/// A running Swallow machine.
///
/// Thin ergonomics over [`Machine`]: program loading, run control, output
/// collection and the run report. Use
/// [`SwallowSystem::machine`] / [`machine_mut`](SwallowSystem::machine_mut)
/// for full access to cores, fabric statistics and the power monitor.
pub struct SwallowSystem {
    machine: Machine,
    started: Option<Time>,
}

impl SwallowSystem {
    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.machine.core_count()
    }

    /// All core node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        self.machine.nodes()
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.machine.now()
    }

    /// Time spent running since the first `run_*` call.
    pub fn elapsed(&self) -> TimeDelta {
        match self.started {
            Some(t0) => self.machine.now().since(t0),
            None => TimeDelta::ZERO,
        }
    }

    /// Loads a program onto one core.
    ///
    /// # Errors
    ///
    /// [`LoadError`] if the image exceeds the core's 64 KiB SRAM.
    pub fn load_program(&mut self, node: NodeId, program: &Program) -> Result<(), LoadError> {
        self.machine.load_program(node, program)
    }

    /// Loads the same program onto every core.
    ///
    /// # Errors
    ///
    /// [`LoadError`] if the image exceeds a core's SRAM.
    pub fn load_program_all(&mut self, program: &Program) -> Result<(), LoadError> {
        self.machine.load_program_all(program)
    }

    /// Runs for a fixed span of simulated time.
    pub fn run_for(&mut self, span: TimeDelta) {
        self.mark_started();
        self.machine.run_for(span);
    }

    /// Runs until the machine is quiescent or the budget expires; returns
    /// true when quiescent.
    pub fn run_until_quiescent(&mut self, budget: TimeDelta) -> bool {
        self.mark_started();
        self.machine.run_until_quiescent(budget)
    }

    fn mark_started(&mut self) {
        if self.started.is_none() {
            self.started = Some(self.machine.now());
        }
    }

    /// Text a core printed via hostcalls.
    pub fn output(&self, node: NodeId) -> &str {
        self.machine.core(node).output()
    }

    /// The first trap recorded on any core, if one occurred.
    pub fn first_trap(&self) -> Option<(NodeId, swallow_xcore::Trap)> {
        self.machine
            .nodes()
            .find_map(|n| self.machine.core(n).trap().map(|t| (n, t)))
    }

    /// Builds the run report (energy, throughput, per-component
    /// activity, conservation and fault counters) over the elapsed run.
    pub fn run_report(&self) -> RunReport {
        RunReport::collect(&self.machine, self.elapsed())
    }

    /// Merges every component's trace ring into one chronological log
    /// (cores in node order, then fabric, then monitor — deterministic).
    /// Empty unless the system was built with [`SystemBuilder::tracing`].
    pub fn trace_log(&self) -> TraceLog {
        self.machine.collect_trace()
    }

    /// Closes the metrics time series at the current instant (final
    /// partial-window monitor update + residual rows). Call once at the
    /// end of a run, before exporting metrics.
    pub fn flush_metrics(&mut self) {
        self.machine.flush_metrics();
    }

    /// The underlying machine (cores, fabric, power monitor, bridge).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable machine access.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Serializes the complete machine state into the versioned
    /// `SWLWSNAP` binary format (see [`Machine::snapshot`] and DESIGN.md
    /// §3.13). A later [`SwallowSystem::restore`] continues the run
    /// bit-identically under every engine.
    pub fn snapshot(&self) -> Vec<u8> {
        self.machine.snapshot()
    }

    /// Rebuilds a system from a [`SwallowSystem::snapshot`] image. The
    /// restored system's [`elapsed`](SwallowSystem::elapsed) clock
    /// restarts at the first `run_*` call, so warm-start reports cover
    /// only the continued span.
    ///
    /// # Errors
    ///
    /// [`swallow_sim::CodecError`] on truncated, corrupt or
    /// version-mismatched images — strict-reject, never a panic.
    pub fn restore(bytes: &[u8]) -> Result<SwallowSystem, swallow_sim::CodecError> {
        Ok(SwallowSystem {
            machine: Machine::restore(bytes)?,
            started: None,
        })
    }
}

impl fmt::Debug for SwallowSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SwallowSystem")
            .field("cores", &self.core_count())
            .field("now", &self.now())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swallow_isa::Assembler;

    #[test]
    fn grids_beyond_the_node_id_space_are_refused() {
        // Refused before `Machine::new`, so none of these builds a core.
        for (x, y) in [(64, 64), (4096, 1), (u16::MAX, u16::MAX)] {
            let slices = usize::from(x) * usize::from(y);
            assert_eq!(
                SystemBuilder::new().slices(x, y).build().err(),
                Some(BuildError::TooManySlices(slices)),
                "{x}x{y}"
            );
        }
    }

    #[test]
    fn builder_validates() {
        assert_eq!(
            SystemBuilder::new().slices(0, 1).build().err(),
            Some(BuildError::EmptyGrid)
        );
        assert_eq!(
            SystemBuilder::new().ffc_faults(1.5, 0).build().err(),
            Some(BuildError::BadFaultRate(1.5))
        );
        assert!(SystemBuilder::new().build().is_ok());
    }

    #[test]
    fn elapsed_starts_at_first_run() {
        let mut sys = SystemBuilder::new().build().expect("builds");
        assert_eq!(sys.elapsed(), TimeDelta::ZERO);
        sys.run_for(TimeDelta::from_us(1));
        assert!(sys.elapsed() >= TimeDelta::from_us(1));
    }

    #[test]
    fn first_trap_surfaces() {
        let mut sys = SystemBuilder::new().build().expect("builds");
        let bad = Assembler::new()
            .assemble("ldc r0, 2\n ldw r1, r0[0]\n freet")
            .expect("assembles");
        sys.load_program(NodeId(5), &bad).expect("fits");
        sys.run_until_quiescent(TimeDelta::from_us(10));
        let (node, _trap) = sys.first_trap().expect("trapped");
        assert_eq!(node, NodeId(5));
    }
}
