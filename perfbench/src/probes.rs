//! Outside-in per-layer probes.
//!
//! Each probe restores a copy of a snapshot taken during the traced run
//! and times calls into one layer's public functions, edge by edge over
//! the same fixed number of base-clock edges:
//!
//! * `Core::run_until` over every core — the core share of an edge
//!   (`xcore.core_us_per_edge`, `xcore.ns_per_instr`);
//! * the rest of `Machine::step`: fabric step, bridge, monitor and dense
//!   hint (`board.edge_other_us`);
//! * the activity scan the event-driven engines run between edges
//!   (`next_interesting_at` / `has_tx_pending` per core plus
//!   `Fabric::next_event_at`; `board.scan_us_per_edge`);
//! * their sum, one edge as the event-driven engines process it
//!   (`board.edge_us`);
//! * `MetricsHub::sample` over `Machine::parts` (`board.sample_us`);
//! * `SwallowSystem::run_for` with tracing on against off
//!   (`sim.trace_slowdown`).
//!
//! The micro probes run a standalone core and a one-slice machine, so
//! every in-situ number has an isolated counterpart.

use crate::stats::{ratio, timed, Spans};
use std::hint::black_box;
use swallow::board::MetricsHub;
use swallow::xcore::{Core, CoreConfig};
use swallow::{Machine, NodeId, SwallowSystem, SystemBuilder, Time, TimeDelta};
use swallow_sim::DEFAULT_TRACE_CAPACITY;

/// Probe results summed over every snapshot instant.
#[derive(Debug, Default)]
pub struct ProbeTotals {
    /// Probed edges.
    pub edges: u64,
    /// Host seconds in `Core::run_until` over every core.
    pub core_s: f64,
    /// Instructions retired during the edge probe.
    pub core_instret: u64,
    /// Host seconds in the rest of `Machine::step`.
    pub rest_s: f64,
    /// Host seconds in the activity scan.
    pub scan_s: f64,
    /// Host seconds in `MetricsHub::sample` (once per edge).
    pub sample_s: f64,
    /// `run_for` host seconds with tracing off.
    pub trace_off_s: f64,
    /// `run_for` host seconds with tracing on.
    pub trace_on_s: f64,
    /// Host seconds of each `SwallowSystem::restore`.
    pub restore_s: Vec<f64>,
}

impl ProbeTotals {
    /// Mean host µs per probed edge of `secs`.
    pub fn us_per_edge(&self, secs: f64) -> f64 {
        ratio(secs * 1e6, self.edges as f64)
    }
}

/// The machine's base clock period: the fastest core's period, exactly
/// as the machine derives it.
fn base_period(machine: &Machine) -> TimeDelta {
    machine
        .nodes()
        .map(|n| machine.core(n).frequency().period())
        .min()
        .expect("a machine has cores")
}

fn restore(bytes: &[u8], totals: &mut ProbeTotals) -> SwallowSystem {
    let (system, secs) = timed(|| SwallowSystem::restore(bytes).expect("own snapshot restores"));
    totals.restore_s.push(secs);
    system
}

/// The per-edge activity scan of the event-driven engines, from the
/// outside: which cores want the fabric, when the next core and fabric
/// events are due.
fn activity_scan(machine: &Machine) -> (usize, Option<Time>) {
    let (cores, fabric, _) = machine.parts();
    let mut tx = 0;
    let mut earliest: Option<Time> = None;
    for core in cores {
        tx += usize::from(core.has_tx_pending());
        if let Some(at) = core.next_interesting_at() {
            earliest = Some(earliest.map_or(at, |e| e.min(at)));
        }
    }
    if let Some(at) = fabric.next_event_at(machine.now()) {
        earliest = Some(earliest.map_or(at, |e| e.min(at)));
    }
    (tx, earliest)
}

/// Probe sizes: base-clock edges per snapshot, and the simulated span of
/// the tracing on/off comparison.
#[derive(Clone, Copy, Debug)]
pub struct ProbeSize {
    /// Edges the edge probe covers.
    pub edges: u64,
    /// Span each `run_for` of the tracing comparison covers.
    pub trace_span: TimeDelta,
}

/// Runs every probe on copies of one snapshot, adding into `totals`.
pub fn probe_snapshot(bytes: &[u8], size: ProbeSize, totals: &mut ProbeTotals) {
    // Edge by edge on one copy: run every core to the next edge, then
    // `Machine::step` does the rest of the edge (its own `run_until`
    // calls find every core already there), then the scan and a metrics
    // sample, both pure reads. The parts add up to the edge by
    // construction.
    let mut system = restore(bytes, totals);
    let mut hub = MetricsHub::new(system.machine().spec(), true);
    let period = base_period(system.machine());
    let nodes: Vec<NodeId> = system.nodes().collect();
    let instret0 = system.machine().total_instret();
    for _ in 0..size.edges {
        let until = system.now() + period;
        let machine = system.machine_mut();
        let ((), core_s) = timed(|| {
            for &node in &nodes {
                machine.core_mut(node).run_until(until);
            }
        });
        let ((), rest_s) = timed(|| machine.step());
        let (scan, scan_s) = timed(|| activity_scan(machine));
        black_box(scan);
        let (cores, fabric, monitor) = machine.parts();
        let ((), sample_s) = timed(|| hub.sample(machine.now(), cores, fabric, monitor));
        totals.core_s += core_s;
        totals.rest_s += rest_s;
        totals.scan_s += scan_s;
        totals.sample_s += sample_s;
    }
    black_box(hub.rows().len());
    totals.core_instret += system.machine().total_instret() - instret0;
    totals.edges += size.edges;

    // Tracing off against on, over the same span with the run's engine.
    let mut system = restore(bytes, totals);
    totals.trace_off_s += timed(|| system.run_for(size.trace_span)).1;
    let mut system = restore(bytes, totals);
    system.machine_mut().set_tracing(DEFAULT_TRACE_CAPACITY);
    totals.trace_on_s += timed(|| system.run_for(size.trace_span)).1;
}

/// Emits the probe metrics from `totals`.
pub fn report(totals: &ProbeTotals, out: &mut crate::stats::Outcome) {
    let core = totals.us_per_edge(totals.core_s);
    let rest = totals.us_per_edge(totals.rest_s);
    let scan = totals.us_per_edge(totals.scan_s);
    // One event-driven edge is the scan that finds it plus the step that
    // processes it.
    out.put("board.edge_us", core + rest + scan, "us");
    out.put("xcore.core_us_per_edge", core, "us");
    out.put(
        "xcore.ns_per_instr",
        ratio(totals.core_s * 1e9, totals.core_instret as f64),
        "ns",
    );
    out.put("board.scan_us_per_edge", scan, "us");
    out.put("board.edge_other_us", rest, "us");
    out.put("board.sample_us", totals.us_per_edge(totals.sample_s), "us");
    out.put(
        "sim.trace_slowdown",
        ratio(totals.trace_on_s, totals.trace_off_s),
        "ratio",
    );
}

/// Instructions per micro-probe core run (≈ 10 ms of host time).
const MICRO_CORE_CYCLES: u64 = 400_000;

/// Simulated span of the windowed micro probe.
const MICRO_WINDOW_SPAN: TimeDelta = TimeDelta::from_us(200);

/// The micro counterparts of the in-situ numbers, timed as one top-level
/// span each.
pub fn micro(spans: &mut Spans, out: &mut crate::stats::Outcome) {
    let program = swallow_bench::experiments::heavy_mix_program(4);

    // A standalone core on the heavy mix through `Core::tick`.
    let ns_per_instr = spans.top("bench.micro_core", || {
        let mut core = Core::new(CoreConfig::swallow(NodeId(0)));
        core.load_program(&program).expect("heavy mix fits");
        let ((), secs) = timed(|| {
            for _ in 0..MICRO_CORE_CYCLES {
                core.tick(core.next_tick_at());
            }
        });
        ratio(secs * 1e9, black_box(core.instret()) as f64)
    });
    out.put("xcore.micro_ns_per_instr", ns_per_instr, "ns");

    // A one-slice machine spinning the heavy mix on every core at
    // `parallel(2)`: host time per negotiated window.
    let us_per_window = spans.top("bench.micro_window", || {
        let mut system = SystemBuilder::new()
            .parallel(2)
            .build()
            .expect("one slice builds");
        system.load_program_all(&program).expect("heavy mix fits");
        let ((), secs) = timed(|| system.run_for(MICRO_WINDOW_SPAN));
        let (windows, _) = system.machine().negotiation_stats();
        ratio(secs * 1e6, windows as f64)
    });
    out.put("board.micro_window_us", us_per_window, "us");
}
