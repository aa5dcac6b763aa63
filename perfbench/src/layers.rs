//! Exact simulated counters read through public getters: sampled at
//! chunk ends (or after every fleet driver step) and totalled at the end
//! of a run.

use crate::stats::{ratio, Outcome};
use swallow::Machine;

/// Shares and means over chunk-end samples.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChunkSamples {
    samples: u64,
    fabric_busy: u64,
    in_flight: u64,
    window_eligible: u64,
}

impl ChunkSamples {
    /// Samples the machine between two engine advances.
    pub fn sample(&mut self, machine: &Machine) {
        let (cores, fabric, _) = machine.parts();
        let idle = fabric.is_idle();
        let tx_pending = cores.iter().any(|c| c.has_tx_pending());
        let backlog = machine.bridge().map_or(0, |b| b.tx_backlog());
        let ready = cores.iter().filter(|c| c.ready_threads() > 0).count();
        self.samples += 1;
        self.fabric_busy += u64::from(!idle);
        self.in_flight += fabric.tokens_in_network() as u64;
        // The outside estimate of window coverage: the conditions under
        // which the windowed engine can currently run cores in parallel.
        self.window_eligible += u64::from(idle && !tx_pending && backlog == 0 && ready >= 2);
    }

    /// Folds another sampler's counts into this one.
    pub fn merge(&mut self, other: &ChunkSamples) {
        self.samples += other.samples;
        self.fabric_busy += other.fabric_busy;
        self.in_flight += other.in_flight;
        self.window_eligible += other.window_eligible;
    }

    /// Emits the sampled metrics.
    pub fn report(&self, out: &mut Outcome) {
        let n = self.samples as f64;
        out.put("noc.busy_share", ratio(self.fabric_busy as f64, n), "share");
        out.put(
            "noc.in_flight_mean",
            ratio(self.in_flight as f64, n),
            "tokens",
        );
        out.put(
            "board.window_eligible_share",
            ratio(self.window_eligible as f64, n),
            "share",
        );
    }
}

/// End-of-run totals of one machine (or a fleet, summed).
#[derive(Clone, Copy, Debug, Default)]
pub struct RunCounts {
    instret: u64,
    cycles: u64,
    link_tokens: u64,
    monitor_rows: u64,
    windows: u64,
    rounds: u64,
    sim_ms: f64,
    frames_in: u64,
    frames_out: u64,
    bridge_rejected: u64,
    fault_events: u64,
    retransmits: u64,
    conservation_rel: f64,
}

impl RunCounts {
    /// Reads the totals of a machine whose metrics were flushed, with
    /// `conservation_rel` its metered-vs-ledger relative gap.
    pub fn of(machine: &Machine, conservation_rel: f64) -> Self {
        let (cores, fabric, _) = machine.parts();
        let (windows, rounds) = machine.negotiation_stats();
        let bridge = machine.bridge().map(|b| b.stats()).unwrap_or_default();
        let faults = machine.fault_counters();
        RunCounts {
            instret: machine.total_instret(),
            cycles: cores.iter().map(|c| c.cycles()).sum(),
            link_tokens: fabric
                .link_stats()
                .map(|s| s.data_tokens + s.ctrl_tokens + s.header_tokens)
                .sum(),
            monitor_rows: machine.metrics().rows().len() as u64,
            windows,
            rounds,
            sim_ms: machine.now().as_ps() as f64 / 1e9,
            frames_in: bridge.frames_sent,
            frames_out: bridge.frames_received,
            bridge_rejected: bridge.frames_rejected,
            fault_events: faults.link_downs
                + faults.link_ups
                + faults.core_stalls
                + faults.core_kills
                + faults.brownouts,
            retransmits: faults.retransmits,
            conservation_rel,
        }
    }

    /// Adds another machine's totals (fleet-wide sums; the worst
    /// conservation gap).
    pub fn add(&mut self, o: &RunCounts) {
        self.instret += o.instret;
        self.cycles += o.cycles;
        self.link_tokens += o.link_tokens;
        self.monitor_rows += o.monitor_rows;
        self.windows += o.windows;
        self.rounds += o.rounds;
        self.sim_ms += o.sim_ms;
        self.frames_in += o.frames_in;
        self.frames_out += o.frames_out;
        self.bridge_rejected += o.bridge_rejected;
        self.fault_events += o.fault_events;
        self.retransmits += o.retransmits;
        self.conservation_rel = self.conservation_rel.max(o.conservation_rel);
    }

    /// Emits the counter metrics.
    pub fn report(&self, out: &mut Outcome) {
        out.put("xcore.instret", self.instret as f64, "count");
        out.put("xcore.cycles", self.cycles as f64, "count");
        out.put("noc.tokens", self.link_tokens as f64, "count");
        out.put(
            "board.windows_per_sim_ms",
            ratio(self.windows as f64, self.sim_ms),
            "1/ms",
        );
        out.put(
            "board.rounds_per_window",
            ratio(self.rounds as f64, self.windows as f64),
            "count",
        );
        out.put("board.monitor_rows", self.monitor_rows as f64, "count");
        out.put("board.bridge_frames_in", self.frames_in as f64, "count");
        out.put("board.bridge_frames_out", self.frames_out as f64, "count");
        out.put(
            "board.bridge_rejected",
            self.bridge_rejected as f64,
            "count",
        );
        out.put("faults.events_applied", self.fault_events as f64, "count");
        out.put("faults.retransmits", self.retransmits as f64, "count");
        out.put("energy.conservation_rel", self.conservation_rel, "ratio");
    }
}

/// Relative gap between a flushed machine's metered supply energy and
/// its ledger total (the §II conservation check).
pub fn conservation_rel(machine: &Machine) -> f64 {
    let metered = machine.metrics().total_energy().as_joules();
    let ledger = machine.machine_ledger().total().as_joules();
    (metered - ledger).abs() / ledger.abs().max(f64::MIN_POSITIVE)
}

/// Conservation tolerance (f64 association only).
pub const CONSERVATION_RTOL: f64 = 1e-9;
