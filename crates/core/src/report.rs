//! The run report.
//!
//! Energy transparency (§I) means a user can always answer "where did the
//! joules go?". [`RunReport`] is the one answer for a run: the Fig. 2-style
//! category breakdown of the machine ledger, the throughput side (the
//! paper's headline "up to 240 GIPS"), per-core and per-link activity, the
//! metered-vs-ledger conservation check, and the fault, bridge and
//! windowed-engine counters.

use std::fmt;
use swallow_board::{conservation_rel, BridgeStats, Machine};
use swallow_energy::{Energy, EnergyLedger, NodeCategory, Power};
use swallow_faults::FaultCounters;
use swallow_isa::{NodeId, ThreadId};
use swallow_noc::LinkStats;
use swallow_sim::TimeDelta;
use swallow_xcore::MAX_THREADS;

/// Utilization and energy of one core over a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoreMetrics {
    /// The core's node id.
    pub node: NodeId,
    /// Instructions retired.
    pub instret: u64,
    /// Core cycles elapsed (at the core's own clock).
    pub cycles: u64,
    /// Issue-slot utilization: retired instructions per elapsed cycle
    /// (the XS1-L issues at most one instruction per cycle).
    pub utilization: f64,
    /// Core-level energy (compute + static + network-interface shares).
    pub energy: Energy,
    /// Instructions retired per hardware thread.
    pub thread_instret: [u64; MAX_THREADS],
}

/// Everything a finished run can say about itself: where its energy went,
/// what it computed, and what its components did.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// The span the report covers.
    pub elapsed: TimeDelta,
    /// One entry per core, in node order.
    pub cores: Vec<CoreMetrics>,
    /// One entry per directed link, in link-id order.
    pub links: Vec<LinkStats>,
    /// Per-category machine-wide energy (Fig. 2 categories).
    pub ledger: EnergyLedger,
    /// Number of per-supply measurement rows recorded by the metrics hub
    /// (zero unless metrics collection was enabled).
    pub supply_rows: usize,
    /// Energy integrated over the recorded supply rows. After a final
    /// flush it matches the ledger total within f64 association when
    /// metrics are enabled (see [`RunReport::conservation_rel`]).
    pub metered_energy: Energy,
    /// Cumulative fault-injection and resilience counters (all zero on
    /// a fault-free run).
    pub faults: FaultCounters,
    /// Ethernet-bridge traffic counters (`None` when no bridge is
    /// fitted): frame flow plus the ingress backpressure evidence —
    /// rejected frames and peak transmit backlog — so a saturated
    /// bridge is visible in the report instead of silently queueing.
    pub bridge: Option<BridgeStats>,
    /// `(windows, rounds)`: negotiated windows run and watermark rounds
    /// summed over shards by the windowed engine (zero under lock-step).
    pub negotiation: (u64, u64),
}

impl RunReport {
    /// Collects the report from a machine.
    pub fn collect(machine: &Machine, elapsed: TimeDelta) -> Self {
        let cores = machine
            .nodes()
            .map(|node| {
                let core = machine.core(node);
                let cycles = core.cycles();
                let mut thread_instret = [0u64; MAX_THREADS];
                for (tid, slot) in thread_instret.iter_mut().enumerate() {
                    *slot = core.thread_instret(ThreadId(tid as u8));
                }
                CoreMetrics {
                    node,
                    instret: core.instret(),
                    cycles,
                    utilization: if cycles == 0 {
                        0.0
                    } else {
                        core.instret() as f64 / cycles as f64
                    },
                    energy: core.ledger().total(),
                    thread_instret,
                }
            })
            .collect();
        RunReport {
            elapsed,
            cores,
            links: machine.fabric().link_stats().collect(),
            ledger: machine.machine_ledger(),
            supply_rows: machine.metrics().rows().len(),
            metered_energy: machine.metrics().total_energy(),
            faults: machine.fault_counters(),
            bridge: machine.bridge().map(|b| b.stats()),
            negotiation: machine.negotiation_stats(),
        }
    }

    /// Instructions retired machine-wide.
    pub fn instret(&self) -> u64 {
        self.cores.iter().map(|c| c.instret).sum()
    }

    /// Machine-wide instructions per second.
    pub fn ips(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.instret() as f64 / secs
        }
    }

    /// Machine-wide throughput in GIPS (the paper's headline unit).
    pub fn gips(&self) -> f64 {
        self.ips() / 1e9
    }

    /// Energy in one category.
    pub fn energy(&self, category: NodeCategory) -> Energy {
        self.ledger.get(category)
    }

    /// Fraction of total energy in one category.
    pub fn fraction(&self, category: NodeCategory) -> f64 {
        self.ledger.fraction(category)
    }

    /// Mean machine power over the span.
    pub fn mean_power(&self) -> Power {
        self.ledger.total().over(self.elapsed)
    }

    /// Mean power per core (the paper's mW/core comparisons).
    pub fn per_core_power(&self) -> Power {
        self.mean_power() / self.cores.len().max(1) as f64
    }

    /// Mean issue-slot utilization across all cores.
    pub fn mean_utilization(&self) -> f64 {
        if self.cores.is_empty() {
            return 0.0;
        }
        self.cores.iter().map(|c| c.utilization).sum::<f64>() / self.cores.len() as f64
    }

    /// Links that carried at least one token.
    pub fn active_links(&self) -> usize {
        self.links
            .iter()
            .filter(|l| l.data_tokens + l.ctrl_tokens + l.header_tokens > 0)
            .count()
    }

    /// `|metered − ledger| / |ledger|`: how far the supply-integrated
    /// energy strays from the ledger total. Meaningful once the metrics
    /// hub is enabled and flushed; 1 when it recorded nothing.
    pub fn conservation_rel(&self) -> f64 {
        conservation_rel(self.metered_energy, self.ledger.total())
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "run report over {}: {} instructions on {} cores = {:.3} GIPS, \
             {:.1}% mean issue utilization",
            self.elapsed,
            self.instret(),
            self.cores.len(),
            self.gips(),
            self.mean_utilization() * 100.0
        )?;
        for (cat, energy) in self.ledger.iter() {
            writeln!(
                f,
                "  {:<26} {:>12}  {:>10}  ({:>5.1}%)",
                cat.label(),
                energy.to_string(),
                energy.over(self.elapsed).to_string(),
                self.fraction(cat) * 100.0,
            )?;
        }
        writeln!(
            f,
            "  {:<26} {:>12}  {:>10}",
            "Total",
            self.ledger.total().to_string(),
            self.mean_power().to_string()
        )?;
        writeln!(f, "  per core: {}", self.per_core_power())?;
        write!(
            f,
            "  {} of {} links active; {} supply rows metering {}",
            self.active_links(),
            self.links.len(),
            self.supply_rows,
            self.metered_energy
        )?;
        let (windows, rounds) = self.negotiation;
        if windows > 0 {
            write!(
                f,
                "\n  windowed engine: {windows} windows, {rounds} watermark rounds"
            )?;
        }
        if let Some(b) = &self.bridge {
            write!(
                f,
                "\n  bridge: {} frames in, {} out, {} rejected \
                 (peak backlog {} tokens)",
                b.frames_sent, b.frames_received, b.frames_rejected, b.peak_backlog
            )?;
        }
        if !self.faults.is_quiet() {
            write!(
                f,
                "\n  faults: {} link downs ({} recovered), {} retransmits, \
                 {} tokens dropped, {} core stalls, {} kills, \
                 {} quarantined, {} brownouts, {} reroutes \
                 ({:.4} delivered-token rate)",
                self.faults.link_downs,
                self.faults.link_ups,
                self.faults.retransmits,
                self.faults.dropped_tokens,
                self.faults.core_stalls,
                self.faults.core_kills,
                self.faults.quarantined_cores,
                self.faults.brownouts,
                self.faults.reroutes,
                self.faults.delivered_rate(),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemBuilder;
    use swallow_isa::Assembler;

    #[test]
    fn reports_cover_a_busy_run() {
        let mut sys = SystemBuilder::new().build().expect("builds");
        let busy = Assembler::new()
            .assemble("loop: add r1, r1, 1\n bu loop")
            .expect("assembles");
        sys.load_program_all(&busy).expect("fits");
        sys.run_for(TimeDelta::from_us(20));

        let report = sys.run_report();
        // 16 cores × 125 MIPS (one thread each) = 2 GIPS.
        assert!(
            (report.gips() - 2.0).abs() < 0.1,
            "gips = {}",
            report.gips()
        );
        assert_eq!(report.instret(), sys.machine().total_instret());

        let total_mw = report.mean_power().as_milliwatts();
        // 16 single-thread cores sit between idle (113) and loaded (193),
        // plus supply losses and support power.
        assert!(
            (2_000.0..4_000.0).contains(&total_mw),
            "machine power = {total_mw} mW"
        );
        assert!(report.per_core_power().as_milliwatts() > 113.0);
        let fractions: f64 = NodeCategory::ALL.iter().map(|&c| report.fraction(c)).sum();
        assert!((fractions - 1.0).abs() < 1e-9);
    }

    #[test]
    fn display_includes_all_categories() {
        let sys = SystemBuilder::new().build().expect("builds");
        let text = sys.run_report().to_string();
        for cat in NodeCategory::ALL {
            assert!(text.contains(cat.label()));
        }
        assert!(text.contains("GIPS"));
        assert!(text.contains("links active"));
    }

    #[test]
    fn empty_run_is_safe() {
        let sys = SystemBuilder::new().build().expect("builds");
        let report = sys.run_report();
        assert_eq!(report.ips(), 0.0);
        assert_eq!(report.mean_power(), Power::ZERO);
        assert_eq!(report.negotiation, (0, 0));
        assert_eq!(report.conservation_rel(), 0.0);
    }
}
