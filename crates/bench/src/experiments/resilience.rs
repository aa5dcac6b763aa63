//! Resilience under seeded random fault load.
//!
//! Not a paper artefact — this characterises the fault-injection
//! subsystem (DESIGN.md §3.10). A six-stage pipeline runs while a
//! [`FaultPlan::random`] schedule of escalating size is replayed over
//! it: transient link hot-unplugs, corruption and drop windows, core
//! stalls and supply brownouts. Reported per fault count:
//!
//! * whether the pipeline still **completed** (drained to the correct
//!   checksum inside the time budget — reroute and retry doing their
//!   job), and the delivered-data-token rate when it did not;
//! * the **recovery work**: retransmits, route recomputations,
//!   quarantined cores;
//! * the **energy cost** of surviving: ledger total and its overhead
//!   over the fault-free baseline (rows that hang burn the whole budget
//!   in static power, which is exactly the energy-transparent answer to
//!   "what did that fault cost?");
//! * the **conservation residual** — with retransmit and drop energy
//!   charged at the links, the metered supply rows must still integrate
//!   back to the ledger to ~1e-9.
//!
//! [`Resilience::to_json`] renders the rows as `BENCH_resilience.json`
//! for CI trend tracking.

use crate::json::{self, Value};
use std::fmt;
use swallow::noc::Direction;
use swallow::{EngineMode, FaultPlan, NodeId, RandomFaults, SystemBuilder, TimeDelta};
use swallow_workloads::pipeline::{self, PipelineSpec};

/// Fault-event counts the default sweep injects.
pub const DEFAULT_EVENT_COUNTS: [u32; 5] = [0, 2, 4, 8, 16];

/// Seed of the default sweep's random plans.
pub const DEFAULT_SEED: u64 = 0xB0A7;

/// The workload every row runs: a six-stage, 24-item pipeline (the same
/// shape the observability runs use), quiescing around 27 µs fault-free.
const PIPE: PipelineSpec = PipelineSpec {
    stages: 6,
    items: 24,
    work_per_item: 3,
};

/// One fault-count measurement.
#[derive(Clone, Copy, Debug)]
pub struct ResilienceRow {
    /// Fault events requested from the random generator.
    pub fault_events: u32,
    /// Events actually scheduled (transient unplugs count down + up).
    pub scheduled: u32,
    /// Seed of the random plan.
    pub seed: u64,
    /// Which engine ran it.
    pub engine: EngineMode,
    /// The pipeline quiesced and printed the correct checksum.
    pub completed: bool,
    /// Data tokens delivered to a destination.
    pub delivered_tokens: u64,
    /// Data tokens lost in drop windows.
    pub dropped_tokens: u64,
    /// Tokens retransmitted after detected corruption.
    pub retransmits: u64,
    /// Links taken down (scheduled plus retry escalations).
    pub link_downs: u64,
    /// Routing-table recomputations.
    pub reroutes: u64,
    /// Cores quarantined as unreachable.
    pub quarantined: u64,
    /// Core stall windows applied.
    pub core_stalls: u64,
    /// Brownout windows applied.
    pub brownouts: u64,
    /// Delivered / (delivered + dropped) data tokens.
    pub delivered_rate: f64,
    /// Machine ledger total for the run.
    pub energy_j: f64,
    /// `energy_j` relative to the fault-free row (0 for the baseline;
    /// hung rows include the budget's worth of static burn).
    pub energy_overhead: f64,
    /// |metered − ledger| / |ledger| after the final metrics flush.
    pub conservation_rel: f64,
}

/// The whole experiment: one row per injected fault count.
#[derive(Clone, Debug)]
pub struct Resilience {
    /// Rows in ascending fault-count order (baseline first).
    pub rows: Vec<ResilienceRow>,
}

impl Resilience {
    /// Serialises the rows as the `BENCH_resilience.json` schema:
    /// header field `experiment`, then one row per fault count with
    /// `fault_events, scheduled, seed, engine, threads, completed,
    /// delivered_tokens, dropped_tokens, retransmits, link_downs,
    /// reroutes, quarantined, core_stalls, brownouts, delivered_rate,
    /// energy_j, energy_overhead, conservation_rel`.
    pub fn to_json(&self) -> String {
        let rows: Vec<_> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    ("fault_events", Value::int(r.fault_events.into())),
                    ("scheduled", Value::int(r.scheduled.into())),
                    ("seed", Value::int(r.seed)),
                    ("engine", Value::text(r.engine.name())),
                    ("threads", Value::int(r.engine.threads() as u64)),
                    ("completed", Value::Bool(r.completed)),
                    ("delivered_tokens", Value::int(r.delivered_tokens)),
                    ("dropped_tokens", Value::int(r.dropped_tokens)),
                    ("retransmits", Value::int(r.retransmits)),
                    ("link_downs", Value::int(r.link_downs)),
                    ("reroutes", Value::int(r.reroutes)),
                    ("quarantined", Value::int(r.quarantined)),
                    ("core_stalls", Value::int(r.core_stalls)),
                    ("brownouts", Value::int(r.brownouts)),
                    ("delivered_rate", Value::fixed(r.delivered_rate, 6)),
                    ("energy_j", Value::sci(r.energy_j, 9)),
                    ("energy_overhead", Value::fixed(r.energy_overhead, 6)),
                    ("conservation_rel", Value::sci(r.conservation_rel, 3)),
                ]
            })
            .collect();
        json::document(&[("experiment", Value::text("resilience"))], &rows)
    }
}

impl fmt::Display for Resilience {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Resilience under random faults (pipeline {}x{} items, seed {:#x}):",
            PIPE.stages, PIPE.items, DEFAULT_SEED
        )?;
        writeln!(
            f,
            "  {:>6} {:>9} {:>10} {:>9} {:>7} {:>8} {:>10} {:>6} {:>6} {:>10} {:>9} {:>9}",
            "faults",
            "completed",
            "delivered",
            "dropped",
            "retry",
            "reroutes",
            "quarantine",
            "stalls",
            "brown",
            "energy µJ",
            "overhead",
            "conserve"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:>6} {:>9} {:>10} {:>9} {:>7} {:>8} {:>10} {:>6} {:>6} {:>10.3} {:>8.1}% {:>9.1e}",
                r.fault_events,
                if r.completed { "yes" } else { "HUNG" },
                r.delivered_tokens,
                r.dropped_tokens,
                r.retransmits,
                r.reroutes,
                r.quarantined,
                r.core_stalls,
                r.brownouts,
                r.energy_j * 1e6,
                r.energy_overhead * 100.0,
                r.conservation_rel,
            )?;
        }
        let survived = self.rows.iter().filter(|r| r.completed).count();
        write!(
            f,
            "  {survived}/{} fault loads completed the pipeline",
            self.rows.len()
        )
    }
}

/// Seeded random plan shaped to the pipeline's active window (~27 µs)
/// and its traffic-carrying links: instants land where there is traffic
/// to disturb, and the link universe is capped to the internal bundles
/// between the pipeline's stage nodes (a uniform draw over the whole
/// 84-link fabric would mostly hit idle links and measure nothing).
fn plan_for(fault_events: u32, seed: u64) -> FaultPlan {
    if fault_events == 0 {
        return FaultPlan::new();
    }
    let probe = SystemBuilder::new().build().expect("builds");
    let stages = PIPE.stages as u16;
    let links = probe
        .machine()
        .link_descs()
        .iter()
        .filter(|d| d.dir == Direction::Internal && d.from.0 < stages && d.to.0 < stages)
        .map(|d| d.id.raw() + 1)
        .max()
        .unwrap_or(probe.machine().link_descs().len() as u32);
    let cores = stages.min(probe.machine().core_count() as u16);
    let cfg = RandomFaults {
        events: fault_events,
        span: TimeDelta::from_us(20),
        window: TimeDelta::from_us(2),
        ..RandomFaults::default()
    };
    FaultPlan::random(seed, &cfg, links, cores)
}

/// Runs the pipeline under one random fault load.
pub fn measure(
    engine: EngineMode,
    fault_events: u32,
    seed: u64,
    budget: TimeDelta,
) -> ResilienceRow {
    let plan = plan_for(fault_events, seed);
    let scheduled = plan.len() as u32;
    let mut system = SystemBuilder::new()
        .engine(engine)
        .faults(plan)
        .metrics()
        .build()
        .expect("builds");
    pipeline::generate(&PIPE, system.machine().spec())
        .expect("generates")
        .apply(&mut system)
        .expect("loads");
    let quiescent = system.run_until_quiescent(budget);
    system.flush_metrics();
    let report = system.run_report();

    let sink = NodeId((PIPE.stages - 1) as u16);
    let completed =
        quiescent && system.output(sink).trim() == pipeline::checksum(&PIPE).to_string();
    let faults = report.faults;
    ResilienceRow {
        fault_events,
        scheduled,
        seed,
        engine,
        completed,
        delivered_tokens: faults.delivered_tokens,
        dropped_tokens: faults.dropped_tokens,
        retransmits: faults.retransmits,
        link_downs: faults.link_downs,
        reroutes: faults.reroutes,
        quarantined: faults.quarantined_cores,
        core_stalls: faults.core_stalls,
        brownouts: faults.brownouts,
        delivered_rate: faults.delivered_rate(),
        energy_j: report.ledger.total().as_joules(),
        energy_overhead: 0.0, // filled in against the baseline below
        conservation_rel: report.conservation_rel(),
    }
}

/// Sweeps the fault counts under one engine, computing each row's energy
/// overhead against the sweep's zero-fault baseline (when present).
pub fn run_with(
    engine: EngineMode,
    event_counts: &[u32],
    seed: u64,
    budget: TimeDelta,
) -> Resilience {
    let mut rows: Vec<ResilienceRow> = event_counts
        .iter()
        .map(|&events| measure(engine, events, seed, budget))
        .collect();
    if let Some(base) = rows
        .iter()
        .find(|r| r.fault_events == 0)
        .map(|r| r.energy_j)
        .filter(|&e| e > 0.0)
    {
        for r in &mut rows {
            r.energy_overhead = r.energy_j / base - 1.0;
        }
    }
    Resilience { rows }
}

/// The default sweep: the default engine over [`DEFAULT_EVENT_COUNTS`]
/// (quick mode trims the tail), budgeting 300 µs per run so hung rows
/// terminate promptly.
pub fn run(quick: bool) -> Resilience {
    let counts: &[u32] = if quick {
        &DEFAULT_EVENT_COUNTS[..3]
    } else {
        &DEFAULT_EVENT_COUNTS
    };
    run_with(
        EngineMode::default(),
        counts,
        DEFAULT_SEED,
        TimeDelta::from_us(300),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Kind;

    #[test]
    fn baseline_and_faulted_rows_are_well_formed() {
        let r = run_with(
            EngineMode::default(),
            &[0, 4],
            DEFAULT_SEED,
            TimeDelta::from_us(120),
        );
        assert_eq!(r.rows.len(), 2);
        let base = &r.rows[0];
        assert!(base.completed, "fault-free pipeline must complete");
        assert_eq!(base.scheduled, 0);
        assert_eq!(base.energy_overhead, 0.0);
        assert_eq!(base.delivered_rate, 1.0);
        assert!(base.energy_j > 0.0);
        let faulted = &r.rows[1];
        assert!(faulted.scheduled >= 4);
        assert!(
            !faulted.delivered_rate.is_nan() && faulted.delivered_rate <= 1.0,
            "{faulted:?}"
        );
        for row in &r.rows {
            assert!(row.conservation_rel <= 1e-9, "conservation broke: {row:?}");
        }
        let rendered = r.to_string();
        assert!(rendered.contains("Resilience under random faults"));
        assert!(rendered.contains("completed the pipeline"));
    }

    const ROW: &[(&str, Kind)] = &[
        ("fault_events", Kind::Number),
        ("scheduled", Kind::Number),
        ("seed", Kind::Number),
        ("engine", Kind::Text),
        ("threads", Kind::Number),
        ("completed", Kind::Bool),
        ("delivered_tokens", Kind::Number),
        ("dropped_tokens", Kind::Number),
        ("retransmits", Kind::Number),
        ("link_downs", Kind::Number),
        ("reroutes", Kind::Number),
        ("quarantined", Kind::Number),
        ("core_stalls", Kind::Number),
        ("brownouts", Kind::Number),
        ("delivered_rate", Kind::Number),
        ("energy_j", Kind::Number),
        ("energy_overhead", Kind::Number),
        ("conservation_rel", Kind::Number),
    ];

    #[test]
    fn json_has_every_row_and_field() {
        let r = run_with(
            EngineMode::default(),
            &[0, 2],
            DEFAULT_SEED,
            TimeDelta::from_us(120),
        );
        let header = &[("experiment", Kind::Text)];
        json::assert_shape(&r.to_json(), header, ROW, r.rows.len());
    }

    #[test]
    fn committed_bench_file_has_the_schema() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_resilience.json");
        let doc = std::fs::read_to_string(path).expect("committed BENCH_resilience.json");
        let header = &[("experiment", Kind::Text)];
        json::assert_shape(&doc, header, ROW, DEFAULT_EVENT_COUNTS.len());
    }
}
