//! Fleet load sweep: offered load vs goodput, tail latency and energy.
//!
//! Not a single-figure paper artefact — this is the serving-layer view
//! the paper motivates in §I (many cheap machines behind a network
//! front-end, energy transparency end to end). A fleet of independent
//! machines runs the bridge-fronted request/reply service while the
//! open-loop generator sweeps the per-machine arrival rate; each load
//! point reports offered vs goodput (requests/s), p50/p95/p99 latency
//! from the scheduled arrival, and whole-fleet joules per served request
//! (idle burn included — the energy-proportionality story told in
//! serving units).
//!
//! Rows are bit-identical across repeat runs and host thread counts;
//! [`FleetBench::to_json`] renders them as `BENCH_fleet.json` for CI
//! trend tracking, and [`check_conservation`] re-runs the §II gate per
//! machine (supply-integrated energy must reproduce the ledger total).

use crate::json::{self, Value};
use std::fmt;
use swallow::board::conservation_rel;
use swallow::Energy;
use swallow_fleet::{ArrivalKind, FleetError, FleetResult, FleetSpec};

/// Per-machine arrival rates the default sweep visits (requests/s). The
/// top points push the 80 Mbit/s bridge toward saturation: a 2-word
/// request frame occupies ingress for 900 ns, so offered load beyond
/// ~1.1 M frames/s must show up as queueing delay, not extra goodput.
pub const DEFAULT_RATES: [f64; 6] = [25e3, 50e3, 100e3, 200e3, 400e3, 800e3];

/// A shorter sweep for `--quick` runs.
pub const QUICK_RATES: [f64; 3] = [50e3, 200e3, 800e3];

/// One load point.
#[derive(Clone, Copy, Debug)]
pub struct FleetRow {
    /// Offered per-machine arrival rate (requests/s).
    pub rate_rps: f64,
    /// Requests scheduled fleet-wide.
    pub offered: u64,
    /// Requests accepted at ingress.
    pub injected: u64,
    /// Requests rejected by bridge backpressure.
    pub rejected: u64,
    /// Requests served within the horizon.
    pub completed: u64,
    /// Oracle-failing replies (always 0 on a healthy fleet).
    pub wrong: u64,
    /// Served requests per second of simulated time, fleet-wide.
    pub goodput_rps: f64,
    /// Median latency from scheduled arrival, picoseconds.
    pub p50_ps: u64,
    /// 95th-percentile latency, picoseconds.
    pub p95_ps: u64,
    /// 99th-percentile latency, picoseconds.
    pub p99_ps: u64,
    /// Whole-fleet energy per served request, joules.
    pub joules_per_request: f64,
    /// Fleet ledger total over the run, joules.
    pub total_energy_j: f64,
    /// Energy spent with nothing in flight, joules.
    pub idle_energy_j: f64,
}

impl FleetRow {
    fn from_result(rate_rps: f64, r: &FleetResult) -> FleetRow {
        FleetRow {
            rate_rps,
            offered: r.offered,
            injected: r.injected,
            rejected: r.rejected,
            completed: r.completed,
            wrong: r.wrong,
            goodput_rps: r.goodput_rps(),
            p50_ps: r.latency_ps(0.50).unwrap_or(0),
            p95_ps: r.latency_ps(0.95).unwrap_or(0),
            p99_ps: r.latency_ps(0.99).unwrap_or(0),
            joules_per_request: r.joules_per_request(),
            total_energy_j: r.total_energy_j,
            idle_energy_j: r.idle_energy_j,
        }
    }
}

/// The whole sweep.
#[derive(Clone, Debug)]
pub struct FleetBench {
    /// Machines in the fleet.
    pub machines: usize,
    /// Arrival-process label (`poisson` / `bursty:N`).
    pub arrivals: String,
    /// Fleet seed.
    pub seed: u64,
    /// Requests per machine per load point.
    pub requests: u32,
    /// One row per swept rate.
    pub rows: Vec<FleetRow>,
}

/// Stable label for an arrival kind (JSON and tables).
pub fn arrival_label(kind: ArrivalKind) -> String {
    match kind {
        ArrivalKind::Poisson => "poisson".to_owned(),
        ArrivalKind::Bursty { burst } => format!("bursty:{burst}"),
    }
}

impl FleetBench {
    /// Serialises the sweep as the `BENCH_fleet.json` schema: header
    /// fields `experiment`, `machines`, `arrivals`, `seed`, `requests`,
    /// then one row per rate with `rate_rps, offered, injected, rejected,
    /// completed, wrong, goodput_rps, p50_ps, p95_ps, p99_ps,
    /// joules_per_request, total_energy_j, idle_energy_j`. Every field is
    /// an integer or a fixed-precision float of a deterministic simulation
    /// quantity, so the file is bit-identical across repeat runs and host
    /// thread counts.
    pub fn to_json(&self) -> String {
        let header = [
            ("experiment", Value::text("fleet")),
            ("machines", Value::int(self.machines as u64)),
            ("arrivals", Value::text(self.arrivals.as_str())),
            ("seed", Value::int(self.seed)),
            ("requests", Value::int(self.requests.into())),
        ];
        let rows: Vec<_> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    ("rate_rps", Value::fixed(r.rate_rps, 1)),
                    ("offered", Value::int(r.offered)),
                    ("injected", Value::int(r.injected)),
                    ("rejected", Value::int(r.rejected)),
                    ("completed", Value::int(r.completed)),
                    ("wrong", Value::int(r.wrong)),
                    ("goodput_rps", Value::fixed(r.goodput_rps, 3)),
                    ("p50_ps", Value::int(r.p50_ps)),
                    ("p95_ps", Value::int(r.p95_ps)),
                    ("p99_ps", Value::int(r.p99_ps)),
                    ("joules_per_request", Value::sci(r.joules_per_request, 9)),
                    ("total_energy_j", Value::sci(r.total_energy_j, 9)),
                    ("idle_energy_j", Value::sci(r.idle_energy_j, 9)),
                ]
            })
            .collect();
        json::document(&header, &rows)
    }
}

impl fmt::Display for FleetBench {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fleet load sweep: {} machines, {} arrivals, {} requests/machine, seed {}:",
            self.machines, self.arrivals, self.requests, self.seed
        )?;
        writeln!(
            f,
            "  {:>10} {:>8} {:>8} {:>9} {:>12} {:>9} {:>9} {:>9} {:>10}",
            "rate/mc",
            "offered",
            "served",
            "rejected",
            "goodput",
            "p50 us",
            "p95 us",
            "p99 us",
            "uJ/req"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:>10.0} {:>8} {:>8} {:>9} {:>12.0} {:>9.2} {:>9.2} {:>9.2} {:>10.2}",
                r.rate_rps,
                r.offered,
                r.completed,
                r.rejected,
                r.goodput_rps,
                r.p50_ps as f64 / 1e6,
                r.p95_ps as f64 / 1e6,
                r.p99_ps as f64 / 1e6,
                r.joules_per_request * 1e6,
            )?;
        }
        Ok(())
    }
}

/// The per-machine conservation gate: on every machine that ran with the
/// metrics hub, the supply-integrated energy must reproduce the ledger
/// total within f64 association.
///
/// # Errors
///
/// A description of the first violating machine.
pub fn check_conservation(result: &FleetResult) -> Result<(), String> {
    for (m, outcome) in result.machines.iter().enumerate() {
        let Some(metered) = outcome.metered_energy_j else {
            return Err(format!("machine {m} ran without the metrics hub"));
        };
        let ledger = outcome.total_energy_j;
        let rel = conservation_rel(Energy::from_joules(metered), Energy::from_joules(ledger));
        if rel > 1e-9 {
            return Err(format!(
                "machine {m}: metered {metered:.9e} J vs ledger {ledger:.9e} J (rel {rel:.2e})"
            ));
        }
    }
    Ok(())
}

/// Sweeps `rates`, running the whole fleet once per load point, and
/// gates conservation per machine when the spec has metrics on.
///
/// # Errors
///
/// [`FleetError`] from any load point, or the conservation message
/// wrapped in the row label.
pub fn run_sweep(base: &FleetSpec, rates: &[f64]) -> Result<FleetBench, FleetError> {
    let mut rows = Vec::with_capacity(rates.len());
    for &rate_rps in rates {
        let spec = FleetSpec {
            rate_rps,
            ..base.clone()
        };
        let result = swallow_fleet::run(&spec)?;
        if spec.metrics {
            if let Err(msg) = check_conservation(&result) {
                return Err(FleetError::BadParameter(Box::leak(
                    format!("conservation failed at {rate_rps} rps: {msg}").into_boxed_str(),
                )));
            }
        }
        rows.push(FleetRow::from_result(rate_rps, &result));
    }
    Ok(FleetBench {
        machines: base.machines,
        arrivals: arrival_label(base.arrivals),
        seed: base.seed,
        requests: base.requests,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Kind;
    use swallow::TimeDelta;

    fn tiny_spec() -> FleetSpec {
        FleetSpec {
            machines: 2,
            workers: 4,
            requests: 6,
            work: 2,
            drain: TimeDelta::from_us(200),
            metrics: true,
            ..FleetSpec::default()
        }
    }

    #[test]
    fn sweep_rows_are_well_formed_and_gated() {
        let bench = run_sweep(&tiny_spec(), &[100e3, 400e3]).expect("sweeps");
        assert_eq!(bench.rows.len(), 2);
        for r in &bench.rows {
            assert_eq!(r.offered, 12);
            assert_eq!(r.completed, 12);
            assert_eq!(r.wrong, 0);
            assert!(r.goodput_rps > 0.0);
            assert!(r.p50_ps > 0 && r.p50_ps <= r.p95_ps && r.p95_ps <= r.p99_ps);
            assert!(r.joules_per_request > 0.0);
        }
        // Higher offered load finishes sooner => higher goodput here
        // (same request count over a shorter horizon).
        assert!(bench.rows[1].goodput_rps > bench.rows[0].goodput_rps);
        let rendered = bench.to_string();
        assert!(rendered.contains("poisson"));
        assert!(rendered.contains("uJ/req"));
    }

    const HEADER: &[(&str, Kind)] = &[
        ("experiment", Kind::Text),
        ("machines", Kind::Number),
        ("arrivals", Kind::Text),
        ("seed", Kind::Number),
        ("requests", Kind::Number),
    ];
    const ROW: &[(&str, Kind)] = &[
        ("rate_rps", Kind::Number),
        ("offered", Kind::Number),
        ("injected", Kind::Number),
        ("rejected", Kind::Number),
        ("completed", Kind::Number),
        ("wrong", Kind::Number),
        ("goodput_rps", Kind::Number),
        ("p50_ps", Kind::Number),
        ("p95_ps", Kind::Number),
        ("p99_ps", Kind::Number),
        ("joules_per_request", Kind::Number),
        ("total_energy_j", Kind::Number),
        ("idle_energy_j", Kind::Number),
    ];

    #[test]
    fn json_is_deterministic_and_complete() {
        let spec = tiny_spec();
        let a = run_sweep(&spec, &QUICK_RATES[..2]).expect("sweeps");
        let b = run_sweep(&spec, &QUICK_RATES[..2]).expect("sweeps");
        assert_eq!(a.to_json(), b.to_json(), "repeat runs are bit-identical");
        json::assert_shape(&a.to_json(), HEADER, ROW, 2);
    }

    #[test]
    fn committed_bench_file_has_the_schema() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");
        let doc = std::fs::read_to_string(path).expect("committed BENCH_fleet.json");
        json::assert_shape(&doc, HEADER, ROW, DEFAULT_RATES.len());
    }

    #[test]
    fn conservation_gate_spots_missing_metrics() {
        let spec = FleetSpec {
            metrics: false,
            ..tiny_spec()
        };
        let result = swallow_fleet::run(&spec).expect("runs");
        assert!(check_conservation(&result).is_err());
    }
}
