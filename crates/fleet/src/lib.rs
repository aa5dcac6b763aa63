//! A many-machine serving layer for the Swallow platform simulator.
//!
//! The paper pitches Swallow as a building block for scale-out embedded
//! serving: many independent machines behind a network front-end. This
//! crate models that deployment — a *fleet* of `N` complete [`Machine`]
//! grids, each running the bridge-fronted request/reply service from
//! `swallow_workloads::serve`, driven by a deterministic open-loop
//! traffic generator ([`arrivals`]) and measured end to end: per-request
//! latency (from *scheduled* arrival, so queueing delay counts) and
//! attributed energy.
//!
//! Determinism is the design center. Each machine is serially
//! deterministic, its schedule is drawn up front from a seeded RNG, and
//! the per-machine result streams are merged in machine order with
//! `swallow_sim::kway_merge_by` — so spreading machines across host
//! threads ([`FleetSpec::threads`]) changes wall-clock time and nothing
//! else: `BENCH_fleet.json` rows are bit-identical for any thread count.
//!
//! Machines can also be *warm-started*: the loaded-but-unstarted template
//! is snapshotted once (`SWLWSNAP`, DESIGN.md §3.13) and every fleet
//! member revives from those bytes; [`Fingerprint`]s prove the warm fleet
//! takes exactly the cold fleet's trajectory. The same snapshot path
//! supports mid-run handoff ([`Driver`]) and queue rebalancing
//! ([`rebalance`]) when a machine is drained out of the fleet.
//!
//! ```
//! use swallow_fleet::{ArrivalKind, FleetSpec};
//!
//! let mut spec = FleetSpec::default();
//! spec.machines = 2;
//! spec.requests = 4;
//! spec.arrivals = ArrivalKind::Poisson;
//! let result = swallow_fleet::run(&spec).expect("runs");
//! assert_eq!(result.completed, 8);
//! assert_eq!(result.wrong, 0);
//! ```
//!
//! [`Machine`]: swallow::Machine

pub mod arrivals;
pub mod driver;

pub use arrivals::{generate_arrivals, ArrivalKind, Request};
pub use driver::{drive, Completion, DriveOutcome, Driver, Fingerprint};

use std::fmt;
use swallow::xcore::LoadError;
use swallow::{BuildError, EngineMode, GridSpec, SwallowSystem, SystemBuilder, Time, TimeDelta};
use swallow_sim::{kway_merge_by, CodecError, DetRng, LatencySketch};
use swallow_workloads::serve::{self, ServeSpec};
use swallow_workloads::{GenError, Placement};

/// The whole fleet, declaratively.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetSpec {
    /// Independent machines in the fleet.
    pub machines: usize,
    /// Per-machine grid in slices (x × y); 16 cores per slice.
    pub slices: (u16, u16),
    /// Worker cores per machine (the dispatcher adds one).
    pub workers: usize,
    /// Requests scheduled per machine.
    pub requests: u32,
    /// Request budget compiled into each machine's service program;
    /// defaults to `requests`. Provision extra headroom when schedules
    /// will be [`rebalance`]d onto surviving machines.
    pub provision: Option<u32>,
    /// Squaring iterations per request (compute/communication dial).
    pub work: u32,
    /// Arrival-process shape.
    pub arrivals: ArrivalKind,
    /// Mean offered load per machine, requests per second.
    pub rate_rps: f64,
    /// Fleet seed; machine `m` draws from stream `seed ⊕ m`.
    pub seed: u64,
    /// Host threads to spread machines over (clamped to `[1, machines]`).
    /// Affects wall-clock time only — results are thread-count-invariant.
    pub threads: usize,
    /// Bridge ingress cap in tx-queue tokens; arrivals beyond it are
    /// rejected and counted (backpressure) instead of queueing unboundedly.
    pub ingress_capacity: Option<u64>,
    /// How long each machine runs past its last scheduled arrival.
    pub drain: TimeDelta,
    /// Revive every machine from one template `SWLWSNAP` snapshot instead
    /// of building each cold.
    pub warm_start: bool,
    /// Per-machine simulation engine.
    pub engine: EngineMode,
    /// Record per-supply energy series on every machine so the fleet's
    /// conservation gate (metered vs ledger) can run per machine.
    pub metrics: bool,
}

impl Default for FleetSpec {
    /// A small smoke-sized fleet: two one-slice machines, four workers,
    /// four Poisson requests each at 100 krps.
    fn default() -> Self {
        FleetSpec {
            machines: 2,
            slices: (1, 1),
            workers: 4,
            requests: 4,
            provision: None,
            work: 4,
            arrivals: ArrivalKind::Poisson,
            rate_rps: 100_000.0,
            seed: 42,
            threads: 1,
            ingress_capacity: None,
            drain: TimeDelta::from_us(300),
            warm_start: false,
            engine: EngineMode::default(),
            metrics: false,
        }
    }
}

impl FleetSpec {
    /// The per-machine grid.
    pub fn grid(&self) -> GridSpec {
        GridSpec {
            slices_x: self.slices.0,
            slices_y: self.slices.1,
        }
    }

    /// The request budget compiled into each service program.
    pub fn provisioned(&self) -> u32 {
        self.provision.unwrap_or(self.requests)
    }

    /// Draws every machine's arrival schedule. Machine `m` uses its own
    /// RNG stream and the fleet-unique tag range `m·requests ..`.
    pub fn schedules(&self) -> Vec<Vec<Request>> {
        (0..self.machines)
            .map(|m| {
                let stream = self
                    .seed
                    .wrapping_add((m as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                generate_arrivals(
                    self.arrivals,
                    self.rate_rps,
                    self.requests,
                    m as u32 * self.requests,
                    &mut DetRng::seed_from(stream),
                )
            })
            .collect()
    }
}

/// Error from [`run`].
#[derive(Debug)]
pub enum FleetError {
    /// A spec parameter was out of range.
    BadParameter(&'static str),
    /// The per-machine grid failed to build.
    Build(BuildError),
    /// The service program failed to generate.
    Gen(GenError),
    /// A service image did not fit a core's SRAM.
    Load(LoadError),
    /// The warm-start template snapshot failed to restore.
    Snapshot(CodecError),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::BadParameter(what) => write!(f, "bad fleet parameter: {what}"),
            FleetError::Build(e) => write!(f, "machine build failed: {e}"),
            FleetError::Gen(e) => write!(f, "service generation failed: {e}"),
            FleetError::Load(e) => write!(f, "service load failed: {e}"),
            FleetError::Snapshot(e) => write!(f, "warm-start restore failed: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<BuildError> for FleetError {
    fn from(e: BuildError) -> Self {
        FleetError::Build(e)
    }
}

impl From<GenError> for FleetError {
    fn from(e: GenError) -> Self {
        FleetError::Gen(e)
    }
}

impl From<LoadError> for FleetError {
    fn from(e: LoadError) -> Self {
        FleetError::Load(e)
    }
}

impl From<CodecError> for FleetError {
    fn from(e: CodecError) -> Self {
        FleetError::Snapshot(e)
    }
}

/// One row of the merged fleet completion log.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FleetCompletion {
    /// Which machine served the request.
    pub machine: usize,
    /// The served request.
    pub completion: Completion,
}

/// Everything a fleet run produced.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetResult {
    /// Per-machine outcomes, in machine order.
    pub machines: Vec<DriveOutcome>,
    /// All completions merged by `(completed_at, machine)` — the
    /// deterministic fleet-wide request log.
    pub completions: Vec<FleetCompletion>,
    /// Mergeable latency distribution over every completion, in
    /// picoseconds.
    pub sketch: LatencySketch,
    /// Requests scheduled fleet-wide.
    pub offered: u64,
    /// Requests the bridges accepted.
    pub injected: u64,
    /// Requests rejected by ingress backpressure.
    pub rejected: u64,
    /// Requests served within the horizon.
    pub completed: u64,
    /// Oracle-failing or malformed replies.
    pub wrong: u64,
    /// Fleet-wide energy not attributable to any request.
    pub idle_energy_j: f64,
    /// Fleet-wide ledger total.
    pub total_energy_j: f64,
    /// The longest per-machine run span.
    pub span: TimeDelta,
}

impl FleetResult {
    /// Served requests per second of simulated time.
    pub fn goodput_rps(&self) -> f64 {
        let secs = self.span.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.completed as f64 / secs
        }
    }

    /// Whole-fleet energy per served request (the serving-efficiency
    /// figure of merit: idle burn is charged to the requests too).
    pub fn joules_per_request(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.total_energy_j / self.completed as f64
        }
    }

    /// A latency quantile in picoseconds (sketch lower bound, ≤ 1/32
    /// relative error), or `None` with no completions.
    pub fn latency_ps(&self, q: f64) -> Option<u64> {
        self.sketch.quantile(q)
    }
}

fn build_machine(spec: &FleetSpec, placement: &Placement) -> Result<SwallowSystem, FleetError> {
    let mut builder = SystemBuilder::new()
        .slices(spec.slices.0, spec.slices.1)
        .engine(spec.engine)
        .bridge();
    if spec.metrics {
        builder = builder.metrics();
    }
    let mut system = builder.build()?;
    placement.apply(&mut system)?;
    Ok(system)
}

/// Runs the fleet over the spec's own schedules.
///
/// # Errors
///
/// [`FleetError`] on an invalid spec or a failed build/generate/restore.
pub fn run(spec: &FleetSpec) -> Result<FleetResult, FleetError> {
    let schedules = spec.schedules();
    run_with_schedules(spec, &schedules)
}

/// Runs the fleet over explicit per-machine schedules (the entry point
/// for [`rebalance`]d runs). `schedules[m]` must be sorted by arrival.
///
/// # Errors
///
/// [`FleetError`] on an invalid spec or a failed build/generate/restore.
pub fn run_with_schedules(
    spec: &FleetSpec,
    schedules: &[Vec<Request>],
) -> Result<FleetResult, FleetError> {
    if spec.machines == 0 {
        return Err(FleetError::BadParameter("fleet needs at least one machine"));
    }
    if schedules.len() != spec.machines {
        return Err(FleetError::BadParameter("one schedule per machine"));
    }
    if !spec.rate_rps.is_finite() || spec.rate_rps <= 0.0 {
        return Err(FleetError::BadParameter("rate must be positive"));
    }
    let service = ServeSpec {
        workers: spec.workers,
        max_requests: spec.provisioned(),
        work: spec.work,
    };
    let placement = serve::generate(&service, spec.grid())?;
    let template: Option<Vec<u8>> = if spec.warm_start {
        Some(build_machine(spec, &placement)?.snapshot())
    } else {
        None
    };

    let threads = spec.threads.clamp(1, spec.machines);
    let mut outcomes: Vec<Option<DriveOutcome>> = (0..spec.machines).map(|_| None).collect();
    std::thread::scope(|scope| -> Result<(), FleetError> {
        let mut handles = Vec::new();
        for t in 0..threads {
            let (placement, template) = (&placement, &template);
            handles.push(
                scope.spawn(move || -> Result<Vec<(usize, DriveOutcome)>, FleetError> {
                    let mut done = Vec::new();
                    let mut m = t;
                    while m < spec.machines {
                        let mut system = match template {
                            Some(bytes) => SwallowSystem::restore(bytes)?,
                            None => build_machine(spec, placement)?,
                        };
                        let bridge = system
                            .machine_mut()
                            .bridge_mut()
                            .expect("fleet machines carry a bridge");
                        bridge.set_tag(m as u32);
                        if let Some(cap) = spec.ingress_capacity {
                            bridge.set_ingress_capacity(cap);
                        }
                        done.push((m, drive(&mut system, &schedules[m], spec.work, spec.drain)));
                        m += threads;
                    }
                    Ok(done)
                }),
            );
        }
        for handle in handles {
            for (m, outcome) in handle.join().expect("fleet worker panicked")? {
                outcomes[m] = Some(outcome);
            }
        }
        Ok(())
    })?;

    let machines: Vec<DriveOutcome> = outcomes
        .into_iter()
        .map(|o| o.expect("every machine was driven"))
        .collect();
    let streams: Vec<Vec<FleetCompletion>> = machines
        .iter()
        .enumerate()
        .map(|(m, outcome)| {
            outcome
                .completions
                .iter()
                .map(|&completion| FleetCompletion {
                    machine: m,
                    completion,
                })
                .collect()
        })
        .collect();
    let completions = kway_merge_by(streams, |c| c.completion.completed_at);
    let mut sketch = LatencySketch::new();
    for c in &completions {
        sketch.record(c.completion.latency.as_ps());
    }
    Ok(FleetResult {
        offered: schedules.iter().map(|s| s.len() as u64).sum(),
        injected: machines.iter().map(|o| o.injected as u64).sum(),
        rejected: machines.iter().map(|o| o.rejected as u64).sum(),
        completed: completions.len() as u64,
        wrong: machines.iter().map(|o| o.wrong as u64).sum(),
        idle_energy_j: machines.iter().map(|o| o.idle_energy_j).sum(),
        total_energy_j: machines.iter().map(|o| o.total_energy_j).sum(),
        span: TimeDelta::from_ps(
            machines
                .iter()
                .map(|o| o.fingerprint.now_ps)
                .max()
                .unwrap_or(0),
        ),
        machines,
        completions,
        sketch,
    })
}

/// Drains machine `from` out of the fleet: every request scheduled after
/// `after` moves to machine `to`'s queue (schedule stays sorted; tags —
/// fleet-unique — travel with the requests). Returns how many moved.
/// Provision the surviving machine for the extra load via
/// [`FleetSpec::provision`].
///
/// # Panics
///
/// Panics if `from == to` or either index is out of range.
pub fn rebalance(schedules: &mut [Vec<Request>], from: usize, after: Time, to: usize) -> usize {
    assert!(from != to, "cannot rebalance a machine onto itself");
    let (kept, moved): (Vec<Request>, Vec<Request>) =
        schedules[from].drain(..).partition(|r| r.at <= after);
    schedules[from] = kept;
    let n = moved.len();
    schedules[to].extend(moved);
    schedules[to].sort_by_key(|r| (r.at, r.tag));
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_fleet_serves_everything() {
        let spec = FleetSpec {
            machines: 3,
            requests: 5,
            rate_rps: 250_000.0,
            ..FleetSpec::default()
        };
        let result = run(&spec).expect("runs");
        assert_eq!(result.offered, 15);
        assert_eq!(result.injected, 15);
        assert_eq!(result.completed, 15);
        assert_eq!(result.wrong, 0);
        assert_eq!(result.sketch.count(), 15);
        assert!(result.goodput_rps() > 0.0);
        assert!(result.joules_per_request() > 0.0);
        // Merged log is ordered by (completed_at, machine).
        assert!(result.completions.windows(2).all(|w| {
            let (a, b) = (&w[0], &w[1]);
            (a.completion.completed_at, a.machine) <= (b.completion.completed_at, b.machine)
        }));
        // Tags are fleet-unique: machine m owns m·requests..(m+1)·requests.
        for c in &result.completions {
            assert_eq!(c.completion.tag / spec.requests, c.machine as u32);
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let base = FleetSpec {
            machines: 3,
            requests: 4,
            rate_rps: 300_000.0,
            ..FleetSpec::default()
        };
        let one = run(&base).expect("runs");
        for threads in [2, 3, 8] {
            let spec = FleetSpec {
                threads,
                ..base.clone()
            };
            assert_eq!(run(&spec).expect("runs"), one, "{threads} threads");
        }
    }

    #[test]
    fn warm_start_matches_cold_start() {
        let cold = FleetSpec {
            machines: 2,
            requests: 4,
            ..FleetSpec::default()
        };
        let warm = FleetSpec {
            warm_start: true,
            ..cold.clone()
        };
        let a = run(&cold).expect("cold runs");
        let b = run(&warm).expect("warm runs");
        assert_eq!(a, b);
        for (x, y) in a.machines.iter().zip(&b.machines) {
            assert_eq!(x.fingerprint, y.fingerprint);
        }
    }

    #[test]
    fn rebalance_moves_the_tail() {
        let spec = FleetSpec {
            machines: 2,
            requests: 6,
            provision: Some(12),
            ..FleetSpec::default()
        };
        let mut schedules = spec.schedules();
        let cut = schedules[0][2].at;
        let moved = rebalance(&mut schedules, 0, cut, 1);
        assert_eq!(moved, 3);
        assert_eq!(schedules[0].len(), 3);
        assert_eq!(schedules[1].len(), 9);
        assert!(schedules[1].windows(2).all(|w| w[0].at <= w[1].at));
        let result = run_with_schedules(&spec, &schedules).expect("runs");
        assert_eq!(result.completed, 12);
        assert_eq!(result.wrong, 0);
        // Machine 1 served its own six plus the three moved requests.
        assert_eq!(result.machines[1].completions.len(), 9);
    }

    #[test]
    fn spec_validation() {
        let spec = FleetSpec {
            machines: 0,
            ..FleetSpec::default()
        };
        assert!(matches!(run(&spec), Err(FleetError::BadParameter(_))));
        let spec = FleetSpec {
            workers: 99,
            ..FleetSpec::default()
        };
        assert!(matches!(run(&spec), Err(FleetError::Gen(_))));
    }
}
