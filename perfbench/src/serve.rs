//! `serve-fleet`: two one-slice machines behind bridges on two host
//! threads, warm-started from one template snapshot, driven by a seeded
//! open-loop Poisson schedule just below the bridge knee.
//!
//! Both runs take `swallow_fleet::run` as the reference and rebuild the
//! same fleet from the fleet's public pieces (`FleetSpec::schedules`,
//! `serve::generate`, snapshot/restore, `Driver`, `kway_merge_by`,
//! `LatencySketch`), which must reproduce it bit for bit, per-machine
//! fingerprints included. The timed run times every `Driver::step`; the
//! traced run puts a span around each piece.

use crate::layers::{conservation_rel, ChunkSamples, RunCounts, CONSERVATION_RTOL};
use crate::probes::{self, ProbeSize, ProbeTotals};
use crate::stats::{median, quantile, ratio, secs_since, stepwise_min_s, timed, Outcome, Spans};
use std::time::Instant;
use swallow::{EngineMode, SwallowSystem, SystemBuilder, TimeDelta};
use swallow_fleet::{
    ArrivalKind, DriveOutcome, Driver, FleetCompletion, FleetResult, FleetSpec, Request,
};
use swallow_sim::{kway_merge_by, LatencySketch};
use swallow_workloads::serve::{self, ServeSpec};
use swallow_workloads::Placement;

/// Requests per machine: 2000 fleet-wide, so p99 has twenty samples
/// beyond it and the seed moves the totals little.
const REQUESTS: u32 = 1000;

/// Offered load per machine, just below the bridge knee.
const RATE_RPS: f64 = 400_000.0;

/// Requests per machine the lock-step oracle replays, and its drain.
const ORACLE_REQUESTS: usize = 48;
const ORACLE_DRAIN: TimeDelta = TimeDelta::from_us(50);

/// Machine 0 is snapshotted for probes when it passes these fractions of
/// its run horizon.
const SNAPSHOT_AT: [f64; 3] = [0.25, 0.5, 0.75];

/// Probe sizes: one-slice edges are cheap, so more of them.
const PROBE: ProbeSize = ProbeSize {
    edges: 20_000,
    trace_span: TimeDelta::from_us(200),
};

/// Minimum set-up samples per run (`setup_s` is their median).
const MIN_SETUPS: usize = 15;

/// The fleet of one seed.
fn fleet_spec(seed: u64) -> FleetSpec {
    FleetSpec {
        machines: 2,
        slices: (1, 1),
        workers: 8,
        requests: REQUESTS,
        work: 8,
        arrivals: ArrivalKind::Poisson,
        rate_rps: RATE_RPS,
        seed,
        threads: 2,
        warm_start: true,
        metrics: true,
        ..FleetSpec::default()
    }
}

fn generate(spec: &FleetSpec) -> Placement {
    let service = ServeSpec {
        workers: spec.workers,
        max_requests: spec.provisioned(),
        work: spec.work,
    };
    serve::generate(&service, spec.grid()).expect("service fits one slice")
}

fn build(spec: &FleetSpec) -> SwallowSystem {
    SystemBuilder::new()
        .slices(spec.slices.0, spec.slices.1)
        .engine(spec.engine)
        .bridge()
        .metrics()
        .build()
        .expect("one slice builds")
}

/// The snapshot every machine of the fleet starts from: generate, build,
/// load, snapshot.
fn template(spec: &FleetSpec) -> Vec<u8> {
    let placement = generate(spec);
    let mut template = build(spec);
    placement.apply(&mut template).expect("service fits");
    template.snapshot()
}

/// The fleet's set-up as `swallow_fleet::run` performs it: the template,
/// then one restore per machine.
fn setup(spec: &FleetSpec) -> Vec<SwallowSystem> {
    let bytes = template(spec);
    (0..spec.machines)
        .map(|_| SwallowSystem::restore(&bytes).expect("own snapshot restores"))
        .collect()
}

/// Runs `drive(m, input)` for every machine `m` on `threads` host
/// threads, machine `m` on thread `m mod threads` as the fleet places
/// them, and returns the results in machine order.
fn on_threads<I: Send, T: Send>(
    threads: usize,
    inputs: Vec<I>,
    drive: impl Fn(usize, I) -> T + Sync,
) -> Vec<T> {
    let mut work: Vec<Vec<(usize, I)>> = (0..threads).map(|_| Vec::new()).collect();
    for (m, input) in inputs.into_iter().enumerate() {
        work[m % threads].push((m, input));
    }
    let drive = &drive;
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = work
            .into_iter()
            .map(|batch| {
                scope.spawn(move || {
                    batch
                        .into_iter()
                        .map(|(m, input)| (m, drive(m, input)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("fleet worker panicked"))
            .collect()
    });
    done.sort_by_key(|(m, _)| *m);
    done.into_iter().map(|(_, out)| out).collect()
}

/// Drives machine `m` from the template through its schedule as the
/// fleet does, timing every `Driver::step`.
fn drive_timed(
    spec: &FleetSpec,
    template: &[u8],
    schedule: &[Request],
    m: usize,
) -> (DriveOutcome, Vec<f64>) {
    let mut system = SwallowSystem::restore(template).expect("own snapshot restores");
    system
        .machine_mut()
        .bridge_mut()
        .expect("fleet machines carry a bridge")
        .set_tag(m as u32);
    let mut driver = Driver::new(schedule, spec.work, spec.drain);
    let mut step_s = Vec::new();
    while !driver.done(&system) {
        step_s.push(timed(|| driver.step(&mut system)).1);
    }
    (driver.finish(&mut system), step_s)
}

/// Requests attempted and failed (rejected, wrong or unserved).
fn tally(result: &FleetResult) -> (u64, u64) {
    (
        result.offered,
        result.offered - result.completed + result.wrong,
    )
}

/// Per-machine §II conservation; returns the worst relative gap.
fn check_conservation(result: &FleetResult, out: &mut Outcome) {
    for (m, machine) in result.machines.iter().enumerate() {
        let ledger = machine.total_energy_j;
        let rel = machine.metered_energy_j.map_or(f64::INFINITY, |metered| {
            (metered - ledger).abs() / ledger.abs().max(f64::MIN_POSITIVE)
        });
        if rel > CONSERVATION_RTOL {
            out.fail(format!(
                "machine {m}: energy conservation broke (gap {rel:.3e})"
            ));
        }
    }
}

/// Serving checks: every request served with the oracle's reply.
fn check_service(result: &FleetResult, out: &mut Outcome) {
    if result.completed != result.offered || result.wrong != 0 || result.rejected != 0 {
        out.fail(format!(
            "served {} of {} requests ({} rejected, {} wrong replies)",
            result.completed, result.offered, result.rejected, result.wrong
        ));
    }
}

/// Replays a prefix of every machine's schedule under the measured
/// engine on two host threads, on one host thread, and under lock-step.
/// Thread count must change nothing; lock-step must agree exactly on
/// every reply and instant, and on energy within f64 association.
fn oracle(spec: &FleetSpec) -> Result<(), String> {
    let spec = FleetSpec {
        drain: ORACLE_DRAIN,
        ..spec.clone()
    };
    let prefix: Vec<Vec<Request>> = spec
        .schedules()
        .into_iter()
        .map(|s| s[..ORACLE_REQUESTS].to_vec())
        .collect();
    let run = |spec: &FleetSpec| {
        swallow_fleet::run_with_schedules(spec, &prefix).map_err(|e| format!("oracle run: {e}"))
    };
    let measured = run(&spec)?;
    let one_thread = run(&FleetSpec {
        threads: 1,
        ..spec.clone()
    })?;
    if measured != one_thread {
        return Err("fleet results depend on the host thread count".into());
    }
    let lockstep = run(&FleetSpec {
        engine: EngineMode::LockStep,
        ..spec.clone()
    })?;
    let key = |r: &FleetResult| {
        r.completions
            .iter()
            .map(|c| {
                let k = c.completion;
                (c.machine, k.tag, k.reply, k.completed_at, k.latency)
            })
            .collect::<Vec<_>>()
    };
    let ids = |r: &FleetResult| {
        r.machines
            .iter()
            .map(|o| {
                let f = o.fingerprint;
                (f.now_ps, f.instret, f.frames_in, f.frames_out, f.rejected)
            })
            .collect::<Vec<_>>()
    };
    let (a, b) = (measured.total_energy_j, lockstep.total_energy_j);
    if key(&measured) != key(&lockstep)
        || ids(&measured) != ids(&lockstep)
        || (a - b).abs() > CONSERVATION_RTOL * a.abs().max(b.abs())
    {
        return Err(format!(
            "lock-step oracle disagrees on the prefix: {:?} vs {:?}",
            ids(&measured),
            ids(&lockstep)
        ));
    }
    Ok(())
}

/// The timed run with tracing off. `swallow_fleet::run` gives the
/// reference result; then reps of the fleet's set-up (timed on its own as
/// `setup_s`) and of the fleet driven from its public pieces with a timer
/// around every `Driver::step`, each rep checked against the reference,
/// until `seconds` are used.
pub fn untraced(seed: u64, seconds: f64) -> Outcome {
    let spec = fleet_spec(seed);
    let mut out = Outcome::default();
    let reference = match swallow_fleet::run(&spec) {
        Ok(result) => result,
        Err(e) => {
            out.fail(format!("fleet run failed: {e}"));
            return out;
        }
    };
    let schedules = spec.schedules();
    let threads = spec.threads.clamp(1, spec.machines);
    let mut setups = Vec::new();
    // Step times per machine, per rep.
    let mut step_s: Vec<Vec<Vec<f64>>> = vec![Vec::new(); spec.machines];
    let mut reps = 0u64;
    let mut diverged = false;
    let mut walls = Vec::new();
    let mut rss = None;
    let t0 = Instant::now();
    loop {
        let rep_t0 = Instant::now();
        setups.push(timed(|| setup(&spec)).1);
        let bytes = template(&spec);
        let runs = on_threads(threads, vec![(); spec.machines], |m, ()| {
            drive_timed(&spec, &bytes, &schedules[m], m)
        });
        walls.push(secs_since(rep_t0));
        let mut outcomes = Vec::new();
        for (m, (outcome, steps)) in runs.into_iter().enumerate() {
            outcomes.push(outcome);
            step_s[m].push(steps);
        }
        diverged |= merge(&schedules, outcomes) != reference;
        reps += 1;
        // The peak of one set-up and rep: later reps add only allocator
        // churn, and how many of them fit in `seconds` is up to the host.
        rss = rss.or_else(crate::stats::peak_rss_mb);
        if secs_since(t0) + median(&walls) > seconds {
            break;
        }
    }
    while setups.len() < MIN_SETUPS {
        setups.push(timed(|| setup(&spec)).1);
    }
    if diverged {
        out.fail("a driven rep does not reproduce swallow_fleet::run".into());
    }
    check_conservation(&reference, &mut out);
    check_service(&reference, &mut out);
    if let Err(e) = oracle(&spec) {
        out.fail(e);
    }

    let (attempted, failed) = tally(&reference);
    out.attempted = attempted * reps;
    out.failed = failed * reps;
    let instret: u64 = reference
        .machines
        .iter()
        .map(|m| m.fingerprint.instret)
        .sum();
    let span_us = reference.span.as_ps() as f64 / 1e6;
    // Machines run side by side on their own host threads: the fleet
    // takes as long as its slowest machine.
    let run_s = step_s
        .iter()
        .map(|reps| stepwise_min_s(reps))
        .fold(0.0, f64::max);
    let rate = |work: f64| work / run_s;
    out.put("sim_mips", rate(instret as f64) / 1e6, "MIPS");
    out.put("sim_us_per_host_s", rate(span_us), "us/s");
    out.put("ops_per_host_s", rate(reference.completed as f64), "1/s");
    out.put("setup_s", median(&setups), "s");
    out.put("peak_rss_mb", rss.unwrap_or(f64::NAN), "MiB");
    out.put("sim_energy_mj", reference.total_energy_j * 1e3, "mJ");
    out.put("sim_uj_per_op", reference.joules_per_request() * 1e6, "uJ");
    let us = |q: f64| reference.latency_ps(q).unwrap_or(0) as f64 / 1e6;
    out.note(format!(
        "{reps} reps; {} requests; simulated p50 {:.3} us, p99 {:.3} us, span {span_us:.3} us",
        reference.completed,
        us(0.5),
        us(0.99)
    ));
    out
}

/// One machine's traced drive.
struct MachineRun {
    outcome: DriveOutcome,
    restore_s: f64,
    step_s: Vec<f64>,
    samples: ChunkSamples,
    counts: RunCounts,
    snapshots: Vec<Vec<u8>>,
    snapshot_s: f64,
}

/// Drives machine `m` from the template with a timer around every
/// `Driver::step`.
fn drive_traced(spec: &FleetSpec, template: &[u8], schedule: &[Request], m: usize) -> MachineRun {
    let (mut system, restore_s) =
        timed(|| SwallowSystem::restore(template).expect("own snapshot restores"));
    system
        .machine_mut()
        .bridge_mut()
        .expect("fleet machines carry a bridge")
        .set_tag(m as u32);
    let horizon = schedule.last().map_or(0, |r| r.at.as_ps()) + spec.drain.as_ps();
    let mut marks = SNAPSHOT_AT
        .iter()
        .map(|f| (f * horizon as f64) as u64)
        .peekable();
    let mut step_s = Vec::new();
    let mut samples = ChunkSamples::default();
    let mut snapshots = Vec::new();
    let mut snapshot_s = 0.0;
    let mut driver = Driver::new(schedule, spec.work, spec.drain);
    while !driver.done(&system) {
        step_s.push(timed(|| driver.step(&mut system)).1);
        samples.sample(system.machine());
        if m == 0 && marks.peek().is_some_and(|&at| system.now().as_ps() >= at) {
            marks.next();
            let (bytes, secs) = timed(|| system.snapshot());
            snapshots.push(bytes);
            snapshot_s += secs;
        }
    }
    let outcome = driver.finish(&mut system);
    let counts = RunCounts::of(system.machine(), conservation_rel(system.machine()));
    MachineRun {
        outcome,
        restore_s,
        step_s,
        samples,
        counts,
        snapshots,
        snapshot_s,
    }
}

/// Merges per-machine outcomes exactly as the fleet does.
fn merge(schedules: &[Vec<Request>], machines: Vec<DriveOutcome>) -> FleetResult {
    let streams: Vec<Vec<FleetCompletion>> = machines
        .iter()
        .enumerate()
        .map(|(machine, o)| {
            o.completions
                .iter()
                .map(|&completion| FleetCompletion {
                    machine,
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
    FleetResult {
        offered: schedules.iter().map(|s| s.len() as u64).sum(),
        injected: machines.iter().map(|o| u64::from(o.injected)).sum(),
        rejected: machines.iter().map(|o| u64::from(o.rejected)).sum(),
        completed: completions.len() as u64,
        wrong: machines.iter().map(|o| u64::from(o.wrong)).sum(),
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
    }
}

/// The traced run: pairs of an untraced `swallow_fleet::run` (the
/// reference) and a rep of the fleet rebuilt from its public pieces with
/// a span around each, which must reproduce the reference bit for bit,
/// until `seconds` are used; then probes on snapshots of machine 0, the
/// micro probes and the oracle.
pub fn traced(seed: u64, seconds: f64) -> Outcome {
    let spec = fleet_spec(seed);
    let mut out = Outcome::default();
    let mut spans = Spans::start();
    let threads = spec.threads.clamp(1, spec.machines);
    let mut references: Vec<FleetResult> = Vec::new();
    let mut reference_walls = Vec::new();
    let mut rep_walls = Vec::new();
    let mut pair_walls = Vec::new();
    let mut first_runs: Option<Vec<MachineRun>> = None;
    let mut snapshot_mb;
    loop {
        let pair_t0 = Instant::now();
        let (reference, reference_s) =
            spans.top("bench.reference", || timed(|| swallow_fleet::run(&spec)));
        let reference = match reference {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("fleet run failed: {e}"));
                return out;
            }
        };
        reference_walls.push(reference_s);

        let rep_t0 = Instant::now();
        let schedules = spans.top("fleet.schedules", || spec.schedules());
        let placement = spans.top("workloads.generate", || generate(&spec));
        let mut template = spans.top("core.build", || build(&spec));
        spans.top("xcore.load", || {
            placement.apply(&mut template).expect("service fits")
        });
        let bytes = spans.top("board.snapshot", || template.snapshot());
        snapshot_mb = bytes.len() as f64 / (1024.0 * 1024.0);
        drop(template);
        let runs = spans.top("fleet.drive", || {
            on_threads(threads, vec![(); spec.machines], |m, ()| {
                drive_traced(&spec, &bytes, &schedules[m], m)
            })
        });
        let outcomes = runs.iter().map(|r| r.outcome.clone()).collect();
        let result = spans.top("fleet.merge", || merge(&schedules, outcomes));
        let probe_snapshot_s: f64 = runs.iter().map(|r| r.snapshot_s).sum();
        rep_walls.push(secs_since(rep_t0) - probe_snapshot_s);
        spans.top("bench.check", || {
            if result != reference {
                out.fail("traced fleet does not reproduce swallow_fleet::run".into());
            }
            if references.first().is_some_and(|first| *first != reference) {
                out.fail("fleet reps diverged".into());
            }
        });
        references.push(reference);
        for run in &runs {
            spans.nested("board.restore", run.restore_s);
            for &s in &run.step_s {
                spans.nested("fleet.step", s);
            }
        }
        first_runs.get_or_insert(runs);
        pair_walls.push(secs_since(pair_t0));
        if spans.wall() + median(&pair_walls) > seconds {
            break;
        }
    }
    let runs = first_runs.expect("at least one traced rep");
    let reference = &references[0];
    check_conservation(reference, &mut out);
    check_service(reference, &mut out);

    let mut totals = ProbeTotals::default();
    for bytes in runs.iter().flat_map(|r| &r.snapshots) {
        spans.top("bench.probe", || {
            probes::probe_snapshot(bytes, PROBE, &mut totals)
        });
    }
    probes::micro(&mut spans, &mut out);
    if let Err(e) = spans.top("bench.oracle", || oracle(&spec)) {
        out.fail(e);
    }

    let (attempted, failed) = tally(reference);
    out.attempted = attempted * rep_walls.len() as u64;
    out.failed = failed * rep_walls.len() as u64;
    let ms = |v: &[f64]| median(v) * 1e3;
    out.put(
        "workloads.generate_ms",
        ms(spans.get("workloads.generate")),
        "ms",
    );
    out.put("core.build_ms", ms(spans.get("core.build")), "ms");
    out.put("xcore.load_ms", ms(spans.get("xcore.load")), "ms");
    out.put("board.snapshot_ms", ms(spans.get("board.snapshot")), "ms");
    out.put("board.restore_ms", ms(spans.get("board.restore")), "ms");
    out.put("board.snapshot_mb", snapshot_mb, "MiB");
    let steps = spans.get("fleet.step");
    out.put("fleet.step_us_p50", quantile(steps, 0.5) * 1e6, "us");
    out.put("fleet.step_us_p90", quantile(steps, 0.9) * 1e6, "us");
    out.put(
        "fleet.steps_per_req",
        ratio(
            runs.iter().map(|r| r.step_s.len()).sum::<usize>() as f64,
            reference.offered as f64,
        ),
        "count",
    );
    out.put("fleet.merge_ms", ms(spans.get("fleet.merge")), "ms");
    probes::report(&totals, &mut out);
    let mut samples = ChunkSamples::default();
    let mut counts = RunCounts::default();
    for run in &runs {
        samples.merge(&run.samples);
        counts.add(&run.counts);
    }
    samples.report(&mut out);
    counts.report(&mut out);
    out.put(
        "bench.trace_overhead_share",
        median(&rep_walls) / median(&reference_walls) - 1.0,
        "share",
    );
    let us = |q: f64| reference.latency_ps(q).unwrap_or(0) as f64 / 1e6;
    out.put("sim.span_us", reference.span.as_ps() as f64 / 1e6, "us");
    out.put("fleet.sim_p50_us", us(0.5), "us");
    out.put("fleet.sim_p99_us", us(0.99), "us");
    out.put(
        "bench.unattributed_share",
        spans.unattributed_share(),
        "share",
    );
    out
}
