//! Differential tests for the observability layer's no-perturbation
//! guarantee: running with tracing and metrics enabled must be
//! *observationally identical* — bit for bit, energy included — to the
//! same run with observability off, under every engine.
//!
//! This is the contract that makes the trace trustworthy: emission never
//! touches simulation state, metrics sampling only reads cumulative
//! counters the power monitor already maintains, so instrumented runs
//! measure the machine, not the measurement.
//!
//! Set `SWALLOW_THREADS` to pin the windowed engine to one thread count
//! (see `common`), as the CI thread-count legs do.

mod common;

use common::every_engine;
use swallow_repro::swallow::energy::NodeCategory;
use swallow_repro::swallow::{SwallowSystem, SystemBuilder, TimeDelta};
use swallow_repro::swallow_workloads::{client_server, farm, pipeline};

/// Everything observable about a finished run. Energy compares
/// *bit-for-bit*: same engine, same schedule, so even float association
/// must be untouched by observability.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    quiescent: bool,
    now_ps: u64,
    instret: u64,
    outputs: Vec<String>,
    energy: Vec<(NodeCategory, f64)>,
}

fn fingerprint(system: &SwallowSystem, quiescent: bool) -> Fingerprint {
    Fingerprint {
        quiescent,
        now_ps: system.now().as_ps(),
        instret: system.perf_report().instret,
        outputs: system
            .nodes()
            .map(|n| system.output(n).to_owned())
            .collect(),
        energy: system
            .power_report()
            .ledger
            .iter()
            .map(|(cat, e)| (cat, e.as_joules()))
            .collect(),
    }
}

/// Runs the same setup twice per engine — observability off, then
/// tracing + metrics on — and requires identical fingerprints. Also
/// checks the instrumented run actually captured something.
fn assert_observability_is_free(budget: TimeDelta, mut setup: impl FnMut(&mut SwallowSystem)) {
    for engine in every_engine() {
        let mut run = |instrumented: bool| {
            let mut builder = SystemBuilder::new().engine(engine);
            if instrumented {
                builder = builder.tracing().metrics();
            }
            let mut system = builder.build().expect("builds");
            setup(&mut system);
            let quiescent = system.run_until_quiescent(budget);
            (fingerprint(&system, quiescent), system)
        };
        let (plain, _) = run(false);
        let (traced, system) = run(true);
        assert_eq!(
            traced, plain,
            "{engine:?}: tracing+metrics must not perturb the run"
        );
        let log = system.trace_log();
        assert!(
            !log.is_empty(),
            "{engine:?}: instrumented run captured no trace events"
        );
        assert!(
            !system.machine().metrics().rows().is_empty(),
            "{engine:?}: instrumented run recorded no supply rows"
        );
        // The merged log must be chronological whatever the engine did.
        assert!(
            log.records.windows(2).all(|w| w[0].at <= w[1].at),
            "{engine:?}: merged trace log out of order"
        );
    }
}

#[test]
fn pipeline_is_unperturbed_by_observability() {
    let spec = pipeline::PipelineSpec {
        stages: 6,
        items: 24,
        work_per_item: 3,
    };
    assert_observability_is_free(TimeDelta::from_ms(20), |system| {
        pipeline::generate(&spec, system.machine().spec())
            .expect("generates")
            .apply(system)
            .expect("loads");
    });
}

#[test]
fn farm_is_unperturbed_by_observability() {
    let spec = farm::FarmSpec {
        workers: 5,
        tasks: 20,
        work_per_task: 4,
    };
    assert_observability_is_free(TimeDelta::from_ms(20), |system| {
        farm::generate(&spec, system.machine().spec())
            .expect("generates")
            .apply(system)
            .expect("loads");
    });
}

#[test]
fn ping_pong_is_unperturbed_by_observability() {
    let spec = client_server::ServiceSpec {
        clients: 2,
        requests_per_client: 8,
    };
    assert_observability_is_free(TimeDelta::from_ms(50), |system| {
        client_server::generate(&spec, system.machine().spec())
            .expect("generates")
            .apply(system)
            .expect("loads");
    });
}

#[test]
fn parallel_instrumented_runs_are_bit_identical() {
    // Determinism of the *observability* output itself: under the
    // windowed engine the merged trace and the metrics rows must come out
    // identical run after run (rings travel with cores across host
    // threads; the merge is order-fixed).
    let spec = pipeline::PipelineSpec {
        stages: 6,
        items: 24,
        work_per_item: 3,
    };
    let run = || {
        let mut system = SystemBuilder::new()
            .parallel(4)
            .tracing()
            .metrics()
            .build()
            .expect("builds");
        pipeline::generate(&spec, system.machine().spec())
            .expect("generates")
            .apply(&mut system)
            .expect("loads");
        system.run_until_quiescent(TimeDelta::from_ms(20));
        system.flush_metrics();
        (
            system.trace_log(),
            system.machine().metrics().rows().to_vec(),
        )
    };
    let (log_a, rows_a) = run();
    let (log_b, rows_b) = run();
    assert_eq!(log_a, log_b, "merged trace logs differ between runs");
    assert_eq!(rows_a, rows_b, "metrics rows differ between runs");
    assert!(!log_a.is_empty() && !rows_a.is_empty());
}
