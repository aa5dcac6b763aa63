//! Differential tests for the observability layer's no-perturbation
//! guarantee: running with tracing and metrics enabled must be
//! *observationally identical* — bit for bit, energy included — to the
//! same run with observability off, under every engine.
//!
//! The fingerprint (`common::Fingerprint`) compares with `PartialEq`, so
//! energy must match bit for bit: same engine, same schedule, so even
//! float association must be untouched by observability.
//!
//! This is the contract that makes the trace trustworthy: emission never
//! touches simulation state, metrics sampling only reads cumulative
//! counters the power monitor already maintains, so instrumented runs
//! measure the machine, not the measurement.
//!
//! Every scenario runs with the predecoded-instruction cache on and
//! again with it off; lock-step's plain runs must also be bit-identical
//! across the two cache settings.

mod common;

use common::{every_engine, Fingerprint, DECODE_CACHE};
use swallow_repro::swallow::{EngineMode, SwallowSystem, SystemBuilder, TimeDelta};
use swallow_repro::swallow_workloads::{client_server, farm, pipeline};

/// Runs the same setup twice per engine and decode-cache setting —
/// observability off, then tracing + metrics on — and requires identical
/// fingerprints. Also checks the instrumented run actually captured
/// something.
fn assert_observability_is_free(budget: TimeDelta, mut setup: impl FnMut(&mut SwallowSystem)) {
    let mut cached_ls = None;
    for cache in DECODE_CACHE {
        for engine in every_engine() {
            let who = format!("{engine:?} (decode cache {cache})");
            let mut run = |instrumented: bool| {
                let mut builder = SystemBuilder::new().engine(engine).decode_cache(cache);
                if instrumented {
                    builder = builder.tracing().metrics();
                }
                let mut system = builder.build().expect("builds");
                setup(&mut system);
                let quiescent = system.run_until_quiescent(budget);
                (Fingerprint::of(&system, quiescent), system)
            };
            let (plain, _) = run(false);
            let (traced, system) = run(true);
            assert_eq!(
                traced, plain,
                "{who}: tracing+metrics must not perturb the run"
            );
            if engine == EngineMode::LockStep {
                let on = cached_ls.get_or_insert_with(|| plain.clone());
                assert_eq!(&plain, on, "{who}: the decode cache perturbed the run");
            }
            let log = system.trace_log();
            assert!(
                !log.is_empty(),
                "{who}: instrumented run captured no trace events"
            );
            assert!(
                !system.machine().metrics().rows().is_empty(),
                "{who}: instrumented run recorded no supply rows"
            );
            // The merged log must be chronological whatever the engine did.
            assert!(
                log.records.windows(2).all(|w| w[0].at <= w[1].at),
                "{who}: merged trace log out of order"
            );
        }
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
    for cache in DECODE_CACHE {
        let run = || {
            let mut system = SystemBuilder::new()
                .parallel(4)
                .decode_cache(cache)
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
        assert_eq!(
            log_a, log_b,
            "decode cache {cache}: merged trace logs differ between runs"
        );
        assert_eq!(
            rows_a, rows_b,
            "decode cache {cache}: metrics rows differ between runs"
        );
        assert!(!log_a.is_empty() && !rows_a.is_empty());
    }
}
