//! Observability-layer pinning tests: the Chrome-trace exporter against
//! a golden file (structural JSON comparison — formatting may drift, the
//! structure may not), the CSV schema, and energy conservation between
//! the metrics time series and the energy ledger under every engine.
//!
//! Regenerate the golden after an intentional schema change with
//! `UPDATE_GOLDEN=1 cargo test --test observability`.

use swallow_repro::swallow::{
    chrome_trace_json, supply_csv, EngineMode, SystemBuilder, Time, TimeDelta, TraceEvent,
    TraceLog, TraceRecord,
};
use swallow_repro::swallow_workloads::pipeline;
use swallow_testkit::json;

const GOLDEN_PATH: &str = "tests/golden/chrome_trace.json";

/// Relative tolerance between integrated metrics and the ledger.
const CONSERVATION_RTOL: f64 = 1e-9;

/// A synthetic log exercising every event variant at fixed instants, so
/// the golden file pins the full exporter surface.
fn synthetic_log() -> TraceLog {
    let rec = |ps: u64, event: TraceEvent| TraceRecord {
        at: Time::from_ps(ps),
        event,
    };
    TraceLog {
        records: vec![
            rec(1_000, TraceEvent::CoreWake { core: 0 }),
            rec(
                1_000,
                TraceEvent::ThreadSchedule {
                    core: 0,
                    thread: 0,
                    pc: 0x40,
                },
            ),
            rec(
                2_000,
                TraceEvent::ChannelOpen {
                    core: 0,
                    chanend: 1,
                },
            ),
            rec(
                3_000,
                TraceEvent::DvfsChange {
                    core: 0,
                    hz: 250_000_000,
                },
            ),
            rec(
                4_000,
                TraceEvent::TokenSend {
                    core: 0,
                    chanend: 1,
                    dest_node: 3,
                    dest_chanend: 0,
                    tokens: 4,
                    ctrl: false,
                },
            ),
            rec(
                5_000,
                TraceEvent::LinkTransit {
                    link: 12,
                    from: 0,
                    to: 3,
                    ctrl: false,
                    busy: TimeDelta::from_ns(4),
                },
            ),
            rec(
                9_000,
                TraceEvent::TokenReceive {
                    core: 3,
                    chanend: 0,
                    ctrl: false,
                },
            ),
            rec(
                10_000,
                TraceEvent::BlockRetire {
                    core: 0,
                    thread: 0,
                    instret: 17,
                    since: Time::from_ps(1_000),
                    reason: "send",
                },
            ),
            rec(
                10_000,
                TraceEvent::ChannelClose {
                    core: 0,
                    chanend: 1,
                },
            ),
            rec(10_000, TraceEvent::CoreSleep { core: 0 }),
            rec(
                11_000,
                TraceEvent::SupplySample {
                    slice: 0,
                    rail: 2,
                    microwatts: 312_500,
                },
            ),
        ],
        dropped: 3,
    }
}

#[test]
fn chrome_trace_matches_the_golden_file() {
    let rendered = chrome_trace_json(&synthetic_log());
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("writes golden");
    }
    let golden_text = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file present (regenerate with UPDATE_GOLDEN=1)");
    let golden = json::parse(&golden_text).expect("golden parses");
    let actual = json::parse(&rendered).expect("rendered trace parses");
    assert_eq!(
        actual, golden,
        "Chrome-trace exporter output diverged structurally from {GOLDEN_PATH}; \
         if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn chrome_trace_is_wellformed_for_a_real_run() {
    let spec = pipeline::PipelineSpec {
        stages: 6,
        items: 24,
        work_per_item: 3,
    };
    let mut system = SystemBuilder::new()
        .tracing()
        .metrics()
        .build()
        .expect("builds");
    pipeline::generate(&spec, system.machine().spec())
        .expect("generates")
        .apply(&mut system)
        .expect("loads");
    assert!(system.run_until_quiescent(TimeDelta::from_ms(20)));
    system.flush_metrics();

    let doc = json::parse(&chrome_trace_json(&system.trace_log())).expect("valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(json::Value::as_array)
        .expect("traceEvents array");
    assert!(events.len() > 100, "only {} events captured", events.len());
    let mut phases_seen = std::collections::BTreeSet::new();
    for event in events {
        let ph = event
            .get("ph")
            .and_then(json::Value::as_str)
            .expect("every event has ph");
        phases_seen.insert(ph.to_owned());
        assert!(event.get("pid").is_some(), "every event has pid");
        if ph != "M" {
            let ts = event
                .get("ts")
                .and_then(json::Value::as_f64)
                .expect("every non-metadata event has numeric ts");
            assert!(ts >= 0.0);
        }
        if ph == "X" {
            assert!(
                event.get("dur").and_then(json::Value::as_f64).is_some(),
                "duration events carry dur"
            );
        }
    }
    // A real pipeline run exercises spans, instants, counters, metadata.
    for needed in ["M", "X", "i", "C"] {
        assert!(phases_seen.contains(needed), "no {needed:?} events emitted");
    }
}

#[test]
fn supply_csv_schema_is_stable() {
    let mut system = SystemBuilder::new().metrics().build().expect("builds");
    system.run_for(TimeDelta::from_us(5));
    system.flush_metrics();
    let csv = supply_csv(system.machine().metrics().rows());
    let mut lines = csv.lines();
    let header = lines.next().expect("header row");
    assert_eq!(
        header,
        "time_us,span_us,slice,rail0_mw,rail1_mw,rail2_mw,rail3_mw,rail4_mw,loss_mw"
    );
    let columns = header.split(',').count();
    let mut rows = 0;
    let mut last_time = f64::MIN;
    for line in lines {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields.len(), columns, "ragged row: {line}");
        let time: f64 = fields[0].parse().expect("numeric time");
        let span: f64 = fields[1].parse().expect("numeric span");
        let _slice: u16 = fields[2].parse().expect("integer slice");
        assert!(time >= last_time, "rows out of order");
        assert!(span > 0.0, "non-positive span");
        for field in &fields[3..] {
            let mw: f64 = field.parse().expect("numeric power");
            assert!(mw.is_finite());
        }
        last_time = time;
        rows += 1;
    }
    // 5 µs of the default 1 µs cadence plus the flush row.
    assert!(rows >= 5, "only {rows} rows for a 5 µs run");
}

#[test]
fn metrics_conserve_energy_under_every_engine() {
    let spec = pipeline::PipelineSpec {
        stages: 6,
        items: 24,
        work_per_item: 3,
    };
    for engine in [
        EngineMode::LockStep,
        EngineMode::Windowed { threads: 1 },
        EngineMode::Windowed { threads: 4 },
    ] {
        let mut system = SystemBuilder::new()
            .engine(engine)
            .metrics()
            .build()
            .expect("builds");
        pipeline::generate(&spec, system.machine().spec())
            .expect("generates")
            .apply(&mut system)
            .expect("loads");
        system.run_until_quiescent(TimeDelta::from_ms(20));
        system.flush_metrics();
        let metered = system.machine().metrics().total_energy().as_joules();
        let ledger = system.machine().machine_ledger().total().as_joules();
        assert!(ledger > 0.0, "{engine:?}: no energy charged at all");
        let rel = (metered - ledger).abs() / ledger;
        assert!(
            rel <= CONSERVATION_RTOL,
            "{engine:?}: metrics integrate to {metered} J but the ledger holds \
             {ledger} J (rel {rel:.3e})"
        );
        // The report surfaces the same comparison.
        let report = system.metrics_report();
        assert_eq!(report.metered_energy.as_joules(), metered);
        assert_eq!(report.ledger_energy.as_joules(), ledger);
        assert!(report.supply_rows > 0);
    }
}

#[test]
fn metrics_report_reflects_core_activity() {
    let spec = pipeline::PipelineSpec {
        stages: 6,
        items: 24,
        work_per_item: 3,
    };
    let mut system = SystemBuilder::new().metrics().build().expect("builds");
    pipeline::generate(&spec, system.machine().spec())
        .expect("generates")
        .apply(&mut system)
        .expect("loads");
    system.run_until_quiescent(TimeDelta::from_ms(20));
    let report = system.metrics_report();
    assert_eq!(report.cores.len(), 16);
    let busy = report.cores.iter().filter(|c| c.instret > 0).count();
    assert!(busy >= 6, "at least the six pipeline stages ran");
    for core in &report.cores {
        assert!((0.0..=1.0).contains(&core.utilization));
        assert_eq!(
            core.thread_instret.iter().sum::<u64>(),
            core.instret,
            "per-thread counts must sum to the core count"
        );
    }
    assert!(report.active_links() > 0, "pipeline traffic crossed links");
    assert!(report.mean_utilization() > 0.0);
    let text = report.to_string();
    assert!(text.contains("cores"), "{text}");
}
