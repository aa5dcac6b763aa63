//! Differential tests: the windowed engine must be observationally
//! identical to the cycle-by-cycle lock-step reference at every thread
//! count.
//!
//! Both engines process exactly the same grid-aligned instants at which
//! anything can happen (core ticks, wake-ups, fabric hops, bridge pacing,
//! monitor updates); the windowed engine's fast-forward steps merely skip
//! the provably idle instants in between and charge their energy
//! analytically, and its windows batch independent spans onto host
//! threads. These tests pin that equivalence down for representative
//! workloads: identical retired instruction counts, identical final
//! simulated time, identical program outputs, and energy ledgers equal to
//! within floating-point association error (the only permitted
//! difference: `n` idle-tick charges summed one by one versus multiplied
//! out in one shot). The windowed engine is additionally required to be
//! *bit-identical* across repeated runs at every tested thread count.
//!
//! Every scenario runs with the predecoded-instruction cache on and
//! again with it off: each windowed run is compared against lock-step
//! at the same cache setting, and lock-step with the cache off must be
//! bit-identical to lock-step with it on.

mod common;

use common::{assert_equivalent, engines_under_test, run_differential, Fingerprint, DECODE_CACHE};

use swallow_repro::swallow::{
    Assembler, EngineMode, FaultPlan, Frequency, NodeId, RouterKind, SwallowSystem, SystemBuilder,
    Time, TimeDelta,
};
use swallow_repro::swallow_workloads::{client_server, farm, pipeline};
use swallow_testkit::proptest::prelude::*;

/// [`run_differential`] on the default one-slice builder.
fn run_default(budget: TimeDelta, setup: impl FnMut(&mut SwallowSystem)) -> Fingerprint {
    run_differential(budget, SystemBuilder::new, setup)
}

#[test]
fn pipeline_runs_identically_under_both_engines() {
    let spec = pipeline::PipelineSpec {
        stages: 6,
        items: 24,
        work_per_item: 3,
    };
    let ff = run_default(TimeDelta::from_ms(20), |system| {
        pipeline::generate(&spec, system.machine().spec())
            .expect("generates")
            .apply(system)
            .expect("loads");
    });
    assert!(ff.quiescent, "pipeline must drain");
    assert_eq!(
        ff.outputs[5].trim(),
        pipeline::checksum(&spec).to_string(),
        "and still compute the right checksum"
    );
}

#[test]
fn farm_runs_identically_under_both_engines() {
    let spec = farm::FarmSpec {
        workers: 5,
        tasks: 20,
        work_per_task: 4,
    };
    let ff = run_default(TimeDelta::from_ms(20), |system| {
        farm::generate(&spec, system.machine().spec())
            .expect("generates")
            .apply(system)
            .expect("loads");
    });
    assert!(ff.quiescent, "farm must drain");
    assert_eq!(ff.outputs[0].trim(), farm::expected_sum(&spec).to_string());
}

#[test]
fn ping_pong_runs_identically_under_both_engines() {
    // Request/reply round trips: latency-bound, so almost all simulated
    // time is idle — the regime where fast-forward does the most work.
    let spec = client_server::ServiceSpec {
        clients: 2,
        requests_per_client: 8,
    };
    let ff = run_default(TimeDelta::from_ms(50), |system| {
        client_server::generate(&spec, system.machine().spec())
            .expect("generates")
            .apply(system)
            .expect("loads");
    });
    assert!(ff.quiescent, "ping-pong must drain");
    for i in 0..2 {
        assert_eq!(
            ff.outputs[i + 1].trim(),
            client_server::expected_client_sum(&spec, i).to_string()
        );
    }
}

#[test]
fn long_timer_sleeps_fast_forward_to_the_same_instant() {
    // Sleeps far longer than any workload message gap: the fast-forward
    // engine jumps hundreds of thousands of ticks at once here, yet must
    // land on exactly the wake instants the lock-step engine reaches.
    let ff = run_default(TimeDelta::from_ms(10), |system| {
        for (node, ticks) in [(0u16, 50_000u32), (7, 63_456), (15, 65_001)] {
            let program = Assembler::new()
                .assemble(&format!(
                    "
                        getr  r0, timer
                        in    r1, r0
                        add   r2, r1, {ticks}
                        tmwait r0, r2
                        in    r3, r0
                        lsu   r4, r3, r2      # woke early? must be 0
                        print r4
                        freet
                    "
                ))
                .expect("assembles");
            system.load_program(NodeId(node), &program).expect("fits");
        }
    });
    assert!(ff.quiescent);
    for node in [0usize, 7, 15] {
        assert_eq!(ff.outputs[node].trim(), "0", "core {node} woke early");
    }
}

#[test]
fn idle_machine_burns_identical_energy() {
    // A fully idle slice for 200 µs: every tick of every core is skipped
    // analytically, and the ledgers must still agree to 1e-9.
    let run = |engine: EngineMode, cache: bool| {
        let mut system = SystemBuilder::new()
            .engine(engine)
            .decode_cache(cache)
            .build()
            .expect("builds");
        system.run_for(TimeDelta::from_us(200));
        Fingerprint::of(&system, true)
    };
    let mut cached_ls = None;
    let mut total = 0.0;
    for cache in DECODE_CACHE {
        let ls = run(EngineMode::LockStep, cache);
        let on = cached_ls.get_or_insert_with(|| ls.clone());
        assert_eq!(&ls, on, "lock-step: the decode cache perturbed the run");
        for engine in engines_under_test() {
            let fp = run(engine, cache);
            assert_equivalent(&format!("{engine:?} (decode cache {cache})"), &fp, &ls);
            total = fp.energy.iter().map(|(_, j)| j).sum::<f64>();
        }
    }
    assert!(total > 0.0, "idle energy must still be charged");
}

#[test]
fn parallel_agrees_on_shortest_paths_routing() {
    // Same pipeline, but routed breadth-first instead of vertical-first:
    // different hop counts and link orderings must not perturb the
    // conservative epoch horizon or the reconciliation order.
    let spec = pipeline::PipelineSpec {
        stages: 6,
        items: 16,
        work_per_item: 3,
    };
    let fp = run_differential(
        TimeDelta::from_ms(20),
        || SystemBuilder::new().router(RouterKind::ShortestPaths),
        |system| {
            pipeline::generate(&spec, system.machine().spec())
                .expect("generates")
                .apply(system)
                .expect("loads");
        },
    );
    assert!(fp.quiescent, "pipeline must drain under shortest-paths");
    assert_eq!(fp.outputs[5].trim(), pipeline::checksum(&spec).to_string());
}

/// A source that sends `words` words to chanend 0 of `sink` in packets
/// of `packet` words, each closed by END. Word `w` of source `tag` is
/// `tag * 1000 + w`.
fn contending_source(sink: u16, tag: u32, words: u32, packet: u32) -> String {
    let mut src =
        format!("getr r0, chanend\nldc r1, {sink}\nshl r1, r1, 16\nadd r1, r1, 2\nsetd r0, r1\n");
    for w in 0..words {
        src += &format!("ldc r2, {}\nout r0, r2\n", tag * 1000 + w);
        if (w + 1) % packet == 0 || w + 1 == words {
            src += "outct r0, end\n";
        }
    }
    src + "freet\n"
}

/// A sink that reads `words` words from its chanend 0, whatever their
/// packets, sleeping `delay` timer ticks before each token it looks at,
/// and prints their sum.
fn slow_sink(words: u32, delay: u32) -> String {
    format!(
        "
            getr  r0, chanend
            getr  r5, timer
            ldc   r3, {words}
            ldc   r4, 0
        next:
            in    r6, r5
            ldc   r7, {delay}
            add   r6, r6, r7
            tmwait r5, r6
            testct r8, r0
            bf    r8, word
            chkct r0, end
            bu    next
        word:
            in    r1, r0
            add   r4, r4, r1
            sub   r3, r3, 1
            bt    r3, next
            print r4
            freet
        "
    )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, // each case is three whole-machine runs
        .. ProptestConfig::default()
    })]

    /// Contended traffic: two to six sources on random cores send
    /// random-length packets to one or two sinks that read slowly. The
    /// sinks' chanends fill, credit runs out back along the routes, and
    /// packets wait for links and chanends another flow holds — heads
    /// parked on releases, credit and chanend space, which the windowed
    /// engine jumps over. Windowed at one and two threads must match
    /// lock-step exactly, and every sink must sum what it was sent.
    #[test]
    fn contended_sinks_agree_under_every_engine(
        sinks in (0u16..16, 1u16..16, any::<bool>()),
        sources in proptest::collection::vec((0u16..16, any::<bool>(), 1u32..24, 1u32..6), 2..7),
        delays in (0u32..60, 0u32..60),
    ) {
        let (first, offset, two) = sinks;
        let sink_nodes = if two { vec![first, (first + offset) % 16] } else { vec![first] };
        // One program per core: sources on a sink's core or on a core
        // already sending are dropped.
        let mut used = sink_nodes.clone();
        let mut programs = Vec::new();
        let mut sums = vec![(0u32, 0u32); sink_nodes.len()];
        for (tag, &(node, pick, words, packet)) in sources.iter().enumerate() {
            if used.contains(&node) {
                continue;
            }
            used.push(node);
            let sink = usize::from(pick && two);
            let tag = tag as u32 + 1;
            sums[sink].0 += words;
            sums[sink].1 += (0..words).map(|w| tag * 1000 + w).sum::<u32>();
            programs.push((node, contending_source(sink_nodes[sink], tag, words, packet)));
        }
        let delay = [delays.0, delays.1];
        for (i, &node) in sink_nodes.iter().enumerate() {
            if sums[i].0 > 0 {
                programs.push((node, slow_sink(sums[i].0, delay[i])));
            }
        }
        let run = |engine: EngineMode| {
            let mut system = SystemBuilder::new().engine(engine).build().expect("builds");
            for (node, src) in &programs {
                let program = Assembler::new().assemble(src).expect("assembles");
                system.load_program(NodeId(*node), &program).expect("fits");
            }
            let quiescent = system.run_until_quiescent(TimeDelta::from_ms(2));
            Fingerprint::of(&system, quiescent)
        };
        let ls = run(EngineMode::LockStep);
        prop_assert!(ls.quiescent, "the sinks read everything");
        for (i, &node) in sink_nodes.iter().enumerate() {
            if sums[i].0 > 0 {
                prop_assert_eq!(&ls.outputs[node as usize], &format!("{}\n", sums[i].1));
            }
        }
        for threads in [1, 2] {
            let engine = EngineMode::Windowed { threads };
            assert_equivalent(&format!("{engine:?}"), &run(engine), &ls);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10, // each case is two whole-machine runs
        .. ProptestConfig::default()
    })]

    /// Random wake schedules: cores sleep for arbitrary spans and then
    /// must all wake — fast-forward may never jump past a wake instant,
    /// and has to agree with lock-step on when each wake happened.
    #[test]
    fn fast_forward_never_skips_a_wake(
        schedule in proptest::collection::vec((0u16..16, 1u32..60_000), 1..6),
    ) {
        let mut nodes_used = Vec::new();
        let ff = run_default(TimeDelta::from_ms(10), |system| {
            nodes_used.clear();
            for &(node, ticks) in &schedule {
                if nodes_used.contains(&node) {
                    continue; // one sleeper per core
                }
                nodes_used.push(node);
                let program = Assembler::new()
                    .assemble(&format!(
                        "
                            getr  r0, timer
                            in    r1, r0
                            add   r2, r1, {ticks}
                            tmwait r0, r2
                            in    r3, r0
                            lsu   r4, r3, r2
                            print r4
                            freet
                        "
                    ))
                    .expect("assembles");
                system.load_program(NodeId(node), &program).expect("fits");
            }
        });
        prop_assert!(ff.quiescent, "all sleepers must wake and drain");
        for &node in &nodes_used {
            prop_assert_eq!(
                ff.outputs[node as usize].trim(),
                "0",
                "core {} skipped past its wake instant",
                node
            );
        }
    }
}

/// Thread 0's part of a sender or receiver, with `helpers` more threads
/// that each count down from `spin` and exit. With `Some(dest)` thread 0
/// sends `words` words (`tag`, `tag + 1`, …) to chanend 0 of `dest`, then
/// END; with `None` it receives `words` words and the END on its chanend
/// 0 and prints their sum.
fn threaded_peer(dest: Option<u16>, words: u32, tag: u32, helpers: u32, spin: u32) -> String {
    let mut src = String::from("ldap r6, helper\n");
    for _ in 0..helpers {
        src += "tspawn r7, r6, r5\n";
    }
    src += "getr r0, chanend\n";
    src += &match dest {
        Some(node) => format!(
            "ldc r1, {node}\nshl r1, r1, 16\nadd r1, r1, 2\nsetd r0, r1\n\
             ldc r2, {tag}\nldc r3, {words}\n\
             send:\nout r0, r2\nadd r2, r2, 1\nsub r3, r3, 1\nbt r3, send\n\
             outct r0, end\nfreet\n"
        ),
        None => format!(
            "ldc r3, {words}\nldc r4, 0\n\
             recv:\nin r1, r0\nadd r4, r4, r1\nsub r3, r3, 1\nbt r3, recv\n\
             chkct r0, end\nprint r4\nfreet\n"
        ),
    };
    src + &format!("helper:\nldc r8, {spin}\ncount:\nsub r8, r8, 1\nbt r8, count\nfreet\n")
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, // each case is three whole-machine runs
        .. ProptestConfig::default()
    })]

    /// Fast-forward jumps a core with one to three ready threads straight
    /// to its next issue slot. Sender and receiver cores running one to
    /// three threads exchange traffic while a core stall, a brownout and
    /// optionally one core's slower clock move the issue slots off the
    /// grid's rhythm. Windowed at one and two threads must match
    /// lock-step exactly, and every receiver must sum what it was sent.
    #[test]
    fn issue_slot_jumps_agree_under_every_engine(
        pairs in proptest::collection::vec(
            ((0u16..16, 0u16..16), 1u32..40, (0u32..3, 0u32..3), 1u32..300),
            1..5,
        ),
        stall in (0u16..16, 0u64..30, 1u64..6),
        brownout in (0u64..30, 300u32..=900, 1u64..6),
        slow in (any::<bool>(), 0u16..16, 100u64..450),
    ) {
        let mut used = Vec::new();
        let mut programs = Vec::new();
        let mut sums = Vec::new();
        for (i, &((src, dst), words, (src_helpers, dst_helpers), spin)) in pairs.iter().enumerate() {
            if src == dst || used.contains(&src) || used.contains(&dst) {
                continue;
            }
            used.extend([src, dst]);
            let tag = 1000 * (i as u32 + 1);
            programs.push((src, threaded_peer(Some(dst), words, tag, src_helpers, spin)));
            programs.push((dst, threaded_peer(None, words, 0, dst_helpers, spin)));
            sums.push((dst, (0..words).map(|w| tag + w).sum::<u32>()));
        }
        let us = |n: u64| Time::ZERO + TimeDelta::from_us(n);
        let plan = FaultPlan::new()
            .stall_core(us(stall.1), NodeId(stall.0), TimeDelta::from_us(stall.2))
            .brownout(us(brownout.0), brownout.1, TimeDelta::from_us(brownout.2));
        let run = |engine: EngineMode| {
            let mut system = SystemBuilder::new()
                .engine(engine)
                .faults(plan.clone())
                .build()
                .expect("builds");
            if slow.0 {
                system
                    .machine_mut()
                    .set_core_frequency(NodeId(slow.1), Frequency::from_mhz(slow.2));
            }
            for (node, src) in &programs {
                let program = Assembler::new().assemble(src).expect("assembles");
                system.load_program(NodeId(*node), &program).expect("fits");
            }
            let quiescent = system.run_until_quiescent(TimeDelta::from_ms(2));
            Fingerprint::of(&system, quiescent)
        };
        let ls = run(EngineMode::LockStep);
        prop_assert!(ls.quiescent, "every pair finishes");
        for &(node, sum) in &sums {
            prop_assert_eq!(&ls.outputs[node as usize], &format!("{sum}\n"));
        }
        for threads in [1, 2] {
            let engine = EngineMode::Windowed { threads };
            assert_equivalent(&format!("{engine:?}"), &run(engine), &ls);
        }
    }
}
