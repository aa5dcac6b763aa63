//! Parked cores under every catch-up trigger.
//!
//! Inside an advance the machine stops visiting cores that wait for a
//! token ("parked") and catches them up with idle ticks wherever
//! something else touches them. Each test below builds a one-slice relay
//! chain whose stages spend most of their time parked, aims one trigger
//! at them — a delivery right after a power-monitor catch-up, a core
//! fault, a quarantine after a link escalates, a snapshot mid-run — and
//! checks the windowed engine at one and two threads against the
//! lock-step oracle (instret, cycles, `now` and energy exact), and that a
//! repeated windowed run is bit-identical (whole snapshot image). A
//! two-slice scenario whose sources queue behind one shared cable does
//! the same for fast-forward jumps over heads parked on a busy link, and
//! a one-slice scenario whose sources flood a slow sink for heads parked
//! on a link's release, on credit and on a full chanend. Output-parked
//! cores — quiescent, with every pending chanend parked in the fabric —
//! are parked too: flooders blocked on full `out` buffers meet a time
//! wake, releases by flows from lower- and higher-numbered nodes, credit
//! returns, escalations that wake heads ahead of and behind the injection
//! cursor, a core stall, monitor fires and a snapshot, and a circuit that
//! never closes and a retried launch leave parked output with the network
//! empty. A last test pins one ledger total per scenario, bit for bit
//! under every engine, which is what catches a catch-up — or a jump —
//! that adds the right energy in the wrong order, and the windowed
//! engine's window and round counts on a sparse grid, which catch a
//! window that visits fewer cores but negotiates differently.
//!
//! Parked cores stay parked across public advances: a 480-stage relay
//! pipeline must leave cores parked after every `run_for` chunk and still
//! match lock-step chunk by chunk, and `core_mut`, `set_core_frequency`
//! and `load_program` on a core parked across an advance must wake it
//! exactly as lock-step, which never parks, sees the change.

use swallow_board::{EngineMode, Machine, MachineConfig, RouterKind};
use swallow_faults::{FaultKind, FaultPlan};
use swallow_isa::{Assembler, NodeId, Program, Token};
use swallow_noc::Direction;
use swallow_sim::{Frequency, Time, TimeDelta};

/// Words the source pushes down the chain.
const ITEMS: u32 = 6;
/// The chain: source, two relays, sink.
const CHAIN: [u16; 4] = [0, 5, 10, 15];
/// Cores that block on input forever (parked from their first edge).
const WAITERS: [u16; 2] = [3, 12];
/// Cores that spin for ~12 µs, so windows open while others are parked.
const SPINNERS: [u16; 2] = [6, 9];

fn asm(src: &str) -> Program {
    Assembler::new().assemble(src).expect("assembles")
}

/// Sets `reg` to chanend 0 of `node`.
fn dest(reg: &str, node: u16) -> String {
    format!("ldc {reg}, {node}\nshl {reg}, {reg}, 16\nadd {reg}, {reg}, 2\n")
}

/// Sends `ITEMS` words to `next`, sleeping `gap` timer ticks before each.
fn source(next: u16, gap: u32) -> Program {
    asm(&format!(
        "getr r0, chanend\n{}setd r0, r1\ngetr r5, timer\nldc r3, {ITEMS}\nldc r2, 1\n\
         lp:\nin r6, r5\nldc r7, {gap}\nadd r6, r6, r7\ntmwait r5, r6\n\
         out r0, r2\noutct r0, end\nadd r2, r2, 1\nsub r3, r3, 1\nbt r3, lp\nfreet",
        dest("r1", next)
    ))
}

/// Forwards `ITEMS` words to `next`, adding one to each.
fn relay(next: u16) -> Program {
    asm(&format!(
        "getr r0, chanend\ngetr r8, chanend\n{}setd r8, r1\nldc r3, {ITEMS}\n\
         lp:\nin r4, r0\nchkct r0, end\nadd r4, r4, 1\nout r8, r4\noutct r8, end\n\
         sub r3, r3, 1\nbt r3, lp\nfreet",
        dest("r1", next)
    ))
}

/// Sums `ITEMS` words and prints the total.
fn sink() -> Program {
    asm(&format!(
        "getr r0, chanend\nldc r3, {ITEMS}\nldc r4, 0\n\
         lp:\nin r1, r0\nchkct r0, end\nadd r4, r4, r1\nsub r3, r3, 1\nbt r3, lp\n\
         print r4\nfreet"
    ))
}

fn chain_machine(config: MachineConfig) -> Machine {
    let mut machine = Machine::new(config);
    machine
        .load_program(NodeId(CHAIN[0]), &source(CHAIN[1], 150))
        .expect("fits");
    for pair in CHAIN[1..].windows(2) {
        machine
            .load_program(NodeId(pair[0]), &relay(pair[1]))
            .expect("fits");
    }
    machine
        .load_program(NodeId(CHAIN[3]), &sink())
        .expect("fits");
    for &w in &WAITERS {
        machine
            .load_program(NodeId(w), &asm("getr r0, chanend\nin r1, r0\nfreet"))
            .expect("fits");
    }
    for &s in &SPINNERS {
        machine
            .load_program(
                NodeId(s),
                &asm("ldc r1, 750\nlp:\nsub r1, r1, 1\nbt r1, lp\nfreet"),
            )
            .expect("fits");
    }
    machine
}

fn t(us: u64) -> Time {
    Time::ZERO + TimeDelta::from_us(us)
}

/// What must agree between engines.
#[derive(Debug, PartialEq)]
struct Outcome {
    quiescent: bool,
    now: Time,
    instret: u64,
    cycles: Vec<u64>,
    outputs: Vec<String>,
    halted: Vec<bool>,
    energy_j: f64,
}

fn outcome(machine: &Machine, quiescent: bool) -> Outcome {
    let nodes: Vec<NodeId> = machine.nodes().collect();
    Outcome {
        quiescent,
        now: machine.now(),
        instret: machine.total_instret(),
        cycles: nodes.iter().map(|&n| machine.core(n).cycles()).collect(),
        outputs: nodes
            .iter()
            .map(|&n| machine.core(n).output().to_owned())
            .collect(),
        halted: nodes.iter().map(|&n| machine.core(n).is_halted()).collect(),
        energy_j: machine.machine_ledger().total().as_joules(),
    }
}

/// Runs `build` under `engine` to quiescence (or 200 µs), in 3 µs
/// chunks so every chunk boundary is a catch-up point too.
fn drive(build: &dyn Fn(EngineMode) -> Machine, engine: EngineMode) -> (Machine, bool) {
    let mut machine = build(engine);
    let mut quiescent = false;
    while !quiescent && machine.now() < t(200) {
        machine.run_for(TimeDelta::from_us(3));
        quiescent = machine.run_until_quiescent(TimeDelta::ZERO);
    }
    (machine, quiescent)
}

/// [`drive`], reduced to what must agree and the snapshot image.
fn run(build: &dyn Fn(EngineMode) -> Machine, engine: EngineMode) -> (Outcome, Vec<u8>) {
    let (machine, quiescent) = drive(build, engine);
    (outcome(&machine, quiescent), machine.snapshot())
}

/// Windowed{1,2} against lock-step, each windowed run twice.
fn assert_engines_agree(build: &dyn Fn(EngineMode) -> Machine) -> Outcome {
    let (oracle, _) = run(build, EngineMode::LockStep);
    for threads in [1, 2] {
        let engine = EngineMode::Windowed { threads };
        let (got, image) = run(build, engine);
        assert_eq!(got.quiescent, oracle.quiescent, "{engine:?}");
        assert_eq!(got.now, oracle.now, "{engine:?}: now");
        assert_eq!(got.instret, oracle.instret, "{engine:?}: instret");
        assert_eq!(got.cycles, oracle.cycles, "{engine:?}: cycles");
        assert_eq!(got.outputs, oracle.outputs, "{engine:?}: outputs");
        assert_eq!(got.halted, oracle.halted, "{engine:?}: halted");
        assert_eq!(
            got.energy_j.to_bits(),
            oracle.energy_j.to_bits(),
            "{engine:?}: energy {:e} J vs lock-step {:e} J",
            got.energy_j,
            oracle.energy_j
        );
        let (again, again_image) = run(build, engine);
        assert_eq!(again, got, "{engine:?}: repeated run differs");
        assert!(
            again_image == image,
            "{engine:?}: repeated snapshot differs"
        );
    }
    oracle
}

/// The sink's total: every item passed two relays, each adding one.
fn sink_output() -> String {
    format!("{}\n", (1..=ITEMS).map(|i| i + 2).sum::<u32>())
}

#[test]
fn tokens_reach_parked_cores_right_after_monitor_catch_ups() {
    // Short monitor windows put a catch-up of every parked core on every
    // edge, or every other or third edge, so deliveries to the parked
    // relays and sink land on the edge right after one.
    for window_ns in [2, 4, 6, 1_000] {
        let build = |engine: EngineMode| {
            chain_machine(MachineConfig {
                engine,
                monitor_window: TimeDelta::from_ns(window_ns),
                ..MachineConfig::one_slice()
            })
        };
        let oracle = assert_engines_agree(&build);
        assert!(oracle.quiescent, "everyone but the waiters finishes");
        assert_eq!(oracle.outputs[CHAIN[3] as usize], sink_output());
    }
}

#[test]
fn core_faults_land_on_parked_cores() {
    let relay = NodeId(CHAIN[1]);
    let waiter = NodeId(WAITERS[0]);
    // Each fault lands while its target waits for a token: the relay
    // between items, the waiter forever, every core under the brownout.
    let plans = [
        FaultPlan::new().kill_core(t(2), waiter),
        FaultPlan::new().stall_core(t(2), relay, TimeDelta::from_ns(700)),
        FaultPlan::new().brownout(t(2), 600, TimeDelta::from_us(3)),
    ];
    for plan in plans {
        let build = |engine: EngineMode| {
            chain_machine(MachineConfig {
                engine,
                faults: plan.clone(),
                ..MachineConfig::one_slice()
            })
        };
        // The scenario's premise: both targets are parked just before.
        let mut probe = build(EngineMode::LockStep);
        probe.run_for(TimeDelta::from_ns(1_990));
        for node in [relay, waiter] {
            let core = probe.core(node);
            assert!(core.is_quiescent() && !core.is_halted() && !core.has_tx_pending());
        }
        let oracle = assert_engines_agree(&build);
        assert_eq!(oracle.outputs[CHAIN[3] as usize], sink_output());
        let kills = plan
            .events()
            .iter()
            .any(|e| matches!(e.kind, FaultKind::CoreKill(_)));
        assert_eq!(oracle.halted[waiter.raw() as usize], kills);
    }
}

/// The quarantine scenario: at 1 µs the second waiter is cut off to a
/// single inbound link, on which tokens are then dropped. A second
/// source's packet to the waiter keeps retrying its END token until the
/// link escalates to dead, and the reroute quarantines the waiter —
/// parked all along. Returns the machine and the number of links that
/// touch the waiter.
fn escalation_machine(engine: EngineMode) -> (Machine, usize) {
    let waiter = NodeId(WAITERS[1]);
    let probe = Machine::new(MachineConfig::one_slice());
    let touching: Vec<_> = probe
        .link_descs()
        .iter()
        .filter(|d| d.from == waiter || d.to == waiter)
        .copied()
        .collect();
    let inbound = touching
        .iter()
        .find(|d| d.to == waiter && touching.iter().filter(|e| e.from == d.from).count() == 1)
        .expect("the waiter has a neighbour with a single link to it");
    let keep_back = touching
        .iter()
        .find(|d| d.from == waiter && d.to == inbound.from)
        .expect("a link back to that neighbour");
    let mut plan = FaultPlan::new();
    for d in &touching {
        if d.id != inbound.id && d.id != keep_back.id {
            plan = plan.link_down(t(1), d.id);
        }
    }
    plan = plan.drop_window(t(1), inbound.id, TimeDelta::from_us(20));
    let mut machine = chain_machine(MachineConfig {
        engine,
        faults: plan,
        router: RouterKind::ShortestPaths,
        ..MachineConfig::one_slice()
    });
    machine
        .load_program(
            NodeId(13),
            &asm(&format!(
                "getr r0, chanend\n{}setd r0, r1\ngetr r5, timer\nin r6, r5\nldc r7, 200\n\
                 add r6, r6, r7\ntmwait r5, r6\nldc r2, 9\nout r0, r2\noutct r0, end\nfreet",
                dest("r1", waiter.raw())
            )),
        )
        .expect("fits");
    (machine, touching.len())
}

#[test]
fn escalated_link_quarantines_a_parked_core() {
    let oracle = assert_engines_agree(&|engine| escalation_machine(engine).0);
    assert!(
        oracle.halted[WAITERS[1] as usize],
        "the waiter is quarantined"
    );
    let (mut check, touching) = escalation_machine(EngineMode::Windowed { threads: 1 });
    check.run_for(TimeDelta::from_us(30));
    let faults = check.fault_counters();
    assert_eq!(faults.quarantined_cores, 1, "{faults:?}");
    assert!(
        faults.link_downs > touching as u64 - 2,
        "the inbound link escalated"
    );
}

#[test]
fn snapshot_with_parked_cores_continues_bit_identically() {
    for engine in [
        EngineMode::LockStep,
        EngineMode::Windowed { threads: 1 },
        EngineMode::Windowed { threads: 2 },
    ] {
        let build = |engine: EngineMode| {
            chain_machine(MachineConfig {
                engine,
                ..MachineConfig::one_slice()
            })
        };
        let mut original = build(engine);
        original.run_for(TimeDelta::from_ns(2_345));
        let image = original.snapshot();
        let mut restored = Machine::restore(&image).expect("own snapshot restores");
        assert_eq!(restored.snapshot(), image);
        for machine in [&mut original, &mut restored] {
            machine.run_for(TimeDelta::from_us(4));
            machine.run_until_quiescent(TimeDelta::from_us(50));
        }
        assert_eq!(
            outcome(&restored, false),
            outcome(&original, false),
            "{engine:?}"
        );
        assert!(restored.snapshot() == original.snapshot(), "{engine:?}");
    }
    let oracle = assert_engines_agree(&|engine| {
        let mut machine = chain_machine(MachineConfig {
            engine,
            ..MachineConfig::one_slice()
        });
        machine.run_for(TimeDelta::from_ns(2_345));
        Machine::restore(&machine.snapshot()).expect("own snapshot restores")
    });
    assert_eq!(oracle.outputs[CHAIN[3] as usize], sink_output());
}

/// The relay chain with a monitor cadence and a fault plan.
fn chain_with(engine: EngineMode, monitor_ns: u64, faults: FaultPlan) -> Machine {
    chain_machine(MachineConfig {
        engine,
        monitor_window: TimeDelta::from_ns(monitor_ns),
        faults,
        ..MachineConfig::one_slice()
    })
}

/// One spinner and one core that alternates short spins with timer
/// sleeps, the other cores idle from the start. While the second sleeps
/// the machine steps edge by edge (one runnable core opens no window) and
/// the idle cores stay parked; when it wakes, a window opens over them.
fn compute_machine(engine: EngineMode) -> Machine {
    let mut machine = Machine::new(MachineConfig {
        engine,
        ..MachineConfig::one_slice()
    });
    machine
        .load_program(
            NodeId(1),
            &asm("ldc r1, 1200\nlp:\nsub r1, r1, 1\nbt r1, lp\nfreet"),
        )
        .expect("fits");
    let sleepy = "getr r5, timer\nldc r3, 12\nround:\nldc r1, 25\nlp:\nsub r1, r1, 1\nbt r1, lp\n\
                  in r6, r5\nldc r7, 30\nadd r6, r6, r7\ntmwait r5, r6\nsub r3, r3, 1\nbt r3, round\nfreet";
    machine.load_program(NodeId(9), &asm(sleepy)).expect("fits");
    machine
}

/// Sources on slice 0 that both stream to sinks on slice 1 of a 2×1
/// grid.
const CONGESTED: [(u16, u16); 2] = [(3, 11), (5, 13)];

/// Two sources whose routes share the slow inter-slice cable between
/// nodes 7 and 9 (and the board link 5 → 7 before it), sending
/// back-to-back. Their chanends and the switch queues in front of the
/// cable spend most of the run waiting on a busy link: time-parked heads.
fn congested_machine(engine: EngineMode) -> Machine {
    let mut machine = Machine::new(MachineConfig {
        engine,
        ..MachineConfig::grid(2, 1)
    });
    for (src, dst) in CONGESTED {
        machine
            .load_program(NodeId(src), &source(dst, 1))
            .expect("fits");
        machine.load_program(NodeId(dst), &sink()).expect("fits");
    }
    machine
}

#[test]
fn congested_sources_park_heads_behind_the_shared_cable() {
    let mut machine = congested_machine(EngineMode::LockStep);
    let mut parked = 0;
    while machine.now() < t(200) && !machine.is_quiescent() {
        machine.step();
        parked = parked.max(machine.fabric().parked_heads());
    }
    assert!(parked > 0, "no head ever parked");
    let oracle = assert_engines_agree(&congested_machine);
    assert!(oracle.quiescent);
    let total = format!("{}\n", (1..=ITEMS).sum::<u32>());
    for (_, dst) in CONGESTED {
        assert_eq!(machine.core(NodeId(dst)).output(), total);
        assert_eq!(oracle.outputs[dst as usize], total);
    }
}

/// Sources that flood one slow sink on a one-slice machine.
const FLOODERS: [u16; 2] = [0, 5];
/// The slow sink.
const SLOW_SINK: u16 = 15;
/// Words each flooder sends.
const FLOOD_ITEMS: u32 = 16;

/// Sends `FLOOD_ITEMS` one-word packets to `next` back to back.
fn flooder(next: u16) -> Program {
    asm(&format!(
        "getr r0, chanend\n{}setd r0, r1\nldc r3, {FLOOD_ITEMS}\nldc r2, 1\n\
         lp:\nout r0, r2\noutct r0, end\nadd r2, r2, 1\nsub r3, r3, 1\nbt r3, lp\nfreet",
        dest("r1", next)
    ))
}

/// Sums `words` one-word packets, sleeping `gap` timer ticks before
/// each read, and prints the total.
fn slow_sink(words: u32, gap: u32) -> Program {
    asm(&format!(
        "getr r0, chanend\ngetr r5, timer\nldc r3, {words}\nldc r4, 0\n\
         lp:\nin r6, r5\nldc r7, {gap}\nadd r6, r6, r7\ntmwait r5, r6\n\
         in r1, r0\nchkct r0, end\nadd r4, r4, r1\nsub r3, r3, 1\nbt r3, lp\n\
         print r4\nfreet"
    ))
}

/// Two flooders share one slow sink's chanend. The sink's input buffer
/// fills, credit runs out back along both routes, and the packets of
/// the two flows queue for the links and the chanend the other holds:
/// heads wait on chanend space, credit and ownership.
fn backpressured_machine(engine: EngineMode) -> Machine {
    let mut machine = Machine::new(MachineConfig {
        engine,
        ..MachineConfig::one_slice()
    });
    for src in FLOODERS {
        machine
            .load_program(NodeId(src), &flooder(SLOW_SINK))
            .expect("fits");
    }
    let words = FLOOD_ITEMS * FLOODERS.len() as u32;
    machine
        .load_program(NodeId(SLOW_SINK), &slow_sink(words, 200))
        .expect("fits");
    machine
}

#[test]
fn backpressured_sink_agrees_under_every_engine() {
    let oracle = assert_engines_agree(&backpressured_machine);
    assert!(oracle.quiescent);
    let total = FLOODERS.len() as u32 * (1..=FLOOD_ITEMS).sum::<u32>();
    assert_eq!(oracle.outputs[SLOW_SINK as usize], format!("{total}\n"));
}

/// Number of lock-step edges, until quiescence or 200 µs, on which
/// `node` is *output-parked*: quiescent (its thread blocked on a full
/// `out` buffer, or finished) with pending output whose every chanend
/// is parked in the fabric. The windowed engine stops visiting such a
/// core until the fabric wakes one of its heads.
fn output_parked_edges(build: &dyn Fn(EngineMode) -> Machine, node: u16) -> usize {
    let mut machine = build(EngineMode::LockStep);
    let node = NodeId(node);
    let mut edges = 0;
    while machine.now() < t(200) && !machine.is_quiescent() {
        machine.step();
        let core = machine.core(node);
        let pending = core.tx_pending_count();
        if core.is_quiescent() && machine.fabric().tx_all_parked(node, pending) {
            edges += 1;
        }
    }
    edges
}

/// Flooders, each sending `FLOOD_ITEMS` one-word packets back to back
/// to chanend 0 of its sink, which sums them reading one word every
/// `gap` timer ticks, on a one-slice machine built with `config`.
fn flood_machine(config: MachineConfig, flows: &[(u16, u16)], gap: u32) -> Machine {
    let mut machine = Machine::new(config);
    for &(src, dst) in flows {
        machine
            .load_program(NodeId(src), &flooder(dst))
            .expect("fits");
        machine
            .load_program(NodeId(dst), &slow_sink(FLOOD_ITEMS, gap))
            .expect("fits");
    }
    machine
}

/// A lone flooder two chips away from a sink that reads as fast as it
/// can. Its thread fills the `out` buffer and blocks, and its head waits
/// on its own flow's busy link: time-parked, so the core is
/// output-parked until `wake_due` returns the head on the edge the link
/// frees, where it injects at once — and that pop wakes the thread.
const LONE_FLOW: [(u16, u16); 1] = [(0, 15)];

fn lone_flooder(engine: EngineMode) -> Machine {
    flood_machine(
        MachineConfig {
            engine,
            ..MachineConfig::one_slice()
        },
        &LONE_FLOW,
        1,
    )
}

#[test]
fn time_parked_output_injects_on_its_wake_edge() {
    assert!(output_parked_edges(&lone_flooder, LONE_FLOW[0].0) > 0);
    let oracle = assert_engines_agree(&lone_flooder);
    assert!(oracle.quiescent);
    let total = (1..=FLOOD_ITEMS).sum::<u32>();
    assert_eq!(
        oracle.outputs[LONE_FLOW[0].1 as usize],
        format!("{total}\n")
    );
}

/// Four flooders whose routes share links. The flow from node 1 crosses
/// node 9's switch and the flow from node 15 node 13's, each on the very
/// link that node's own flow leaves by, so the sources at 9 and 13 wait
/// for the release of their first link by a flow from a lower- and from
/// a higher-numbered node; the sinks read slowly, so credit backs up
/// along the shared links and each pop in the forward pass returns one.
const CROSSING_FLOWS: [(u16, u16); 4] = [(1, 14), (9, 12), (15, 8), (13, 10)];

fn crossing_flooders(engine: EngineMode) -> Machine {
    flood_machine(
        MachineConfig {
            engine,
            ..MachineConfig::one_slice()
        },
        &CROSSING_FLOWS,
        40,
    )
}

#[test]
fn released_and_credited_output_wakes_parked_sources() {
    for (src, _) in CROSSING_FLOWS {
        assert!(output_parked_edges(&crossing_flooders, src) > 0, "{src}");
    }
    let oracle = assert_engines_agree(&crossing_flooders);
    assert!(oracle.quiescent);
    let total = (1..=FLOOD_ITEMS).sum::<u32>();
    for (_, dst) in CROSSING_FLOWS {
        assert_eq!(oracle.outputs[dst as usize], format!("{total}\n"));
    }
}

/// The crossing flooders with a fault plan and a monitor cadence that
/// land while sources are output-parked: a stall of the source at node
/// 9, monitor fires every `monitor_ns` and, with `escalate = Some((from,
/// to))`, a corruption window on the link from `from` to `to` that the
/// flows have taken, long enough to escalate it to dead. The escalating
/// launch wakes every parked head in mid-pass — a source's own first
/// link wakes the heads of higher-numbered sources ahead of the
/// injection cursor and of lower-numbered ones behind it — and the
/// reroute wakes them all again after the step.
fn faulted_flooders(engine: EngineMode, monitor_ns: u64, escalate: Option<(u16, u16)>) -> Machine {
    let config = |faults: FaultPlan| MachineConfig {
        engine,
        monitor_window: TimeDelta::from_ns(monitor_ns),
        faults,
        ..MachineConfig::one_slice()
    };
    let mut plan = FaultPlan::new().stall_core(t(3), NodeId(9), TimeDelta::from_ns(900));
    if let Some((from, to)) = escalate {
        let mut probe = flood_machine(config(FaultPlan::new()), &CROSSING_FLOWS, 40);
        probe.run_for(TimeDelta::from_us(1));
        let taken = probe
            .fabric()
            .link_stats()
            .find(|l| l.from == NodeId(from) && l.to == NodeId(to) && l.header_tokens > 0)
            .expect("a flow has opened a route over the link")
            .id;
        plan = plan.corrupt_window(t(2), taken, TimeDelta::from_us(5));
    }
    flood_machine(config(plan), &CROSSING_FLOWS, 40)
}

#[test]
fn faults_and_monitor_fires_land_on_output_parked_cores() {
    let cases = [
        (1_000, None),
        (1_000, Some((1, 0))),
        (6, None),
        (4, Some((9, 11))),
        (1_000, Some((15, 13))),
    ];
    for (monitor_ns, escalate) in cases {
        let build = |engine| faulted_flooders(engine, monitor_ns, escalate);
        let oracle = assert_engines_agree(&build);
        let (machine, _) = drive(&build, EngineMode::Windowed { threads: 1 });
        let faults = machine.fault_counters();
        assert_eq!(faults.core_stalls, 1, "{faults:?}");
        assert_eq!(faults.link_downs > 0, escalate.is_some(), "{faults:?}");
        if escalate.is_none() {
            assert!(oracle.quiescent);
            let total = (1..=FLOOD_ITEMS).sum::<u32>();
            for (_, dst) in CROSSING_FLOWS {
                assert_eq!(oracle.outputs[dst as usize], format!("{total}\n"));
            }
        }
    }
}

#[test]
fn snapshot_with_output_parked_cores_continues_bit_identically() {
    // 2.5 µs in, the crossing sources are blocked on full `out` buffers.
    let at = TimeDelta::from_ns(2_500);
    let mut probe = crossing_flooders(EngineMode::LockStep);
    probe.run_for(at);
    assert!(CROSSING_FLOWS.iter().any(|&(src, _)| {
        let core = probe.core(NodeId(src));
        core.is_quiescent()
            && probe
                .fabric()
                .tx_all_parked(NodeId(src), core.tx_pending_count())
    }));
    for engine in [
        EngineMode::LockStep,
        EngineMode::Windowed { threads: 1 },
        EngineMode::Windowed { threads: 2 },
    ] {
        let mut original = crossing_flooders(engine);
        original.run_for(at);
        let image = original.snapshot();
        let mut restored = Machine::restore(&image).expect("own snapshot restores");
        assert_eq!(restored.snapshot(), image);
        for machine in [&mut original, &mut restored] {
            machine.run_for(TimeDelta::from_us(3));
            machine.run_until_quiescent(TimeDelta::from_us(150));
        }
        assert_eq!(
            outcome(&restored, false),
            outcome(&original, false),
            "{engine:?}"
        );
        assert!(restored.snapshot() == original.snapshot(), "{engine:?}");
    }
    let oracle = assert_engines_agree(&|engine| {
        let mut machine = crossing_flooders(engine);
        machine.run_for(at);
        Machine::restore(&machine.snapshot()).expect("own snapshot restores")
    });
    assert!(oracle.quiescent);
}

/// Sleeps `ticks` timer ticks, then sends a one-word packet to `next`
/// and finishes with the output still queued.
fn late_sender(next: u16, ticks: u32) -> Program {
    asm(&format!(
        "getr r0, chanend\n{}setd r0, r1\ngetr r5, timer\nin r6, r5\nldc r7, {ticks}\n\
         add r6, r6, r7\ntmwait r5, r6\nldc r2, 5\nout r0, r2\noutct r0, end\nfreet",
        dest("r1", next)
    ))
}

/// Prints the one word of one packet.
fn one_word_sink() -> Program {
    asm("getr r0, chanend\nin r1, r0\nchkct r0, end\nprint r1\nfreet")
}

/// A circuit that never closes: node 1 opens a route to node 14 with one
/// word, sends no END and blocks on input forever, so its flow owns every
/// link of the route once the word is delivered and the network is
/// empty. Node 9 then sends a packet whose only link out of its switch is
/// on that route: its head waits for a release that never comes, and its
/// core is output-parked. Lock-step never calls this machine quiescent.
fn circuit_machine(engine: EngineMode) -> Machine {
    let mut machine = Machine::new(MachineConfig {
        engine,
        ..MachineConfig::one_slice()
    });
    let holder = format!(
        "getr r0, chanend\n{}setd r0, r1\nldc r2, 7\nout r0, r2\n\
         getr r3, chanend\nin r4, r3\nfreet",
        dest("r1", 14)
    );
    machine
        .load_program(NodeId(1), &asm(&holder))
        .expect("fits");
    machine
        .load_program(
            NodeId(14),
            &asm("getr r0, chanend\nin r1, r0\nprint r1\nin r1, r0\nfreet"),
        )
        .expect("fits");
    machine
        .load_program(NodeId(9), &late_sender(12, 200))
        .expect("fits");
    machine
        .load_program(NodeId(12), &one_word_sink())
        .expect("fits");
    machine
}

/// A lone packet that meets a corruption window on its first link while
/// two spinners run: every failed launch leaves the link busy for a
/// token time with nothing on the wire, so the head time-parks with the
/// network empty and the finished sender output-parked, while two
/// runnable cores would otherwise let a window open over the wake.
fn retry_machine(engine: EngineMode) -> Machine {
    let build = |engine: EngineMode, faults: FaultPlan| {
        let mut machine = Machine::new(MachineConfig {
            engine,
            faults,
            ..MachineConfig::one_slice()
        });
        machine
            .load_program(NodeId(0), &late_sender(15, 100))
            .expect("fits");
        machine
            .load_program(NodeId(15), &one_word_sink())
            .expect("fits");
        for &s in &SPINNERS {
            machine
                .load_program(
                    NodeId(s),
                    &asm("ldc r1, 750\nlp:\nsub r1, r1, 1\nbt r1, lp\nfreet"),
                )
                .expect("fits");
        }
        machine
    };
    let mut probe = build(EngineMode::LockStep, FaultPlan::new());
    probe.run_for(TimeDelta::from_us(3));
    let first = probe
        .fabric()
        .link_stats()
        .find(|l| l.from == NodeId(0) && l.header_tokens > 0)
        .expect("the packet has left node 0")
        .id;
    let plan = FaultPlan::new().corrupt_window(t(1), first, TimeDelta::from_ns(300));
    build(engine, plan)
}

/// Lock-step edges, until quiescence or 200 µs, on which the network is
/// empty while some head is parked.
fn parked_with_empty_network(build: &dyn Fn(EngineMode) -> Machine) -> usize {
    let mut machine = build(EngineMode::LockStep);
    let mut edges = 0;
    while machine.now() < t(200) && !machine.is_quiescent() {
        machine.step();
        let fabric = machine.fabric();
        if fabric.tokens_in_network() == 0 && fabric.parked_heads() > 0 {
            edges += 1;
        }
    }
    edges
}

#[test]
fn parked_output_with_an_empty_network_is_neither_quiescent_nor_windowed() {
    assert!(output_parked_edges(&circuit_machine, 9) > 0);
    assert!(parked_with_empty_network(&circuit_machine) > 0);
    let oracle = assert_engines_agree(&circuit_machine);
    assert!(!oracle.quiescent, "node 9's packet waits forever");
    assert_eq!(oracle.now, t(201));
    assert_eq!(oracle.outputs[14], "7\n");
    // Inside one advance, too, the parked output keeps the machine from
    // counting as quiescent.
    for engine in [
        EngineMode::LockStep,
        EngineMode::Windowed { threads: 1 },
        EngineMode::Windowed { threads: 2 },
    ] {
        let mut machine = circuit_machine(engine);
        assert!(!machine.run_until_quiescent(TimeDelta::from_us(50)));
        assert_eq!(machine.now(), t(50), "{engine:?}");
    }

    assert!(parked_with_empty_network(&retry_machine) > 0);
    let oracle = assert_engines_agree(&retry_machine);
    assert!(oracle.quiescent);
    assert_eq!(oracle.outputs[15], "5\n");
    let (machine, _) = drive(&retry_machine, EngineMode::Windowed { threads: 1 });
    let faults = machine.fault_counters();
    assert!(
        faults.retransmits > 0 && faults.link_downs == 0,
        "{faults:?}"
    );
}

/// The relay chain with both spinners on a 200 MHz clock. While tokens
/// move and the only ready cores are the slow spinners, the fast-forward
/// step jumps to a spinner's next issue slot, passing over its own idle
/// ticks, which the jump must still charge as lock-step does.
fn slow_spinners_machine(engine: EngineMode) -> Machine {
    let mut machine = chain_with(engine, 1_000, FaultPlan::new());
    for &s in &SPINNERS {
        machine.set_core_frequency(NodeId(s), Frequency::from_mhz(200));
    }
    machine
}

/// A sparse 2×1 grid: a long spinner on each slice, a core that sleeps
/// on a timer whose wake falls inside a negotiated window, a core that
/// halts partway through one, and 28 unloaded cores. Windows open over
/// both shards while most cores have nothing to do.
fn sparse_machine(engine: EngineMode) -> Machine {
    sparse_with(engine, FaultPlan::new())
}

fn sparse_with(engine: EngineMode, faults: FaultPlan) -> Machine {
    let mut machine = Machine::new(MachineConfig {
        engine,
        faults,
        ..MachineConfig::grid(2, 1)
    });
    let spin = asm("ldc r1, 900\nlp:\nsub r1, r1, 1\nbt r1, lp\nfreet");
    for node in [1, 17] {
        machine.load_program(NodeId(node), &spin).expect("fits");
    }
    let sleeper = "ldc r1, 40\nlp:\nsub r1, r1, 1\nbt r1, lp\ngetr r5, timer\nin r6, r5\n\
                   ldc r7, 437\nadd r6, r6, r7\ntmwait r5, r6\nldc r1, 60\nlp2:\nsub r1, r1, 1\n\
                   bt r1, lp2\nfreet";
    machine
        .load_program(NodeId(20), &asm(sleeper))
        .expect("fits");
    let halter = asm("ldc r1, 211\nlp:\nsub r1, r1, 1\nbt r1, lp\nhalt");
    machine.load_program(NodeId(6), &halter).expect("fits");
    machine
}

/// The sparse grid with an inter-slice cable and an on-chip link
/// hot-unplugged at 4.5 µs, inside a monitor window. The reroute leaves
/// the lookahead as it was (token times never change), so the windows
/// after it negotiate exactly as before. No traffic crosses either link,
/// so the ledger total is the sparse row's; the fault only splits one
/// window.
fn rerouted_sparse_machine(engine: EngineMode) -> Machine {
    let probe = Machine::new(MachineConfig::grid(2, 1));
    let spec = probe.spec();
    let cores = probe.core_count();
    let descs = probe.link_descs();
    let cable = descs
        .iter()
        .find(|d| {
            (d.from.raw() as usize) < cores
                && (d.to.raw() as usize) < cores
                && spec.slice_of(d.from) != spec.slice_of(d.to)
        })
        .expect("an FFC cable");
    let on_chip = descs
        .iter()
        .find(|d| d.dir == Direction::Internal)
        .expect("an on-chip link");
    let at = Time::ZERO + TimeDelta::from_ns(4_500);
    let plan = FaultPlan::new()
        .link_down(at, cable.id)
        .link_down(at, on_chip.id);
    sparse_with(engine, plan)
}

/// Ledger totals of nine scenarios, one value each, the same bits under
/// lock-step and windowed at one and two threads. Every engine adds each
/// core's per-edge charges in lock-step's order (a catch-up or a
/// closed-form run of idle edges performs the very additions of the
/// edges it replaces), so one changed bit here means some path changed
/// the arithmetic. The sparse row also pins `negotiation_stats()`: not
/// waking parked cores when a window opens, and skipping cores with
/// nothing to do inside it, must leave which windows open and how many
/// watermark rounds each shard runs unchanged. The rerouted row pins them
/// across a reroute mid-run, which splits one window and changes no
/// horizon: its two-thread rounds equal the sparse row's.
#[test]
fn ledger_totals_are_pinned_bit_for_bit() {
    type Build = Box<dyn Fn(EngineMode) -> Machine>;
    type Stats = Option<[(u64, u64); 3]>;
    let scenarios: [(&str, Build, u64, Stats); 9] = [
        (
            "compute",
            Box::new(compute_machine),
            0x3f0df78541d1d8d5,
            None,
        ),
        (
            "chain",
            Box::new(|e| chain_with(e, 1_000, FaultPlan::new())),
            0x3f05d0745b299dac,
            None,
        ),
        (
            "brownout",
            Box::new(|e| {
                let plan = FaultPlan::new().brownout(t(2), 600, TimeDelta::from_us(3));
                chain_with(e, 1_000, plan)
            }),
            0x3f0369dc1ecf5a8c,
            None,
        ),
        (
            "quarantine",
            Box::new(|e| escalation_machine(e).0),
            0x3f053e8c2cddd96e,
            None,
        ),
        (
            "congested",
            Box::new(congested_machine),
            0x3f183167fc9faead,
            None,
        ),
        (
            "backpressured",
            Box::new(backpressured_machine),
            0x3f2791467d17bed4,
            None,
        ),
        (
            "slow spinners",
            Box::new(slow_spinners_machine),
            0x3f16bf1f259615a3,
            None,
        ),
        (
            "sparse",
            Box::new(sparse_machine),
            0x3f14f49d84c62bc3,
            Some([(0, 0), (15, 434), (15, 868)]),
        ),
        (
            "rerouted",
            Box::new(rerouted_sparse_machine),
            0x3f14f49d84c62bc3,
            Some([(0, 0), (16, 434), (16, 868)]),
        ),
    ];
    let engines = [
        EngineMode::LockStep,
        EngineMode::Windowed { threads: 1 },
        EngineMode::Windowed { threads: 2 },
    ];
    for (name, build, want, stats) in &scenarios {
        for (i, &engine) in engines.iter().enumerate() {
            let (machine, quiescent) = drive(build.as_ref(), engine);
            let energy_j = outcome(&machine, quiescent).energy_j;
            let bits = energy_j.to_bits();
            assert_eq!(
                bits, *want,
                "{name} under {engine:?}: {bits:#x} ({energy_j:e} J)"
            );
            if let Some(stats) = stats {
                assert_eq!(
                    machine.negotiation_stats(),
                    stats[i],
                    "{name} under {engine:?}: (windows, rounds)"
                );
            }
        }
    }
}

/// Words the 480-stage pipeline carries.
const PIPELINE_ITEMS: u32 = 2;

/// Sends `PIPELINE_ITEMS` words to `next` (values 1, 2, …).
fn pipeline_source(next: u16) -> Program {
    asm(&format!(
        "getr r0, chanend\n{}setd r0, r1\nldc r3, {PIPELINE_ITEMS}\nldc r2, 1\n\
         lp:\nout r0, r2\noutct r0, end\nadd r2, r2, 1\nsub r3, r3, 1\nbt r3, lp\nfreet",
        dest("r1", next)
    ))
}

/// Forwards `PIPELINE_ITEMS` words to `next`, adding one to each.
fn pipeline_relay(next: u16) -> Program {
    asm(&format!(
        "getr r0, chanend\ngetr r8, chanend\n{}setd r8, r1\nldc r3, {PIPELINE_ITEMS}\n\
         lp:\nin r4, r0\nchkct r0, end\nadd r4, r4, 1\nout r8, r4\noutct r8, end\n\
         sub r3, r3, 1\nbt r3, lp\nfreet",
        dest("r1", next)
    ))
}

/// A relay pipeline through every core of the 6×5 grid in node order:
/// a source at node 0, 478 relays and a sink at node 479. Almost every
/// stage waits on its input for most of the run.
fn pipeline_480(engine: EngineMode) -> Machine {
    let mut machine = Machine::new(MachineConfig {
        engine,
        ..MachineConfig::grid(6, 5)
    });
    let last = machine.core_count() as u16 - 1;
    machine
        .load_program(NodeId(0), &pipeline_source(1))
        .expect("fits");
    for node in 1..last {
        machine
            .load_program(NodeId(node), &pipeline_relay(node + 1))
            .expect("fits");
    }
    let sink = asm(&format!(
        "getr r0, chanend\nldc r3, {PIPELINE_ITEMS}\nldc r4, 0\n\
         lp:\nin r1, r0\nchkct r0, end\nadd r4, r4, r1\nsub r3, r3, 1\nbt r3, lp\n\
         print r4\nfreet"
    ));
    machine.load_program(NodeId(last), &sink).expect("fits");
    machine
}

/// Public advances end with the parked cores caught up but still
/// parked: after every 2 µs chunk of the 480-stage pipeline most stages
/// are parked under the windowed engine (lock-step parks none), and the
/// machine still matches lock-step exactly at every chunk boundary.
#[test]
fn pipeline_stages_stay_parked_across_run_for_chunks() {
    let chunk = TimeDelta::from_us(2);
    let mut oracle = pipeline_480(EngineMode::LockStep);
    let mut machines: Vec<Machine> = [1, 2]
        .map(|threads| pipeline_480(EngineMode::Windowed { threads }))
        .into();
    for _ in 0..4 {
        oracle.run_for(chunk);
        assert!(oracle.nodes().all(|n| !oracle.is_parked(n)));
        let want = outcome(&oracle, false);
        for machine in &mut machines {
            machine.run_for(chunk);
            let parked = machine.nodes().filter(|&n| machine.is_parked(n)).count();
            assert!(
                parked > machine.core_count() / 2,
                "only {parked} of {} cores parked at {:?}",
                machine.core_count(),
                machine.now()
            );
            assert_eq!(outcome(machine, false), want);
        }
    }
}

/// A change to a parked core between advances: deliver a word straight
/// into a waiter's chanend through `core_mut` (its `in` completes), slow
/// it with `set_core_frequency`, or give it a new program. The waiter
/// stayed parked across the advance before, and each change must leave
/// every engine matching lock-step.
#[test]
fn changes_to_a_core_parked_across_an_advance_match_lock_step() {
    const WAITER: NodeId = NodeId(WAITERS[0]);
    type Change = fn(&mut Machine);
    let changes: [(&str, Change); 3] = [
        ("core_mut", |machine| {
            for byte in [0, 0, 0, 42] {
                machine
                    .core_mut(WAITER)
                    .deliver(0, Token::Data(byte))
                    .expect("the waiter's chanend has room");
            }
        }),
        ("set_core_frequency", |machine| {
            machine.set_core_frequency(WAITER, Frequency::from_mhz(200));
        }),
        ("load_program", |machine| {
            let spin = asm("ldc r1, 300\nlp:\nsub r1, r1, 1\nbt r1, lp\nfreet");
            machine.load_program(WAITER, &spin).expect("fits");
        }),
    ];
    for (name, change) in changes {
        let build = |engine: EngineMode| {
            let mut machine = chain_machine(MachineConfig {
                engine,
                ..MachineConfig::one_slice()
            });
            machine.run_for(TimeDelta::from_ns(2_000));
            let parks = engine != EngineMode::LockStep;
            assert_eq!(machine.is_parked(WAITER), parks, "{name} under {engine:?}");
            change(&mut machine);
            assert!(!machine.is_parked(WAITER), "{name} woke the waiter");
            machine
        };
        let oracle = assert_engines_agree(&build);
        assert_eq!(oracle.outputs[CHAIN[3] as usize], sink_output(), "{name}");
        let (machine, _) = drive(&build, EngineMode::Windowed { threads: 1 });
        let finished = machine.core(WAITER).live_threads() == 0;
        assert_eq!(finished, name != "set_core_frequency", "{name}");
    }
}
