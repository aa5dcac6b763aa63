//! Parked cores under every catch-up trigger.
//!
//! Inside an advance the machine stops visiting cores that wait for a
//! token ("parked") and catches them up with idle ticks wherever
//! something else touches them. Each test below builds a one-slice relay
//! chain whose stages spend most of their time parked, aims one trigger
//! at them — a delivery right after a power-monitor catch-up, a core
//! fault, a quarantine after a link escalates, a snapshot mid-run — and
//! checks the windowed engine at one and two threads against the
//! lock-step oracle (instret, cycles and `now` exact, energy within
//! 1e-9), and that a repeated windowed run is bit-identical (whole
//! snapshot image). A two-slice scenario whose sources queue behind one
//! shared cable does the same for fast-forward jumps over heads parked
//! on a busy link, and a one-slice scenario whose sources flood a slow
//! sink for heads parked on a link's release, on credit and on a full
//! chanend. A last test pins the ledger totals bit for bit, which
//! is what catches a catch-up — or a jump — that adds the right energy
//! in the wrong order.

use swallow_board::{EngineMode, Machine, MachineConfig, RouterKind};
use swallow_faults::{FaultKind, FaultPlan};
use swallow_isa::{Assembler, NodeId, Program};
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
fn run(build: &dyn Fn(EngineMode) -> Machine, engine: EngineMode) -> (Outcome, Vec<u8>) {
    let mut machine = build(engine);
    let mut quiescent = false;
    while !quiescent && machine.now() < t(200) {
        machine.run_for(TimeDelta::from_us(3));
        quiescent = machine.run_until_quiescent(TimeDelta::ZERO);
    }
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
        let rel = (got.energy_j - oracle.energy_j).abs() / oracle.energy_j;
        assert!(rel <= 1e-9, "{engine:?}: energy off by {rel:e}");
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

/// The relay chain with both spinners on a 200 MHz clock. While tokens
/// move and the only ready cores are the slow spinners, the fast-forward
/// step stops at each spinner tick, as one-edge steps would, and charges
/// the idle edges before it analytically rather than jumping on to the
/// spinner's next issue slot.
fn slow_spinners_machine(engine: EngineMode) -> Machine {
    let mut machine = chain_with(engine, 1_000, FaultPlan::new());
    for &s in &SPINNERS {
        machine.set_core_frequency(NodeId(s), Frequency::from_mhz(200));
    }
    machine
}

/// Ledger totals of seven scenarios under lock-step and windowed at one
/// and two threads, bit for bit. Each engine adds the same per-core
/// charges in its own fixed order, and skipping parked cores must keep
/// that order exactly (a catch-up performs the very additions of the
/// edges it replaces), so one changed bit here means a catch-up point
/// changed the arithmetic — a drift the 1e-9 comparisons cannot see.
#[test]
fn ledger_totals_are_pinned_bit_for_bit() {
    type Build = Box<dyn Fn(EngineMode) -> Machine>;
    let scenarios: [(&str, Build, [u64; 3]); 7] = [
        (
            "compute",
            Box::new(compute_machine),
            [0x3f0df78541d1d8d5, 0x3f0df78541d1d7ef, 0x3f0df78541d1d7ed],
        ),
        (
            "chain",
            Box::new(|e| chain_with(e, 1_000, FaultPlan::new())),
            [0x3f05d0745b299dac, 0x3f05d0745b299d5d, 0x3f05d0745b299d5d],
        ),
        (
            "brownout",
            Box::new(|e| {
                let plan = FaultPlan::new().brownout(t(2), 600, TimeDelta::from_us(3));
                chain_with(e, 1_000, plan)
            }),
            [0x3f0369dc1ecf5a8c, 0x3f0369dc1ecf5a8f, 0x3f0369dc1ecf5a8f],
        ),
        (
            "quarantine",
            Box::new(|e| escalation_machine(e).0),
            [0x3f053e8c2cddd96e, 0x3f053e8c2cddd90c, 0x3f053e8c2cddd90c],
        ),
        (
            "congested",
            Box::new(congested_machine),
            [0x3f183167fc9faead, 0x3f183167fc9fae07, 0x3f183167fc9fae07],
        ),
        (
            "backpressured",
            Box::new(backpressured_machine),
            [0x3f2791467d17bed4, 0x3f2791467d17bdd0, 0x3f2791467d17bdd0],
        ),
        (
            "slow spinners",
            Box::new(slow_spinners_machine),
            [0x3f16bf1f259615a3, 0x3f16bf1f259613f8, 0x3f16bf1f259613f8],
        ),
    ];
    let engines = [
        EngineMode::LockStep,
        EngineMode::Windowed { threads: 1 },
        EngineMode::Windowed { threads: 2 },
    ];
    for (name, build, want) in &scenarios {
        for (&engine, &want) in engines.iter().zip(want) {
            let (got, _) = run(build.as_ref(), engine);
            let bits = got.energy_j.to_bits();
            assert_eq!(
                bits, want,
                "{name} under {engine:?}: {bits:#x} ({:e} J)",
                got.energy_j
            );
        }
    }
}
