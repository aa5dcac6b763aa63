//! The monitor fire against a two-pass oracle, bit for bit.
//!
//! [`PowerMonitor::update`] and the [`MetricsHub`] sample it takes keep
//! one cached link sum per metering group, re-summed only when one of
//! the group's links moved energy, and share one pass over the cores,
//! driven by lookup tables. This file keeps the straightforward
//! arithmetic they replace —
//! the monitor's delta split and then the hub's cumulative split, each
//! walking `Fabric::link_stats()` and calling `GridSpec::slice_of` and
//! `PowerMonitor::rail_of` per link and node — and checks after every
//! fire that each supply row, rail power, loss and support energy and
//! every core's probe readings agree to the bit. The machine is a 2×1
//! grid with a bridge whose traffic crosses on-chip, board and FFC links,
//! and bridge-originated tokens that the meters must skip. A second test
//! repeats the check, with a fire every 100 ns, where a cached sum could
//! go stale: corrupt-window retries, unplugged links and their reroute,
//! and a restore mid-run.

use swallow_board::power::{IO_RAIL, RAILS, SUPPORT_POWER_PER_SLICE_MW};
use swallow_board::{EngineMode, Machine, MachineConfig, SupplyRow};
use swallow_energy::{Energy, Power, Smps};
use swallow_faults::FaultPlan;
use swallow_isa::{Assembler, ControlToken, NodeId, Program, ResType, ResourceId};
use swallow_noc::{Direction, LinkDesc};
use swallow_sim::{Time, TimeDelta};

/// Words each source sends.
const ITEMS: u32 = 5;
/// (source, sink) pairs: same package (on-chip link), across slice 0
/// (board links), and into slice 1 (FFC cable).
const FLOWS: [(u16, u16); 3] = [(0, 1), (2, 12), (4, 20)];
/// The core the bridge streams a frame into.
const BRIDGE_SINK: u16 = 9;
/// Words in the bridge's frame.
const FRAME: u32 = 4;

fn asm(src: &str) -> Program {
    Assembler::new().assemble(src).expect("assembles")
}

/// Sends `ITEMS` words to chanend 0 of `next`, sleeping 60 timer ticks
/// before each.
fn source(next: u16) -> Program {
    asm(&format!(
        "getr r0, chanend\nldc r1, {next}\nshl r1, r1, 16\nadd r1, r1, 2\nsetd r0, r1\n\
         getr r5, timer\nldc r3, {ITEMS}\nldc r2, 1\n\
         lp:\nin r6, r5\nldc r7, 60\nadd r6, r6, r7\ntmwait r5, r6\n\
         out r0, r2\noutct r0, end\nadd r2, r2, 1\nsub r3, r3, 1\nbt r3, lp\nfreet"
    ))
}

/// Sums `words` single-word packets and prints the total.
fn sink(words: u32) -> Program {
    asm(&format!(
        "getr r0, chanend\nldc r3, {words}\nldc r4, 0\n\
         lp:\nin r1, r0\nchkct r0, end\nadd r4, r4, r1\nsub r3, r3, 1\nbt r3, lp\n\
         print r4\nfreet"
    ))
}

fn machine(engine: EngineMode) -> Machine {
    machine_with(engine, FaultPlan::new(), TimeDelta::from_us(1))
}

fn machine_with(engine: EngineMode, faults: FaultPlan, monitor_window: TimeDelta) -> Machine {
    let mut machine = Machine::new(MachineConfig {
        engine,
        bridge: true,
        metrics: true,
        faults,
        monitor_window,
        ..MachineConfig::grid(2, 1)
    });
    for (src, dst) in FLOWS {
        machine
            .load_program(NodeId(src), &source(dst))
            .expect("fits");
        machine
            .load_program(NodeId(dst), &sink(ITEMS))
            .expect("fits");
    }
    machine
        .load_program(NodeId(BRIDGE_SINK), &sink(FRAME))
        .expect("fits");
    let dest = ResourceId::new(NodeId(BRIDGE_SINK), 0, ResType::Chanend);
    let bridge = machine.bridge_mut().expect("fitted");
    for word in 1..=FRAME {
        bridge.send_word(dest, word);
        bridge.send_ct(dest, ControlToken::END);
    }
    machine
}

/// The two-pass arithmetic the fused monitor fire replaces, carried
/// alongside the machine from time zero.
struct Oracle {
    last_update: Time,
    last_core: Vec<Energy>,
    last_internal: Vec<Energy>,
    last_external: Vec<Energy>,
    rails: Vec<[Power; RAILS]>,
    loss: Vec<Energy>,
    support: Vec<Energy>,
    last_sample: Time,
    hub_last_rail: Vec<[Energy; RAILS]>,
    hub_last_loss: Vec<Energy>,
}

#[allow(clippy::needless_range_loop)] // Indexed like the code it replays.
impl Oracle {
    fn new(machine: &Machine) -> Self {
        let (cores, slices) = (machine.core_count(), machine.spec().slice_count());
        Oracle {
            last_update: Time::ZERO,
            last_core: vec![Energy::ZERO; cores],
            last_internal: vec![Energy::ZERO; cores],
            last_external: vec![Energy::ZERO; slices],
            rails: vec![[Power::ZERO; RAILS]; slices],
            loss: vec![Energy::ZERO; slices],
            support: vec![Energy::ZERO; slices],
            last_sample: Time::ZERO,
            hub_last_rail: vec![[Energy::ZERO; RAILS]; slices],
            hub_last_loss: vec![Energy::ZERO; slices],
        }
    }

    /// The monitor's update at `now`: per-window deltas into rail powers
    /// and losses.
    fn update(&mut self, machine: &Machine, now: Time) {
        let spec = machine.spec();
        let (cores, fabric, monitor) = machine.parts();
        let span = now.since(self.last_update);
        self.last_update = now;
        let slices = spec.slice_count();
        let mut internal = vec![Energy::ZERO; cores.len()];
        let mut external = vec![Energy::ZERO; slices];
        let mut rail_energy = vec![[Energy::ZERO; RAILS]; slices];
        for s in fabric.link_stats() {
            let from = s.from.raw() as usize;
            if from >= cores.len() {
                continue;
            }
            if s.dir == Direction::Internal {
                internal[from] += s.energy;
            } else {
                external[spec.slice_of(s.from)] += s.energy;
            }
        }
        for node in spec.nodes() {
            let i = node.raw() as usize;
            let core_delta = cores[i].ledger().total() - self.last_core[i];
            let link_delta = internal[i] - self.last_internal[i];
            self.last_core[i] = cores[i].ledger().total();
            self.last_internal[i] = internal[i];
            rail_energy[spec.slice_of(node)][monitor.rail_of(node)] += core_delta + link_delta;
        }
        let support = Power::from_milliwatts(SUPPORT_POWER_PER_SLICE_MW);
        let (smps_core, smps_io) = (Smps::swallow_core_rail(), Smps::swallow_io_rail());
        for slice in 0..slices {
            let ext_delta = external[slice] - self.last_external[slice];
            self.last_external[slice] = external[slice];
            rail_energy[slice][IO_RAIL] += ext_delta + support * span;
            self.support[slice] += support * span;
            for rail in 0..RAILS {
                self.rails[slice][rail] = rail_energy[slice][rail].over(span);
            }
            let loss: Power = (0..IO_RAIL)
                .map(|r| smps_core.loss(self.rails[slice][r]))
                .sum::<Power>()
                + smps_io.loss(self.rails[slice][IO_RAIL]);
            self.loss[slice] += loss * span;
        }
    }

    /// The hub's sample at `now`: cumulative rail sums into one row per
    /// slice.
    fn sample(&mut self, machine: &Machine, now: Time) -> Vec<SupplyRow> {
        let spec = machine.spec();
        let (cores, fabric, monitor) = machine.parts();
        let slices = spec.slice_count();
        let mut cumulative = vec![[Energy::ZERO; RAILS]; slices];
        for s in fabric.link_stats() {
            if s.from.raw() as usize >= cores.len() {
                continue;
            }
            let slice = spec.slice_of(s.from);
            if s.dir == Direction::Internal {
                cumulative[slice][monitor.rail_of(s.from)] += s.energy;
            } else {
                cumulative[slice][IO_RAIL] += s.energy;
            }
        }
        for node in spec.nodes() {
            cumulative[spec.slice_of(node)][monitor.rail_of(node)] +=
                cores[node.raw() as usize].ledger().total();
        }
        let span = now.since(self.last_sample);
        self.last_sample = now;
        let mut rows = Vec::new();
        for slice in 0..slices {
            cumulative[slice][IO_RAIL] += self.support[slice];
            let mut rails = [Energy::ZERO; RAILS];
            for (rail, delta) in rails.iter_mut().enumerate() {
                *delta = cumulative[slice][rail] - self.hub_last_rail[slice][rail];
            }
            let loss = self.loss[slice] - self.hub_last_loss[slice];
            self.hub_last_rail[slice] = cumulative[slice];
            self.hub_last_loss[slice] = self.loss[slice];
            rows.push(SupplyRow {
                at: now,
                span,
                slice: slice as u16,
                rails,
                loss,
            });
        }
        rows
    }
}

fn bits(e: Energy) -> u64 {
    e.as_joules().to_bits()
}

fn row_bits(row: &SupplyRow) -> (Time, TimeDelta, u16, Vec<u64>, u64) {
    let rails = row.rails.iter().map(|&e| bits(e)).collect();
    (row.at, row.span, row.slice, rails, bits(row.loss))
}

/// Checks every monitor output and the rows since `rows_seen` against
/// the oracle's, bit for bit.
fn assert_fire_matches(machine: &Machine, oracle: &mut Oracle, rows_seen: usize, what: &str) {
    let now = machine.now();
    oracle.update(machine, now);
    let want = oracle.sample(machine, now);
    let got = &machine.metrics().rows()[rows_seen..];
    assert_eq!(got.len(), want.len(), "{what}: rows");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(row_bits(g), row_bits(w), "{what}: supply row");
    }
    let monitor = machine.monitor();
    for slice in 0..machine.spec().slice_count() {
        for rail in 0..RAILS {
            assert_eq!(
                monitor.rail_power(slice, rail).as_watts().to_bits(),
                oracle.rails[slice][rail].as_watts().to_bits(),
                "{what}: slice {slice} rail {rail} power"
            );
        }
        assert_eq!(
            bits(monitor.loss_energy(slice)),
            bits(oracle.loss[slice]),
            "{what}: slice {slice} loss"
        );
        assert_eq!(
            bits(monitor.support_energy(slice)),
            bits(oracle.support[slice]),
            "{what}: slice {slice} support"
        );
    }
    for node in machine.nodes() {
        let slice = machine.spec().slice_of(node);
        let want: Vec<u32> = oracle.rails[slice]
            .iter()
            .map(|p| p.as_microwatts() as u32)
            .collect();
        assert_eq!(
            machine.core(node).probe_readings().to_vec(),
            want,
            "{what}: {node:?} probe readings"
        );
    }
}

/// Runs `machine` fire by fire for 12 µs, checking each against the
/// oracle; with `restore_at`, the machine is replaced by a restore of its
/// own snapshot right after that fire, and the oracle carries on.
fn fire_through(machine: &mut Machine, oracle: &mut Oracle, restore_at: Option<usize>, what: &str) {
    let window = machine.monitor().window();
    let mut fires = 0;
    while machine.now() < Time::ZERO + TimeDelta::from_us(12) {
        let rows_seen = machine.metrics().rows().len();
        let due = machine.monitor().next_update();
        machine.run_for(due.since(machine.now()));
        assert_eq!(machine.now(), due, "{what}: stopped on the fire");
        assert_eq!(machine.monitor().next_update(), due + window);
        fires += 1;
        assert_fire_matches(machine, oracle, rows_seen, &format!("{what} fire {fires}"));
        if restore_at == Some(fires) {
            *machine = Machine::restore(&machine.snapshot()).expect("own image restores");
        }
    }
}

#[test]
fn every_fire_matches_the_two_pass_oracle() {
    for engine in [EngineMode::LockStep, EngineMode::Windowed { threads: 2 }] {
        let mut machine = machine(engine);
        let mut oracle = Oracle::new(&machine);
        fire_through(&mut machine, &mut oracle, None, &format!("{engine:?}"));
        // A flush between fires takes a partial-window update.
        machine.run_for(TimeDelta::from_ns(370));
        let rows_seen = machine.metrics().rows().len();
        machine.flush_metrics();
        assert_fire_matches(
            &machine,
            &mut oracle,
            rows_seen,
            &format!("{engine:?} flush"),
        );

        // The traffic crossed every link class, the bridge's included.
        let (cores, fabric, _) = machine.parts();
        let spec = machine.spec();
        let used = |pred: &dyn Fn(&swallow_noc::LinkStats) -> bool| {
            fabric
                .link_stats()
                .any(|s| s.energy > Energy::ZERO && pred(&s))
        };
        assert!(used(&|s| s.dir == Direction::Internal), "an on-chip link");
        assert!(
            used(&|s| {
                s.dir != Direction::Internal
                    && (s.from.raw() as usize) < cores.len()
                    && (s.to.raw() as usize) < cores.len()
                    && spec.slice_of(s.from) == spec.slice_of(s.to)
            }),
            "a board link"
        );
        assert!(
            used(&|s| {
                (s.from.raw() as usize) < cores.len()
                    && (s.to.raw() as usize) < cores.len()
                    && spec.slice_of(s.from) != spec.slice_of(s.to)
            }),
            "an FFC cable"
        );
        assert!(
            used(&|s| s.from.raw() as usize >= cores.len()),
            "a bridge link"
        );
        for (src, dst) in FLOWS {
            let total = (1..=ITEMS).sum::<u32>();
            assert_eq!(
                machine.core(NodeId(dst)).output(),
                format!("{total}\n"),
                "{src} → {dst}"
            );
        }
        let frame = (1..=FRAME).sum::<u32>();
        assert_eq!(
            machine.core(NodeId(BRIDGE_SINK)).output(),
            format!("{frame}\n")
        );
    }
}

/// One link of each class the fault-free flows put energy on by 3 µs: an
/// on-chip link, a board link and an FFC cable.
fn busy_links() -> [LinkDesc; 3] {
    let mut probe = machine(EngineMode::LockStep);
    probe.run_for(TimeDelta::from_us(3));
    let (cores, fabric, _) = probe.parts();
    let spec = probe.spec();
    let core = |n: NodeId| (n.raw() as usize) < cores.len();
    let used: Vec<LinkDesc> = fabric
        .link_stats()
        .filter(|s| s.energy > Energy::ZERO && core(s.from) && core(s.to))
        .map(|s| probe.link_descs()[s.id.raw() as usize])
        .collect();
    let find = |pred: &dyn Fn(&LinkDesc) -> bool| *used.iter().find(|d| pred(d)).expect("used");
    [
        find(&|d| d.dir == Direction::Internal),
        find(&|d| d.dir != Direction::Internal && spec.slice_of(d.from) == spec.slice_of(d.to)),
        find(&|d| spec.slice_of(d.from) != spec.slice_of(d.to)),
    ]
}

/// The cases in which a cached link sum could go stale, each against the
/// oracle's walk over every link after every fire: corrupt windows, whose
/// retries charge link energy without a launch; links unplugged mid-run
/// and the reroute around them; and a restore mid-run, after which every
/// cached sum must be rebuilt from the restored energies. The monitor
/// fires every 100 ns, so some windows see a link's retries and nothing
/// else.
#[test]
fn cached_link_sums_never_go_stale() {
    let links = busy_links();
    let at = |ns: u64| Time::ZERO + TimeDelta::from_ns(ns);
    let mut corrupt = FaultPlan::new();
    for d in &links {
        corrupt = corrupt.corrupt_window(at(300), d.id, TimeDelta::from_ns(450));
    }
    let unplugged = FaultPlan::new()
        .link_down(at(1_500), links[0].id)
        .link_down(at(1_500), links[2].id);
    let cases: [(&str, FaultPlan, Option<usize>); 4] = [
        ("corrupt", corrupt.clone(), None),
        ("kill-link", unplugged, None),
        ("restore", FaultPlan::new(), Some(20)),
        ("corrupt, restore", corrupt, Some(5)),
    ];
    for (name, plan, restore_at) in cases {
        for engine in [EngineMode::LockStep, EngineMode::Windowed { threads: 2 }] {
            let mut machine = machine_with(engine, plan.clone(), TimeDelta::from_ns(100));
            let mut oracle = Oracle::new(&machine);
            fire_through(
                &mut machine,
                &mut oracle,
                restore_at,
                &format!("{name}, {engine:?}"),
            );
            let faults = machine.fault_counters();
            if name.starts_with("corrupt") {
                assert!(faults.retransmits > 0, "{name}: {faults:?}");
            }
            if name == "kill-link" {
                assert!(
                    faults.link_downs == 2 && faults.reroutes > 0,
                    "{name}: {faults:?}"
                );
            }
        }
    }
}
