//! `Core::run_until` against ticking edge by edge.
//!
//! `run_until` charges every run of edges on which nothing is ready and
//! nothing wakes in closed form, and the board relies on it to catch up
//! the cores it stopped visiting while they waited for a token, and to
//! jump sleeping cores to their wake edge. That is only sound if it
//! leaves exactly the state per-edge `Core::tick` calls would: the same
//! clocks, the same issue-wheel position and the same energy ledger, bit
//! for bit. Each case builds two identical cores,
//! drives them through the same random prefix, then advances one with
//! `run_until` and the other with one `tick` per edge over random spans,
//! and compares their `encode_state` images. The spans cross a thread
//! blocking partway through, long timer sleeps and runs of divider
//! sleeps with nothing else ready, a sleeper waking, a stall ending and a
//! clock derated between spans.

use swallow_isa::{Assembler, NodeId};
use swallow_sim::{ByteWriter, Frequency, Time, TimeDelta};
use swallow_testkit::proptest::prelude::*;
use swallow_xcore::{Core, CoreConfig};

/// What the core does after its busy loop.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// Thread 0 blocks on an empty chanend: the closed-form path, entered
    /// partway through a span when the busy loop ends inside it.
    Blocked,
    /// Thread 0 spins forever: every edge is ticked.
    Ready,
    /// Thread 0 sleeps on a long timer: charged in closed form up to the
    /// wake edge, which is ticked.
    Sleeping,
    /// Thread 0 divides in a loop, asleep on the divider for 32 cycles
    /// of every iteration, then blocks on an empty chanend.
    Dividing,
    /// Thread 0 sleeps briefly, wakes, then blocks on an empty chanend.
    Wakes,
    /// The core executes `halt`: nothing happens after it.
    Halted,
}

const SHAPES: [Shape; 6] = [
    Shape::Blocked,
    Shape::Ready,
    Shape::Sleeping,
    Shape::Dividing,
    Shape::Wakes,
    Shape::Halted,
];

fn program(shape: Shape, busy: u32, sleep: u32) -> String {
    let prefix = format!("ldc r5, {busy}\nspin:\nsub r5, r5, 1\nbt r5, spin\n");
    let block = "getr r0, chanend\nsetd r0, r0\nin r1, r0\nfreet";
    let nap = |ticks: u32| {
        format!("getr r7, timer\nin r1, r7\nldc r3, {ticks}\nadd r2, r1, r3\ntmwait r7, r2\n")
    };
    let tail = match shape {
        Shape::Blocked => block.to_owned(),
        Shape::Ready => "forever:\nadd r6, r6, 1\nbu forever".to_owned(),
        Shape::Sleeping => nap(60_000) + "freet",
        Shape::Dividing => format!(
            "ldc r4, 7\nldc r5, {sleep}\ndiv:\ndivu r6, r5, r4\nsub r5, r5, 1\nbt r5, div\n{block}"
        ),
        Shape::Wakes => nap(sleep) + block,
        Shape::Halted => "halt".to_owned(),
    };
    format!("{prefix}{tail}")
}

fn core(shape: Shape, busy: u32, sleep: u32, hz: u64) -> Core {
    let image = Assembler::new()
        .assemble(&program(shape, busy, sleep))
        .expect("program assembles");
    let mut config = CoreConfig::swallow(NodeId(3));
    config.frequency = Frequency::from_hz(hz);
    let mut core = Core::new(config);
    core.load_program(&image).expect("program fits");
    core
}

fn image(core: &Core) -> Vec<u8> {
    let mut w = ByteWriter::new();
    core.encode_state(&mut w);
    w.finish()
}

/// The oracle: one `tick` per clock edge due at or before `until`,
/// stopping when the core halts.
fn tick_until(core: &mut Core, until: Time) {
    while !core.is_halted() && core.next_tick_at() <= until {
        core.tick(core.next_tick_at());
    }
}

/// A span end relative to `core`'s clock: zero, under one period, a
/// non-multiple of the period, or long (up to ~100k edges).
fn span_end(core: &Core, kind: u8, edges: u64, frac: u64) -> Time {
    let period = core.frequency().period().as_ps();
    let rem = frac % period;
    let ps = match kind {
        0 => 0,
        1 => rem,
        2 => (edges % 64) * period + rem.max(1),
        _ => edges * period + rem,
    };
    core.local_now() + TimeDelta::from_ps(ps)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn run_until_is_bit_identical_to_ticking_edge_by_edge(
        shape in 0u8..6,
        busy in 1u32..400,
        sleep in 1u32..2_000,
        hz in 10_000_000u64..=1_000_000_000,
        lead in 0u64..5_000,
        spans in proptest::collection::vec(
            (0u8..4, 0u64..100_000, any::<u64>(), 0u8..3, 0u32..=1000),
            1..5,
        ),
    ) {
        let shape = SHAPES[shape as usize];
        let mut batched = core(shape, busy, sleep, hz);
        let mut ticked = core(shape, busy, sleep, hz);
        // The prefix may end inside the busy loop, so the first span can
        // see the thread block, sleep or halt partway through.
        let prefix = Time::ZERO + TimeDelta::from_ps(lead * batched.frequency().period().as_ps());
        batched.run_until(prefix);
        tick_until(&mut ticked, prefix);
        prop_assert_eq!(image(&batched), image(&ticked));
        for &(kind, edges, frac, event, permille) in &spans {
            // Between spans: derate the clock the way a brownout does, or
            // stall issue up to a point inside the coming span.
            match event {
                1 => {
                    let f = Frequency::from_hz((hz * u64::from(permille.max(1)) / 1000).max(1));
                    batched.set_frequency(f);
                    ticked.set_frequency(f);
                }
                2 => {
                    let stall = batched.local_now()
                        + TimeDelta::from_ps(u64::from(permille) * batched.frequency().period().as_ps());
                    batched.fault_stall_until(stall);
                    ticked.fault_stall_until(stall);
                }
                _ => {}
            }
            let until = span_end(&batched, kind, edges, frac);
            batched.run_until(until);
            tick_until(&mut ticked, until);
            prop_assert_eq!(batched.local_now(), ticked.local_now());
            prop_assert_eq!(batched.cycles(), ticked.cycles());
            prop_assert!(image(&batched) == image(&ticked), "state diverged after a span to {until:?}");
        }
    }
}

#[test]
fn run_until_before_the_local_clock_is_a_no_op() {
    let mut core = core(Shape::Blocked, 3, 1, 500_000_000);
    core.run_until(Time::ZERO + TimeDelta::from_ns(200));
    assert!(core.is_quiescent());
    let before = image(&core);
    core.run_until(Time::ZERO + TimeDelta::from_ns(100));
    core.run_until(core.local_now());
    assert_eq!(image(&core), before);
}
