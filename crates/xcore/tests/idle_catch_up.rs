//! `Core::idle_until` against `Core::run_until`.
//!
//! The board stops visiting cores that wait for a token and later
//! catches them up with `idle_until`. That is only sound if the catch-up
//! leaves exactly the state `run_until` would: the same clocks, the same
//! issue-wheel position and the same energy ledger, bit for bit. Each
//! case builds two identical cores, drives them through the same random
//! prefix (a busy loop of random length at a random — possibly derated —
//! clock, so the ledger starts pre-charged), then advances one with
//! `idle_until` and the other with `run_until` over random spans, and
//! compares their `encode_state` images. The four-lane
//! `Core::idle_until_each` the board uses is held to the same standard.

use swallow_isa::{Assembler, NodeId};
use swallow_sim::{ByteWriter, Frequency, Time, TimeDelta};
use swallow_testkit::proptest::prelude::*;
use swallow_xcore::{Core, CoreConfig};

/// What the core is doing when the span starts.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// Thread 0 waits on an empty chanend: the idle path.
    Blocked,
    /// Thread 0 spins forever: must take the `run_until` fallback.
    Ready,
    /// Thread 0 sleeps on a timer: must take the fallback.
    Sleeping,
    /// The core executed `halt`: both calls do nothing.
    Halted,
}

fn program(shape: Shape, busy: u32) -> String {
    let prefix = format!("ldc r5, {busy}\nspin:\nsub r5, r5, 1\nbt r5, spin\n");
    let tail = match shape {
        Shape::Blocked => "getr r0, chanend\nsetd r0, r0\nin r1, r0\nfreet",
        Shape::Ready => "forever:\nadd r6, r6, 1\nbu forever",
        Shape::Sleeping => {
            "getr r0, timer\nin r1, r0\nldc r3, 60000\nadd r2, r1, r3\ntmwait r0, r2\nfreet"
        }
        Shape::Halted => "halt",
    };
    format!("{prefix}{tail}")
}

fn core(shape: Shape, busy: u32, hz: u64) -> Core {
    let image = Assembler::new()
        .assemble(&program(shape, busy))
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
    fn idle_until_is_bit_identical_to_run_until(
        shape in 0u8..4,
        busy in 1u32..400,
        hz in 10_000_000u64..=1_000_000_000,
        derate in 0u32..=1000,
        spans in proptest::collection::vec((0u8..4, 0u64..100_000, any::<u64>()), 1..4),
    ) {
        let shape = [Shape::Blocked, Shape::Ready, Shape::Sleeping, Shape::Halted][shape as usize];
        let mut idle = core(shape, busy, hz);
        let mut eager = core(shape, busy, hz);
        // The prefix: run the busy loop out (and into the final state),
        // then optionally derate the clock the way a brownout does.
        let prefix = Time::ZERO + TimeDelta::from_ps(
            (u64::from(busy) * 10 + 100) * idle.frequency().period().as_ps(),
        );
        idle.run_until(prefix);
        eager.run_until(prefix);
        if derate > 0 {
            let derated = Frequency::from_hz((hz * u64::from(derate) / 1000).max(1));
            idle.set_frequency(derated);
            eager.set_frequency(derated);
        }
        match shape {
            Shape::Blocked => prop_assert!(idle.is_quiescent() && !idle.is_halted()),
            Shape::Ready => prop_assert!(idle.ready_threads() > 0),
            Shape::Sleeping => prop_assert!(!idle.is_quiescent() && idle.ready_threads() == 0),
            Shape::Halted => prop_assert!(idle.is_halted()),
        }
        prop_assert_eq!(image(&idle), image(&eager));
        for &(kind, edges, frac) in &spans {
            let until = span_end(&idle, kind, edges, frac);
            idle.idle_until(until);
            eager.run_until(until);
            prop_assert_eq!(idle.local_now(), eager.local_now());
            prop_assert_eq!(idle.cycles(), eager.cycles());
            prop_assert!(image(&idle) == image(&eager), "state diverged after a span to {until:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Four cores caught up together, each with its own shape, clock and
    /// prefix, end exactly where `run_until` takes each of them.
    #[test]
    fn idle_until_each_is_bit_identical_to_run_until(
        lanes in proptest::collection::vec(
            (0u8..6, 1u32..200, 10_000_000u64..=1_000_000_000, 0u64..400),
            4..5,
        ),
        span in 0u64..2_000_000_000,
    ) {
        // Mostly blocked lanes, so that all four often batch together.
        let shapes = [Shape::Blocked, Shape::Blocked, Shape::Blocked, Shape::Blocked, Shape::Ready, Shape::Sleeping];
        let build = || -> Vec<Core> {
            lanes
                .iter()
                .map(|&(shape, busy, hz, extra)| {
                    let mut core = core(shapes[shape as usize], busy, hz);
                    let period = core.frequency().period().as_ps();
                    core.run_until(Time::ZERO + TimeDelta::from_ps(
                        (u64::from(busy) * 10 + 100 + extra) * period,
                    ));
                    core
                })
                .collect()
        };
        let mut idle = build();
        let mut eager = build();
        let until = Time::ZERO + TimeDelta::from_ps(span);
        let [a, b, c, d] = &mut idle[..] else { unreachable!() };
        Core::idle_until_each([a, b, c, d], until);
        for (i, e) in idle.iter().zip(&mut eager) {
            e.run_until(until);
            prop_assert!(image(i) == image(e), "a lane diverged at {until:?}");
        }
    }
}

#[test]
fn idle_until_before_the_local_clock_is_a_no_op() {
    let mut core = core(Shape::Blocked, 3, 500_000_000);
    core.run_until(Time::ZERO + TimeDelta::from_ns(200));
    let before = image(&core);
    core.idle_until(Time::ZERO + TimeDelta::from_ns(100));
    core.idle_until(core.local_now());
    assert_eq!(image(&core), before);
}
