//! `Core::next_issue_at` against ticking edge by edge.
//!
//! The machine's fast-forward step jumps a core with ready threads
//! straight to its next issue slot, on the promise that the edges before
//! it only charge idle energy and turn the clocks. Each case builds a
//! core running one to eight threads in a random mix of spinning,
//! blocked on input, sleeping on a timer and sending into a full output
//! buffer, at a random issue-wheel phase, optionally derated and
//! optionally stalled. Ticking edge by edge through a run of consecutive
//! issue slots, no edge before `next_issue_at` may retire an
//! instruction, change a thread's state or queue output, and the edge at
//! `next_issue_at` retires one unless a wake is due there.

use swallow_isa::{Assembler, NodeId, ThreadId};
use swallow_sim::{Frequency, TimeDelta};
use swallow_testkit::proptest::prelude::*;
use swallow_xcore::{Core, CoreConfig, ThreadState, MAX_THREADS};

/// Thread `i`'s code for `role`, under labels unique to the thread.
fn role_code(i: usize, role: u8, sleep: u32) -> String {
    match role {
        // Spins forever: ready at every issue slot, retiring each time.
        0 => format!("spin{i}:\nadd r1, r1, 1\nbu spin{i}\n"),
        // Blocks on a chanend nothing ever writes.
        1 => "getr r0, chanend\nsetd r0, r0\nin r1, r0\nfreet\n".to_owned(),
        // Sleeps `sleep` timer ticks, then spins.
        2 => format!(
            "getr r2, timer\nin r3, r2\nldc r4, {sleep}\nadd r3, r3, r4\ntmwait r2, r3\n\
             woke{i}:\nadd r1, r1, 1\nbu woke{i}\n"
        ),
        // Sends to another node until its output buffer is full (no
        // fabric drains it here), then blocks on space.
        _ => format!(
            "getr r0, chanend\nldc r1, 5\nshl r1, r1, 16\nadd r1, r1, 2\nsetd r0, r1\n\
             send{i}:\nout r0, r1\nbu send{i}\n"
        ),
    }
}

/// Thread 0 spawns one thread per further role, then takes the first.
fn program(roles: &[u8], sleeps: &[u32]) -> String {
    let mut src = String::new();
    for i in 1..roles.len() {
        src += &format!("ldap r6, t{i}\ntspawn r7, r6, r5\n");
    }
    for (i, &role) in roles.iter().enumerate() {
        src += &format!("t{i}:\n{}", role_code(i, role, sleeps[i]));
    }
    src
}

/// Everything an edge that does not issue must leave alone.
fn observe(core: &Core) -> (u64, Vec<ThreadState>, usize) {
    let states = (0..MAX_THREADS as u8)
        .map(|t| core.thread_state(ThreadId(t)))
        .collect();
    (core.instret(), states, core.tx_pending_count())
}

fn tick(core: &mut Core) {
    core.tick(core.next_tick_at());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn no_edge_before_the_next_issue_slot_does_anything(
        roles in proptest::collection::vec(0u8..4, 1..9),
        sleeps in proptest::collection::vec(1u32..3_000, 8..9),
        warm in 600u64..1_400,
        derate in 0u32..=1000,
        stall in (any::<bool>(), 0u64..200),
    ) {
        let image = Assembler::new()
            .assemble(&program(&roles, &sleeps))
            .expect("program assembles");
        let mut core = Core::new(CoreConfig::swallow(NodeId(3)));
        core.load_program(&image).expect("program fits");
        // A random number of edges past the spawn phase: every thread has
        // reached its role's steady state, at a random wheel phase.
        for _ in 0..warm {
            tick(&mut core);
        }
        if derate > 0 {
            let hz = core.frequency().as_hz() * u64::from(derate) / 1000;
            core.set_frequency(Frequency::from_hz(hz.max(1)));
        }
        if stall.0 {
            let until = core.local_now() + TimeDelta::from_ps(stall.1 * core.frequency().period().as_ps());
            core.fault_stall_until(until);
        }
        for _ in 0..24 {
            let before = observe(&core);
            let Some(next) = core.next_issue_at() else {
                // Nothing ready or sleeping: nothing ever happens again.
                for _ in 0..300 {
                    tick(&mut core);
                    prop_assert_eq!(observe(&core), before.clone());
                }
                break;
            };
            prop_assert!(next > core.local_now());
            while core.next_tick_at() < next {
                tick(&mut core);
                prop_assert!(
                    observe(&core) == before,
                    "an edge before the issue slot at {next:?} acted"
                );
            }
            prop_assert_eq!(core.next_tick_at(), next, "the issue slot is a clock edge");
            let wake_binds = core.next_wake().is_some_and(|w| w <= next);
            tick(&mut core);
            if !wake_binds {
                prop_assert_eq!(core.instret(), before.0 + 1, "the issue slot at {:?} retired nothing", next);
            }
        }
    }
}
