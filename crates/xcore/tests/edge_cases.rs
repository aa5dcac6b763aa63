//! Edge-case semantics: instruction corner values, resource misuse traps,
//! scheduler boundaries. These pin down behaviours the architectural
//! contract implies but ordinary programs rarely exercise.

use swallow_isa::{encode, Assembler, Instr, NodeId, Reg, ThreadId};
use swallow_xcore::{Core, CoreConfig, ThreadState, TrapCause};

fn run_src(src: &str) -> Core {
    let mut core = Core::new(CoreConfig::swallow(NodeId(0)));
    core.load_program(&Assembler::new().assemble(src).expect("assembles"))
        .expect("fits");
    let mut guard = 0;
    while !core.is_quiescent() && guard < 200_000 {
        core.tick(core.next_tick_at());
        guard += 1;
    }
    core
}

fn output_of(src: &str) -> String {
    let core = run_src(src);
    assert!(core.trap().is_none(), "unexpected trap: {:?}", core.trap());
    core.output().to_owned()
}

#[test]
fn shift_semantics_at_boundaries() {
    // Shifts of >= 32 produce zero (logical), ashr clamps at 31.
    let out = output_of(
        "
            ldc  r0, 1
            ldc  r1, 32
            shl  r2, r0, r1
            print r2
            ldc  r0, -8
            ashr r2, r0, r1
            print r2
            ldc  r0, 0x80
            shr  r2, r0, r1
            print r2
            shl  r2, r0, 31
            print r2
            freet
        ",
    );
    assert_eq!(out, "0\n-1\n0\n0\n");
}

#[test]
fn mkmsk_and_extension_extremes() {
    let out = output_of(
        "
            mkmsk r0, 0
            print r0
            mkmsk r0, 32
            print r0
            ldc   r1, 0xFFFF
            sext  r1, 16
            print r1
            ldc   r1, 0xFF80
            zext  r1, 8
            print r1
            ldc   r1, -1
            zext  r1, 32
            print r1
            freet
        ",
    );
    assert_eq!(out, "0\n-1\n-1\n128\n-1\n");
}

#[test]
fn zero_bit_extensions_are_decodable_and_harmless() {
    // The assembler refuses a zero-bit field, but the decoder accepts any
    // 8-bit one, so a raw word or a code store can run `sext r, 0`: it
    // leaves `r` alone (as a field of 32 or more does), and `zext r, 0`
    // clears it.
    let program = Assembler::new()
        .assemble(
            "
                ldc   r1, 0x80
                sext  r1, 8
                print r1
                zext  r1, 8
                print r1
                freet
            ",
        )
        .expect("assembles");
    let mut core = Core::new(CoreConfig::swallow(NodeId(0)));
    core.load_program(&program).expect("fits");
    let word = |instr: Instr| encode(&instr).expect("encodes").words()[0];
    for (from, to) in [
        (
            Instr::Sext {
                r: Reg::R1,
                bits: 8,
            },
            Instr::Sext {
                r: Reg::R1,
                bits: 0,
            },
        ),
        (
            Instr::Zext {
                r: Reg::R1,
                bits: 8,
            },
            Instr::Zext {
                r: Reg::R1,
                bits: 0,
            },
        ),
    ] {
        let at = program
            .words()
            .iter()
            .position(|&w| w == word(from))
            .expect("instruction in the image");
        core.sram_mut()
            .write_u32(4 * at as u32, word(to))
            .expect("in bounds");
    }
    while !core.is_quiescent() {
        core.tick(core.next_tick_at());
    }
    assert!(core.trap().is_none(), "unexpected trap: {:?}", core.trap());
    assert_eq!(core.output(), "128\n0\n");
}

#[test]
fn bit_reversal_instructions() {
    let out = output_of(
        "
            ldc     r0, 0x12345678
            byterev r1, r0
            print   r1
            bitrev  r2, r0
            print   r2
            clz     r3, r0
            print   r3
            ldc     r0, 0
            clz     r3, r0
            print   r3
            freet
        ",
    );
    // byterev: 0x78563412 = 2018915346; bitrev: u32::reverse_bits = 510274632.
    assert_eq!(out, "2018915346\n510274632\n3\n32\n");
}

#[test]
fn signed_division_corners() {
    let out = output_of(
        "
            ldc  r0, 0x80000000   # i32::MIN
            ldc  r1, 1
            divs r2, r0, r1
            print r2
            ldc  r1, -1
            rems r3, r0, r1       # MIN % -1 = 0 (wrapping)
            print r3
            freet
        ",
    );
    assert_eq!(out, "-2147483648\n0\n");
}

#[test]
fn ldaw_negative_indexing() {
    let out = output_of(
        "
            ldc  r0, 0x100
            ldaw r1, r0[-4]       # 0x100 - 16
            print r1
            ldaw r1, r0[4]
            print r1
            freet
        ",
    );
    assert_eq!(out, "240\n272\n");
}

#[test]
fn resource_type_confusion_traps() {
    // `out` on a timer is architecturally meaningless (`setd` on a timer
    // is legal: it sets the event threshold).
    let core = run_src("getr r0, timer\n out r0, r0\n freet");
    assert!(matches!(
        core.trap().expect("trap").cause,
        TrapCause::BadResource { .. }
    ));
    // `msync` on a chanend likewise.
    let core = run_src("getr r0, chanend\n msync r0\n freet");
    assert!(matches!(
        core.trap().expect("trap").cause,
        TrapCause::BadResource { .. }
    ));
    // Releasing a lock the thread does not hold.
    let core = run_src("getr r0, lock\n out r0, r0\n freet");
    assert!(matches!(
        core.trap().expect("trap").cause,
        TrapCause::IllegalOp(_)
    ));
}

#[test]
fn freed_resources_are_gone() {
    let core = run_src(
        "
            getr  r0, chanend
            freer r0
            setd  r0, r0          # operating on a freed chanend traps
            freet
        ",
    );
    assert!(matches!(
        core.trap().expect("trap").cause,
        TrapCause::BadResource { .. }
    ));
    // Double free also traps.
    let core = run_src("getr r0, timer\n freer r0\n freer r0\n freet");
    assert!(matches!(
        core.trap().expect("trap").cause,
        TrapCause::BadResource { .. }
    ));
}

#[test]
fn spawn_exhaustion_returns_invalid_id() {
    // Thread 0 + 7 spawned = 8 threads (the hardware maximum); the 8th
    // spawn attempt must return the invalid id (-1), not trap.
    let core = run_src(
        "
            ldap  r1, parked
            ldc   r2, 8
        sp:
            tspawn r0, r1, r2
            sub   r2, r2, 1
            bt    r2, sp
            print r0
            freet
        parked:
            waiteu
        ",
    );
    assert!(core.trap().is_none(), "{:?}", core.trap());
    assert_eq!(core.output(), "-1\n");
    assert_eq!(core.live_threads(), 7, "7 parked threads remain");
}

#[test]
fn word_instructions_report_exact_cycle_cost() {
    // Time determinism down to the cycle: a straight-line program of N
    // single-slot instructions on one thread takes exactly 4N+slack
    // cycles (one issue per 4 cycles at Nt=1).
    let mut core = Core::new(CoreConfig::swallow(NodeId(0)));
    core.load_program(
        &Assembler::new()
            .assemble("nop\nnop\nnop\nnop\nnop\nnop\nnop\nnop\nnop\nfreet")
            .expect("assembles"),
    )
    .expect("fits");
    while !core.is_quiescent() {
        core.tick(core.next_tick_at());
    }
    assert_eq!(core.instret(), 10);
    // 10 instructions, one per 4 cycles, first at cycle 1: the 10th
    // (freet) retires at cycle 4·9 + 1 = 37 and the core is quiescent.
    assert_eq!(core.cycles(), 37, "cycles = {}", core.cycles());
}

#[test]
fn blocked_receive_thread_frees_its_issue_slots() {
    // One thread blocks on `in`; a busy thread then gets the full f/4
    // single-thread rate, not f/8 (Eq. 2 counts *active* threads).
    let mut core = Core::new(CoreConfig::swallow(NodeId(0)));
    core.load_program(
        &Assembler::new()
            .assemble(
                "
                    getr  r1, chanend
                    ldap  r2, busy
                    tspawn r3, r2, r0
                    in    r4, r1      # blocks forever
                    freet
                busy:
                    add   r1, r1, 1
                    bu    busy
                ",
            )
            .expect("assembles"),
    )
    .expect("fits");
    for _ in 0..200 {
        core.tick(core.next_tick_at());
    }
    assert!(matches!(
        core.thread_state(ThreadId(0)),
        ThreadState::Blocked(_)
    ));
    let before = core.thread_instret(ThreadId(1));
    for _ in 0..4000 {
        core.tick(core.next_tick_at());
    }
    let rate = core.thread_instret(ThreadId(1)) - before;
    assert!(
        (rate as i64 - 1000).abs() <= 2,
        "busy thread retired {rate}/4000 cycles"
    );
}

#[test]
fn sram_is_private_per_core() {
    let mut a = Core::new(CoreConfig::swallow(NodeId(0)));
    let mut b = Core::new(CoreConfig::swallow(NodeId(1)));
    let p = Assembler::new()
        .assemble("ldc r0, 0x300\n ldc r1, 7\n stw r1, r0[0]\n freet")
        .expect("assembles");
    a.load_program(&p).expect("fits");
    b.load_program(&Assembler::new().assemble("freet").expect("assembles"))
        .expect("fits");
    while !a.is_quiescent() {
        a.tick(a.next_tick_at());
    }
    assert_eq!(a.sram().read_u32(0x300), Ok(7));
    assert_eq!(b.sram().read_u32(0x300), Ok(0));
}

#[test]
fn out_to_unconfigured_chanend_traps() {
    let core = run_src("getr r0, chanend\n ldc r1, 5\n out r0, r1\n freet");
    assert!(matches!(
        core.trap().expect("trap").cause,
        TrapCause::NoDest { chanend: 0 }
    ));
}

#[test]
fn program_too_large_is_rejected() {
    let mut core = Core::new(CoreConfig::swallow(NodeId(0)));
    // 64 KiB SRAM = 16384 words; emit more.
    let mut src = String::from("start: nop\n");
    src.push_str(".space 17000\n");
    let program = Assembler::new().assemble(&src).expect("assembles");
    assert!(core.load_program(&program).is_err());
}

#[test]
fn timer_tick_rate_is_100mhz() {
    // 100 ticks = 1 us = 500 cycles at 500 MHz; measure via two reads.
    let out = output_of(
        "
            getr r0, timer
            in   r1, r0
            in   r2, r0
            sub  r3, r2, r1
            print r3              # 2 issue slots apart = 8 cycles = 16 ns -> 1 tick
            freet
        ",
    );
    let dt: i64 = out.trim().parse().expect("number");
    assert!((0..=2).contains(&dt), "dt = {dt}");
}
