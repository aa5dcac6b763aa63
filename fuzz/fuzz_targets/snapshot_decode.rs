//! The snapshot deserializer: `Machine::restore` on arbitrary bytes
//! must reject cleanly (bad magic, bad version, checksum mismatch,
//! truncation, hostile lengths) — never panic, never allocate absurdly
//! — and anything it accepts must re-serialize byte-identically.

use swallow::isa::ControlToken;
use swallow::{
    Assembler, EngineMode, FaultPlan, Machine, MachineConfig, NodeId, ResType, ResourceId, Time,
    TimeDelta,
};
use swallow_fuzz::fuzz_target;

/// A one-slice bridged machine with metrics on, a two-event fault plan
/// and its engine switched after build, run until core 0's reply frame
/// waits in the bridge queue. Its image carries a populated BRDG (frame
/// queue, stats), METR (supply rows) and FALT (a stall and a brownout
/// still in force), so mutations of it reach those decoders.
fn bridged_seed() -> Vec<u8> {
    let at = |ns| Time::ZERO + TimeDelta::from_ns(ns);
    let config = MachineConfig {
        bridge: true,
        metrics: true,
        faults: FaultPlan::new()
            .stall_core(at(200), NodeId(5), TimeDelta::from_us(20))
            .brownout(at(500), 900, TimeDelta::from_us(20)),
        ..MachineConfig::one_slice()
    };
    let mut machine = Machine::new(config);
    machine.set_engine(EngineMode::LockStep);
    let host = machine.bridge().expect("fitted").chanend();
    // Core 0 doubles one word from the host and sends it back.
    let echo = Assembler::new()
        .assemble(&format!(
            "
                getr  r0, chanend
                ldc   r1, {host}
                setd  r0, r1
                in    r2, r0
                chkct r0, end
                add   r2, r2, r2
                out   r0, r2
                outct r0, end
                freet
            ",
            host = host.raw()
        ))
        .expect("assembles");
    machine.load_program(NodeId(0), &echo).expect("fits");
    let bridge = machine.bridge_mut().expect("fitted");
    let core0 = ResourceId::new(NodeId(0), 0, ResType::Chanend);
    bridge.send_word(core0, 21);
    bridge.send_ct(core0, ControlToken::END);
    for _ in 0..100 {
        if machine.bridge().expect("fitted").stats().frames_received > 0 {
            break;
        }
        machine.run_for(TimeDelta::from_ns(500));
    }
    assert_eq!(machine.bridge().expect("fitted").stats().frames_received, 1);
    assert!(!machine.metrics().rows().is_empty(), "metrics recorded");
    let image = machine.snapshot();
    assert!(Machine::restore(&image).is_ok(), "bridged seed restores");
    image
}

fuzz_target!(
    seeds = {
        // Real snapshots: single-byte mutations of them exercise every
        // section decoder far deeper than random bytes, which die at the
        // magic check. The pristine bridgeless machine leaves BRDG, METR
        // and FALT empty; the bridged seed fills them.
        vec![
            Machine::new(MachineConfig::one_slice()).snapshot(),
            bridged_seed(),
        ]
    },
    |data: &[u8]| {
        if let Ok(machine) = Machine::restore(data) {
            assert_eq!(
                machine.snapshot(),
                data,
                "accepted snapshots must re-serialize byte-identically"
            );
        }
    }
);
