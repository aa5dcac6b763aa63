//! Repository-level integration tests: whole-machine scenarios spanning
//! every crate (ISA → core → fabric → board → workloads).

use swallow_repro::swallow::{Assembler, Frequency, NodeId, SystemBuilder, TimeDelta};
use swallow_repro::swallow_workloads::{client_server, farm, pipeline, shared_mem, traffic};

#[test]
fn mixed_workloads_share_one_machine() {
    // A pipeline on nodes 0..4 and a client/server group on nodes 8..12,
    // concurrently, without interference.
    let mut system = SystemBuilder::new().build().expect("builds");

    let pipe_spec = pipeline::PipelineSpec {
        stages: 4,
        items: 16,
        work_per_item: 4,
    };
    pipeline::generate(&pipe_spec, system.machine().spec())
        .expect("generates")
        .apply(&mut system)
        .expect("loads");

    // Client/server shifted onto the second package row by hand: reuse
    // the generator onto a fresh system is simpler — here we assemble a
    // small dedicated pair instead.
    let server = Assembler::new()
        .assemble(
            "
                getr  r0, chanend
                getr  r1, chanend
                ldc   r3, 6
            svl:
                in    r4, r0
                in    r5, r0
                chkct r0, end
                setd  r1, r4
                add   r6, r5, r5
                out   r1, r6
                outct r1, end
                sub   r3, r3, 1
                bt    r3, svl
                freet
            ",
        )
        .expect("assembles");
    system.load_program(NodeId(8), &server).expect("fits");
    for (i, node) in [9u16, 10, 11].into_iter().enumerate() {
        let client = Assembler::new()
            .assemble(&format!(
                "
                    getr  r0, chanend
                    getr  r1, chanend
                    ldc   r2, 0x00080002
                    setd  r1, r2
                    ldc   r3, 2
                    ldc   r4, {value}
                    ldc   r6, {my}
                cl:
                    out   r1, r6
                    out   r1, r4
                    outct r1, end
                    in    r7, r0
                    chkct r0, end
                    sub   r3, r3, 1
                    bt    r3, cl
                    print r7
                    freet
                ",
                value = 10 * (i + 1),
                my = (node as u32) << 16 | 2,
            ))
            .expect("assembles");
        system.load_program(NodeId(node), &client).expect("fits");
    }

    assert!(
        system.run_until_quiescent(TimeDelta::from_ms(20)),
        "machine did not drain: {:?}",
        system.first_trap()
    );
    // Pipeline checksum correct despite the unrelated traffic.
    assert_eq!(
        system.output(NodeId(3)).trim(),
        pipeline::checksum(&pipe_spec).to_string()
    );
    // Each client got 2×value.
    assert_eq!(system.output(NodeId(9)).trim(), "20");
    assert_eq!(system.output(NodeId(10)).trim(), "40");
    assert_eq!(system.output(NodeId(11)).trim(), "60");
}

#[test]
fn event_select_server_multiplexes_two_remote_clients() {
    // One thread on node 4 serves two channels by events (`setv`/`eeu`/
    // `waiteu`) — the XS1 select mechanism — with clients on two other
    // cores. No per-channel threads, no polling.
    let mut system = SystemBuilder::new().build().expect("builds");
    let server = Assembler::new()
        .assemble(
            "
                getr  r0, chanend      # from client A
                getr  r1, chanend      # from client B
                setv  r0, ha
                setv  r1, hb
                eeu   r0
                eeu   r1
                ldc   r5, 6            # six packets total
            loop:
                waiteu
            ha:
                in    r2, r0
                chkct r0, end
                print r2
                bu    check
            hb:
                in    r2, r1
                chkct r1, end
                neg   r2, r2
                print r2
            check:
                sub   r5, r5, 1
                bt    r5, loop
                freet
            ",
        )
        .expect("assembles");
    system.load_program(NodeId(4), &server).expect("fits");
    for (node, chan_idx, base) in [(1u16, 0u32, 10u32), (9, 1, 20)] {
        let dest = (4u32 << 16) | (chan_idx << 8) | 2; // node 4, chanend idx, type
        let client = Assembler::new()
            .assemble(&format!(
                "
                    getr  r0, chanend
                    ldc   r1, {dest}
                    setd  r0, r1
                    ldc   r3, 3
                    ldc   r4, {base}
                cl:
                    out   r0, r4
                    outct r0, end
                    add   r4, r4, 1
                    sub   r3, r3, 1
                    bt    r3, cl
                    freet
                "
            ))
            .expect("assembles");
        system.load_program(NodeId(node), &client).expect("fits");
    }
    assert!(
        system.run_until_quiescent(TimeDelta::from_ms(10)),
        "server did not finish: {:?}",
        system.first_trap()
    );
    // Six lines: 10,11,12 positive (client A) and 20,21,22 negated
    // (client B), in some interleaving.
    let mut lines: Vec<i32> = system
        .output(NodeId(4))
        .lines()
        .map(|l| l.parse().expect("number"))
        .collect();
    lines.sort_unstable();
    assert_eq!(lines, [-22, -21, -20, 10, 11, 12]);
}

#[test]
fn four_slice_grid_runs_a_long_pipeline() {
    // 2×2 slices = 64 cores; a 24-stage pipeline crosses slice
    // boundaries (FFC cables) on the way.
    let mut system = SystemBuilder::new().slices(2, 2).build().expect("builds");
    assert_eq!(system.core_count(), 64);
    let spec = pipeline::PipelineSpec {
        stages: 24,
        items: 8,
        work_per_item: 2,
    };
    let placement = pipeline::generate(&spec, system.machine().spec()).expect("generates");
    placement.apply(&mut system).expect("loads");
    assert!(
        system.run_until_quiescent(TimeDelta::from_ms(50)),
        "trap: {:?}",
        system.first_trap()
    );
    assert_eq!(
        system.output(placement.last_node()).trim(),
        pipeline::checksum(&spec).to_string()
    );
    assert_eq!(system.machine().fabric().unroutable_tokens(), 0);
}

#[test]
fn whole_machine_replay_is_deterministic() {
    let run_once = || {
        let mut system = SystemBuilder::new().build().expect("builds");
        let spec = farm::FarmSpec {
            workers: 6,
            tasks: 18,
            work_per_task: 3,
        };
        farm::generate(&spec, system.machine().spec())
            .expect("generates")
            .apply(&mut system)
            .expect("loads");
        assert!(system.run_until_quiescent(TimeDelta::from_ms(20)));
        (
            system.now().as_ps(),
            system.run_report().instret(),
            system.run_report().ledger.total().as_joules(),
            system.output(NodeId(0)).to_owned(),
        )
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a, b, "time-deterministic platform must replay identically");
}

#[test]
fn shared_memory_is_sequentially_consistent_under_load() {
    let spec = shared_mem::SharedMemSpec {
        clients: 8,
        ops_per_client: 10,
    };
    let mut system = SystemBuilder::new().build().expect("builds");
    shared_mem::generate(&spec, system.machine().spec())
        .expect("generates")
        .apply(&mut system)
        .expect("loads");
    assert!(
        system.run_until_quiescent(TimeDelta::from_ms(100)),
        "trap: {:?}",
        system.first_trap()
    );
    for i in 0..8 {
        assert_eq!(
            system.output(NodeId((i + 1) as u16)).trim(),
            shared_mem::expected_client_sum(&spec, i).to_string(),
            "client {i}"
        );
    }
}

#[test]
fn energy_scales_roughly_linearly_with_slices() {
    // Energy proportionality at system level (§III): an idle 2-slice
    // machine burns about twice the power of an idle 1-slice machine.
    let power_of = |x: u16| {
        let mut system = SystemBuilder::new().slices(x, 1).build().expect("builds");
        system.run_for(TimeDelta::from_us(5));
        system.run_report().mean_power().as_watts()
    };
    let one = power_of(1);
    let two = power_of(2);
    assert!((two / one - 2.0).abs() < 0.05, "one={one} two={two}");
}

#[test]
fn slower_clock_slows_but_does_not_break_messaging() {
    let mut system = SystemBuilder::new()
        .frequency(Frequency::from_mhz(71))
        .build()
        .expect("builds");
    traffic::stream(&traffic::StreamSpec {
        src: NodeId(0),
        dst: NodeId(8),
        words: 32,
        packet_words: 8,
    })
    .expect("generates")
    .apply(&mut system)
    .expect("loads");
    assert!(system.run_until_quiescent(TimeDelta::from_ms(10)));
    assert_eq!(system.output(NodeId(8)).trim(), "32");
}

#[test]
fn client_server_under_clock_heterogeneity() {
    // Clients at different clock speeds still get correct replies.
    let spec = client_server::ServiceSpec {
        clients: 3,
        requests_per_client: 4,
    };
    let mut system = SystemBuilder::new().build().expect("builds");
    client_server::generate(&spec, system.machine().spec())
        .expect("generates")
        .apply(&mut system)
        .expect("loads");
    system
        .machine_mut()
        .set_core_frequency(NodeId(2), Frequency::from_mhz(100));
    assert!(
        system.run_until_quiescent(TimeDelta::from_ms(50)),
        "trap: {:?}",
        system.first_trap()
    );
    for i in 0..3 {
        assert_eq!(
            system.output(NodeId((i + 1) as u16)).trim(),
            client_server::expected_client_sum(&spec, i).to_string()
        );
    }
}
