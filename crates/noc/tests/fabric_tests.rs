//! Fabric behaviour tests: wormhole ownership, credit flow control, link
//! aggregation, packet overhead and energy accounting.

use swallow_energy::WireClass;
use swallow_isa::{ControlToken, NodeId, ResType, ResourceId, Token};
use swallow_noc::endpoints::TestEndpoints;
use swallow_noc::routing::LinkDesc;
use swallow_noc::{
    CoreEndpoints, Direction, Fabric, FabricBuilder, LinkId, LinkParams, TableRouter,
};
use swallow_sim::{Time, TimeDelta, TraceEvent, TraceRecord, Tracer};

fn chan(node: u16, idx: u8) -> ResourceId {
    ResourceId::new(NodeId(node), idx, ResType::Chanend)
}

/// Builds a two-node fabric with `pairs` parallel on-chip link pairs.
fn two_nodes(pairs: usize) -> (Fabric, TestEndpoints) {
    let mut b = FabricBuilder::new(2);
    for _ in 0..pairs {
        b.link_two_way(
            NodeId(0),
            NodeId(1),
            Direction::East,
            LinkParams::from_class(WireClass::OnChip),
        );
    }
    let router = TableRouter::shortest_paths(2, b.link_descs());
    (b.build(router), TestEndpoints::new(2))
}

/// Steps the fabric every 2 ns until idle and all output queues drained
/// (or the time budget expires). Returns the final simulated time.
fn run(fabric: &mut Fabric, eps: &mut TestEndpoints, budget_ns: u64) -> Time {
    let step = TimeDelta::from_ns(2);
    let mut now = Time::ZERO;
    for _ in 0..budget_ns / 2 {
        now += step;
        fabric.step(now, eps);
        let drained = (0..eps.out.len()).all(|n| eps.out[n].iter().all(|q| q.is_empty()));
        if drained && fabric.is_idle() {
            break;
        }
    }
    now
}

#[test]
fn single_word_crosses_one_link() {
    let (mut fabric, mut eps) = two_nodes(1);
    eps.queue_word(NodeId(0), 0, chan(1, 3), 0xCAFE_F00D);
    eps.queue_token(NodeId(0), 0, chan(1, 3), Token::Ctrl(ControlToken::END));
    let end = run(&mut fabric, &mut eps, 100_000);
    assert_eq!(eps.received_words(NodeId(1), 3), vec![0xCAFE_F00D]);
    assert_eq!(fabric.unroutable_tokens(), 0);
    // 3 header + 4 data + 1 END tokens at 32 ns = 256 ns on the wire.
    let expected = TimeDelta::from_ns(8 * 32);
    assert!(
        end.since(Time::ZERO) >= expected
            && end.since(Time::ZERO) <= expected + TimeDelta::from_ns(40),
        "took {end}"
    );
    let stats: Vec<_> = fabric.link_stats().collect();
    let east = stats.iter().find(|s| s.data_tokens > 0).expect("used link");
    assert_eq!(east.data_tokens, 4);
    assert_eq!(east.ctrl_tokens, 1);
    assert_eq!(east.header_tokens, 3);
}

#[test]
fn packet_overhead_approaches_paper_figure() {
    // "The overhead of packet data reduces throughput to approximately
    // 87% of the link speed, but is dependent upon the packet size."
    // 8-word packets: 32 data tokens per 3 header + 1 END = 32/36 = 88.9%.
    let (mut fabric, mut eps) = two_nodes(1);
    let packets = 50;
    for _ in 0..packets {
        for w in 0..8u32 {
            eps.queue_word(NodeId(0), 0, chan(1, 0), w);
        }
        eps.queue_token(NodeId(0), 0, chan(1, 0), Token::Ctrl(ControlToken::END));
    }
    let end = run(&mut fabric, &mut eps, 10_000_000);
    assert_eq!(eps.received_words(NodeId(1), 0).len(), packets * 8);
    let stats = fabric
        .link_stats()
        .find(|s| s.data_tokens > 0)
        .expect("used");
    let total_tokens = stats.data_tokens + stats.ctrl_tokens + stats.header_tokens;
    let efficiency = stats.data_tokens as f64 / total_tokens as f64;
    assert!(
        (efficiency - 32.0 / 36.0).abs() < 0.01,
        "efficiency = {efficiency}"
    );
    // Wall-clock efficiency agrees: payload bits / (elapsed × raw rate).
    let elapsed = end.since(Time::ZERO).as_secs_f64();
    let payload_rate = (stats.data_tokens * 8) as f64 / elapsed;
    assert!(
        payload_rate / 250e6 > 0.80 && payload_rate / 250e6 < 0.92,
        "payload rate = {payload_rate}"
    );
}

#[test]
fn open_route_blocks_other_flows_until_end() {
    let (mut fabric, mut eps) = two_nodes(1);
    // Flow A (chanend 0) sends one word and holds the route open.
    eps.queue_word(NodeId(0), 0, chan(1, 0), 0xAAAA_AAAA);
    // Flow B (chanend 1) wants the same link.
    eps.queue_word(NodeId(0), 1, chan(1, 1), 0xBBBB_BBBB);
    eps.queue_token(NodeId(0), 1, chan(1, 1), Token::Ctrl(ControlToken::END));
    let step = TimeDelta::from_ns(2);
    let mut now = Time::ZERO;
    for _ in 0..2_000 {
        now += step;
        fabric.step(now, &mut eps);
    }
    // A arrived, B is stuck behind the open circuit.
    assert_eq!(eps.received_words(NodeId(1), 0), vec![0xAAAA_AAAA]);
    assert!(eps.received(NodeId(1), 1).is_empty(), "B should be blocked");
    // A closes the route; B now proceeds.
    eps.queue_token(NodeId(0), 0, chan(1, 0), Token::Ctrl(ControlToken::END));
    run(&mut fabric, &mut eps, 100_000);
    assert_eq!(eps.received_words(NodeId(1), 1), vec![0xBBBB_BBBB]);
}

#[test]
fn aggregated_links_carry_concurrent_flows() {
    // With two parallel links, two simultaneous circuits both make
    // progress ("a new communication will use the next unused link").
    let (mut fabric, mut eps) = two_nodes(2);
    for w in 0..16u32 {
        eps.queue_word(NodeId(0), 0, chan(1, 0), w);
        eps.queue_word(NodeId(0), 1, chan(1, 1), w + 100);
    }
    let step = TimeDelta::from_ns(2);
    let mut now = Time::ZERO;
    for _ in 0..1_500 {
        now += step;
        fabric.step(now, &mut eps);
    }
    // Both flows have delivered data despite neither sending END.
    assert!(!eps.received(NodeId(1), 0).is_empty(), "flow A starved");
    assert!(!eps.received(NodeId(1), 1).is_empty(), "flow B starved");
    // And both physical links saw traffic.
    let used = fabric.link_stats().filter(|s| s.data_tokens > 0).count();
    assert_eq!(used, 2);
}

#[test]
fn with_one_link_second_flow_waits() {
    // The control for the aggregation test: same load, single link pair.
    let (mut fabric, mut eps) = two_nodes(1);
    for w in 0..16u32 {
        eps.queue_word(NodeId(0), 0, chan(1, 0), w);
        eps.queue_word(NodeId(0), 1, chan(1, 1), w + 100);
    }
    let step = TimeDelta::from_ns(2);
    let mut now = Time::ZERO;
    for _ in 0..1_500 {
        now += step;
        fabric.step(now, &mut eps);
    }
    assert!(!eps.received(NodeId(1), 0).is_empty());
    assert!(eps.received(NodeId(1), 1).is_empty(), "no END: B must wait");
}

#[test]
fn credit_stall_preserves_tokens() {
    let (mut fabric, mut eps) = two_nodes(1);
    eps.in_capacity = 0; // receiver refuses everything
    for w in 0..8u32 {
        eps.queue_word(NodeId(0), 0, chan(1, 0), w);
    }
    let step = TimeDelta::from_ns(2);
    let mut now = Time::ZERO;
    for _ in 0..5_000 {
        now += step;
        fabric.step(now, &mut eps);
    }
    assert!(eps.received(NodeId(1), 0).is_empty());
    // The credit window bounds what left the source: at most RX_CAPACITY
    // tokens are in the network.
    let queued: usize = eps.out[0][0].len();
    assert!(
        queued >= 32 - swallow_noc::fabric::RX_CAPACITY,
        "too many tokens absorbed: {queued} left"
    );
    // Open the tap: everything flows, nothing was lost.
    eps.in_capacity = 8;
    run(&mut fabric, &mut eps, 1_000_000);
    let words = eps.received_words(NodeId(1), 0);
    assert_eq!(words, (0..8).collect::<Vec<u32>>());
}

#[test]
fn multi_hop_line_delivers_in_order() {
    let mut b = FabricBuilder::new(3);
    let params = LinkParams::from_class(WireClass::BoardVertical);
    b.link_two_way(NodeId(0), NodeId(1), Direction::South, params);
    b.link_two_way(NodeId(1), NodeId(2), Direction::South, params);
    let router = TableRouter::shortest_paths(3, b.link_descs());
    let mut fabric = b.build(router);
    let mut eps = TestEndpoints::new(3);
    for w in 0..5u32 {
        eps.queue_word(NodeId(0), 0, chan(2, 7), w * 3);
    }
    eps.queue_token(NodeId(0), 0, chan(2, 7), Token::Ctrl(ControlToken::END));
    run(&mut fabric, &mut eps, 10_000_000);
    assert_eq!(eps.received_words(NodeId(2), 7), vec![0, 3, 6, 9, 12]);
    assert_eq!(fabric.unroutable_tokens(), 0);
    // Both hops carried the full packet (and their own headers).
    for s in fabric.link_stats().filter(|s| s.data_tokens > 0) {
        assert_eq!(s.data_tokens, 20);
        assert_eq!(s.header_tokens, 3);
        assert_eq!(s.ctrl_tokens, 1);
    }
}

#[test]
fn core_local_traffic_takes_the_loopback() {
    let (mut fabric, mut eps) = two_nodes(1);
    eps.queue_word(NodeId(0), 0, chan(0, 1), 77);
    run(&mut fabric, &mut eps, 10_000);
    assert_eq!(eps.received_words(NodeId(0), 1), vec![77]);
    // No physical link was used.
    assert!(fabric.link_stats().all(|s| s.data_tokens == 0));
    assert_eq!(fabric.total_energy(), swallow_energy::Energy::ZERO);
}

#[test]
fn unroutable_tokens_are_counted_not_wedged() {
    // Node 1 has no route back to node 0.
    let mut b = FabricBuilder::new(2);
    b.link_one_way(
        NodeId(0),
        NodeId(1),
        Direction::East,
        LinkParams::from_class(WireClass::OnChip),
    );
    let router = TableRouter::shortest_paths(2, b.link_descs());
    let mut fabric = b.build(router);
    let mut eps = TestEndpoints::new(2);
    eps.queue_word(NodeId(1), 0, chan(0, 0), 5);
    eps.queue_word(NodeId(1), 1, chan(0, 0), 6); // also unroutable
    run(&mut fabric, &mut eps, 10_000);
    assert_eq!(fabric.unroutable_tokens(), 8);
    assert!(fabric.is_idle());
}

#[test]
fn link_energy_matches_table_i_per_bit() {
    let (mut fabric, mut eps) = two_nodes(1);
    let words = 256u32;
    for w in 0..words {
        eps.queue_word(NodeId(0), 0, chan(1, 0), w);
    }
    eps.queue_token(NodeId(0), 0, chan(1, 0), Token::Ctrl(ControlToken::END));
    run(&mut fabric, &mut eps, 100_000_000);
    let stats = fabric
        .link_stats()
        .find(|s| s.data_tokens > 0)
        .expect("used");
    assert_eq!(stats.data_tokens as u32, words * 4);
    // Raw per-bit energy (payload + header + ctrl overhead amortised over
    // payload bits) is within a few percent of Table I's 5.6 pJ/bit for a
    // long packet.
    let per_bit = stats.energy_per_payload_bit().as_picojoules();
    let expected = WireClass::OnChip.energy_per_bit().as_picojoules();
    assert!(
        per_bit >= expected && per_bit < expected * 1.05,
        "per_bit = {per_bit} vs {expected}"
    );
}

#[test]
fn vertical_first_router_on_a_package_pair_reaches_everything() {
    use swallow_noc::routing::{Coord, Layer};
    // Two packages side by side: nodes 0/1 (pkg 0: V, H), 2/3 (pkg 1).
    let coords = vec![
        Coord {
            x: 0,
            y: 0,
            layer: Layer::Vertical,
        },
        Coord {
            x: 0,
            y: 0,
            layer: Layer::Horizontal,
        },
        Coord {
            x: 1,
            y: 0,
            layer: Layer::Vertical,
        },
        Coord {
            x: 1,
            y: 0,
            layer: Layer::Horizontal,
        },
    ];
    let mut b = FabricBuilder::new(4);
    let internal = LinkParams::from_class(WireClass::OnChip);
    let board = LinkParams::from_class(WireClass::BoardHorizontal);
    b.link_two_way(NodeId(0), NodeId(1), Direction::Internal, internal);
    b.link_two_way(NodeId(2), NodeId(3), Direction::Internal, internal);
    b.link_two_way(NodeId(1), NodeId(3), Direction::East, board);
    let descs: Vec<LinkDesc> = b.link_descs().to_vec();
    let router = TableRouter::vertical_first(&coords, &descs);
    let mut fabric = b.build(router);
    let mut eps = TestEndpoints::new(4);
    // Every node sends to every other node.
    for src in 0..4u16 {
        for dst in 0..4u16 {
            if src == dst {
                continue;
            }
            eps.queue_word(
                NodeId(src),
                dst as u8,
                chan(dst, src as u8),
                (src as u32) << 8 | dst as u32,
            );
            eps.queue_token(
                NodeId(src),
                dst as u8,
                chan(dst, src as u8),
                Token::Ctrl(ControlToken::END),
            );
        }
    }
    run(&mut fabric, &mut eps, 10_000_000);
    assert_eq!(fabric.unroutable_tokens(), 0);
    for src in 0..4u16 {
        for dst in 0..4u16 {
            if src == dst {
                continue;
            }
            assert_eq!(
                eps.received_words(NodeId(dst), src as u8),
                vec![(src as u32) << 8 | dst as u32],
                "{src} -> {dst}"
            );
        }
    }
}

/// A switch serves its input ports in link-id order: when two packets
/// land at node 2 in the same step and both need its one link to node 3,
/// the packet on the lower-numbered input link takes it first, whatever
/// the sending nodes' order.
#[test]
fn switch_serves_input_ports_in_link_id_order() {
    let on_chip = LinkParams::from_class(WireClass::OnChip);
    let mut b = FabricBuilder::new(4);
    b.link_one_way(NodeId(1), NodeId(2), Direction::East, on_chip);
    b.link_one_way(NodeId(0), NodeId(2), Direction::East, on_chip);
    b.link_one_way(NodeId(2), NodeId(3), Direction::East, on_chip);
    let router = TableRouter::shortest_paths(4, b.link_descs());
    let mut fabric = b.build(router);
    let mut eps = TestEndpoints::new(4);
    for src in [0u16, 1] {
        eps.queue_token(NodeId(src), 0, chan(3, src as u8), Token::Data(src as u8));
        eps.queue_token(
            NodeId(src),
            0,
            chan(3, src as u8),
            Token::Ctrl(ControlToken::END),
        );
    }
    let mut now = Time::ZERO;
    while eps.received(NodeId(3), 0).is_empty() && eps.received(NodeId(3), 1).is_empty() {
        now += TimeDelta::from_ns(2);
        assert!(
            now < Time::ZERO + TimeDelta::from_us(10),
            "nothing delivered"
        );
        fabric.step(now, &mut eps);
    }
    assert_eq!(eps.received(NodeId(3), 1), [Token::Data(1)]);
    assert!(eps.received(NodeId(3), 0).is_empty());
    run(&mut fabric, &mut eps, 100_000);
    assert_eq!(eps.received(NodeId(3), 0).len(), 2);
}

// --- time-parked heads ------------------------------------------------------
//
// A head blocked only by busy links parks until the earliest `busy_until`
// instead of retrying every step. Each case runs the same script stepped
// on every grid edge (dense) and only on the edges where something is
// due (event-driven), and pins the instants the dense scan would have
// produced: a wake that came late, or not at all, moves them.

/// Steps `fabric` over the grid edges of `grid` up to `until`, calling
/// `script` on every edge before the step. Dense runs step every edge;
/// event-driven runs step only where the endpoints have output or
/// [`Fabric::next_event_at`] is due. Returns the trace and the most
/// heads seen parked after any step.
fn run_script(
    fabric: &mut Fabric,
    eps: &mut TestEndpoints,
    grid: TimeDelta,
    until: Time,
    dense: bool,
    mut script: impl FnMut(Time, &mut Fabric, &mut TestEndpoints),
) -> (Vec<TraceRecord>, usize) {
    fabric.set_tracer(Tracer::ring_with_capacity(4096));
    let mut now = Time::ZERO;
    let mut parked = 0;
    while now + grid <= until {
        now += grid;
        script(now, fabric, eps);
        let tx_pending = eps.out.iter().flatten().any(|q| !q.is_empty());
        if dense || tx_pending || fabric.next_event_at(now).is_some_and(|at| at <= now) {
            fabric.step(now, eps);
            parked = parked.max(fabric.parked_heads());
        }
    }
    let trace = fabric
        .tracer()
        .ring()
        .expect("tracing")
        .iter()
        .copied()
        .collect();
    (trace, parked)
}

/// Start instants of the `LinkTransit` records on `link`.
fn transits(trace: &[TraceRecord], link: u32) -> Vec<Time> {
    trace
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::LinkTransit { link: l, .. } if l == link))
        .map(|r| r.at)
        .collect()
}

/// The first edge of `grid` at or after `t`.
fn grid_ceil(t: Time, grid: TimeDelta) -> Time {
    Time::from_ps(t.as_ps().div_ceil(grid.as_ps()) * grid.as_ps())
}

/// Runs `setup`'s fabric and endpoints under both cadences with the same
/// script, asserts they agree on the trace, every link's statistics and
/// the deliveries, and returns the dense run's trace, parked-head peak
/// and fabric.
fn dense_and_event_driven(
    setup: impl Fn() -> (Fabric, TestEndpoints),
    grid: TimeDelta,
    until: Time,
    script: impl Fn(Time, &mut Fabric, &mut TestEndpoints),
) -> (Vec<TraceRecord>, usize, Fabric) {
    let (mut dense, mut dense_eps) = setup();
    let (mut event, mut event_eps) = setup();
    let (dense_trace, parked) = run_script(&mut dense, &mut dense_eps, grid, until, true, &script);
    let (event_trace, _) = run_script(&mut event, &mut event_eps, grid, until, false, &script);
    assert_eq!(dense_trace, event_trace);
    assert_eq!(
        dense.link_stats().collect::<Vec<_>>(),
        event.link_stats().collect::<Vec<_>>()
    );
    assert_eq!(dense_eps.inbox, event_eps.inbox);
    assert!(dense.is_idle() && event.is_idle(), "traffic did not drain");
    (dense_trace, parked, dense)
}

#[test]
fn parked_switch_queue_launches_on_the_first_edge_at_busy_until() {
    // 0 → 1 → 2 over on-chip links (32 ns a token), stepped on a 3 ns
    // grid so that `busy_until` falls between edges. The second hop's
    // route header puts it behind the first, so node 1's queue always
    // waits for its outgoing link, and node 0's chanend for its own:
    // every transit after the first on a link must start on the first
    // edge at or after the previous transit ends.
    let grid = TimeDelta::from_ns(3);
    let setup = || {
        let mut b = FabricBuilder::new(3);
        let on_chip = LinkParams::from_class(WireClass::OnChip);
        b.link_two_way(NodeId(0), NodeId(1), Direction::East, on_chip);
        b.link_two_way(NodeId(1), NodeId(2), Direction::East, on_chip);
        let router = TableRouter::shortest_paths(3, b.link_descs());
        let mut eps = TestEndpoints::new(3);
        for w in 0..4 {
            eps.queue_word(NodeId(0), 0, chan(2, 5), 0x0101_0101 * w);
        }
        eps.queue_token(NodeId(0), 0, chan(2, 5), Token::Ctrl(ControlToken::END));
        (b.build(router), eps)
    };
    let until = Time::ZERO + TimeDelta::from_us(2);
    let (trace, parked, _) = dense_and_event_driven(setup, grid, until, |_, _, _| {});
    assert!(parked > 0, "no head ever parked");
    let token_time = TimeDelta::from_ns(32);
    for link in [0, 2] {
        let starts = transits(&trace, link);
        assert_eq!(starts.len(), 17, "link {link}: 16 data tokens and END");
        for pair in starts.windows(2) {
            assert_eq!(
                pair[1],
                grid_ceil(pair[0] + token_time, grid),
                "link {link}: launched late or early after {:?}",
                pair[0]
            );
        }
    }
}

#[test]
fn parked_head_reroutes_on_the_next_step_when_its_link_goes_down() {
    // Two aggregated link pairs between nodes 0 and 1. The flow binds
    // link 0 and its next token parks behind the header. When link 0
    // goes down just before the step at 50 ns, the parked head must
    // retry in that very step and re-open the route over link 2 — not
    // wait for link 0's `busy_until` (130 ns).
    let grid = TimeDelta::from_ns(2);
    let setup = || {
        let (fabric, mut eps) = two_nodes(2);
        eps.queue_word(NodeId(0), 0, chan(1, 0), 0xDEAD_BEEF);
        eps.queue_token(NodeId(0), 0, chan(1, 0), Token::Ctrl(ControlToken::END));
        (fabric, eps)
    };
    let down_at = Time::ZERO + TimeDelta::from_ns(50);
    let until = Time::ZERO + TimeDelta::from_us(2);
    let (trace, parked, fabric) = dense_and_event_driven(setup, grid, until, |now, fabric, _| {
        if now == down_at {
            assert_eq!(fabric.parked_heads(), 1, "the second token waits");
            assert!(fabric.set_link_down(LinkId::from_raw(0)));
        }
    });
    assert!(parked > 0);
    let header = TimeDelta::from_ns(3 * 32);
    assert_eq!(
        transits(&trace, 0),
        [Time::ZERO + TimeDelta::from_ns(2) + header]
    );
    let rerouted = transits(&trace, 2);
    assert_eq!(rerouted[0], down_at + header);
    let stats: Vec<_> = fabric.link_stats().collect();
    assert_eq!(stats[0].data_tokens + stats[2].data_tokens, 4);
    assert_eq!(stats[2].header_tokens, 3, "the reroute re-opens the route");
}

#[test]
fn corrupt_retry_parks_until_the_retry_frees_the_link() {
    // A corrupt window on the only link until 100 ns. Each failed launch
    // holds the link for one token time (32 ns) and the head parks until
    // then, so the attempts land at 2, 34, 66 and 98 ns — four
    // retransmits — and the header goes out at 130 ns, with the same
    // counters and energy bits under both cadences.
    let grid = TimeDelta::from_ns(2);
    let setup = || {
        let (mut fabric, mut eps) = two_nodes(1);
        fabric.set_link_corrupt_until(LinkId::from_raw(0), Time::ZERO + TimeDelta::from_ns(100));
        eps.queue_word(NodeId(0), 0, chan(1, 0), 0x1234_5678);
        eps.queue_token(NodeId(0), 0, chan(1, 0), Token::Ctrl(ControlToken::END));
        (fabric, eps)
    };
    let until = Time::ZERO + TimeDelta::from_us(2);
    let (trace, parked, fabric) = dense_and_event_driven(setup, grid, until, |_, _, _| {});
    assert!(parked > 0);
    let retries: Vec<Time> = trace
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::LinkRetry { link: 0, .. }))
        .map(|r| r.at)
        .collect();
    let ns = |n| Time::ZERO + TimeDelta::from_ns(n);
    assert_eq!(retries, [ns(2), ns(34), ns(66), ns(98)]);
    assert_eq!(transits(&trace, 0)[0], ns(130 + 3 * 32));
    assert_eq!(fabric.total_retransmits(), 4);
    let link = fabric.link_stats().next().expect("link 0");
    assert_eq!(link.retransmits, 4);
    // Four retries, three header tokens, four data tokens and END.
    let expected = LinkParams::from_class(WireClass::OnChip).token_energy() * 12.0;
    assert_eq!(
        link.energy.as_joules().to_bits(),
        expected.as_joules().to_bits()
    );
}

// `next_event_at` answers the wake of a parked head, and
// `tx_all_parked` says when a node's output waits only on one: the two
// facts the board's fast-forward needs to jump over a busy link.

#[test]
fn parked_switch_queue_is_the_next_event() {
    // 0 → 1 over an on-chip link (32 ns a token), 1 → 2 over a board
    // trace (128 ns). By 400 ns the whole packet has landed at node 1,
    // where its head waits for the slower link: nothing is on a wire and
    // nothing is left to inject, so the next event is the wake — the
    // instant the board link's last transit ends.
    let mut b = FabricBuilder::new(3);
    b.link_two_way(
        NodeId(0),
        NodeId(1),
        Direction::East,
        LinkParams::from_class(WireClass::OnChip),
    );
    let board = LinkParams::from_class(WireClass::BoardVertical);
    b.link_two_way(NodeId(1), NodeId(2), Direction::East, board);
    let router = TableRouter::shortest_paths(3, b.link_descs());
    let mut fabric = b.build(router);
    let mut eps = TestEndpoints::new(3);
    eps.queue_word(NodeId(0), 0, chan(2, 1), 0x0102_0304);
    eps.queue_token(NodeId(0), 0, chan(2, 1), Token::Ctrl(ControlToken::END));
    fabric.set_tracer(Tracer::ring_with_capacity(64));
    let step = TimeDelta::from_ns(2);
    let mut now = Time::ZERO;
    while now < Time::ZERO + TimeDelta::from_ns(400) {
        now += step;
        fabric.step(now, &mut eps);
    }
    assert!(eps.out.iter().flatten().all(|q| q.is_empty()));
    assert_eq!(
        fabric.parked_heads(),
        1,
        "node 1's queue waits on the board link"
    );
    let trace: Vec<TraceRecord> = fabric
        .tracer()
        .ring()
        .expect("tracing")
        .iter()
        .copied()
        .collect();
    let last = *transits(&trace, 2).last().expect("node 1 launched");
    let wake = last + board.token_time;
    assert!(wake > now);
    assert_eq!(fabric.next_event_at(now), Some(wake));
}

#[test]
fn head_parked_behind_a_dropped_launch_keeps_the_fabric_due() {
    // The first data token launches into a drop window and is lost, so
    // nothing is left in the network — but the flow's next token is
    // parked behind the link the lost launch keeps busy (route header and
    // token: 4 × 32 ns). The fabric must answer that wake, not `None`.
    let (mut fabric, mut eps) = two_nodes(1);
    let start = Time::ZERO + TimeDelta::from_ns(2);
    fabric.set_link_drop_until(LinkId::from_raw(0), start + TimeDelta::from_ns(1));
    eps.queue_word(NodeId(0), 0, chan(1, 0), 0xAABB_CCDD);
    fabric.step(start, &mut eps);
    assert_eq!(fabric.total_dropped_tokens(), 1);
    assert_eq!(fabric.tokens_in_network(), 0);
    assert_eq!(fabric.parked_heads(), 1);
    assert!(fabric.tx_all_parked(NodeId(0), 1));
    let wake = start + TimeDelta::from_ns(4 * 32);
    assert_eq!(fabric.next_event_at(start), Some(wake));
}

/// The one chanend above 31 the tests use: chanends from 32 up never
/// park.
const HIGH: u8 = 39;

/// [`TestEndpoints`] whose chanend 7 is addressed as [`HIGH`].
struct HighChanend(TestEndpoints);

fn inner(chanend: u8) -> u8 {
    if chanend == HIGH {
        7
    } else {
        chanend
    }
}

impl CoreEndpoints for HighChanend {
    fn has_tx_pending(&self, node: NodeId) -> bool {
        self.0.has_tx_pending(node)
    }

    fn for_each_tx_pending(&self, node: NodeId, visit: &mut dyn FnMut(u8)) {
        self.0
            .for_each_tx_pending(node, &mut |ch| visit(if ch == 7 { HIGH } else { ch }))
    }

    fn tx_front(&self, node: NodeId, chanend: u8) -> Option<(ResourceId, Token)> {
        self.0.tx_front(node, inner(chanend))
    }

    fn tx_pop(&mut self, node: NodeId, chanend: u8) -> Option<(ResourceId, Token)> {
        self.0.tx_pop(node, inner(chanend))
    }

    fn can_accept(&self, node: NodeId, chanend: u8, n: usize) -> bool {
        self.0.can_accept(node, inner(chanend), n)
    }

    fn deliver(&mut self, node: NodeId, chanend: u8, token: Token) -> bool {
        self.0.deliver(node, inner(chanend), token)
    }
}

#[test]
fn tx_all_parked_needs_every_pending_chanend_parked() {
    // Two aggregated link pairs, so two flows from node 0 each bind a
    // link of their own and their second tokens wait only on it. After
    // one step each flow has output left on its chanend.
    let at = Time::ZERO + TimeDelta::from_ns(2);
    let run = |chanends: &[u8]| {
        let (mut fabric, eps) = two_nodes(2);
        let mut eps = HighChanend(eps);
        for &ch in chanends {
            eps.0
                .queue_word(NodeId(0), inner(ch), chan(1, ch % 8), 0x1111_1111);
        }
        fabric.step(at, &mut eps);
        assert_eq!(eps.tx_pending_count(NodeId(0)), chanends.len());
        fabric
    };
    // Both chanends below 32 park: the node's output waits on wakes.
    let fabric = run(&[0, 1]);
    assert_eq!(fabric.parked_heads(), 2);
    assert!(fabric.tx_all_parked(NodeId(0), 2));
    assert!(
        !fabric.tx_all_parked(NodeId(0), 3),
        "a third pending chanend"
    );
    assert!(!fabric.tx_all_parked(NodeId(1), 0), "nothing pending");
    // A chanend above 31 waits on the same kind of busy link but never
    // parks, so its node always has output due.
    let fabric = run(&[0, HIGH]);
    assert_eq!(fabric.parked_heads(), 1);
    assert!(!fabric.tx_all_parked(NodeId(0), 2));
    let fabric = run(&[HIGH]);
    assert_eq!(fabric.parked_heads(), 0);
    assert!(!fabric.tx_all_parked(NodeId(0), 1));
    // A second flow for a link the first owns parks too, on the link's
    // release rather than a time: only one link pair, and chanend 1
    // finds it owned.
    let (mut fabric, mut eps) = two_nodes(1);
    eps.queue_word(NodeId(0), 0, chan(1, 0), 0x2222_2222);
    eps.queue_word(NodeId(0), 1, chan(1, 1), 0x3333_3333);
    fabric.step(at, &mut eps);
    assert_eq!(
        fabric.parked_heads(),
        2,
        "chanend 0 on time, 1 on the release"
    );
    assert!(fabric.tx_all_parked(NodeId(0), 2));
}

// --- event-parked heads -----------------------------------------------------
//
// A head blocked by another flow's ownership, by missing credit or by a
// refusing destination chanend parks on the event that frees it. While
// it waits, nothing about it is due: `next_event_at` must not answer
// `now`. When the event comes, the head must move exactly where a retry
// on every edge would have moved it.

/// Steps `fabric` on the 2 ns grid up to `until`, calling `script`
/// before every step, and returns the instants after whose step the
/// fabric answered `next_event_at == now`, plus the trace.
fn step_recording_due(
    fabric: &mut Fabric,
    eps: &mut impl CoreEndpoints,
    until: Time,
    mut script: impl FnMut(Time, &mut Fabric),
) -> (Vec<Time>, Vec<TraceRecord>) {
    fabric.set_tracer(Tracer::ring_with_capacity(4096));
    let mut due = Vec::new();
    let mut now = Time::ZERO;
    while now < until {
        now += TimeDelta::from_ns(2);
        script(now, fabric);
        fabric.step(now, eps);
        if fabric.next_event_at(now) == Some(now) {
            due.push(now);
        }
    }
    let trace = fabric
        .tracer()
        .ring()
        .expect("tracing")
        .iter()
        .copied()
        .collect();
    (due, trace)
}

#[test]
fn head_blocked_by_another_flows_route_parks_until_its_end_launches() {
    // Nodes 0 and 1 both send to node 3 through node 2, whose one link
    // to node 3 (link 2) is the bottleneck. Both packets land at node 2
    // in the same step; node 2 serves link 0 (from node 0) first, so
    // flow A's eight-word packet takes link 2, and flow B's head finds
    // it owned. B parks on the route's release: no edge is due for it
    // until A's END launches, and B's route header follows on the first
    // edge the END leaves link 2 free.
    let setup = || {
        let on_chip = LinkParams::from_class(WireClass::OnChip);
        let mut b = FabricBuilder::new(4);
        b.link_one_way(NodeId(0), NodeId(2), Direction::East, on_chip);
        b.link_one_way(NodeId(1), NodeId(2), Direction::East, on_chip);
        b.link_one_way(NodeId(2), NodeId(3), Direction::East, on_chip);
        let router = TableRouter::shortest_paths(4, b.link_descs());
        let mut eps = TestEndpoints::new(4);
        for w in 0..8 {
            eps.queue_word(NodeId(0), 0, chan(3, 0), 0xA0A0_0000 | w);
        }
        eps.queue_token(NodeId(0), 0, chan(3, 0), Token::Ctrl(ControlToken::END));
        eps.queue_word(NodeId(1), 0, chan(3, 1), 0xB0B0_B0B0);
        eps.queue_token(NodeId(1), 0, chan(3, 1), Token::Ctrl(ControlToken::END));
        (b.build(router), eps)
    };
    let until = Time::ZERO + TimeDelta::from_us(3);
    let grid = TimeDelta::from_ns(2);
    let (_, parked, _) = dense_and_event_driven(setup, grid, until, |_, _, _| {});
    assert!(parked > 0);
    let (mut fabric, mut eps) = setup();
    let (due, trace) = step_recording_due(&mut fabric, &mut eps, until, |_, _| {});
    assert_eq!(
        eps.received_words(NodeId(3), 0),
        (0..8).map(|w| 0xA0A0_0000 | w).collect::<Vec<_>>()
    );
    assert_eq!(eps.received_words(NodeId(3), 1), [0xB0B0_B0B0]);
    let token_time = TimeDelta::from_ns(32);
    let bottleneck = transits(&trace, 2);
    assert_eq!(
        bottleneck.len(),
        33 + 5,
        "A: 32 data and END; B: 4 data and END"
    );
    let a_end = bottleneck[32];
    // B's first token lands at node 2 one token time after its transit
    // on link 1 starts; from then until A's END launches, B is parked on
    // the release and nothing else waits on a retry.
    let b_landed = transits(&trace, 1)[0] + token_time;
    assert!(b_landed < a_end);
    assert!(
        due.iter().all(|&t| t < b_landed || t >= a_end),
        "the fabric answered `now` while B waited on the release: {due:?}"
    );
    assert_eq!(bottleneck[33], a_end + token_time + token_time * 3);
}

/// A three-node line `0 → s → d` whose destination `d` refuses every
/// delivery until `open`: the receive queue at `d` fills, its credit
/// runs out, and the queue at `s` waits for credit on `s → d` (link 1).
/// Returns the dense run's first transit on link 1 at or after `open`
/// and the instants the fabric answered `now` while blocked.
fn credit_wake(s: u16, d: u16, open: Time) -> (Time, Vec<Time>) {
    let setup = || {
        let on_chip = LinkParams::from_class(WireClass::OnChip);
        let mut b = FabricBuilder::new(3);
        b.link_one_way(NodeId(0), NodeId(s), Direction::East, on_chip);
        b.link_one_way(NodeId(s), NodeId(d), Direction::East, on_chip);
        let router = TableRouter::shortest_paths(3, b.link_descs());
        let mut eps = TestEndpoints::new(3);
        eps.in_capacity = 0;
        for w in 0..8 {
            eps.queue_word(NodeId(0), 0, chan(d, 0), w);
        }
        eps.queue_token(NodeId(0), 0, chan(d, 0), Token::Ctrl(ControlToken::END));
        (b.build(router), eps)
    };
    let until = open + TimeDelta::from_us(2);
    let grid = TimeDelta::from_ns(2);
    let open_at = |now: Time, eps: &mut TestEndpoints| {
        if now == open {
            eps.in_capacity = 8;
        }
    };
    dense_and_event_driven(setup, grid, until, |now, _, eps| open_at(now, eps));
    let (mut fabric, mut eps) = setup();
    let mut blocked = Vec::new();
    let mut now = Time::ZERO;
    fabric.set_tracer(Tracer::ring_with_capacity(4096));
    while now < until {
        now += grid;
        open_at(now, &mut eps);
        fabric.step(now, &mut eps);
        if now >= open - TimeDelta::from_ns(500) && now < open {
            assert!(
                fabric.parked_heads() >= 2,
                "s's queue and d's delivery wait"
            );
            if fabric.next_event_at(now) == Some(now) {
                blocked.push(now);
            }
        }
    }
    assert_eq!(eps.received_words(NodeId(d), 0), (0..8).collect::<Vec<_>>());
    let trace: Vec<TraceRecord> = fabric
        .tracer()
        .ring()
        .expect("tracing")
        .iter()
        .copied()
        .collect();
    let first = transits(&trace, 1)
        .into_iter()
        .find(|&t| t >= open)
        .expect("s resumed");
    (first, blocked)
}

#[test]
fn credit_wake_is_served_in_the_same_pass_only_from_ahead() {
    // When `d` opens, its queue delivers and every pop returns a credit
    // on link 1, waking `s`'s queue. Switches serve their input queues
    // node-major, as `switch_serves_input_ports_in_link_id_order` pins:
    // with `s` after `d` the woken queue is still ahead in the pass and
    // launches on the opening edge, with `s` before `d` it was passed
    // already and launches on the next edge — as a queue retrying every
    // edge would.
    let open = Time::ZERO + TimeDelta::from_us(2);
    let (ahead, blocked) = credit_wake(2, 1, open);
    assert_eq!(ahead, open);
    assert!(
        blocked.is_empty(),
        "due while parked on credit: {blocked:?}"
    );
    let (behind, blocked) = credit_wake(1, 2, open);
    assert_eq!(behind, open + TimeDelta::from_ns(2));
    assert!(
        blocked.is_empty(),
        "due while parked on credit: {blocked:?}"
    );
}

/// [`TestEndpoints`] whose chanends hold at most `capacity` unread
/// tokens; [`Bounded::read`] stands in for the core reading its input
/// and reports the freed chanend through `take_drained`.
struct Bounded {
    eps: TestEndpoints,
    capacity: usize,
    /// Per node, per chanend: delivered tokens not yet read.
    unread: Vec<Vec<usize>>,
    drained: Vec<u32>,
}

impl Bounded {
    fn new(nodes: usize, capacity: usize) -> Self {
        Bounded {
            eps: TestEndpoints::new(nodes),
            capacity,
            unread: vec![vec![0; swallow_noc::endpoints::TEST_CHANENDS]; nodes],
            drained: vec![0; nodes],
        }
    }

    fn read(&mut self, node: u16, chanend: u8) {
        let unread = &mut self.unread[node as usize][chanend as usize];
        assert!(*unread > 0, "nothing to read");
        *unread -= 1;
        self.drained[node as usize] |= 1 << chanend;
    }
}

impl CoreEndpoints for Bounded {
    fn has_tx_pending(&self, node: NodeId) -> bool {
        self.eps.has_tx_pending(node)
    }

    fn for_each_tx_pending(&self, node: NodeId, visit: &mut dyn FnMut(u8)) {
        self.eps.for_each_tx_pending(node, visit)
    }

    fn tx_front(&self, node: NodeId, chanend: u8) -> Option<(ResourceId, Token)> {
        self.eps.tx_front(node, chanend)
    }

    fn tx_pop(&mut self, node: NodeId, chanend: u8) -> Option<(ResourceId, Token)> {
        self.eps.tx_pop(node, chanend)
    }

    fn can_accept(&self, node: NodeId, chanend: u8, n: usize) -> bool {
        self.eps.can_accept(node, chanend, n)
            && self.unread[node.raw() as usize][chanend as usize] + n <= self.capacity
    }

    fn deliver(&mut self, node: NodeId, chanend: u8, token: Token) -> bool {
        if !self.can_accept(node, chanend, 1) || !self.eps.deliver(node, chanend, token) {
            return false;
        }
        self.unread[node.raw() as usize][chanend as usize] += 1;
        true
    }

    fn take_drained(&mut self, node: NodeId) -> u32 {
        std::mem::take(&mut self.drained[node.raw() as usize])
    }
}

#[test]
fn delivery_into_a_full_chanend_parks_until_the_core_reads() {
    // Two words and END for a chanend that holds two unread tokens. Once
    // it is full the delivery head parks, the rest of the packet lands
    // behind it, and the fabric has nothing due at all. Each read at
    // 1 µs, 2 µs, ... frees one token of space, and the step at that
    // instant delivers exactly one token — whether the fabric was
    // stepped on every edge in between or only at the reads.
    let run = |dense: bool| {
        let (mut fabric, _) = two_nodes(1);
        let mut eps = Bounded::new(2, 2);
        for w in 0..2 {
            eps.eps
                .queue_word(NodeId(0), 0, chan(1, 0), 0x0101_0101 * (w + 1));
        }
        eps.eps
            .queue_token(NodeId(0), 0, chan(1, 0), Token::Ctrl(ControlToken::END));
        let mut counts = Vec::new();
        let mut now = Time::ZERO;
        for read in 1..=7u64 {
            let at = Time::ZERO + TimeDelta::from_us(read);
            while now + TimeDelta::from_ns(2) < at {
                now += TimeDelta::from_ns(2);
                let tx = eps.eps.out.iter().flatten().any(|q| !q.is_empty());
                if dense || tx || fabric.next_event_at(now).is_some_and(|t| t <= now) {
                    fabric.step(now, &mut eps);
                }
            }
            assert!(fabric.parked_heads() > 0, "the delivery waits");
            assert_eq!(fabric.next_event_at(now), None, "nothing is due");
            now = at;
            eps.read(1, 0);
            fabric.step(now, &mut eps);
            counts.push(eps.eps.received(NodeId(1), 0).len());
        }
        assert!(fabric.is_idle());
        counts
    };
    let dense = run(true);
    assert_eq!(dense, [3, 4, 5, 6, 7, 8, 9]);
    assert_eq!(run(false), dense);
}
