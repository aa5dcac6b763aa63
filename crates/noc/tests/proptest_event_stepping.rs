//! Event-driven stepping against dense stepping.
//!
//! The fabric's contract with the event-driven engines: strictly before
//! [`Fabric::next_event_at`], a step without new core traffic is a
//! no-op. So stepping only at that instant (aligned up to the 2 ns grid)
//! and at the grid instants where endpoints have output must leave the
//! fabric exactly where stepping every 2 ns leaves it — same deliveries,
//! same per-link statistics, same energy bits. Random multi-flow traffic
//! on rings and meshes, with loopback flows, a drop window and a corrupt
//! window, exercises every worklist push and pop; a snapshot taken
//! mid-traffic and restored into a fresh fabric must continue
//! identically, which exercises the worklist rebuild.

use swallow_energy::WireClass;
use swallow_isa::{ControlToken, NodeId, ResType, ResourceId, Token};
use swallow_noc::endpoints::TestEndpoints;
use swallow_noc::{Direction, Fabric, FabricBuilder, LinkId, LinkParams, LinkStats, TableRouter};
use swallow_sim::{ByteReader, ByteWriter, Time, TimeDelta};
use swallow_testkit::proptest::collection;
use swallow_testkit::proptest::prelude::*;

const GRID: TimeDelta = TimeDelta::from_ns(2);

/// A ring (`mesh == false`, `w` nodes) or a `w × h` mesh whose vertical
/// links are slower board traces, routed by shortest paths.
fn topology(mesh: bool, w: usize, h: usize) -> Fabric {
    let n = if mesh { w * h } else { w };
    let mut b = FabricBuilder::new(n);
    let on_chip = LinkParams::from_class(WireClass::OnChip);
    if mesh {
        let board = LinkParams::from_class(WireClass::BoardVertical);
        for y in 0..h {
            for x in 0..w {
                let i = (y * w + x) as u16;
                if x + 1 < w {
                    b.link_two_way(NodeId(i), NodeId(i + 1), Direction::East, on_chip);
                }
                if y + 1 < h {
                    b.link_two_way(NodeId(i), NodeId(i + w as u16), Direction::North, board);
                }
            }
        }
    } else {
        for i in 0..n {
            let j = (i + 1) % n;
            b.link_two_way(NodeId(i as u16), NodeId(j as u16), Direction::East, on_chip);
        }
    }
    let router = TableRouter::shortest_paths(n, b.link_descs());
    b.build(Box::new(router))
}

/// One flow: `words` words from `(src, chanend)` to `(dst, chanend)` in
/// packets of `packet` words, queued at grid instant `start`. `src ==
/// dst` takes the loopback path.
#[derive(Clone, Copy, Debug)]
struct Flow {
    src: u16,
    dst: u16,
    chanend: u8,
    words: u32,
    packet: u32,
    start: Time,
}

/// A random scenario over `nodes` nodes and `links` links.
#[derive(Clone, Debug)]
struct Scenario {
    flows: Vec<Flow>,
    /// `(link, until)`: a drop window and a corrupt window from t = 0.
    drop: (LinkId, Time),
    corrupt: (LinkId, Time),
}

fn scenario(
    nodes: usize,
    links: usize,
    raw_flows: &[RawFlow],
    windows: (u32, u64, u32, u64),
) -> Scenario {
    let flows = raw_flows
        .iter()
        .map(|&((src, dst, chanend), (words, packet, start_ns))| Flow {
            src: src % nodes as u16,
            dst: dst % nodes as u16,
            chanend,
            words,
            packet,
            start: Time::ZERO + TimeDelta::from_ns(start_ns * 2),
        })
        .collect();
    let (drop_link, drop_ns, corrupt_link, corrupt_ns) = windows;
    Scenario {
        flows,
        drop: (
            LinkId::from_raw(drop_link % links as u32),
            Time::ZERO + TimeDelta::from_ns(drop_ns),
        ),
        corrupt: (
            LinkId::from_raw(corrupt_link % links as u32),
            Time::ZERO + TimeDelta::from_ns(corrupt_ns),
        ),
    }
}

fn chan(node: u16, idx: u8) -> ResourceId {
    ResourceId::new(NodeId(node), idx, ResType::Chanend)
}

/// Queues every flow starting at `now`.
fn inject_due(scenario: &Scenario, eps: &mut TestEndpoints, now: Time) {
    for (f, flow) in scenario.flows.iter().enumerate() {
        if flow.start != now {
            continue;
        }
        let dest = chan(flow.dst, flow.chanend);
        for w in 0..flow.words {
            eps.queue_word(NodeId(flow.src), flow.chanend, dest, (f as u32) << 16 | w);
            if (w + 1) % flow.packet == 0 || w + 1 == flow.words {
                eps.queue_token(
                    NodeId(flow.src),
                    flow.chanend,
                    dest,
                    Token::Ctrl(ControlToken::END),
                );
            }
        }
    }
}

fn tx_pending(eps: &TestEndpoints) -> bool {
    eps.out.iter().flatten().any(|q| !q.is_empty())
}

/// Steps every grid instant in `(from, until]`.
fn run_dense(
    fabric: &mut Fabric,
    eps: &mut TestEndpoints,
    scenario: &Scenario,
    from: Time,
    until: Time,
) {
    let mut now = from;
    while now + GRID <= until {
        now += GRID;
        inject_due(scenario, eps, now);
        fabric.step(now, eps);
    }
}

/// Steps only the grid instants where something is due in `(from,
/// until]`: the fabric's next event, pending endpoint output, or a flow
/// start.
fn run_event_driven(
    fabric: &mut Fabric,
    eps: &mut TestEndpoints,
    scenario: &Scenario,
    from: Time,
    until: Time,
) {
    let mut now = from;
    loop {
        let immediate = now + GRID;
        let next_start = scenario
            .flows
            .iter()
            .map(|f| f.start)
            .filter(|&s| s > now)
            .min();
        let mut next = match fabric.next_event_at(now) {
            _ if tx_pending(eps) => immediate,
            Some(at) => {
                let ps = at.as_ps().max(immediate.as_ps());
                let grid = GRID.as_ps();
                Time::from_ps(ps.div_ceil(grid) * grid)
            }
            None => until + GRID,
        };
        if let Some(start) = next_start {
            next = next.min(start);
        }
        if next > until {
            return;
        }
        now = next;
        inject_due(scenario, eps, now);
        fabric.step(now, eps);
    }
}

/// Everything observable about a fabric and its endpoints. `LinkStats`
/// compares its energy exactly; the fabric total is compared as bits.
#[derive(Debug, PartialEq)]
struct Observed {
    inbox: Vec<Vec<Vec<Token>>>,
    out: Vec<Vec<std::collections::VecDeque<(ResourceId, Token)>>>,
    links: Vec<LinkStats>,
    energy_bits: u64,
    /// In network, delivered, retransmitted, dropped, unroutable.
    counters: [u64; 5],
    next_event: Option<Time>,
}

fn observe(fabric: &Fabric, eps: &TestEndpoints, now: Time) -> Observed {
    Observed {
        inbox: eps.inbox.clone(),
        out: eps.out.clone(),
        links: fabric.link_stats().collect(),
        energy_bits: fabric.total_energy().as_joules().to_bits(),
        counters: [
            fabric.tokens_in_network() as u64,
            fabric.delivered_data_tokens(),
            fabric.total_retransmits(),
            fabric.total_dropped_tokens(),
            fabric.unroutable_tokens(),
        ],
        next_event: fabric.next_event_at(now),
    }
}

fn armed(mesh: bool, w: usize, h: usize, scenario: &Scenario) -> (Fabric, TestEndpoints) {
    let mut fabric = topology(mesh, w, h);
    fabric.set_link_drop_until(scenario.drop.0, scenario.drop.1);
    fabric.set_link_corrupt_until(scenario.corrupt.0, scenario.corrupt.1);
    let eps = TestEndpoints::new(fabric.node_count());
    (fabric, eps)
}

/// `((src, dst, chanend), (words, packet, start / 2 ns))`, nodes taken
/// modulo the topology size.
type RawFlow = ((u16, u16, u8), (u32, u32, u64));

fn flows() -> impl Strategy<Value = Vec<RawFlow>> {
    collection::vec(
        ((0u16..64, 0u16..64, 0u8..4), (1u32..10, 1u32..4, 0u64..400)),
        1..10,
    )
}

/// Windows stay below 400 ns: a control token in either window is
/// retried every token time, and 16 consecutive retries would declare
/// the link dead, which these fabrics (no board layer to reroute) never
/// recover from.
fn windows() -> impl Strategy<Value = (u32, u64, u32, u64)> {
    (0u32..256, 0u64..400, 0u32..256, 0u64..400)
}

const HORIZON: TimeDelta = TimeDelta::from_us(40);
const CHECKPOINT: TimeDelta = TimeDelta::from_ns(20);

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Stepping only at event and injection instants equals stepping
    /// every grid instant, on rings and meshes with faults.
    #[test]
    fn event_stepping_matches_dense_stepping(
        mesh in any::<bool>(),
        w in 3usize..7,
        h in 2usize..4,
        raw in flows(),
        win in windows(),
    ) {
        let probe = topology(mesh, w, h);
        let s = scenario(probe.node_count(), probe.link_count(), &raw, win);
        let (mut dense, mut dense_eps) = armed(mesh, w, h, &s);
        let (mut event, mut event_eps) = armed(mesh, w, h, &s);
        // Compare at checkpoints too, so an event stepped late shows
        // even when the end state catches up.
        let end = Time::ZERO + HORIZON;
        let mut at = Time::ZERO;
        while at < end {
            let next = at + CHECKPOINT;
            run_dense(&mut dense, &mut dense_eps, &s, at, next);
            run_event_driven(&mut event, &mut event_eps, &s, at, next);
            prop_assert_eq!(
                observe(&dense, &dense_eps, next).counters,
                observe(&event, &event_eps, next).counters,
                "at {}", next
            );
            at = next;
        }
        prop_assert_eq!(observe(&dense, &dense_eps, end), observe(&event, &event_eps, end));
        prop_assert!(dense.is_idle() && !tx_pending(&dense_eps), "traffic did not drain");
    }

    /// A snapshot taken mid-traffic, restored into a fresh fabric of the
    /// same topology, continues exactly like the original.
    #[test]
    fn restored_fabric_continues_identically(
        mesh in any::<bool>(),
        w in 3usize..7,
        h in 2usize..4,
        raw in flows(),
        win in windows(),
        cut_ns in 1u64..600,
    ) {
        let probe = topology(mesh, w, h);
        let s = scenario(probe.node_count(), probe.link_count(), &raw, win);
        let (mut original, mut eps) = armed(mesh, w, h, &s);
        let cut = Time::ZERO + TimeDelta::from_ns(cut_ns * 2);
        run_dense(&mut original, &mut eps, &s, Time::ZERO, cut);
        let mut w_bytes = ByteWriter::new();
        original.encode_state(&mut w_bytes);
        let bytes = w_bytes.finish();
        let mut restored = topology(mesh, w, h);
        let mut r = ByteReader::new(&bytes);
        restored.restore_state(&mut r).expect("own snapshot restores");
        r.expect_end().expect("snapshot fully consumed");
        prop_assert_eq!(observe(&original, &eps, cut), observe(&restored, &eps, cut));
        let mut restored_eps = eps.clone();
        let end = Time::ZERO + HORIZON;
        run_event_driven(&mut original, &mut eps, &s, cut, end);
        run_event_driven(&mut restored, &mut restored_eps, &s, cut, end);
        prop_assert_eq!(
            observe(&original, &eps, end),
            observe(&restored, &restored_eps, end)
        );
    }
}
