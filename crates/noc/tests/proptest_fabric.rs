//! Property tests over the fabric: arbitrary line/ring topologies and
//! packetisations always deliver every token, in order, with zero loss.

use swallow_energy::WireClass;
use swallow_isa::{ControlToken, NodeId, ResType, ResourceId, Token};
use swallow_noc::endpoints::TestEndpoints;
use swallow_noc::{Direction, Fabric, FabricBuilder, LinkParams, TableRouter};
use swallow_sim::{Time, TimeDelta};
use swallow_testkit::proptest::prelude::*;

fn chan(node: u16, idx: u8) -> ResourceId {
    ResourceId::new(NodeId(node), idx, ResType::Chanend)
}

/// A ring of `n` nodes (directed both ways) over on-chip links.
fn ring(n: usize) -> Fabric {
    let mut b = FabricBuilder::new(n);
    for i in 0..n {
        let j = (i + 1) % n;
        b.link_two_way(
            NodeId(i as u16),
            NodeId(j as u16),
            Direction::East,
            LinkParams::from_class(WireClass::OnChip),
        );
    }
    let router = TableRouter::shortest_paths(n, b.link_descs());
    b.build(router)
}

fn drain(fabric: &mut Fabric, eps: &mut TestEndpoints, budget_steps: u64) {
    let step = TimeDelta::from_ns(2);
    let mut now = Time::ZERO;
    for _ in 0..budget_steps {
        now += step;
        fabric.step(now, eps);
        let empty = (0..eps.out.len()).all(|n| eps.out[n].iter().all(|q| q.is_empty()));
        if empty && fabric.is_idle() {
            return;
        }
    }
    panic!("fabric did not drain");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Words sent around a ring arrive complete and in order, regardless
    /// of ring size, hop distance and packet size.
    #[test]
    fn ring_streams_deliver_in_order(
        n in 3usize..10,
        hops in 1usize..6,
        words in 1u32..24,
        packet in 1u32..8,
    ) {
        let src = 0u16;
        let dst = ((hops) % n) as u16;
        prop_assume!(dst != src);
        let mut fabric = ring(n);
        let mut eps = TestEndpoints::new(n);
        let mut sent = Vec::new();
        for w in 0..words {
            let value = w.wrapping_mul(0x9E37_79B9);
            eps.queue_word(NodeId(src), 0, chan(dst, 1), value);
            sent.push(value);
            if (w + 1) % packet == 0 {
                eps.queue_token(NodeId(src), 0, chan(dst, 1), Token::Ctrl(ControlToken::END));
            }
        }
        eps.queue_token(NodeId(src), 0, chan(dst, 1), Token::Ctrl(ControlToken::END));
        drain(&mut fabric, &mut eps, 2_000_000);
        prop_assert_eq!(eps.received_words(NodeId(dst), 1), sent);
        prop_assert_eq!(fabric.unroutable_tokens(), 0);
    }

    /// Many concurrent flows on one ring: every flow's words arrive
    /// complete and in per-flow order (cross-flow order unconstrained).
    #[test]
    fn concurrent_flows_never_corrupt(
        n in 4usize..8,
        flows in 2usize..6,
        words in 1u32..12,
    ) {
        let mut fabric = ring(n);
        let mut eps = TestEndpoints::new(n);
        for f in 0..flows {
            let src = (f % n) as u16;
            let dst = ((f + 1 + f % (n - 1)) % n) as u16;
            let (src, dst) = if src == dst { (src, (dst + 1) % n as u16) } else { (src, dst) };
            for w in 0..words {
                eps.queue_word(NodeId(src), f as u8, chan(dst, f as u8), (f as u32) << 16 | w);
            }
            eps.queue_token(NodeId(src), f as u8, chan(dst, f as u8), Token::Ctrl(ControlToken::END));
        }
        drain(&mut fabric, &mut eps, 4_000_000);
        prop_assert_eq!(fabric.unroutable_tokens(), 0);
        for f in 0..flows {
            let src = (f % n) as u16;
            let dst = ((f + 1 + f % (n - 1)) % n) as u16;
            let (_, dst) = if src == dst { (src, (dst + 1) % n as u16) } else { (src, dst) };
            let got = eps.received_words(NodeId(dst), f as u8);
            let want: Vec<u32> = (0..words).map(|w| (f as u32) << 16 | w).collect();
            prop_assert_eq!(got, want, "flow {}", f);
        }
    }

    /// PAUSE releases the route like END but lets the message continue:
    /// receivers see all data tokens around it.
    #[test]
    fn pause_tokens_pass_through(words_before in 1u32..6, words_after in 1u32..6) {
        let mut fabric = ring(4);
        let mut eps = TestEndpoints::new(4);
        for w in 0..words_before {
            eps.queue_word(NodeId(0), 0, chan(2, 0), w);
        }
        eps.queue_token(NodeId(0), 0, chan(2, 0), Token::Ctrl(ControlToken::PAUSE));
        for w in 0..words_after {
            eps.queue_word(NodeId(0), 0, chan(2, 0), 100 + w);
        }
        eps.queue_token(NodeId(0), 0, chan(2, 0), Token::Ctrl(ControlToken::END));
        drain(&mut fabric, &mut eps, 1_000_000);
        let words: Vec<u32> = eps.received_words(NodeId(2), 0);
        let want: Vec<u32> = (0..words_before).chain((0..words_after).map(|w| 100 + w)).collect();
        prop_assert_eq!(words, want);
    }
}
