//! The windowed engine's lookahead against a brute-force oracle.
//!
//! [`Machine::lookahead`] is one constant, the smallest token time over
//! the fabric's links, and the negotiation adds it to every shard's
//! watermark. It is safe only if no token can reach another core sooner.
//! The oracle here is the routed latency itself: one Dijkstra from every
//! node over the live links. On random small machines — one to four
//! slices, one to four aggregated link pairs per package, with or
//! without the bridge, with up to nine in ten links unplugged at random
//! by the fault engine mid-run, partitions included — the lookahead must
//! be at most the latency of every pair of distinct cores a live path
//! joins, and must stay the on-chip token time through every reroute.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use swallow_board::{GridSpec, Machine, MachineConfig};
use swallow_faults::FaultPlan;
use swallow_noc::{Direction, Fabric, LinkId};
use swallow_sim::{Time, TimeDelta};
use swallow_testkit::proptest::prelude::*;

/// All-pairs minimum routed token latency over the live links: entry
/// `i * nodes + j` is the smallest sum of per-hop token times from `i` to
/// `j`, `0` on the diagonal and `u64::MAX` without a live path.
fn all_pairs_ps(fabric: &Fabric) -> Vec<u64> {
    let n = fabric.node_count();
    // Live adjacency, cheapest parallel link per (from, to) pair.
    let mut adj: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
    for link in fabric.link_stats().filter(|l| !l.down) {
        let (from, to) = (link.from.raw() as usize, link.to.raw() as usize);
        let w = link.token_time.as_ps();
        match adj[from].iter_mut().find(|(t, _)| *t == to) {
            Some((_, best)) => *best = (*best).min(w),
            None => adj[from].push((to, w)),
        }
    }
    let mut dist = vec![u64::MAX; n * n];
    for src in 0..n {
        let row = &mut dist[src * n..(src + 1) * n];
        row[src] = 0;
        let mut heap = BinaryHeap::from([Reverse((0u64, src))]);
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > row[u] {
                continue;
            }
            for &(v, w) in &adj[u] {
                if d + w < row[v] {
                    row[v] = d + w;
                    heap.push(Reverse((d + w, v)));
                }
            }
        }
    }
    dist
}

/// The token time of a package's internal link: 3·Ts + Tt = 8 cycles of
/// the 250 MHz on-chip link clock (§V.C), the fastest wire in the machine.
fn on_chip_token_time(fabric: &Fabric) -> TimeDelta {
    fabric
        .link_stats()
        .find(|l| l.dir == Direction::Internal)
        .expect("an on-chip link")
        .token_time
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The constant lookahead never exceeds a routed latency between two
    /// distinct cores, before or after the fault engine unplugs links.
    #[test]
    fn lookahead_bounds_every_routed_core_pair(
        slices_x in 1u16..3,
        slices_y in 1u16..3,
        pairs in 1usize..5,
        bridge in any::<bool>(),
        down_per_mille in 0u64..900,
        seed in any::<u64>(),
    ) {
        let config = MachineConfig {
            grid: GridSpec { slices_x, slices_y },
            bridge,
            internal_link_pairs: pairs,
            ..MachineConfig::one_slice()
        };
        let links = Machine::new(config.clone()).fabric().link_count();
        let at = Time::ZERO + TimeDelta::from_us(1);
        let mut rng = TestRng::seed_from(seed);
        let mut faults = FaultPlan::new();
        for lid in 0..links {
            if rng.below(1000) < down_per_mille {
                faults = faults.link_down(at, LinkId::from_raw(lid as u32));
            }
        }
        let downed = faults.len();
        let mut machine = Machine::new(MachineConfig { faults, ..config });
        let before = machine.lookahead();
        machine.run_for(TimeDelta::from_us(2));
        let fabric = machine.fabric();
        prop_assert_eq!(fabric.link_stats().filter(|l| l.down).count(), downed);
        let lookahead = machine.lookahead();
        prop_assert_eq!(lookahead, before);
        prop_assert_eq!(lookahead, on_chip_token_time(fabric));
        prop_assert_eq!(lookahead, TimeDelta::from_ns(32));
        let n = fabric.node_count();
        let dist = all_pairs_ps(fabric);
        for i in 0..machine.core_count() {
            for j in (0..machine.core_count()).filter(|&j| j != i) {
                let d = dist[i * n + j];
                prop_assert!(
                    d == u64::MAX || lookahead.as_ps() <= d,
                    "{}x{} grid, {} pairs, bridge {}, {} links down: {} -> {} in {} ps",
                    slices_x, slices_y, pairs, bridge, downed, i, j, d
                );
            }
        }
    }
}

/// A package's two cores are one internal hop apart, so the bound is
/// tight: on a fault-free slice some core pair is exactly the lookahead
/// apart.
#[test]
fn the_internal_hop_meets_the_lookahead() {
    let machine = Machine::new(MachineConfig::one_slice());
    let fabric = machine.fabric();
    let n = fabric.node_count();
    let dist = all_pairs_ps(fabric);
    let nearest = (0..machine.core_count())
        .flat_map(|i| {
            (0..machine.core_count())
                .filter(move |&j| j != i)
                .map(move |j| (i, j))
        })
        .map(|(i, j)| dist[i * n + j])
        .min();
    assert_eq!(nearest, Some(machine.lookahead().as_ps()));
    assert_eq!(
        dist[1],
        machine.lookahead().as_ps(),
        "cores 0 and 1 share a package"
    );
}
