//! The windowed engine's lookahead against a brute-force oracle.
//!
//! [`ShardPlan::latency_matrix_ps`] derives the shard-pair latency matrix
//! from one multi-source search per shard, keeping each node's two
//! nearest distinct sources. The oracle here is the straightforward
//! all-pairs computation it replaces: one Dijkstra from every node over
//! the live links, then the minimum over every pair of distinct cores of
//! the two shards. On random small grids — one to four slices, one to
//! four aggregated link pairs per package, with or without the bridge,
//! with up to nine in ten links unplugged at random, partitions included
//! — every entry must be the same integer under [`ShardPlan::affinity`]
//! at one to eight threads, eight threads on one slice giving one
//! package per shard.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use swallow_board::topology::{build_topology, TopologyOptions};
use swallow_board::{GridSpec, ShardPlan};
use swallow_noc::{Fabric, LinkId, TableRouter};
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

/// The shard-pair matrix reduced from [`all_pairs_ps`] pair by pair.
fn brute_force_matrix(plan: &ShardPlan, fabric: &Fabric) -> Vec<u64> {
    let n = fabric.node_count();
    let dist = all_pairs_ps(fabric);
    let nodes =
        |s: usize| -> Vec<usize> { plan.runs(s).iter().flat_map(|&(lo, hi)| lo..hi).collect() };
    let shards = plan.shard_count();
    let mut matrix = vec![u64::MAX; shards * shards];
    for p in 0..shards {
        for s in 0..shards {
            for &i in &nodes(p) {
                for &j in &nodes(s) {
                    if i != j {
                        let entry = &mut matrix[p * shards + s];
                        *entry = (*entry).min(dist[i * n + j]);
                    }
                }
            }
        }
    }
    matrix
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The per-shard matrix equals the all-pairs oracle, entry for entry.
    #[test]
    fn shard_lookahead_matches_the_all_pairs_oracle(
        slices_x in 1u16..3,
        slices_y in 1u16..3,
        pairs in 1usize..5,
        bridge in any::<bool>(),
        down_per_mille in 0u64..900,
        seed in any::<u64>(),
    ) {
        let spec = GridSpec { slices_x, slices_y };
        let topo = build_topology(
            spec,
            &TopologyOptions {
                bridge,
                internal_link_pairs: pairs,
                ..TopologyOptions::default()
            },
        );
        let nodes = topo.builder.node_count();
        let router = TableRouter::shortest_paths(nodes, topo.builder.link_descs());
        let mut fabric = topo.builder.build(router);
        let mut rng = TestRng::seed_from(seed);
        let mut downed = 0;
        for lid in 0..fabric.link_count() {
            if rng.below(1000) < down_per_mille {
                fabric.set_link_down(LinkId::from_raw(lid as u32));
                downed += 1;
            }
        }
        for threads in 1..=8 {
            let plan = ShardPlan::affinity(spec, threads);
            prop_assert_eq!(
                plan.latency_matrix_ps(&fabric),
                brute_force_matrix(&plan, &fabric),
                "{}x{} grid, {} pairs, bridge {}, {} links down, {} threads",
                slices_x, slices_y, pairs, bridge, downed, threads
            );
        }
    }
}

/// Eight threads on one slice put each package in a shard of its own: the
/// diagonal is the package's internal link, the two cores' only pair.
#[test]
fn single_package_shards_see_their_internal_link() {
    let spec = GridSpec::ONE_SLICE;
    let topo = build_topology(spec, &TopologyOptions::default());
    let nodes = topo.builder.node_count();
    let router = TableRouter::shortest_paths(nodes, topo.builder.link_descs());
    let fabric = topo.builder.build(router);
    let plan = ShardPlan::affinity(spec, 8);
    assert_eq!(plan.shard_count(), 8);
    let matrix = plan.latency_matrix_ps(&fabric);
    let on_chip = fabric
        .link_stats()
        .find(|l| l.dir == swallow_noc::Direction::Internal)
        .expect("an on-chip link")
        .token_time
        .as_ps();
    for p in 0..8 {
        assert_eq!(plan.len(p), 2);
        assert_eq!(matrix[p * 8 + p], on_chip, "shard {p}");
    }
    assert_eq!(matrix, brute_force_matrix(&plan, &fabric));
}
