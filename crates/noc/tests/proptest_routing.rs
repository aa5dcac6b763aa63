//! Property tests over route recomputation: a shortest-path table
//! rebuilt after removing links still routes every pair the surviving
//! topology can reach, and never steers a token onto a removed link —
//! the correctness core of the board layer's fault rerouting.

use std::collections::{HashSet, VecDeque};
use swallow_isa::NodeId;
use swallow_noc::{Direction, LinkDesc, LinkId, TableRouter};
use swallow_testkit::proptest::prelude::*;

/// Forward reachability over a directed link list.
fn reachable_from(n: usize, links: &[LinkDesc], start: usize) -> Vec<bool> {
    let mut seen = vec![false; n];
    seen[start] = true;
    let mut queue = VecDeque::from([start]);
    while let Some(at) = queue.pop_front() {
        for l in links {
            let (from, to) = (l.from.raw() as usize, l.to.raw() as usize);
            if from == at && !seen[to] {
                seen[to] = true;
                queue.push_back(to);
            }
        }
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Remove up to k random links from a ring-plus-chords topology and
    /// rebuild the table: every still-reachable pair routes to its
    /// destination in ≤ n hops, every offered candidate is a surviving
    /// link leaving the current node, and unreachable pairs are cleanly
    /// unroutable (empty candidates, the quarantine signal).
    #[test]
    fn recomputed_tables_route_survivors_and_avoid_removed_links(
        n in 4usize..10,
        chords in proptest::collection::vec((0usize..16, 0usize..16), 0..8),
        removals in proptest::collection::vec(0usize..64, 0..7),
    ) {
        // Directed ring both ways, plus random bidirectional chords;
        // link ids are their build order, like a FabricBuilder's.
        let mut links: Vec<LinkDesc> = Vec::new();
        let push = |links: &mut Vec<LinkDesc>, from: usize, to: usize| {
            let id = LinkId::from_raw(links.len() as u32);
            links.push(LinkDesc {
                id,
                from: NodeId(from as u16),
                to: NodeId(to as u16),
                dir: Direction::East,
            });
        };
        for i in 0..n {
            push(&mut links, i, (i + 1) % n);
            push(&mut links, (i + 1) % n, i);
        }
        for &(a, b) in &chords {
            let (a, b) = (a % n, b % n);
            if a != b {
                push(&mut links, a, b);
                push(&mut links, b, a);
            }
        }
        let removed: HashSet<u32> =
            removals.iter().map(|&r| (r % links.len()) as u32).collect();
        let alive: Vec<LinkDesc> = links
            .iter()
            .copied()
            .filter(|l| !removed.contains(&l.id.raw()))
            .collect();
        // Ids survive filtering unchanged — exactly what the board layer
        // feeds back into the live fabric after a link dies.
        let router = TableRouter::shortest_paths(n, &alive);

        for src in 0..n {
            let reach = reachable_from(n, &alive, src);
            for dst in (0..n).filter(|&d| d != src) {
                let cands = router.candidates(NodeId(src as u16), NodeId(dst as u16));
                if !reach[dst] {
                    prop_assert!(
                        cands.is_empty(),
                        "{src}->{dst} unreachable yet routed"
                    );
                    continue;
                }
                prop_assert!(!cands.is_empty(), "{src}->{dst} reachable yet unroutable");
                // Walk the first-preference route; it must stay on
                // surviving links and land within n hops.
                let mut at = src;
                let mut hops = 0usize;
                while at != dst {
                    let c = router.candidates(NodeId(at as u16), NodeId(dst as u16));
                    prop_assert!(!c.is_empty(), "stranded at {at} en route {src}->{dst}");
                    for cand in c.iter() {
                        prop_assert!(
                            !removed.contains(&cand.raw()),
                            "candidate {} at {at} for {src}->{dst} is a removed link",
                            cand.raw()
                        );
                    }
                    let first = c.iter().next().expect("non-empty");
                    let taken = alive
                        .iter()
                        .find(|l| l.id == first)
                        .expect("candidate must be a surviving link");
                    prop_assert_eq!(
                        taken.from.raw() as usize, at,
                        "candidate does not leave the current node"
                    );
                    at = taken.to.raw() as usize;
                    hops += 1;
                    prop_assert!(hops <= n, "route {src}->{dst} exceeds {n} hops");
                }
            }
        }
    }
}
