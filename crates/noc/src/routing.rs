//! Routing strategies.
//!
//! XS1 switches route by software-configured tables, so "new routing
//! algorithms can simply be programmed" (§V.A). [`TableRouter`] is that
//! programmability — any `(node, dest)` entry can be rewritten with
//! [`TableRouter::set`] or [`TableRouter::alias_dest_via`] — and two
//! constructors cover the repository's needs:
//!
//! * [`TableRouter::shortest_paths`] — breadth-first shortest paths over
//!   any topology (used for irregular/experimental wirings),
//! * [`TableRouter::vertical_first`] — the paper's dimension-order
//!   strategy for the unwoven lattice: route vertically first; a node on
//!   the horizontal layer needing a vertical move crosses to its package
//!   partner over the internal link, giving at most two layer transitions
//!   per route (§V.A).

use crate::link::{Direction, LinkId};
use std::collections::VecDeque;
use swallow_isa::NodeId;

/// Number of [`Direction`] variants (a per-node table of candidates is
/// indexed by `Direction as usize`).
const DIRECTIONS: usize = 5;

/// Up to four candidate output links, in preference order. Multiple
/// candidates model link aggregation: "multiple links can be assigned to
/// the same routing direction, where a new communication will use the
/// next unused link" (§V.B).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Candidates {
    links: [u32; 4],
    len: u8,
}

impl Candidates {
    /// No route.
    pub const EMPTY: Candidates = Candidates {
        links: [0; 4],
        len: 0,
    };

    /// Appends a candidate. Returns false (and keeps the set unchanged)
    /// when all four slots are taken — the XS1 switch aggregates at most
    /// four links per direction, so overflow means the caller offered
    /// more equal-preference routes than the hardware can hold and the
    /// surplus is deliberately truncated.
    pub fn push(&mut self, link: LinkId) -> bool {
        if (self.len as usize) < self.links.len() {
            self.links[self.len as usize] = link.raw();
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when unroutable.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates candidates in preference order.
    pub fn iter(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.links[..self.len as usize]
            .iter()
            .map(|&raw| LinkId(raw))
    }
}

impl FromIterator<LinkId> for Candidates {
    fn from_iter<I: IntoIterator<Item = LinkId>>(iter: I) -> Self {
        let mut c = Candidates::EMPTY;
        for l in iter {
            // Truncation past four is the hardware's aggregation cap.
            let _ = c.push(l);
        }
        c
    }
}

/// Which lattice layer a node's switch serves (§V.A: "one layer routes in
/// the vertical dimension and the other in the horizontal").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Layer {
    /// Owns North/South external links.
    Vertical,
    /// Owns East/West external links.
    Horizontal,
}

/// Position of a node in the unwoven lattice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Coord {
    /// Package column.
    pub x: u16,
    /// Package row.
    pub y: u16,
    /// Which layer of the lattice the node belongs to.
    pub layer: Layer,
}

/// Topology description a router builder consumes: one entry per directed
/// link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkDesc {
    /// The link id in the fabric being built.
    pub id: LinkId,
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Compass tag.
    pub dir: Direction,
}

/// A fully tabled router: `(node, dest) → candidates`.
#[derive(Clone, Debug)]
pub struct TableRouter {
    nodes: usize,
    table: Vec<Candidates>,
}

impl TableRouter {
    /// Builds an all-pairs shortest-path table by breadth-first search.
    /// Equal-cost next hops become aggregated candidates (up to four).
    pub fn shortest_paths(nodes: usize, links: &[LinkDesc]) -> Self {
        let mut table = vec![Candidates::EMPTY; nodes * nodes];
        // Distance from every node to `dest` over the directed graph:
        // BFS on reversed edges from dest.
        let mut rev: Vec<Vec<(usize, LinkId)>> = vec![Vec::new(); nodes]; // to -> [(from, link)]
        let mut fwd: Vec<Vec<(usize, LinkId)>> = vec![Vec::new(); nodes]; // from -> [(to, link)]
        for l in links {
            rev[l.to.raw() as usize].push((l.from.raw() as usize, l.id));
            fwd[l.from.raw() as usize].push((l.to.raw() as usize, l.id));
        }
        for dest in 0..nodes {
            let mut dist = vec![u32::MAX; nodes];
            dist[dest] = 0;
            let mut queue = VecDeque::from([dest]);
            while let Some(n) = queue.pop_front() {
                for &(prev, _) in &rev[n] {
                    if dist[prev] == u32::MAX {
                        dist[prev] = dist[n] + 1;
                        queue.push_back(prev);
                    }
                }
            }
            for at in 0..nodes {
                if at == dest || dist[at] == u32::MAX {
                    continue;
                }
                let cands: Candidates = fwd[at]
                    .iter()
                    // saturating: a neighbour that cannot reach `dest`
                    // at all has dist MAX and must never qualify.
                    .filter(|&&(next, _)| dist[next].saturating_add(1) == dist[at])
                    .map(|&(_, id)| id)
                    .collect();
                table[at * nodes + dest] = cands;
            }
        }
        TableRouter { nodes, table }
    }

    /// Builds the vertical-first dimension-order table for an unwoven
    /// lattice. `coords[n]` gives node `n`'s position; links must be
    /// tagged with their compass [`Direction`].
    ///
    /// At each node the rule is (§V.A):
    /// 1. vertical displacement pending → North/South if this node is on
    ///    the vertical layer, else the internal link;
    /// 2. otherwise horizontal displacement pending → East/West on the
    ///    horizontal layer, else internal;
    /// 3. otherwise (same package) → internal to reach the partner core.
    pub fn vertical_first(coords: &[Coord], links: &[LinkDesc]) -> Self {
        let nodes = coords.len();
        // Each node's candidates per direction, in link order: the table
        // is then filled by lookup rather than by re-filtering the node's
        // links for every destination.
        let mut by_dir = vec![[Candidates::EMPTY; DIRECTIONS]; nodes];
        for l in links {
            // Truncation past four is the hardware's aggregation cap.
            let _ = by_dir[l.from.raw() as usize][l.dir as usize].push(l.id);
        }
        let mut table = vec![Candidates::EMPTY; nodes * nodes];
        for (at, row) in table.chunks_exact_mut(nodes.max(1)).enumerate() {
            let c = coords[at];
            for (dest, slot) in row.iter_mut().enumerate() {
                if at != dest {
                    *slot = by_dir[at][vertical_first_step(c, coords[dest]) as usize];
                }
            }
        }
        TableRouter { nodes, table }
    }

    /// Overrides the candidates for one `(at, dest)` pair — the hook for
    /// experimenting with custom routes.
    pub fn set(&mut self, at: NodeId, dest: NodeId, candidates: Candidates) {
        let idx = at.raw() as usize * self.nodes + dest.raw() as usize;
        self.table[idx] = candidates;
    }

    /// Routes every node's traffic for `dest` along its existing route to
    /// `via`, with `direct` as the final hop from `via` to `dest`.
    ///
    /// This is how an *edge appendage* — a node hanging off one lattice
    /// port, like the Ethernet bridge on its reserved South header —
    /// becomes reachable under dimension-order routing: vertical-first
    /// would steer everything South immediately, but South links below
    /// the last lattice row exist only in the appendage's column, leaving
    /// the destination unroutable (and its traffic silently dropped) from
    /// every other column. Aliasing through the attach node reuses the
    /// already-correct core-to-core table and touches no other route.
    pub fn alias_dest_via(&mut self, dest: NodeId, via: NodeId, direct: Candidates) {
        let (d, v) = (dest.raw() as usize, via.raw() as usize);
        for at in 0..self.nodes {
            self.table[at * self.nodes + d] = if at == v {
                direct
            } else if at == d {
                Candidates::EMPTY
            } else {
                self.table[at * self.nodes + v]
            };
        }
    }

    /// Candidate output links at `at` for traffic to `dest`, best first.
    /// Empty means unroutable (or `at == dest`).
    pub fn candidates(&self, at: NodeId, dest: NodeId) -> Candidates {
        let (at, dest) = (at.raw() as usize, dest.raw() as usize);
        if at >= self.nodes || dest >= self.nodes {
            return Candidates::EMPTY;
        }
        self.table[at * self.nodes + dest]
    }
}

/// The direction vertical-first routing takes at `at` for traffic to
/// `dest` (the rule on [`TableRouter::vertical_first`]).
fn vertical_first_step(at: Coord, dest: Coord) -> Direction {
    if dest.y != at.y {
        match at.layer {
            Layer::Vertical if dest.y < at.y => Direction::North,
            Layer::Vertical => Direction::South,
            Layer::Horizontal => Direction::Internal,
        }
    } else if dest.x != at.x {
        match at.layer {
            Layer::Horizontal if dest.x > at.x => Direction::East,
            Layer::Horizontal => Direction::West,
            Layer::Vertical => Direction::Internal,
        }
    } else {
        // Same package, other layer.
        Direction::Internal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(id: u32, from: u16, to: u16, dir: Direction) -> LinkDesc {
        LinkDesc {
            id: LinkId(id),
            from: NodeId(from),
            to: NodeId(to),
            dir,
        }
    }

    #[test]
    fn candidates_cap_at_four() {
        let mut c = Candidates::EMPTY;
        for i in 0..6 {
            let accepted = c.push(LinkId(i));
            assert_eq!(accepted, i < 4, "push {i}");
        }
        assert_eq!(c.len(), 4);
        let ids: Vec<u32> = c.iter().map(|l| l.raw()).collect();
        assert_eq!(ids, [0, 1, 2, 3]);
    }

    #[test]
    fn push_overflow_leaves_set_unchanged() {
        let mut c = Candidates::EMPTY;
        for i in 0..4 {
            assert!(c.push(LinkId(i)));
        }
        let before = c;
        assert!(!c.push(LinkId(99)));
        assert_eq!(c, before, "rejected push must not mutate");
        // FromIterator silently truncates at the aggregation cap.
        let collected: Candidates = (0..8).map(LinkId).collect();
        assert_eq!(collected, before);
    }

    #[test]
    fn shortest_paths_on_a_line() {
        // 0 -> 1 -> 2 and back.
        let links = [
            desc(0, 0, 1, Direction::East),
            desc(1, 1, 0, Direction::West),
            desc(2, 1, 2, Direction::East),
            desc(3, 2, 1, Direction::West),
        ];
        let r = TableRouter::shortest_paths(3, &links);
        let hop = |a: u16, b: u16| {
            r.candidates(NodeId(a), NodeId(b))
                .iter()
                .next()
                .map(|l| l.raw())
        };
        assert_eq!(hop(0, 2), Some(0));
        assert_eq!(hop(1, 2), Some(2));
        assert_eq!(hop(2, 0), Some(3));
        assert_eq!(hop(0, 0), None);
    }

    #[test]
    fn shortest_paths_aggregates_equal_cost() {
        // Two parallel links 0 -> 1.
        let links = [
            desc(0, 0, 1, Direction::East),
            desc(1, 0, 1, Direction::East),
        ];
        let r = TableRouter::shortest_paths(2, &links);
        assert_eq!(r.candidates(NodeId(0), NodeId(1)).len(), 2);
    }

    #[test]
    fn unroutable_is_empty() {
        let links = [desc(0, 0, 1, Direction::East)];
        let r = TableRouter::shortest_paths(3, &links);
        assert!(r.candidates(NodeId(1), NodeId(0)).is_empty());
        assert!(r.candidates(NodeId(0), NodeId(2)).is_empty());
    }

    /// A 2×1-package lattice: package 0 at x=0, package 1 at x=1, nodes
    /// {0,1} in package 0 (vertical, horizontal) and {2,3} in package 1.
    fn mini_lattice() -> (Vec<Coord>, Vec<LinkDesc>) {
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
        let links = vec![
            // Internal pairs (both directions).
            desc(0, 0, 1, Direction::Internal),
            desc(1, 1, 0, Direction::Internal),
            desc(2, 2, 3, Direction::Internal),
            desc(3, 3, 2, Direction::Internal),
            // Horizontal layer connects the packages.
            desc(4, 1, 3, Direction::East),
            desc(5, 3, 1, Direction::West),
        ];
        (coords, links)
    }

    #[test]
    fn vertical_first_crosses_layers_when_needed() {
        let (coords, links) = mini_lattice();
        let r = TableRouter::vertical_first(&coords, &links);
        // Vertical-layer node 0 to horizontal-layer node 3 in the other
        // package: must first go internal (to node 1), then East.
        let first = r
            .candidates(NodeId(0), NodeId(3))
            .iter()
            .next()
            .expect("routed");
        assert_eq!(first.raw(), 0, "internal link first");
        let second = r
            .candidates(NodeId(1), NodeId(3))
            .iter()
            .next()
            .expect("routed");
        assert_eq!(second.raw(), 4, "then East");
        // Horizontal to horizontal, same row: straight East, no layer
        // transition at all.
        assert_eq!(
            r.candidates(NodeId(1), NodeId(3))
                .iter()
                .next()
                .expect("routed")
                .raw(),
            4
        );
        // Same package: internal.
        assert_eq!(
            r.candidates(NodeId(2), NodeId(3))
                .iter()
                .next()
                .expect("routed")
                .raw(),
            2
        );
    }

    #[test]
    fn alias_dest_reuses_routes_to_the_attach_node() {
        // Mini lattice plus an appendage node 4 hanging South off node 0.
        let (mut coords, mut links) = mini_lattice();
        coords.push(Coord {
            x: 0,
            y: 1,
            layer: Layer::Vertical,
        });
        links.push(desc(6, 0, 4, Direction::South));
        links.push(desc(7, 4, 0, Direction::North));
        let mut r = TableRouter::vertical_first(&coords, &links);
        // Before the alias: node 3 cannot reach the appendage (it wants
        // to go vertical via its partner node 2, which has no South link).
        assert!(r.candidates(NodeId(2), NodeId(4)).is_empty());
        let mut direct = Candidates::EMPTY;
        direct.push(LinkId(6));
        r.alias_dest_via(NodeId(4), NodeId(0), direct);
        // Now node 3 routes to the appendage exactly as it routes to the
        // attach node 0 (West first), and the attach node takes the hop.
        assert_eq!(
            r.candidates(NodeId(3), NodeId(4)),
            r.candidates(NodeId(3), NodeId(0))
        );
        assert_eq!(
            r.candidates(NodeId(0), NodeId(4))
                .iter()
                .next()
                .expect("direct hop")
                .raw(),
            6
        );
        // Self-route stays empty; routes between core nodes untouched.
        assert!(r.candidates(NodeId(4), NodeId(4)).is_empty());
        assert_eq!(
            r.candidates(NodeId(0), NodeId(3))
                .iter()
                .next()
                .expect("routed")
                .raw(),
            0
        );
    }

    #[test]
    fn set_overrides_a_route() {
        let (coords, links) = mini_lattice();
        let mut r = TableRouter::vertical_first(&coords, &links);
        let mut c = Candidates::EMPTY;
        c.push(LinkId(1));
        r.set(NodeId(1), NodeId(3), c);
        assert_eq!(
            r.candidates(NodeId(1), NodeId(3))
                .iter()
                .next()
                .expect("set")
                .raw(),
            1
        );
    }
}
