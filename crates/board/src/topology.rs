//! Physical structure: packages, slices and grids.
//!
//! A Swallow *slice* (§IV.B) carries eight XS1-L2A packages in a 4-wide ×
//! 2-tall arrangement — sixteen cores. Each package holds two cores, each
//! with its own switch, joined by four internal links; one core exposes
//! its two external links North/South (the vertical layer), the other
//! East/West (the horizontal layer) — the *unwoven lattice* of Fig. 7.
//!
//! Slices tile into a grid connected by 30 cm FFC ribbon cables; cables
//! carry the off-board wire class of Table I (50× the on-board energy
//! per bit). Each slice exposes twelve edge headers (8 vertical + 4
//! horizontal); ten are network-usable, two of the South headers are
//! reserved for Ethernet bridges (§V.E) — see `DESIGN.md` §5.

use swallow_energy::WireClass;
use swallow_isa::NodeId;
use swallow_noc::routing::{Coord, Layer};
use swallow_noc::{Direction, FabricBuilder, LinkParams};

/// Packages per slice row.
pub const CHIP_COLS: u16 = 4;
/// Package rows per slice.
pub const CHIP_ROWS: u16 = 2;
/// Cores per slice (16: eight dual-core packages).
pub const CORES_PER_SLICE: u16 = CHIP_COLS * CHIP_ROWS * 2;
/// Internal link pairs between the two cores of a package (§V.A: "the
/// internal links have four times more bandwidth than external links").
pub const INTERNAL_LINK_PAIRS: usize = 4;

/// Size of a machine in slices.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GridSpec {
    /// Slices per row of the machine.
    pub slices_x: u16,
    /// Slice rows.
    pub slices_y: u16,
}

impl GridSpec {
    /// A single slice.
    pub const ONE_SLICE: GridSpec = GridSpec {
        slices_x: 1,
        slices_y: 1,
    };

    /// Total slices.
    pub fn slice_count(&self) -> usize {
        self.slices_x as usize * self.slices_y as usize
    }

    /// Total cores.
    pub fn core_count(&self) -> usize {
        self.slice_count() * CORES_PER_SLICE as usize
    }

    /// Package columns across the whole machine.
    pub fn package_cols(&self) -> u16 {
        self.slices_x * CHIP_COLS
    }

    /// Package rows across the whole machine.
    pub fn package_rows(&self) -> u16 {
        self.slices_y * CHIP_ROWS
    }

    /// Node id of the core at global package `(gx, gy)` on `layer`.
    ///
    /// # Panics
    ///
    /// Panics when the coordinate is outside the grid.
    pub fn node_at(&self, gx: u16, gy: u16, layer: Layer) -> NodeId {
        assert!(gx < self.package_cols() && gy < self.package_rows());
        let package = gy as u32 * self.package_cols() as u32 + gx as u32;
        let l = match layer {
            Layer::Vertical => 0,
            Layer::Horizontal => 1,
        };
        NodeId((package * 2 + l) as u16)
    }

    /// The lattice coordinate of a core node.
    pub fn coord_of(&self, node: NodeId) -> Coord {
        let raw = node.raw() as u32;
        let package = raw / 2;
        let layer = if raw.is_multiple_of(2) {
            Layer::Vertical
        } else {
            Layer::Horizontal
        };
        Coord {
            x: (package % self.package_cols() as u32) as u16,
            y: (package / self.package_cols() as u32) as u16,
            layer,
        }
    }

    /// Which slice (row-major) a core node belongs to.
    pub fn slice_of(&self, node: NodeId) -> usize {
        let c = self.coord_of(node);
        let sx = c.x / CHIP_COLS;
        let sy = c.y / CHIP_ROWS;
        (sy * self.slices_x + sx) as usize
    }

    /// All core node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.core_count() as u16).map(NodeId)
    }

    /// Package indices in *slice-major* order: all eight packages of
    /// slice 0 (row-major within the slice), then slice 1, and so on in
    /// slice row-major order. Raw package indices are row-major over the
    /// whole machine, which interleaves the slices of a multi-column
    /// grid; dealing shards from this order instead keeps each shard's
    /// packages inside as few slices as possible, so shard boundaries
    /// land on the slow inter-slice FFC cables (4× the on-chip token
    /// time, Table I) and the windowed engine's pairwise lookahead
    /// matrix gets long horizons between shards. Identical to `0..n` on
    /// a single-slice machine.
    pub fn packages_slice_major(&self) -> Vec<usize> {
        let cols = self.package_cols() as usize;
        let mut order = Vec::with_capacity(self.package_rows() as usize * cols);
        for sy in 0..self.slices_y as usize {
            for sx in 0..self.slices_x as usize {
                for row in 0..CHIP_ROWS as usize {
                    for col in 0..CHIP_COLS as usize {
                        let gy = sy * CHIP_ROWS as usize + row;
                        let gx = sx * CHIP_COLS as usize + col;
                        order.push(gy * cols + gx);
                    }
                }
            }
        }
        order
    }
}

/// A wired topology ready to become a fabric.
pub struct Topology {
    /// The partially built fabric (links added, router pending).
    pub builder: FabricBuilder,
    /// Lattice coordinates per node (bridge nodes included).
    pub coords: Vec<Coord>,
    /// Node id of the Ethernet bridge, when fitted.
    pub bridge: Option<NodeId>,
    /// Inter-slice cables that were left unconnected by fault injection.
    pub faulted_cables: usize,
}

/// Options for [`build_topology`].
#[derive(Clone, Debug)]
pub struct TopologyOptions {
    /// Fit one Ethernet bridge on the machine's south edge (§V.E).
    pub bridge: bool,
    /// Parallel link pairs between the two cores of a package (the real
    /// XS1-L2A has four; reducing it is an ablation knob for studying
    /// what link aggregation buys).
    pub internal_link_pairs: usize,
    /// Fraction of inter-slice FFC cables that fail (connector yield,
    /// §IV.B: "yield issues, mostly with edge connectors"). Faulted
    /// cables are simply not wired; pair with shortest-path routing.
    pub ffc_fault_rate: f64,
    /// Seed for fault injection.
    pub fault_seed: u64,
}

impl Default for TopologyOptions {
    fn default() -> Self {
        TopologyOptions {
            bridge: false,
            internal_link_pairs: INTERNAL_LINK_PAIRS,
            ffc_fault_rate: 0.0,
            fault_seed: 0,
        }
    }
}

/// Wires a full machine: internal package links, on-board lattice traces
/// and inter-slice FFC cables, with Table I wire classes throughout.
pub fn build_topology(spec: GridSpec, options: &TopologyOptions) -> Topology {
    let core_nodes = spec.core_count();
    let bridge_nodes = usize::from(options.bridge);
    let mut builder = FabricBuilder::new(core_nodes + bridge_nodes);
    let mut rng = swallow_sim::DetRng::seed_from(options.fault_seed);
    let mut faulted = 0;

    let on_chip = LinkParams::from_class(WireClass::OnChip);
    let board_v = LinkParams::from_class(WireClass::BoardVertical);
    let board_h = LinkParams::from_class(WireClass::BoardHorizontal);
    let ffc = LinkParams::from_class(WireClass::OffBoardFfc);

    // Package-internal links: four aggregated pairs per package.
    for gy in 0..spec.package_rows() {
        for gx in 0..spec.package_cols() {
            let v = spec.node_at(gx, gy, Layer::Vertical);
            let h = spec.node_at(gx, gy, Layer::Horizontal);
            for _ in 0..options.internal_link_pairs.max(1) {
                builder.link_two_way(v, h, Direction::Internal, on_chip);
            }
        }
    }

    // Vertical lattice: V-layer cores, adjacent package rows.
    for gy in 0..spec.package_rows() - 1 {
        for gx in 0..spec.package_cols() {
            let upper = spec.node_at(gx, gy, Layer::Vertical);
            let lower = spec.node_at(gx, gy + 1, Layer::Vertical);
            let same_slice = gy % CHIP_ROWS != CHIP_ROWS - 1;
            let params = if same_slice { board_v } else { ffc };
            if !same_slice && rng.chance(options.ffc_fault_rate) {
                faulted += 1;
                continue;
            }
            builder.link_two_way(upper, lower, Direction::South, params);
        }
    }

    // Horizontal lattice: H-layer cores, adjacent package columns.
    for gy in 0..spec.package_rows() {
        for gx in 0..spec.package_cols() - 1 {
            let left = spec.node_at(gx, gy, Layer::Horizontal);
            let right = spec.node_at(gx + 1, gy, Layer::Horizontal);
            let same_slice = gx % CHIP_COLS != CHIP_COLS - 1;
            let params = if same_slice { board_h } else { ffc };
            if !same_slice && rng.chance(options.ffc_fault_rate) {
                faulted += 1;
                continue;
            }
            builder.link_two_way(left, right, Direction::East, params);
        }
    }

    // Coordinates for the lattice router.
    let mut coords: Vec<Coord> = spec.nodes().map(|n| spec.coord_of(n)).collect();

    // The Ethernet bridge hangs off a reserved South header at the
    // bottom-left of the machine, addressable as a network node (§V.E).
    let bridge = if options.bridge {
        let bridge_node = NodeId(core_nodes as u16);
        let attach = spec.node_at(0, spec.package_rows() - 1, Layer::Vertical);
        builder.link_two_way(attach, bridge_node, Direction::South, board_v);
        coords.push(Coord {
            x: 0,
            y: spec.package_rows(),
            layer: Layer::Vertical,
        });
        Some(bridge_node)
    } else {
        None
    };

    Topology {
        builder,
        coords,
        bridge,
        faulted_cables: faulted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_numbering_round_trips() {
        let spec = GridSpec {
            slices_x: 2,
            slices_y: 3,
        };
        assert_eq!(spec.core_count(), 96);
        for node in spec.nodes() {
            let c = spec.coord_of(node);
            assert_eq!(spec.node_at(c.x, c.y, c.layer), node);
        }
    }

    #[test]
    fn slice_assignment_is_block_structured() {
        let spec = GridSpec {
            slices_x: 2,
            slices_y: 1,
        };
        // First slice: package columns 0..4; second: 4..8.
        let in_slice0 = spec.node_at(3, 1, Layer::Horizontal);
        let in_slice1 = spec.node_at(4, 0, Layer::Vertical);
        assert_eq!(spec.slice_of(in_slice0), 0);
        assert_eq!(spec.slice_of(in_slice1), 1);
        let per_slice = spec.nodes().filter(|&n| spec.slice_of(n) == 0).count();
        assert_eq!(per_slice, CORES_PER_SLICE as usize);
    }

    #[test]
    fn slice_major_order_groups_whole_slices() {
        // Single slice: identity.
        let one = GridSpec::ONE_SLICE.packages_slice_major();
        assert_eq!(one, (0..8).collect::<Vec<_>>());
        // 2×1 grid: each slice's eight packages are contiguous in the
        // order, and together they permute 0..16.
        let spec = GridSpec {
            slices_x: 2,
            slices_y: 1,
        };
        let order = spec.packages_slice_major();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
        for (slice, chunk) in order.chunks(8).enumerate() {
            for &p in chunk {
                let node = NodeId((p * 2) as u16);
                assert_eq!(spec.slice_of(node), slice, "package {p}");
            }
        }
    }

    #[test]
    fn one_slice_link_budget() {
        // 8 packages × 4 internal pairs = 64 directed-link pairs internal;
        // vertical: 4 columns × 1 row gap = 4 pairs; horizontal: 2 rows ×
        // 3 gaps = 6 pairs. Total directed links = 2*(32+4+6) = 84... with
        // INTERNAL_LINK_PAIRS=4: 8*4=32 pairs internal.
        let topo = build_topology(GridSpec::ONE_SLICE, &TopologyOptions::default());
        assert_eq!(topo.builder.link_descs().len(), 2 * (32 + 4 + 6));
        assert_eq!(topo.faulted_cables, 0);
        assert!(topo.bridge.is_none());
    }

    #[test]
    fn two_by_one_grid_uses_ffc_between_slices() {
        let spec = GridSpec {
            slices_x: 2,
            slices_y: 1,
        };
        let topo = build_topology(spec, &TopologyOptions::default());
        // The boundary between slice columns (gx=3 to gx=4) is FFC: the
        // link params carry the off-board rate. Count East links crossing
        // the boundary: 2 package rows.
        let ffc_rate = WireClass::OffBoardFfc.data_rate();
        let crossing = topo
            .builder
            .link_descs()
            .iter()
            .filter(|d| {
                d.dir == Direction::East
                    && spec.coord_of(d.from).x == 3
                    && spec.coord_of(d.to).x == 4
            })
            .count();
        assert_eq!(crossing, 2);
        let _ = ffc_rate;
    }

    #[test]
    fn fault_injection_removes_only_ffc_cables() {
        let spec = GridSpec {
            slices_x: 2,
            slices_y: 2,
        };
        let healthy = build_topology(spec, &TopologyOptions::default());
        let faulty = build_topology(
            spec,
            &TopologyOptions {
                ffc_fault_rate: 1.0,
                ..Default::default()
            },
        );
        // Inter-slice cables: vertical boundary 8 columns × 1 gap = 8,
        // horizontal boundary 4 rows × 1 gap = 4 -> 12 cables.
        assert_eq!(faulty.faulted_cables, 12);
        assert_eq!(
            healthy.builder.link_descs().len() - faulty.builder.link_descs().len(),
            2 * 12
        );
    }

    #[test]
    fn bridge_is_last_node_on_south_edge() {
        let topo = build_topology(
            GridSpec::ONE_SLICE,
            &TopologyOptions {
                bridge: true,
                ..Default::default()
            },
        );
        let bridge = topo.bridge.expect("fitted");
        assert_eq!(bridge, NodeId(16));
        assert_eq!(topo.coords.len(), 17);
        assert_eq!(topo.coords[16].y, 2);
    }
}
