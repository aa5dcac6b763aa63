//! Event-driven stepping against dense stepping.
//!
//! The fabric's contract with the event-driven engines: strictly before
//! [`Fabric::next_event_at`], a step without new core traffic is a
//! no-op. So stepping only at that instant (aligned up to the 2 ns grid)
//! and at the grid instants where a node has output that is not
//! parked ([`Fabric::tx_all_parked`], the rule the board's
//! fast-forward applies) must leave the fabric exactly where stepping
//! every 2 ns leaves it — same deliveries, same per-link statistics,
//! same energy bits. Random multi-flow traffic on rings and meshes, with
//! loopback flows, a drop window and a corrupt window, exercises every
//! worklist push and pop; a snapshot taken mid-traffic and restored into
//! a fresh fabric must continue identically, which exercises the
//! worklist rebuild.
//!
//! Blocked and parked queues: bounded inboxes drained at seeded instants
//! stall deliveries on full destination chanends (a drain is core
//! activity the event-driven runner steps on), aggregated link pairs
//! give fresh packets several candidate links to park on, hot-spot
//! traffic makes long packets wait on each other's routes and on
//! credit, and restore cuts taken while heads are parked — on anything,
//! and on events only — must continue identically.

use swallow_energy::WireClass;
use swallow_isa::{ControlToken, NodeId, ResType, ResourceId, Token};
use swallow_noc::endpoints::TestEndpoints;
use swallow_noc::{
    CoreEndpoints, Direction, Fabric, FabricBuilder, LinkId, LinkParams, LinkStats, TableRouter,
};
use swallow_sim::{ByteReader, ByteWriter, Time, TimeDelta};
use swallow_testkit::proptest::collection;
use swallow_testkit::proptest::prelude::*;

const GRID: TimeDelta = TimeDelta::from_ns(2);

/// A ring (`mesh == false`, `w` nodes) or a `w × h` mesh whose vertical
/// links are slower board traces, routed by shortest paths. Every
/// neighbour pair is joined by `parallel` aggregated link pairs.
fn topology(mesh: bool, w: usize, h: usize, parallel: usize) -> Fabric {
    let n = if mesh { w * h } else { w };
    let mut b = FabricBuilder::new(n);
    let on_chip = LinkParams::from_class(WireClass::OnChip);
    let mut join = |a: usize, c: usize, dir: Direction, params: LinkParams| {
        for _ in 0..parallel {
            b.link_two_way(NodeId(a as u16), NodeId(c as u16), dir, params);
        }
    };
    if mesh {
        let board = LinkParams::from_class(WireClass::BoardVertical);
        for y in 0..h {
            for x in 0..w {
                let i = y * w + x;
                if x + 1 < w {
                    join(i, i + 1, Direction::East, on_chip);
                }
                if y + 1 < h {
                    join(i, i + w, Direction::North, board);
                }
            }
        }
    } else {
        for i in 0..n {
            join(i, (i + 1) % n, Direction::East, on_chip);
        }
    }
    let router = TableRouter::shortest_paths(n, b.link_descs());
    b.build(router)
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

/// [`TestEndpoints`] with bounded inboxes. With a `capacity`, a chanend
/// holds at most that many undrained tokens, so deliveries stall on a
/// full destination chanend until the harness drains it: every
/// `every`-th grid instant (offset by `phase`), [`DRAIN_BATCH`] tokens
/// leave every inbox. Without one it behaves exactly like the
/// `TestEndpoints` it wraps. The inner inboxes keep every token ever
/// delivered, so observations still see the full delivery history.
///
/// A drain is what a core reading its input is on the board: it reports
/// the chanends it freed through `take_drained`, which wakes deliveries
/// parked on them, and it is activity the event-driven runner steps on
/// ([`Draining::next_drain`]).
#[derive(Clone, Debug)]
struct Draining {
    eps: TestEndpoints,
    capacity: Option<usize>,
    every: u64,
    phase: u64,
    /// Per node, per chanend: delivered tokens not yet drained.
    buffered: Vec<Vec<usize>>,
    /// Per node: the chanends a drain freed space in since the fabric
    /// last asked.
    drained: Vec<u32>,
    /// Drains are applied up to and including this instant.
    drained_to: Time,
}

/// Tokens a drain takes out of each inbox.
const DRAIN_BATCH: usize = 2;

impl Draining {
    fn unbounded(nodes: usize) -> Self {
        Draining {
            eps: TestEndpoints::new(nodes),
            capacity: None,
            every: 1,
            phase: 0,
            buffered: vec![vec![0; swallow_noc::endpoints::TEST_CHANENDS]; nodes],
            drained: vec![0; nodes],
            drained_to: Time::ZERO,
        }
    }

    fn bounded(nodes: usize, (capacity, every, phase): Inbox) -> Self {
        Draining {
            capacity: Some(capacity),
            every,
            phase: phase % every,
            ..Draining::unbounded(nodes)
        }
    }

    /// Applies every drain instant in `(drained_to, until]`, noting the
    /// chanends each one frees space in. Drains are applied lazily,
    /// before the next step; the event-driven runner steps on every
    /// drain instant that can free space, so none lands between steps
    /// unseen.
    fn drain_to(&mut self, until: Time) {
        let grid = GRID.as_ps();
        let mut edge = self.drained_to.as_ps() / grid + 1;
        while edge * grid <= until.as_ps() {
            if edge % self.every == self.phase {
                for (node, counts) in self.buffered.iter_mut().enumerate() {
                    for (chanend, count) in counts.iter_mut().enumerate() {
                        if *count > 0 {
                            *count = count.saturating_sub(DRAIN_BATCH);
                            self.drained[node] |= 1 << chanend;
                        }
                    }
                }
            }
            edge += 1;
        }
        self.drained_to = self.drained_to.max(until);
    }

    /// The first drain instant after `now` that can free space: `None`
    /// with unbounded inboxes or none holding tokens.
    fn next_drain(&self, now: Time) -> Option<Time> {
        self.capacity?;
        if self.buffered.iter().flatten().all(|&count| count == 0) {
            return None;
        }
        let grid = GRID.as_ps();
        let mut edge = now.as_ps() / grid + 1;
        while edge % self.every != self.phase {
            edge += 1;
        }
        Some(Time::from_ps(edge * grid))
    }

    fn tx_pending(&self) -> bool {
        self.eps.out.iter().flatten().any(|q| !q.is_empty())
    }

    /// True when some node has output the fabric would try to inject on
    /// the next step: pending on a chanend that is not parked.
    fn tx_due(&self, fabric: &Fabric) -> bool {
        (0..self.eps.out.len()).any(|n| {
            let node = NodeId(n as u16);
            let pending = self.tx_pending_count(node);
            pending > 0 && !fabric.tx_all_parked(node, pending)
        })
    }
}

impl CoreEndpoints for Draining {
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
            && self.capacity.is_none_or(|capacity| {
                self.buffered[node.raw() as usize][chanend as usize] + n <= capacity
            })
    }

    fn deliver(&mut self, node: NodeId, chanend: u8, token: Token) -> bool {
        if !self.can_accept(node, chanend, 1) || !self.eps.deliver(node, chanend, token) {
            return false;
        }
        self.buffered[node.raw() as usize][chanend as usize] += 1;
        true
    }

    fn take_drained(&mut self, node: NodeId) -> u32 {
        std::mem::take(&mut self.drained[node.raw() as usize])
    }
}

/// Queues every flow starting at `now`.
fn inject_due(scenario: &Scenario, eps: &mut Draining, now: Time) {
    for (f, flow) in scenario.flows.iter().enumerate() {
        if flow.start != now {
            continue;
        }
        let dest = chan(flow.dst, flow.chanend);
        let src = NodeId(flow.src);
        for w in 0..flow.words {
            eps.eps
                .queue_word(src, flow.chanend, dest, (f as u32) << 16 | w);
            if (w + 1) % flow.packet == 0 || w + 1 == flow.words {
                let end = Token::Ctrl(ControlToken::END);
                eps.eps.queue_token(src, flow.chanend, dest, end);
            }
        }
    }
}

/// Steps every grid instant in `(from, until]`.
fn run_dense(
    fabric: &mut Fabric,
    eps: &mut Draining,
    scenario: &Scenario,
    from: Time,
    until: Time,
) {
    let mut now = from;
    while now + GRID <= until {
        now += GRID;
        eps.drain_to(now);
        inject_due(scenario, eps, now);
        fabric.step(now, eps);
    }
}

/// Steps only the grid instants where something is due in `(from,
/// until]`: the fabric's next event (which covers the wakes of
/// time-parked heads), endpoint output that is not parked, a flow start
/// or an inbox drain that can free space (which wakes deliveries parked
/// on a full chanend). Drains are applied lazily, before the next step.
fn run_event_driven(
    fabric: &mut Fabric,
    eps: &mut Draining,
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
            _ if eps.tx_due(fabric) => immediate,
            Some(at) => {
                let ps = at.as_ps().max(immediate.as_ps());
                let grid = GRID.as_ps();
                Time::from_ps(ps.div_ceil(grid) * grid)
            }
            None => until + GRID,
        };
        for at in next_start.into_iter().chain(eps.next_drain(now)) {
            next = next.min(at);
        }
        if next > until {
            eps.drain_to(until);
            return;
        }
        now = next;
        eps.drain_to(now);
        inject_due(scenario, eps, now);
        fabric.step(now, eps);
    }
}

/// Everything observable about a fabric and its endpoints. `LinkStats`
/// compares its energy exactly; the fabric total is compared as bits.
/// Taking it runs [`Fabric::is_idle`], whose debug-build checks cover the
/// worklists, the arrival calendar and the parked heads.
///
/// `next_event` depends on the parking cache: a restored fabric wakes
/// every parked head and may rightly answer earlier than the original,
/// so comparisons across a restore drop it
/// ([`Observed::without_next_event`]). The dense-against-event-driven
/// comparisons keep it, and their agreement is what checks it as a
/// bound.
#[derive(Debug, PartialEq)]
struct Observed {
    idle: bool,
    inbox: Vec<Vec<Vec<Token>>>,
    out: Vec<Vec<std::collections::VecDeque<(ResourceId, Token)>>>,
    buffered: Vec<Vec<usize>>,
    links: Vec<LinkStats>,
    energy_bits: u64,
    /// In network, delivered, retransmitted, dropped, unroutable.
    counters: [u64; 5],
    next_event: Option<Time>,
}

fn observe(fabric: &Fabric, eps: &Draining, now: Time) -> Observed {
    Observed {
        idle: fabric.is_idle(),
        inbox: eps.eps.inbox.clone(),
        out: eps.eps.out.clone(),
        buffered: eps.buffered.clone(),
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

impl Observed {
    /// The observation without `next_event`: what must agree across a
    /// restore.
    fn without_next_event(self) -> Observed {
        Observed {
            next_event: None,
            ..self
        }
    }
}

/// A fabric over `topo` with the scenario's fault windows open, and its
/// endpoints: bounded by `inbox` when given, unbounded otherwise.
fn armed(topo: Topo, scenario: &Scenario, inbox: Option<Inbox>) -> (Fabric, Draining) {
    let (mesh, w, h, parallel) = topo;
    let mut fabric = topology(mesh, w, h, parallel);
    fabric.set_link_drop_until(scenario.drop.0, scenario.drop.1);
    fabric.set_link_corrupt_until(scenario.corrupt.0, scenario.corrupt.1);
    let nodes = fabric.node_count();
    let eps = inbox.map_or_else(
        || Draining::unbounded(nodes),
        |inbox| Draining::bounded(nodes, inbox),
    );
    (fabric, eps)
}

/// `(mesh, w, h, parallel)`: the arguments of [`topology`].
type Topo = (bool, usize, usize, usize);

fn random_scenario(topo: Topo, raw: &[RawFlow], win: (u32, u64, u32, u64)) -> Scenario {
    let (mesh, w, h, parallel) = topo;
    let probe = topology(mesh, w, h, parallel);
    scenario(probe.node_count(), probe.link_count(), raw, win)
}

/// Snapshots `fabric` and restores the image into a fresh fabric of
/// the same topology.
fn restored(topo: Topo, fabric: &Fabric) -> Fabric {
    let mut w_bytes = ByteWriter::new();
    fabric.encode_state(&mut w_bytes);
    let bytes = w_bytes.finish();
    let (mesh, w, h, parallel) = topo;
    let mut fresh = topology(mesh, w, h, parallel);
    let mut r = ByteReader::new(&bytes);
    fresh.restore_state(&mut r).expect("own snapshot restores");
    r.expect_end().expect("snapshot fully consumed");
    fresh
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

/// Hot-spot flows: `((src, sink, chanend), (words, packet, start / 2 ns))`
/// with `sink` picking one of two sink nodes, packets of up to eight
/// words and starts within 100 ns, so several long packets contend for
/// the links into the sinks at once.
fn hot_flows() -> impl Strategy<Value = Vec<RawFlow>> {
    collection::vec(
        ((0u16..64, 0u16..2, 0u8..3), (2u32..13, 2u32..9, 0u64..50)),
        3..9,
    )
}

/// A random scenario whose flows all end at `sinks.0` or `sinks.1`.
fn hot_scenario(
    topo: Topo,
    raw: &[RawFlow],
    sinks: (u16, u16),
    win: (u32, u64, u32, u64),
) -> Scenario {
    let aimed: Vec<RawFlow> = raw
        .iter()
        .map(|&((src, pick, chanend), rest)| {
            let sink = if pick == 0 { sinks.0 } else { sinks.1 };
            ((src, sink, chanend), rest)
        })
        .collect();
    random_scenario(topo, &aimed, win)
}

/// `(capacity, every, phase)` of a [`Draining`] inbox.
type Inbox = (usize, u64, u64);

/// At most 10 flows of 9 words (≈450 tokens) drain through one chanend
/// within 450 / DRAIN_BATCH · 63 · 2 ns ≈ 28 µs, inside [`HORIZON`].
fn inboxes() -> impl Strategy<Value = Inbox> {
    (1usize..9, 1u64..64, 0u64..64)
}

/// Small, slow sink inboxes: at most 8 flows of 12 words (≈400 tokens)
/// into one chanend drain within 400 / DRAIN_BATCH · 15 · 2 ns = 6 µs
/// of back-pressure, inside [`HORIZON`].
fn hot_inboxes() -> impl Strategy<Value = Inbox> {
    (1usize..4, 2u64..16, 0u64..16)
}

/// Tiny sink inboxes drained every 32 to 63 edges: between drains the
/// jam settles, with every head waiting on an event. At most 8 flows
/// of 12 words into one chanend drain within 400 / DRAIN_BATCH · 63 ·
/// 2 ns ≈ 25 µs, inside [`HORIZON`].
fn jammed_inboxes() -> impl Strategy<Value = Inbox> {
    (1usize..3, 32u64..64, 0u64..64)
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
        let topo = (mesh, w, h, 1);
        let s = random_scenario(topo, &raw, win);
        let (mut dense, mut dense_eps) = armed(topo, &s, None);
        let (mut event, mut event_eps) = armed(topo, &s, None);
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
        prop_assert!(dense.is_idle() && !dense_eps.tx_pending(), "traffic did not drain");
    }

    /// The same agreement with blocked and parked queues: bounded inboxes
    /// drained at seeded instants make deliveries stall on full
    /// destination chanends, and aggregated link pairs give fresh
    /// packets several candidates to park on. Everything observable
    /// must agree at every checkpoint.
    #[test]
    fn event_stepping_matches_dense_with_full_inboxes_and_aggregated_links(
        mesh in any::<bool>(),
        w in 3usize..6,
        h in 2usize..4,
        parallel in 1usize..4,
        raw in flows(),
        win in windows(),
        inbox in inboxes(),
    ) {
        let topo = (mesh, w, h, parallel);
        let s = random_scenario(topo, &raw, win);
        let (mut dense, mut dense_eps) = armed(topo, &s, Some(inbox));
        let (mut event, mut event_eps) = armed(topo, &s, Some(inbox));
        let end = Time::ZERO + HORIZON;
        let mut at = Time::ZERO;
        while at < end {
            let next = at + CHECKPOINT;
            run_dense(&mut dense, &mut dense_eps, &s, at, next);
            run_event_driven(&mut event, &mut event_eps, &s, at, next);
            prop_assert_eq!(
                observe(&dense, &dense_eps, next),
                observe(&event, &event_eps, next),
                "at {}", next
            );
            at = next;
        }
        prop_assert!(dense.is_idle() && !dense_eps.tx_pending(), "traffic did not drain");
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
        let topo = (mesh, w, h, 1);
        let s = random_scenario(topo, &raw, win);
        let (mut original, mut eps) = armed(topo, &s, None);
        let cut = Time::ZERO + TimeDelta::from_ns(cut_ns * 2);
        run_dense(&mut original, &mut eps, &s, Time::ZERO, cut);
        let mut restored = restored(topo, &original);
        prop_assert_eq!(
            observe(&original, &eps, cut).without_next_event(),
            observe(&restored, &eps, cut).without_next_event()
        );
        let mut restored_eps = eps.clone();
        let end = Time::ZERO + HORIZON;
        run_event_driven(&mut original, &mut eps, &s, cut, end);
        run_event_driven(&mut restored, &mut restored_eps, &s, cut, end);
        prop_assert_eq!(
            observe(&original, &eps, end).without_next_event(),
            observe(&restored, &restored_eps, end).without_next_event()
        );
    }

    /// A restore cut taken while heads are parked: the restored
    /// fabric wakes them all, and waking early only costs no-op
    /// attempts, so it continues exactly like the original. The cut is
    /// the `nth` grid instant (cyclically) at which a dense run has
    /// parked heads.
    #[test]
    fn restore_while_heads_are_parked_continues_identically(
        mesh in any::<bool>(),
        w in 3usize..6,
        h in 2usize..4,
        parallel in 1usize..4,
        raw in flows(),
        win in windows(),
        inbox in inboxes(),
        nth in 0usize..4096,
    ) {
        let topo = (mesh, w, h, parallel);
        let s = random_scenario(topo, &raw, win);
        let end = Time::ZERO + HORIZON;
        let (mut probe, mut probe_eps) = armed(topo, &s, Some(inbox));
        let mut parked_at = Vec::new();
        let mut now = Time::ZERO;
        while now < end {
            run_dense(&mut probe, &mut probe_eps, &s, now, now + GRID);
            now += GRID;
            if probe.parked_heads() > 0 {
                parked_at.push(now);
            }
        }
        prop_assume!(!parked_at.is_empty(), "only loopback traffic: nothing parks");
        let cut = parked_at[nth % parked_at.len()];
        let (mut original, mut eps) = armed(topo, &s, Some(inbox));
        run_dense(&mut original, &mut eps, &s, Time::ZERO, cut);
        prop_assert!(original.parked_heads() > 0, "no head parked at the cut {}", cut);
        let mut restored = restored(topo, &original);
        prop_assert_eq!(restored.parked_heads(), 0);
        prop_assert_eq!(
            observe(&original, &eps, cut).without_next_event(),
            observe(&restored, &eps, cut).without_next_event()
        );
        let mut restored_eps = eps.clone();
        let mut at = cut;
        while at < end {
            let next = at + CHECKPOINT;
            run_dense(&mut original, &mut eps, &s, at, next);
            run_event_driven(&mut restored, &mut restored_eps, &s, at, next);
            prop_assert_eq!(
                observe(&original, &eps, next).without_next_event(),
                observe(&restored, &restored_eps, next).without_next_event(),
                "at {}", next
            );
            at = next;
        }
    }

    /// Hot spots: long packets from several flows converge on one or two
    /// sinks over single links, and the sinks' small, slow inboxes push
    /// credit back-pressure upstream. Heads park on another flow's
    /// route, on credit and on full chanends, and must wake exactly where
    /// dense stepping moves them: everything observable agrees at every
    /// checkpoint, `next_event` included.
    #[test]
    fn event_stepping_matches_dense_with_contended_sinks(
        mesh in any::<bool>(),
        w in 3usize..6,
        h in 2usize..4,
        raw in hot_flows(),
        sinks in (0u16..64, 0u16..64),
        win in windows(),
        inbox in hot_inboxes(),
    ) {
        let topo = (mesh, w, h, 1);
        let s = hot_scenario(topo, &raw, sinks, win);
        let (mut dense, mut dense_eps) = armed(topo, &s, Some(inbox));
        let (mut event, mut event_eps) = armed(topo, &s, Some(inbox));
        let end = Time::ZERO + HORIZON;
        let mut at = Time::ZERO;
        while at < end {
            let next = at + CHECKPOINT;
            run_dense(&mut dense, &mut dense_eps, &s, at, next);
            run_event_driven(&mut event, &mut event_eps, &s, at, next);
            prop_assert_eq!(
                observe(&dense, &dense_eps, next),
                observe(&event, &event_eps, next),
                "at {}", next
            );
            at = next;
        }
        prop_assert!(dense.is_idle() && !dense_eps.tx_pending(), "traffic did not drain");
    }

    /// A restore cut taken while heads are event-parked: the cut is the
    /// `nth` grid instant (cyclically) at which a dense run of a hot-spot
    /// scenario has parked heads and no time-parked one, nothing on a
    /// wire and nothing ready (`next_event_at` answers `None`), so every
    /// parked head waits on a release, a credit or a chanend. The
    /// restored fabric wakes them all and continues exactly like the
    /// original.
    #[test]
    fn restore_while_heads_are_event_parked_continues_identically(
        mesh in any::<bool>(),
        w in 3usize..6,
        h in 2usize..4,
        raw in hot_flows(),
        sinks in (0u16..64, 0u16..64),
        win in windows(),
        inbox in jammed_inboxes(),
        nth in 0usize..4096,
    ) {
        let topo = (mesh, w, h, 1);
        let s = hot_scenario(topo, &raw, sinks, win);
        let end = Time::ZERO + HORIZON;
        let (mut probe, mut probe_eps) = armed(topo, &s, Some(inbox));
        let mut cuts = Vec::new();
        let mut now = Time::ZERO;
        while now < end {
            run_dense(&mut probe, &mut probe_eps, &s, now, now + GRID);
            now += GRID;
            if probe.parked_heads() > 0 && probe.next_event_at(now).is_none() {
                cuts.push(now);
            }
        }
        prop_assume!(!cuts.is_empty(), "no instant with only event-parked heads");
        let cut = cuts[nth % cuts.len()];
        let (mut original, mut eps) = armed(topo, &s, Some(inbox));
        run_dense(&mut original, &mut eps, &s, Time::ZERO, cut);
        prop_assert!(original.parked_heads() > 0 && original.next_event_at(cut).is_none());
        let mut restored = restored(topo, &original);
        prop_assert_eq!(restored.parked_heads(), 0);
        prop_assert_eq!(
            observe(&original, &eps, cut).without_next_event(),
            observe(&restored, &eps, cut).without_next_event()
        );
        let mut restored_eps = eps.clone();
        let mut at = cut;
        while at < end {
            let next = at + CHECKPOINT;
            run_dense(&mut original, &mut eps, &s, at, next);
            run_event_driven(&mut restored, &mut restored_eps, &s, at, next);
            prop_assert_eq!(
                observe(&original, &eps, next).without_next_event(),
                observe(&restored, &restored_eps, next).without_next_event(),
                "at {}", next
            );
            at = next;
        }
    }
}
