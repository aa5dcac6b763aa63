//! The switching fabric.
//!
//! One switch per core (§IV.D); switches are connected by directed
//! [`links`](crate::link) and exchange eight-bit tokens. The model is
//! token-accurate:
//!
//! * **Wormhole routing**: an output link is *owned* by the flow (source
//!   channel end) whose packet is crossing it, from the three-token route
//!   header until an END/PAUSE control token passes. A route that is never
//!   closed becomes a dedicated circuit (§V.B).
//! * **Credit flow control**: a token is only launched when the receiving
//!   side has buffer space for it (window = [`RX_CAPACITY`]); head-of-line
//!   blocking in the input queues is what produces the contention effects
//!   of §V.D.
//! * **Link aggregation**: when the router offers several links in one
//!   direction, a new packet takes the first link not owned by another
//!   flow.
//! * **Energy**: every token (header included) charges the wire-class
//!   energy from Table I to its link.
//!
//! The fabric is advanced by [`Fabric::step`], typically once per core
//! clock; token rates are enforced by per-link `busy_until` timestamps, so
//! the step cadence only bounds reaction latency, not bandwidth.
//!
//! A step costs O(work due now), not O(machine):
//!
//! * **Arrivals** come off a calendar, a min-heap holding one entry per
//!   link with tokens on the wire, keyed on its head token's arrival.
//!   Landing pops only the entries that are due, and
//!   [`Fabric::next_event_at`] reads the calendar's head.
//! * **Forwarding** walks a bitset of the links with tokens queued at
//!   their receiving switch, in the switches' service order (node-major,
//!   then input port); **injection** walks a bitset of the nodes that
//!   may have output to move — the ones the [`CoreEndpoints`] name as
//!   having output, plus any whose chanend a wake unparked — and drops a
//!   node once all its pending output is parked; **loopback** delivery
//!   walks a bitset of the nodes with non-empty loopback queues.
//! * **Parked heads.** A switch receive queue or a core chanend whose
//!   head fails to move leaves its worklist and *parks* on the one event
//!   that can unblock it, so no step retries it to no effect:
//!   - *time*: blocked only by busy links (every link it could take is
//!     live, unowned by another flow and in credit, and transmitting
//!     until some `busy_until > now`), it waits on a wake calendar for
//!     the earliest such `busy_until`;
//!   - *release of link L*: its one link (its flow's sticky binding, or
//!     the router's only candidate) is owned by another flow, it waits
//!     for the launch of the END or PAUSE that clears the ownership;
//!   - *credit on link L*: its one link has no credit, it waits for the
//!     pop of L's receive queue that returns one;
//!   - *chanend C*: a delivery into a full chanend, or one another flow's
//!     packet holds, waits for the delivery that closes that packet or
//!     for the core to free input space
//!     ([`CoreEndpoints::take_drained`], read at the start of a step and
//!     only for nodes holding such a head).
//!
//!   Each wait is sound because nothing else can change what decides the
//!   attempt: without a launch on a busy link its owner and credit stay
//!   put, ownership changes only by a launch, credit only grows by a pop,
//!   and a chanend's owner and space change only by a delivery or the
//!   core. A woken head re-enters its worklist: a receive queue is served
//!   in the current forward pass exactly when its forward position is
//!   still ahead, and a chanend in the current injection pass when its
//!   node is still ahead — where a retry would have been served — so the
//!   service order is unchanged; a head still blocked simply parks again.
//!   Topology, routing and fault-window changes, core faults
//!   ([`Fabric::wake_all_parked`]) and restores wake every parked head;
//!   waking early costs one no-op attempt. Heads with several fresh
//!   candidates that are not all busy, chanends from 32 up and loopback
//!   deliveries keep retrying every step. The wake calendar's head is a
//!   fabric event like an arrival: [`Fabric::next_event_at`] answers it
//!   rather than `now`; an event-parked head's trigger is another fabric
//!   event or core activity, which bound the engines' horizon already.
//!   [`Fabric::tx_all_parked`] tells the board which nodes' pending
//!   output waits only on a parked head, so the engines can jump over a
//!   parked wait instead of visiting each of its edges, and
//!   [`Fabric::tx_ready_nodes`] which nodes a step left with output that
//!   may move on the next edge.
//! * **Flow tables.** The sticky link bindings and the final-hop
//!   ownerships, looked up on every launch and delivery attempt, are
//!   keyed by small simulation integers and hashed with a multiplicative
//!   hasher (`FlowHasher`) instead of SipHash. Nothing depends on their
//!   iteration order: `retain` is order-free and the snapshot writer
//!   sorts.
//!
//! Every push and pop maintains these structures, so each phase of the
//! step makes exactly the attempts a whole-machine scan would have made
//! that can change anything, in the same order — results are
//! bit-identical to the scan they replace.

use crate::endpoints::CoreEndpoints;
use crate::link::{Direction, LinkId, LinkParams, HEADER_TOKENS};
use crate::routing::{LinkDesc, TableRouter};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use swallow_energy::Energy;
use swallow_isa::{NodeId, ResType, ResourceId, Token};
use swallow_sim::{
    ByteReader, ByteWriter, CodecError, IndexSet, Time, TimeDelta, TraceEvent, Tracer,
};

/// Receive-buffer capacity per link input port (the credit window).
pub const RX_CAPACITY: usize = 8;
/// Capacity of the core-local loopback queue.
pub const LOOPBACK_CAPACITY: usize = 8;
/// Latency of the core-local loopback path (§V.C: data reaches the network
/// hardware in three core cycles; a core-local word lands in ≈50 ns
/// including instruction overhead).
pub const LOOPBACK_DELAY: TimeDelta = TimeDelta::from_ns(6);
/// Consecutive failed launch attempts after which a link is declared
/// dead (persistent-error escalation): the switch gives up retrying and
/// reports the link for rerouting, like a cable whose errors never stop.
pub const MAX_LINK_RETRIES: u32 = 16;

struct Link {
    from: NodeId,
    to: NodeId,
    dir: Direction,
    params: LinkParams,
    busy_until: Time,
    owner: Option<u32>,
    /// Tokens on the wire: (arrival time, token, flow, destination).
    /// The destination is captured at injection — like the route header
    /// on real hardware — so a later `setd` on the source chanend cannot
    /// divert tokens already in flight.
    in_flight: VecDeque<(Time, Token, u32, ResourceId)>,
    /// Tokens received, awaiting forwarding by the `to` switch.
    rx: VecDeque<(Token, u32, ResourceId)>,
    data_tokens: u64,
    ctrl_tokens: u64,
    header_tokens: u64,
    busy_time: TimeDelta,
    /// True while the link is unplugged (scheduled fault or retry
    /// escalation): it accepts no launches, but in-flight and queued
    /// tokens drain normally — the cable is cut between packets.
    down: bool,
    /// Launches before this instant are detected as corrupt and retried.
    corrupt_until: Time,
    /// Data tokens launched before this instant are lost on the wire.
    drop_until: Time,
    /// Consecutive failed launch attempts (escalates at
    /// [`MAX_LINK_RETRIES`]).
    retry_streak: u32,
    retransmits: u64,
    dropped_tokens: u64,
    /// Heads parked until another flow's ownership of this link ends.
    release_waiters: Vec<Head>,
    /// Heads parked until this link's receive queue returns a credit.
    credit_waiters: Vec<Head>,
}

impl Link {
    /// Remaining credit: tokens we may launch without overrunning the
    /// receiver.
    fn credit(&self) -> usize {
        RX_CAPACITY.saturating_sub(self.in_flight.len() + self.rx.len())
    }
}

/// Public per-link statistics snapshot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkStats {
    /// Link identity.
    pub id: LinkId,
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Compass tag.
    pub dir: Direction,
    /// Payload (data) tokens carried.
    pub data_tokens: u64,
    /// Control tokens carried.
    pub ctrl_tokens: u64,
    /// Route-header tokens carried.
    pub header_tokens: u64,
    /// Energy dissipated on the wires.
    pub energy: Energy,
    /// Total time the link spent transmitting.
    pub busy_time: TimeDelta,
    /// Tokens retransmitted after a detected corruption (energy spent,
    /// counted in `energy`/`busy_time`, payload re-sent later).
    pub retransmits: u64,
    /// Data tokens lost in a drop window.
    pub dropped_tokens: u64,
    /// True while the link is unplugged.
    pub down: bool,
    /// Wire time of one token (`3·Ts + Tt` link-clock cycles, §V.C).
    pub token_time: TimeDelta,
}

impl LinkStats {
    /// Energy per *payload* bit actually delivered (headers amortised in).
    pub fn energy_per_payload_bit(&self) -> Energy {
        let bits = self.data_tokens * 8;
        if bits == 0 {
            Energy::ZERO
        } else {
            Energy::from_joules(self.energy.as_joules() / bits as f64)
        }
    }
}

/// The hasher of the fabric's flow tables: one rotate, xor and multiply
/// per integer written (the FxHash scheme), and a final rotate that
/// brings the product's well-mixed high bits down to the low bits the
/// table indexes by. The keys are small simulation integers — flows,
/// nodes and chanends — that the simulation itself generates, so
/// SipHash's resistance to crafted collisions buys nothing on a path
/// taken at every launch and delivery attempt. (A hand-crafted
/// snapshot could collide them; that costs time, never a result.)
#[derive(Clone, Copy, Default)]
struct FlowHasher(u64);

impl FlowHasher {
    /// 2^64 / φ, an odd multiplier with well-mixed bits.
    const K: u64 = 0x9e37_79b9_7f4a_7c15;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for FlowHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.add(byte as u64);
        }
    }

    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A flow table: a `HashMap` keyed through [`FlowHasher`].
type FlowMap<K, V> = HashMap<K, V, BuildHasherDefault<FlowHasher>>;

/// A head that can be parked.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Head {
    /// A switch receive queue, by forward position.
    Rx(u32),
    /// A chanend's output queue. Only chanends below 32 park (an XS1
    /// core has 32), so a node's parked set fits one `u32` mask.
    Tx(NodeId, u8),
}

/// The event a parked head waits for (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Wait {
    /// The earliest `busy_until` among the links the head could take,
    /// and the link it belongs to.
    Time(Time, LinkId),
    /// The end of another flow's ownership of the link.
    Release(LinkId),
    /// A credit returned by the link's receive queue.
    Credit(LinkId),
    /// A closing delivery into, or input space freed in, a destination
    /// chanend below 32.
    Chanend(NodeId, u8),
}

enum TxResult {
    Started,
    Busy,
    Unroutable,
    /// The token was launched into a drop window and lost on the wire:
    /// the sender's view is identical to [`TxResult::Started`] (energy
    /// spent, queue popped), the payload never lands.
    Dropped,
}

/// What the link's error-detection model says about a launch attempt.
enum LaunchGate {
    Clear,
    Retry,
    Drop,
}

/// Builds a [`Fabric`].
///
/// ```
/// use swallow_noc::{FabricBuilder, Direction, LinkParams, TableRouter};
/// use swallow_energy::WireClass;
/// use swallow_isa::NodeId;
///
/// let mut b = FabricBuilder::new(2);
/// b.link_two_way(
///     NodeId(0),
///     NodeId(1),
///     Direction::East,
///     LinkParams::from_class(WireClass::OnChip),
/// );
/// let router = TableRouter::shortest_paths(2, b.link_descs());
/// let fabric = b.build(router);
/// assert_eq!(fabric.link_count(), 2);
/// ```
pub struct FabricBuilder {
    nodes: usize,
    links: Vec<Link>,
    descs: Vec<LinkDesc>,
}

impl FabricBuilder {
    /// A fabric over `nodes` switches (node ids `0..nodes`).
    pub fn new(nodes: usize) -> Self {
        FabricBuilder {
            nodes,
            links: Vec::new(),
            descs: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Adds one directed link.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn link_one_way(
        &mut self,
        from: NodeId,
        to: NodeId,
        dir: Direction,
        params: LinkParams,
    ) -> LinkId {
        assert!(
            (from.raw() as usize) < self.nodes && (to.raw() as usize) < self.nodes,
            "link endpoint out of range"
        );
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            from,
            to,
            dir,
            params,
            busy_until: Time::ZERO,
            owner: None,
            in_flight: VecDeque::new(),
            rx: VecDeque::new(),
            data_tokens: 0,
            ctrl_tokens: 0,
            header_tokens: 0,
            busy_time: TimeDelta::ZERO,
            down: false,
            corrupt_until: Time::ZERO,
            drop_until: Time::ZERO,
            retry_streak: 0,
            retransmits: 0,
            dropped_tokens: 0,
            release_waiters: Vec::new(),
            credit_waiters: Vec::new(),
        });
        self.descs.push(LinkDesc { id, from, to, dir });
        id
    }

    /// Adds a link pair `a→b` (tagged `dir`) and `b→a` (opposite tag).
    pub fn link_two_way(
        &mut self,
        a: NodeId,
        b: NodeId,
        dir: Direction,
        params: LinkParams,
    ) -> (LinkId, LinkId) {
        let ab = self.link_one_way(a, b, dir, params);
        let ba = self.link_one_way(b, a, dir.opposite(), params);
        (ab, ba)
    }

    /// The topology so far (for router construction).
    pub fn link_descs(&self) -> &[LinkDesc] {
        &self.descs
    }

    /// Finalises the fabric with a routing strategy.
    pub fn build(self, router: TableRouter) -> Fabric {
        let mut outgoing = vec![Vec::new(); self.nodes];
        for d in &self.descs {
            outgoing[d.from.raw() as usize].push(d.id);
        }
        // Forward order: each switch serves its input ports in link-id
        // order, switches in node order.
        let mut fwd_links: Vec<LinkId> = self.descs.iter().map(|d| d.id).collect();
        fwd_links.sort_by_key(|&id| (self.descs[id.0 as usize].to, id));
        let mut fwd_pos = vec![0; fwd_links.len()];
        for (pos, lid) in fwd_links.iter().enumerate() {
            fwd_pos[lid.0 as usize] = pos as u32;
        }
        Fabric {
            nodes: self.nodes,
            link_energy: vec![Energy::ZERO; self.links.len()],
            energy_moved: IndexSet::new(self.links.len()),
            rx_ready: IndexSet::new(self.links.len()),
            rx_parked: IndexSet::new(self.links.len()),
            links: self.links,
            outgoing,
            fwd_links,
            fwd_pos,
            arrivals: BinaryHeap::new(),
            tx_parked: vec![0; self.nodes],
            tx_ready: IndexSet::new(self.nodes),
            wakes: BinaryHeap::new(),
            event_parked: 0,
            chanend_waiters: vec![Vec::new(); self.nodes],
            waiting_chanends: vec![0; self.nodes],
            delivery_nodes: IndexSet::new(self.nodes),
            router,
            loopback: (0..self.nodes).map(|_| VecDeque::new()).collect(),
            loopback_ready: IndexSet::new(self.nodes),
            dest_owner: FlowMap::default(),
            sticky: FlowMap::default(),
            unroutable: 0,
            in_network: 0,
            tx_scratch: Vec::new(),
            tracer: Tracer::Off,
            escalated: Vec::new(),
            delivered_data: 0,
            retransmits: 0,
            dropped_tokens: 0,
        }
    }
}

/// The live network.
pub struct Fabric {
    nodes: usize,
    links: Vec<Link>,
    /// Per link, by id: the wire energy dissipated so far. Kept out of
    /// [`Link`] so the power monitor reads one dense array instead of
    /// every link's queues and counters.
    link_energy: Vec<Energy>,
    /// Links whose `link_energy` changed since the power monitor last
    /// cleared the set (every link after a restore): the monitor re-sums
    /// only the metering groups these touch.
    energy_moved: IndexSet,
    outgoing: Vec<Vec<LinkId>>,
    /// Every link in forward order: node-major by receiving switch, then
    /// link id — the order in which switches serve their input ports.
    fwd_links: Vec<LinkId>,
    /// Inverse of `fwd_links`: each link's forward position.
    fwd_pos: Vec<u32>,
    /// Worklist: forward positions of the links whose receive queue is
    /// non-empty and not parked.
    rx_ready: IndexSet,
    /// The arrival calendar: one `(head arrival, link)` entry per link
    /// with tokens on the wire.
    arrivals: BinaryHeap<Reverse<(Time, LinkId)>>,
    /// Forward positions of the receive queues whose head is parked
    /// (non-empty, not in `rx_ready`).
    rx_parked: IndexSet,
    /// Per node, the mask of chanends whose output head is parked.
    tx_parked: Vec<u32>,
    /// Worklist of the injection pass: nodes that may hold pending output
    /// that is not parked. Each pass first adds the nodes the endpoints
    /// name ([`CoreEndpoints::for_each_tx_node`]); an unparked chanend
    /// adds its node. A visited node leaves when it has no visible
    /// pending output or all of it is parked, so what a step leaves here
    /// is output that may move on the next edge
    /// ([`Fabric::tx_ready_nodes`]).
    tx_ready: IndexSet,
    /// The wake calendar: one `(wake, head, blocking link)` entry per
    /// time-parked head, waking it at the earliest `busy_until` among
    /// the links it could take. Kept apart from `arrivals`, which only
    /// land tokens; [`Fabric::next_event_at`] reads both heads.
    wakes: BinaryHeap<Reverse<(Time, Head, LinkId)>>,
    /// Heads parked on an event rather than a time: on the links'
    /// waiter lists and in `chanend_waiters`.
    event_parked: usize,
    /// Per node, the `(chanend, head)` registrations of delivery heads
    /// parked on one of the node's chanends.
    chanend_waiters: Vec<Vec<(u8, Head)>>,
    /// Per node, the mask of chanends in `chanend_waiters`.
    waiting_chanends: Vec<u32>,
    /// Worklist: nodes whose `waiting_chanends` is non-zero — the only
    /// nodes whose [`CoreEndpoints::take_drained`] a step reads.
    delivery_nodes: IndexSet,
    router: TableRouter,
    /// Core-local deliveries in flight: (arrival, dest chanend, token, flow).
    loopback: Vec<VecDeque<(Time, u8, Token, u32)>>,
    /// Worklist: nodes whose loopback queue is non-empty.
    loopback_ready: IndexSet,
    /// Per destination chanend: the flow whose packet currently owns
    /// delivery (wormhole ownership of the final hop). Key: node<<8 | ch.
    dest_owner: FlowMap<u32, u32>,
    /// Sticky link binding: once a flow has carried a packet towards a
    /// destination over some link out of a switch, its later packets to
    /// the same destination use the same link. This preserves a channel's
    /// token order end-to-end (XS1 channels are serial); link aggregation
    /// balances *distinct* flows across parallel links, which is exactly
    /// how §V.B describes its use.
    sticky: FlowMap<(u32, NodeId, NodeId), LinkId>,
    unroutable: u64,
    /// Tokens currently inside the network (on a wire, in a receive
    /// queue, or in a loopback queue). Maintained incrementally so
    /// idleness checks and the fast-forward event query are O(1) when
    /// the network is empty.
    in_network: usize,
    /// Reusable buffer for the injection pass: one node's pending
    /// chanends (no heap allocation per step).
    tx_scratch: Vec<u8>,
    /// Trace sink for [`TraceEvent::LinkTransit`] records. The fabric is
    /// only stepped from the control thread (serially, even under the
    /// windowed engine), so one sink covers every link deterministically.
    tracer: Tracer,
    /// Links whose retry streak crossed [`MAX_LINK_RETRIES`] and were
    /// declared down; drained by the board layer, which reroutes around
    /// them and books the failure.
    escalated: Vec<LinkId>,
    /// Data tokens delivered into a destination chanend (loopback and
    /// link paths alike) — the numerator of the delivered-token rate.
    delivered_data: u64,
    /// Running totals of every link's `retransmits` and `dropped_tokens`,
    /// so the fault counters cost O(1).
    retransmits: u64,
    dropped_tokens: u64,
}

/// The fabric's derived bookkeeping: the in-network counter, the fault
/// totals, the worklists (as sorted member lists) and the arrival
/// calendar (sorted). [`Fabric::rescan`] recomputes it from the queues;
/// restore rebuilds from that and debug builds check the incremental
/// copies against it.
#[derive(Debug, PartialEq)]
struct Derived {
    in_network: usize,
    retransmits: u64,
    dropped_tokens: u64,
    /// Forward positions of the non-empty receive queues, ready or parked.
    rx_queued: Vec<usize>,
    arrivals: Vec<(Time, LinkId)>,
    loopback_ready: Vec<usize>,
}

impl Fabric {
    /// Number of switches.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Tokens dropped because no route existed (should stay zero on a
    /// well-formed system; asserted by tests).
    pub fn unroutable_tokens(&self) -> u64 {
        self.unroutable
    }

    /// True when no token is on a wire, in a receive queue or in a
    /// loopback queue. O(1): the population is counted incrementally.
    pub fn is_idle(&self) -> bool {
        if cfg!(debug_assertions) {
            assert_eq!(
                self.incremental(),
                self.rescan(),
                "fabric counters, worklists or arrival calendar out of sync"
            );
            self.check_parked();
        }
        self.in_network == 0
    }

    /// The derived bookkeeping as maintained incrementally.
    fn incremental(&self) -> Derived {
        let mut rx_queued: Vec<usize> = self.rx_ready.iter().chain(self.rx_parked.iter()).collect();
        rx_queued.sort_unstable();
        let mut arrivals: Vec<(Time, LinkId)> = self.arrivals.iter().map(|entry| entry.0).collect();
        arrivals.sort_unstable();
        Derived {
            in_network: self.in_network,
            retransmits: self.retransmits,
            dropped_tokens: self.dropped_tokens,
            rx_queued,
            arrivals,
            loopback_ready: self.loopback_ready.iter().collect(),
        }
    }

    /// Debug-build invariant of parking: every parked head has exactly
    /// one registration, on the wake calendar or on one waiter list;
    /// every parked receive queue is non-empty and out of `rx_ready`;
    /// and a retry now would fail for the registered reason. A time wake
    /// is at or before its blocking link's `busy_until`, so no head wakes
    /// late; a release waiter's link is owned and a credit waiter's link
    /// has no credit; a parked receive queue's head would register the
    /// same way again (so a time-parked one has no event blocking it),
    /// and a chanend waiter's head is a delivery into that chanend. (A
    /// parked chanend's output queue lives in the endpoints: the
    /// injection pass checks it is non-empty, and
    /// [`Fabric::check_chanend_waits`] that a chanend waiter's
    /// destination still refuses it.)
    fn check_parked(&self) {
        let mut registered: Vec<Head> = Vec::with_capacity(self.parked_heads());
        for &Reverse((wake, head, lid)) in self.wakes.iter() {
            let busy_until = self.links[lid.0 as usize].busy_until;
            assert!(
                busy_until >= wake,
                "{head:?} wakes at {wake:?}, after link {} frees at {busy_until:?}",
                lid.0
            );
            if let Some((at, flow, dest)) = self.rx_head(head) {
                assert!(
                    dest.node() != at && self.event_block(at, flow, dest).is_none(),
                    "time-parked {head:?} waits on an event"
                );
            }
            registered.push(head);
        }
        for (i, link) in self.links.iter().enumerate() {
            let lid = LinkId(i as u32);
            let waits = [
                (
                    &link.release_waiters,
                    Wait::Release(lid),
                    link.owner.is_some(),
                ),
                (&link.credit_waiters, Wait::Credit(lid), link.credit() == 0),
            ];
            for (waiters, wait, blocked) in waits {
                for &head in waiters {
                    assert!(blocked, "{head:?} waits on {wait:?}, which is free");
                    if let Some((at, flow, dest)) = self.rx_head(head) {
                        assert_eq!(
                            self.event_block(at, flow, dest),
                            Some(wait),
                            "{head:?} is registered on the wrong event"
                        );
                    }
                    registered.push(head);
                }
            }
        }
        for (node, waiters) in self.chanend_waiters.iter().enumerate() {
            let mut mask = 0;
            for &(chanend, head) in waiters {
                let (at, _, dest) = self
                    .rx_head(head)
                    .expect("a chanend waiter is a switch head");
                assert!(
                    at.raw() as usize == node && dest.node() == at && dest.index() == chanend,
                    "{head:?} waits on chanend {chanend} of node {node}, not its destination"
                );
                mask |= 1 << chanend;
                registered.push(head);
            }
            assert_eq!(
                mask, self.waiting_chanends[node],
                "chanend mask of node {node}"
            );
            assert_eq!(mask != 0, self.delivery_nodes.contains(node));
        }
        assert_eq!(self.event_parked + self.wakes.len(), registered.len());
        registered.sort_unstable();
        let mut parked: Vec<Head> = self
            .rx_parked
            .iter()
            .map(|pos| Head::Rx(pos as u32))
            .collect();
        for (node, &mask) in self.tx_parked.iter().enumerate().filter(|(_, &m)| m != 0) {
            parked.extend(
                (0..32u8)
                    .filter(|&ch| mask >> ch & 1 == 1)
                    .map(|ch| Head::Tx(NodeId(node as u16), ch)),
            );
        }
        assert_eq!(
            registered, parked,
            "parked heads and registrations out of sync"
        );
        for pos in self.rx_parked.iter() {
            assert!(
                !self.rx_ready.contains(pos)
                    && !self.links[self.fwd_links[pos].0 as usize].rx.is_empty(),
                "parked receive queue at position {pos} is empty or ready"
            );
        }
    }

    /// Debug-build invariant of chanend waits, checked once a step has
    /// woken the drained ones: every other waiter's delivery would still
    /// be refused, by another flow's packet or by a full chanend.
    fn check_chanend_waits<E: CoreEndpoints>(&self, cores: &E) {
        for node in self.delivery_nodes.iter() {
            for &(chanend, head) in &self.chanend_waiters[node] {
                let (at, flow, _) = self
                    .rx_head(head)
                    .expect("a chanend waiter is a switch head");
                let key = (node as u32) << 8 | chanend as u32;
                assert!(
                    self.dest_owner
                        .get(&key)
                        .is_some_and(|&owner| owner != flow)
                        || !cores.can_accept(at, chanend, 1),
                    "{head:?} waits on chanend {chanend} of node {node}, which accepts it"
                );
            }
        }
    }

    /// A parked receive queue's switch and head token's flow and
    /// destination; `None` for a chanend.
    fn rx_head(&self, head: Head) -> Option<(NodeId, u32, ResourceId)> {
        let Head::Rx(pos) = head else { return None };
        let link = &self.links[self.fwd_links[pos as usize].0 as usize];
        let &(_, flow, dest) = link
            .rx
            .front()
            .expect("a parked receive queue holds a token");
        Some((link.to, flow, dest))
    }

    /// The derived bookkeeping recomputed by a full scan of the queues.
    fn rescan(&self) -> Derived {
        let mut arrivals: Vec<(Time, LinkId)> = self
            .links
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.in_flight.front().map(|e| (e.0, LinkId(i as u32))))
            .collect();
        arrivals.sort_unstable();
        Derived {
            in_network: self
                .links
                .iter()
                .map(|l| l.in_flight.len() + l.rx.len())
                .sum::<usize>()
                + self.loopback.iter().map(|q| q.len()).sum::<usize>(),
            retransmits: self.links.iter().map(|l| l.retransmits).sum(),
            dropped_tokens: self.links.iter().map(|l| l.dropped_tokens).sum(),
            rx_queued: (0..self.fwd_links.len())
                .filter(|&pos| !self.links[self.fwd_links[pos].0 as usize].rx.is_empty())
                .collect(),
            arrivals,
            loopback_ready: (0..self.nodes)
                .filter(|&node| !self.loopback[node].is_empty())
                .collect(),
        }
    }

    /// The nodes the last injection pass left with pending output that is
    /// not parked, plus any whose chanend was unparked since: output that
    /// may move on the next edge. A node whose every pending chanend was
    /// parked when the pass visited it is absent until a wake unparks one,
    /// so an engine that stops visiting such a node can use this list to
    /// find it again.
    pub fn tx_ready_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.tx_ready.iter().map(|node| NodeId(node as u16))
    }

    /// Number of tokens currently inside the network. O(1).
    pub fn tokens_in_network(&self) -> usize {
        self.in_network
    }

    /// Number of switch queues and chanends whose head is currently
    /// parked, whatever it waits for: a busy link's `busy_until`, a
    /// link's release or credit, or a destination chanend (see the
    /// module docs). O(1).
    pub fn parked_heads(&self) -> usize {
        self.wakes.len() + self.event_parked
    }

    /// True when `node` has output pending on `pending > 0` chanends and
    /// every one of them is parked: until a wake — the wake calendar's
    /// head, which [`Fabric::next_event_at`] covers, or the fabric event
    /// or core activity an event-parked head waits for — the injection
    /// pass skips the node, so its output is not a reason to step. O(1).
    /// Chanends at 32 or above never park, so a node with output pending
    /// on one always answers false.
    pub fn tx_all_parked(&self, node: NodeId, pending: usize) -> bool {
        pending > 0
            && self
                .tx_parked
                .get(node.raw() as usize)
                .is_some_and(|&mask| mask.count_ones() as usize == pending)
    }

    /// The earliest instant at which the fabric itself has work to do,
    /// given no further core activity: `Some(now)` when a switch queue
    /// that is not parked holds a token or a loopback token is
    /// deliverable, otherwise the earliest of the next wire arrival, the
    /// next loopback arrival and the next wake of a time-parked head, and
    /// `None` when the network is empty and no head is time-parked. (A
    /// launch into a drop window can leave the flow's next token parked
    /// with nothing in the network.)
    ///
    /// This is the network half of the fast-forward contract: strictly
    /// before the returned instant, [`Fabric::step`] without new core
    /// activity is a no-op — a parked head would retry to no effect,
    /// which is why it waits on its wake. Only the time calendar is read:
    /// a head parked on a link's release or credit waits for another
    /// fabric event, which this answer already covers, and one parked on
    /// a destination chanend for its core to read input, which is core
    /// activity. So the answer is `now` only for a head that may move
    /// now (or one of the few kinds that never park). The answer
    /// depends on parking: a fabric whose heads were all woken early
    /// (after a restore, say) answers `now` where an identical one with
    /// parked heads answers later. Both are valid bounds.
    ///
    /// O(1) when a switch queue is ready, otherwise O(1) for the wire and
    /// the wakes (the two calendars' heads) plus O(non-empty loopback
    /// queues).
    pub fn next_event_at(&self, now: Time) -> Option<Time> {
        if self.in_network == 0 && self.wakes.is_empty() {
            return None;
        }
        if !self.rx_ready.is_empty() {
            // Queued at a switch: forwarding/delivery can progress (or is
            // head-of-line blocked and must be retried) now.
            return Some(now);
        }
        let wire = self.arrivals.peek().map(|entry| entry.0 .0);
        let wake = self.wakes.peek().map(|entry| entry.0 .0);
        let loopback = self
            .loopback_ready
            .iter()
            .filter_map(|node| self.loopback[node].front().map(|e| e.0));
        let mut earliest: Option<Time> = None;
        for at in wire.into_iter().chain(wake).chain(loopback) {
            if at <= now {
                return Some(now);
            }
            earliest = Some(earliest.map_or(at, |e: Time| e.min(at)));
        }
        earliest
    }

    /// Replaces the fabric's trace sink.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The fabric's trace sink.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Per-link statistics.
    pub fn link_stats(&self) -> impl Iterator<Item = LinkStats> + '_ {
        self.links.iter().enumerate().map(|(i, l)| LinkStats {
            id: LinkId(i as u32),
            from: l.from,
            to: l.to,
            dir: l.dir,
            data_tokens: l.data_tokens,
            ctrl_tokens: l.ctrl_tokens,
            header_tokens: l.header_tokens,
            energy: self.link_energy[i],
            busy_time: l.busy_time,
            retransmits: l.retransmits,
            dropped_tokens: l.dropped_tokens,
            down: l.down,
            token_time: l.params.token_time,
        })
    }

    /// Each link's cumulative wire energy, indexed by link id: the one
    /// field of [`LinkStats`] the power monitor reads, from a dense array
    /// and without building the rest.
    pub fn link_energies(&self) -> &[Energy] {
        &self.link_energy
    }

    /// The links whose wire energy changed since the last
    /// [`Fabric::clear_energy_moved`], by link id; every link after
    /// [`Fabric::restore_state`]. A launch, a header and a corrupt retry
    /// each add their link.
    pub fn energy_moved(&self) -> &IndexSet {
        &self.energy_moved
    }

    /// Empties [`Fabric::energy_moved`]: the caller has read every
    /// energy it names.
    pub fn clear_energy_moved(&mut self) {
        self.energy_moved.clear();
    }

    /// Takes a link out of service ("hot-unplug"). New launches are
    /// refused, wormhole routes bound to it are unbound so their flows
    /// re-open over another link, and tokens already on the wire or in
    /// the receive queue drain normally. Idempotent; an out-of-range id
    /// is ignored. Returns true when the link state changed.
    pub fn set_link_down(&mut self, lid: LinkId) -> bool {
        let Some(link) = self.links.get_mut(lid.0 as usize) else {
            return false;
        };
        if link.down {
            return false;
        }
        link.down = true;
        link.owner = None;
        link.retry_streak = 0;
        self.sticky.retain(|_, &mut bound| bound != lid);
        self.wake_all_parked();
        true
    }

    /// Puts a downed link back in service. Idempotent; out-of-range ids
    /// are ignored. Returns true when the link state changed.
    pub fn set_link_up(&mut self, lid: LinkId) -> bool {
        let Some(link) = self.links.get_mut(lid.0 as usize) else {
            return false;
        };
        let was_down = link.down;
        link.down = false;
        link.retry_streak = 0;
        if was_down {
            self.wake_all_parked();
        }
        was_down
    }

    /// True while the link is out of service.
    pub fn link_is_down(&self, lid: LinkId) -> bool {
        self.links.get(lid.0 as usize).is_some_and(|link| link.down)
    }

    /// Opens a corruption window on a link: every launch strictly before
    /// `until` is detected as corrupt and retried (energy spent, payload
    /// re-sent). Extends, never shortens, an existing window.
    pub fn set_link_corrupt_until(&mut self, lid: LinkId, until: Time) {
        if let Some(link) = self.links.get_mut(lid.0 as usize) {
            if until > link.corrupt_until {
                link.corrupt_until = until;
                self.wake_all_parked();
            }
        }
    }

    /// Opens a drop window on a link: data tokens launched strictly
    /// before `until` are lost on the wire (control tokens are retried
    /// instead, so routes still close). Extends an existing window.
    pub fn set_link_drop_until(&mut self, lid: LinkId, until: Time) {
        if let Some(link) = self.links.get_mut(lid.0 as usize) {
            if until > link.drop_until {
                link.drop_until = until;
                self.wake_all_parked();
            }
        }
    }

    /// Replaces the routing strategy — the board layer's hook for
    /// recomputing tables around dead links. Sticky flow bindings and
    /// wormhole ownerships survive: flows already crossing a live link
    /// keep it, new packets follow the new tables.
    pub fn set_router(&mut self, router: TableRouter) {
        self.router = router;
        self.wake_all_parked();
    }

    /// True when a retry escalation is waiting to be handled.
    pub fn has_escalations(&self) -> bool {
        !self.escalated.is_empty()
    }

    /// Drains the links declared dead by retry escalation into `out`
    /// (each already marked down; the caller reroutes and books them).
    pub fn take_escalated(&mut self, out: &mut Vec<LinkId>) {
        out.append(&mut self.escalated);
    }

    /// Total tokens retransmitted after detected corruptions. O(1).
    pub fn total_retransmits(&self) -> u64 {
        self.retransmits
    }

    /// Total data tokens lost in drop windows. O(1).
    pub fn total_dropped_tokens(&self) -> u64 {
        self.dropped_tokens
    }

    /// Total data tokens delivered into destination chanends.
    pub fn delivered_data_tokens(&self) -> u64 {
        self.delivered_data
    }

    /// Total wire energy dissipated so far.
    pub fn total_energy(&self) -> Energy {
        self.link_energy.iter().copied().sum()
    }

    /// Total wire energy attributable to links transmitting *from* a node
    /// (how the board charges network energy to nodes).
    pub fn energy_from_node(&self, node: NodeId) -> Energy {
        self.outgoing[node.raw() as usize]
            .iter()
            .map(|&id| self.link_energy[id.0 as usize])
            .sum()
    }

    /// Advances the fabric to `now`: lands arrivals, forwards queued
    /// tokens, injects core traffic and delivers to cores.
    pub fn step<E: CoreEndpoints>(&mut self, now: Time, cores: &mut E) {
        self.wake_due(now);
        if !self.delivery_nodes.is_empty() {
            self.wake_drained(cores);
        }
        if self.in_network > 0 {
            self.land_arrivals(now);
            self.deliver_loopback(now, cores);
            self.forward_rx(now, cores);
        }
        self.inject_from_cores(now, cores);
    }

    /// Returns the parked heads whose wake instant has come to their
    /// worklists, before any pass runs.
    fn wake_due(&mut self, now: Time) {
        while let Some(&Reverse((wake, head, _))) = self.wakes.peek() {
            if wake > now {
                break;
            }
            self.wakes.pop();
            self.unpark(head);
        }
    }

    fn unpark(&mut self, head: Head) {
        match head {
            Head::Rx(pos) => {
                self.rx_parked.remove(pos as usize);
                self.rx_ready.insert(pos as usize);
            }
            Head::Tx(node, chanend) => {
                self.tx_parked[node.raw() as usize] &= !(1 << chanend);
                self.tx_ready.insert(node.raw() as usize);
            }
        }
    }

    /// Wakes every parked head. Called whenever something other than
    /// the events heads wait on could unblock one: a link going down or
    /// up, new routes, a new fault window, a restore, and — from the
    /// board — a core fault (kill, stall, brownout re-clock), which can
    /// change what a destination chanend accepts. Waking early only costs
    /// a no-op attempt.
    pub fn wake_all_parked(&mut self) {
        if self.parked_heads() == 0 {
            return;
        }
        for Reverse((_, head, _)) in std::mem::take(&mut self.wakes) {
            self.unpark(head);
        }
        if self.event_parked == 0 {
            return;
        }
        for lid in 0..self.links.len() {
            let link = &mut self.links[lid];
            if !link.release_waiters.is_empty() || !link.credit_waiters.is_empty() {
                let mut heads = std::mem::take(&mut link.release_waiters);
                heads.append(&mut link.credit_waiters);
                self.wake_all_of(&heads);
            }
        }
        let mut next = self.delivery_nodes.next_from(0);
        while let Some(node) = next {
            self.wake_chanends(node, u32::MAX);
            next = self.delivery_nodes.next_from(node + 1);
        }
        debug_assert_eq!(self.event_parked, 0);
    }

    /// Unparks `heads`, which were registered on an event that happened.
    fn wake_all_of(&mut self, heads: &[Head]) {
        self.event_parked -= heads.len();
        for &head in heads {
            self.unpark(head);
        }
    }

    /// Wakes the heads on one of `lid`'s waiter lists, which `list`
    /// picks, keeping the list's allocation.
    fn wake_link_waiters(&mut self, lid: LinkId, list: fn(&mut Link) -> &mut Vec<Head>) {
        let mut heads = std::mem::take(list(&mut self.links[lid.0 as usize]));
        self.wake_all_of(&heads);
        heads.clear();
        *list(&mut self.links[lid.0 as usize]) = heads;
    }

    /// Wakes the delivery heads parked on `node`'s chanends in `mask`.
    fn wake_chanends(&mut self, node: usize, mask: u32) {
        let mut waiters = std::mem::take(&mut self.chanend_waiters[node]);
        waiters.retain(|&(chanend, head)| {
            if mask >> chanend & 1 == 0 {
                return true;
            }
            self.event_parked -= 1;
            self.unpark(head);
            false
        });
        self.chanend_waiters[node] = waiters;
        self.waiting_chanends[node] &= !mask;
        if self.waiting_chanends[node] == 0 {
            self.delivery_nodes.remove(node);
        }
    }

    /// Wakes the delivery heads parked on chanends whose cores freed
    /// input space since the last step read them.
    fn wake_drained<E: CoreEndpoints>(&mut self, cores: &mut E) {
        let mut next = self.delivery_nodes.next_from(0);
        while let Some(node) = next {
            let drained = cores.take_drained(NodeId(node as u16)) & self.waiting_chanends[node];
            if drained != 0 {
                self.wake_chanends(node, drained);
            }
            next = self.delivery_nodes.next_from(node + 1);
        }
        if cfg!(debug_assertions) {
            self.check_chanend_waits(cores);
        }
    }

    /// Parks `head` on `wait`, the event [`Fabric::blocker`] (or a
    /// refused delivery) found it blocked on.
    fn park(&mut self, head: Head, wait: Wait) {
        match head {
            Head::Rx(pos) => {
                self.rx_ready.remove(pos as usize);
                self.rx_parked.insert(pos as usize);
            }
            Head::Tx(node, chanend) => self.tx_parked[node.raw() as usize] |= 1 << chanend,
        }
        match wait {
            Wait::Time(wake, lid) => {
                self.wakes.push(Reverse((wake, head, lid)));
                return;
            }
            Wait::Release(lid) => self.links[lid.0 as usize].release_waiters.push(head),
            Wait::Credit(lid) => self.links[lid.0 as usize].credit_waiters.push(head),
            Wait::Chanend(node, chanend) => {
                let node = node.raw() as usize;
                self.chanend_waiters[node].push((chanend, head));
                self.waiting_chanends[node] |= 1 << chanend;
                self.delivery_nodes.insert(node);
            }
        }
        self.event_parked += 1;
    }

    /// The one link a token of `flow` for `dest` can take out of switch
    /// `at`: its flow's sticky binding, else the router's only
    /// candidate. `None` when fresh selection has several candidates (or
    /// none).
    fn sole_link(&self, at: NodeId, flow: u32, dest: ResourceId) -> Option<LinkId> {
        if let Some(&bound) = self.sticky.get(&(flow, at, dest.node())) {
            return Some(bound);
        }
        let candidates = self.router.candidates(at, dest.node());
        if candidates.len() == 1 {
            candidates.iter().next()
        } else {
            None
        }
    }

    /// The fabric event a token of `flow` for `dest` at switch `at` must
    /// wait for before any attempt can launch it: the release of its one
    /// link by a flow that owns it (for a fresh selection, any owner
    /// blocks), else credit on that link. `None` when neither blocks (or
    /// the token has several candidates, or its link is down).
    fn event_block(&self, at: NodeId, flow: u32, dest: ResourceId) -> Option<Wait> {
        let lid = self.sole_link(at, flow, dest)?;
        let link = &self.links[lid.0 as usize];
        let bound = self.sticky.contains_key(&(flow, at, dest.node()));
        match link.owner {
            Some(owner) if owner != flow || !bound => Some(Wait::Release(lid)),
            _ if link.down => None,
            _ if link.credit() == 0 => Some(Wait::Credit(lid)),
            _ => None,
        }
    }

    /// Why a token of `flow` for `dest` cannot leave switch `at` now, as
    /// seen right after a failed attempt: the event it must wait for
    /// ([`Fabric::event_block`]), else `Wait::Time(wake, link)` when every
    /// link the next attempt could take is live, in credit and not owned
    /// by another flow, and only transmitting — `wake` is the earliest
    /// `busy_until` among them and `link` the one it belongs to. `None`
    /// for anything else (a down link, or several candidates not all
    /// busy), which the caller retries every step.
    ///
    /// Until the event, or until `wake`, every attempt would be a no-op:
    /// while a link is busy no launch can start on it, and without a
    /// launch nothing that decides the attempt changes — ownership ends
    /// only by the owner's launch of its END or PAUSE, credit only grows
    /// by a pop of the receive queue, and sticky bindings and down flags
    /// change only by a launch on the link or by the setters that wake
    /// every parked head.
    fn blocker(&self, now: Time, at: NodeId, flow: u32, dest: ResourceId) -> Option<Wait> {
        if let Some(wait) = self.event_block(at, flow, dest) {
            return Some(wait);
        }
        let only_busy = |lid: LinkId| {
            let link = &self.links[lid.0 as usize];
            (!link.down && link.credit() >= 1 && link.busy_until > now)
                .then_some((link.busy_until, lid))
        };
        if let Some(&bound) = self.sticky.get(&(flow, at, dest.node())) {
            return only_busy(bound).map(|(wake, lid)| Wait::Time(wake, lid));
        }
        let mut earliest: Option<(Time, LinkId)> = None;
        for lid in self.router.candidates(at, dest.node()).iter() {
            if self.links[lid.0 as usize].owner.is_some() {
                return None;
            }
            let block = only_busy(lid)?;
            earliest = Some(earliest.map_or(block, |e| e.min(block)));
        }
        earliest.map(|(wake, lid)| Wait::Time(wake, lid))
    }

    /// Lands every token due by `now`, popping only the calendar entries
    /// that are due. Credit keeps `in_flight + rx <= RX_CAPACITY`, so a
    /// landing token always finds room.
    fn land_arrivals(&mut self, now: Time) {
        while let Some(&Reverse((arrival, lid))) = self.arrivals.peek() {
            if arrival > now {
                break;
            }
            self.arrivals.pop();
            let link = &mut self.links[lid.0 as usize];
            if link.rx.is_empty() {
                // A non-empty queue is already ready or parked; landing
                // behind its head changes neither.
                self.rx_ready.insert(self.fwd_pos[lid.0 as usize] as usize);
            }
            while let Some(&(arrival, token, flow, dest)) = link.in_flight.front() {
                if arrival > now {
                    self.arrivals.push(Reverse((arrival, lid)));
                    break;
                }
                debug_assert!(
                    link.rx.len() < RX_CAPACITY,
                    "landing past the credit window"
                );
                link.rx.push_back((token, flow, dest));
                link.in_flight.pop_front();
            }
        }
    }

    fn deliver_loopback<E: CoreEndpoints>(&mut self, now: Time, cores: &mut E) {
        let mut next = self.loopback_ready.next_from(0);
        while let Some(node) = next {
            while let Some(&(arrival, chanend, token, flow)) = self.loopback[node].front() {
                if arrival <= now
                    && self.try_deliver(cores, NodeId(node as u16), chanend, token, flow)
                {
                    self.loopback[node].pop_front();
                    self.in_network -= 1;
                } else {
                    break;
                }
            }
            if self.loopback[node].is_empty() {
                self.loopback_ready.remove(node);
            }
            next = self.loopback_ready.next_from(node + 1);
        }
    }

    /// Delivers one token into a destination chanend, honouring the
    /// per-chanend packet ownership: once a flow's token lands, the
    /// chanend belongs to that flow until its END/PAUSE arrives (the
    /// final-hop half of wormhole routing — packets never interleave at
    /// the receiver). A closing delivery wakes the heads parked on the
    /// chanend.
    fn try_deliver<E: CoreEndpoints>(
        &mut self,
        cores: &mut E,
        node: NodeId,
        chanend: u8,
        token: Token,
        flow: u32,
    ) -> bool {
        let key = (node.raw() as u32) << 8 | chanend as u32;
        if let Some(&owner) = self.dest_owner.get(&key) {
            if owner != flow {
                return false; // another packet holds the chanend
            }
        }
        if !cores.can_accept(node, chanend, 1) || !cores.deliver(node, chanend, token) {
            return false;
        }
        if matches!(token, Token::Data(_)) {
            self.delivered_data += 1;
        }
        if token.closes_route() {
            self.dest_owner.remove(&key);
            let node = node.raw() as usize;
            if chanend < 32 && self.waiting_chanends[node] >> chanend & 1 == 1 {
                self.wake_chanends(node, 1 << chanend);
            }
        } else {
            self.dest_owner.insert(key, flow);
        }
        true
    }

    /// Pops the head of `lid`'s receive queue, which returns a credit to
    /// the link's sender, and wakes the heads waiting for it.
    fn pop_rx(&mut self, lid: LinkId) {
        let link = &mut self.links[lid.0 as usize];
        link.rx.pop_front();
        self.in_network -= 1;
        if !link.credit_waiters.is_empty() {
            self.wake_link_waiters(lid, |link| &mut link.credit_waiters);
        }
    }

    /// Serves the switches' receive queues in forward order. Only pops
    /// happen here (landing ran before), so walking the worklist while
    /// removing drained positions visits exactly the non-empty queues of
    /// a full node-by-node, port-by-port scan. A queue a pop or launch
    /// wakes re-enters the worklist, so this pass serves it exactly when
    /// its position is still ahead — as it would have served a retry.
    fn forward_rx<E: CoreEndpoints>(&mut self, now: Time, cores: &mut E) {
        let mut next = self.rx_ready.next_from(0);
        while let Some(pos) = next {
            let lid = self.fwd_links[pos];
            let node = self.links[lid.0 as usize].to;
            while let Some(&(token, flow, dest)) = self.links[lid.0 as usize].rx.front() {
                if dest.node() == node {
                    if self.try_deliver(cores, node, dest.index(), token, flow) {
                        self.pop_rx(lid);
                    } else {
                        // Head-of-line blocked on the core.
                        if dest.index() < 32 {
                            self.park(Head::Rx(pos as u32), Wait::Chanend(node, dest.index()));
                        }
                        break;
                    }
                } else {
                    match self.try_transmit(now, node, token, flow, dest) {
                        TxResult::Started | TxResult::Dropped => self.pop_rx(lid),
                        TxResult::Busy => {
                            if let Some(wait) = self.blocker(now, node, flow, dest) {
                                self.park(Head::Rx(pos as u32), wait);
                            }
                            break;
                        }
                        TxResult::Unroutable => {
                            self.pop_rx(lid);
                            self.unroutable += 1;
                        }
                    }
                }
            }
            if self.links[lid.0 as usize].rx.is_empty() {
                self.rx_ready.remove(pos);
            }
            next = self.rx_ready.next_from(pos + 1);
        }
    }

    /// Injects core output, walking `tx_ready` in node order. A chanend
    /// unparked during the pass re-enters the list: its node is served
    /// in this pass when it is still ahead of the cursor and stays listed
    /// for the next step when it is not — exactly the retries a walk over
    /// every node with output would make.
    fn inject_from_cores<E: CoreEndpoints>(&mut self, now: Time, cores: &mut E) {
        let ready = &mut self.tx_ready;
        cores.for_each_tx_node(self.nodes, &mut |node| ready.insert(node.raw() as usize));
        let mut pending = std::mem::take(&mut self.tx_scratch);
        let mut next = self.tx_ready.next_from(0);
        while let Some(node) = next {
            let node_id = NodeId(node as u16);
            if self.tx_idle(node_id, cores) {
                self.tx_ready.remove(node);
                next = self.tx_ready.next_from(node + 1);
                continue;
            }
            pending.clear();
            cores.for_each_tx_pending(node_id, &mut |ch| pending.push(ch));
            for &chanend in &pending {
                if chanend < 32 && self.tx_parked[node] >> chanend & 1 == 1 {
                    continue;
                }
                while let Some((dest, token)) = cores.tx_front(node_id, chanend) {
                    let flow = ResourceId::new(node_id, chanend, ResType::Chanend).raw();
                    if dest.node() == node_id {
                        // Core-local: loopback path, no serial link.
                        if self.loopback[node].len() < LOOPBACK_CAPACITY {
                            cores.tx_pop(node_id, chanend);
                            self.loopback[node].push_back((
                                now + LOOPBACK_DELAY,
                                dest.index(),
                                token,
                                flow,
                            ));
                            self.loopback_ready.insert(node);
                            self.in_network += 1;
                        } else {
                            break;
                        }
                    } else {
                        match self.try_transmit(now, node_id, token, flow, dest) {
                            TxResult::Started | TxResult::Dropped => {
                                cores.tx_pop(node_id, chanend);
                            }
                            TxResult::Busy => {
                                let wait = self.blocker(now, node_id, flow, dest);
                                if let Some(wait) = wait.filter(|_| chanend < 32) {
                                    self.park(Head::Tx(node_id, chanend), wait);
                                }
                                break;
                            }
                            TxResult::Unroutable => {
                                cores.tx_pop(node_id, chanend);
                                self.unroutable += 1;
                            }
                        }
                    }
                }
            }
            if self.tx_idle(node_id, cores) {
                self.tx_ready.remove(node);
            }
            next = self.tx_ready.next_from(node + 1);
        }
        self.tx_scratch = pending;
    }

    /// True when `node` has nothing the injection pass could move: no
    /// visible pending output, or every pending chanend parked.
    fn tx_idle<E: CoreEndpoints>(&self, node: NodeId, cores: &E) -> bool {
        if !cores.has_tx_pending(node) {
            return true;
        }
        let parked = self.tx_parked[node.raw() as usize];
        debug_assert!(
            (0..32u8)
                .filter(|&ch| parked >> ch & 1 == 1)
                .all(|ch| cores.tx_front(node, ch).is_some()),
            "node {} has a parked chanend with nothing to send",
            node.raw()
        );
        parked != 0 && parked.count_ones() as usize == cores.tx_pending_count(node)
    }

    fn try_transmit(
        &mut self,
        now: Time,
        at: NodeId,
        token: Token,
        flow: u32,
        dest: ResourceId,
    ) -> TxResult {
        let candidates = self.router.candidates(at, dest.node());
        if candidates.is_empty() {
            return TxResult::Unroutable;
        }
        // A flow is bound to one link per switch for its lifetime: the
        // link its first packet took. Without this, two packets of one
        // channel could race over parallel aggregated links and arrive
        // interleaved — XS1 channels are strictly serial.
        if let Some(&bound) = self.sticky.get(&(flow, at, dest.node())) {
            if self.links[bound.0 as usize].down {
                // The bound link died under the flow: unbind it and fall
                // through to fresh selection below. The rebind re-opens
                // the route with a full three-token header — the energy
                // cost of the reroute is charged where it is spent.
                self.sticky.remove(&(flow, at, dest.node()));
                let link = &mut self.links[bound.0 as usize];
                if link.owner == Some(flow) {
                    link.owner = None;
                }
            } else {
                let link = &self.links[bound.0 as usize];
                return match link.owner {
                    Some(owner) if owner == flow => {
                        if self.can_launch(bound, now) {
                            self.commit_launch(bound, now, token, flow, dest, false)
                        } else {
                            TxResult::Busy
                        }
                    }
                    Some(_) => TxResult::Busy, // another packet holds our link
                    None => {
                        if self.can_launch(bound, now) {
                            self.bind_and_launch(bound, now, at, token, flow, dest)
                        } else {
                            TxResult::Busy
                        }
                    }
                };
            }
        }
        // First packet of this flow here (or a rebind after its link
        // died): take the first free link ("the next unused link", §V.B)
        // and bind to it. A retry-gated attempt leaves the faulty link
        // busy for a token time, so the next attempt naturally picks the
        // following aggregated link if one is free.
        for lid in candidates.iter() {
            let link = &self.links[lid.0 as usize];
            if !link.down && link.owner.is_none() && self.can_launch(lid, now) {
                return self.bind_and_launch(lid, now, at, token, flow, dest);
            }
        }
        TxResult::Busy
    }

    /// What the error-detection model says about launching `token` on
    /// `lid` at `now`, charging the cost of a failed attempt. A corrupt
    /// launch spends one token's wire time and energy and will be
    /// retried by the caller's next step; [`MAX_LINK_RETRIES`]
    /// consecutive failures declare the link dead (escalation).
    fn launch_gate(&mut self, lid: LinkId, now: Time, token: Token) -> LaunchGate {
        let link = &mut self.links[lid.0 as usize];
        if now < link.drop_until && matches!(token, Token::Data(_)) {
            return LaunchGate::Drop;
        }
        if now < link.corrupt_until || now < link.drop_until {
            // Corrupt window — or a control token in a drop window,
            // which is retried rather than lost so routes still close
            // (a lost END would wedge the wormhole forever).
            link.retransmits += 1;
            self.retransmits += 1;
            link.retry_streak += 1;
            self.link_energy[lid.0 as usize] += link.params.token_energy();
            self.energy_moved.insert(lid.0 as usize);
            link.busy_time += link.params.token_time;
            link.busy_until = now + link.params.token_time;
            let streak = link.retry_streak;
            if self.tracer.is_enabled() {
                self.tracer.emit(
                    now,
                    TraceEvent::LinkRetry {
                        link: lid.0,
                        streak,
                    },
                );
            }
            if streak >= MAX_LINK_RETRIES {
                // Persistent errors: give up on the link. Ownership and
                // sticky bindings are cleared here; the board layer
                // drains `escalated`, reroutes and books the failure.
                self.set_link_down(lid);
                self.escalated.push(lid);
            }
            return LaunchGate::Retry;
        }
        link.retry_streak = 0;
        LaunchGate::Clear
    }

    /// Launches on an unowned link, binding ownership and the sticky
    /// flow association first — unless the launch gate refuses, in which
    /// case nothing is bound and the caller retries later.
    fn bind_and_launch(
        &mut self,
        lid: LinkId,
        now: Time,
        at: NodeId,
        token: Token,
        flow: u32,
        dest: ResourceId,
    ) -> TxResult {
        match self.launch_gate(lid, now, token) {
            LaunchGate::Retry => TxResult::Busy,
            gate => {
                self.links[lid.0 as usize].owner = Some(flow);
                self.sticky.insert((flow, at, dest.node()), lid);
                self.launch(lid, now, token, flow, dest, true);
                self.finish_gated(gate, lid)
            }
        }
    }

    /// Launches on a link the flow already owns, subject to the gate.
    fn commit_launch(
        &mut self,
        lid: LinkId,
        now: Time,
        token: Token,
        flow: u32,
        dest: ResourceId,
        header: bool,
    ) -> TxResult {
        match self.launch_gate(lid, now, token) {
            LaunchGate::Retry => TxResult::Busy,
            gate => {
                self.launch(lid, now, token, flow, dest, header);
                self.finish_gated(gate, lid)
            }
        }
    }

    /// After a gated launch: on a drop, take the token back off the wire
    /// — the sender saw a normal launch (energy spent, ownership moved),
    /// the payload is gone.
    fn finish_gated(&mut self, gate: LaunchGate, lid: LinkId) -> TxResult {
        let link = &mut self.links[lid.0 as usize];
        match gate {
            LaunchGate::Clear => {
                if link.in_flight.len() == 1 {
                    // The wire was empty: this token heads it.
                    self.arrivals.push(Reverse((link.in_flight[0].0, lid)));
                }
                TxResult::Started
            }
            LaunchGate::Retry => unreachable!("retries never reach launch"),
            LaunchGate::Drop => {
                link.in_flight.pop_back();
                link.dropped_tokens += 1;
                self.dropped_tokens += 1;
                self.in_network -= 1;
                if self.tracer.is_enabled() {
                    let at = self.links[lid.0 as usize].busy_until;
                    self.tracer.emit(at, TraceEvent::TokenDrop { link: lid.0 });
                }
                TxResult::Dropped
            }
        }
    }

    fn can_launch(&self, lid: LinkId, now: Time) -> bool {
        let link = &self.links[lid.0 as usize];
        !link.down && link.busy_until <= now && link.credit() >= 1
    }

    fn launch(
        &mut self,
        lid: LinkId,
        now: Time,
        token: Token,
        flow: u32,
        dest: ResourceId,
        header: bool,
    ) {
        let link = &mut self.links[lid.0 as usize];
        self.energy_moved.insert(lid.0 as usize);
        let mut start = now;
        if header {
            // Three header tokens open the route at this hop (§V.B).
            let header_time = link.params.token_time * HEADER_TOKENS;
            start = now + header_time;
            link.header_tokens += HEADER_TOKENS;
            self.link_energy[lid.0 as usize] += link.params.token_energy() * HEADER_TOKENS as f64;
            link.busy_time += header_time;
        }
        let arrival = start + link.params.token_time;
        link.in_flight.push_back((arrival, token, flow, dest));
        self.in_network += 1;
        let link = &mut self.links[lid.0 as usize];
        link.busy_until = arrival;
        link.busy_time += link.params.token_time;
        self.link_energy[lid.0 as usize] += link.params.token_energy();
        match token {
            Token::Data(_) => link.data_tokens += 1,
            Token::Ctrl(_) => link.ctrl_tokens += 1,
        }
        if token.closes_route() {
            link.owner = None;
            if !link.release_waiters.is_empty() {
                self.wake_link_waiters(lid, |link| &mut link.release_waiters);
            }
        }
        if self.tracer.is_enabled() {
            let link = &self.links[lid.0 as usize];
            self.tracer.emit(
                start,
                TraceEvent::LinkTransit {
                    link: lid.0,
                    from: link.from.0,
                    to: link.to.0,
                    ctrl: matches!(token, Token::Ctrl(_)),
                    busy: link.params.token_time,
                },
            );
        }
    }

    // --- snapshot ---------------------------------------------------------

    /// Serializes the mutable (architectural) state of the fabric into
    /// `w`: per-link wire/queue/fault state and statistics, loopback
    /// queues, wormhole ownerships and sticky flow bindings. The static
    /// topology (endpoints, directions, wire parameters) and the router
    /// are *not* written — both are rebuilt deterministically from the
    /// machine configuration on restore — and neither are the derived
    /// in-network counter, scratch buffers, tracer or undrained
    /// escalations (snapshots are taken at step boundaries, where the
    /// escalation queue is empty), and neither are the worklists, the
    /// arrival calendar or fault totals, which restore recomputes from
    /// the queues, nor the parked heads and their waiter lists, which
    /// restore wakes.
    pub fn encode_state(&self, w: &mut ByteWriter) {
        debug_assert!(
            self.escalated.is_empty(),
            "snapshot with undrained link escalations"
        );
        w.u64(self.links.len() as u64);
        for (link, energy) in self.links.iter().zip(&self.link_energy) {
            w.time(link.busy_until);
            match link.owner {
                None => w.u8(0),
                Some(flow) => {
                    w.u8(1);
                    w.u32(flow);
                }
            }
            w.u64(link.in_flight.len() as u64);
            for &(arrival, token, flow, dest) in &link.in_flight {
                w.time(arrival);
                w.u16(u16::from(token));
                w.u32(flow);
                w.u32(dest.raw());
            }
            w.u64(link.rx.len() as u64);
            for &(token, flow, dest) in &link.rx {
                w.u16(u16::from(token));
                w.u32(flow);
                w.u32(dest.raw());
            }
            w.u64(link.data_tokens);
            w.u64(link.ctrl_tokens);
            w.u64(link.header_tokens);
            w.f64_bits(energy.as_joules());
            w.delta(link.busy_time);
            w.bool(link.down);
            w.time(link.corrupt_until);
            w.time(link.drop_until);
            w.u32(link.retry_streak);
            w.u64(link.retransmits);
            w.u64(link.dropped_tokens);
        }
        w.u64(self.loopback.len() as u64);
        for queue in &self.loopback {
            w.u64(queue.len() as u64);
            for &(arrival, chanend, token, flow) in queue {
                w.time(arrival);
                w.u8(chanend);
                w.u16(u16::from(token));
                w.u32(flow);
            }
        }
        // HashMaps are written in sorted key order so identical fabric
        // state always serializes to identical bytes.
        let mut owners: Vec<(u32, u32)> = self.dest_owner.iter().map(|(&k, &v)| (k, v)).collect();
        owners.sort_unstable();
        w.u64(owners.len() as u64);
        for (key, flow) in owners {
            w.u32(key);
            w.u32(flow);
        }
        let mut sticky: Vec<((u32, NodeId, NodeId), LinkId)> =
            self.sticky.iter().map(|(&k, &v)| (k, v)).collect();
        sticky.sort_unstable_by_key(|&((flow, from, to), _)| (flow, from.0, to.0));
        w.u64(sticky.len() as u64);
        for ((flow, from, to), lid) in sticky {
            w.u32(flow);
            w.u16(from.0);
            w.u16(to.0);
            w.u32(lid.0);
        }
        w.u64(self.unroutable);
        w.u64(self.delivered_data);
    }

    /// Overlays the state written by [`Fabric::encode_state`] onto this
    /// fabric, which must have been rebuilt from the same topology (the
    /// link and node counts are validated). The in-network token counter,
    /// the fault totals, the worklists and the arrival calendar are
    /// recomputed from the restored queues, and every parked head wakes.
    pub fn restore_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        let links = r.len_prefixed(1)?;
        if links != self.links.len() {
            return Err(CodecError::Invalid("fabric link count mismatch"));
        }
        for (link, energy) in self.links.iter_mut().zip(&mut self.link_energy) {
            link.busy_until = r.time()?;
            link.owner = match r.u8()? {
                0 => None,
                1 => Some(r.u32()?),
                _ => return Err(CodecError::Invalid("link owner tag out of range")),
            };
            let in_flight = r.len_prefixed(14)?;
            if in_flight > RX_CAPACITY {
                return Err(CodecError::Invalid("link wire queue overfull"));
            }
            link.in_flight.clear();
            for _ in 0..in_flight {
                let arrival = r.time()?;
                let token = Token::try_from(r.u16()?)?;
                let flow = r.u32()?;
                let dest = ResourceId::from_raw(r.u32()?);
                link.in_flight.push_back((arrival, token, flow, dest));
            }
            let rx = r.len_prefixed(6)?;
            if link.in_flight.len() + rx > RX_CAPACITY {
                return Err(CodecError::Invalid("link receive queue overfull"));
            }
            link.rx.clear();
            for _ in 0..rx {
                let token = Token::try_from(r.u16()?)?;
                let flow = r.u32()?;
                let dest = ResourceId::from_raw(r.u32()?);
                link.rx.push_back((token, flow, dest));
            }
            link.data_tokens = r.u64()?;
            link.ctrl_tokens = r.u64()?;
            link.header_tokens = r.u64()?;
            *energy = Energy::from_joules(r.finite_f64()?);
            link.busy_time = r.delta()?;
            link.down = r.bool()?;
            link.corrupt_until = r.time()?;
            link.drop_until = r.time()?;
            link.retry_streak = r.u32()?;
            link.retransmits = r.u64()?;
            link.dropped_tokens = r.u64()?;
        }
        self.energy_moved.fill();
        let nodes = r.len_prefixed(1)?;
        if nodes != self.nodes {
            return Err(CodecError::Invalid("fabric node count mismatch"));
        }
        for queue in &mut self.loopback {
            let len = r.len_prefixed(12)?;
            if len > LOOPBACK_CAPACITY {
                return Err(CodecError::Invalid("loopback queue overfull"));
            }
            queue.clear();
            for _ in 0..len {
                let arrival = r.time()?;
                let chanend = r.u8()?;
                let token = Token::try_from(r.u16()?)?;
                let flow = r.u32()?;
                queue.push_back((arrival, chanend, token, flow));
            }
        }
        let owners = r.len_prefixed(8)?;
        self.dest_owner.clear();
        for _ in 0..owners {
            let key = r.u32()?;
            let flow = r.u32()?;
            if self.dest_owner.insert(key, flow).is_some() {
                return Err(CodecError::Invalid("duplicate chanend ownership"));
            }
        }
        let sticky = r.len_prefixed(12)?;
        self.sticky.clear();
        for _ in 0..sticky {
            let flow = r.u32()?;
            let from = NodeId(r.u16()?);
            let to = NodeId(r.u16()?);
            let lid = LinkId(r.u32()?);
            if lid.0 as usize >= self.links.len() {
                return Err(CodecError::Invalid("sticky binding to unknown link"));
            }
            if self.sticky.insert((flow, from, to), lid).is_some() {
                return Err(CodecError::Invalid("duplicate sticky binding"));
            }
        }
        self.unroutable = r.u64()?;
        self.delivered_data = r.u64()?;
        let derived = self.rescan();
        self.in_network = derived.in_network;
        self.retransmits = derived.retransmits;
        self.dropped_tokens = derived.dropped_tokens;
        // Every restored non-empty queue starts ready: parked heads wake.
        self.wake_all_parked();
        self.rx_ready.clear();
        for pos in derived.rx_queued {
            self.rx_ready.insert(pos);
        }
        self.arrivals = derived.arrivals.into_iter().map(Reverse).collect();
        self.loopback_ready.clear();
        for node in derived.loopback_ready {
            self.loopback_ready.insert(node);
        }
        self.escalated.clear();
        Ok(())
    }
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("nodes", &self.nodes)
            .field("links", &self.links.len())
            .field("unroutable", &self.unroutable)
            .finish()
    }
}
