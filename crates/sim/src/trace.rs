//! Typed, zero-cost-when-off trace events.
//!
//! The observability substrate of the whole stack: simulation components
//! emit [`TraceEvent`]s — compact, `Copy` descriptions of scheduler,
//! network and power happenings — through a [`Tracer`]. The default,
//! [`Tracer::Off`], discards events with no allocation and no side effect
//! beyond one branch, so tracing can stay compiled into every hot path;
//! [`Tracer::Ring`] retains the most recent records in a pre-allocated
//! ring buffer for post-mortem export (Chrome `trace_event` JSON, CSV —
//! see the `swallow` crate).
//!
//! Determinism contract: emitting events never changes simulation state,
//! and a ring preserves *insertion* order, so merging the per-component
//! rings of a run in a fixed component order (then stable-sorting by
//! time) yields the same [`TraceLog`] run after run — including under the
//! windowed engine, where each core's ring travels with the core onto its
//! shard thread and per-core insertion order is itself deterministic.

use crate::time::{Time, TimeDelta};
use std::fmt;

/// Default capacity for [`TraceRing`].
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// One structured trace event. Everything is a small `Copy` payload —
/// no strings, no heap — so recording is a couple of register moves and
/// ring rotation never clones.
///
/// Source identity is carried *in* the event (core/link/slice ids), so a
/// record is self-describing after per-component rings are merged.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraceEvent {
    /// A core left the all-idle state: its first thread became ready.
    CoreWake {
        /// Node id of the core.
        core: u16,
    },
    /// A core's last ready thread left the rotation.
    CoreSleep {
        /// Node id of the core.
        core: u16,
    },
    /// A thread entered the issue rotation (became ready).
    ThreadSchedule {
        /// Node id of the core.
        core: u16,
        /// Hardware thread id.
        thread: u8,
        /// Program counter at schedule time.
        pc: u32,
    },
    /// A thread left the issue rotation, retiring the block of
    /// instructions it issued since it was scheduled.
    BlockRetire {
        /// Node id of the core.
        core: u16,
        /// Hardware thread id.
        thread: u8,
        /// Instructions retired in this scheduling block.
        instret: u32,
        /// When the block started (the matching `ThreadSchedule`).
        since: Time,
        /// Why the thread left the rotation (a stable static label:
        /// `"recv"`, `"send"`, `"timer"`, `"done"`, …).
        reason: &'static str,
    },
    /// A core enqueued tokens for the network on a channel end.
    TokenSend {
        /// Node id of the sending core.
        core: u16,
        /// Local channel-end index.
        chanend: u8,
        /// Destination node.
        dest_node: u16,
        /// Destination channel-end index.
        dest_chanend: u8,
        /// Tokens enqueued by the instruction (4 for `out`, 1 for
        /// `outt`/`outct`).
        tokens: u8,
        /// True for a control token.
        ctrl: bool,
    },
    /// A token landed in a core's channel-end input buffer.
    TokenReceive {
        /// Node id of the receiving core.
        core: u16,
        /// Local channel-end index.
        chanend: u8,
        /// True for a control token.
        ctrl: bool,
    },
    /// A token started crossing a network link.
    LinkTransit {
        /// Link id within the fabric.
        link: u32,
        /// Transmitting node.
        from: u16,
        /// Receiving node.
        to: u16,
        /// True for a control token.
        ctrl: bool,
        /// Wire occupancy of the token (the link's token time).
        busy: TimeDelta,
    },
    /// A channel end was allocated (`getr`).
    ChannelOpen {
        /// Node id of the core.
        core: u16,
        /// Local channel-end index.
        chanend: u8,
    },
    /// A channel end was freed (`freer`).
    ChannelClose {
        /// Node id of the core.
        core: u16,
        /// Local channel-end index.
        chanend: u8,
    },
    /// A core's clock changed (per-core DFS/DVFS).
    DvfsChange {
        /// Node id of the core.
        core: u16,
        /// New clock in hertz.
        hz: u64,
    },
    /// The power monitor refreshed one supply-rail measurement.
    SupplySample {
        /// Slice index.
        slice: u16,
        /// Rail index within the slice (0–3 core rails, 4 = I/O).
        rail: u8,
        /// Measured rail load, rounded to microwatts.
        microwatts: u64,
    },
    /// A link changed availability: scheduled hot-unplug/re-plug, or a
    /// retry-streak escalation taking the link down.
    LinkFault {
        /// Raw link index.
        link: u32,
        /// True when the link came (back) up, false when it went down.
        up: bool,
    },
    /// A token launch was detected as corrupt and will be retried; the
    /// wire energy was spent anyway.
    LinkRetry {
        /// Raw link index.
        link: u32,
        /// Consecutive failed attempts on this link (escalates to a
        /// fault when it exceeds the retry bound).
        streak: u32,
    },
    /// A data token was lost on the wire inside a drop window.
    TokenDrop {
        /// Raw link index.
        link: u32,
    },
    /// A core-level fault applied: stall window, kill, or quarantine.
    CoreFault {
        /// Node id of the core.
        core: u16,
        /// What happened: "stall", "kill" or "quarantine".
        kind: &'static str,
    },
    /// A supply brownout started (cores derated through the DVFS model)
    /// or ended (nominal operating points restored).
    Brownout {
        /// True while the brownout holds.
        active: bool,
        /// Derated (or restored) core clock in hertz, core 0's value.
        hz: u64,
    },
    /// The routing tables were recomputed around dead links.
    RouteRecompute {
        /// Directed links excluded from the new tables.
        dead_links: u32,
    },
}

impl TraceEvent {
    /// A short, stable label for the event kind (used by exporters).
    pub const fn kind(self) -> &'static str {
        match self {
            TraceEvent::CoreWake { .. } => "core_wake",
            TraceEvent::CoreSleep { .. } => "core_sleep",
            TraceEvent::ThreadSchedule { .. } => "thread_schedule",
            TraceEvent::BlockRetire { .. } => "block_retire",
            TraceEvent::TokenSend { .. } => "token_send",
            TraceEvent::TokenReceive { .. } => "token_receive",
            TraceEvent::LinkTransit { .. } => "link_transit",
            TraceEvent::ChannelOpen { .. } => "channel_open",
            TraceEvent::ChannelClose { .. } => "channel_close",
            TraceEvent::DvfsChange { .. } => "dvfs_change",
            TraceEvent::SupplySample { .. } => "supply_sample",
            TraceEvent::LinkFault { .. } => "link_fault",
            TraceEvent::LinkRetry { .. } => "link_retry",
            TraceEvent::TokenDrop { .. } => "token_drop",
            TraceEvent::CoreFault { .. } => "core_fault",
            TraceEvent::Brownout { .. } => "brownout",
            TraceEvent::RouteRecompute { .. } => "route_recompute",
        }
    }
}

/// A timestamped [`TraceEvent`]. `Copy`, 32 bytes — ring rotation is a
/// plain overwrite, never a clone of heap data.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceRecord {
    /// Simulated time of the event (the emitting component's clock).
    pub at: Time,
    /// What happened.
    pub event: TraceEvent,
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {:?}", self.at, self.event.kind(), self.event)
    }
}

/// A bounded ring of recent trace records.
///
/// The backing storage is allocated once at construction
/// (`Vec::with_capacity`), so emitting — including eviction once the ring
/// is full — performs no heap allocation.
#[derive(Clone, Debug)]
pub struct TraceRing {
    records: Vec<TraceRecord>,
    capacity: usize,
    dropped: u64,
    head: usize,
}

impl Default for TraceRing {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRing {
    /// Creates a ring with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// Creates a ring keeping at most `capacity` recent records
    /// (minimum 1). All storage is allocated up front.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceRing {
            records: Vec::with_capacity(capacity),
            capacity,
            dropped: 0,
            head: 0,
        }
    }

    /// Appends a record, evicting the oldest when full.
    #[inline]
    pub fn push(&mut self, record: TraceRecord) {
        if self.records.len() < self.capacity {
            self.records.push(record);
        } else {
            self.records[self.head] = record;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Retained records in insertion order (chronological as long as the
    /// emitter's clock is monotone, which every component's is).
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        let (wrapped, recent) = self.records.split_at(self.head);
        recent.iter().chain(wrapped.iter())
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of records evicted to honour the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Empties the ring, keeping its storage and dropped count.
    pub fn clear(&mut self) {
        self.records.clear();
        self.head = 0;
    }
}

/// Trace destination selector owned by each traced component.
///
/// ```
/// use swallow_sim::{Time, TraceEvent, Tracer};
/// let mut tracer = Tracer::buffered();
/// tracer.emit(Time::ZERO, TraceEvent::CoreWake { core: 3 });
/// assert_eq!(tracer.ring().expect("ring").len(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub enum Tracer {
    /// Discard all trace events (the default; zero cost).
    #[default]
    Off,
    /// Retain recent events in a pre-allocated ring buffer.
    Ring(TraceRing),
}

impl Tracer {
    /// A tracer retaining recent events with the default capacity.
    pub fn buffered() -> Self {
        Tracer::Ring(TraceRing::new())
    }

    /// A tracer retaining at most `capacity` recent events.
    pub fn ring_with_capacity(capacity: usize) -> Self {
        Tracer::Ring(TraceRing::with_capacity(capacity))
    }

    /// Access to the underlying ring when enabled.
    pub fn ring(&self) -> Option<&TraceRing> {
        match self {
            Tracer::Off => None,
            Tracer::Ring(ring) => Some(ring),
        }
    }

    /// True when emitted events are retained.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        matches!(self, Tracer::Ring(_))
    }

    /// Records an event. Emitting never touches simulation state, and
    /// with [`Tracer::Off`] it is one branch — no allocation, no write
    /// (the zero-cost-when-off guarantee, pinned by the `trace_alloc`
    /// regression test).
    #[inline]
    pub fn emit(&mut self, at: Time, event: TraceEvent) {
        if let Tracer::Ring(ring) = self {
            ring.push(TraceRecord { at, event });
        }
    }
}

/// A whole run's merged trace: records from every component ring, merged
/// in a fixed component order and stable-sorted by time (so simultaneous
/// events keep the deterministic component order).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceLog {
    /// All records, ascending by [`TraceRecord::at`].
    pub records: Vec<TraceRecord>,
    /// Total records evicted from component rings before the merge.
    pub dropped: u64,
}

impl TraceLog {
    /// An empty log.
    pub fn new() -> Self {
        TraceLog::default()
    }

    /// Appends one component ring (call in a fixed component order).
    pub fn absorb(&mut self, ring: &TraceRing) {
        self.records.extend(ring.iter().copied());
        self.dropped += ring.dropped();
    }

    /// Stable-sorts the merged records by time. Call once after every
    /// component has been absorbed; stability keeps the fixed component
    /// order for simultaneous records, so the result is deterministic.
    pub fn finish(&mut self) {
        self.records.sort_by_key(|r| r.at);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records were captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(ps: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            at: Time::from_ps(ps),
            event,
        }
    }

    #[test]
    fn off_tracer_retains_nothing() {
        let mut tracer = Tracer::Off;
        tracer.emit(Time::ZERO, TraceEvent::CoreWake { core: 0 });
        assert!(!tracer.is_enabled());
        assert!(tracer.ring().is_none());
    }

    #[test]
    fn ring_keeps_insertion_order() {
        let mut tracer = Tracer::buffered();
        for i in 0..5u64 {
            tracer.emit(
                Time::from_ps(i),
                TraceEvent::ThreadSchedule {
                    core: 0,
                    thread: i as u8,
                    pc: 0,
                },
            );
        }
        let at: Vec<u64> = tracer
            .ring()
            .expect("ring")
            .iter()
            .map(|r| r.at.as_ps())
            .collect();
        assert_eq!(at, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut ring = TraceRing::with_capacity(3);
        for i in 0..5u64 {
            ring.push(record(i, TraceEvent::CoreWake { core: i as u16 }));
        }
        let at: Vec<u64> = ring.iter().map(|r| r.at.as_ps()).collect();
        assert_eq!(at, [2, 3, 4]);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.capacity(), 3);
    }

    #[test]
    fn ring_storage_is_preallocated() {
        let ring = TraceRing::with_capacity(100);
        assert!(ring.records.capacity() >= 100);
        assert!(ring.is_empty());
    }

    #[test]
    fn record_display_is_informative() {
        let record = TraceRecord {
            at: Time::from_ps(2_000),
            event: TraceEvent::TokenReceive {
                core: 4,
                chanend: 2,
                ctrl: false,
            },
        };
        let text = record.to_string();
        assert!(text.contains("2ns"), "{text}");
        assert!(text.contains("token_receive"), "{text}");
    }

    #[test]
    fn log_merges_stably_by_time() {
        let mut a = TraceRing::new();
        a.push(record(10, TraceEvent::CoreWake { core: 0 }));
        a.push(record(30, TraceEvent::CoreSleep { core: 0 }));
        let mut b = TraceRing::new();
        b.push(record(10, TraceEvent::CoreWake { core: 1 }));
        b.push(record(20, TraceEvent::CoreSleep { core: 1 }));
        let mut log = TraceLog::new();
        log.absorb(&a);
        log.absorb(&b);
        log.finish();
        let seq: Vec<(u64, &str)> = log
            .records
            .iter()
            .map(|r| (r.at.as_ps(), r.event.kind()))
            .collect();
        // Simultaneous records keep absorb order: core 0 before core 1.
        assert_eq!(
            seq,
            [
                (10, "core_wake"),
                (10, "core_wake"),
                (20, "core_sleep"),
                (30, "core_sleep"),
            ]
        );
        assert_eq!(log.records[0].event, TraceEvent::CoreWake { core: 0 });
        assert_eq!(log.len(), 4);
        assert_eq!(log.dropped, 0);
    }

    #[test]
    fn every_event_kind_has_a_label() {
        let events = [
            TraceEvent::CoreWake { core: 0 },
            TraceEvent::CoreSleep { core: 0 },
            TraceEvent::ThreadSchedule {
                core: 0,
                thread: 0,
                pc: 0,
            },
            TraceEvent::BlockRetire {
                core: 0,
                thread: 0,
                instret: 0,
                since: Time::ZERO,
                reason: "recv",
            },
            TraceEvent::TokenSend {
                core: 0,
                chanend: 0,
                dest_node: 1,
                dest_chanend: 0,
                tokens: 4,
                ctrl: false,
            },
            TraceEvent::TokenReceive {
                core: 0,
                chanend: 0,
                ctrl: false,
            },
            TraceEvent::LinkTransit {
                link: 0,
                from: 0,
                to: 1,
                ctrl: false,
                busy: TimeDelta::from_ns(32),
            },
            TraceEvent::ChannelOpen {
                core: 0,
                chanend: 0,
            },
            TraceEvent::ChannelClose {
                core: 0,
                chanend: 0,
            },
            TraceEvent::DvfsChange { core: 0, hz: 500 },
            TraceEvent::SupplySample {
                slice: 0,
                rail: 0,
                microwatts: 0,
            },
            TraceEvent::LinkFault { link: 0, up: false },
            TraceEvent::LinkRetry { link: 0, streak: 1 },
            TraceEvent::TokenDrop { link: 0 },
            TraceEvent::CoreFault {
                core: 0,
                kind: "stall",
            },
            TraceEvent::Brownout {
                active: true,
                hz: 250_000_000,
            },
            TraceEvent::RouteRecompute { dead_links: 1 },
        ];
        let mut labels: Vec<&str> = events.iter().map(|e| e.kind()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), events.len(), "kind labels must be distinct");
    }
}
