//! Deterministic discrete-event simulation kernel for the Swallow platform model.
//!
//! This crate is the lowest substrate of the Swallow reproduction. It knows
//! nothing about processors or networks; it provides the vocabulary every
//! other crate speaks:
//!
//! * [`Time`], [`TimeDelta`] — picosecond-resolution simulated time,
//! * [`Frequency`] — clock rates and cycle/time conversion,
//! * [`EventQueue`] — a deterministic time-ordered event queue,
//! * [`IndexSet`] — the bitset worklist that keeps per-step costs
//!   proportional to activity (fabric links, awake cores),
//! * [`DetRng`] — a seedable, reproducible random number generator,
//! * [`codec`] — bounds-checked binary readers/writers ([`ByteWriter`],
//!   [`ByteReader`], [`CodecError`]) underpinning machine snapshots,
//! * [`stats`] — the latency quantile sketch and least-squares fits used by
//!   the experiment harnesses,
//! * [`trace`] — typed, zero-cost-when-off trace events ([`TraceEvent`],
//!   [`Tracer`], [`TraceRing`]) feeding the observability exporters.
//!
//! Determinism is a design requirement, not an accident: the platform being
//! modelled (Swallow, DATE 2016) is a *time-deterministic* real-time system,
//! and the reproduction must be able to assert exact cycle counts in tests.
//! Events scheduled for the same instant are delivered in insertion order.
//!
//! ```
//! use swallow_sim::{EventQueue, Time, TimeDelta};
//!
//! let mut queue = EventQueue::new();
//! queue.push_at(Time::ZERO + TimeDelta::from_ns(5), "later");
//! queue.push_at(Time::ZERO, "now");
//! assert_eq!(queue.pop(), Some((Time::ZERO, "now")));
//! ```

pub mod codec;
pub mod index_set;
pub mod merge;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use codec::{ByteReader, ByteWriter, CodecError};
pub use index_set::IndexSet;
pub use merge::kway_merge_by;
pub use queue::EventQueue;
pub use rng::DetRng;
pub use stats::LatencySketch;
pub use time::{Frequency, Time, TimeDelta};
pub use trace::{TraceEvent, TraceLog, TraceRecord, TraceRing, Tracer, DEFAULT_TRACE_CAPACITY};
