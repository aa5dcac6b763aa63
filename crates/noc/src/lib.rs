//! The Swallow interconnect model.
//!
//! Swallow exploits the XS1 network architecture (§IV.D, §V of the paper):
//! one switch per core, five-wire links carrying eight-bit tokens,
//! wormhole routing with credit-based flow control, routes opened by a
//! three-byte header and held until an END or PAUSE control token.
//!
//! This crate models that fabric *token by token*:
//!
//! * [`link`] — directed links with a wire class (on-chip / on-board /
//!   off-board FFC), a token rate derived from the five-wire protocol's
//!   symbol timing, per-token energy, wormhole ownership and credit
//!   accounting,
//! * [`fabric`] — the network: switches, links, in-flight tokens and the
//!   per-step forwarding algorithm (header injection, HoL blocking,
//!   link aggregation, route release),
//! * [`routing`] — the programmable [`routing::TableRouter`] ("new
//!   routing algorithms can simply be programmed in software", §V.A),
//!   with a shortest-path table builder and the vertical-first
//!   dimension-order table for the unwoven lattice,
//! * [`endpoints`] — the trait by which the fabric exchanges tokens with
//!   processor cores (implemented by `swallow-board` for real cores and
//!   by in-crate test doubles here).
//!
//! Worklists (`swallow_sim::IndexSet`), an arrival calendar and
//! time-parked heads keep the per-step cost proportional to the work due
//! now: the fabric visits only the links, loopback queues and nodes that
//! have something to do at this instant.

pub mod endpoints;
pub mod fabric;
pub mod link;
pub mod routing;

pub use endpoints::CoreEndpoints;
pub use fabric::{Fabric, FabricBuilder, LinkStats, MAX_LINK_RETRIES};
pub use link::{Direction, LinkId, LinkParams, HEADER_TOKENS};
pub use routing::{Candidates, Coord, Layer, LinkDesc, TableRouter};
