//! XS1-L-style core microarchitecture simulator.
//!
//! This crate models one Swallow processor core: the four-stage pipeline
//! with up to eight zero-overhead hardware threads (Eq. 2 of the paper),
//! the 64 KiB single-cycle SRAM, the ISA-level resources (channel ends,
//! timers, synchronisers, locks and — Swallow-specific — power probes),
//! and cycle-by-cycle energy accounting against the models in
//! `swallow-energy`.
//!
//! A [`Core`] is driven by calling [`Core::tick`] once per clock period
//! and exchanging tokens through its channel ends; it has no knowledge of
//! the network fabric (`swallow-noc`) or the physical board
//! (`swallow-board`) above it.
//!
//! ```
//! use swallow_isa::{Assembler, NodeId};
//! use swallow_xcore::{Core, CoreConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut core = Core::new(CoreConfig::swallow(NodeId(0)));
//! core.load_program(&Assembler::new().assemble(
//!     "ldc r0, 6\n ldc r1, 7\n mul r2, r0, r1\n print r2\n freet",
//! )?)?;
//! while !core.is_quiescent() {
//!     core.tick(core.next_tick_at());
//! }
//! assert_eq!(core.output(), "42\n");
//! # Ok(())
//! # }
//! ```

pub mod core;
pub mod decode_cache;
pub mod resource;
mod snapshot;
pub mod sram;
pub mod thread;

pub use crate::core::{ClassCounts, Core, CoreConfig, DeliverError, LoadError, Trap, TrapCause};
pub use decode_cache::DecodeCache;
pub use resource::{Chanend, ResourceTable, CHANEND_BUF_TOKENS};
pub use sram::{FetchError, MemError, Sram, DEFAULT_SRAM_BYTES};
pub use thread::{Block, Thread, ThreadState, MAX_THREADS, TERMINATOR_PC};
