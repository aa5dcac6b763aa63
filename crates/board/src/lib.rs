//! Physical assembly of the Swallow platform.
//!
//! This crate turns the component models — [`swallow_xcore`] cores,
//! [`swallow_noc`] switches/links and the [`swallow_energy`] power tree —
//! into the machine the paper describes:
//!
//! * [`topology`] — XS1-L2A dual-core packages, 16-core slices with the
//!   unwoven-lattice wiring (Fig. 7), grids of slices joined by FFC
//!   cables, optional connector-yield fault injection (§IV.B),
//! * [`ethernet`] — the 80 Mbit/s Ethernet bridge node (§V.E),
//! * [`power`] — the five-SMPS power tree with shunt measurement points,
//!   ADC daughter-boards and the probe feedback loop (§II),
//! * [`machine`] — [`Machine`]: everything assembled and clocked, under
//!   the lock-step reference engine or the windowed engine,
//! * `shard` — the chip-granular shard plan, host thread pool and
//!   watermark negotiation behind the windowed engine (DESIGN.md §3.12),
//! * [`metrics`] — [`MetricsHub`]: per-supply energy time series sampled
//!   on the power-monitor cadence (the observability layer's numbers),
//! * `resilience` — the scheduled-fault cursor and recovery bookkeeping
//!   behind [`MachineConfig`]'s `faults` plan (DESIGN.md §3.10).
//!
//! ```
//! use swallow_board::{Machine, MachineConfig};
//! use swallow_sim::TimeDelta;
//!
//! let mut machine = Machine::new(MachineConfig::one_slice());
//! machine.run_for(TimeDelta::from_us(2));
//! // Sixteen idle cores still burn static + clock power.
//! assert!(machine.machine_ledger().total().as_joules() > 0.0);
//! ```

pub mod ethernet;
pub mod machine;
pub mod metrics;
pub mod power;
mod resilience;
mod shard;
mod snapshot;
pub mod topology;

pub use ethernet::{BridgeFrame, BridgeStats, EthernetBridge};
pub use machine::{EngineMode, Machine, MachineConfig, RouterKind};
pub use metrics::{conservation_rel, MetricsHub, SupplyRow};
pub use power::PowerMonitor;
pub use topology::{GridSpec, TopologyOptions, CORES_PER_SLICE, MAX_SLICES};
