//! # Swallow — an energy-transparent many-core embedded real-time system
//!
//! This crate is the public face of a full-system reproduction of
//! *"Swallow: Building an Energy-Transparent Many-Core Embedded Real-Time
//! System"* (Hollis & Kerrison, DATE 2016): a token-level simulator of a
//! machine built from XS1-L-style dual-core packages — 16 cores per
//! slice, up to hundreds of cores per machine — with per-instruction
//! energy accounting, the unwoven-lattice network and the five-supply
//! measurement subsystem.
//!
//! ## Quick start
//!
//! ```
//! use swallow::{Assembler, NodeId, SystemBuilder, TimeDelta};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut system = SystemBuilder::new().slices(1, 1).build()?;
//!
//! // Every Swallow program is ordinary XS1-style assembly.
//! let program = Assembler::new().assemble(
//!     "ldc r0, 20\n ldc r1, 22\n add r2, r0, r1\n print r2\n freet",
//! )?;
//! system.load_program(NodeId(0), &program)?;
//! system.run_until_quiescent(TimeDelta::from_us(10));
//!
//! assert_eq!(system.output(NodeId(0)), "42\n");
//! // Energy transparency: the run's energy is fully attributed.
//! assert!(system.power_report().mean_power.as_watts() > 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! ## Crate map
//!
//! The heavy lifting lives in the substrate crates, re-exported here:
//!
//! | layer | crate | contents |
//! |---|---|---|
//! | ISA | [`isa`] | instructions, assembler, encodings, timing |
//! | core | [`xcore`] | pipeline/threads/SRAM/resources interpreter |
//! | network | [`noc`] | links, switches, wormhole + credit fabric |
//! | energy | [`energy`] | power models, DVFS, link energy, supplies |
//! | board | [`board`] | packages, slices, grids, bridge, power tree |
//! | faults | [`faults`] | deterministic fault plans and resilience |

pub mod export;
pub mod report;
pub mod system;

pub use export::{chrome_trace_json, supply_csv, write_chrome_trace, write_supply_csv};
pub use report::{CoreMetrics, MetricsReport, PerfReport, PowerReport};
pub use system::{BuildError, SwallowSystem, SystemBuilder};

// Substrate re-exports, for users who need the full depth.
pub use swallow_board as board;
pub use swallow_energy as energy;
pub use swallow_faults as faults;
pub use swallow_isa as isa;
pub use swallow_noc as noc;
pub use swallow_sim as sim;
pub use swallow_xcore as xcore;

// The handful of names almost every user touches.
pub use swallow_board::{
    BridgeFrame, BridgeStats, EngineMode, GridSpec, Machine, MachineConfig, RouterKind, SupplyRow,
};
pub use swallow_energy::{Energy, Power};
pub use swallow_faults::{FaultCounters, FaultEvent, FaultKind, FaultPlan, RandomFaults};
pub use swallow_isa::{AsmError, Assembler, NodeId, Program, ResType, ResourceId};
pub use swallow_sim::{CodecError, Frequency, Time, TimeDelta, TraceEvent, TraceLog, TraceRecord};
