//! # pim-dram — cycle-level DRAM device and controller simulator
//!
//! This crate is the substrate for the whole `pim` workspace: a
//! Ramulator-style DRAM model with
//!
//! * JEDEC-style command timing (tRCD/tRAS/tRP/tCCD/tRRD/tFAW/tRFC/...),
//! * a per-bank state machine and rank/channel constraints,
//! * an FR-FCFS [`Controller`] with open/closed row policies and refresh,
//! * functional row contents (so in-DRAM operations compute real results),
//! * the RowClone/Ambit command extensions ([`Command::Aap`],
//!   [`Command::Ap`], [`Command::Tra`]) used by the `pim-ambit` crate.
//!
//! ## Quick start
//!
//! ```
//! use pim_dram::{Controller, DramSpec, Request, PhysAddr};
//! # fn main() -> Result<(), pim_dram::DramError> {
//! let mut mc = Controller::new(DramSpec::ddr3_1600());
//! for i in 0..64 {
//!     mc.enqueue(Request::read(PhysAddr::new(i * 64)))?;
//! }
//! mc.run_until_idle();
//! println!("{}", mc.stats()); // row hits, latency, bandwidth...
//! assert!(mc.stats().row_hit_rate() > 0.9);
//! # Ok(())
//! # }
//! ```
//!
//! ## Design
//!
//! The [`Device`] is passive and exact: callers ask for the
//! [`earliest`](Device::earliest) legal issue cycle of a command and then
//! [`issue`](Device::issue) it; illegal sequences return [`DramError`]
//! rather than silently mis-simulating. The [`Controller`] builds FR-FCFS
//! scheduling, row policies, and refresh on top. The `pim-ambit` crate
//! bypasses the controller and drives the device's PIM commands directly,
//! exactly like Ambit's modified memory controller would.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bank;
pub mod command;
pub mod controller;
pub mod data;
pub mod device;
pub mod error;
pub mod hammer;
pub mod mapping;
pub mod refresh;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod types;

pub use bank::BankState;
pub use command::{Command, CommandCounts, CommandKind};
pub use controller::{Completion, Controller, ReqId, Request, RowPolicy};
pub use data::DataStore;
pub use device::{Device, IssueOutcome};
pub use error::{DramError, Result};
pub use hammer::HammerMonitor;
pub use mapping::AddressMapping;
pub use refresh::{reduction_vs_baseline, rows_per_ref, RefreshPolicy, RetentionBin};
pub use spec::{DramSpec, Organization, PimTiming, SpecError, Timing};
pub use stats::ControllerStats;
pub use trace::{Observer, Projection, TraceRecord};
pub use types::{Access, BankId, Cycle, DramAddr, PhysAddr, RowId};
