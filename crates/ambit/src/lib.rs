//! # pim-ambit — in-DRAM bulk bitwise computation (Ambit + RowClone)
//!
//! This crate implements the paper's §2 ("minimally changing memory
//! chips"): RowClone bulk copy/initialization and the Ambit in-DRAM
//! bitwise engine, on top of the `pim-dram` device model.
//!
//! * [`rows`] — the B/C/D row-group organization of each subarray
//!   (designated rows `T0..T3`, dual-contact rows, control rows);
//! * [`program`] — row programs: each of the seven bulk operations as a
//!   [`RowInst`] sequence of AAP/TRA row commands over a plane table,
//!   functionally verified for all inputs — the one instruction form the
//!   engine replays, for compiled programs too;
//! * [`engine`] — [`AmbitSystem`]: allocation of DRAM-resident bulk bit
//!   vectors, execution with full command timing and bank-level
//!   parallelism, RowClone FPM/PSM copies, bulk init, and whole
//!   [`BitwisePlan`](pim_workloads::BitwisePlan) queries;
//! * [`analog`] — the TRA charge-sharing model and the Monte-Carlo
//!   process-variation study backing the paper's reliability claim.
//!
//! ## Example
//!
//! ```
//! use pim_ambit::{AmbitConfig, AmbitSystem};
//! use pim_workloads::{BitVec, BulkOp};
//! # fn main() -> Result<(), pim_ambit::AmbitError> {
//! let mut sys = AmbitSystem::new(AmbitConfig::ddr3());
//! let n = sys.row_bits();
//! let (a, b, out) = (sys.alloc(n)?, sys.alloc(n)?, sys.alloc(n)?);
//! let av = BitVec::from_fn(n, |i| i % 2 == 0);
//! let bv = BitVec::from_fn(n, |i| i % 3 == 0);
//! sys.write(&a, &av)?;
//! sys.write(&b, &bv)?;
//! let report = sys.execute(BulkOp::Xor, &a, Some(&b), &out)?;
//! assert_eq!(sys.read(&out), av.binary(BulkOp::Xor, &bv));
//! println!("in-DRAM xor: {report}");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analog;
pub mod engine;
pub mod error;
pub mod gather;
pub mod program;
pub mod rows;

pub use analog::{monte_carlo_failure_rate, tra_trial, AnalogConfig};
pub use engine::{AmbitConfig, AmbitSystem, BulkVec, ExecReport};
pub use error::{AmbitError, Result};
pub use gather::{strided_read, GatherConfig, StridedReport};
pub use program::{program_for, RowInst, RowSlot};
pub use rows::{SpecialRow, SubarrayLayout};
