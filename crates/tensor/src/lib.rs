//! # pim-tensor — typed lazy arrays over bit-serial DRAM compute
//!
//! SimplePIM's argument (arXiv:2310.01893) is that PIM stays impractical
//! until programmers stop writing row commands: a handful of typed
//! array/iterator primitives — `map`, `zip`, `reduce` — should compile
//! down to whatever the in-memory hardware executes. This crate is that
//! frontend for the SIMDRAM pipeline underneath:
//!
//! ```text
//! PimTensor<T> ops ──record──▶ expression DAG ──fuse/stage/tile──▶
//!     Job::SimdProgram per (tile, stage) ──advise──▶ DRAM or host
//! ```
//!
//! Everything is lazy: `(&a + &b) ^ &c` records three nodes and computes
//! nothing. Evaluation fuses the DAG into one multi-output
//! [`pim_simd::OpGraph`], compiles it (splitting into stages when peak
//! scratch liveness exceeds the subarray budget), tiles the lane axis
//! into bank-parallel slices, and submits each piece through
//! [`pim_runtime::Runtime`] — where advised placement compares the
//! compiled AAP/TRA sequence against the host's vectorized loop and
//! routes each program to whichever site wins (wide multiplies fall back
//! to the host; see EXPERIMENTS.md E11/E12).
//!
//! Results are bit-exact by construction at any tile size or thread
//! count: both execution sites implement the same
//! [`pim_simd::OpGraph::eval_reference`] semantics, and the conformance
//! suite checks tiled gathers against untiled runs and the host oracle.
//!
//! ```
//! use pim_tensor::{PimTensor, TensorSession};
//!
//! let mut sess = TensorSession::ddr3();
//! let a = PimTensor::<u32>::from_slice(&[1, 2, 3, 4]);
//! let b = PimTensor::<u32>::from_slice(&[10, 20, 30, 40]);
//! let c = &(&a + &b) ^ &a;                       // recorded, not computed
//! assert_eq!(sess.eval(&c).unwrap(), vec![11 ^ 1, 22 ^ 2, 33 ^ 3, 44 ^ 4]);
//! assert_eq!(sess.sum(&a).unwrap(), 10);
//! ```

#![warn(missing_docs)]

mod elem;
mod error;
mod expr;
mod plan;
mod session;

pub use elem::{PimElem, WidenMul};
pub use error::{Result, TensorError};
pub use expr::{PimMask, PimTensor};
pub use session::{TensorConfig, TensorSession};
