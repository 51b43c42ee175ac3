//! # pim-runtime — the batching job runtime
//!
//! Every execution engine in the workspace sits behind one [`Backend`]
//! trait here, in three implementations: the Ambit in-DRAM bitwise
//! engine ([`AmbitBackend`]), the Tesseract graph stack
//! ([`TesseractBackend`]), and one [`RooflineBackend`] for every site
//! with no simulated device — the host CPU, the GPU, the HMC logic layer
//! and the consumer-SoC streaming sites, each a [`Pricing`] model over
//! the same functional evaluation. Work is expressed as [`Job`]s
//! (bulk-bitwise programs, row copies/initializations, graph superstep
//! batches, streaming kernels), submitted to a [`Runtime`] that owns bounded
//! per-backend queues with backpressure, and placed either by the
//! pim-core offload advisor ([`Placement::Advised`]) or by explicit
//! override ([`Placement::Forced`]) for A/B studies.
//!
//! Draining a backend lets it batch: the Ambit backend coalesces
//! compatible single-op bitwise jobs into one wider bank-parallel
//! program before dispatch, while still reporting each job's cost as if
//! it had run alone — batched and sequential dispatch are
//! byte-identical in outputs and reports (see `tests/determinism.rs`).
//!
//! ```
//! use pim_runtime::{CpuBackend, Job, Placement, Runtime};
//! use pim_core::Objective;
//! use pim_host::{CpuConfig, CpuModel};
//! use pim_workloads::{BitVec, BulkOp};
//! use std::sync::Arc;
//!
//! let mut rt = Runtime::new().with(Box::new(CpuBackend::new(
//!     "cpu",
//!     CpuModel::new(CpuConfig::skylake_ddr3()),
//! )));
//! let a = Arc::new(BitVec::from_fn(1 << 10, |i| i % 3 == 0));
//! let b = Arc::new(BitVec::from_fn(1 << 10, |i| i % 5 == 0));
//! let id = rt
//!     .submit(
//!         Job::bulk(BulkOp::And, a.clone(), Some(b.clone())),
//!         Placement::Advised(Objective::Time),
//!     )
//!     .unwrap();
//! let done = rt.drain().unwrap();
//! assert_eq!(done[0].id, id);
//! assert_eq!(done[0].output.bits().unwrap(), &a.binary(BulkOp::And, &b));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod backends;
pub mod error;
pub mod job;
mod runtime;

pub use backend::{Backend, CostEstimate, JobQueue, DEFAULT_CAPACITY};
pub use backends::{
    AmbitBackend, CpuBackend, GpuBackend, HmcLogicBackend, Pricing, RooflineBackend,
    StreamSiteBackend, StreamSiteConfig, TesseractBackend,
};
pub use error::RuntimeError;
pub use job::{Completion, GraphRun, Job, JobId, JobOutput, JobReport};
pub use runtime::{BackendStats, Placement, PlacementDecision, Runtime};
