//! # pim-simd — SIMDRAM-style bit-serial compute compiler
//!
//! The paper's argument is that PIM becomes practical only when
//! *arbitrary* computation — not a fixed menu of bitwise ops — runs in
//! DRAM. SIMDRAM (arXiv:2012.11890) showed how: express an operation
//! over vertically-layouted (bit-sliced) lanes as a graph, lower it to
//! the MAJ/NOT gate set that triple-row activation and dual-contact
//! rows natively provide, and emit the AAP/TRA command sequence a
//! Ambit-style controller replays row by row. This crate is that
//! pipeline over the `pim-ambit` engine:
//!
//! ```text
//! OpGraph  ──lower──▶  MAJ/NOT plane SSA  ──emit──▶  RowInst sequence
//! (add/sub/mul/        (folding + value          (AAP/TRA over a plane
//!  cmp/logic/           numbering, DCE)            table with scratch-row
//!  shifts/reduce)                                  allocation + lifetime
//!                                                  reuse)
//! ```
//!
//! Compiled programs execute *unchanged* on [`pim_ambit::AmbitSystem`]
//! via its row-program entry point, riding the batched command-issue
//! fast path, with traces and telemetry captured like any built-in
//! operation.
//!
//! Correctness is differential: [`OpGraph::eval_reference`] is an
//! independent host scalar interpreter, and the conformance suite
//! (exhaustive at small widths, property-based above) checks every
//! compiled program bit-exactly against it — see `tests/`.
//!
//! ```
//! use pim_ambit::{AmbitConfig, AmbitSystem};
//! use pim_simd::{Compiler, OpGraph};
//! use pim_workloads::BitSlicedIntVec;
//!
//! let mut g = OpGraph::builder();
//! let a = g.input(8);
//! let b = g.input(8);
//! let s = g.add(a, b);
//! g.output(s);
//! let graph = g.finish();
//!
//! let program = Compiler::new().compile(&graph).unwrap();
//! let mut sys = AmbitSystem::new(AmbitConfig::ddr3());
//! let av = BitSlicedIntVec::from_values(&[200, 13], 8);
//! let bv = BitSlicedIntVec::from_values(&[100, 29], 8);
//! let (outs, _report) = program.execute(&mut sys, &[&av, &bv]).unwrap();
//! assert_eq!(outs[0].to_values(), vec![(200 + 100) & 0xff, 42]);
//! ```

#![warn(missing_docs)]

mod cost;
mod emit;
mod error;
mod exec;
mod graph;
mod lower;
mod stage;

pub use cost::CostModel;
pub use emit::{CompiledProgram, Compiler, ProgramStats, DEFAULT_SCRATCH_BUDGET};
pub use error::{Result, SimdError};
pub use graph::{GraphOp, NodeId, OpGraph, OpGraphBuilder, MAX_INPUT_WIDTH, MAX_WIDTH};
pub use stage::{compile_staged, Stage, StageBinding, StagedProgram};
