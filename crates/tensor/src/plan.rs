//! The planning layer: expression DAGs → fused, staged, tileable
//! compiled programs.
//!
//! Lowering walks the `Arc`-shared DAG once, deduplicating nodes by
//! pointer identity: a tensor used twice lowers to one graph node, and a
//! source to one graph input. Each source hands over its bit-sliced
//! lanes, slicing them on its first evaluation. The whole multi-root
//! fusion then compiles through [`pim_simd::compile_staged`], which
//! splits on `ScratchExhausted` into a pipeline of independently
//! schedulable programs — once per distinct `(graph, budget)` in a
//! [`PlanCache`], since compilation depends on nothing else. Tiling —
//! cutting the lane axis into bank-parallel slices — is the session's
//! job; the plan only fixes the per-tile program shapes.

use crate::error::Result;
use crate::expr::{BinOp, Expr, ExprRef, UnOp};
use pim_simd::{compile_staged, CompiledProgram, NodeId, OpGraph, OpGraphBuilder, StageBinding};
use pim_workloads::BitSlicedIntVec;
use std::collections::HashMap;
use std::sync::Arc;

/// One stage of a fused plan: a compiled program (shared across tiles)
/// plus where each of its inputs comes from.
#[derive(Debug, Clone)]
pub(crate) struct PlanStage {
    pub program: Arc<CompiledProgram>,
    pub bindings: Vec<StageBinding>,
}

/// What compiling a fused graph yields, shared by every plan of the
/// same graph and budget.
#[derive(Debug)]
pub(crate) struct Compiled {
    /// Compiled stages in execution order.
    pub stages: Vec<PlanStage>,
    /// For each root: which `(stage, output)` materializes it.
    pub outputs: Vec<(usize, usize)>,
}

/// A compiled multi-root tensor computation, ready to run tile by tile.
#[derive(Debug)]
pub(crate) struct Plan {
    /// Node count of the fused graph (telemetry).
    pub nodes: usize,
    /// Bit-sliced lanes per graph input, in input order.
    pub sources: Vec<Arc<BitSlicedIntVec>>,
    /// The fused graph's stages, from the session's cache.
    pub compiled: Arc<Compiled>,
}

/// Most distinct compilations a [`PlanCache`] holds. Full, it starts
/// over, so a caller sweeping splat constants (each a new graph) cannot
/// grow it without bound.
pub(crate) const PLAN_CACHE_CAP: usize = 64;

/// Compiled stages per distinct `(fused graph, scratch budget)`: the
/// whole input of [`compile_staged`], so a hit is the program a fresh
/// compile would build.
#[derive(Debug, Default)]
pub(crate) struct PlanCache {
    map: HashMap<(OpGraph, u32), Arc<Compiled>>,
}

impl PlanCache {
    fn get_or_compile(&mut self, graph: OpGraph, budget: u32) -> Result<Arc<Compiled>> {
        let key = (graph, budget);
        if let Some(hit) = self.map.get(&key) {
            return Ok(hit.clone());
        }
        let staged = compile_staged(&key.0, budget)?;
        let compiled = Arc::new(Compiled {
            stages: staged
                .stages
                .into_iter()
                .map(|s| PlanStage {
                    program: Arc::new(s.program),
                    bindings: s.bindings,
                })
                .collect(),
            outputs: staged.outputs,
        });
        if self.map.len() >= PLAN_CACHE_CAP {
            self.map.clear();
        }
        self.map.insert(key, compiled.clone());
        Ok(compiled)
    }

    /// Every cached compilation, in no particular order.
    #[cfg(test)]
    pub fn entries(&self) -> Vec<Arc<Compiled>> {
        self.map.values().cloned().collect()
    }
}

#[derive(Default)]
struct Lowering {
    builder: OpGraphBuilder,
    /// Expression node (by pointer) → graph node.
    memo: HashMap<usize, NodeId>,
    sources: Vec<Arc<BitSlicedIntVec>>,
}

impl Lowering {
    fn lower(&mut self, e: &ExprRef) -> NodeId {
        let key = Arc::as_ptr(e) as usize;
        if let Some(&n) = self.memo.get(&key) {
            return n;
        }
        let n = match &**e {
            Expr::Source { lanes, width } => {
                self.sources.push(lanes.sliced(*width));
                self.builder.input(*width)
            }
            Expr::Splat { value, width } => self.builder.constant(*value, *width),
            Expr::Binary { op, a, b, .. } => {
                let (x, y) = (self.lower(a), self.lower(b));
                match op {
                    BinOp::Add => self.builder.add(x, y),
                    BinOp::Sub => self.builder.sub(x, y),
                    BinOp::Mul => self.builder.mul(x, y),
                    BinOp::And => self.builder.and(x, y),
                    BinOp::Or => self.builder.or(x, y),
                    BinOp::Xor => self.builder.xor(x, y),
                    BinOp::Lt => self.builder.lt(x, y),
                    BinOp::Eq => self.builder.eq(x, y),
                }
            }
            Expr::Unary { op, a, width } => {
                let x = self.lower(a);
                match op {
                    UnOp::Not => self.builder.not(x),
                    UnOp::Shl(k) => self.builder.shl(x, *k),
                    UnOp::Shr(k) => self.builder.shr(x, *k),
                    UnOp::Extend => self.builder.extend(x, *width),
                }
            }
        };
        self.memo.insert(key, n);
        n
    }
}

impl Plan {
    /// Fuses `roots` into one graph and compiles it under `budget`
    /// scratch rows, splitting into stages where the budget demands.
    /// Lowering runs every call; compilation only on a `cache` miss.
    pub fn build(roots: &[ExprRef], budget: u32, cache: &mut PlanCache) -> Result<Plan> {
        let mut lw = Lowering::default();
        let ids: Vec<NodeId> = roots.iter().map(|r| lw.lower(r)).collect();
        let mut builder = lw.builder;
        for id in ids {
            builder.output(id);
        }
        let graph = builder.finish();
        Ok(Plan {
            nodes: graph.len(),
            sources: lw.sources,
            compiled: cache.get_or_compile(graph, budget)?,
        })
    }

    /// Stage-split events (stages beyond the first).
    pub fn splits(&self) -> usize {
        self.compiled.stages.len().saturating_sub(1)
    }
}
