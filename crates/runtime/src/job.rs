//! The unit of work the runtime schedules: [`Job`], its result
//! ([`JobOutput`] + [`JobReport`] in a [`Completion`]), and the
//! [`KernelProfile`] projection the offload advisor places jobs with.

use pim_core::KernelProfile;
use pim_dram::CommandCounts;
use pim_energy::{Component, EnergyBreakdown};
use pim_simd::CompiledProgram;
use pim_tesseract::{ExecutionTrace, KernelOutput};
use pim_workloads::{
    BitSlicedIntVec, BitVec, BitwisePlan, BulkOp, Graph, KernelKind, PlanBuilder, PlanStep,
};
use std::sync::Arc;

/// Runtime-assigned job identifier, monotonically increasing per runtime.
pub type JobId = u64;

/// One schedulable unit of work. Payloads are `Arc`-shared so a job can be
/// cloned (for A/B forced-placement runs) without copying megabytes.
#[derive(Debug, Clone)]
pub enum Job {
    /// A bulk bitwise program over DRAM-resident bit vectors — a single
    /// operation or a whole compiled query plan.
    Bitwise {
        /// The program (validated at submission via [`BitwisePlan::validate`]).
        plan: BitwisePlan,
        /// One input vector per plan input, all the same length.
        inputs: Vec<Arc<BitVec>>,
    },
    /// A bulk row copy (RowClone): FPM when `psm` is false, PSM otherwise.
    /// Host backends execute it as `memcpy`.
    RowCopy {
        /// Source payload.
        data: Arc<BitVec>,
        /// Use the inter-bank pipelined-serial mode instead of
        /// intra-subarray FPM.
        psm: bool,
    },
    /// A bulk row initialization (RowClone zero/one fill; host `memset`).
    RowInit {
        /// Length in bits.
        bits: usize,
        /// Fill with ones instead of zeros.
        ones: bool,
    },
    /// One graph kernel run to convergence (a batch of vault-partitioned
    /// supersteps on Tesseract; the cache-hierarchy baseline on a host).
    GraphBatch {
        /// The kernel.
        kernel: KernelKind,
        /// The graph.
        graph: Arc<Graph>,
    },
    /// An abstract streaming kernel characterized by its traffic and
    /// instruction counts — the consumer-workload (E6) job shape.
    Stream {
        /// Bytes moved through memory.
        bytes: f64,
        /// Operations executed.
        ops: f64,
    },
    /// A compiled SIMDRAM-style bit-serial program (`pim-simd`) over
    /// bit-sliced operands — arbitrary arithmetic lowered to MAJ/NOT row
    /// sequences, executed in DRAM by command-replayed backends.
    SimdProgram {
        /// The compiled MAJ/NOT row program.
        program: Arc<CompiledProgram>,
        /// One bit-sliced vector per graph input, equal lane counts.
        inputs: Vec<Arc<BitSlicedIntVec>>,
    },
}

impl Job {
    /// Builds a single-operation bulk bitwise job.
    ///
    /// # Panics
    ///
    /// Panics if a binary `op` is given no second operand (or a unary one
    /// is given two) — operand arity is a programming error, not data.
    pub fn bulk(op: BulkOp, a: Arc<BitVec>, b: Option<Arc<BitVec>>) -> Job {
        assert_eq!(
            op.is_unary(),
            b.is_none(),
            "operand count must match {op}'s arity"
        );
        let mut pb = PlanBuilder::new(if op.is_unary() { 1 } else { 2 });
        let dst = if op.is_unary() {
            pb.not(pb.input(0))
        } else {
            pb.binary(op, pb.input(0), pb.input(1))
        };
        let plan = pb.finish(dst);
        let inputs = match b {
            Some(b) => vec![a, b],
            None => vec![a],
        };
        Job::Bitwise { plan, inputs }
    }

    /// Checks that a bitwise job's plan validates and that it carries one
    /// input vector per plan input, all the same length. Other job kinds
    /// are well-formed by construction.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let Job::Bitwise { plan, inputs } = self else {
            return Ok(());
        };
        plan.validate()?;
        if inputs.len() != plan.inputs() {
            return Err(format!(
                "plan takes {} inputs, job carries {}",
                plan.inputs(),
                inputs.len()
            ));
        }
        if let Some(v) = inputs.iter().find(|v| v.len() != inputs[0].len()) {
            return Err(format!(
                "input lengths differ: {} vs {} bits",
                inputs[0].len(),
                v.len()
            ));
        }
        Ok(())
    }

    /// Short kind tag used in error messages and stats.
    pub fn kind(&self) -> &'static str {
        match self {
            Job::Bitwise { .. } => "bitwise",
            Job::RowCopy { .. } => "row-copy",
            Job::RowInit { .. } => "row-init",
            Job::GraphBatch { .. } => "graph-batch",
            Job::Stream { .. } => "stream",
            Job::SimdProgram { .. } => "simd-program",
        }
    }

    /// Input length in bits for vector jobs (0 for graph/stream jobs).
    pub fn len_bits(&self) -> usize {
        match self {
            Job::Bitwise { inputs, .. } => inputs.first().map_or(0, |v| v.len()),
            Job::RowCopy { data, .. } => data.len(),
            Job::RowInit { bits, .. } => *bits,
            Job::GraphBatch { .. } | Job::Stream { .. } => 0,
            Job::SimdProgram { program, inputs } => {
                let lanes = inputs.first().map_or(0, |v| v.len());
                lanes * program.total_planes() as usize
            }
        }
    }

    /// If this is a one-step bitwise job, the operation — the shape the
    /// Ambit backend can coalesce with its neighbors.
    pub fn single_op(&self) -> Option<BulkOp> {
        match self {
            Job::Bitwise { plan, .. } if plan.outputs().len() == 1 => match *plan.steps() {
                [PlanStep::Unary { op, .. }] | [PlanStep::Binary { op, .. }] => Some(op),
                _ => None,
            },
            _ => None,
        }
    }

    /// Projects the job onto the offload advisor's roofline coordinates
    /// (bytes moved, operations executed) — backend-independent, so the
    /// same profile prices every placement candidate.
    pub fn profile(&self) -> KernelProfile {
        let (bytes, ops) = match self {
            Job::Bitwise { plan, inputs } => {
                let len = inputs.first().map_or(0, |v| v.len());
                let word_bytes = len.div_ceil(8) as f64;
                // Each step streams its operands in and its result out.
                let mut bytes = 0.0;
                for step in plan.steps() {
                    let operands = match step {
                        pim_workloads::PlanStep::Unary { .. } => 1.0,
                        pim_workloads::PlanStep::Binary { .. } => 2.0,
                        pim_workloads::PlanStep::Const { .. } => 0.0,
                        pim_workloads::PlanStep::Maj { .. } => 3.0,
                    };
                    bytes += (operands + 1.0) * word_bytes;
                }
                (bytes, plan.steps().len() as f64 * len.div_ceil(64) as f64)
            }
            Job::RowCopy { data, .. } => {
                let b = data.byte_len() as f64;
                (2.0 * b, b / 16.0)
            }
            Job::RowInit { bits, .. } => {
                let b = bits.div_ceil(8) as f64;
                (b, b / 16.0)
            }
            Job::GraphBatch { graph, .. } => {
                // Per-superstep traffic shape: vertex state plus edge scans.
                let v = graph.num_vertices() as f64;
                let e = graph.num_edges() as f64;
                (16.0 * v + 8.0 * e, v + e)
            }
            Job::Stream { bytes, ops } => (*bytes, *ops),
            Job::SimdProgram { program, inputs } => {
                // Each row command streams roughly two lane-width rows
                // through sense amplifiers; the op count is the program's
                // per-lane gate work.
                let lanes = inputs.first().map_or(0, |v| v.len());
                let lane_bytes = lanes.div_ceil(8) as f64;
                let stats = program.stats();
                let bytes = 2.0 * stats.commands() as f64 * lane_bytes;
                let ops = (stats.maj_gates + stats.not_gates) as f64 * lanes.div_ceil(64) as f64;
                (bytes, ops)
            }
        };
        KernelProfile::new(bytes, ops).expect("job profiles are finite and non-negative")
    }
}

/// Output and trace of one graph kernel run.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphRun {
    /// Functional kernel output.
    pub output: KernelOutput,
    /// Per-superstep, per-vault execution trace (what the timing and host
    /// baseline models price).
    pub trace: ExecutionTrace,
}

/// Functional result of a completed job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutput {
    /// No functional payload (stream jobs are priced, not evaluated).
    None,
    /// One output bit vector.
    Bits(BitVec),
    /// Multi-output plans (bit-sliced arithmetic).
    MultiBits(Vec<BitVec>),
    /// A graph kernel run.
    Graph(Box<GraphRun>),
    /// Compiled bit-serial program outputs, one bit-sliced vector per
    /// graph output.
    Sliced(Vec<BitSlicedIntVec>),
}

impl JobOutput {
    /// The single bit-vector output, if that is what the job produced.
    pub fn bits(&self) -> Option<&BitVec> {
        match self {
            JobOutput::Bits(b) => Some(b),
            _ => None,
        }
    }
}

/// Cost report for one completed job, in the engines' native units.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// Name of the backend that executed the job.
    pub backend: String,
    /// Wall-clock nanoseconds the job took, as if it had run alone (for
    /// coalesced dispatches this is the job's own dependency chain; see
    /// the Ambit backend).
    pub ns: f64,
    /// Output payload bytes produced.
    pub bytes_out: u64,
    /// Energy consumed, by component.
    pub energy: EnergyBreakdown,
    /// DRAM commands issued on the job's behalf (command-replayed
    /// backends only).
    pub commands: Option<CommandCounts>,
}

impl JobReport {
    /// Output throughput in GB/s.
    pub fn throughput_gbps(&self) -> f64 {
        if self.ns == 0.0 {
            0.0
        } else {
            self.bytes_out as f64 / self.ns
        }
    }

    /// Energy per kilobyte of output, in nJ.
    pub fn nj_per_kb(&self) -> f64 {
        if self.bytes_out == 0 {
            0.0
        } else {
            self.energy.total_nj() / (self.bytes_out as f64 / 1024.0)
        }
    }

    /// DRAM-subsystem energy per kilobyte of output, in nJ (the metric
    /// the Ambit paper's Table 4 reports for the DDR3 baseline).
    pub fn dram_nj_per_kb(&self) -> f64 {
        if self.bytes_out == 0 {
            return 0.0;
        }
        let dram = self.energy.get(Component::DramActivation)
            + self.energy.get(Component::DramColumn)
            + self.energy.get(Component::DramIo)
            + self.energy.get(Component::DramRefresh);
        dram / (self.bytes_out as f64 / 1024.0)
    }
}

/// A finished job: identifier, functional output, cost report.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// The id [`crate::Runtime::submit`] returned.
    pub id: JobId,
    /// Functional result.
    pub output: JobOutput,
    /// Cost report.
    pub report: JobReport,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bulk_constructor_matches_arity() {
        let a = Arc::new(BitVec::from_fn(128, |i| i % 2 == 0));
        let b = Arc::new(BitVec::from_fn(128, |i| i % 3 == 0));
        let j = Job::bulk(BulkOp::And, a.clone(), Some(b));
        assert_eq!(j.single_op(), Some(BulkOp::And));
        assert_eq!(j.len_bits(), 128);
        let n = Job::bulk(BulkOp::Not, a, None);
        assert_eq!(n.single_op(), Some(BulkOp::Not));
        assert_eq!(n.kind(), "bitwise");
    }

    #[test]
    fn multi_step_plans_are_not_coalescible() {
        let mut pb = PlanBuilder::new(2);
        let x = pb.binary(BulkOp::And, pb.input(0), pb.input(1));
        let y = pb.not(x);
        let plan = pb.finish(y);
        let a = Arc::new(BitVec::zeros(64));
        let b = Arc::new(BitVec::zeros(64));
        let j = Job::Bitwise {
            plan,
            inputs: vec![a, b],
        };
        assert_eq!(j.single_op(), None);
    }

    #[test]
    fn profiles_scale_with_payload() {
        let small = Job::RowInit {
            bits: 8 << 10,
            ones: false,
        }
        .profile();
        let large = Job::RowInit {
            bits: 8 << 20,
            ones: false,
        }
        .profile();
        assert!(large.bytes > 500.0 * small.bytes);
        let s = Job::Stream {
            bytes: 1e6,
            ops: 2e3,
        }
        .profile();
        assert_eq!(s.bytes, 1e6);
        assert_eq!(s.ops, 2e3);
    }
}
