//! The roofline backends: every site the offload decision compares
//! against without simulating a device. The Skylake-class CPU runs every
//! vector/stream job (and, with [`CpuBackend::with_graph`], the
//! cache-hierarchy graph baseline); the GPU and the HMC logic layer run
//! single-op bulk bitwise; the consumer-SoC streaming sites (E6) run
//! [`Job::Stream`]. One [`RooflineBackend`] serves them all: outputs are
//! computed from the job alone, and the site's [`Pricing`] model says
//! what it supports and what each job costs.

use crate::backend::{ensure_supported, Backend, CostEstimate, JobQueue, DEFAULT_CAPACITY};
use crate::error::RuntimeError;
use crate::job::{Completion, GraphRun, Job, JobId, JobOutput, JobReport};
use pim_core::{ConsumerSystemConfig, PimSite, SiteModel};
use pim_energy::{Component, EnergyBreakdown};
use pim_host::{CpuModel, GpuModel, HmcLogicModel, HostReport};
use pim_simd::CompiledProgram;
use pim_tesseract::{engine::run_kernel, HostGraphConfig, HostGraphModel, VertexPartition};
use pim_workloads::{BitSlicedIntVec, BitVec, BulkOp};
use std::sync::Arc;

/// How a roofline site prices the jobs it runs.
pub trait Pricing {
    /// Whether the site runs `job` at all.
    fn supports(&self, job: &Job) -> bool;

    /// What a drained `job` cost, given its functional `output`: time and
    /// energy, plus the output bytes it reports.
    fn price(&self, job: &Job, output: &JobOutput) -> (CostEstimate, u64);

    /// The advisor's estimate for `job` where it differs from the
    /// site's [`SiteModel`] roofline; `None` (the default) keeps that.
    fn estimate(&self, _job: &Job) -> Option<CostEstimate> {
        None
    }

    /// The vault partition graph kernels run on, for sites that run
    /// [`Job::GraphBatch`].
    fn graph_partition(&self) -> Option<&VertexPartition> {
        None
    }
}

/// A roofline site behind the [`Backend`] trait: the `is_host` end of
/// the offload decision or a forced-placement baseline for A/B runs.
#[derive(Debug)]
pub struct RooflineBackend<M> {
    site: SiteModel,
    is_host: bool,
    queue: JobQueue,
    model: M,
}

impl<M> RooflineBackend<M> {
    /// A backend named after its advisor `site`, queueing at most
    /// `capacity` jobs.
    fn build(site: SiteModel, is_host: bool, model: M, capacity: usize) -> Self {
        RooflineBackend {
            site,
            is_host,
            queue: JobQueue::new(capacity),
            model,
        }
    }
}

impl<M: Pricing> Backend for RooflineBackend<M> {
    fn name(&self) -> &str {
        &self.site.name
    }

    fn site(&self) -> &SiteModel {
        &self.site
    }

    fn is_host(&self) -> bool {
        self.is_host
    }

    fn capacity(&self) -> usize {
        self.queue.capacity()
    }

    fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    fn queue_high_water(&self) -> usize {
        self.queue.high_water()
    }

    fn rejections(&self) -> u64 {
        self.queue.rejections()
    }

    fn submitted(&self) -> u64 {
        self.queue.submitted()
    }

    fn completed(&self) -> u64 {
        self.queue.completed()
    }

    fn supports(&self, job: &Job) -> bool {
        self.model.supports(job)
    }

    fn estimate(&self, job: &Job) -> Result<CostEstimate, RuntimeError> {
        ensure_supported(self, job)?;
        Ok(self
            .model
            .estimate(job)
            .unwrap_or_else(|| CostEstimate::roofline(&self.site, job)))
    }

    fn submit(&mut self, id: JobId, job: Job) -> Result<(), RuntimeError> {
        ensure_supported(self, &job)?;
        self.queue.push(&self.site.name, id, job)
    }

    fn drain(&mut self) -> Result<(), RuntimeError> {
        for (id, job) in self.queue.take_batch() {
            let output = evaluate(&job, self.model.graph_partition());
            let (cost, bytes_out) = self.model.price(&job, &output);
            let report = JobReport {
                backend: self.site.name.clone(),
                ns: cost.ns,
                bytes_out,
                energy: cost.energy,
                commands: None,
            };
            self.queue.finish(Completion { id, output, report });
        }
        Ok(())
    }

    fn poll(&mut self) -> Vec<Completion> {
        self.queue.poll()
    }

    fn take_queue_high_water(&mut self) -> usize {
        self.queue.take_high_water()
    }
}

/// The functional result of `job`, computed from the job alone: bitwise
/// plans on the CPU datapath, compiled bit-serial programs by the
/// graph's host reference interpreter (the oracle the conformance suite
/// trusts), graph kernels on the site's vault `partition`.
fn evaluate(job: &Job, partition: Option<&VertexPartition>) -> JobOutput {
    match job {
        Job::Bitwise { plan, inputs } => {
            let refs: Vec<&BitVec> = inputs.iter().map(|v| v.as_ref()).collect();
            let mut outs = plan.eval_cpu_multi(&refs);
            if outs.len() == 1 {
                JobOutput::Bits(outs.swap_remove(0))
            } else {
                JobOutput::MultiBits(outs)
            }
        }
        Job::RowCopy { data, .. } => JobOutput::Bits(data.as_ref().clone()),
        Job::RowInit { bits, ones: true } => JobOutput::Bits(BitVec::ones(*bits)),
        Job::RowInit { bits, ones: false } => JobOutput::Bits(BitVec::zeros(*bits)),
        Job::Stream { .. } => JobOutput::None,
        Job::GraphBatch { kernel, graph } => {
            let partition = partition.expect("only graph sites accept graph jobs");
            let (output, trace) = run_kernel(*kernel, graph, partition);
            JobOutput::Graph(Box::new(GraphRun { output, trace }))
        }
        Job::SimdProgram { program, inputs } => {
            let values: Vec<Vec<u64>> = inputs.iter().map(|v| v.to_values()).collect();
            let refs: Vec<&[u64]> = values.iter().map(|v| v.as_slice()).collect();
            let graph = program.source_graph();
            let sliced = graph
                .eval_reference(&refs)
                .iter()
                .zip(graph.output_widths())
                .map(|(vals, w)| BitSlicedIntVec::from_values(vals, w))
                .collect();
            JobOutput::Sliced(sliced)
        }
    }
}

/// A host model's report as a drained price.
fn host_price(r: HostReport) -> (CostEstimate, u64) {
    let cost = CostEstimate {
        ns: r.ns,
        energy: r.energy,
    };
    (cost, r.bytes_out)
}

/// A single-op bitwise job priced by a `bulk_bitwise` model on its
/// output bytes.
fn single_op_price(job: &Job, bulk: impl FnOnce(BulkOp, u64) -> HostReport) -> (CostEstimate, u64) {
    let op = job.single_op().expect("submit checked a single-op job");
    host_price(bulk(op, (job.len_bits() as u64).div_ceil(8)))
}

/// The CPU's pricing: the Skylake-class roofline for vector and stream
/// jobs, and the out-of-order cache-hierarchy baseline for graph jobs
/// once [`CpuBackend::with_graph`] enables them.
#[derive(Debug)]
pub struct CpuSite {
    cpu: CpuModel,
    graph: Option<(HostGraphConfig, VertexPartition)>,
}

impl CpuSite {
    /// A compiled bit-serial program executed as a vectorized scalar
    /// loop: stream every input lane in, every output lane out, and
    /// spend one SIMD-amortized op per graph node per lane (4-wide, the
    /// E11 calibration).
    fn simd_loop(&self, program: &CompiledProgram, inputs: &[Arc<BitSlicedIntVec>]) -> HostReport {
        let lanes = inputs.first().map_or(0, |v| v.len());
        let graph = program.source_graph();
        let lane_bytes = |w: u32| (lanes as u64 * u64::from(w)).div_ceil(8);
        let read: u64 = graph.input_widths().iter().map(|&w| lane_bytes(w)).sum();
        let write: u64 = graph.output_widths().iter().map(|&w| lane_bytes(w)).sum();
        let ops = (graph.len() as u64 * lanes as u64).div_ceil(4);
        self.cpu.stream(read, write, ops)
    }
}

impl Pricing for CpuSite {
    fn supports(&self, job: &Job) -> bool {
        match job {
            Job::Bitwise { .. }
            | Job::RowCopy { .. }
            | Job::RowInit { .. }
            | Job::Stream { .. }
            // Compiled bit-serial programs run here as a vectorized
            // scalar loop over the source graph — the fallback site the
            // advisor routes to where bit-serial loses (wide multiply).
            | Job::SimdProgram { .. } => true,
            Job::GraphBatch { .. } => self.graph.is_some(),
        }
    }

    fn price(&self, job: &Job, output: &JobOutput) -> (CostEstimate, u64) {
        let r = match job {
            Job::Bitwise { plan, .. } => {
                let len = job.len_bits();
                // Single ops price as the native streaming kernel; whole
                // plans as the step-merged roofline sequence.
                match job.single_op() {
                    Some(op) => self.cpu.bulk_bitwise(op, (len as u64).div_ceil(8)),
                    None => self.cpu.run_plan(plan, len),
                }
            }
            Job::RowCopy { data, .. } => self.cpu.memcpy(data.byte_len() as u64),
            Job::RowInit { bits, .. } => self.cpu.memset((*bits as u64).div_ceil(8)),
            Job::Stream { bytes, ops } => self.cpu.stream(*bytes as u64, 0, *ops as u64),
            Job::SimdProgram { program, inputs } => self.simd_loop(program, inputs),
            Job::GraphBatch { graph, .. } => {
                let (config, _) = self.graph.as_ref().expect("submit checked graph support");
                let JobOutput::Graph(run) = output else {
                    unreachable!("graph jobs evaluate to graph runs");
                };
                let r = HostGraphModel::new(config.clone()).run(&run.trace, graph);
                let cost = CostEstimate {
                    ns: r.ns,
                    energy: r.energy,
                };
                return (cost, 0);
            }
        };
        host_price(r)
    }

    fn estimate(&self, job: &Job) -> Option<CostEstimate> {
        // Price the loop the host would actually run (lane streams +
        // per-node scalar work), not the job's PIM-shaped byte profile —
        // this is what makes the advisor's simd-program comparison honest.
        match job {
            Job::SimdProgram { program, inputs } => {
                Some(host_price(self.simd_loop(program, inputs)).0)
            }
            _ => None,
        }
    }

    fn graph_partition(&self) -> Option<&VertexPartition> {
        self.graph.as_ref().map(|(_, partition)| partition)
    }
}

impl Pricing for GpuModel {
    fn supports(&self, job: &Job) -> bool {
        job.single_op().is_some()
    }

    fn price(&self, job: &Job, _output: &JobOutput) -> (CostEstimate, u64) {
        single_op_price(job, |op, bytes| self.bulk_bitwise(op, bytes))
    }
}

impl Pricing for HmcLogicModel {
    fn supports(&self, job: &Job) -> bool {
        job.single_op().is_some()
    }

    fn price(&self, job: &Job, _output: &JobOutput) -> (CostEstimate, u64) {
        single_op_price(job, |op, bytes| self.bulk_bitwise(op, bytes))
    }
}

/// Coefficients of one consumer-SoC streaming site (1 µJ/MB ≡ 1e-3 nJ/B;
/// 1 µJ/Mop ≡ 1e-3 nJ/op — the consumer model's units, converted).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSiteConfig {
    /// Sustainable memory bandwidth, GB/s.
    pub bw_gbps: f64,
    /// Compute rate, Gops.
    pub gops: f64,
    /// Component charged per byte moved ([`Component::DramIo`] on a host
    /// channel, [`Component::Tsv`] inside a stack).
    pub byte_component: Component,
    /// nJ per byte moved.
    pub nj_per_byte: f64,
    /// Hierarchy-movement nJ per op (charged to [`Component::Cache`]).
    pub move_nj_per_op: f64,
    /// Compute nJ per op (charged to [`Component::CoreCompute`]).
    pub compute_nj_per_op: f64,
}

impl StreamSiteConfig {
    /// The host side of a consumer SoC.
    pub fn host(cfg: &ConsumerSystemConfig) -> Self {
        StreamSiteConfig {
            bw_gbps: cfg.host_bw_gbps,
            gops: cfg.host_gops,
            byte_component: Component::DramIo,
            nj_per_byte: cfg.host_dram_uj_per_mb * 1e-3,
            move_nj_per_op: cfg.host_move_uj_per_mop * 1e-3,
            compute_nj_per_op: cfg.host_compute_uj_per_mop * 1e-3,
        }
    }

    /// The PIM side of a consumer SoC, for a given logic-layer site.
    pub fn pim(cfg: &ConsumerSystemConfig, site: PimSite) -> Self {
        let (compute, gops) = match site {
            PimSite::Core => (cfg.pim_core_compute_uj_per_mop, cfg.pim_core_gops),
            PimSite::Accelerator => (cfg.pim_accel_compute_uj_per_mop, cfg.pim_accel_gops),
        };
        StreamSiteConfig {
            bw_gbps: cfg.pim_bw_gbps,
            gops,
            byte_component: Component::Tsv,
            nj_per_byte: cfg.pim_dram_uj_per_mb * 1e-3,
            move_nj_per_op: cfg.pim_move_uj_per_mop * 1e-3,
            compute_nj_per_op: compute * 1e-3,
        }
    }

    fn cost(&self, bytes: f64, ops: f64) -> CostEstimate {
        let mut energy = EnergyBreakdown::new();
        energy.add_nj(self.byte_component, bytes * self.nj_per_byte);
        energy.add_nj(Component::Cache, ops * self.move_nj_per_op);
        energy.add_nj(Component::CoreCompute, ops * self.compute_nj_per_op);
        CostEstimate {
            ns: (bytes / self.bw_gbps).max(ops / self.gops),
            energy,
        }
    }
}

/// A stream site runs [`Job::Stream`] only, with no functional payload,
/// and resolves energy per component in its estimates too.
impl Pricing for StreamSiteConfig {
    fn supports(&self, job: &Job) -> bool {
        matches!(job, Job::Stream { .. })
    }

    fn price(&self, job: &Job, _output: &JobOutput) -> (CostEstimate, u64) {
        let Job::Stream { bytes, ops } = *job else {
            unreachable!("submit checked a stream job");
        };
        (self.cost(bytes, ops), bytes as u64)
    }

    fn estimate(&self, job: &Job) -> Option<CostEstimate> {
        match *job {
            Job::Stream { bytes, ops } => Some(self.cost(bytes, ops)),
            _ => None,
        }
    }
}

/// The Skylake-class CPU roofline as the host backend. Supports every
/// vector/stream job; add [`CpuBackend::with_graph`] for the
/// cache-hierarchy graph baseline too.
pub type CpuBackend = RooflineBackend<CpuSite>;

impl CpuBackend {
    /// Creates the host CPU backend.
    pub fn new(name: impl Into<String>, cpu: CpuModel) -> Self {
        Self::with_capacity(name, cpu, DEFAULT_CAPACITY)
    }

    /// Like [`CpuBackend::new`] with an explicit queue bound.
    pub fn with_capacity(name: impl Into<String>, cpu: CpuModel, capacity: usize) -> Self {
        // The paper's host site coordinates (§4 offload advisor).
        let site = SiteModel {
            name: name.into(),
            ..SiteModel::host()
        };
        Self::build(site, true, CpuSite { cpu, graph: None }, capacity)
    }

    /// Enables [`Job::GraphBatch`] on this host: kernels execute
    /// functionally with `vaults`-way partitioned traffic accounting and
    /// are priced by the out-of-order cache-hierarchy baseline.
    #[must_use]
    pub fn with_graph(mut self, config: HostGraphConfig, vaults: u32) -> Self {
        self.model.graph = Some((config, VertexPartition::hashed(vaults)));
        self
    }
}

/// The GTX-745-class GPU as a backend.
pub type GpuBackend = RooflineBackend<GpuModel>;

impl GpuBackend {
    /// Creates the GPU backend.
    pub fn gpu(name: impl Into<String>, model: GpuModel) -> Self {
        let site = SiteModel::new(name, 25.6, 800.0, 0.03, 0.05).expect("gpu site coefficients");
        Self::build(site, false, model, DEFAULT_CAPACITY)
    }
}

/// HMC logic-layer processing elements as a backend.
pub type HmcLogicBackend = RooflineBackend<HmcLogicModel>;

impl HmcLogicBackend {
    /// Creates the HMC logic-layer backend.
    pub fn hmc_logic(name: impl Into<String>, model: HmcLogicModel) -> Self {
        let site =
            SiteModel::new(name, 320.0, 160.0, 0.008, 0.02).expect("hmc-logic site coefficients");
        Self::build(site, false, model, DEFAULT_CAPACITY)
    }
}

/// A [`StreamSiteConfig`] as a backend.
pub type StreamSiteBackend = RooflineBackend<StreamSiteConfig>;

impl StreamSiteBackend {
    /// Creates a streaming site; `is_host` marks the host end of the
    /// offload decision.
    pub fn new(name: impl Into<String>, config: StreamSiteConfig, is_host: bool) -> Self {
        // The advisor's site model collapses both per-op coefficients into
        // one, so its energies equal the component-resolved totals.
        let site = SiteModel::new(
            name,
            config.bw_gbps,
            config.gops,
            config.nj_per_byte,
            config.move_nj_per_op + config.compute_nj_per_op,
        )
        .expect("stream site coefficients");
        Self::build(site, is_host, config, DEFAULT_CAPACITY)
    }
}
