//! The [`TensorSession`]: evaluation of lazy tensors through the job
//! runtime.
//!
//! A session owns a [`Runtime`] and a [`TensorConfig`]. Evaluating a
//! root (a) fuses its DAG into one multi-output graph, (b) compiles it —
//! splitting into stages when peak scratch liveness exceeds the budget,
//! (c) cuts the lane axis into bank-parallel tiles sized so every tile's
//! chunks occupy distinct banks, and (d) submits one `Job::SimdProgram`
//! per (tile, stage) with the configured placement — advised by default,
//! so the offload advisor routes each program to DRAM or the host
//! vectorized loop by compiled cost (wide multiplies stay on the host,
//! per E11). Tile outputs gather back in lane order, bit-exactly equal
//! at any tile size or thread count.

use crate::elem::PimElem;
use crate::error::{Result, TensorError};
use crate::expr::{ExprRef, PimMask, PimTensor};
use crate::plan::Plan;
use pim_ambit::AmbitConfig;
use pim_host::{CpuConfig, CpuModel};
use pim_runtime::{
    AmbitBackend, CpuBackend, Job, JobId, JobOutput, Placement, PlacementDecision, Runtime,
    RuntimeError,
};
use pim_simd::DEFAULT_SCRATCH_BUDGET;
use pim_telemetry::{TelemetrySink, POW2_BOUNDS};
use pim_workloads::BitSlicedIntVec;
use std::collections::BTreeMap;
use std::sync::Arc;

/// How a [`TensorSession`] plans and places work.
#[derive(Debug, Clone)]
pub struct TensorConfig {
    /// Lanes per tile; `0` disables tiling (one job span per stage).
    /// The `ddr3` constructor sizes this to `total_banks × row_bits` so
    /// each tile is one fully bank-parallel wave.
    pub tile_lanes: usize,
    /// Scratch-row budget per compiled stage (splitting threshold).
    pub scratch_budget: u32,
    /// Placement for every emitted job. Advised placement is the
    /// default: per-program cost comparison between the compiled AAP/TRA
    /// sequence and the host loop.
    pub placement: Placement,
    /// Lane count at or below which reductions finish on the host
    /// instead of emitting ever-smaller DRAM jobs.
    pub reduce_tail: usize,
}

impl Default for TensorConfig {
    fn default() -> Self {
        TensorConfig {
            tile_lanes: 0,
            scratch_budget: DEFAULT_SCRATCH_BUDGET,
            placement: Placement::Advised(pim_core::Objective::Time),
            reduce_tail: 64,
        }
    }
}

/// Evaluates [`PimTensor`] expressions on a [`Runtime`].
pub struct TensorSession {
    runtime: Runtime,
    config: TensorConfig,
    telemetry: Option<TelemetrySink>,
    decisions: Vec<PlacementDecision>,
    modeled_ns: f64,
    modeled_energy_nj: f64,
}

impl TensorSession {
    /// A session over an existing runtime.
    pub fn new(runtime: Runtime, config: TensorConfig) -> Self {
        TensorSession {
            runtime,
            config,
            telemetry: None,
            decisions: Vec::new(),
            modeled_ns: 0.0,
            modeled_energy_nj: 0.0,
        }
    }

    /// The standard two-site session: a Skylake-class host CPU plus a
    /// DDR3 Ambit device, with tiles sized to one bank-parallel wave.
    pub fn ddr3() -> Self {
        let ambit = AmbitBackend::new("ambit", AmbitConfig::ddr3());
        let org = &ambit.system().spec().org;
        let tile_lanes = org.total_banks() as usize * org.row_bits() as usize;
        let runtime = Runtime::new()
            .with(Box::new(CpuBackend::new(
                "cpu",
                CpuModel::new(CpuConfig::skylake_ddr3()),
            )))
            .with(Box::new(ambit));
        TensorSession::new(
            runtime,
            TensorConfig {
                tile_lanes,
                ..TensorConfig::default()
            },
        )
    }

    /// The session's runtime (trace capture, stats, estimates).
    pub fn runtime_mut(&mut self) -> &mut Runtime {
        &mut self.runtime
    }

    /// The active configuration.
    pub fn config(&self) -> &TensorConfig {
        &self.config
    }

    /// Mutable access to the configuration, e.g. to switch the advisor
    /// objective on a preset session. Takes effect at the next
    /// evaluation; in-flight plans are unaffected.
    pub fn config_mut(&mut self) -> &mut TensorConfig {
        &mut self.config
    }

    /// Placement decisions of every job the last evaluation emitted, in
    /// submission order.
    pub fn last_decisions(&self) -> &[PlacementDecision] {
        &self.decisions
    }

    /// Enables or disables telemetry: the session's `tensor.*` planning
    /// series plus the runtime's job spans and engine series.
    pub fn set_telemetry(&mut self, enabled: bool) {
        self.telemetry = enabled.then(TelemetrySink::new);
        self.runtime.set_telemetry(enabled);
    }

    /// Takes everything recorded since telemetry was enabled: `tensor.*`
    /// planning series merged with the runtime's sink. `None` while
    /// disabled.
    pub fn take_telemetry(&mut self) -> Option<TelemetrySink> {
        let mut sink = std::mem::take(self.telemetry.as_mut()?);
        if let Some(rt) = self.runtime.take_telemetry() {
            sink.merge(rt);
        }
        Some(sink)
    }

    /// Enables or disables cycle-domain profiling on the session's
    /// runtime (queue/jobs lanes, device command lanes, per-job phase
    /// records).
    pub fn set_profile(&mut self, enabled: bool) {
        self.runtime.set_profile(enabled);
    }

    /// Takes the `PIMPROF01` profile captured since profiling was
    /// enabled. `None` while disabled.
    pub fn take_profile(&mut self) -> Option<pim_profile::Profile> {
        self.runtime.take_profile()
    }

    /// Takes (and resets) the modeled cost accumulated since the last
    /// call: total backend-reported nanoseconds and nanojoules over
    /// every job the session drained. Nanoseconds sum each job's own
    /// dependency-chain time, i.e. modeled device-busy time.
    pub fn take_modeled_cost(&mut self) -> (f64, f64) {
        let out = (self.modeled_ns, self.modeled_energy_nj);
        self.modeled_ns = 0.0;
        self.modeled_energy_nj = 0.0;
        out
    }

    /// Evaluates a tensor to its lane values.
    pub fn eval<T: PimElem>(&mut self, t: &PimTensor<T>) -> Result<Vec<T>> {
        Ok(self
            .eval_raw(&t.expr, t.len)?
            .into_iter()
            .map(T::from_u64)
            .collect())
    }

    /// Evaluates a mask to its lane truth values.
    pub fn eval_mask(&mut self, m: &PimMask) -> Result<Vec<bool>> {
        Ok(self.run_root(&m.expr, m.len)?.to_bools())
    }

    /// Number of set lanes in a mask (the mask computes in DRAM; the
    /// popcount runs on the host over the 1-bit result plane).
    pub fn count_ones(&mut self, m: &PimMask) -> Result<u64> {
        Ok(self.run_root(&m.expr, m.len)?.count_ones())
    }

    /// Sum of every lane, exact: lanes widen to 64 bits, then tree-halve
    /// through in-DRAM adds down to the host tail.
    pub fn sum<T: PimElem>(&mut self, t: &PimTensor<T>) -> Result<u64> {
        let wide: PimTensor<u64> = t.widen();
        let vals = self.eval_raw(&wide.expr, wide.len)?;
        self.tree_reduce(vals, 0, |a, b| a + b)
    }

    /// Bitwise AND across every lane.
    pub fn reduce_and<T: PimElem>(&mut self, t: &PimTensor<T>) -> Result<T> {
        let v = self.tree_reduce_at::<T>(t, T::MAX_U64, |a, b| a & b)?;
        Ok(T::from_u64(v))
    }

    /// Bitwise OR across every lane.
    pub fn reduce_or<T: PimElem>(&mut self, t: &PimTensor<T>) -> Result<T> {
        let v = self.tree_reduce_at::<T>(t, 0, |a, b| a | b)?;
        Ok(T::from_u64(v))
    }

    /// Bitwise XOR across every lane.
    pub fn reduce_xor<T: PimElem>(&mut self, t: &PimTensor<T>) -> Result<T> {
        let v = self.tree_reduce_at::<T>(t, 0, |a, b| a ^ b)?;
        Ok(T::from_u64(v))
    }

    /// Minimum lane value, via `lt` + branch-free select trees.
    pub fn min<T: PimElem>(&mut self, t: &PimTensor<T>) -> Result<T> {
        let v = self.tree_reduce_at::<T>(t, T::MAX_U64, |a, b| a.lt(b).select(a, b))?;
        Ok(T::from_u64(v))
    }

    /// Histogram of `t` over `bins` equal ranges (`bins` a power of two,
    /// at most 256). All range masks fuse into one multi-output program;
    /// counting the 1-bit masks is a host popcount over their planes.
    pub fn histogram(&mut self, t: &PimTensor<u8>, bins: usize) -> Result<Vec<u64>> {
        assert!(
            bins.is_power_of_two() && (1..=256).contains(&bins),
            "bins must be a power of two in 1..=256"
        );
        let shift = 8 - bins.trailing_zeros();
        let bucket = if shift == 0 { t.clone() } else { t.shr(shift) };
        let roots: Vec<ExprRef> = (0..bins)
            .map(|b| {
                bucket
                    .eq_mask(&PimTensor::<u8>::splat(b as u8, t.len()))
                    .expr
            })
            .collect();
        let per_bin = self.run_roots(&roots, t.len())?;
        Ok(per_bin.iter().map(Gathered::count_ones).collect())
    }

    /// Evaluates one root expression to raw `u64` lanes.
    fn eval_raw(&mut self, expr: &ExprRef, lanes: usize) -> Result<Vec<u64>> {
        Ok(self.run_root(expr, lanes)?.to_values())
    }

    /// Plans and executes one root expression.
    fn run_root(&mut self, expr: &ExprRef, lanes: usize) -> Result<Gathered> {
        Ok(self
            .run_roots(std::slice::from_ref(expr), lanes)?
            .pop()
            .expect("one root gathers one result"))
    }

    /// In-DRAM tree reduction over raw 64-bit lanes: split, pad with the
    /// identity, combine halves with `op`, repeat to the host tail.
    fn tree_reduce(
        &mut self,
        mut vals: Vec<u64>,
        identity: u64,
        op: impl Fn(&PimTensor<u64>, &PimTensor<u64>) -> PimTensor<u64>,
    ) -> Result<u64> {
        let tail = self.config.reduce_tail.max(1);
        while vals.len() > tail {
            let half = vals.len().div_ceil(2);
            let hi: Vec<u64> = vals[half..]
                .iter()
                .copied()
                .chain(std::iter::repeat(identity))
                .take(half)
                .collect();
            vals.truncate(half);
            let a = PimTensor::<u64>::from_u64_values(vals);
            let b = PimTensor::<u64>::from_u64_values(hi);
            let combined = op(&a, &b);
            vals = self.eval_raw(&combined.expr, combined.len)?;
        }
        let mut acc = identity;
        for &v in &vals {
            // The tail folds through the same recorded op; splat operands
            // make the expression source-free, so `run_roots` const-folds
            // it on the host — one semantics everywhere, no 1-lane jobs.
            let ta = PimTensor::<u64>::splat(acc, 1);
            let tb = PimTensor::<u64>::splat(v, 1);
            acc = self.eval_raw(&op(&ta, &tb).expr, 1)?[0];
        }
        Ok(acc)
    }

    /// Tree reduction at `T`'s own width (logic ops and min, which never
    /// overflow their lanes).
    fn tree_reduce_at<T: PimElem>(
        &mut self,
        t: &PimTensor<T>,
        identity: u64,
        op: impl Fn(&PimTensor<T>, &PimTensor<T>) -> PimTensor<T>,
    ) -> Result<u64> {
        let mut vals = self.eval_raw(&t.expr, t.len)?;
        let tail = self.config.reduce_tail.max(1);
        while vals.len() > tail {
            let half = vals.len().div_ceil(2);
            let hi: Vec<u64> = vals[half..]
                .iter()
                .copied()
                .chain(std::iter::repeat(identity))
                .take(half)
                .collect();
            vals.truncate(half);
            let a = PimTensor::<T>::from_u64_values(vals);
            let b = PimTensor::<T>::from_u64_values(hi);
            let combined = op(&a, &b);
            vals = self.eval_raw(&combined.expr, combined.len)?;
        }
        let mut acc = identity;
        for &v in &vals {
            let ta = PimTensor::<T>::splat(T::from_u64(acc), 1);
            let tb = PimTensor::<T>::splat(T::from_u64(v), 1);
            acc = self.eval_raw(&op(&ta, &tb).expr, 1)?[0];
        }
        Ok(acc)
    }

    /// Plans and executes a multi-root computation: fuse → stage → tile
    /// → submit → gather.
    fn run_roots(&mut self, roots: &[ExprRef], lanes: usize) -> Result<Vec<Gathered>> {
        // Source-free roots (pure splat arithmetic) have no lane payload
        // to size a DRAM job with; they fold on the host.
        if let Some(consts) = roots
            .iter()
            .map(|r| r.const_value())
            .collect::<Option<Vec<u64>>>()
        {
            return Ok(consts
                .into_iter()
                .map(|value| Gathered::Splat { value, lanes })
                .collect());
        }

        let plan = Plan::build(roots, self.config.scratch_budget)?;
        for src in &plan.sources {
            assert_eq!(src.len(), lanes, "fused sources must share a lane count");
        }

        let tile = if self.config.tile_lanes == 0 {
            lanes.max(1)
        } else {
            self.config.tile_lanes
        };
        let n_tiles = lanes.div_ceil(tile).max(1);

        if let Some(tel) = &mut self.telemetry {
            tel.count("tensor.plans", 0, 1);
            tel.observe(
                "tensor.fused_nodes",
                0,
                POW2_BOUNDS,
                plan.graph.len() as u64,
            );
            tel.count("tensor.stages", 0, plan.stages.len() as u64);
            tel.count("tensor.scratch_splits", 0, plan.splits() as u64);
            tel.count("tensor.tiles", 0, n_tiles as u64);
        }
        self.decisions.clear();

        // Slice every source into per-tile bit-sliced inputs once.
        let widths = plan.graph.input_widths().to_vec();
        let ext: Vec<Vec<Arc<BitSlicedIntVec>>> = (0..n_tiles)
            .map(|t| {
                let lo = t * tile;
                let hi = ((t + 1) * tile).min(lanes);
                plan.sources
                    .iter()
                    .zip(&widths)
                    .map(|(src, &w)| Arc::new(BitSlicedIntVec::from_values(&src[lo..hi], w)))
                    .collect()
            })
            .collect();

        // Stage-major execution: all tiles of a stage submit together
        // (one drain per stage), so independent tiles share a dispatch
        // batch and coalesce across banks/channel domains.
        let mut inter: Vec<Vec<Vec<Arc<BitSlicedIntVec>>>> = vec![Vec::new(); n_tiles];
        for (s, stage) in plan.stages.iter().enumerate() {
            let mut pending: BTreeMap<JobId, usize> = BTreeMap::new();
            let mut outputs: BTreeMap<JobId, Vec<BitSlicedIntVec>> = BTreeMap::new();
            for (t, tile_inputs) in ext.iter().enumerate() {
                let inputs: Vec<Arc<BitSlicedIntVec>> = stage
                    .bindings
                    .iter()
                    .map(|b| match *b {
                        pim_simd::StageBinding::External(i) => tile_inputs[i].clone(),
                        pim_simd::StageBinding::Intermediate { stage, output } => {
                            inter[t][stage][output].clone()
                        }
                    })
                    .collect();
                let job = Job::SimdProgram {
                    program: stage.program.clone(),
                    inputs,
                };
                let id = self.submit_with_backpressure(job, &mut outputs)?;
                pending.insert(id, t);
            }
            self.drain_into(&mut outputs)?;
            for (id, t) in pending {
                let outs = outputs.remove(&id).ok_or(TensorError::BadOutput {
                    job: "simd-program",
                })?;
                debug_assert_eq!(inter[t].len(), s);
                inter[t].push(outs.into_iter().map(Arc::new).collect());
            }
        }

        // Gather: per root, its bit-sliced tile slices in lane order.
        Ok(plan
            .outputs
            .iter()
            .map(|&(s, o)| {
                Gathered::Tiles(
                    inter
                        .iter()
                        .map(|tile_stages| tile_stages[s][o].clone())
                        .collect(),
                )
            })
            .collect())
    }

    /// Submits one job, draining (and banking completions) to relieve
    /// queue backpressure when a tile fan-out overruns a backend bound.
    fn submit_with_backpressure(
        &mut self,
        job: Job,
        outputs: &mut BTreeMap<JobId, Vec<BitSlicedIntVec>>,
    ) -> Result<JobId> {
        loop {
            match self
                .runtime
                .submit(job.clone(), self.config.placement.clone())
            {
                Ok(id) => {
                    if let Some(d) = self.runtime.decision(id) {
                        let d = d.clone();
                        if let Some(tel) = &mut self.telemetry {
                            tel.count("tensor.jobs", 0, 1);
                            if matches!(self.config.placement, Placement::Advised(_))
                                && d.advised.is_none()
                            {
                                // Advised placement that stayed on the
                                // host: the compiled program lost to the
                                // vectorized loop (e.g. wide multiply).
                                tel.count("tensor.fallback_host", 0, 1);
                            }
                        }
                        self.decisions.push(d);
                    }
                    return Ok(id);
                }
                Err(RuntimeError::QueueFull { .. }) => self.drain_into(outputs)?,
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn drain_into(&mut self, outputs: &mut BTreeMap<JobId, Vec<BitSlicedIntVec>>) -> Result<()> {
        for c in self.runtime.drain()? {
            self.modeled_ns += c.report.ns;
            self.modeled_energy_nj += c.report.energy.total_nj();
            match c.output {
                JobOutput::Sliced(outs) => {
                    outputs.insert(c.id, outs);
                }
                _ => {
                    return Err(TensorError::BadOutput {
                        job: "simd-program",
                    })
                }
            }
        }
        Ok(())
    }
}

/// One root's result as evaluation left it, before any widening to
/// `u64` lanes.
enum Gathered {
    /// A source-free root folded on the host: `value` on every lane.
    Splat { value: u64, lanes: usize },
    /// The root's bit-sliced output of every tile, in lane order.
    Tiles(Vec<Arc<BitSlicedIntVec>>),
}

impl Gathered {
    /// The lanes as `u64` values (transposed 64 lanes at a time).
    fn to_values(&self) -> Vec<u64> {
        match self {
            Gathered::Splat { value, lanes } => vec![*value; *lanes],
            Gathered::Tiles(tiles) => {
                let mut out = Vec::with_capacity(tiles.iter().map(|t| t.len()).sum());
                for t in tiles {
                    out.extend(t.to_values());
                }
                out
            }
        }
    }

    /// The one plane of a 1-bit result.
    fn mask_planes(tiles: &[Arc<BitSlicedIntVec>]) -> impl Iterator<Item = &pim_workloads::BitVec> {
        tiles.iter().map(|t| {
            assert_eq!(t.bits(), 1, "a mask has one plane");
            &t.planes()[0]
        })
    }

    /// A 1-bit result's lanes as truth values.
    fn to_bools(&self) -> Vec<bool> {
        match self {
            Gathered::Splat { value, lanes } => vec![*value != 0; *lanes],
            Gathered::Tiles(tiles) => Self::mask_planes(tiles)
                .flat_map(|p| (0..p.len()).map(move |i| p.get(i)))
                .collect(),
        }
    }

    /// The number of set lanes of a 1-bit result: a popcount of its
    /// planes.
    fn count_ones(&self) -> u64 {
        match self {
            Gathered::Splat { value, lanes } => value * *lanes as u64,
            Gathered::Tiles(tiles) => Self::mask_planes(tiles).map(|p| p.count_ones()).sum(),
        }
    }
}
