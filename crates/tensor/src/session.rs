//! The [`TensorSession`]: evaluation of lazy tensors through the job
//! runtime.
//!
//! A session owns a [`Runtime`] and a [`TensorConfig`]. Evaluating a
//! root (a) fuses its DAG into one multi-output graph, (b) compiles it —
//! splitting into stages when peak scratch liveness exceeds the budget —
//! or, when the session already compiled the same graph under the same
//! budget, reuses that compilation from its plan cache, (c) cuts the
//! lane axis into bank-parallel tiles sized so every tile's chunks
//! occupy distinct banks, and (d) submits one `Job::SimdProgram` per
//! (tile, stage) with the configured placement — advised by default, so
//! the offload advisor routes each program to DRAM or the host
//! vectorized loop by compiled cost (wide multiplies stay on the host,
//! per E11). Tile outputs gather back in lane order, bit-exactly equal
//! at any tile size or thread count.
//!
//! Lanes stay bit-sliced from the first evaluation to the host: a source
//! slices its lanes once, the first time any root reads it, and every
//! later job (and tile, by lane range) shares that vector. Reductions
//! halve their gathered result by lane range level after level, and
//! only the last `reduce_tail` lanes are read back as `u64` values.

use crate::elem::PimElem;
use crate::error::{Result, TensorError};
use crate::expr::{ExprRef, PimMask, PimTensor};
use crate::plan::{Plan, PlanCache};
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
    plans: PlanCache,
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
            plans: PlanCache::default(),
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
    /// evaluation; in-flight plans are unaffected. A new
    /// `scratch_budget` compiles afresh: the plan cache keys on it.
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
        Ok(self.run_root(&t.expr, t.len)?.values(T::from_u64))
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
        self.tree_reduce::<u64>(&t.widen(), 0, |a, b| a + b)
    }

    /// Bitwise AND across every lane.
    pub fn reduce_and<T: PimElem>(&mut self, t: &PimTensor<T>) -> Result<T> {
        let v = self.tree_reduce(t, T::MAX_U64, |a, b| a & b)?;
        Ok(T::from_u64(v))
    }

    /// Bitwise OR across every lane.
    pub fn reduce_or<T: PimElem>(&mut self, t: &PimTensor<T>) -> Result<T> {
        let v = self.tree_reduce(t, 0, |a, b| a | b)?;
        Ok(T::from_u64(v))
    }

    /// Bitwise XOR across every lane.
    pub fn reduce_xor<T: PimElem>(&mut self, t: &PimTensor<T>) -> Result<T> {
        let v = self.tree_reduce(t, 0, |a, b| a ^ b)?;
        Ok(T::from_u64(v))
    }

    /// Minimum lane value, via `lt` + branch-free select trees.
    pub fn min<T: PimElem>(&mut self, t: &PimTensor<T>) -> Result<T> {
        let v = self.tree_reduce(t, T::MAX_U64, |a, b| a.lt(b).select(a, b))?;
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

    /// Plans and executes one root expression.
    fn run_root(&mut self, expr: &ExprRef, lanes: usize) -> Result<Gathered> {
        Ok(self
            .run_roots(std::slice::from_ref(expr), lanes)?
            .pop()
            .expect("one root gathers one result"))
    }

    /// In-DRAM tree reduction at `T`'s width, bit-sliced throughout:
    /// each level cuts the lanes in half by range, pads the high half
    /// with `identity`, and combines the halves with `op` — the same
    /// graph at every level, so only the first level compiles. The
    /// lanes left at the host tail fold on the host.
    fn tree_reduce<T: PimElem>(
        &mut self,
        t: &PimTensor<T>,
        identity: u64,
        op: impl Fn(&PimTensor<T>, &PimTensor<T>) -> PimTensor<T>,
    ) -> Result<u64> {
        let mut lanes = self.run_root(&t.expr, t.len)?.into_sliced(T::BITS);
        let tail = self.config.reduce_tail.max(1);
        while lanes.len() > tail {
            let half = lanes.len().div_ceil(2);
            let lo = lanes.slice_lanes(0..half);
            let mut hi = lanes.slice_lanes(half..lanes.len());
            if hi.len() < half {
                let pad = BitSlicedIntVec::from_values(&vec![identity; half - hi.len()], T::BITS);
                hi = BitSlicedIntVec::concat(&[&hi, &pad]);
            }
            let combined = op(&PimTensor::from_sliced(lo), &PimTensor::from_sliced(hi));
            lanes = self.run_root(&combined.expr, half)?.into_sliced(T::BITS);
        }
        // The tail folds through the same recorded op; splat operands
        // make it source-free, so it folds as a constant — one semantics
        // everywhere, no 1-lane jobs.
        let mut acc = identity;
        for v in lanes.to_values() {
            let ta = PimTensor::<T>::splat(T::from_u64(acc), 1);
            let tb = PimTensor::<T>::splat(T::from_u64(v), 1);
            acc = op(&ta, &tb)
                .expr
                .const_value()
                .expect("splat operands fold");
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

        let plan = Plan::build(roots, self.config.scratch_budget, &mut self.plans)?;
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
            tel.observe("tensor.fused_nodes", 0, POW2_BOUNDS, plan.nodes as u64);
            tel.count("tensor.stages", 0, plan.compiled.stages.len() as u64);
            tel.count("tensor.scratch_splits", 0, plan.splits() as u64);
            tel.count("tensor.tiles", 0, n_tiles as u64);
        }
        self.decisions.clear();

        // Cut every bit-sliced source into per-tile inputs by lane range;
        // one tile shares the source's own vector.
        let ext: Vec<Vec<Arc<BitSlicedIntVec>>> = (0..n_tiles)
            .map(|t| {
                let range = t * tile..((t + 1) * tile).min(lanes);
                plan.sources
                    .iter()
                    .map(|src| match n_tiles {
                        1 => src.clone(),
                        _ => Arc::new(src.slice_lanes(range.clone())),
                    })
                    .collect()
            })
            .collect();

        // Stage-major execution: all tiles of a stage submit together
        // (one drain per stage), so independent tiles share a dispatch
        // batch and coalesce across banks/channel domains.
        let mut inter: Vec<Vec<Vec<Arc<BitSlicedIntVec>>>> = vec![Vec::new(); n_tiles];
        for (s, stage) in plan.compiled.stages.iter().enumerate() {
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
            .compiled
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
    /// The lanes as one bit-sliced vector of `bits` planes (one tile's
    /// own vector, or the tiles joined in lane order).
    fn into_sliced(self, bits: u32) -> Arc<BitSlicedIntVec> {
        match self {
            Gathered::Splat { value, lanes } => {
                Arc::new(BitSlicedIntVec::from_values(&vec![value; lanes], bits))
            }
            Gathered::Tiles(mut tiles) if tiles.len() == 1 => tiles.pop().expect("one tile"),
            Gathered::Tiles(tiles) => {
                let parts: Vec<&BitSlicedIntVec> = tiles.iter().map(|t| t.as_ref()).collect();
                Arc::new(BitSlicedIntVec::concat(&parts))
            }
        }
    }

    /// The lanes mapped through `map` (transposed 64 lanes at a time,
    /// straight into the returned vector).
    fn values<T: Clone>(&self, map: fn(u64) -> T) -> Vec<T> {
        match self {
            Gathered::Splat { value, lanes } => vec![map(*value); *lanes],
            Gathered::Tiles(tiles) => {
                let mut out = Vec::with_capacity(tiles.iter().map(|t| t.len()).sum());
                for t in tiles {
                    t.extend_values(&mut out, map);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::plan::PLAN_CACHE_CAP;

    /// A host-only session: compilation does not depend on placement, so
    /// the plan cache needs no DRAM device to test.
    fn host_session() -> TensorSession {
        let cpu = CpuBackend::new("cpu", CpuModel::new(CpuConfig::skylake_ddr3()));
        TensorSession::new(
            Runtime::new().with(Box::new(cpu)),
            TensorConfig {
                placement: Placement::Forced("cpu".into()),
                ..TensorConfig::default()
            },
        )
    }

    fn lanes(n: usize, mult: u64) -> Vec<u64> {
        (0..n as u64)
            .map(|i| (i.wrapping_mul(mult) >> 7) & 0xff)
            .collect()
    }

    /// A freshly built add/xor chain over new sources, structurally the
    /// same on every call, deep enough to split under a tight budget.
    fn chain(av: &[u64], bv: &[u64]) -> PimTensor<u8> {
        let a = PimTensor::<u8>::from_u64_values(av.to_vec());
        let b = PimTensor::<u8>::from_u64_values(bv.to_vec());
        let mut acc = &a + &b;
        for i in 0..24 {
            acc = if i % 2 == 0 { &acc ^ &b } else { &acc + &a };
        }
        acc
    }

    fn chain_scalar(av: &[u64], bv: &[u64]) -> Vec<u8> {
        av.iter()
            .zip(bv)
            .map(|(&a, &b)| {
                let (a, b) = (a as u8, b as u8);
                (0..24).fold(a.wrapping_add(b), |acc, i| {
                    if i % 2 == 0 {
                        acc ^ b
                    } else {
                        acc.wrapping_add(a)
                    }
                })
            })
            .collect()
    }

    #[test]
    fn identical_expressions_compile_once() {
        let (av, bv) = (lanes(200, 0x9e37_79b9), lanes(200, 0xc2b2_ae3d));
        let want = chain_scalar(&av, &bv);
        let mut sess = host_session();
        assert_eq!(sess.eval(&chain(&av, &bv)).unwrap(), want);
        let first = sess.plans.entries();
        assert_eq!(first.len(), 1);

        assert_eq!(sess.eval(&chain(&av, &bv)).unwrap(), want);
        let second = sess.plans.entries();
        assert_eq!(second.len(), 1, "the same graph compiled again");
        let program = |c: &[Arc<crate::plan::Compiled>]| c[0].stages[0].program.clone();
        assert!(Arc::ptr_eq(&program(&first), &program(&second)));
    }

    #[test]
    fn a_lower_scratch_budget_compiles_a_more_staged_plan() {
        // Six sums that all stay live to the end: 48 planes at once.
        let wide = |a: &PimTensor<u8>| {
            let d: Vec<PimTensor<u8>> =
                (1..=6).map(|k| a + &PimTensor::splat(k, a.len())).collect();
            let x = d[1..].iter().fold(d[0].clone(), |acc, v| &acc ^ v);
            d.iter().fold(x, |acc, v| &acc + v)
        };
        let av = lanes(128, 0x2545_f491);
        let want: Vec<u8> = av
            .iter()
            .map(|&a| {
                let d: Vec<u8> = (1..=6).map(|k| (a as u8).wrapping_add(k)).collect();
                let x = d[1..].iter().fold(d[0], |acc, v| acc ^ v);
                d.iter().fold(x, |acc, &v| acc.wrapping_add(v))
            })
            .collect();
        let mut sess = host_session();
        let fresh = || wide(&PimTensor::<u8>::from_u64_values(av.clone()));
        assert_eq!(sess.eval(&fresh()).unwrap(), want);
        let roomy = sess.plans.entries()[0].stages.len();

        sess.config_mut().scratch_budget = 14;
        assert_eq!(sess.eval(&fresh()).unwrap(), want);
        let entries = sess.plans.entries();
        assert_eq!(entries.len(), 2, "the budget is part of the key");
        let tight = entries.iter().map(|c| c.stages.len()).max().unwrap();
        assert!(
            tight > roomy,
            "{tight} stages under budget 14, {roomy} at the default"
        );
    }

    #[test]
    fn the_plan_cache_stays_within_its_cap() {
        let av = lanes(64, 0xff51_afd7);
        let a = PimTensor::<u8>::from_u64_values(av.clone());
        let mut sess = host_session();
        for k in 0..=2 * PLAN_CACHE_CAP as u8 {
            let got = sess.eval(&(&a ^ &PimTensor::splat(k, 64))).unwrap();
            let want: Vec<u8> = av.iter().map(|&v| v as u8 ^ k).collect();
            assert_eq!(got, want, "splat {k}");
            assert!(sess.plans.entries().len() <= PLAN_CACHE_CAP);
        }
    }

    #[test]
    fn a_sum_compiles_its_level_graph_once() {
        // 1000 → 500 → 250 → 125 → 63 lanes: an odd level pads with the
        // identity, and every level runs the one cached add.
        let av = lanes(1000, 0xc4ce_b9fe);
        let mut sess = host_session();
        let t = PimTensor::<u8>::from_u64_values(av.clone());
        assert_eq!(sess.sum(&t).unwrap(), av.iter().sum::<u64>());
        assert_eq!(
            sess.plans.entries().len(),
            2,
            "the widening root and one level add"
        );
        let min = av.iter().copied().min().unwrap() as u8;
        assert_eq!(sess.min(&t).unwrap(), min);
    }

    #[test]
    fn a_source_slices_once() {
        let t = PimTensor::<u8>::from_u64_values(lanes(300, 0x94d0_49bb));
        let Expr::Source { lanes, width } = &*t.expr else {
            unreachable!("a tensor from values is a source")
        };
        let mut sess = host_session();
        sess.eval(&(&t + &t)).unwrap();
        let first = lanes.sliced(*width);
        sess.eval(&(&t ^ &t)).unwrap();
        assert!(Arc::ptr_eq(&first, &lanes.sliced(*width)));
    }
}
