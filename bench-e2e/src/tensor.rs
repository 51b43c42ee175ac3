//! `tensor_ml`: one long-lived `TensorSession::ddr3()` evaluating the
//! seven E12 expressions in turn at 65,536 lanes — vector add, exact
//! reduction sum, 16-bin histogram, k-means assignment (energy
//! objective), linear and logistic regression inference, and a 32-bit
//! multiply the advisor keeps on the host.

use crate::spans::{self, scope};
use crate::timed::{Capture, SharedCapture, Timed};
use crate::workload::{Scale, Tally, Workload};
use pim_ambit::{AmbitConfig, AmbitSystem};
use pim_core::Objective;
use pim_host::{CpuConfig, CpuModel};
use pim_runtime::{AmbitBackend, CpuBackend, Job, JobOutput, Placement, Runtime};
use pim_simd::{CompiledProgram, Compiler};
use pim_tensor::{PimTensor, TensorConfig, TensorSession};
use pim_workloads::BitSlicedIntVec;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// K-means centroids over two 7-bit features (E12).
const CENTROIDS: [[u8; 2]; 4] = [[16, 24], [48, 80], [96, 32], [112, 112]];
/// Regression weights as power-of-two shifts, bias and class threshold
/// (E12's fixed-point model).
const WEIGHT_SHIFTS: [u32; 4] = [1, 4, 3, 5];
const BIAS: u32 = 1000;
const THRESHOLD: u32 = 8000;

/// E12's per-input hash multipliers; seed 0 reproduces E12's lanes.
const MULTS: [u64; 12] = [
    0x9e37_79b9_7f4a_7c15,
    0xc2b2_ae3d_27d4_eb4f,
    0x2545_f491_4f6c_dd1d,
    0xd6e8_feb8_6659_fd93,
    0xff51_afd7_ed55_8ccd,
    0xc4ce_b9fe_1a85_ec53,
    0x94d0_49bb_1331_11eb,
    0xbf58_476d_1ce4_e5b9,
    0x2127_599b_f432_5c37,
    0x6eed_0e9d_a4d9_4a4f,
    0x8cb9_2ba7_2f3d_8dd7,
    0xa24b_aed4_963e_e407,
];

fn hash_lanes(n: usize, mult: u64, bits: u32) -> Vec<u64> {
    let mask = if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    (0..n as u64)
        .map(|i| (i.wrapping_mul(mult) >> 13) & mask)
        .collect()
}

/// The generated sources, as tensors built once (the data a user would
/// already hold when issuing expressions).
struct Sources {
    add: [PimTensor<u32>; 2],
    sum: PimTensor<u32>,
    hist: PimTensor<u8>,
    km: [PimTensor<u8>; 2],
    reg: [PimTensor<u8>; 4],
    mul: [PimTensor<u32>; 2],
}

/// Program objects: the session, plus in traced runs the jobs each
/// backend shim saw.
pub struct Program {
    sess: TensorSession,
    ambit: Option<SharedCapture>,
    host: Option<SharedCapture>,
}

#[derive(Debug, Default)]
struct TwinStats {
    ambit_jobs: u64,
    host_jobs: u64,
    batched: u64,
    commands: u64,
}

/// The tensor workload.
pub struct TensorMl {
    lanes: usize,
    src: Sources,
    want: Vec<Vec<u64>>,
    twin: Option<AmbitSystem>,
    stats: TwinStats,
}

impl TensorMl {
    /// Generates the seed's lanes and the scalar reference of every
    /// expression.
    pub fn new(scale: Scale, seed: u64) -> Self {
        let lanes = match scale {
            Scale::Full => 1 << 16,
            Scale::Smoke => 1 << 12,
        };
        let seed_mix = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) << 1;
        let lane = |k: usize, bits: u32| hash_lanes(lanes, MULTS[k].wrapping_add(seed_mix), bits);
        let add = [lane(0, 32), lane(1, 32)];
        let sum = lane(2, 32);
        let hist = lane(3, 8);
        let km = [lane(4, 7), lane(5, 7)];
        let reg = [lane(6, 8), lane(7, 8), lane(8, 8), lane(9, 8)];
        let mul = [lane(10, 32), lane(11, 32)];

        let score = |i: usize| -> u64 {
            reg.iter()
                .zip(WEIGHT_SHIFTS)
                .map(|(x, s)| x[i] << s)
                .sum::<u64>()
                + u64::from(BIAS)
        };
        let mut histogram = vec![0u64; 16];
        for &v in &hist {
            histogram[(v >> 4) as usize] += 1;
        }
        let want = vec![
            (0..lanes)
                .map(|i| u64::from((add[0][i] as u32).wrapping_add(add[1][i] as u32)))
                .collect(),
            vec![sum.iter().sum()],
            histogram,
            (0..lanes)
                .map(|i| {
                    let (mut best_k, mut best_d) = (0u64, u64::MAX);
                    for (k, c) in CENTROIDS.iter().enumerate() {
                        let d: u64 = (0..2).map(|f| km[f][i].abs_diff(u64::from(c[f]))).sum();
                        if d < best_d {
                            (best_k, best_d) = (k as u64, d);
                        }
                    }
                    best_k
                })
                .collect(),
            (0..lanes).map(score).collect(),
            (0..lanes)
                .map(|i| u64::from(score(i) >= u64::from(THRESHOLD)))
                .collect(),
            (0..lanes).map(|i| mul[0][i] * mul[1][i]).collect(),
        ];
        let t32 = |v: &Vec<u64>| PimTensor::<u32>::from_u64_values(v.clone());
        let t8 = |v: &Vec<u64>| PimTensor::<u8>::from_u64_values(v.clone());
        let src = Sources {
            add: [t32(&add[0]), t32(&add[1])],
            sum: t32(&sum),
            hist: t8(&hist),
            km: [t8(&km[0]), t8(&km[1])],
            reg: [t8(&reg[0]), t8(&reg[1]), t8(&reg[2]), t8(&reg[3])],
            mul: [t32(&mul[0]), t32(&mul[1])],
        };
        TensorMl {
            lanes,
            src,
            want,
            twin: None,
            stats: TwinStats::default(),
        }
    }

    fn l1_dist(&self, c: [u8; 2]) -> PimTensor<u8> {
        let mut acc: Option<PimTensor<u8>> = None;
        for (x, c) in self.src.km.iter().zip(c) {
            let c = PimTensor::<u8>::splat(c, self.lanes);
            let diff = x.lt(&c).select(&(&c - x), &(x - &c));
            acc = Some(match acc {
                Some(a) => &a + &diff,
                None => diff,
            });
        }
        acc.expect("two features")
    }

    fn score(&self) -> PimTensor<u32> {
        let mut acc = PimTensor::<u32>::splat(BIAS, self.lanes);
        for (x, s) in self.src.reg.iter().zip(WEIGHT_SHIFTS) {
            let x: PimTensor<u32> = x.widen();
            acc = &acc + &x.shl(s);
        }
        acc
    }

    /// Evaluates expression `k` of the mix.
    fn eval(&self, sess: &mut TensorSession, k: usize) -> pim_tensor::Result<Vec<u64>> {
        let widen = |v: Vec<u32>| v.into_iter().map(u64::from).collect();
        let s = &self.src;
        match k {
            0 => sess.eval(&(&s.add[0] + &s.add[1])).map(widen),
            1 => sess.sum(&s.sum).map(|v| vec![v]),
            2 => sess.histogram(&s.hist, 16),
            3 => {
                let mut best_d = self.l1_dist(CENTROIDS[0]);
                let mut best_k = PimTensor::<u8>::splat(0, self.lanes);
                for (k, c) in CENTROIDS.iter().enumerate().skip(1) {
                    let d = self.l1_dist(*c);
                    let closer = d.lt(&best_d);
                    best_d = closer.select(&d, &best_d);
                    best_k = closer.select(&PimTensor::<u8>::splat(k as u8, self.lanes), &best_k);
                }
                sess.eval(&best_k)
                    .map(|v| v.into_iter().map(u64::from).collect())
            }
            4 => sess.eval(&self.score()).map(widen),
            5 => {
                let class = self
                    .score()
                    .lt(&PimTensor::<u32>::splat(THRESHOLD, self.lanes))
                    .not();
                sess.eval_mask(&class)
                    .map(|v| v.into_iter().map(u64::from).collect())
            }
            _ => sess.eval(&(&s.mul[0] * &s.mul[1])),
        }
    }
}

/// Recompiles a program from its source graph (timed as `simd.compile`)
/// and checks the instruction stream is the one the session compiled.
fn recompile_matches(program: &CompiledProgram, budget: u32) -> bool {
    let again = scope("simd.compile", || {
        Compiler::new()
            .with_scratch_budget(budget)
            .compile(program.source_graph())
    });
    again.is_ok_and(|p| p.insts() == program.insts() && p.stats() == program.stats())
}

impl Workload for TensorMl {
    type Program = Program;
    /// Lane values and the modeled device-busy time they took.
    type Output = (Vec<u64>, f64);

    fn round_len(&self) -> usize {
        self.want.len()
    }

    fn build(&self, traced: bool) -> Program {
        if !traced {
            return Program {
                sess: TensorSession::ddr3(),
                ambit: None,
                host: None,
            };
        }
        // The same two sites and tiling as `TensorSession::ddr3`, each
        // behind a shim.
        let ambit_cap = SharedCapture::new(RefCell::new(Capture {
            jobs: Vec::new(),
            outputs: Some(BTreeMap::new()),
        }));
        let host_cap = SharedCapture::default();
        let ambit = AmbitBackend::new("ambit", AmbitConfig::ddr3());
        let org = &ambit.system().spec().org;
        let tile_lanes = org.total_banks() as usize * org.row_bits() as usize;
        let cpu = CpuBackend::new("cpu", CpuModel::new(CpuConfig::skylake_ddr3()));
        let runtime = Runtime::new()
            .with(Box::new(
                Timed::new(cpu, "host").capturing(host_cap.clone()),
            ))
            .with(Box::new(
                Timed::new(ambit, "ambit").capturing(ambit_cap.clone()),
            ));
        let sess = TensorSession::new(
            runtime,
            TensorConfig {
                tile_lanes,
                ..TensorConfig::default()
            },
        );
        Program {
            sess,
            ambit: Some(ambit_cap),
            host: Some(host_cap),
        }
    }

    fn request(&self, p: &mut Program, i: usize) -> Result<(Vec<u64>, f64), String> {
        let k = i % self.round_len();
        // Clustering is a latency-tolerant batch job: E12 places it
        // under the energy objective.
        let objective = if k == 3 {
            Objective::Energy
        } else {
            Objective::Time
        };
        p.sess.config_mut().placement = Placement::Advised(objective);
        let values =
            scope("tensor.eval", || self.eval(&mut p.sess, k)).map_err(|e| e.to_string())?;
        Ok((values, p.sess.take_modeled_cost().0))
    }

    fn check(&self, i: usize, (values, modeled_ns): &(Vec<u64>, f64)) -> Result<Tally, String> {
        let k = i % self.round_len();
        if *values != self.want[k] {
            return Err(format!("expression {k} differs from its scalar reference"));
        }
        Ok(Tally {
            work: self.lanes as u64,
            modeled_ns: *modeled_ns,
        })
    }

    fn twins(&mut self, p: &mut Program, _i: usize, _out: &(Vec<u64>, f64)) -> u64 {
        let (Some(ambit), Some(host)) = (&p.ambit, &p.host) else {
            return 0;
        };
        let host_jobs = std::mem::take(&mut host.borrow_mut().jobs).len();
        let (jobs, outputs) = {
            let mut c = ambit.borrow_mut();
            let outputs = c.outputs.as_mut().map(std::mem::take).unwrap_or_default();
            (std::mem::take(&mut c.jobs), outputs)
        };
        self.stats.host_jobs += host_jobs as u64;
        self.stats.ambit_jobs += jobs.len() as u64;
        let budget = p.sess.config().scratch_budget;
        let mut twin = self
            .twin
            .take()
            .unwrap_or_else(|| AmbitSystem::new(AmbitConfig::ddr3()));
        let before = *twin.counts();
        twin.reset_batched_commands();
        let mut compiled = BTreeSet::new();
        let mut mismatches = 0;
        for (id, job) in &jobs {
            let Job::SimdProgram { program, inputs } = job else {
                continue;
            };
            if compiled.insert(Arc::as_ptr(program)) && !recompile_matches(program, budget) {
                spans::discard_last();
                mismatches += 1;
            }
            let refs: Vec<&BitSlicedIntVec> = inputs.iter().map(|v| v.as_ref()).collect();
            let outs = scope("ambit.row_program", || program.execute(&mut twin, &refs));
            let same = match (outs, outputs.get(id)) {
                (Ok((outs, _)), Some(JobOutput::Sliced(want))) => outs == *want,
                _ => false,
            };
            if !same {
                spans::discard_last();
                mismatches += 1;
            }
        }
        self.stats.batched += twin.batched_commands();
        self.stats.commands += twin.counts().since(&before).total();
        self.twin = Some(twin);
        mismatches
    }

    fn layer_values(&self) -> Vec<(&'static str, f64)> {
        let s = &self.stats;
        vec![
            (
                "ambit.batched_frac",
                s.batched as f64 / s.commands.max(1) as f64,
            ),
            (
                "tensor.host_fallback_frac",
                s.host_jobs as f64 / (s.host_jobs + s.ambit_jobs).max(1) as f64,
            ),
        ]
    }
}
