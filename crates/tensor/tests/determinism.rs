//! Tiling and scheduling determinism: a tensor evaluation must be
//! byte-identical whether it runs as one untiled job, many bank-tiles,
//! or on the host reference — at any rayon thread count. Command traces
//! from the DRAM paths must satisfy the protocol oracle.

use pim_ambit::AmbitConfig;
use pim_host::{CpuConfig, CpuModel};
use pim_runtime::{AmbitBackend, CpuBackend, Placement, Runtime};
use pim_tensor::{PimTensor, TensorConfig, TensorSession};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Runs `f` under a rayon pool fixed at `n` threads.
fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .expect("pool")
        .install(f)
}

/// A session with one Ambit device, forced placement, and `tile_lanes`
/// tiling (`0` = untiled).
fn ambit_session(tile_lanes: usize) -> TensorSession {
    let ambit = AmbitBackend::new("ambit", AmbitConfig::ddr3());
    TensorSession::new(
        Runtime::new().with(Box::new(ambit)),
        TensorConfig {
            tile_lanes,
            placement: Placement::Forced("ambit".into()),
            ..TensorConfig::default()
        },
    )
}

/// The host oracle: the same plan executed by the CPU backend's
/// reference interpreter.
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

fn gen_lanes(n: usize, seed: u64, bits: u32) -> Vec<u64> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mask = if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    (0..n).map(|_| rng.gen::<u64>() & mask).collect()
}

/// Records the shared test expression over two u16 tensors: an
/// add/xor/select chain deep enough to exercise carry logic and
/// comparisons in one fused program.
fn chain(av: &[u64], bv: &[u64]) -> PimTensor<u16> {
    let a = PimTensor::<u16>::from_u64_values(av.to_vec());
    let b = PimTensor::<u16>::from_u64_values(bv.to_vec());
    let s = &a + &b;
    let x = &s ^ &a;
    x.lt(&b).select(&(&x & &b), &s)
}

/// Scalar model of [`chain`].
fn chain_scalar(av: &[u64], bv: &[u64]) -> Vec<u16> {
    av.iter()
        .zip(bv)
        .map(|(&a, &b)| {
            let (a, b) = (a as u16, b as u16);
            let s = a.wrapping_add(b);
            let x = s ^ a;
            if x < b {
                x & b
            } else {
                s
            }
        })
        .collect()
}

fn run(sess: &mut TensorSession, av: &[u64], bv: &[u64]) -> Vec<u16> {
    let t = chain(av, bv);
    sess.eval(&t).expect("eval")
}

fn assert_oracle_accepts(sess: &mut TensorSession) {
    let traces = sess.runtime_mut().take_traces();
    assert!(!traces.is_empty(), "tracing was enabled");
    for (backend, spec, records) in traces {
        let trace = pim_check::Trace::capture(spec, records);
        if let Err(v) = pim_check::check_trace(&trace, pim_check::CheckOptions::timing_only()) {
            panic!("oracle rejected {backend} trace: {v}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The satellite acceptance property: tiled multi-job evaluation is
    /// byte-identical to a single untiled job and to the host reference,
    /// at any thread count, at generated lane counts and tile sizes that
    /// leave ragged final tiles.
    #[test]
    fn tiled_equals_untiled_equals_host(
        lanes in 1usize..600,
        tile in 1usize..97,
        seed in 0u64..1_000,
    ) {
        let av = gen_lanes(lanes, seed, 16);
        let bv = gen_lanes(lanes, seed ^ 0x5EED, 16);
        let want = chain_scalar(&av, &bv);

        let host = run(&mut host_session(), &av, &bv);
        prop_assert_eq!(&host, &want);

        let untiled = with_threads(1, || run(&mut ambit_session(0), &av, &bv));
        prop_assert_eq!(&untiled, &want);

        for threads in [1usize, 4] {
            let mut sess = ambit_session(tile);
            sess.runtime_mut().set_trace(true);
            let tiled = with_threads(threads, || run(&mut sess, &av, &bv));
            prop_assert_eq!(&tiled, &want, "{} threads tile {}", threads, tile);
            assert_oracle_accepts(&mut sess);
        }
    }
}

/// Reductions agree between the DRAM tree (tiled) and the host path,
/// including the staged-split planner under a tight scratch budget.
#[test]
fn tiled_reduction_matches_host() {
    let av = gen_lanes(777, 99, 32);
    let a = || PimTensor::<u32>::from_u64_values(av.clone());

    let mut dram = ambit_session(128);
    let mut host = host_session();
    assert_eq!(dram.sum(&a()).unwrap(), av.iter().sum::<u64>());
    assert_eq!(dram.sum(&a()).unwrap(), host.sum(&a()).unwrap());
    assert_eq!(dram.min(&a()).unwrap(), *av.iter().min().unwrap() as u32);
}

/// Mask counts popcount the 1-bit tile planes without widening them:
/// `histogram`, `count_ones` and `eval_mask` match scalar references on
/// a ragged tiling (1,000 lanes in tiles of 384, a 232-lane last tile
/// that ends mid-word), and a source-free mask counts on the host.
#[test]
fn ragged_tile_mask_counts_match_scalar() {
    let lanes = 1000;
    let hv = gen_lanes(lanes, 41, 8);
    let av = gen_lanes(lanes, 42, 16);
    let bv = gen_lanes(lanes, 43, 16);
    let mut sess = ambit_session(384);

    let h = PimTensor::<u8>::from_u64_values(hv.clone());
    let mut want = vec![0u64; 16];
    for &v in &hv {
        want[(v >> 4) as usize] += 1;
    }
    assert_eq!(sess.histogram(&h, 16).unwrap(), want);

    let a = PimTensor::<u16>::from_u64_values(av.clone());
    let b = PimTensor::<u16>::from_u64_values(bv.clone());
    let lt: Vec<bool> = av.iter().zip(&bv).map(|(x, y)| x < y).collect();
    assert_eq!(sess.eval_mask(&a.lt(&b)).unwrap(), lt);
    assert_eq!(
        sess.count_ones(&a.lt(&b)).unwrap(),
        lt.iter().filter(|&&x| x).count() as u64
    );

    let three = PimTensor::<u8>::splat(3, lanes);
    let five = PimTensor::<u8>::splat(5, lanes);
    assert_eq!(sess.count_ones(&three.lt(&five)).unwrap(), lanes as u64);
    assert_eq!(sess.count_ones(&five.lt(&three)).unwrap(), 0);
    assert_eq!(sess.eval_mask(&three.lt(&five)).unwrap(), vec![true; lanes]);
}

mod thread_invariance {
    use super::*;
    use pim_telemetry::TelemetrySink;

    /// `tensor.*` planning counters the session records for one
    /// evaluation, for cross-thread-count comparison.
    fn tensor_counters(sink: &TelemetrySink) -> Vec<(&'static str, u64)> {
        [
            "tensor.plans",
            "tensor.stages",
            "tensor.scratch_splits",
            "tensor.tiles",
            "tensor.jobs",
            "tensor.fallback_host",
        ]
        .into_iter()
        .map(|name| (name, sink.counter(name, 0)))
        .collect()
    }

    fn run_with_telemetry() -> (Vec<u16>, Vec<(&'static str, u64)>) {
        let av = gen_lanes(1234, 7, 16);
        let bv = gen_lanes(1234, 8, 16);
        let mut sess = ambit_session(100);
        sess.set_telemetry(true);
        let out = run(&mut sess, &av, &bv);
        let sink = sess.take_telemetry().expect("telemetry enabled");
        (out, tensor_counters(&sink))
    }

    /// Outputs and `tensor.*` telemetry must not depend on the rayon
    /// pool size.
    #[test]
    fn results_and_telemetry_identical_across_thread_counts() {
        let base = with_threads(1, run_with_telemetry);
        assert!(base.1.iter().any(|&(_, v)| v > 0), "counters recorded");
        for threads in [2usize, 4, 8] {
            let other = with_threads(threads, run_with_telemetry);
            assert_eq!(base.0, other.0, "outputs differ at {threads} threads");
            assert_eq!(base.1, other.1, "telemetry differs at {threads} threads");
        }
    }
}

/// Advised placement sends wide multiplies to the host and counts the
/// fallback in telemetry; narrow adds stay in DRAM.
#[test]
fn advised_placement_falls_back_on_wide_mul() {
    let mut sess = TensorSession::ddr3();
    sess.set_telemetry(true);

    let av = gen_lanes(256, 21, 32);
    let bv = gen_lanes(256, 22, 32);
    let a = PimTensor::<u32>::from_u64_values(av.clone());
    let b = PimTensor::<u32>::from_u64_values(bv.clone());

    // Wide multiply: quadratic bit-serial cost loses to the host loop.
    let p: PimTensor<u64> = &a * &b;
    let got = sess.eval(&p).unwrap();
    for i in 0..av.len() {
        assert_eq!(got[i], av[i] * bv[i], "lane {i}");
    }
    assert!(
        sess.last_decisions().iter().all(|d| d.backend == "cpu"),
        "wide mul should stay on the host"
    );
    let sink = sess.take_telemetry().expect("telemetry enabled");
    assert!(sink.counter("tensor.fallback_host", 0) > 0);

    // Narrow add at full-wave lane counts: bank-parallel bit-serial
    // amortizes its fixed command cost and wins, so offload is advised.
    // (At a few hundred lanes the host loop wins even for add — the
    // advisor is cost-based, not op-based.)
    sess.set_telemetry(true);
    let lanes = sess.config().tile_lanes.max(1 << 16);
    let av = gen_lanes(lanes, 23, 32);
    let bv = gen_lanes(lanes, 24, 32);
    let a = PimTensor::<u32>::from_u64_values(av.clone());
    let b = PimTensor::<u32>::from_u64_values(bv.clone());
    let s = &a + &b;
    let got = sess.eval(&s).unwrap();
    for i in 0..av.len() {
        assert_eq!(
            u64::from(got[i]),
            (av[i] as u32).wrapping_add(bv[i] as u32) as u64
        );
    }
    assert!(
        sess.last_decisions().iter().all(|d| d.backend == "ambit"),
        "narrow add should offload"
    );
    let advised = &sess.last_decisions()[0].advised;
    let adv = advised.as_ref().expect("advisor compared costs");
    assert!(adv.offload && adv.pim_time_ns < adv.host_time_ns);
    let sink = sess.take_telemetry().expect("telemetry enabled");
    assert_eq!(sink.counter("tensor.fallback_host", 0), 0);
}
