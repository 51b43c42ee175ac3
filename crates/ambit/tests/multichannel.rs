//! Multi-channel determinism: arbitrary Ambit programs on a 2-channel,
//! 2-rank device must produce byte-identical data, normalized trace
//! bytes, and telemetry snapshots under a pool of one, 4 or 8 worker
//! threads. The engine replays on the calling thread, so the pool size
//! must never reach an observable; the oracle also accepts the
//! cross-channel trace.

use pim_ambit::{AmbitConfig, AmbitSystem};
use pim_dram::{DramSpec, Observer, Projection};
use pim_telemetry::Snapshot;
use pim_workloads::{BitVec, BulkOp};
use proptest::prelude::*;
use rand::SeedableRng;

/// Runs `f` under a rayon pool fixed at `n` threads.
fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .expect("pool")
        .install(f)
}

/// Everything observable from one run: per-step outputs, the normalized
/// trace bytes, and the canonical telemetry snapshot JSON.
struct RunFingerprint {
    outs: Vec<BitVec>,
    trace: Vec<u8>,
    telemetry: String,
    faults: u64,
}

/// A 2ch x 2ra x 8ba DDR3 device — 32 banks, so generated programs span
/// several channels and several ranks within each channel.
fn two_channel_config(rate: f64) -> AmbitConfig {
    let mut cfg = AmbitConfig::ddr3();
    cfg.spec = DramSpec::ddr3_1600().with_channels(2).with_ranks(2);
    cfg.tra_failure_rate = rate;
    cfg.fault_seed = 0xC0FFEE;
    cfg
}

/// One step of a generated program: the 7 bulk ops, a RowClone copy, or
/// a fill.
fn run_step(
    sys: &mut AmbitSystem,
    step: u8,
    a: &pim_ambit::BulkVec,
    b: &pim_ambit::BulkVec,
    out: &pim_ambit::BulkVec,
) {
    match step {
        s if (s as usize) < BulkOp::ALL.len() => {
            let op = BulkOp::ALL[s as usize];
            let rhs = if op.is_unary() { None } else { Some(b) };
            sys.execute(op, a, rhs, out).expect("execute");
        }
        7 => {
            sys.copy(a, out).expect("copy");
        }
        _ => {
            sys.fill(out, true).expect("fill");
        }
    }
}

/// Runs a generated program spanning `banks` bank-rows on the current
/// pool, with tracing and telemetry on, and fingerprints every observable.
fn run_program(banks: usize, program: &[u8], seed: u64, rate: f64) -> RunFingerprint {
    let mut sys = AmbitSystem::new(two_channel_config(rate));
    sys.set_trace(true);
    sys.observe(Projection::Telemetry, true);
    let bits = sys.row_bits() * banks;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let a = sys.alloc(bits).expect("alloc a");
    let b = sys.alloc(bits).expect("alloc b");
    let out = sys.alloc(bits).expect("alloc out");
    sys.write(&a, &BitVec::random(bits, 0.5, &mut rng))
        .expect("write a");
    sys.write(&b, &BitVec::random(bits, 0.5, &mut rng))
        .expect("write b");
    let mut outs = Vec::new();
    for &step in program {
        run_step(&mut sys, step, &a, &b, &out);
        outs.push(sys.read(&out));
    }
    let spec = sys.spec().clone();
    let trace = pim_check::Trace::capture(spec, sys.take_trace()).to_bytes();
    let sink = sys.observer_mut().and_then(Observer::take_telemetry);
    let telemetry = Snapshot::from_sink(sink.expect("telemetry on")).to_json_string();
    RunFingerprint {
        outs,
        trace,
        telemetry,
        faults: sys.faults_injected(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The same multi-channel program is indistinguishable in every
    /// observable at every thread count.
    #[test]
    fn thread_counts_are_byte_identical(
        banks in 2usize..=32,
        program in proptest::collection::vec(0u8..9, 1..6),
        seed in 0u64..1_000,
    ) {
        let base = with_threads(1, || run_program(banks, &program, seed, 0.0));
        pim_check::check_trace(
            &pim_check::Trace::from_bytes(&base.trace).expect("trace parses"),
            pim_check::CheckOptions::timing_only(),
        )
        .expect("oracle accepts the sequential multi-channel trace");
        for threads in [4usize, 8] {
            let run = with_threads(threads, || run_program(banks, &program, seed, 0.0));
            prop_assert_eq!(&run.outs, &base.outs, "outputs @ {}", threads);
            prop_assert_eq!(&run.trace, &base.trace, "trace bytes @ {}", threads);
            prop_assert_eq!(&run.telemetry, &base.telemetry, "telemetry snapshot @ {}", threads);
        }
    }
}

/// Fault injection keys its RNG on absolute (site, chunk), so injected
/// fault patterns are also thread-count-invariant.
#[test]
fn fault_injection_is_thread_count_invariant() {
    let program = [0u8, 2, 6];
    let base = with_threads(1, || run_program(32, &program, 7, 0.01));
    assert!(base.faults > 0, "fault injection must fire");
    for threads in [4usize, 8] {
        let run = with_threads(threads, || run_program(32, &program, 7, 0.01));
        assert_eq!(run.outs, base.outs, "@ {threads} threads");
        assert_eq!(run.faults, base.faults, "@ {threads} threads");
    }
}
