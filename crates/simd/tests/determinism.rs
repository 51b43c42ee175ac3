//! Compiled-program determinism across thread counts: the same μprogram
//! on a 2-channel, 2-rank device must produce byte-identical outputs,
//! normalized trace bytes, and telemetry snapshots under a pool of 1, 2,
//! 4, or 8 worker threads — and every captured trace must pass the
//! pim-check protocol oracle.

use pim_ambit::{AmbitConfig, AmbitSystem};
use pim_dram::{DramSpec, Observer, Projection};
use pim_simd::{CompiledProgram, Compiler, OpGraph};
use pim_telemetry::Snapshot;
use pim_workloads::BitSlicedIntVec;

/// Runs `f` under a rayon pool fixed at `n` threads.
fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .expect("pool")
        .install(f)
}

/// Everything observable from one compiled-program run.
struct RunFingerprint {
    outs: Vec<Vec<u64>>,
    trace: Vec<u8>,
    telemetry: String,
}

/// A 2ch x 2ra x 8ba DDR3 device, so lane chunks spread across channels
/// and ranks.
fn two_channel_config() -> AmbitConfig {
    let mut cfg = AmbitConfig::ddr3();
    cfg.spec = DramSpec::ddr3_1600().with_channels(2).with_ranks(2);
    cfg
}

/// Executes `program` over `inputs` on the current pool with tracing and
/// telemetry on, and fingerprints every observable.
fn run_program(program: &CompiledProgram, inputs: &[&BitSlicedIntVec]) -> RunFingerprint {
    let mut sys = AmbitSystem::new(two_channel_config());
    sys.set_trace(true);
    sys.observe(Projection::Telemetry, true);
    let (outs, _report) = program.execute(&mut sys, inputs).expect("execute");
    let spec = sys.spec().clone();
    let trace = pim_check::Trace::capture(spec, sys.take_trace()).to_bytes();
    let sink = sys.observer_mut().and_then(Observer::take_telemetry);
    let telemetry = Snapshot::from_sink(sink.expect("telemetry on")).to_json_string();
    RunFingerprint {
        outs: outs.iter().map(BitSlicedIntVec::to_values).collect(),
        trace,
        telemetry,
    }
}

/// The conformance workload: add, mul, and lt at 8 bits in one graph —
/// ripple chains, partial-product churn, and a single-plane predicate.
fn workload() -> (CompiledProgram, Vec<BitSlicedIntVec>) {
    let mut g = OpGraph::builder();
    let a = g.input(8);
    let b = g.input(8);
    let sum = g.add(a, b);
    let prod = g.mul(a, b);
    let lt = g.lt(a, b);
    g.output(sum);
    g.output(prod);
    g.output(lt);
    let graph = g.finish();
    let program = Compiler::new().compile(&graph).expect("compile");
    // Enough lanes to span several chunks on the 32-bank device.
    let n = 4096u64;
    let av: Vec<u64> = (0..n).map(|i| i.wrapping_mul(193) & 0xFF).collect();
    let bv: Vec<u64> = (0..n)
        .map(|i| i.wrapping_mul(77).wrapping_add(13) & 0xFF)
        .collect();
    let inputs = vec![
        BitSlicedIntVec::from_values(&av, 8),
        BitSlicedIntVec::from_values(&bv, 8),
    ];
    (program, inputs)
}

/// The headline invariant: replays of one compiled μprogram are
/// indistinguishable in outputs, trace bytes, and telemetry at every
/// thread count, and the reference trace passes the protocol oracle.
#[test]
fn compiled_programs_are_shard_and_thread_invariant() {
    let (program, inputs) = workload();
    let refs: Vec<&BitSlicedIntVec> = inputs.iter().collect();
    let base = with_threads(1, || run_program(&program, &refs));

    // Cross-check the sequential outputs against the host reference
    // before comparing thread counts against each other.
    assert_eq!(base.outs.len(), 3);
    for (i, (a, b)) in inputs[0]
        .to_values()
        .iter()
        .zip(inputs[1].to_values())
        .enumerate()
    {
        assert_eq!(base.outs[0][i], (a + b) & 0xFF);
        assert_eq!(base.outs[1][i], a * b);
        assert_eq!(base.outs[2][i], u64::from(*a < b));
    }

    pim_check::check_trace(
        &pim_check::Trace::from_bytes(&base.trace).expect("trace parses"),
        pim_check::CheckOptions::timing_only(),
    )
    .expect("oracle accepts the sequential compiled-program trace");

    for threads in [2usize, 4, 8] {
        let run = with_threads(threads, || run_program(&program, &refs));
        assert_eq!(run.outs, base.outs, "outputs @ {threads}");
        assert_eq!(run.trace, base.trace, "trace bytes @ {threads}");
        assert_eq!(
            run.telemetry, base.telemetry,
            "telemetry snapshot @ {threads}"
        );
    }
}
