//! Equivalence of the controller's batched-run fast path at the engine
//! level: for any bulk program, execution with batch issue enabled must
//! produce byte-identical outputs, command traces, telemetry snapshots,
//! and reports to per-command issue at any thread count, and the protocol
//! oracle must accept the batched trace. The only allowed difference is
//! the `batched_commands` diagnostic counter.

use pim_ambit::{AmbitConfig, AmbitSystem, ExecReport};
use pim_dram::{Observer, Projection};
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

struct RunResult {
    outs: Vec<BitVec>,
    reports: Vec<ExecReport>,
    trace: Vec<pim_dram::TraceRecord>,
    telemetry: String,
    spec: pim_dram::DramSpec,
    batched: u64,
}

/// Runs a generated bulk program (steps: the 7 bulk ops, RowClone copy,
/// fill) over `banks` bank-rows with trace + telemetry capture, with the
/// batched-run fast path on or off.
fn run_program(batch: bool, banks: usize, program: &[u8], seed: u64) -> RunResult {
    let mut sys = AmbitSystem::new(AmbitConfig::ddr3());
    sys.set_batch_issue(batch);
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
    let mut reports = Vec::new();
    for &step in program {
        let report = match step {
            s if (s as usize) < BulkOp::ALL.len() => {
                let op = BulkOp::ALL[s as usize];
                let rhs = (!op.is_unary()).then_some(&b);
                sys.execute(op, &a, rhs, &out).expect("execute")
            }
            7 => sys.copy(&a, &out).expect("copy"),
            _ => sys.fill(&out, true).expect("fill"),
        };
        reports.push(report);
        outs.push(sys.read(&out));
    }
    let spec = sys.spec().clone();
    let batched = sys.batched_commands();
    let sink = sys.observer_mut().and_then(Observer::take_telemetry);
    RunResult {
        outs,
        reports,
        trace: sys.take_trace(),
        telemetry: Snapshot::from_sink(sink.expect("telemetry on")).to_json_string(),
        spec,
        batched,
    }
}

#[test]
fn batch_issue_defaults_on_and_toggles() {
    let mut sys = AmbitSystem::new(AmbitConfig::ddr3());
    assert!(sys.batch_issue_enabled(), "fast path defaults on");
    sys.set_batch_issue(false);
    assert!(!sys.batch_issue_enabled());
}

#[test]
fn sequential_runs_batch_and_per_command_runs_do_not() {
    // The engine replays every op step's sites across all chunks in
    // strictly increasing order — one long run per instruction — so with
    // batching on every command takes the fast path, at any thread count.
    for threads in [1, 4] {
        let (on, off) = with_threads(threads, || {
            (
                run_program(true, 6, &[0, 2, 7, 8], 7),
                run_program(false, 6, &[0, 2, 7, 8], 7),
            )
        });
        let commands: u64 = on.reports.iter().map(|r| r.commands.total()).sum();
        assert!(commands > 0);
        assert_eq!(
            on.batched, commands,
            "{threads} threads: every command batches"
        );
        assert_eq!(off.batched, 0, "disabled fast path must never batch");
        assert_eq!(on.outs, off.outs, "{threads} threads: outputs diverged");
        assert_eq!(
            on.reports, off.reports,
            "{threads} threads: reports diverged"
        );
        assert_eq!(on.trace, off.trace, "{threads} threads: traces diverged");
        assert_eq!(
            on.telemetry, off.telemetry,
            "{threads} threads: telemetry diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For arbitrary programs, thread counts, and batch settings, every
    /// observable of the run is byte-identical, and the oracle accepts
    /// the batched trace.
    #[test]
    fn batched_execution_is_observably_identical(
        banks in 1usize..=8,
        program in proptest::collection::vec(0u8..9, 1..6),
        seed in 0u64..1_000,
    ) {
        let base = with_threads(1, || run_program(false, banks, &program, seed));
        let base_norm = pim_check::Trace::capture(base.spec.clone(), base.trace.clone()).to_bytes();
        for (threads, batch) in [(1, true), (4, true), (4, false), (8, true)] {
            let other = with_threads(threads, || run_program(batch, banks, &program, seed));
            prop_assert_eq!(&base.outs, &other.outs,
                "outputs differ: {} threads, batch {}", threads, batch);
            prop_assert_eq!(&base.reports, &other.reports,
                "reports differ: {} threads, batch {}", threads, batch);
            prop_assert_eq!(&base.telemetry, &other.telemetry,
                "telemetry differs: {} threads, batch {}", threads, batch);
            // One replay order at every thread count and batch setting, so
            // the *raw* record stream must match, not only the normalized one.
            prop_assert_eq!(&base.trace, &other.trace,
                "raw traces differ: {} threads, batch {}", threads, batch);
            let norm = pim_check::Trace::capture(other.spec, other.trace).to_bytes();
            prop_assert_eq!(&base_norm, &norm,
                "normalized traces differ: {} threads, batch {}", threads, batch);
        }

        // The batched sequential trace passes full protocol checking.
        let batched = with_threads(1, || run_program(true, banks, &program, seed));
        prop_assert!(batched.batched > 0 || banks == 1,
            "multi-bank programs must exercise the fast path");
        let trace = pim_check::Trace::capture(batched.spec, batched.trace);
        match pim_check::check_trace(&trace, pim_check::CheckOptions::timing_only()) {
            Ok(report) => prop_assert_eq!(report.commands, trace.records.len()),
            Err(v) => panic!("oracle rejected batched trace: {v}"),
        }
    }
}
