//! Runtime telemetry: job spans reconcile exactly with the completions
//! they describe, backpressure stays observable through `stats()`, and
//! the frozen snapshot is byte-identical at any thread count.

use pim_ambit::AmbitConfig;
use pim_core::Objective;
use pim_host::{CpuConfig, CpuModel};
use pim_runtime::{AmbitBackend, CpuBackend, Job, Placement, Runtime};
use pim_telemetry::Snapshot;
use pim_workloads::{BitVec, BulkOp};
use rand::SeedableRng;
use std::sync::Arc;

fn bulk_jobs(n: usize, bits: usize, seed: u64) -> Vec<Job> {
    let ops = [BulkOp::And, BulkOp::Or, BulkOp::Xor, BulkOp::Nand];
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let a = Arc::new(BitVec::random(bits, 0.5, &mut rng));
            let b = Arc::new(BitVec::random(bits, 0.5, &mut rng));
            Job::bulk(ops[i % ops.len()], a, Some(b))
        })
        .collect()
}

/// Runs `jobs` forced onto a telemetry- and trace-enabled Ambit runtime,
/// returning the snapshot, the completions, and the captured trace.
fn run_traced(
    jobs: &[Job],
) -> (
    Snapshot,
    Vec<pim_runtime::Completion>,
    Vec<pim_dram::TraceRecord>,
) {
    let mut rt = Runtime::new().with(Box::new(AmbitBackend::new("ambit", AmbitConfig::ddr3())));
    rt.set_trace(true);
    rt.set_telemetry(true);
    for job in jobs {
        rt.submit(job.clone(), Placement::Forced("ambit".into()))
            .expect("submit");
    }
    let done = rt.drain().expect("drain");
    let snap = Snapshot::from_sink(rt.take_telemetry().expect("telemetry is enabled"));
    let (_, _, records) = rt.take_traces().pop().expect("ambit trace");
    (snap, done, records)
}

#[test]
fn spans_reconcile_with_completions() {
    let jobs = bulk_jobs(6, 30_000, 3);
    let (snap, done, records) = run_traced(&jobs);
    let sink = snap.clone().into_sink();

    // One span per job, in id order, each agreeing exactly with the
    // completion report it describes.
    assert_eq!(sink.spans().len(), done.len());
    for (span, c) in sink.spans().iter().zip(done.iter()) {
        assert_eq!(span.id, c.id);
        assert_eq!(span.backend, "ambit");
        assert_eq!(span.kind, "bitwise");
        assert_eq!(span.actual_ns, c.report.ns);
        assert_eq!(span.actual_nj, c.report.energy.total_nj());
        assert_eq!(
            span.commands,
            c.report.commands.as_ref().expect("ambit counts").total()
        );
        let exec = span.exec.as_ref().expect("ambit records exec windows");
        assert!(exec.end >= exec.start);
        assert!(exec.group >= 1);
        assert!(span.est_ns > 0.0, "forced placement still estimates");
        assert_eq!(span.advised, None, "forced placement is not advised");
    }

    // The engine-level command counters (namespaced under the backend
    // name) count exactly the trace the device captured.
    let mut per_kind = std::collections::BTreeMap::new();
    for r in &records {
        *per_kind.entry(r.cmd.kind()).or_insert(0u64) += 1;
    }
    for (kind, expect) in per_kind {
        let series = format!("ambit.{}", kind.telemetry_series());
        assert_eq!(
            sink.counter_total(&series),
            expect,
            "{series} must count the trace"
        );
    }

    // The runtime's own series saw every submission.
    assert_eq!(sink.counter_total("runtime.jobs"), jobs.len() as u64);

    // The snapshot survives a JSON roundtrip byte-identically.
    let json = snap.to_json_string();
    let back = Snapshot::from_json_str(&json).expect("parses");
    assert_eq!(back.to_json_string(), json);
}

#[test]
fn advised_spans_record_the_decision() {
    let mut rt = Runtime::new()
        .with(Box::new(CpuBackend::new(
            "cpu",
            CpuModel::new(CpuConfig::skylake_ddr3()),
        )))
        .with(Box::new(AmbitBackend::new("ambit", AmbitConfig::ddr3())));
    rt.set_telemetry(true);
    for job in bulk_jobs(3, 65_536, 9) {
        rt.submit(job, Placement::Advised(Objective::Time))
            .expect("submit");
    }
    rt.drain().expect("drain");
    let sink = rt.take_telemetry().expect("telemetry is enabled");
    for span in sink.spans() {
        let advised = span.advised.expect("advised placement records the verdict");
        assert_eq!(advised, span.backend != "cpu");
        assert!(span.est_ns > 0.0 && span.actual_ns > 0.0);
        assert!(span.time_error_ns().is_finite());
        assert!(span.energy_error_nj().is_finite());
    }
}

#[test]
fn stats_expose_backpressure() {
    let mut rt = Runtime::new().with(Box::new(CpuBackend::with_capacity(
        "cpu",
        CpuModel::new(CpuConfig::skylake_ddr3()),
        2,
    )));
    let job = || Job::RowInit {
        bits: 4096,
        ones: false,
    };
    rt.submit(job(), Placement::Forced("cpu".into())).unwrap();
    rt.submit(job(), Placement::Forced("cpu".into())).unwrap();
    rt.submit(job(), Placement::Forced("cpu".into()))
        .expect_err("queue is full");
    rt.drain().expect("drain");
    rt.submit(job(), Placement::Forced("cpu".into()))
        .expect("accepts again after drain");
    let stats = &rt.stats()[0];
    assert_eq!(stats.queue_high_water, 2);
    assert_eq!(stats.rejections, 1);
    assert_eq!(stats.queue_depth, 1);
    assert_eq!(stats.submitted, 3);
    assert_eq!(stats.completed, 2);
}

mod thread_invariance {
    use super::*;

    fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .expect("pool")
            .install(f)
    }

    /// The full frozen snapshot — metrics and spans — must not depend
    /// on the rayon pool size.
    #[test]
    fn snapshot_identical_across_thread_counts() {
        let jobs = bulk_jobs(8, 50_000, 21);
        let base = with_threads(1, || run_traced(&jobs).0.to_json_string());
        for threads in [2usize, 4, 8] {
            let other = with_threads(threads, || run_traced(&jobs).0.to_json_string());
            assert_eq!(base, other, "telemetry differs at {threads} threads");
        }
    }
}
