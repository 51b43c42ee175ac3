//! The run envelopes as written to disk: one E1-style Ambit run with
//! telemetry and profiling on, written through `RunLog` the way the bins
//! do, must produce a `PIMRUN01` report and a `PIMPROF01` profile that
//! both validate, with job totals that sum to the completions'. That the
//! three command-level formats agree needs no test of its own: they are
//! projections of one observed event stream (unit-tested in `pim-dram`).

use pim_ambit::AmbitConfig;
use pim_profile::Profile;
use pim_runtime::{AmbitBackend, Job, Placement, Runtime};
use pim_telemetry::Snapshot;
use pim_workloads::{BitVec, BulkOp};
use rand::SeedableRng;
use std::sync::Arc;

fn e1_jobs(n: usize, bits: usize, seed: u64) -> Vec<Job> {
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

#[test]
fn run_log_envelopes_validate_and_job_totals_sum() {
    let mut rt = Runtime::new().with(Box::new(AmbitBackend::new("ambit", AmbitConfig::ddr3())));
    rt.set_telemetry(true);
    rt.set_profile(true);
    for job in e1_jobs(5, 24_000, 29) {
        rt.submit(job, Placement::Forced("ambit".into()))
            .expect("submit");
    }
    let done = rt.drain().expect("drain");
    let snapshot = Snapshot::from_sink(rt.take_telemetry().expect("telemetry on"))
        .with_meta("experiment", "envelopes");
    let profile = rt.take_profile().expect("profiling is enabled");

    let dir = std::env::temp_dir().join("pim_bench_envelopes_test");
    let _ = std::fs::remove_dir_all(&dir);
    let report_path = dir.join("report.json");
    let profile_path = dir.join("profile.json");
    let mut log = pim_bench::report::RunLog::from_args(
        "envelopes",
        vec![
            "--quiet".into(),
            format!("--telemetry={}", report_path.display()),
            format!("--profile={}", profile_path.display()),
        ],
    );
    log.snapshot(snapshot);
    log.profile(profile);
    log.finish().expect("write artifacts");

    let report_text = std::fs::read_to_string(&report_path).expect("report written");
    pim_bench::report::validate_report(&report_text).expect("PIMRUN01 validates");
    let profile_text = std::fs::read_to_string(&profile_path).expect("profile written");
    let profile = Profile::from_json_str(&profile_text).expect("PIMPROF01 decodes");

    // Pull the embedded PIMTEL01 snapshot back out of the run report.
    let report: serde_json::Value = serde_json::from_str(&report_text).expect("JSON");
    let serde_json::Value::Array(snaps) = &report["telemetry"] else {
        panic!("report embeds a telemetry array");
    };
    let snap_value = snaps.first().expect("one embedded snapshot");
    let snapshot = Snapshot::from_json_str(&serde_json::to_string(snap_value).expect("serialize"))
        .expect("embedded snapshot parses");

    // One span and one record per completion, each file summing to the
    // completions' total.
    assert_eq!(snapshot.spans.len(), done.len());
    assert_eq!(profile.jobs.len(), done.len());
    let done_sum: f64 = done.iter().map(|c| c.report.ns).sum();
    let span_sum: f64 = snapshot.spans.iter().map(|s| s.actual_ns).sum();
    let record_sum: f64 = profile.jobs.iter().map(|r| r.actual_ns).sum();
    assert_eq!(span_sum, done_sum);
    assert_eq!(record_sum, done_sum);
    let _ = std::fs::remove_dir_all(&dir);
}
