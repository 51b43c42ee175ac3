//! Runtime profiling: per-job records reconcile with the completions
//! they describe, phase boundaries are monotone and partition the whole
//! submit-to-drain latency, the exported PIMPROF01 envelope validates
//! and roundtrips byte-identically, and capture is deterministic across
//! fresh runs.

use pim_ambit::AmbitConfig;
use pim_profile::{Lane, Profile};
use pim_runtime::{AmbitBackend, Completion, Job, Placement, Runtime, TesseractBackend};
use pim_tesseract::TesseractConfig;
use pim_workloads::{BitVec, BulkOp, Graph, KernelKind};
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

/// Runs `jobs` forced onto a profile-enabled Ambit runtime.
fn run_profiled(jobs: &[Job]) -> (Profile, Vec<Completion>) {
    let mut rt = Runtime::new().with(Box::new(AmbitBackend::new("ambit", AmbitConfig::ddr3())));
    rt.set_profile(true);
    for job in jobs {
        rt.submit(job.clone(), Placement::Forced("ambit".into()))
            .expect("submit");
    }
    let done = rt.drain().expect("drain");
    let profile = rt.take_profile().expect("profiling is enabled");
    (profile, done)
}

#[test]
fn records_reconcile_with_completions() {
    let jobs = bulk_jobs(6, 30_000, 3);
    let (profile, done) = run_profiled(&jobs);

    assert_eq!(profile.jobs.len(), done.len());
    for (record, c) in profile.jobs.iter().zip(done.iter()) {
        assert_eq!(record.id, c.id);
        assert_eq!(record.backend, "ambit");
        assert_eq!(record.kind, "bitwise");
        assert_eq!(record.actual_ns, c.report.ns);
        assert_eq!(record.actual_nj, c.report.energy.total_nj());
        assert_eq!(
            record.commands,
            c.report.commands.as_ref().expect("ambit counts").total()
        );
        assert!(record.est_ns > 0.0, "forced placement still estimates");
        assert_eq!(record.advised, None, "forced placement is not advised");
        // Phases are monotone and partition the total exactly.
        let p = record.phases.expect("ambit has a cycle domain");
        assert!(p.submit <= p.batch_start);
        assert!(p.batch_start <= p.exec_start);
        assert!(p.exec_start <= p.exec_end);
        assert!(p.exec_end <= p.drain_end);
        assert_eq!(
            p.queue_wait() + p.stage() + p.execute() + p.drain(),
            p.total()
        );
        assert!(p.execute() > 0, "bitwise work takes cycles");
    }

    // Six one-chunk jobs cycling four ops coalesce as And x2, Or x2,
    // Xor x1, Nand x1.
    let groups: Vec<u32> = profile.jobs.iter().map(|r| r.group).collect();
    assert_eq!(groups, vec![2, 2, 1, 1, 2, 2]);

    // One timeline group for the backend: runtime queue/jobs lanes plus
    // the device's per-bank command lanes.
    let group = profile.group("ambit").expect("ambit produced events");
    assert!(group.ns_per_cycle > 0.0);
    let lanes = group.lanes();
    assert!(lanes.contains(&Lane::Queue));
    assert!(lanes.contains(&Lane::Jobs));
    assert!(
        lanes.iter().any(|l| matches!(l, Lane::Bank(_))),
        "device commands land on bank lanes"
    );
    // One full-extent slice per job on the jobs lane; one wait slice
    // and one depth counter per job on the queue lane.
    let jobs_slices = group.events.iter().filter(|e| e.lane == Lane::Jobs).count();
    assert_eq!(jobs_slices, jobs.len());
    let waits = group
        .events
        .iter()
        .filter(|e| e.lane == Lane::Queue && e.value.is_none())
        .count();
    let depths = group
        .events
        .iter()
        .filter(|e| e.lane == Lane::Queue && e.value.is_some())
        .count();
    assert_eq!((waits, depths), (jobs.len(), jobs.len()));
}

#[test]
fn envelope_validates_and_capture_is_deterministic() {
    let jobs = bulk_jobs(5, 20_000, 11);
    let (profile, _) = run_profiled(&jobs);
    let json = profile.to_json_string();
    let back = Profile::from_json_str(&json).expect("parses");
    assert_eq!(back.to_json_string(), json, "roundtrip is byte-identical");

    // A fresh runtime over the same workload captures byte-identical
    // output.
    let (again, _) = run_profiled(&jobs);
    assert_eq!(again.to_json_string(), json);
}

#[test]
fn graph_jobs_profile_on_the_synthesized_clock() {
    let graph = Arc::new(Graph::from_edges(
        64,
        &(0..64u32)
            .flat_map(|v| [(v, (v + 1) % 64), (v, (v * 7 + 3) % 64)])
            .collect::<Vec<_>>(),
    ));
    let mut rt = Runtime::new().with(Box::new(TesseractBackend::new(
        "tess",
        TesseractConfig::single_cube(),
    )));
    rt.set_profile(true);
    for kernel in [KernelKind::PageRank, KernelKind::Sssp] {
        rt.submit(
            Job::GraphBatch {
                kernel,
                graph: graph.clone(),
            },
            Placement::Forced("tess".into()),
        )
        .expect("submit");
    }
    let done = rt.drain().expect("drain");
    let profile = rt.take_profile().expect("profiling is enabled");

    assert_eq!(profile.jobs.len(), 2);
    let p0 = profile.jobs[0].phases.expect("synthesized clock phases");
    let p1 = profile.jobs[1].phases.expect("synthesized clock phases");
    // Jobs run back-to-back on one monotonic timeline.
    assert_eq!(p0.exec_start, 0);
    assert_eq!(p1.exec_start, p0.exec_end);
    // The picosecond clock reconciles with the analytic report to
    // within rounding (one ps per superstep).
    for (record, c) in profile.jobs.iter().zip(done.iter()) {
        let execute_ns =
            record.phases.unwrap().execute() as f64 * pim_tesseract::profile::NS_PER_CYCLE;
        assert!(
            (execute_ns - c.report.ns).abs() < 1.0,
            "synthesized clock tracks the analytic time: {execute_ns} vs {}",
            c.report.ns
        );
    }

    let group = profile.group("tess").expect("tesseract produced events");
    assert_eq!(group.ns_per_cycle, pim_tesseract::profile::NS_PER_CYCLE);
    assert!(
        group.lanes().iter().any(|l| matches!(l, Lane::Vault(_))),
        "supersteps land on vault lanes"
    );
    Profile::from_json_str(&profile.to_json_string()).expect("envelope decodes");
}

#[test]
fn disabled_profiling_takes_nothing() {
    let mut rt = Runtime::new().with(Box::new(AmbitBackend::new("ambit", AmbitConfig::ddr3())));
    assert!(rt.take_profile().is_none());
    for job in bulk_jobs(2, 10_000, 5) {
        rt.submit(job, Placement::Forced("ambit".into()))
            .expect("submit");
    }
    rt.drain().expect("drain");
    assert!(rt.take_profile().is_none());
    assert!(!rt.profile_enabled());
}

/// Thread-count invariance of the exported profile: normalization must
/// make the `PIMPROF01` JSON byte-identical at every pool size on a
/// multi-channel device, where a replay spans several channels.
mod shard_invariance {
    use super::*;
    use pim_dram::DramSpec;

    fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .expect("pool")
            .install(f)
    }

    fn profiled_json(jobs: &[Job]) -> String {
        let cfg = pim_ambit::AmbitConfig {
            spec: DramSpec::ddr3_1600().with_channels(2).with_ranks(2),
            ..AmbitConfig::ddr3()
        };
        let backend = AmbitBackend::new("ambit", cfg);
        let mut rt = Runtime::new().with(Box::new(backend));
        rt.set_profile(true);
        for job in jobs {
            rt.submit(job.clone(), Placement::Forced("ambit".into()))
                .expect("submit");
        }
        rt.drain().expect("drain");
        rt.take_profile()
            .expect("profiling is enabled")
            .to_json_string()
    }

    #[test]
    fn profile_json_is_byte_identical_across_thread_counts() {
        // Spans multiple banks per channel and several channels.
        let jobs = bulk_jobs(6, 120_000, 23);
        let base = with_threads(1, || profiled_json(&jobs));
        Profile::from_json_str(&base).expect("envelope decodes");
        for threads in [2usize, 4, 8] {
            let json = with_threads(threads, || profiled_json(&jobs));
            assert_eq!(json, base, "profile diverged at {threads} threads");
        }
    }
}

#[test]
fn stats_window_resets_the_high_water_mark() {
    let mut rt = Runtime::new().with(Box::new(AmbitBackend::new("ambit", AmbitConfig::ddr3())));
    for job in bulk_jobs(3, 10_000, 7) {
        rt.submit(job, Placement::Forced("ambit".into()))
            .expect("submit");
    }
    rt.drain().expect("drain");
    for job in bulk_jobs(1, 10_000, 8) {
        rt.submit(job, Placement::Forced("ambit".into()))
            .expect("submit");
    }
    // The first window saw depth 3; the mark restarts at the still
    // queued job, not zero.
    assert_eq!(rt.stats_window()[0].queue_high_water, 3);
    assert_eq!(rt.stats_window()[0].queue_high_water, 1);
    // The cumulative view reflects the reset (windowed sampling opts
    // out of lifetime peaks).
    assert_eq!(rt.stats()[0].queue_high_water, 1);
}
