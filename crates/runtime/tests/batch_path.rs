//! The runtime's coalesced job groups ride the device's batched-run fast
//! path: a drained batch of same-op jobs advances the engine's
//! `batched_commands` diagnostic (an op step's sites form one long run),
//! outputs and reports stay identical with the fast path disabled, and
//! the behavior holds under a one-worker pool and a larger one.

use pim_ambit::AmbitConfig;
use pim_runtime::{AmbitBackend, Backend, Job, JobId, JobOutput};
use pim_workloads::{BitVec, BulkOp};
use rand::SeedableRng;
use std::sync::Arc;

fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .expect("pool")
        .install(f)
}

/// Same-op jobs sized to one row each, so the backend coalesces them
/// into a single wide group spanning several banks.
fn coalescible_jobs(n: usize, bits: usize, seed: u64) -> Vec<Job> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let a = Arc::new(BitVec::random(bits, 0.5, &mut rng));
            let b = Arc::new(BitVec::random(bits, 0.5, &mut rng));
            Job::bulk(BulkOp::And, a, Some(b))
        })
        .collect()
}

/// Drains `jobs` on a fresh Ambit backend and returns the sorted job
/// outputs plus the engine's batched-command tally.
fn drain_backend(jobs: &[Job], batch: bool) -> (Vec<(JobId, JobOutput)>, u64) {
    let mut be = AmbitBackend::new("ambit", AmbitConfig::ddr3());
    be.system_mut().set_batch_issue(batch);
    for (i, job) in jobs.iter().enumerate() {
        be.submit(i as JobId, job.clone()).expect("submit");
    }
    be.drain().expect("drain");
    let mut done: Vec<_> = be.poll().into_iter().map(|c| (c.id, c.output)).collect();
    done.sort_by_key(|(id, _)| *id);
    (done, be.system().batched_commands())
}

fn assert_batching_fires_and_is_invisible(threads: usize) {
    let jobs = coalescible_jobs(6, 4_096, 17);
    let ((on, batched_on), (off, batched_off)) = with_threads(threads, || {
        (drain_backend(&jobs, true), drain_backend(&jobs, false))
    });
    assert_eq!(batched_off, 0, "disabled fast path must never batch");
    assert!(
        batched_on > 0,
        "coalesced groups must ride the fast path at {threads} threads"
    );
    assert_eq!(on.len(), jobs.len());
    assert_eq!(on, off, "job outputs must not depend on batch issue");
}

#[test]
fn coalesced_groups_batch_on_the_sequential_path() {
    assert_batching_fires_and_is_invisible(1);
}

#[test]
fn batch_issue_stays_invisible_under_a_worker_pool() {
    assert_batching_fires_and_is_invisible(4);
}
