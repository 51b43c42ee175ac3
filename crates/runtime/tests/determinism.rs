//! Determinism of batched dispatch: for any randomly generated job set,
//! the runtime's coalesced drain must produce outputs and reports
//! byte-identical to one-at-a-time sequential dispatch, both command
//! traces must satisfy the protocol oracle, and none of it may depend on
//! the rayon thread count.

use pim_ambit::AmbitConfig;
use pim_runtime::{AmbitBackend, Completion, Job, Placement, Runtime};
use pim_workloads::{BitVec, BulkOp};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Binary-capable ops the coalescer can group.
const OPS: [BulkOp; 4] = [BulkOp::And, BulkOp::Or, BulkOp::Xor, BulkOp::Nand];

/// Builds a job set from a compact generated description: `(op index,
/// length in bits)` pairs, payloads seeded per job.
fn build_jobs(descr: &[(u8, usize)], seed: u64) -> Vec<Job> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    descr
        .iter()
        .map(|&(op, bits)| {
            let op = OPS[op as usize % OPS.len()];
            let a = BitVec::random(bits, 0.5, &mut rng);
            if rng.gen_bool(0.2) {
                // Sprinkle unary jobs into the mix.
                Job::bulk(BulkOp::Not, a.into(), None)
            } else {
                let b = BitVec::random(bits, 0.5, &mut rng);
                Job::bulk(op, a.into(), Some(b.into()))
            }
        })
        .collect()
}

struct RunResult {
    done: Vec<Completion>,
    traces: Vec<(String, pim_dram::DramSpec, Vec<pim_dram::TraceRecord>)>,
}

/// Runs `jobs` on a fresh Ambit runtime; one big drain when `batched`,
/// a drain per job otherwise. Command tracing is on throughout.
fn run(jobs: &[Job], batched: bool) -> RunResult {
    let mut rt = Runtime::new().with(Box::new(AmbitBackend::new("ambit", AmbitConfig::ddr3())));
    rt.set_trace(true);
    let mut done = Vec::new();
    for job in jobs {
        rt.submit(job.clone(), Placement::Forced("ambit".into()))
            .expect("submit");
        if !batched {
            done.extend(rt.drain().expect("drain"));
        }
    }
    if batched {
        done = rt.drain().expect("drain");
    }
    RunResult {
        done,
        traces: rt.take_traces(),
    }
}

fn assert_oracle_accepts(traces: &[(String, pim_dram::DramSpec, Vec<pim_dram::TraceRecord>)]) {
    assert!(!traces.is_empty(), "tracing was enabled");
    for (backend, spec, records) in traces {
        let trace = pim_check::Trace::capture(spec.clone(), records.clone());
        if let Err(v) = pim_check::check_trace(&trace, pim_check::CheckOptions::timing_only()) {
            panic!("oracle rejected {backend} trace: {v}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole acceptance property: batched (coalesced) and
    /// sequential dispatch agree bit-for-bit on outputs and reports, and
    /// both paths issue protocol-legal command streams.
    #[test]
    fn batched_equals_sequential(
        descr in proptest::collection::vec((0u8..4, 64usize..40_000), 1..10),
        seed in 0u64..1_000,
    ) {
        let jobs = build_jobs(&descr, seed);
        let batched = run(&jobs, true);
        let sequential = run(&jobs, false);
        prop_assert_eq!(&batched.done, &sequential.done);
        assert_oracle_accepts(&batched.traces);
        assert_oracle_accepts(&sequential.traces);
    }
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

    /// Batched runtime results must not depend on the rayon pool size.
    #[test]
    fn batched_results_identical_across_thread_counts() {
        let descr: Vec<(u8, usize)> = (0..8).map(|i| (i as u8, 5_000 + 777 * i)).collect();
        let jobs = build_jobs(&descr, 42);
        let base = with_threads(1, || run(&jobs, true));
        for threads in [2usize, 4, 8] {
            let other = with_threads(threads, || run(&jobs, true));
            assert_eq!(
                base.done, other.done,
                "completions differ at {threads} threads"
            );
            let to_bytes = |r: &RunResult| {
                r.traces
                    .iter()
                    .map(|(n, spec, rec)| {
                        (
                            n.clone(),
                            pim_check::Trace::capture(spec.clone(), rec.clone()).to_bytes(),
                        )
                    })
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                to_bytes(&base),
                to_bytes(&other),
                "normalized traces differ at {threads} threads"
            );
        }
    }
}
