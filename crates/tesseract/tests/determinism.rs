//! Thread-count invariance of the vault-parallel superstep path: kernel
//! outputs and execution traces must be identical whether vaults are
//! scanned on one thread or many (messages merge in vault order at the
//! barrier, so ordering cannot leak into the results).

use pim_tesseract::engine::run_kernel;
use pim_tesseract::{run_sssp_weighted, ExecutionTrace, KernelOutput, VertexPartition};
use pim_workloads::{Graph, KernelKind};
use rand::SeedableRng;

/// Runs `f` under a rayon pool fixed at `n` threads.
fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .expect("pool")
        .install(f)
}

fn eval_graph() -> Graph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    Graph::rmat(12, 8, &mut rng)
}

#[test]
fn kernel_runs_identical_across_thread_counts() {
    let g = eval_graph();
    let p = VertexPartition::new(32, 16);
    for kind in KernelKind::ALL {
        let base: (KernelOutput, ExecutionTrace) = with_threads(1, || run_kernel(kind, &g, &p));
        for threads in [2usize, 4, 8] {
            let other = with_threads(threads, || run_kernel(kind, &g, &p));
            assert_eq!(
                base.0, other.0,
                "{kind}: output differs at {threads} threads"
            );
            assert_eq!(
                base.1, other.1,
                "{kind}: trace differs at {threads} threads"
            );
        }
    }
}

#[test]
fn weighted_sssp_identical_across_thread_counts() {
    let g = eval_graph();
    let p = VertexPartition::new(32, 16);
    let base = with_threads(1, || run_sssp_weighted(&g, &p, 0));
    for threads in [2usize, 4, 8] {
        let other = with_threads(threads, || run_sssp_weighted(&g, &p, 0));
        assert_eq!(base.0, other.0, "distances differ at {threads} threads");
        assert_eq!(base.1, other.1, "trace differs at {threads} threads");
    }
}
