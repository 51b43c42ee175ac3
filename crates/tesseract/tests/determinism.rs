//! Pinned results of the superstep engine: every kernel's output and
//! execution trace on a fixed graph and partition reduce to a 64-bit
//! fingerprint (floats by their bits), so any change to the order in
//! which scans, message charges or applies run shows up as a changed
//! fingerprint, not only as a drifted tolerance. Runs on 1, 2, 4 and 8
//! concurrent host threads sharing one graph must also agree exactly,
//! so the engine keeps no state shared between runs.

use pim_tesseract::engine::run_kernel;
use pim_tesseract::{run_sssp_weighted, ExecutionTrace, KernelOutput, VertexPartition};
use pim_workloads::{Graph, KernelKind};
use rand::SeedableRng;

fn eval_graph() -> Graph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    Graph::rmat(12, 8, &mut rng)
}

/// Runs `f` on `n` host threads at once and returns every result.
fn on_threads<T: Send>(n: usize, f: impl Fn() -> T + Sync) -> Vec<T> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n).map(|_| s.spawn(&f)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("run"))
            .collect()
    })
}

/// FNV-1a over little-endian words.
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn words(&mut self, xs: impl ExactSizeIterator<Item = u64>) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x);
        }
    }

    fn output(&mut self, out: &KernelOutput) {
        match out {
            KernelOutput::TeenCounts(counts, avg) => {
                self.word(0);
                self.words(counts.iter().map(|&c| c as u64));
                self.word(avg.to_bits());
            }
            KernelOutput::Conductance(c) => {
                self.word(1);
                self.word(c.to_bits());
            }
            KernelOutput::Ranks(ranks) => {
                self.word(2);
                self.words(ranks.iter().map(|r| r.to_bits()));
            }
            KernelOutput::Distances(dist) => {
                self.word(3);
                self.words(dist.iter().map(|&d| d as u64));
            }
            KernelOutput::Cover(cover) => {
                self.word(4);
                self.words(cover.iter().map(|&b| b as u64));
            }
        }
    }

    fn trace(&mut self, trace: &ExecutionTrace) {
        self.word(trace.supersteps.len() as u64);
        for ss in &trace.supersteps {
            self.word(ss.vaults.len() as u64);
            for v in &ss.vaults {
                for x in [
                    v.vertices,
                    v.edges_scanned,
                    v.msgs_in_local,
                    v.msgs_in_remote,
                    v.msgs_out_remote,
                    v.seq_bytes,
                    v.random_accesses,
                ] {
                    self.word(x);
                }
            }
        }
    }
}

#[test]
fn kernel_results_match_pinned_fingerprints() {
    let g = eval_graph();
    let p = VertexPartition::new(32, 16);
    let mut got = Vec::new();
    for kind in KernelKind::ALL {
        let (out, trace) = run_kernel(kind, &g, &p);
        let mut f = Fingerprint::new();
        f.output(&out);
        f.trace(&trace);
        got.push((kind.to_string(), f.0));
    }
    let (dist, trace) = run_sssp_weighted(&g, &p, 0);
    let mut f = Fingerprint::new();
    f.words(dist.iter().copied());
    f.trace(&trace);
    got.push(("weighted SSSP".to_string(), f.0));

    let expect = [
        ("average-teenage-follower", 0x20bd_8d74_0f96_1999),
        ("conductance", 0xd353_c136_40e4_1cea),
        ("pagerank", 0xaf6f_f791_50a8_f5a2),
        ("sssp", 0x3d9e_646f_99d3_baf8),
        ("vertex-cover", 0xd1d3_1d8d_ab96_04b7),
        ("weighted SSSP", 0x06bf_8381_eb0d_dfaa),
    ];
    assert_eq!(got.len(), expect.len());
    for ((name, fp), (want_name, want)) in got.iter().zip(expect) {
        assert_eq!(name, want_name);
        assert_eq!(*fp, want, "{name}: fingerprint {fp:#018x} changed");
    }
}

#[test]
fn kernel_runs_identical_across_thread_counts() {
    let g = eval_graph();
    let p = VertexPartition::new(32, 16);
    for kind in KernelKind::ALL {
        let base = run_kernel(kind, &g, &p);
        for threads in [1usize, 2, 4, 8] {
            for (out, trace) in on_threads(threads, || run_kernel(kind, &g, &p)) {
                assert_eq!(base.0, out, "{kind}: output differs at {threads} threads");
                assert_eq!(base.1, trace, "{kind}: trace differs at {threads} threads");
            }
        }
    }
}

#[test]
fn weighted_sssp_identical_across_thread_counts() {
    let g = eval_graph();
    let p = VertexPartition::new(32, 16);
    let base = run_sssp_weighted(&g, &p, 0);
    for threads in [1usize, 2, 4, 8] {
        for (dist, trace) in on_threads(threads, || run_sssp_weighted(&g, &p, 0)) {
            assert_eq!(base.0, dist, "distances differ at {threads} threads");
            assert_eq!(base.1, trace, "trace differs at {threads} threads");
        }
    }
}
