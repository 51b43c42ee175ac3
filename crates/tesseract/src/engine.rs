//! Functional superstep execution engine with exact per-vault traffic
//! accounting.
//!
//! Tesseract programs are barrier-synchronized supersteps: each PIM core
//! scans its partition's vertices and edge lists, issuing *non-blocking
//! remote function calls* for updates to vertices in other vaults. This
//! module executes the five paper kernels functionally over a
//! [`VertexPartition`], recording, per vault and per superstep, exactly
//! how many vertices/edges were processed, how many messages crossed
//! vaults, and how much sequential/random memory traffic the work implies.
//! The timing model in [`crate::timing`] turns those counts into time and
//! energy.

use crate::partition::VertexPartition;
use pim_workloads::kernels::{in_partition, is_teen, KernelKind};
use pim_workloads::Graph;

/// Per-vault traffic counters for one superstep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VaultCounts {
    /// Vertices processed in this vault.
    pub vertices: u64,
    /// Edges scanned from this vault's vertices.
    pub edges_scanned: u64,
    /// Messages received from the same vault (local function calls).
    pub msgs_in_local: u64,
    /// Messages received from other vaults.
    pub msgs_in_remote: u64,
    /// Messages sent to other vaults.
    pub msgs_out_remote: u64,
    /// Sequential bytes streamed (edge lists, vertex-state scans).
    pub seq_bytes: u64,
    /// Random vault-local accesses (message handlers touching vertex state).
    pub random_accesses: u64,
}

impl VaultCounts {
    /// Adds another counter set.
    pub fn merge(&mut self, o: &VaultCounts) {
        self.vertices += o.vertices;
        self.edges_scanned += o.edges_scanned;
        self.msgs_in_local += o.msgs_in_local;
        self.msgs_in_remote += o.msgs_in_remote;
        self.msgs_out_remote += o.msgs_out_remote;
        self.seq_bytes += o.seq_bytes;
        self.random_accesses += o.random_accesses;
    }

    /// Total incoming messages.
    pub fn msgs_in(&self) -> u64 {
        self.msgs_in_local + self.msgs_in_remote
    }
}

/// Counters for all vaults in one superstep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperstepTrace {
    /// Per-vault counters.
    pub vaults: Vec<VaultCounts>,
}

impl SuperstepTrace {
    fn new(vaults: u32) -> Self {
        SuperstepTrace {
            vaults: vec![VaultCounts::default(); vaults as usize],
        }
    }

    /// Sum of a field across vaults, via an accessor.
    pub fn total(&self, f: impl Fn(&VaultCounts) -> u64) -> u64 {
        self.vaults.iter().map(f).sum()
    }
}

/// The full execution trace of one kernel run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionTrace {
    /// Which kernel ran.
    pub kernel: KernelKind,
    /// One entry per superstep.
    pub supersteps: Vec<SuperstepTrace>,
}

impl ExecutionTrace {
    /// Aggregate counters over the whole run.
    pub fn totals(&self) -> VaultCounts {
        let mut t = VaultCounts::default();
        for ss in &self.supersteps {
            for v in &ss.vaults {
                t.merge(v);
            }
        }
        t
    }

    /// Fraction of messages that crossed vaults.
    pub fn remote_fraction(&self) -> f64 {
        let t = self.totals();
        let total = t.msgs_in();
        if total == 0 {
            0.0
        } else {
            t.msgs_in_remote as f64 / total as f64
        }
    }

    /// The final superstep, or `None` for a zero-superstep run (e.g. an
    /// empty graph or a frontier that drains immediately).
    pub fn last_superstep(&self) -> Option<&SuperstepTrace> {
        self.supersteps.last()
    }

    /// Sum of a field across vaults of the final superstep; 0 for a
    /// zero-superstep run.
    pub fn last_total(&self, f: impl Fn(&VaultCounts) -> u64) -> u64 {
        self.last_superstep().map_or(0, |ss| ss.total(f))
    }
}

/// Functional output of a kernel run.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelOutput {
    /// ATF: per-vertex teen-follower counts plus the average.
    TeenCounts(Vec<u32>, f64),
    /// Conductance value.
    Conductance(f64),
    /// PageRank vector.
    Ranks(Vec<f64>),
    /// SSSP distances.
    Distances(Vec<u32>),
    /// Vertex cover membership.
    Cover(Vec<bool>),
}

/// Bytes of vertex state touched per message apply.
const STATE_BYTES: u64 = 16;
/// Bytes per edge-list entry.
const EDGE_BYTES: u64 = 8;
/// Edge-list entries per memory page (pages round-robin across vaults, so
/// hub vertices' scans parallelize).
const EDGES_PER_PAGE: usize = 512;

fn charge_scan(c: &mut VaultCounts, vertices: u64, edges: u64) {
    c.vertices += vertices;
    c.edges_scanned += edges;
    c.seq_bytes += vertices * STATE_BYTES + edges * EDGE_BYTES;
}

/// Visits `u`'s edge list page by page, handing each chunk to the vault
/// that stores it.
fn scan_edge_pages(g: &Graph, p: &VertexPartition, u: u32, mut f: impl FnMut(u32, &[u32])) {
    for (page, chunk) in g.neighbors(u as usize).chunks(EDGES_PER_PAGE).enumerate() {
        f(p.page_vault(u, page as u32), chunk);
    }
}

/// Epoch-stamped dedup of message targets: updates to the same vertex in
/// one superstep coalesce in the vault's message queue / row buffer, so
/// only the first one counts as a random DRAM access.
#[derive(Debug)]
struct TargetDedup {
    epoch_of: Vec<u32>,
    epoch: u32,
}

impl TargetDedup {
    fn new(n: usize) -> Self {
        TargetDedup {
            epoch_of: vec![u32::MAX; n],
            epoch: 0,
        }
    }

    fn next_superstep(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
    }

    /// Returns `true` the first time `v` is targeted this superstep.
    fn first_touch(&mut self, v: u32) -> bool {
        if self.epoch_of[v as usize] == self.epoch {
            false
        } else {
            self.epoch_of[v as usize] = self.epoch;
            true
        }
    }
}

fn charge_message(
    ss: &mut SuperstepTrace,
    src_vault: u32,
    dst_vault: u32,
    target: u32,
    dedup: &mut TargetDedup,
) {
    if src_vault == dst_vault {
        ss.vaults[dst_vault as usize].msgs_in_local += 1;
    } else {
        ss.vaults[src_vault as usize].msgs_out_remote += 1;
        ss.vaults[dst_vault as usize].msgs_in_remote += 1;
    }
    if dedup.first_touch(target) {
        ss.vaults[dst_vault as usize].random_accesses += 1;
    }
}

/// A remote function call recorded during a vault scan and applied once
/// that vault's scan finishes, carrying a kernel-specific payload `M`.
struct Emit<M> {
    src_vault: u32,
    dst_vault: u32,
    target: u32,
    msg: M,
}

/// Reusable vault-grouping buffer for [`run_superstep`]: the inner vectors
/// keep their capacity across supersteps, so iterative kernels (PageRank,
/// SSSP, vertex cover) regroup the frontier without allocating.
#[derive(Debug, Default)]
struct VaultGroups {
    groups: Vec<Vec<u32>>,
}

impl VaultGroups {
    /// Regroups `vertices` by owning vault, preserving order within a vault.
    fn regroup(&mut self, p: &VertexPartition, vertices: &[u32]) {
        self.groups.resize_with(p.vaults() as usize, Vec::new);
        for g in &mut self.groups {
            g.clear();
        }
        for &u in vertices {
            self.groups[p.vault_of(u) as usize].push(u);
        }
    }
}

/// Runs one barrier-synchronized superstep: `vertices` are grouped by
/// owning vault (preserving order) and the vaults run one after another in
/// **vault order**. Each vault scans its group into the superstep's trace,
/// its emit list and its own accumulator, and then its emits are charged
/// and applied in push order before the next vault scans. Vault-level
/// parallelism lives on the simulated clock ([`crate::timing`] prices each
/// vault per superstep), not in host threads.
///
/// Invariant for every kernel: `scan` reads only state that `apply` never
/// writes (a superstep-start snapshot or a superstep constant), so applying
/// a vault's messages before the next vault scans gives the same result as
/// applying them all at the barrier.
///
/// Returns the trace and each vault's accumulator (vault order) for the
/// caller to fold; folding per-vault partials, not one running value, keeps
/// floating-point sums in a fixed order.
fn run_superstep<M, A: Default>(
    p: &VertexPartition,
    vertices: &[u32],
    dedup: &mut TargetDedup,
    groups: &mut VaultGroups,
    scan: impl Fn(u32, &mut SuperstepTrace, &mut Vec<Emit<M>>, &mut A),
    mut apply: impl FnMut(&Emit<M>),
) -> (SuperstepTrace, Vec<A>) {
    dedup.next_superstep();
    groups.regroup(p, vertices);
    let mut ss = SuperstepTrace::new(p.vaults());
    let mut accs = Vec::with_capacity(groups.groups.len());
    let mut emits = Vec::new();
    for group in &groups.groups {
        let mut acc = A::default();
        for &u in group {
            scan(u, &mut ss, &mut emits, &mut acc);
        }
        accs.push(acc);
        for e in emits.drain(..) {
            charge_message(&mut ss, e.src_vault, e.dst_vault, e.target, dedup);
            apply(&e);
        }
    }
    (ss, accs)
}

/// Runs ATF (average teenage followers): one superstep, one message per
/// edge whose source is a teen.
pub fn run_atf(g: &Graph, p: &VertexPartition) -> (KernelOutput, ExecutionTrace) {
    let n = g.num_vertices();
    let mut counts = vec![0u32; n];
    let mut dedup = TargetDedup::new(n);
    let mut groups = VaultGroups::default();
    let vertices: Vec<u32> = (0..n as u32).collect();
    let scan = |u: u32, ss: &mut SuperstepTrace, emits: &mut Vec<Emit<()>>, _: &mut ()| {
        let vu = p.vault_of(u);
        charge_scan(&mut ss.vaults[vu as usize], 1, 0);
        let teen = is_teen(u);
        scan_edge_pages(g, p, u, |sv, chunk| {
            charge_scan(&mut ss.vaults[sv as usize], 0, chunk.len() as u64);
            if teen {
                for &w in chunk {
                    emits.push(Emit {
                        src_vault: sv,
                        dst_vault: p.vault_of(w),
                        target: w,
                        msg: (),
                    });
                }
            }
        });
    };
    let (ss, _) = run_superstep(p, &vertices, &mut dedup, &mut groups, scan, |e| {
        counts[e.target as usize] += 1;
    });
    let total: u64 = counts.iter().map(|&c| c as u64).sum();
    let avg = if n == 0 { 0.0 } else { total as f64 / n as f64 };
    (
        KernelOutput::TeenCounts(counts, avg),
        ExecutionTrace {
            kernel: KernelKind::AverageTeenageFollower,
            supersteps: vec![ss],
        },
    )
}

/// Runs conductance: one streaming superstep, no messages (partition bits
/// derive from the vertex id), one global reduce.
pub fn run_conductance(g: &Graph, p: &VertexPartition) -> (KernelOutput, ExecutionTrace) {
    let n = g.num_vertices();
    let mut dedup = TargetDedup::new(n);
    let mut groups = VaultGroups::default();
    let vertices: Vec<u32> = (0..n as u32).collect();
    // Per-vault accumulator: (cut, vol_s, vol_t); folded at the barrier.
    let scan =
        |u: u32, ss: &mut SuperstepTrace, _: &mut Vec<Emit<()>>, acc: &mut (u64, u64, u64)| {
            let vu = p.vault_of(u);
            charge_scan(&mut ss.vaults[vu as usize], 1, 0);
            scan_edge_pages(g, p, u, |sv, chunk| {
                charge_scan(&mut ss.vaults[sv as usize], 0, chunk.len() as u64);
                for &w in chunk {
                    let (pu, pw) = (in_partition(u), in_partition(w));
                    if pu != pw {
                        acc.0 += 1;
                    }
                    if pu {
                        acc.1 += 1;
                    } else {
                        acc.2 += 1;
                    }
                }
            });
        };
    let (ss, accs) = run_superstep(p, &vertices, &mut dedup, &mut groups, scan, |_| {});
    let (cut, vol_s, vol_t) = accs
        .iter()
        .fold((0u64, 0u64, 0u64), |t, a| (t.0 + a.0, t.1 + a.1, t.2 + a.2));
    let denom = vol_s.min(vol_t);
    let c = if denom == 0 {
        0.0
    } else {
        cut as f64 / denom as f64
    };
    (
        KernelOutput::Conductance(c),
        ExecutionTrace {
            kernel: KernelKind::Conductance,
            supersteps: vec![ss],
        },
    )
}

/// Runs PageRank for `iters` supersteps (d = 0.85), one message per edge
/// per superstep (Tesseract's put-based push model).
pub fn run_pagerank(g: &Graph, p: &VertexPartition, iters: u32) -> (KernelOutput, ExecutionTrace) {
    let n = g.num_vertices();
    let d = 0.85;
    let mut rank = vec![1.0 / n.max(1) as f64; n];
    let mut supersteps = Vec::with_capacity(iters as usize);
    let mut dedup = TargetDedup::new(n);
    let mut groups = VaultGroups::default();
    let vertices: Vec<u32> = (0..n as u32).collect();
    for _ in 0..iters {
        let mut next = vec![(1.0 - d) / n as f64; n];
        let rank_snapshot = &rank;
        let scan =
            |u: u32, ss: &mut SuperstepTrace, emits: &mut Vec<Emit<f64>>, dangling: &mut f64| {
                let vu = p.vault_of(u);
                let deg = g.out_degree(u as usize);
                charge_scan(&mut ss.vaults[vu as usize], 1, 0);
                if deg == 0 {
                    *dangling += rank_snapshot[u as usize];
                    return;
                }
                let share = d * rank_snapshot[u as usize] / deg as f64;
                scan_edge_pages(g, p, u, |sv, chunk| {
                    charge_scan(&mut ss.vaults[sv as usize], 0, chunk.len() as u64);
                    for &w in chunk {
                        emits.push(Emit {
                            src_vault: sv,
                            dst_vault: p.vault_of(w),
                            target: w,
                            msg: share,
                        });
                    }
                });
            };
        let (ss, danglings) = run_superstep(p, &vertices, &mut dedup, &mut groups, scan, |e| {
            next[e.target as usize] += e.msg;
        });
        let dangling: f64 = danglings.iter().sum();
        let dangling_share = d * dangling / n as f64;
        for r in &mut next {
            *r += dangling_share;
        }
        rank = next;
        supersteps.push(ss);
    }
    (
        KernelOutput::Ranks(rank),
        ExecutionTrace {
            kernel: KernelKind::PageRank,
            supersteps,
        },
    )
}

/// Runs SSSP from `source` with unit weights: frontier supersteps, one
/// relaxation message per scanned edge.
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn run_sssp(g: &Graph, p: &VertexPartition, source: u32) -> (KernelOutput, ExecutionTrace) {
    let n = g.num_vertices();
    assert!((source as usize) < n, "source out of range");
    let mut dist = vec![u32::MAX; n];
    dist[source as usize] = 0;
    let mut frontier = vec![source];
    let mut supersteps = Vec::new();
    let mut dedup = TargetDedup::new(n);
    let mut groups = VaultGroups::default();
    // Unit-weight BFS: every frontier vertex sits at the same level, so the
    // relaxation distance is a superstep constant and the scans need no
    // view of the evolving distance array.
    let mut level = 0u32;
    while !frontier.is_empty() {
        let nd = level + 1;
        let scan = |u: u32, ss: &mut SuperstepTrace, emits: &mut Vec<Emit<()>>, _: &mut ()| {
            let vu = p.vault_of(u);
            charge_scan(&mut ss.vaults[vu as usize], 1, 0);
            scan_edge_pages(g, p, u, |sv, chunk| {
                charge_scan(&mut ss.vaults[sv as usize], 0, chunk.len() as u64);
                for &w in chunk {
                    emits.push(Emit {
                        src_vault: sv,
                        dst_vault: p.vault_of(w),
                        target: w,
                        msg: (),
                    });
                }
            });
        };
        let mut next = Vec::new();
        let (ss, _) = run_superstep(p, &frontier, &mut dedup, &mut groups, scan, |e| {
            let w = e.target as usize;
            if dist[w] > nd {
                dist[w] = nd;
                next.push(e.target);
            }
        });
        next.sort_unstable();
        next.dedup();
        frontier = next;
        level = nd;
        supersteps.push(ss);
    }
    (
        KernelOutput::Distances(dist),
        ExecutionTrace {
            kernel: KernelKind::Sssp,
            supersteps,
        },
    )
}

/// Runs **weighted** SSSP from `source` (hash-derived edge weights,
/// Bellman-Ford-style frontier supersteps — the Tesseract paper's SP
/// workload uses weighted graphs). One relaxation message per scanned
/// edge; a vertex re-enters the frontier whenever its distance improves.
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn run_sssp_weighted(
    g: &Graph,
    p: &VertexPartition,
    source: u32,
) -> (Vec<u64>, ExecutionTrace) {
    use pim_workloads::kernels::edge_weight;
    let n = g.num_vertices();
    assert!((source as usize) < n, "source out of range");
    let mut dist = vec![u64::MAX; n];
    dist[source as usize] = 0;
    let mut frontier = vec![source];
    let mut supersteps = Vec::new();
    let mut dedup = TargetDedup::new(n);
    let mut groups = VaultGroups::default();
    while !frontier.is_empty() {
        // Synchronous Bellman-Ford: scans relax against the superstep-start
        // snapshot, so no scan sees an improvement made this superstep.
        let dist_snapshot = dist.clone();
        let scan = |u: u32, ss: &mut SuperstepTrace, emits: &mut Vec<Emit<u64>>, _: &mut ()| {
            let vu = p.vault_of(u);
            charge_scan(&mut ss.vaults[vu as usize], 1, 0);
            let du = dist_snapshot[u as usize];
            scan_edge_pages(g, p, u, |sv, chunk| {
                charge_scan(&mut ss.vaults[sv as usize], 0, chunk.len() as u64);
                for &w in chunk {
                    emits.push(Emit {
                        src_vault: sv,
                        dst_vault: p.vault_of(w),
                        target: w,
                        msg: du + edge_weight(u, w) as u64,
                    });
                }
            });
        };
        let mut improved = vec![false; n];
        let (ss, _) = run_superstep(p, &frontier, &mut dedup, &mut groups, scan, |e| {
            let w = e.target as usize;
            if e.msg < dist[w] {
                dist[w] = e.msg;
                improved[w] = true;
            }
        });
        frontier = (0..n as u32).filter(|&v| improved[v as usize]).collect();
        supersteps.push(ss);
    }
    (
        dist,
        ExecutionTrace {
            kernel: KernelKind::Sssp,
            supersteps,
        },
    )
}

/// Runs the parallel vertex-cover kernel: rounds of mutual-minimum
/// matching until no edge is uncovered. Each round is two supersteps
/// (propose, match).
pub fn run_vertex_cover(g: &Graph, p: &VertexPartition) -> (KernelOutput, ExecutionTrace) {
    let n = g.num_vertices();
    let mut in_cover = vec![false; n];
    let mut supersteps = Vec::new();
    let mut dedup = TargetDedup::new(n);
    let mut groups = VaultGroups::default();
    loop {
        // Propose: each uncovered vertex with an uncovered neighbor picks
        // its minimum uncovered neighbor. The proposal arrives as a message
        // carrying the proposer's id.
        let mut proposal = vec![u32::MAX; n];
        let uncovered: Vec<u32> = (0..n as u32).filter(|&u| !in_cover[u as usize]).collect();
        let cover_snapshot = &in_cover;
        let scan = |u: u32, ss: &mut SuperstepTrace, emits: &mut Vec<Emit<u32>>, any: &mut bool| {
            let vu = p.vault_of(u);
            charge_scan(&mut ss.vaults[vu as usize], 1, 0);
            let mut best = u32::MAX;
            scan_edge_pages(g, p, u, |sv, chunk| {
                charge_scan(&mut ss.vaults[sv as usize], 0, chunk.len() as u64);
                for &w in chunk {
                    if w != u && !cover_snapshot[w as usize] {
                        *any = true;
                        if w < best {
                            best = w;
                        }
                    }
                }
            });
            if best != u32::MAX {
                emits.push(Emit {
                    src_vault: vu,
                    dst_vault: p.vault_of(best),
                    target: best,
                    msg: u,
                });
            }
        };
        let (ss, anys) = run_superstep(p, &uncovered, &mut dedup, &mut groups, scan, |e| {
            proposal[e.msg as usize] = e.target;
        });
        let any_uncovered_edge = anys.into_iter().any(|b| b);
        supersteps.push(ss);
        if !any_uncovered_edge {
            break;
        }
        // Match: a proposal u→w is accepted when it is mutual, when w made
        // no proposal of its own, or as an ascending-id tie-break (w > u).
        // The tie-break guarantees progress: if every proposal targets
        // another proposer, the proposal graph contains a cycle, and vertex
        // ids along a cycle cannot be strictly decreasing, so some edge has
        // w > u and fires.
        dedup.next_superstep();
        let mut ss2 = SuperstepTrace::new(p.vaults());
        let mut newly = Vec::new();
        for u in 0..n as u32 {
            let pu = proposal[u as usize];
            if pu == u32::MAX {
                continue;
            }
            let w = pu;
            let accept = proposal[w as usize] == u || proposal[w as usize] == u32::MAX || w > u;
            if accept {
                newly.push(u);
                newly.push(w);
                charge_message(&mut ss2, p.vault_of(u), p.vault_of(w), w, &mut dedup);
            }
        }
        for v in newly {
            in_cover[v as usize] = true;
        }
        supersteps.push(ss2);
    }
    (
        KernelOutput::Cover(in_cover),
        ExecutionTrace {
            kernel: KernelKind::VertexCover,
            supersteps,
        },
    )
}

/// Dispatches a kernel by kind (PageRank/SSSP use their standard
/// parameters: [`KernelKind::iterations`] supersteps and source 0).
pub fn run_kernel(
    kind: KernelKind,
    g: &Graph,
    p: &VertexPartition,
) -> (KernelOutput, ExecutionTrace) {
    match kind {
        KernelKind::AverageTeenageFollower => run_atf(g, p),
        KernelKind::Conductance => run_conductance(g, p),
        KernelKind::PageRank => run_pagerank(g, p, KernelKind::PageRank.iterations()),
        KernelKind::Sssp => run_sssp(g, p, 0),
        KernelKind::VertexCover => run_vertex_cover(g, p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_workloads::kernels as reference;
    use rand::SeedableRng;

    fn graph() -> Graph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        Graph::rmat(10, 8, &mut rng)
    }

    fn partition() -> VertexPartition {
        VertexPartition::new(32, 1)
    }

    #[test]
    fn atf_matches_reference() {
        let g = graph();
        let (out, trace) = run_atf(&g, &partition());
        let (ref_counts, ref_avg) = reference::average_teenage_followers(&g);
        match out {
            KernelOutput::TeenCounts(counts, avg) => {
                assert_eq!(counts, ref_counts);
                assert!((avg - ref_avg).abs() < 1e-12);
            }
            other => panic!("wrong output {other:?}"),
        }
        assert_eq!(trace.supersteps.len(), 1);
        let t = trace.totals();
        assert_eq!(t.edges_scanned, g.num_edges() as u64);
        assert_eq!(t.vertices, g.num_vertices() as u64);
    }

    #[test]
    fn conductance_matches_reference() {
        let g = graph();
        let (out, trace) = run_conductance(&g, &partition());
        match out {
            KernelOutput::Conductance(c) => {
                assert!((c - reference::conductance(&g)).abs() < 1e-12);
            }
            other => panic!("wrong output {other:?}"),
        }
        // No messages at all: the attribute derives locally.
        assert_eq!(trace.totals().msgs_in(), 0);
    }

    #[test]
    fn pagerank_matches_reference() {
        let g = graph();
        let (out, trace) = run_pagerank(&g, &partition(), 10);
        let expect = reference::pagerank(&g, 10);
        match out {
            KernelOutput::Ranks(ranks) => {
                for (a, b) in ranks.iter().zip(expect.iter()) {
                    assert!((a - b).abs() < 1e-9);
                }
            }
            other => panic!("wrong output {other:?}"),
        }
        assert_eq!(trace.supersteps.len(), 10);
        // Every edge sends a message each superstep.
        let per_step = trace.supersteps[0].total(|c| c.msgs_in());
        assert_eq!(per_step, g.num_edges() as u64);
    }

    #[test]
    fn sssp_matches_reference() {
        let g = graph();
        let (out, trace) = run_sssp(&g, &partition(), 0);
        match out {
            KernelOutput::Distances(d) => assert_eq!(d, reference::sssp(&g, 0)),
            other => panic!("wrong output {other:?}"),
        }
        assert!(!trace.supersteps.is_empty());
        // Later supersteps shrink as the frontier drains.
        let first = trace.supersteps[0].total(|c| c.edges_scanned);
        let last = trace.last_total(|c| c.edges_scanned);
        assert!(first <= g.num_edges() as u64);
        assert!(last <= first || trace.supersteps.len() < 3);
    }

    #[test]
    fn zero_superstep_trace_reports_zero_instead_of_panicking() {
        // An empty graph with zero iterations produces no supersteps; the
        // last-superstep accessors must degrade to None/0, not unwrap.
        let g = Graph::from_edges(0, &[]);
        let (_, trace) = run_pagerank(&g, &partition(), 0);
        assert!(trace.supersteps.is_empty());
        assert!(trace.last_superstep().is_none());
        assert_eq!(trace.last_total(|c| c.edges_scanned), 0);
        assert_eq!(trace.totals(), VaultCounts::default());
        assert_eq!(trace.remote_fraction(), 0.0);
    }

    #[test]
    fn weighted_sssp_matches_dijkstra_reference() {
        let g = graph();
        let (dist, trace) = run_sssp_weighted(&g, &partition(), 0);
        assert_eq!(dist, reference::weighted_sssp(&g, 0));
        // Weighted relaxation needs more supersteps than unit-weight BFS.
        let (_, bfs_trace) = run_sssp(&g, &partition(), 0);
        assert!(trace.supersteps.len() >= bfs_trace.supersteps.len());
    }

    #[test]
    fn vertex_cover_covers_all_edges() {
        let g = graph();
        let (out, trace) = run_vertex_cover(&g, &partition());
        match out {
            KernelOutput::Cover(cover) => {
                for (u, v) in g.edges() {
                    if u != v {
                        assert!(
                            cover[u as usize] || cover[v as usize],
                            "edge ({u},{v}) uncovered"
                        );
                    }
                }
                // A cover must also not be trivially everything.
                let size = cover.iter().filter(|&&b| b).count();
                assert!(size < g.num_vertices());
            }
            other => panic!("wrong output {other:?}"),
        }
        assert!(!trace.supersteps.is_empty());
    }

    #[test]
    fn remote_fraction_reflects_partitioning() {
        let g = graph();
        let (_, trace32) = run_pagerank(&g, &VertexPartition::new(32, 1), 2);
        let (_, trace1) = run_pagerank(&g, &VertexPartition::new(1, 1), 2);
        assert!(trace32.remote_fraction() > 0.9);
        assert_eq!(trace1.remote_fraction(), 0.0);
    }

    #[test]
    fn counts_are_conserved() {
        let g = graph();
        let (_, trace) = run_pagerank(&g, &partition(), 3);
        for ss in &trace.supersteps {
            let out_remote = ss.total(|c| c.msgs_out_remote);
            let in_remote = ss.total(|c| c.msgs_in_remote);
            assert_eq!(
                out_remote, in_remote,
                "remote sends must equal remote receives"
            );
            let applies = ss.total(|c| c.random_accesses);
            assert!(applies <= ss.total(|c| c.msgs_in()));
            assert!(applies > 0);
        }
    }

    #[test]
    fn run_kernel_dispatch_covers_all() {
        let g = graph();
        for k in KernelKind::ALL {
            let (_, trace) = run_kernel(k, &g, &partition());
            assert_eq!(trace.kernel, k);
            assert!(trace.totals().vertices > 0);
        }
    }
}
