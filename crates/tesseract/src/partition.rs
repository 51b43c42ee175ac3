//! Vertex partitioning across vaults.
//!
//! Tesseract interleaves graph data across vaults so each in-order core
//! operates only on its local memory partition; edges whose destination
//! lives in another vault become remote function calls.

use pim_workloads::Graph;

/// How vertices map to vaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// `(v / block) % vaults`.
    BlockCyclic { block: u32 },
    /// `hash(v) % vaults` — breaks the correlation between vertex-id bit
    /// patterns and degree that scale-free generators (R-MAT) produce,
    /// which would otherwise overload one vault.
    Hashed,
}

/// An assignment of vertices to vaults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexPartition {
    vaults: u32,
    mode: Mode,
}

impl VertexPartition {
    /// Creates a partition over `vaults` vaults with `block`-vertex blocks
    /// (block = 1 gives pure round-robin).
    ///
    /// # Panics
    ///
    /// Panics if `vaults` or `block` is zero.
    pub fn new(vaults: u32, block: u32) -> Self {
        assert!(vaults > 0, "vaults must be nonzero");
        assert!(block > 0, "block must be nonzero");
        VertexPartition {
            vaults,
            mode: Mode::BlockCyclic { block },
        }
    }

    /// Creates a hash-based partition (the default for Tesseract runs):
    /// degree skew decorrelates from vault assignment.
    ///
    /// # Panics
    ///
    /// Panics if `vaults` is zero.
    pub fn hashed(vaults: u32) -> Self {
        assert!(vaults > 0, "vaults must be nonzero");
        VertexPartition {
            vaults,
            mode: Mode::Hashed,
        }
    }

    /// Number of vaults.
    pub fn vaults(&self) -> u32 {
        self.vaults
    }

    /// The vault owning vertex `v`.
    pub fn vault_of(&self, v: u32) -> u32 {
        match self.mode {
            Mode::BlockCyclic { block } => (v / block) % self.vaults,
            Mode::Hashed => {
                let mut x = v as u64 ^ 0x1234_5678_9abc_def0;
                x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                ((x ^ (x >> 31)) % self.vaults as u64) as u32
            }
        }
    }

    /// Vertices per vault for an `n`-vertex graph (exact counts).
    pub fn vertex_counts(&self, n: usize) -> Vec<u64> {
        let mut counts = vec![0u64; self.vaults as usize];
        for v in 0..n as u32 {
            counts[self.vault_of(v) as usize] += 1;
        }
        counts
    }

    /// The vault that stores (and scans) page `page` of vertex `u`'s edge
    /// list. Page 0 is co-located with the vertex itself; later pages
    /// round-robin pseudo-randomly across vaults — Tesseract interleaves
    /// consecutive memory pages, so a hub vertex's multi-page edge list is
    /// scanned by many cores in parallel.
    pub fn page_vault(&self, u: u32, page: u32) -> u32 {
        if page == 0 {
            return self.vault_of(u);
        }
        let mut x = ((u as u64) << 32 | page as u64) ^ 0x51ed_270b_a2fc_a2a9;
        x = (x ^ (x >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        ((x ^ (x >> 29)) % self.vaults as u64) as u32
    }

    /// Fraction of edges whose endpoints live in different vaults.
    pub fn remote_edge_fraction(&self, g: &Graph) -> f64 {
        if g.num_edges() == 0 {
            return 0.0;
        }
        let remote = g
            .edges()
            .filter(|&(u, v)| self.vault_of(u) != self.vault_of(v))
            .count();
        remote as f64 / g.num_edges() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn round_robin_assignment() {
        let p = VertexPartition::new(4, 1);
        assert_eq!(p.vault_of(0), 0);
        assert_eq!(p.vault_of(1), 1);
        assert_eq!(p.vault_of(4), 0);
        assert_eq!(p.vaults(), 4);
    }

    #[test]
    fn blocked_assignment() {
        let p = VertexPartition::new(2, 4);
        assert_eq!(p.vault_of(0), 0);
        assert_eq!(p.vault_of(3), 0);
        assert_eq!(p.vault_of(4), 1);
        assert_eq!(p.vault_of(8), 0);
    }

    #[test]
    fn vertex_counts_are_balanced() {
        let p = VertexPartition::new(8, 1);
        let counts = p.vertex_counts(1000);
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        assert!(max - min <= 1);
        assert_eq!(counts.iter().sum::<u64>(), 1000);
    }

    #[test]
    fn remote_fraction_for_random_graph_matches_expectation() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let g = Graph::uniform(4096, 8, &mut rng);
        let p = VertexPartition::new(32, 1);
        let f = p.remote_edge_fraction(&g);
        // Uniform targets: ~31/32 of edges are remote.
        assert!((f - 31.0 / 32.0).abs() < 0.02, "remote fraction {f}");
    }

    #[test]
    fn single_vault_has_no_remote_edges() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let g = Graph::uniform(100, 4, &mut rng);
        let p = VertexPartition::new(1, 1);
        assert_eq!(p.remote_edge_fraction(&g), 0.0);
    }

    #[test]
    #[should_panic(expected = "vaults must be nonzero")]
    fn zero_vaults_rejected() {
        let _ = VertexPartition::new(0, 1);
    }

    #[test]
    fn hashed_partition_is_balanced_and_stable() {
        let p = VertexPartition::hashed(32);
        let counts = p.vertex_counts(100_000);
        let min = *counts.iter().min().unwrap() as f64;
        let max = *counts.iter().max().unwrap() as f64;
        assert!(max / min < 1.15, "hashed balance {min}..{max}");
        // Deterministic.
        assert_eq!(p.vault_of(12345), p.vault_of(12345));
    }

    #[test]
    fn page_zero_is_colocated_and_pages_spread() {
        let p = VertexPartition::hashed(32);
        assert_eq!(p.page_vault(7, 0), p.vault_of(7));
        let vaults: std::collections::HashSet<u32> =
            (1..100).map(|pg| p.page_vault(7, pg)).collect();
        assert!(vaults.len() > 16, "pages must spread over many vaults");
        assert_eq!(p.page_vault(7, 3), p.page_vault(7, 3), "deterministic");
    }

    #[test]
    fn hashed_decorrelates_rmat_hubs() {
        // Under block-cyclic(1), R-MAT's heavy vertices (ids with low bits
        // zero) pile into vault 0; hashing spreads the *edge* load.
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let g = Graph::rmat(14, 16, &mut rng);
        let edge_load = |p: &VertexPartition| -> f64 {
            let mut per_vault = vec![0u64; p.vaults() as usize];
            for u in 0..g.num_vertices() as u32 {
                per_vault[p.vault_of(u) as usize] += g.out_degree(u as usize) as u64;
            }
            let max = *per_vault.iter().max().unwrap() as f64;
            let avg = per_vault.iter().sum::<u64>() as f64 / per_vault.len() as f64;
            max / avg
        };
        let cyclic = edge_load(&VertexPartition::new(32, 1));
        let hashed = edge_load(&VertexPartition::hashed(32));
        assert!(
            hashed < cyclic,
            "hashed ({hashed}) must balance better than cyclic ({cyclic})"
        );
        assert!(hashed < 3.0, "hashed edge imbalance {hashed}");
    }
}
