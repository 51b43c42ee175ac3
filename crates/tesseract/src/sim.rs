//! Top-level simulator facade: run a kernel on Tesseract or on the host,
//! get functional output + report.

use crate::config::{HostGraphConfig, TesseractConfig};
use crate::engine::{run_kernel, ExecutionTrace, KernelOutput};
use crate::host_baseline::{HostGraphModel, HostGraphReport};
use crate::partition::VertexPartition;
use crate::timing::TesseractReport;
use pim_workloads::{Graph, KernelKind};

/// One full comparison of a kernel on Tesseract vs. the conventional host.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// The kernel.
    pub kernel: KernelKind,
    /// Functional output (identical work on both systems).
    pub output: KernelOutput,
    /// Tesseract report.
    pub tesseract: TesseractReport,
    /// Host report.
    pub host: HostGraphReport,
}

impl Comparison {
    /// Host-time / Tesseract-time.
    pub fn speedup(&self) -> f64 {
        self.host.ns / self.tesseract.ns
    }

    /// `1 - (Tesseract energy / host energy)` — the fraction of energy
    /// saved (the paper reports 87% average).
    pub fn energy_reduction(&self) -> f64 {
        1.0 - self.tesseract.energy.total_nj() / self.host.energy.total_nj()
    }
}

/// The Tesseract simulator.
#[derive(Debug, Clone)]
pub struct TesseractSim {
    config: TesseractConfig,
    partition: VertexPartition,
}

impl TesseractSim {
    /// Creates a simulator; vertices are hash-partitioned over the
    /// configured vault count.
    pub fn new(config: TesseractConfig) -> Self {
        let partition = VertexPartition::hashed(config.stack.vaults);
        TesseractSim { config, partition }
    }

    /// The configuration.
    pub fn config(&self) -> &TesseractConfig {
        &self.config
    }

    /// The vertex partition.
    pub fn partition(&self) -> &VertexPartition {
        &self.partition
    }

    /// Runs `kernel` on `graph`, returning the functional output, the raw
    /// trace, and the timing/energy report.
    pub fn run(
        &self,
        kernel: KernelKind,
        graph: &Graph,
    ) -> (KernelOutput, ExecutionTrace, TesseractReport) {
        let (out, trace) = run_kernel(kernel, graph, &self.partition);
        let report = TesseractReport::from_trace(&trace, &self.config);
        (out, trace, report)
    }

    /// Runs `kernel` on both Tesseract and the given host baseline.
    pub fn compare(
        &self,
        kernel: KernelKind,
        graph: &Graph,
        host_cfg: &HostGraphConfig,
    ) -> Comparison {
        let (output, trace, tesseract) = self.run(kernel, graph);
        let host = HostGraphModel::new(host_cfg.clone()).run(&trace, graph);
        Comparison {
            kernel,
            output,
            tesseract,
            host,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_host::CacheConfig;
    use rand::SeedableRng;

    fn graph() -> Graph {
        // 2^16 vertices x 16 edges: 1 MB of vertex state, which overflows
        // the scaled-down host LLC below (the full-size experiment with
        // LLC-overflowing graphs runs in the benches).
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        Graph::rmat(16, 16, &mut rng)
    }

    fn host() -> HostGraphConfig {
        let mut cfg = HostGraphConfig::ddr3_ooo();
        cfg.hierarchy.l3 = CacheConfig::new(512 * 1024, 16, 64);
        cfg
    }

    #[test]
    fn tesseract_beats_host_on_every_kernel() {
        let sim = TesseractSim::new(TesseractConfig::isca2015());
        let host = host();
        let g = graph();
        let mut speedups = Vec::new();
        for k in KernelKind::ALL {
            let cmp = sim.compare(k, &g, &host);
            assert!(cmp.speedup() > 1.2, "{k}: speedup {}", cmp.speedup());
            speedups.push(cmp.speedup());
        }
        let geomean = (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp();
        // Paper: 13.8x average. This unit test runs a deliberately small
        // graph (2k edges per vault) where fixed per-vault skew dominates;
        // the full-scale reproduction is the `e5_tesseract` bench, which
        // lands near the paper's regime. Here we only require a clear win.
        assert!(
            (2.0..40.0).contains(&geomean),
            "geomean speedup {geomean} out of the expected band"
        );
    }

    #[test]
    fn tesseract_saves_most_of_the_energy() {
        let sim = TesseractSim::new(TesseractConfig::isca2015());
        let host = host();
        let g = graph();
        let cmp = sim.compare(KernelKind::PageRank, &g, &host);
        let red = cmp.energy_reduction();
        assert!(
            (0.5..0.99).contains(&red),
            "energy reduction {red} should be large (paper: 0.87)"
        );
    }

    #[test]
    fn prefetcher_ablation_hurts() {
        let g = graph();
        let on = TesseractSim::new(TesseractConfig::isca2015());
        let off = TesseractSim::new(TesseractConfig::isca2015().without_prefetchers());
        let (_, _, r_on) = on.run(KernelKind::PageRank, &g);
        let (_, _, r_off) = off.run(KernelKind::PageRank, &g);
        assert!(r_off.ns > 1.1 * r_on.ns);
    }

    #[test]
    fn outputs_are_functional() {
        let sim = TesseractSim::new(TesseractConfig::isca2015());
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let g = Graph::rmat(10, 8, &mut rng);
        let (out, _, _) = sim.run(KernelKind::PageRank, &g);
        match out {
            KernelOutput::Ranks(r) => {
                let sum: f64 = r.iter().sum();
                assert!((sum - 1.0).abs() < 1e-9);
            }
            other => panic!("wrong output {other:?}"),
        }
    }
}
