//! `graph_tesseract`: one E5 kernel job per request, advised onto a
//! Tesseract backend, after which `HostGraphModel::run` prices the
//! conventional-host baseline from the run's execution trace. The five
//! kernels take turns over one R-MAT graph (scale 16, degree 16).

use crate::spans::{self, scope};
use crate::timed::Timed;
use crate::workload::{Scale, Tally, Workload};
use pim_core::Objective;
use pim_runtime::{GraphRun, Job, JobOutput, Placement, Runtime, TesseractBackend};
use pim_tesseract::{
    HostGraphConfig, HostGraphModel, KernelOutput, TesseractConfig, TesseractReport, TesseractSim,
};
use pim_workloads::{kernels, Graph, KernelKind};
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;

/// Program objects: the runtime and the host baseline model.
pub struct Program {
    rt: Runtime,
    host: HostGraphModel,
}

/// One kernel run and its modeled Tesseract time and energy.
#[derive(Debug)]
pub struct Output {
    run: GraphRun,
    ns: f64,
    energy_nj: f64,
}

/// Host reference results of the kernels with a unique answer.
struct References {
    atf: (Vec<u32>, f64),
    conductance: f64,
    pagerank: Vec<f64>,
    sssp: Vec<u32>,
}

/// The graph workload.
pub struct GraphTesseract {
    graph: Arc<Graph>,
    refs: References,
    twin: TesseractSim,
}

impl GraphTesseract {
    /// Generates the seed's R-MAT graph and the host reference results.
    pub fn new(scale: Scale, seed: u64) -> Self {
        let log2_vertices = match scale {
            Scale::Full => 16,
            Scale::Smoke => 10,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let graph = Graph::rmat(log2_vertices, 16, &mut rng);
        let refs = References {
            atf: kernels::average_teenage_followers(&graph),
            conductance: kernels::conductance(&graph),
            pagerank: kernels::pagerank(&graph, KernelKind::PageRank.iterations()),
            sssp: kernels::sssp(&graph, 0),
        };
        GraphTesseract {
            graph: Arc::new(graph),
            refs,
            twin: TesseractSim::new(TesseractConfig::isca2015()),
        }
    }

    /// Checks a kernel output with the engine tests' tolerances; vertex
    /// cover has many valid answers, so it is checked for validity.
    fn matches(&self, out: &KernelOutput) -> bool {
        let r = &self.refs;
        match out {
            KernelOutput::TeenCounts(counts, avg) => {
                *counts == r.atf.0 && (avg - r.atf.1).abs() < 1e-12
            }
            KernelOutput::Conductance(c) => (c - r.conductance).abs() < 1e-12,
            KernelOutput::Ranks(ranks) => {
                ranks.len() == r.pagerank.len()
                    && ranks
                        .iter()
                        .zip(&r.pagerank)
                        .all(|(a, b)| (a - b).abs() < 1e-9)
            }
            KernelOutput::Distances(d) => *d == r.sssp,
            KernelOutput::Cover(cover) => {
                cover.len() == self.graph.num_vertices()
                    && self
                        .graph
                        .edges()
                        .all(|(u, v)| u == v || cover[u as usize] || cover[v as usize])
                    && cover.iter().any(|&c| !c)
            }
        }
    }
}

impl Workload for GraphTesseract {
    type Program = Program;
    type Output = Output;

    fn round_len(&self) -> usize {
        KernelKind::ALL.len()
    }

    fn build(&self, traced: bool) -> Program {
        let backend = TesseractBackend::new("tesseract", TesseractConfig::isca2015());
        let rt = if traced {
            Runtime::new().with(Box::new(Timed::new(backend, "tesseract")))
        } else {
            Runtime::new().with(Box::new(backend))
        };
        Program {
            rt,
            host: HostGraphModel::new(HostGraphConfig::ddr3_ooo()),
        }
    }

    fn request(&self, p: &mut Program, i: usize) -> Result<Output, String> {
        let job = Job::GraphBatch {
            kernel: KernelKind::ALL[i % self.round_len()],
            graph: self.graph.clone(),
        };
        scope("runtime.submit", || {
            p.rt.submit(job, Placement::Advised(Objective::Time))
        })
        .map_err(|e| e.to_string())?;
        let mut done = scope("runtime.drain", || p.rt.drain()).map_err(|e| e.to_string())?;
        let c = done.pop().ok_or("no completion")?;
        let JobOutput::Graph(run) = c.output else {
            return Err("graph job returned no graph run".into());
        };
        black_box(scope("host.graph_model", || {
            p.host.run(&run.trace, &self.graph)
        }));
        Ok(Output {
            run: *run,
            ns: c.report.ns,
            energy_nj: c.report.energy.total_nj(),
        })
    }

    fn check(&self, i: usize, out: &Output) -> Result<Tally, String> {
        let kernel = KernelKind::ALL[i % self.round_len()];
        if out.run.trace.kernel != kernel || !self.matches(&out.run.output) {
            return Err(format!("{kernel}: output differs from the host reference"));
        }
        Ok(Tally {
            work: out.run.trace.totals().edges_scanned,
            modeled_ns: out.ns,
        })
    }

    fn twins(&mut self, _p: &mut Program, i: usize, out: &Output) -> u64 {
        let kernel = KernelKind::ALL[i % self.round_len()];
        let mut mismatches = 0;
        let (output, trace, _) = scope("tesseract.run", || self.twin.run(kernel, &self.graph));
        if output != out.run.output || trace != out.run.trace {
            spans::discard_last();
            mismatches += 1;
        }
        let report = scope("tesseract.timing", || {
            TesseractReport::from_trace(&out.run.trace, self.twin.config())
        });
        if report.ns.to_bits() != out.ns.to_bits()
            || report.energy.total_nj().to_bits() != out.energy_nj.to_bits()
        {
            spans::discard_last();
            mismatches += 1;
        }
        mismatches
    }

    fn layer_values(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}
