//! E5 — Tesseract graph processing vs. a conventional system (paper §3:
//! *"Tesseract improves average system performance by 13.8× and reduces
//! average system energy by 87%"*), plus the prefetcher ablation.

use pim_core::{geomean, Objective, Table, Value};
use pim_runtime::{Job, JobOutput, Placement, Runtime, TesseractBackend};
use pim_tesseract::{
    trace_ns, Comparison, HostGraphConfig, HostGraphModel, TesseractConfig, TesseractReport,
    TesseractSim,
};
use pim_workloads::{Graph, KernelKind};
use rand::SeedableRng;
use std::sync::Arc;

/// Generates the evaluation graph (R-MAT, LLC-hostile vertex state).
pub fn eval_graph(scale: u32, degree: usize) -> Graph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    Graph::rmat(scale, degree, &mut rng)
}

/// Runs the five kernels against `host`, one task per kernel (concurrent
/// on a multi-thread pool; each comparison is independent).
///
/// Each kernel is a [`Job::GraphBatch`] advised onto a Tesseract-backed
/// runtime; the host baseline prices the same execution trace the
/// accelerator produced, exactly as [`TesseractSim::compare`] does.
fn compare_all(graph: &Graph, host: HostGraphConfig) -> Vec<Comparison> {
    let graph = Arc::new(graph.clone());
    let host = &host;
    let graph = &graph;
    let tasks: Vec<Box<dyn FnOnce() -> Comparison + Send + '_>> = KernelKind::ALL
        .iter()
        .map(|&k| {
            Box::new(move || {
                let config = TesseractConfig::isca2015();
                let mut rt = Runtime::new()
                    .with(Box::new(TesseractBackend::new("tesseract", config.clone())));
                rt.submit(
                    Job::GraphBatch {
                        kernel: k,
                        graph: graph.clone(),
                    },
                    Placement::Advised(Objective::Time),
                )
                .expect("submit");
                let done = rt.drain().expect("drain");
                let JobOutput::Graph(run) = &done[0].output else {
                    panic!("graph job returns a graph run");
                };
                Comparison {
                    kernel: k,
                    output: run.output.clone(),
                    tesseract: TesseractReport::from_trace(&run.trace, &config),
                    host: HostGraphModel::new(host.clone()).run(&run.trace, graph),
                }
            }) as Box<dyn FnOnce() -> Comparison + Send + '_>
        })
        .collect();
    crate::run_tasks(tasks)
}

/// Runs all five kernels; returns the comparisons.
pub fn run(graph: &Graph) -> Vec<Comparison> {
    compare_all(graph, HostGraphConfig::ddr3_ooo())
}

/// Runs the five kernels sequentially through one telemetry-enabled
/// Tesseract runtime and freezes the snapshot: per-vault superstep
/// utilization and message volumes (`tesseract.vault.*`), the
/// active-vault histogram, and one advised job span per kernel.
pub fn telemetry_snapshot(scale: u32, degree: usize) -> pim_telemetry::Snapshot {
    let graph = Arc::new(eval_graph(scale, degree));
    let mut rt = Runtime::new().with(Box::new(TesseractBackend::new(
        "tesseract",
        TesseractConfig::isca2015(),
    )));
    rt.set_telemetry(true);
    for &kernel in KernelKind::ALL.iter() {
        rt.submit(
            Job::GraphBatch {
                kernel,
                graph: graph.clone(),
            },
            Placement::Advised(Objective::Time),
        )
        .expect("submit");
    }
    rt.drain().expect("drain");
    pim_telemetry::Snapshot::from_sink(rt.take_telemetry().expect("telemetry is enabled"))
        .with_meta("experiment", "e5")
        .with_meta("backend", "tesseract")
        .with_meta("scale", scale.to_string())
        .with_meta("degree", degree.to_string())
}

/// Cycle-domain profile of the five-kernel Tesseract run: the same
/// workload as [`telemetry_snapshot`] with profiling enabled instead,
/// returning the `PIMPROF01` capture — per-vault superstep slices on the
/// synthesized picosecond clock, queue/jobs lanes, and one
/// [`JobRecord`](pim_profile::JobRecord) per kernel.
pub fn profile_capture(scale: u32, degree: usize) -> pim_profile::Profile {
    let graph = Arc::new(eval_graph(scale, degree));
    let mut rt = Runtime::new().with(Box::new(TesseractBackend::new(
        "tesseract",
        TesseractConfig::isca2015(),
    )));
    rt.set_profile(true);
    for &kernel in KernelKind::ALL.iter() {
        rt.submit(
            Job::GraphBatch {
                kernel,
                graph: graph.clone(),
            },
            Placement::Advised(Objective::Time),
        )
        .expect("submit");
    }
    rt.drain().expect("drain");
    rt.take_profile()
        .expect("profiling is enabled")
        .with_meta("experiment", "e5")
        .with_meta("backend", "tesseract")
        .with_meta("scale", scale.to_string())
        .with_meta("degree", degree.to_string())
}

/// Like [`run`] but against the ISCA'15 HMC-OoO baseline (HMC as plain
/// main memory — more bandwidth, still no computation in memory).
pub fn run_vs_hmc_ooo(graph: &Graph) -> Vec<Comparison> {
    compare_all(graph, HostGraphConfig::hmc_ooo())
}

/// Prefetcher ablation: Tesseract time without prefetchers / with.
/// One task per kernel, concurrent on a multi-thread pool.
pub fn prefetcher_ablation(graph: &Graph) -> Vec<(KernelKind, f64)> {
    let on = TesseractSim::new(TesseractConfig::isca2015());
    let off = TesseractSim::new(TesseractConfig::isca2015().without_prefetchers());
    let (on, off) = (&on, &off);
    let tasks: Vec<Box<dyn FnOnce() -> (KernelKind, f64) + Send + '_>> = KernelKind::ALL
        .iter()
        .map(|&k| {
            Box::new(move || {
                let (_, _, r_on) = on.run(k, graph);
                let (_, _, r_off) = off.run(k, graph);
                (k, r_off.ns / r_on.ns)
            }) as Box<dyn FnOnce() -> (KernelKind, f64) + Send + '_>
        })
        .collect();
    crate::run_tasks(tasks)
}

/// Renders the main table.
pub fn table(scale: u32, degree: usize) -> Table {
    let graph = eval_graph(scale, degree);
    let comparisons = run(&graph);
    let mut t = Table::new(
        format!(
            "E5: Tesseract vs conventional host on R-MAT 2^{scale} x deg {degree} — paper: 13.8x speedup, 87% energy reduction"
        ),
        &["kernel", "host (ms)", "tesseract (ms)", "speedup", "energy saved", "remote msgs"],
    );
    let mut speedups = Vec::new();
    for c in &comparisons {
        speedups.push(c.speedup());
        t.row(vec![
            c.kernel.to_string().into(),
            Value::Num(c.host.ns / 1e6),
            Value::Num(c.tesseract.ns / 1e6),
            Value::Ratio(c.speedup()),
            Value::Percent(c.energy_reduction()),
            Value::Percent(c.tesseract.remote_fraction),
        ]);
    }
    let energies: Vec<f64> = comparisons.iter().map(|c| c.energy_reduction()).collect();
    t.row(vec![
        "geomean / mean".into(),
        "".into(),
        "".into(),
        Value::Ratio(geomean(&speedups).expect("speedups are positive")),
        Value::Percent(energies.iter().sum::<f64>() / energies.len() as f64),
        "".into(),
    ]);
    t
}

/// Renders the ablation table.
pub fn ablation_table(scale: u32, degree: usize) -> Table {
    let graph = eval_graph(scale, degree);
    let mut t = Table::new(
        "E5b: prefetcher ablation — Tesseract slowdown with both prefetchers disabled",
        &["kernel", "slowdown"],
    );
    for (k, s) in prefetcher_ablation(&graph) {
        t.row(vec![k.to_string().into(), Value::Ratio(s)]);
    }
    t
}

/// Table: Tesseract vs both conventional baselines (DDR3-OoO and
/// HMC-OoO) — the paper's point that *using* high-bandwidth memory is not
/// the same as *computing in* it.
pub fn baselines_table(scale: u32, degree: usize) -> Table {
    let graph = eval_graph(scale, degree);
    let vs_ddr3 = run(&graph);
    let vs_hmc = run_vs_hmc_ooo(&graph);
    let mut t = Table::new(
        "E5g: Tesseract speedup vs DDR3-OoO and HMC-OoO hosts",
        &["kernel", "vs DDR3-OoO", "vs HMC-OoO"],
    );
    let mut s1 = Vec::new();
    let mut s2 = Vec::new();
    for (a, b) in vs_ddr3.iter().zip(vs_hmc.iter()) {
        s1.push(a.speedup());
        s2.push(b.speedup());
        t.row(vec![
            a.kernel.to_string().into(),
            Value::Ratio(a.speedup()),
            Value::Ratio(b.speedup()),
        ]);
    }
    t.row(vec![
        "geomean".into(),
        Value::Ratio(geomean(&s1).expect("speedups are positive")),
        Value::Ratio(geomean(&s2).expect("speedups are positive")),
    ]);
    t
}

/// Figure: Tesseract PageRank speedup vs. internal (TSV) bandwidth —
/// the ISCA'15 memory-bandwidth-scaling experiment. The execution trace is
/// computed once; only the timing model's bandwidth varies.
pub fn bandwidth_sweep_table(scale: u32, degree: usize) -> Table {
    let graph = eval_graph(scale, degree);
    let sim = TesseractSim::new(TesseractConfig::isca2015());
    let (_, trace, _) = sim.run(KernelKind::PageRank, &graph);
    let host_cfg = HostGraphConfig::ddr3_ooo();
    let host_ns = HostGraphModel::new(host_cfg).run(&trace, &graph).ns;
    let mut t = Table::new(
        "E5c: PageRank speedup vs per-vault TSV bandwidth (bandwidth scaling figure)",
        &[
            "GB/s per vault",
            "aggregate (GB/s)",
            "tesseract (ms)",
            "speedup vs host",
        ],
    );
    for tsv in [2.5f64, 5.0, 10.0, 20.0, 40.0] {
        let mut cfg = TesseractConfig::isca2015();
        cfg.stack.tsv_gbps_per_vault = tsv;
        let ns = trace_ns(&trace, &cfg);
        t.row(vec![
            Value::Num(tsv),
            Value::Num(tsv * cfg.stack.vaults as f64),
            Value::Num(ns / 1e6),
            Value::Ratio(host_ns / ns),
        ]);
    }
    t
}

/// Figure: speedup vs graph size — small graphs fit the host's caches
/// (muting Tesseract's advantage); LLC-overflowing graphs restore it.
pub fn graph_size_sweep_table(degree: usize) -> Table {
    let sim = TesseractSim::new(TesseractConfig::isca2015());
    let host = HostGraphConfig::ddr3_ooo();
    let mut t = Table::new(
        "E5d: PageRank speedup vs graph size (cache-residency figure)",
        &["scale", "vertices", "edges", "host miss rate", "speedup"],
    );
    for scale in [14u32, 16, 18, 20] {
        let graph = eval_graph(scale, degree);
        let cmp = sim.compare(KernelKind::PageRank, &graph, &host);
        t.row(vec![
            Value::Num(scale as f64),
            Value::Num(graph.num_vertices() as f64),
            Value::Num(graph.num_edges() as f64),
            Value::Percent(cmp.host.miss_rate),
            Value::Ratio(cmp.speedup()),
        ]);
    }
    t
}

/// Figure: PageRank time vs PIM core frequency — where the accelerator is
/// compute-bound vs memory-bound.
pub fn frequency_sweep_table(scale: u32, degree: usize) -> Table {
    let graph = eval_graph(scale, degree);
    let sim = TesseractSim::new(TesseractConfig::isca2015());
    let (_, trace, _) = sim.run(KernelKind::PageRank, &graph);
    let mut t = Table::new(
        "E5f: PageRank time vs PIM core frequency (compute-boundedness figure)",
        &["core GHz", "tesseract (ms)", "vs 2 GHz"],
    );
    let base = {
        let cfg = TesseractConfig::isca2015();
        trace_ns(&trace, &cfg)
    };
    for ghz in [0.5f64, 1.0, 2.0, 4.0, 8.0] {
        let mut cfg = TesseractConfig::isca2015();
        cfg.core_ghz = ghz;
        let ns = trace_ns(&trace, &cfg);
        t.row(vec![
            Value::Num(ghz),
            Value::Num(ns / 1e6),
            Value::Ratio(base / ns),
        ]);
    }
    t
}

/// Table: where the energy goes — Tesseract vs. host, by component, for
/// each kernel (the paper's 87% claim decomposed).
pub fn energy_breakdown_table(scale: u32, degree: usize) -> Table {
    use pim_energy::Component;
    let graph = eval_graph(scale, degree);
    let comparisons = run(&graph);
    let mut t = Table::new(
        "E5e: energy by component (mJ) — host vs Tesseract",
        &[
            "kernel",
            "host core",
            "host dram+cache",
            "tess core",
            "tess dram+tsv",
            "saved",
        ],
    );
    for c in &comparisons {
        let host_core = c.host.energy.get(Component::CoreCompute) / 1e6;
        let host_mem = (c.host.energy.total_nj() - c.host.energy.get(Component::CoreCompute)) / 1e6;
        let tess_core = c.tesseract.energy.get(Component::CoreCompute) / 1e6;
        let tess_mem =
            (c.tesseract.energy.total_nj() - c.tesseract.energy.get(Component::CoreCompute)) / 1e6;
        t.row(vec![
            c.kernel.to_string().into(),
            Value::Num(host_core),
            Value::Num(host_mem),
            Value::Num(tess_core),
            Value::Num(tess_mem),
            Value::Percent(c.energy_reduction()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moderate_scale_reproduction_is_in_band() {
        // Scale 18 keeps the test quick; the bin runs scale 20.
        let graph = eval_graph(18, 16);
        let comparisons = run(&graph);
        let speedups: Vec<f64> = comparisons.iter().map(|c| c.speedup()).collect();
        let g = geomean(&speedups).unwrap();
        assert!(
            (4.0..25.0).contains(&g),
            "geomean speedup {g} (paper: 13.8x)"
        );
        let avg_energy: f64 = comparisons
            .iter()
            .map(|c| c.energy_reduction())
            .sum::<f64>()
            / comparisons.len() as f64;
        assert!(
            (0.6..0.95).contains(&avg_energy),
            "energy reduction {avg_energy} (paper: 0.87)"
        );
    }

    #[test]
    fn speedup_scales_with_internal_bandwidth() {
        let t = bandwidth_sweep_table(16, 16);
        let speedups: Vec<f64> = t
            .rows()
            .iter()
            .map(|r| match &r[3] {
                pim_core::Value::Ratio(v) => *v,
                other => panic!("unexpected cell {other:?}"),
            })
            .collect();
        // More bandwidth never hurts and the sweep spans a real range.
        for w in speedups.windows(2) {
            assert!(
                w[1] >= w[0] * 0.999,
                "speedup must be monotone: {speedups:?}"
            );
        }
        assert!(
            speedups.last().unwrap() > &(speedups[0] * 1.3),
            "bandwidth must matter: {speedups:?}"
        );
    }

    #[test]
    fn speedup_grows_as_graphs_leave_the_llc() {
        let t = graph_size_sweep_table(16);
        let speedups: Vec<f64> = t
            .rows()
            .iter()
            .map(|r| match &r[4] {
                pim_core::Value::Ratio(v) => *v,
                other => panic!("unexpected cell {other:?}"),
            })
            .collect();
        assert!(
            speedups.last().unwrap() > speedups.first().unwrap(),
            "LLC-overflowing graphs must favor Tesseract more: {speedups:?}"
        );
    }

    #[test]
    fn tesseract_still_beats_the_hmc_ooo_host_but_by_less() {
        let graph = eval_graph(16, 16);
        let vs_ddr3 = run(&graph);
        let vs_hmc = run_vs_hmc_ooo(&graph);
        let g1 = geomean(&vs_ddr3.iter().map(|c| c.speedup()).collect::<Vec<_>>()).unwrap();
        let g2 = geomean(&vs_hmc.iter().map(|c| c.speedup()).collect::<Vec<_>>()).unwrap();
        assert!(g2 > 1.0, "Tesseract must still win vs HMC-OoO: {g2}");
        assert!(g2 < g1, "a better host narrows the gap: {g1} vs {g2}");
    }

    #[test]
    fn frequency_sweep_shows_diminishing_returns() {
        let t = frequency_sweep_table(16, 16);
        let times: Vec<f64> = t.rows().iter().map(|r| r[1].as_f64().unwrap()).collect();
        // Faster cores never hurt; the last doubling helps less than the
        // first (the memory side takes over).
        for w in times.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
        let first_gain = times[0] / times[1];
        let last_gain = times[3] / times[4];
        assert!(first_gain > last_gain, "returns must diminish: {times:?}");
    }

    #[test]
    fn energy_breakdown_components_account_for_the_savings() {
        let t = energy_breakdown_table(16, 16);
        for r in t.rows() {
            let host_total = r[1].as_f64().unwrap() + r[2].as_f64().unwrap();
            let tess_total = r[3].as_f64().unwrap() + r[4].as_f64().unwrap();
            assert!(tess_total < host_total, "{:?}", r[0]);
            // Core energy collapses the most (0.5 -> 0.06 nJ/op).
            assert!(r[3].as_f64().unwrap() < r[1].as_f64().unwrap());
        }
    }

    #[test]
    fn prefetchers_matter_for_every_kernel() {
        let graph = eval_graph(16, 16);
        for (k, s) in prefetcher_ablation(&graph) {
            assert!(s > 1.05, "{k}: ablation slowdown {s}");
        }
    }
}
