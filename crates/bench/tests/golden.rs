//! Golden conformance suite: pins every headline number EXPERIMENTS.md
//! records for E1–E5, with the tolerance bands stated there.
//!
//! The per-module unit tests check each experiment stands on its own;
//! this suite is the cross-experiment contract — if a refactor moves a
//! headline ratio out of its band, EXPERIMENTS.md is stale and the change
//! needs a conscious re-measurement, not a silent drift. Everything here
//! is deterministic (fixed seeds, analytic models), so the bands can be
//! tight. CI runs this suite at the default pool size and at one worker
//! thread; identical results at any thread count is part of the contract.

use pim_bench::{e1, e2, e3, e4, e5, e6, e8};
use pim_core::{geomean, PimSite};
use pim_workloads::BulkOp;

fn assert_band(v: f64, lo: f64, hi: f64, what: &str) {
    assert!(
        (lo..hi).contains(&v),
        "{what} = {v:.2} outside golden band {lo}..{hi} (see EXPERIMENTS.md)"
    );
}

/// E1 — Ambit-DDR3 44×/32× headline and the full platform ordering.
/// EXPERIMENTS.md: measured 41.6× vs CPU, 28.6× vs GPU.
#[test]
fn e1_throughput_ratios_and_ordering() {
    let results = e1::run(32 << 20);
    let by_name = |n: &str| results.iter().find(|p| p.name == n).unwrap();
    let (cpu, gpu, logic) = (
        by_name("skylake-cpu"),
        by_name("gtx745-gpu"),
        by_name("hmc-logic-layer"),
    );
    let (ambit, hmc_ambit) = (by_name("ambit-ddr3-8banks"), by_name("ambit-hmc"));

    assert_band(e1::avg_ratio(ambit, cpu), 35.0, 50.0, "E1 Ambit vs CPU");
    assert_band(e1::avg_ratio(ambit, gpu), 24.0, 34.0, "E1 Ambit vs GPU");
    let gm = |p: &e1::PlatformThroughput| geomean(&p.gbps).unwrap();
    let order = [gm(cpu), gm(gpu), gm(logic), gm(ambit), gm(hmc_ambit)];
    assert!(
        order.windows(2).all(|w| w[0] < w[1]),
        "E1 platform ordering CPU < GPU < HMC-logic < Ambit-DDR3 < Ambit-HMC broke: {order:?}"
    );
}

/// E2 — per-class energy reductions of Ambit Table 4.
/// EXPERIMENTS.md: NOT 58.1×, AND/OR 41.0×, NAND/NOR 33.2×,
/// XOR/XNOR 17.9×, geomean 32.0×.
#[test]
fn e2_energy_reductions_per_class() {
    let energies = e2::run();
    let red = |op: BulkOp| {
        energies
            .iter()
            .find(|e| e.op == op)
            .expect("op measured")
            .reduction()
    };
    assert_band(red(BulkOp::Not), 47.0, 70.0, "E2 NOT reduction");
    assert_band(red(BulkOp::And), 33.0, 49.0, "E2 AND reduction");
    assert_band(red(BulkOp::Or), 33.0, 49.0, "E2 OR reduction");
    assert_band(red(BulkOp::Nand), 27.0, 40.0, "E2 NAND reduction");
    assert_band(red(BulkOp::Nor), 27.0, 40.0, "E2 NOR reduction");
    assert_band(red(BulkOp::Xor), 14.0, 22.0, "E2 XOR reduction");
    assert_band(red(BulkOp::Xnor), 14.0, 22.0, "E2 XNOR reduction");
    let avg = geomean(&energies.iter().map(|e| e.reduction()).collect::<Vec<_>>()).unwrap();
    assert_band(avg, 26.0, 39.0, "E2 average reduction (paper: 35x)");
    // Deeper in-DRAM sequences cost more energy: NOT < AND < XOR.
    assert!(red(BulkOp::Not) > red(BulkOp::And));
    assert!(red(BulkOp::And) > red(BulkOp::Xor));
}

/// E3 — Ambit-in-HMC vs the HMC logic layer.
/// EXPERIMENTS.md: measured 8.13× (paper 9.7×).
#[test]
fn e3_hmc_ratio() {
    let (logic, ambit) = e3::run_pair();
    assert_band(
        e1::avg_ratio(&ambit, &logic),
        6.5,
        10.5,
        "E3 Ambit-HMC vs logic",
    );
}

/// E4 — end-to-end query speedups grow with data size.
/// EXPERIMENTS.md: bitmap 2.7×→7.2× (1M→16M users), BitWeaving
/// 10.7×→27.4× (1M→16M rows).
#[test]
fn e4_query_speedups() {
    let bitmap = e4::bitmap_sweep(&[20, 24], 4);
    assert_band(bitmap[0].speedup(), 2.0, 4.0, "E4 bitmap speedup at 1M");
    assert_band(bitmap[1].speedup(), 5.5, 9.5, "E4 bitmap speedup at 16M");
    let bw = e4::bitweaving_sweep(&[20, 24], 12);
    assert_band(bw[0].speedup(), 8.0, 14.0, "E4 bitweaving speedup at 1M");
    assert_band(bw[1].speedup(), 20.0, 36.0, "E4 bitweaving speedup at 16M");
    assert!(
        bitmap[1].speedup() > bitmap[0].speedup() && bw[1].speedup() > bw[0].speedup(),
        "E4 speedups must grow with size"
    );
}

/// E5 — Tesseract headline at test scale (2^18; the bin runs 2^20 where
/// EXPERIMENTS.md records 12.3× / 81.7%).
#[test]
fn e5_tesseract_speedup_and_energy() {
    let graph = e5::eval_graph(18, 16);
    let comparisons = e5::run(&graph);
    let speedups: Vec<f64> = comparisons.iter().map(|c| c.speedup()).collect();
    assert_band(geomean(&speedups).unwrap(), 6.0, 20.0, "E5 geomean speedup");
    let avg_energy = comparisons
        .iter()
        .map(|c| c.energy_reduction())
        .sum::<f64>()
        / comparisons.len() as f64;
    assert_band(avg_energy, 0.65, 0.92, "E5 average energy reduction");
    // Every kernel must individually win on both axes.
    for c in &comparisons {
        assert!(c.speedup() > 1.0, "{:?} must beat the host", c.kernel);
        assert!(
            c.energy_reduction() > 0.0,
            "{:?} must save energy",
            c.kernel
        );
    }
}

/// E6 — consumer-workload study through the advisor-driven runtime.
/// Paper: 62.7% movement energy, 55.4% energy / 54.2% time reduction.
#[test]
fn e6_consumer_workload_averages() {
    let analyses = e6::run();
    let n = analyses.len() as f64;
    let mean =
        |f: &dyn Fn(&pim_core::ConsumerAnalysis) -> f64| analyses.iter().map(f).sum::<f64>() / n;
    assert_band(
        mean(&|a| a.movement_fraction),
        0.567,
        0.687,
        "E6 movement-energy fraction",
    );
    let energy = mean(&|a| {
        (a.energy_reduction(PimSite::Core) + a.energy_reduction(PimSite::Accelerator)) / 2.0
    });
    assert_band(energy, 0.474, 0.634, "E6 energy reduction");
    let time =
        mean(&|a| (a.time_reduction(PimSite::Core) + a.time_reduction(PimSite::Accelerator)) / 2.0);
    assert_band(time, 0.442, 0.642, "E6 time reduction");
    // The live runtime dispatch and the closed-form accounting are the
    // same study; they must agree on total baseline energy.
    for (l, s) in analyses.iter().zip(e6::run_static().iter()) {
        let (a, b) = (l.baseline_energy.total_nj(), s.baseline_energy.total_nj());
        assert!(
            (a - b).abs() <= 1e-9 * a.max(b),
            "E6 {}: runtime {a} vs static {b}",
            l.name
        );
    }
}

/// E8 — RowClone copy/init costs through the runtime.
/// RowClone paper: ~11.6× latency, ~74× energy for FPM copies.
#[test]
fn e8_rowclone_ratios() {
    let rows = e8::run_copy(8);
    let by = |m: &str| rows.iter().find(|r| r.mechanism == m).unwrap();
    let (memcpy, fpm, psm) = (by("cpu-memcpy"), by("rowclone-fpm"), by("rowclone-psm"));
    let (memset, zero) = (by("cpu-memset"), by("rowclone-zero"));
    assert_band(memcpy.ns / fpm.ns, 8.0, 30.0, "E8 FPM latency ratio");
    assert!(
        memcpy.nj / fpm.nj > 50.0,
        "E8 FPM energy ratio {} (paper: ~74x)",
        memcpy.nj / fpm.nj
    );
    // PSM sits between the channel copy and FPM on both axes.
    assert!(
        psm.ns < memcpy.ns && psm.ns > fpm.ns,
        "E8 PSM latency order"
    );
    assert!(psm.nj < memcpy.nj && psm.nj > fpm.nj, "E8 PSM energy order");
    // Zero-init is one AAP, same cost as an FPM copy, and beats memset.
    assert!((zero.ns - fpm.ns).abs() < 1.0, "E8 zero-init = one AAP");
    assert!(memset.ns / zero.ns > 8.0, "E8 zero-init vs memset");
}
