//! E4 — end-to-end database query latency (paper §2: bitmap indices and
//! BitWeaving scans, *"query latency reductions of 2X to 12X, with larger
//! benefits for larger data set sizes"*).
//!
//! Each compiled query plan is submitted twice to a two-backend
//! [`pim_runtime`] runtime — forced onto the CPU baseline and forced onto
//! Ambit — so the A/B comparison runs on the exact dispatch path the
//! advisor-driven experiments use, and the two backends' functional
//! outputs are asserted identical.

use pim_ambit::AmbitConfig;
use pim_core::{Table, Value};
use pim_host::{CpuConfig, CpuModel};
use pim_runtime::{AmbitBackend, CpuBackend, Job, Placement, Runtime};
use pim_workloads::{
    BitSlicedColumn, BitVec, BitmapIndex, BitwisePlan, ConjunctiveQuery, Predicate,
};
use rand::SeedableRng;
use std::sync::Arc;

/// Fixed per-query software overhead (operator dispatch, predicate setup,
/// result materialization) charged identically on both systems; this is
/// what makes the speedup grow with data size in the paper's end-to-end
/// measurement.
pub const FIXED_QUERY_NS: f64 = 50_000.0;

/// One query-latency data point.
#[derive(Debug, Clone, Copy)]
pub struct QueryPoint {
    /// Rows in the data set.
    pub rows: usize,
    /// CPU latency, ns.
    pub cpu_ns: f64,
    /// Ambit latency, ns.
    pub ambit_ns: f64,
}

impl QueryPoint {
    /// CPU / Ambit latency.
    pub fn speedup(&self) -> f64 {
        self.cpu_ns / self.ambit_ns
    }
}

/// Prices one compiled plan on both sites through the runtime. The final
/// popcount of the result bitmap runs on the CPU either way (Ambit has no
/// reduction unit), and both sites pay the fixed query overhead.
fn run_both(plan: BitwisePlan, inputs: Vec<&BitVec>, rows: usize) -> (BitVec, QueryPoint) {
    let inputs: Vec<Arc<BitVec>> = inputs.into_iter().cloned().map(Arc::new).collect();
    let cpu = CpuModel::new(CpuConfig::skylake_ddr3());
    let mut rt = Runtime::new()
        .with(Box::new(CpuBackend::new(
            "cpu",
            CpuModel::new(CpuConfig::skylake_ddr3()),
        )))
        .with(Box::new(AmbitBackend::new("ambit", AmbitConfig::ddr3())));
    let job = Job::Bitwise { plan, inputs };
    rt.submit(job.clone(), Placement::Forced("cpu".into()))
        .expect("submit cpu");
    rt.submit(job, Placement::Forced("ambit".into()))
        .expect("submit ambit");
    let done = rt.drain().expect("drain");
    assert_eq!(done[0].output, done[1].output, "cpu and ambit plans agree");
    let result = done[1].output.bits().expect("single output").clone();
    let pop = cpu.popcount((rows as u64).div_ceil(8));
    let point = QueryPoint {
        rows,
        cpu_ns: FIXED_QUERY_NS + done[0].report.ns + pop.ns,
        ambit_ns: FIXED_QUERY_NS + done[1].report.ns + pop.ns,
    };
    (result, point)
}

/// Bitmap-index sweep: "active in all of the trailing `weeks` weeks".
/// Each data point owns its index and runtime, so points run
/// concurrently on a multi-thread pool.
pub fn bitmap_sweep(log_users: &[u32], weeks: usize) -> Vec<QueryPoint> {
    let tasks: Vec<Box<dyn FnOnce() -> QueryPoint + Send>> = log_users
        .iter()
        .map(|&lu| {
            Box::new(move || {
                let users = 1usize << lu;
                let mut rng = rand::rngs::StdRng::seed_from_u64(7);
                let index = BitmapIndex::random(users, weeks, 0.8, &mut rng);
                let plan = index.all_active_plan(weeks);
                let (result, point) = run_both(plan, index.trailing_inputs(weeks), users);
                assert_eq!(
                    result.count_ones(),
                    index.count_all_active(weeks),
                    "functional check"
                );
                point
            }) as Box<dyn FnOnce() -> QueryPoint + Send>
        })
        .collect();
    crate::run_tasks(tasks)
}

/// BitWeaving sweep: `column < c` scans over `bits`-bit codes.
pub fn bitweaving_sweep(log_rows: &[u32], bits: u32) -> Vec<QueryPoint> {
    let tasks: Vec<Box<dyn FnOnce() -> QueryPoint + Send>> = log_rows
        .iter()
        .map(|&lr| {
            Box::new(move || {
                let rows = 1usize << lr;
                let mut rng = rand::rngs::StdRng::seed_from_u64(13);
                let col = BitSlicedColumn::random(rows, bits, &mut rng);
                let c = 1u64 << (bits - 1);
                let plan = col.less_than_plan(c);
                let (result, point) = run_both(plan, col.plan_inputs(), rows);
                assert_eq!(result, col.less_than(c), "functional check");
                point
            }) as Box<dyn FnOnce() -> QueryPoint + Send>
        })
        .collect();
    crate::run_tasks(tasks)
}

/// Multi-column conjunctive query sweep: `a < c1 AND b = c2 AND r1 <= c < r2`
/// compiled to one plan and executed on both backends.
pub fn conjunctive_sweep(log_rows: &[u32]) -> Vec<QueryPoint> {
    let tasks: Vec<Box<dyn FnOnce() -> QueryPoint + Send>> = log_rows
        .iter()
        .map(|&lr| {
            Box::new(move || {
                let rows = 1usize << lr;
                let mut rng = rand::rngs::StdRng::seed_from_u64(17);
                let a = BitSlicedColumn::random(rows, 8, &mut rng);
                let b = BitSlicedColumn::random(rows, 6, &mut rng);
                let c = BitSlicedColumn::random(rows, 10, &mut rng);
                let q = ConjunctiveQuery::new()
                    .and(0, Predicate::LessThan(150))
                    .and(1, Predicate::Equals(17))
                    .and(2, Predicate::Range(100, 800));
                let cols = [&a, &b, &c];
                let plan = q.compile(&cols);
                let (result, point) = run_both(plan, q.plan_inputs(&cols), rows);
                assert_eq!(result, q.evaluate_scalar(&cols), "functional check");
                point
            }) as Box<dyn FnOnce() -> QueryPoint + Send>
        })
        .collect();
    crate::run_tasks(tasks)
}

/// Renders both sweeps as one table.
pub fn table() -> Table {
    let mut t = Table::new(
        "E4: end-to-end query latency — paper: 2x-12x, growing with data size",
        &["query", "rows", "CPU (us)", "Ambit (us)", "speedup"],
    );
    for p in bitmap_sweep(&[20, 22, 24], 4) {
        t.row(vec![
            "bitmap all-active(4wk)".into(),
            Value::Num(p.rows as f64),
            Value::Num(p.cpu_ns / 1000.0),
            Value::Num(p.ambit_ns / 1000.0),
            Value::Ratio(p.speedup()),
        ]);
    }
    for p in bitweaving_sweep(&[20, 22, 24], 12) {
        t.row(vec![
            "bitweaving lt-scan(12b)".into(),
            Value::Num(p.rows as f64),
            Value::Num(p.cpu_ns / 1000.0),
            Value::Num(p.ambit_ns / 1000.0),
            Value::Ratio(p.speedup()),
        ]);
    }
    for p in conjunctive_sweep(&[20, 22]) {
        t.row(vec![
            "3-column WHERE clause".into(),
            Value::Num(p.rows as f64),
            Value::Num(p.cpu_ns / 1000.0),
            Value::Num(p.ambit_ns / 1000.0),
            Value::Ratio(p.speedup()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_speedup_grows_with_size_in_paper_band() {
        let points = bitmap_sweep(&[20, 22, 24], 4);
        for w in points.windows(2) {
            assert!(
                w[1].speedup() > w[0].speedup(),
                "speedup must grow with size"
            );
        }
        let min = points.first().unwrap().speedup();
        let max = points.last().unwrap().speedup();
        assert!(
            min > 1.8 && min < 6.0,
            "smallest speedup {min} (paper: ~2x)"
        );
        assert!(
            max > 5.0 && max < 14.0,
            "largest speedup {max} (paper: up to 12x)"
        );
    }

    #[test]
    fn bitweaving_speedup_grows_with_size() {
        let points = bitweaving_sweep(&[18, 20, 22], 12);
        for w in points.windows(2) {
            assert!(w[1].speedup() >= w[0].speedup() * 0.98);
        }
        let max = points.last().unwrap().speedup();
        assert!(max > 3.0, "bitweaving top speedup {max}");
    }

    #[test]
    fn conjunctive_queries_accelerate_too() {
        let points = conjunctive_sweep(&[18, 20]);
        for p in &points {
            assert!(p.speedup() > 2.0, "conjunctive speedup {}", p.speedup());
        }
        assert!(points[1].speedup() >= points[0].speedup() * 0.9);
    }

    #[test]
    fn table_renders() {
        let md = table().to_markdown();
        assert!(md.contains("bitmap"));
        assert!(md.contains("bitweaving"));
        assert!(md.contains("WHERE"));
    }
}
