//! Capacity-scaling experiment family (`results/BENCH_scaling.json`):
//! the 256-bank E1 bulk-AND sweep, the multi-stack E5 identity and
//! balance check, and the host-interference ablation — plus the
//! regression bands CI gates on.
//!
//! ## Methodology: measured channel-domain costs
//!
//! The Ambit engine replays on one host thread, so the sweep reports
//! measured host wall times, not speedups: the whole device's sequential
//! time, and each channel domain's slice running alone on a one-channel
//! device of the same shape (minimum over repetitions). Channels share no
//! timing state in the modeled machine, so how evenly the domains split
//! the work is a property of the machine; the balance band gates it. The
//! domain sum is reported next to the sequential time, so the gap between
//! the two stays visible.

use pim_ambit::{AmbitConfig, AmbitSystem};
use pim_core::{Table, Value as Cell};
use pim_dram::DramSpec;
use pim_tesseract::{TesseractConfig, TesseractSim};
use pim_workloads::{BitVec, BulkOp, Graph, KernelKind};
use rand::SeedableRng;
use serde_json::{Map, Value};
use std::path::PathBuf;
use std::time::Instant;

/// Format tag of the `BENCH_scaling.json` envelope.
pub const SCALING_TAG: &str = "PIMSCALE02";

/// Bulk-AND repetitions inside one measured run.
const ITERS: usize = 4;

/// Timing repetitions; the minimum is kept (noise is one-sided).
const REPS: usize = 3;

/// Stack counts [`multi_stack`] measures, each required by the band.
const STACK_POINTS: [u32; 3] = [1, 4, 16];

/// The balance band: the domain sum over the costliest channel domain
/// must reach this, i.e. no domain costs more than a third of the sum.
const MIN_DOMAIN_BALANCE: f64 = 3.0;

/// The 256-bank HMC-scale organization the acceptance gate names.
fn spec_256() -> DramSpec {
    DramSpec::ddr3_1600()
        .with_org(4, 4, 16)
        .expect("4ch x 4ra x 16ba is a valid organization")
}

fn config_for(spec: DramSpec) -> AmbitConfig {
    AmbitConfig {
        spec,
        ..AmbitConfig::ddr3()
    }
}

/// One observable-complete bulk-AND run: output bits, normalized trace
/// bytes, and the wall seconds of the execute loop alone.
struct AndRun {
    out: BitVec,
    trace: Option<Vec<u8>>,
    secs: f64,
}

/// Allocates operands spanning every bank of `config`'s device, runs
/// `ITERS` bulk ANDs, and fingerprints the result.
fn run_bulk_and(config: AmbitConfig, trace: bool) -> AndRun {
    let mut sys = AmbitSystem::new(config);
    sys.set_trace(trace);
    let bits = sys.row_bits() * sys.spec().org.total_banks() as usize;
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let a = sys.alloc(bits).expect("alloc a");
    let b = sys.alloc(bits).expect("alloc b");
    let out = sys.alloc(bits).expect("alloc out");
    sys.write(&a, &BitVec::random(bits, 0.5, &mut rng))
        .expect("write a");
    sys.write(&b, &BitVec::random(bits, 0.5, &mut rng))
        .expect("write b");
    let t0 = Instant::now();
    for _ in 0..ITERS {
        sys.execute(BulkOp::And, &a, Some(&b), &out)
            .expect("execute");
    }
    let secs = t0.elapsed().as_secs_f64();
    let trace = trace.then(|| {
        let spec = sys.spec().clone();
        pim_check::Trace::capture(spec, sys.take_trace()).to_bytes()
    });
    AndRun {
        out: sys.read(&out),
        trace,
        secs,
    }
}

/// The E1 sweep of one organization (256 banks in the report): identity
/// checks plus measured costs.
#[derive(Debug, Clone)]
pub struct E1Scaling {
    /// Human-readable organization.
    pub org: String,
    /// Total banks.
    pub banks: u32,
    /// 64-bit output words per measured run.
    pub words: u64,
    /// Measured sequential whole-device seconds.
    pub seq_secs: f64,
    /// Measured per-channel-domain seconds, channel order.
    pub domain_secs: Vec<f64>,
    /// A repeat traced run matches the reference run's output bits and
    /// normalized trace bytes, and every timing repetition its output.
    pub byte_identical: bool,
    /// The protocol oracle accepts the reference trace.
    pub oracle_clean: bool,
}

/// Runs the E1 sweep on `spec`'s device: a traced reference run, a
/// traced repeat and `REPS` untraced timing repetitions checked against
/// it, the oracle on its trace, then each channel domain's slice alone
/// on a single-channel device of the same shape.
pub fn e1_scaling(spec: DramSpec) -> E1Scaling {
    let org = spec.org;
    let bits = org.row_bits() as usize * org.total_banks() as usize;
    let words = (bits as u64 / 64) * ITERS as u64;

    let base = run_bulk_and(config_for(spec.clone()), true);
    let base_trace = base.trace.as_ref().expect("trace captured");
    let oracle_clean = pim_check::check_trace(
        &pim_check::Trace::from_bytes(base_trace).expect("trace parses"),
        pim_check::CheckOptions::timing_only(),
    )
    .is_ok();
    let again = run_bulk_and(config_for(spec.clone()), true);
    let mut byte_identical = again.out == base.out && again.trace.as_ref() == Some(base_trace);
    let mut seq_secs = f64::INFINITY;
    for _ in 0..REPS {
        let run = run_bulk_and(config_for(spec.clone()), false);
        byte_identical &= run.out == base.out;
        seq_secs = seq_secs.min(run.secs);
    }

    let domain_spec = DramSpec::ddr3_1600()
        .with_org(1, org.ranks, org.banks)
        .expect("one channel of a valid organization is valid");
    let domain_secs = (0..org.channels)
        .map(|_| {
            (0..REPS)
                .map(|_| run_bulk_and(config_for(domain_spec.clone()), false).secs)
                .fold(f64::INFINITY, f64::min)
        })
        .collect();

    E1Scaling {
        org: format!(
            "{}ch x {}ra x {}ba ({} banks)",
            org.channels,
            org.ranks,
            org.banks,
            org.total_banks()
        ),
        banks: org.total_banks(),
        words,
        seq_secs,
        domain_secs,
        byte_identical,
        oracle_clean,
    }
}

/// One stack-count point of the multi-stack E5 check.
#[derive(Debug, Clone)]
pub struct StackPoint {
    /// Stack count of the machine.
    pub stacks: u32,
    /// Output and execution trace equal the flat (1-stack) run's.
    pub identical: bool,
    /// Work units (vertices + edges scanned + messages + random accesses)
    /// on the busiest stack.
    pub max_stack_work: u64,
    /// `total_work / (stacks * max_stack_work)` — 1.0 is a perfectly
    /// balanced split.
    pub balance: f64,
    /// Wall seconds of the kernel run (informational).
    pub secs: f64,
}

/// The multi-stack E5 entry: PageRank on 1-, 4- and 16-stack machines.
#[derive(Debug, Clone)]
pub struct MultiStack {
    /// Kernel measured.
    pub kernel: String,
    /// Vaults in the machine.
    pub vaults: u32,
    /// One point per stack count.
    pub points: Vec<StackPoint>,
}

/// Runs PageRank on the ISCA'15 machine spread over 1, 4, and 16 stacks;
/// asserts the stack count never changes an observable and reports
/// per-stack load balance from the trace's per-vault counters.
pub fn multi_stack() -> MultiStack {
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let graph = Graph::rmat(16, 16, &mut rng);
    let kernel = KernelKind::PageRank;
    let vaults = TesseractConfig::isca2015().stack.vaults;
    let base = TesseractSim::new(TesseractConfig::isca2015().with_stacks(1)).run(kernel, &graph);
    let mut points = Vec::new();
    for stacks in STACK_POINTS {
        let sim = TesseractSim::new(TesseractConfig::isca2015().with_stacks(stacks));
        let t0 = Instant::now();
        let (output, trace, _) = sim.run(kernel, &graph);
        let secs = t0.elapsed().as_secs_f64();
        let identical = output == base.0 && trace == base.1;
        // Per-stack work over the whole run, from the per-vault counters.
        let per_stack = vaults.div_ceil(stacks);
        let mut work = vec![0u64; stacks as usize];
        for ss in &trace.supersteps {
            for (v, c) in ss.vaults.iter().enumerate() {
                work[v / per_stack as usize] +=
                    c.vertices + c.edges_scanned + c.msgs_in() + c.random_accesses;
            }
        }
        let total: u64 = work.iter().sum();
        let max = *work.iter().max().expect("at least one stack");
        points.push(StackPoint {
            stacks,
            identical,
            max_stack_work: max,
            balance: if max == 0 {
                1.0
            } else {
                total as f64 / (stacks as u64 * max) as f64
            },
            secs,
        });
    }
    MultiStack {
        kernel: kernel.to_string(),
        vaults,
        points,
    }
}

/// The host-interference ablation: simulated-cycle cost of the 256-bank
/// bulk-AND program alone, host row streams alone, and the two
/// interleaved on the same shared channels.
#[derive(Debug, Clone)]
pub struct Interference {
    /// Device cycles for `ITERS` bulk ANDs alone.
    pub compute_cycles: u64,
    /// Device cycles for `ITERS` full-buffer host read streams alone.
    pub host_cycles: u64,
    /// Device cycles with the two interleaved op-by-op.
    pub interleaved_cycles: u64,
    /// `interleaved / compute` — the bulk-op completion slowdown from
    /// sharing channels with the host stream. Dominated by `bus_tax`: the
    /// host must move every word over the channel buses while the bulk op
    /// computes in place, which is the paper's headline asymmetry.
    pub slowdown: f64,
    /// `host / compute` — how many bulk-op cycle budgets one full-buffer
    /// host stream costs (the bus-bottleneck ratio).
    pub bus_tax: f64,
    /// `interleaved - compute - host`: cycles attributable to timing-state
    /// coupling (bus turnaround, activation windows) beyond plain
    /// serialization.
    pub overhead_cycles: i64,
}

/// Measures the interference ablation on the 256-bank device. All three
/// scenarios are simulated-cycle counts, so the result is deterministic.
pub fn interference() -> Interference {
    let build = || {
        let mut sys = AmbitSystem::new(config_for(spec_256()));
        let bits = sys.row_bits() * sys.spec().org.total_banks() as usize;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let a = sys.alloc(bits).expect("alloc a");
        let b = sys.alloc(bits).expect("alloc b");
        let out = sys.alloc(bits).expect("alloc out");
        let host = sys.alloc(bits).expect("alloc host buffer");
        sys.write(&a, &BitVec::random(bits, 0.5, &mut rng))
            .expect("write a");
        sys.write(&b, &BitVec::random(bits, 0.5, &mut rng))
            .expect("write b");
        (sys, a, b, out, host)
    };
    let compute_cycles = {
        let (mut sys, a, b, out, _host) = build();
        let start = sys.clock();
        for _ in 0..ITERS {
            sys.execute(BulkOp::And, &a, Some(&b), &out)
                .expect("execute");
        }
        sys.clock() - start
    };
    let host_cycles = {
        let (mut sys, _a, _b, _out, host) = build();
        let start = sys.clock();
        for _ in 0..ITERS {
            sys.host_stream(&host, false).expect("host stream");
        }
        sys.clock() - start
    };
    let interleaved_cycles = {
        let (mut sys, a, b, out, host) = build();
        let start = sys.clock();
        for _ in 0..ITERS {
            sys.execute(BulkOp::And, &a, Some(&b), &out)
                .expect("execute");
            sys.host_stream(&host, false).expect("host stream");
        }
        sys.clock() - start
    };
    Interference {
        compute_cycles,
        host_cycles,
        interleaved_cycles,
        slowdown: interleaved_cycles as f64 / compute_cycles as f64,
        bus_tax: host_cycles as f64 / compute_cycles as f64,
        overhead_cycles: interleaved_cycles as i64 - compute_cycles as i64 - host_cycles as i64,
    }
}

/// The full scaling report.
#[derive(Debug, Clone)]
pub struct ScalingReport {
    /// The 256-bank E1 sweep.
    pub e1: E1Scaling,
    /// The multi-stack E5 check.
    pub multi_stack: MultiStack,
    /// The host-interference ablation.
    pub interference: Interference,
    /// Cores visible to this process (context for wall-clock readers).
    pub host_cores: usize,
}

/// Runs all three experiment families.
pub fn run() -> ScalingReport {
    ScalingReport {
        e1: e1_scaling(spec_256()),
        multi_stack: multi_stack(),
        interference: interference(),
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// The report as the `PIMSCALE02` JSON value tree.
pub fn to_value(r: &ScalingReport) -> Value {
    let mut root = Map::new();
    root.insert("format", Value::Str(SCALING_TAG.into()));
    root.insert("host_cores", Value::Num(r.host_cores as f64));

    let mut e1 = Map::new();
    e1.insert("org", Value::Str(r.e1.org.clone()));
    e1.insert("banks", Value::Num(r.e1.banks as f64));
    e1.insert("op", Value::Str("and".into()));
    e1.insert("words", Value::Num(r.e1.words as f64));
    e1.insert("seq_secs", Value::Num(r.e1.seq_secs));
    e1.insert(
        "domain_secs",
        Value::Array(r.e1.domain_secs.iter().map(|&s| Value::Num(s)).collect()),
    );
    e1.insert("byte_identical", Value::Bool(r.e1.byte_identical));
    e1.insert("oracle_clean", Value::Bool(r.e1.oracle_clean));
    root.insert("e1_256bank", Value::Object(e1));

    let mut ms = Map::new();
    ms.insert("kernel", Value::Str(r.multi_stack.kernel.clone()));
    ms.insert("vaults", Value::Num(r.multi_stack.vaults as f64));
    ms.insert(
        "points",
        Value::Array(
            r.multi_stack
                .points
                .iter()
                .map(|p| {
                    let mut m = Map::new();
                    m.insert("stacks", Value::Num(p.stacks as f64));
                    m.insert("identical", Value::Bool(p.identical));
                    m.insert("max_stack_work", Value::Num(p.max_stack_work as f64));
                    m.insert("balance", Value::Num(p.balance));
                    m.insert("secs", Value::Num(p.secs));
                    Value::Object(m)
                })
                .collect(),
        ),
    );
    root.insert("e5_multi_stack", Value::Object(ms));

    let mut hi = Map::new();
    hi.insert(
        "compute_cycles",
        Value::Num(r.interference.compute_cycles as f64),
    );
    hi.insert("host_cycles", Value::Num(r.interference.host_cycles as f64));
    hi.insert(
        "interleaved_cycles",
        Value::Num(r.interference.interleaved_cycles as f64),
    );
    hi.insert("slowdown", Value::Num(r.interference.slowdown));
    hi.insert("bus_tax", Value::Num(r.interference.bus_tax));
    hi.insert(
        "overhead_cycles",
        Value::Num(r.interference.overhead_cycles as f64),
    );
    root.insert("host_interference", Value::Object(hi));
    Value::Object(root)
}

/// Checks the regression bands over a `BENCH_scaling.json` value tree.
/// This is the CI gate: identity and oracle flags must hold, no channel
/// domain may cost more than a third of the domain sum, the 1-, 4- and
/// 16-stack runs must leave the observables unchanged with a balanced
/// per-stack split, and host interference must cost something without
/// exploding.
///
/// # Errors
///
/// A description of the first band violated.
pub fn check_bands(v: &Value) -> Result<(), String> {
    let obj = |v: &Value, what: &str| match v {
        Value::Object(_) => Ok(()),
        _ => Err(format!("{what} is not an object")),
    };
    obj(v, "root")?;
    if v["format"].as_str() != Some(SCALING_TAG) {
        return Err(format!("bad format tag: {:?}", v["format"]));
    }
    let e1 = &v["e1_256bank"];
    obj(e1, "e1_256bank")?;
    for flag in ["byte_identical", "oracle_clean"] {
        if e1[flag] != Value::Bool(true) {
            return Err(format!("e1_256bank.{flag} must be true"));
        }
    }
    if e1["banks"].as_u64() != Some(256) {
        return Err(format!("e1_256bank.banks must be 256: {:?}", e1["banks"]));
    }
    let Value::Array(domains) = &e1["domain_secs"] else {
        return Err("e1_256bank.domain_secs is not an array".into());
    };
    let domain_secs: Vec<f64> = domains
        .iter()
        .map(|d| d.as_f64().filter(|s| s.is_finite() && *s > 0.0))
        .collect::<Option<_>>()
        .ok_or("e1_256bank.domain_secs must hold finite positive seconds")?;
    if domain_secs.is_empty() {
        return Err("e1_256bank.domain_secs is empty".into());
    }
    let balance = domain_secs.iter().sum::<f64>() / domain_secs.iter().copied().fold(0.0, f64::max);
    if balance < MIN_DOMAIN_BALANCE {
        return Err(format!(
            "channel-domain imbalance: the costliest domain takes {:.1}% of the domain sum (band: <= 1/3)",
            100.0 / balance
        ));
    }
    let ms = &v["e5_multi_stack"];
    obj(ms, "e5_multi_stack")?;
    let Value::Array(stack_points) = &ms["points"] else {
        return Err("e5_multi_stack.points is not an array".into());
    };
    for p in stack_points {
        let stacks = p["stacks"].as_u64().ok_or("stack point lacks `stacks`")?;
        if p["identical"] != Value::Bool(true) {
            return Err(format!("{stacks}-stack run diverged from the flat run"));
        }
        let balance = p["balance"].as_f64().ok_or("stack point lacks `balance`")?;
        if stacks > 1 && balance < 0.5 {
            return Err(format!("{stacks}-stack balance {balance:.2} below 0.5"));
        }
    }
    for stacks in STACK_POINTS {
        if !stack_points
            .iter()
            .any(|p| p["stacks"].as_u64() == Some(u64::from(stacks)))
        {
            return Err(format!("e5_multi_stack lacks the {stacks}-stack point"));
        }
    }
    let hi = &v["host_interference"];
    obj(hi, "host_interference")?;
    let num = |key: &str| {
        hi[key]
            .as_f64()
            .ok_or(format!("host_interference.{key} is not a number"))
    };
    let slowdown = num("slowdown")?;
    if slowdown <= 1.0 {
        return Err(format!(
            "host traffic on shared channels must cost cycles: slowdown {slowdown:.3}"
        ));
    }
    let overhead = num("overhead_cycles")?;
    let interleaved = num("interleaved_cycles")?;
    if overhead < 0.0 {
        return Err(format!(
            "interleaved run cheaper than its parts: overhead {overhead} cycles"
        ));
    }
    if overhead > 0.1 * interleaved {
        return Err(format!(
            "timing-coupling overhead {overhead} cycles exceeds 10% of the interleaved run"
        ));
    }
    Ok(())
}

/// Renders the measured costs as the table EXPERIMENTS.md records: the
/// whole-device sequential time, each channel domain's time and share of
/// the domain sum, and the sum itself.
pub fn table(r: &ScalingReport) -> Table {
    let sum: f64 = r.e1.domain_secs.iter().sum();
    let mut t = Table::new(
        format!(
            "Scaling: 256-bank bulk-AND ({}) — measured host time",
            r.e1.org
        ),
        &["run", "ms", "share of domain sum"],
    );
    t.row(vec![
        Cell::Text("whole device, sequential".into()),
        Cell::Num(r.e1.seq_secs * 1e3),
        Cell::Text("-".into()),
    ]);
    for (channel, &secs) in r.e1.domain_secs.iter().enumerate() {
        t.row(vec![
            Cell::Text(format!("channel {channel} alone")),
            Cell::Num(secs * 1e3),
            Cell::Percent(secs / sum),
        ]);
    }
    t.row(vec![
        Cell::Text("domain sum".into()),
        Cell::Num(sum * 1e3),
        Cell::Percent(1.0),
    ]);
    t
}

/// The report path: `--out <path>`, else `results/BENCH_scaling.json`.
///
/// # Errors
///
/// `--out` with no path after it, which must not fall back to
/// overwriting the committed report.
pub fn out_path(args: &[String]) -> Result<PathBuf, String> {
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--out" {
            return iter
                .next()
                .map(PathBuf::from)
                .ok_or_else(|| "--out needs a path".to_string());
        }
    }
    Ok(PathBuf::from("results").join("BENCH_scaling.json"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic in-band report: 4 equal domains, perfect identity.
    fn good_report() -> ScalingReport {
        let stack_point = |stacks| StackPoint {
            stacks,
            identical: true,
            max_stack_work: 100,
            balance: 0.9,
            secs: 0.1,
        };
        ScalingReport {
            e1: E1Scaling {
                org: "4ch x 4ra x 16ba (256 banks)".into(),
                banks: 256,
                words: 1_000_000,
                seq_secs: 4.0,
                domain_secs: vec![1.0; 4],
                byte_identical: true,
                oracle_clean: true,
            },
            multi_stack: MultiStack {
                kernel: "pagerank".into(),
                vaults: 512,
                points: STACK_POINTS.iter().map(|&s| stack_point(s)).collect(),
            },
            interference: Interference {
                compute_cycles: 100,
                host_cycles: 60,
                interleaved_cycles: 165,
                slowdown: 1.65,
                bus_tax: 0.6,
                overhead_cycles: 5,
            },
            host_cores: 8,
        }
    }

    fn band_error(r: &ScalingReport) -> String {
        check_bands(&to_value(r)).expect_err("report must be out of band")
    }

    #[test]
    fn bands_accept_a_good_report_and_reject_regressions() {
        let good = good_report();
        check_bands(&to_value(&good)).expect("good report is in band");

        let mut diverged = good.clone();
        diverged.e1.byte_identical = false;
        assert!(band_error(&diverged).contains("byte_identical"));

        let mut rejected = good.clone();
        rejected.e1.oracle_clean = false;
        assert!(band_error(&rejected).contains("oracle_clean"));

        // One domain carrying all the cost: the old floors' 1.0x case.
        let mut slow = good.clone();
        slow.e1.domain_secs = vec![4.0, 1e-9, 1e-9, 1e-9];
        assert!(band_error(&slow).contains("channel-domain imbalance"));

        let mut lopsided = good.clone();
        lopsided.e1.domain_secs = vec![1.0, 1.0, 1.0, 1.6];
        assert!(band_error(&lopsided).contains("channel-domain imbalance"));

        let mut skewed = good.clone();
        skewed.multi_stack.points[2].balance = 0.1;
        assert!(band_error(&skewed).contains("balance"));

        let mut unshared = good;
        unshared.interference.slowdown = 0.9;
        assert!(band_error(&unshared).contains("slowdown"));
    }

    #[test]
    fn bands_reject_missing_stack_points_and_unusable_domain_costs() {
        for stacks in STACK_POINTS {
            let mut r = good_report();
            r.multi_stack.points.retain(|p| p.stacks != stacks);
            assert!(band_error(&r).contains(&format!("lacks the {stacks}-stack point")));
        }
        let mut r = good_report();
        r.multi_stack.points.clear();
        assert!(band_error(&r).contains("lacks the 1-stack point"));

        let mut r = good_report();
        r.e1.domain_secs.clear();
        assert!(band_error(&r).contains("domain_secs is empty"));
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut r = good_report();
            r.e1.domain_secs[1] = bad;
            assert!(
                band_error(&r).contains("finite positive"),
                "domain cost {bad} must be rejected"
            );
        }
    }

    /// The floors the balance band replaces: speedups of 1.5x/2.5x/3.0x
    /// at 2/4/8 threads from a contiguous-chunk schedule of the domains.
    fn old_floors_hold(domain_secs: &[f64]) -> bool {
        let heaviest_chunk = |threads: usize| {
            let chunk = domain_secs
                .len()
                .div_ceil(threads.clamp(1, domain_secs.len()));
            domain_secs
                .chunks(chunk)
                .map(|c| c.iter().sum::<f64>())
                .fold(0.0, f64::max)
        };
        [(2, 1.5), (4, 2.5), (8, 3.0)]
            .into_iter()
            .all(|(threads, floor)| heaviest_chunk(1) / heaviest_chunk(threads) >= floor)
    }

    #[test]
    fn balance_band_rejects_every_report_the_old_floors_reject() {
        let grid: [f64; 9] = [0.25, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 3.0, 7.0];
        let mut vectors = Vec::new();
        for &a in &grid {
            for &b in &grid {
                for &c in &grid {
                    for &d in &grid {
                        vectors.push([a, b, c, d]);
                    }
                }
            }
        }
        // The 1/3 boundary: a domain costing half the other three costs
        // exactly a third of the sum, plus its neighbouring floats.
        for &a in &grid {
            for &b in &grid {
                for &c in &[0.3, 1.0, 1.7] {
                    let edge = (a + b + c) / 2.0;
                    for d in [edge.next_down(), edge, edge.next_up()] {
                        vectors.extend([[a, b, c, d], [d, a, b, c], [a, d, b, c]]);
                    }
                }
            }
        }
        let (mut passed, mut failed) = (0, 0);
        for v in vectors {
            let mut r = good_report();
            r.e1.domain_secs = v.to_vec();
            let new_band = check_bands(&to_value(&r)).is_ok();
            assert_eq!(
                new_band,
                old_floors_hold(&v),
                "{v:?}: the balance band and the old floors disagree"
            );
            if new_band {
                passed += 1;
            } else {
                failed += 1;
            }
        }
        assert!(passed > 100 && failed > 100, "{passed} pass, {failed} fail");
    }

    /// The identity check on a smaller multi-channel shape (the full
    /// 256-bank run is the bin's job, gated in CI).
    #[test]
    fn small_device_runs_are_byte_identical() {
        let spec = DramSpec::ddr3_1600().with_org(2, 2, 8).expect("valid org");
        let e1 = e1_scaling(spec);
        assert!(e1.byte_identical);
        assert!(e1.oracle_clean);
        assert_eq!(e1.domain_secs.len(), 2);
    }

    #[test]
    fn out_path_defaults_to_the_committed_report_and_needs_a_value() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            out_path(&args(&[])),
            Ok(PathBuf::from("results").join("BENCH_scaling.json"))
        );
        assert_eq!(
            out_path(&args(&["--out", "out/s.json"])),
            Ok(PathBuf::from("out/s.json"))
        );
        assert_eq!(
            out_path(&args(&["--out"])),
            Err("--out needs a path".to_string())
        );
    }

    #[test]
    fn interference_costs_cycles_on_shared_channels() {
        let i = interference();
        assert!(i.interleaved_cycles > i.compute_cycles);
        assert!(i.slowdown > 1.0, "slowdown {}", i.slowdown);
        assert!(
            i.overhead_cycles >= 0,
            "interleaving must not be cheaper than the parts: {i:?}"
        );
    }
}
