//! Capacity-scaling experiment family (`results/BENCH_scaling.json`):
//! the 256-bank E1 bulk-AND sweep with parallel-efficiency points at
//! 1/2/4/8 threads, the multi-stack E5 identity and balance check, and
//! the host-interference ablation — plus the regression bands CI gates on.
//!
//! ## Methodology: modeled channel-domain schedules
//!
//! The Ambit engine replays on one host thread at every pool size, so
//! the thread points are not runs of a parallel engine. Each is a
//! *modeled* schedule over *measured per-channel-domain costs*,
//! scheduled as contiguous chunks per worker (the vendored rayon
//! policy): it prices each channel domain as an independent shard — a
//! property of the machine, which shares no timing state across
//! channels. Each channel domain's cost *is* a measured wall time (that
//! domain's slice running alone, minimum over repetitions); each thread
//! count's makespan is the critical path of the chunk schedule over
//! those measured costs, and `words_per_s = words / makespan`. The runs
//! under 2/4/8-thread pools still execute for real — that is what the
//! byte-identity assertion checks — and the measured sequential
//! whole-device time is reported next to the domain-cost sum so the
//! schedule model's own error stays visible.

use pim_ambit::{AmbitConfig, AmbitSystem};
use pim_core::{Table, Value as Cell};
use pim_dram::DramSpec;
use pim_tesseract::{TesseractConfig, TesseractSim};
use pim_workloads::{BitVec, BulkOp, Graph, KernelKind};
use rand::SeedableRng;
use serde_json::{Map, Value};
use std::time::Instant;

/// Format tag of the `BENCH_scaling.json` envelope.
pub const SCALING_TAG: &str = "PIMSCALE01";

/// Thread counts the efficiency points cover.
pub const THREAD_POINTS: [usize; 4] = [1, 2, 4, 8];

/// Bulk-AND repetitions inside one measured run.
const ITERS: usize = 4;

/// Timing repetitions; the minimum is kept (noise is one-sided).
const REPS: usize = 3;

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

/// Runs `f` under a rayon pool fixed at `n` threads.
fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .expect("pool")
        .install(f)
}

/// One observable-complete bulk-AND run: output bits, normalized trace
/// bytes, and the wall seconds of the execute loop alone.
struct AndRun {
    out: BitVec,
    trace: Option<Vec<u8>>,
    secs: f64,
}

/// Allocates operands spanning every bank of `config`'s device, runs
/// `ITERS` bulk ANDs on the current pool, and fingerprints the result.
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

/// Critical path of the contiguous chunk schedule: `domains` costs split
/// into `threads` contiguous chunks (the rayon fan-out policy), makespan
/// is the heaviest chunk.
fn makespan(domain_secs: &[f64], threads: usize) -> f64 {
    let t = threads.clamp(1, domain_secs.len());
    let chunk = domain_secs.len().div_ceil(t);
    domain_secs
        .chunks(chunk)
        .map(|c| c.iter().sum::<f64>())
        .fold(0.0, f64::max)
}

/// One thread count's efficiency point, from the schedule model: the
/// machine's channel domains priced as independent shards (the engine
/// itself replays on one thread).
#[derive(Debug, Clone)]
pub struct ThreadPoint {
    /// Worker threads of the modeled pool.
    pub threads: usize,
    /// Critical path of the channel-domain schedule, in seconds.
    pub makespan_secs: f64,
    /// 64-bit output words per second at that makespan.
    pub words_per_s: f64,
    /// `words_per_s` relative to the 1-thread point.
    pub speedup: f64,
    /// `speedup / min(threads, channel domains)`.
    pub efficiency: f64,
}

/// The 256-bank E1 sweep: identity checks plus efficiency points.
#[derive(Debug, Clone)]
pub struct E1Scaling {
    /// Human-readable organization.
    pub org: String,
    /// Total banks (256).
    pub banks: u32,
    /// 64-bit output words per measured run.
    pub words: u64,
    /// Measured sequential whole-device seconds (schedule-model cross-check).
    pub seq_secs: f64,
    /// Measured per-channel-domain seconds, channel order.
    pub domain_secs: Vec<f64>,
    /// Runs under 1- and 2/4/8-thread pools agree on every output bit
    /// and every normalized trace byte.
    pub byte_identical: bool,
    /// The protocol oracle accepts the sequential 256-bank trace.
    pub oracle_clean: bool,
    /// Efficiency points at [`THREAD_POINTS`].
    pub points: Vec<ThreadPoint>,
}

/// Runs the 256-bank sweep: byte-identity at 2/4/8 threads, oracle
/// acceptance, per-domain cost measurement, and the efficiency points.
pub fn e1_scaling() -> E1Scaling {
    let spec = spec_256();
    let org = spec.org;
    let bits = spec.org.row_bits() as usize * spec.org.total_banks() as usize;
    let words = (bits as u64 / 64) * ITERS as u64;

    // Identity: the sequential run is the reference for every observable.
    let base = with_threads(1, || run_bulk_and(config_for(spec.clone()), true));
    let base_trace = base.trace.as_ref().expect("trace captured");
    let oracle_clean = pim_check::check_trace(
        &pim_check::Trace::from_bytes(base_trace).expect("trace parses"),
        pim_check::CheckOptions::timing_only(),
    )
    .is_ok();
    let mut byte_identical = true;
    for threads in [2usize, 4, 8] {
        let run = with_threads(threads, || run_bulk_and(config_for(spec.clone()), true));
        byte_identical &= run.out == base.out && run.trace.as_ref() == Some(base_trace);
    }

    // Cost model: sequential whole-device time, then each channel
    // domain's slice alone on a single-channel device of the same shape.
    let seq_secs = with_threads(1, || {
        (0..REPS)
            .map(|_| run_bulk_and(config_for(spec.clone()), false).secs)
            .fold(f64::INFINITY, f64::min)
    });
    let domain_spec = DramSpec::ddr3_1600()
        .with_org(1, org.ranks, org.banks)
        .expect("one channel of a valid organization is valid");
    let domain_secs: Vec<f64> = with_threads(1, || {
        (0..org.channels)
            .map(|_| {
                (0..REPS)
                    .map(|_| run_bulk_and(config_for(domain_spec.clone()), false).secs)
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    });

    let m1 = makespan(&domain_secs, 1);
    let points = THREAD_POINTS
        .iter()
        .map(|&threads| {
            let m = makespan(&domain_secs, threads);
            let speedup = m1 / m;
            ThreadPoint {
                threads,
                makespan_secs: m,
                words_per_s: words as f64 / m,
                speedup,
                efficiency: speedup / threads.min(domain_secs.len()) as f64,
            }
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
        points,
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
    for stacks in [1u32, 4, 16] {
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
    // Simulated cycles are thread-invariant; sequential replay keeps the
    // three scenarios cheap.
    with_threads(1, || {
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
    })
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
        e1: e1_scaling(),
        multi_stack: multi_stack(),
        interference: interference(),
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// The report as the `PIMSCALE01` JSON value tree.
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
    e1.insert(
        "points",
        Value::Array(
            r.e1.points
                .iter()
                .map(|p| {
                    let mut m = Map::new();
                    m.insert("threads", Value::Num(p.threads as f64));
                    m.insert("makespan_secs", Value::Num(p.makespan_secs));
                    m.insert("words_per_s", Value::Num(p.words_per_s));
                    m.insert("speedup", Value::Num(p.speedup));
                    m.insert("efficiency", Value::Num(p.efficiency));
                    Value::Object(m)
                })
                .collect(),
        ),
    );
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
/// This is the CI gate: identity and oracle flags must hold, the
/// channel-domain schedule must reach 1.5x/2.5x/3.0x at 2/4/8 threads,
/// every stack count must leave the observables unchanged with a
/// balanced per-stack split,
/// and host interference must cost something without exploding.
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
    let Value::Array(points) = &e1["points"] else {
        return Err("e1_256bank.points is not an array".into());
    };
    for (threads, floor) in [(2u64, 1.5f64), (4, 2.5), (8, 3.0)] {
        let p = points
            .iter()
            .find(|p| p["threads"].as_u64() == Some(threads))
            .ok_or(format!("missing {threads}-thread point"))?;
        let speedup = p["speedup"]
            .as_f64()
            .ok_or(format!("{threads}-thread speedup is not a number"))?;
        if speedup < floor {
            return Err(format!(
                "efficiency regression: {speedup:.2}x words/s at {threads} threads (band: >= {floor}x)"
            ));
        }
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

/// Renders the efficiency points as the table EXPERIMENTS.md records.
pub fn table(r: &ScalingReport) -> Table {
    let mut t = Table::new(
        format!(
            "Scaling: 256-bank bulk-AND ({}) — channel-shard schedule over measured domain costs",
            r.e1.org
        ),
        &["threads", "words/s", "speedup", "efficiency"],
    );
    for p in &r.e1.points {
        t.row(vec![
            Cell::Num(p.threads as f64),
            Cell::Num(p.words_per_s),
            Cell::Ratio(p.speedup),
            Cell::Percent(p.efficiency),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn makespan_follows_the_contiguous_chunk_schedule() {
        let d = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(makespan(&d, 1), 10.0);
        // Two threads: chunks [1,2] and [3,4].
        assert_eq!(makespan(&d, 2), 7.0);
        assert_eq!(makespan(&d, 4), 4.0);
        // More threads than domains: capped at one domain per thread.
        assert_eq!(makespan(&d, 8), 4.0);
        // Uneven split: ceil(5/2)=3 -> chunks [1,1,1], [1,1].
        assert_eq!(makespan(&[1.0; 5], 2), 3.0);
    }

    /// A synthetic in-band report: 4 equal domains, perfect identity.
    fn good_report() -> ScalingReport {
        let domain_secs = vec![1.0; 4];
        let m1 = makespan(&domain_secs, 1);
        let points = THREAD_POINTS
            .iter()
            .map(|&threads| {
                let m = makespan(&domain_secs, threads);
                ThreadPoint {
                    threads,
                    makespan_secs: m,
                    words_per_s: 1e6 / m,
                    speedup: m1 / m,
                    efficiency: (m1 / m) / threads.min(4) as f64,
                }
            })
            .collect();
        ScalingReport {
            e1: E1Scaling {
                org: "4ch x 4ra x 16ba (256 banks)".into(),
                banks: 256,
                words: 1_000_000,
                seq_secs: 4.0,
                domain_secs,
                byte_identical: true,
                oracle_clean: true,
                points,
            },
            multi_stack: MultiStack {
                kernel: "pagerank".into(),
                vaults: 512,
                points: vec![StackPoint {
                    stacks: 16,
                    identical: true,
                    max_stack_work: 100,
                    balance: 0.9,
                    secs: 0.1,
                }],
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

    #[test]
    fn bands_accept_a_good_report_and_reject_regressions() {
        let good = good_report();
        check_bands(&to_value(&good)).expect("good report is in band");

        let mut diverged = good.clone();
        diverged.e1.byte_identical = false;
        assert!(check_bands(&to_value(&diverged))
            .unwrap_err()
            .contains("byte_identical"));

        let mut slow = good.clone();
        for p in &mut slow.e1.points {
            p.speedup = 1.0;
        }
        assert!(check_bands(&to_value(&slow))
            .unwrap_err()
            .contains("efficiency regression"));

        let mut skewed = good.clone();
        skewed.multi_stack.points[0].balance = 0.1;
        assert!(check_bands(&to_value(&skewed))
            .unwrap_err()
            .contains("balance"));

        let mut unshared = good;
        unshared.interference.slowdown = 0.9;
        assert!(check_bands(&to_value(&unshared))
            .unwrap_err()
            .contains("slowdown"));
    }

    /// Quick end-to-end identity check on a smaller multi-channel shape
    /// (the full 256-bank run is the bin's job, gated in CI).
    #[test]
    fn sharded_and_sequential_small_sweep_are_byte_identical() {
        let spec = DramSpec::ddr3_1600().with_org(2, 2, 8).expect("valid org");
        let base = with_threads(1, || run_bulk_and(config_for(spec.clone()), true));
        let run = with_threads(4, || run_bulk_and(config_for(spec.clone()), true));
        assert_eq!(run.out, base.out);
        assert_eq!(run.trace, base.trace);
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
