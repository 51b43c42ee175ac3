//! `bench_e2e`: host-clock benchmark of the pim simulator.
//!
//! ```text
//! bench_e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! bench_e2e compare A/ B/
//! ```
//!
//! With `--workload`, one workload runs in this process and the last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics untraced,
//! per-layer metrics with `--trace 1`). Without it, every workload runs
//! in a child process of its own, so peak memory is per workload. Each
//! run also writes its record, and a traced run its Chrome-trace span
//! file, under `--out` (default: `out/` in this package). The exit code
//! is nonzero when any request failed.

mod bitwise;
mod compare;
mod graph;
mod run;
mod spans;
mod spec;
mod stats;
mod tensor;
mod timed;
mod workload;

use run::{Options, Outcome};
use serde_json::{Map, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workload::Scale;

/// Workloads in report order, with the seed each defaults to: 11 is E1's
/// operand seed, 0 reproduces E12's lane hashes, 42 is E5's graph seed.
const WORKLOADS: [(&str, u64); 4] = [
    ("bulk_bitwise", 11),
    ("observed_bitwise", 11),
    ("tensor_ml", 0),
    ("graph_tesseract", 42),
];

/// Measured seconds when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage: bench_e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--smoke] [--out DIR]\n       bench_e2e compare A/ B/";

/// Parsed command line of a benchmark run.
#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: None,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.iter().any(|(n, _)| n == w) {
                    return Err(format!("unknown workload {w}"));
                }
                a.workload = Some(w.clone());
            }
            "--seed" => a.seed = Some(value()?.parse().map_err(|_| "--seed wants an integer")?),
            "--seconds" => {
                a.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds wants a non-negative number")?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                }
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// Cores of this host and the worker threads the engines may use: the
/// `RAYON_NUM_THREADS` given, capped at the core count, else all cores.
fn threads() -> (usize, usize) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t > 0)
        .map_or(cores, |t| t.min(cores));
    (cores, threads)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn metrics_value(outcome: &Outcome) -> Value {
    let mut m = Map::new();
    for (name, value, unit) in &outcome.metrics {
        let mut entry = Map::new();
        entry.insert("value", Value::Num(*value));
        entry.insert("unit", Value::Str((*unit).into()));
        m.insert(name.clone(), Value::Object(entry));
    }
    Value::Object(m)
}

/// Runs one workload in this process and prints its result.
fn run_one(name: &str, a: &Args) -> Result<bool, String> {
    let seed = a.seed.unwrap_or_else(|| {
        WORKLOADS
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, s)| *s)
    });
    let scale = if a.smoke { Scale::Smoke } else { Scale::Full };
    let opts = Options {
        seconds: a.seconds,
        trace: a.trace,
        scale,
    };
    let outcome = match name {
        "bulk_bitwise" => run::run(|| bitwise::Bitwise::new(false, scale, seed), &opts),
        "observed_bitwise" => run::run(|| bitwise::Bitwise::new(true, scale, seed), &opts),
        "tensor_ml" => run::run(|| tensor::TensorMl::new(scale, seed), &opts),
        "graph_tesseract" => run::run(|| graph::GraphTesseract::new(scale, seed), &opts),
        other => return Err(format!("unknown workload {other}")),
    };
    if let Some((name, value, _)) = outcome.metrics.iter().find(|m| !m.1.is_finite()) {
        return Err(format!("{name} is not finite ({value})"));
    }
    for e in &outcome.errors {
        eprintln!("{name}: {e}");
    }
    let (cores, threads) = threads();
    let tail =
        stats::tail_percentile(outcome.samples).map_or("none".to_string(), |p| format!("p{p}"));
    println!(
        "# {name}: seed {seed}, trace {}, {} requests, {} failed, host_cores {cores}, \
         threads {threads}, {} latency samples (highest percentile with 10 beyond: {tail})",
        u8::from(a.trace),
        outcome.attempted,
        outcome.failed,
        outcome.samples,
    );
    for (metric, value, unit) in &outcome.metrics {
        println!("{name:<18} {metric:<30} {value:>16.6} {unit}");
    }

    let tag = format!("{name}-seed{seed}-trace{}", u8::from(a.trace));
    if a.trace {
        let lane = WORKLOADS.iter().position(|(n, _)| *n == name).unwrap_or(0) as u32 + 1;
        let events = spans::chrome_trace_events(&outcome.spans, name, lane);
        let text = serde_json::to_string(&Value::Array(events)).map_err(|e| e.to_string())?;
        write(&a.out.join(format!("spans-{tag}.json")), &text)?;
    }
    let correct = outcome.failed == 0;
    let mut result = Map::new();
    result.insert("correct", Value::Bool(correct));
    result.insert("attempted", Value::Num(outcome.attempted as f64));
    result.insert("failed", Value::Num(outcome.failed as f64));
    result.insert("metrics", metrics_value(&outcome));
    let mut record = Map::new();
    record.insert("workload", Value::Str(name.into()));
    record.insert("seed", Value::Num(seed as f64));
    record.insert("trace", Value::Num(f64::from(u8::from(a.trace))));
    record.insert("smoke", Value::Bool(a.smoke));
    record.insert("seconds", Value::Num(a.seconds));
    record.insert("host_cores", Value::Num(cores as f64));
    record.insert("threads", Value::Num(threads as f64));
    for (k, v) in result.iter() {
        record.insert(k, v.clone());
    }
    let text = serde_json::to_string_pretty(&Value::Object(record)).map_err(|e| e.to_string())?;
    write(&a.out.join(format!("{tag}.json")), &text)?;
    println!(
        "{}",
        serde_json::to_string(&Value::Object(result)).map_err(|e| e.to_string())?
    );
    Ok(correct)
}

/// Runs every workload in a child process of its own, one after the
/// other, and merges traced runs' span files into one multi-lane file.
fn run_all(args: &[String], a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    let mut events = Vec::new();
    for (name, default_seed) in WORKLOADS {
        let status = Command::new(&exe)
            .args(args)
            .args(["--workload", name])
            .stdin(Stdio::null())
            .status()
            .map_err(|e| format!("{name}: {e}"))?;
        all_ok &= status.success();
        if a.trace {
            let seed = a.seed.unwrap_or(default_seed);
            let path = a.out.join(format!("spans-{name}-seed{seed}-trace1.json"));
            if let Ok(Value::Array(e)) = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|t| serde_json::from_str(&t).map_err(|e| e.to_string()))
            {
                events.extend(e);
            }
        }
    }
    if a.trace {
        let text = serde_json::to_string(&Value::Array(events)).map_err(|e| e.to_string())?;
        let path = a.out.join("spans.json");
        write(&path, &text)?;
        println!("# spans of every workload: {}", path.display());
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The engines' worker pools size themselves from this variable.
    std::env::set_var("RAYON_NUM_THREADS", threads().1.to_string());
    let result = if args.first().map(String::as_str) == Some("compare") {
        match &args[1..] {
            [a, b] => {
                spec::Spec::load().and_then(|s| compare::compare(&s, Path::new(a), Path::new(b)))
            }
            _ => Err("compare wants two directories".into()),
        }
    } else {
        parse(&args).and_then(|a| match &a.workload {
            Some(name) => run_one(name, &a),
            None => run_all(&args, &a),
        })
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
