//! The load generator: one closed-loop caller per workload process.
//!
//! Each request is issued after the previous one completed. A run
//! generates inputs, sets the program up several times (the median time
//! to first result is `setup_s`), warms up, then measures repetitions of
//! whole request rounds until the time budget and the sample floor are
//! both met. Every output is checked against its reference outside the timed
//! interval, and every request's deterministic tally (work done, modeled
//! time) must repeat exactly for the same request of the mix.
//!
//! A traced run measures the same loop with a second, shimmed copy of
//! the program: each step issues one untraced request and one traced
//! request (plus its twins), so both see the same host conditions and
//! their latency ratio is the tracing overhead. End-to-end metrics come
//! from untraced runs only.

use crate::spans::{self, Span};
use crate::stats;
use crate::workload::{Scale, Tally, Workload};
use std::time::Instant;

/// Warm-up requests before anything is measured.
const WARMUP: usize = 3;
/// Timed repetitions; timing metrics take their median.
const REPS: usize = 5;
/// Pooled requests the latency percentiles need: p90 must have ten
/// samples beyond it.
const MIN_REQUESTS: usize = 100;
/// Set-ups timed per run (`setup_s` is their median): at least
/// `SETUPS`, and more until they add up to `SETUP_SECONDS`.
const SETUPS: usize = 5;
const SETUP_SECONDS: f64 = 1.0;
/// Requests a smoke run measures, in one repetition.
const SMOKE_REQUESTS: usize = 10;

/// Spans reported per layer, each as `<name>.calls` and
/// `<name>.self_frac`. Names are the layer first, then the entry point.
pub const SPANS: [&str; 21] = [
    "request",
    "runtime.submit",
    "runtime.drain",
    "ambit.estimate",
    "ambit.drain",
    "ambit.execute",
    "ambit.row_program",
    "host.estimate",
    "host.drain",
    "host.graph_model",
    "tensor.eval",
    "simd.compile",
    "dram.replay",
    "trace.encode",
    "telemetry.snapshot",
    "profile.export",
    "check.oracle",
    "tesseract.estimate",
    "tesseract.drain",
    "tesseract.run",
    "tesseract.timing",
];

/// Derived per-layer values a workload may report, with their units;
/// workloads that do not produce one report 0.
pub const DERIVED: [(&str, &str); 6] = [
    ("ambit.batched_frac", "frac"),
    ("tensor.host_fallback_frac", "frac"),
    ("dram.issue_cmds_per_s", "1/s"),
    ("trace.bytes", "B"),
    ("telemetry.bytes", "B"),
    ("profile.bytes", "B"),
];

/// Per-layer metrics that depend only on the seed: equal seeds must
/// give bit-identical values on any host.
pub const DETERMINISTIC: [&str; 2] = ["modeled_ms", "work_per_round"];

/// How to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Time budget of the measured loop, seconds.
    pub seconds: f64,
    /// Separate traced run: per-layer metrics instead of end-to-end.
    pub trace: bool,
    /// Input and device sizes.
    pub scale: Scale,
}

/// One metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Result of one workload run.
#[derive(Debug)]
pub struct Outcome {
    /// Requests issued, warm-up included.
    pub attempted: u64,
    /// Requests that errored, mismatched their reference or broke a
    /// determinism invariant, plus twins that did not reproduce.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Latency samples the percentiles pool.
    pub samples: usize,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Traced runs: every recorded span.
    pub spans: Vec<Span>,
}

/// Failure bookkeeping plus the reference tally of each request of the
/// mix (the first one seen).
struct Tracker {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    reference: Vec<Option<Tally>>,
}

impl Tracker {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    /// Records one checked request; returns its tally when it passed.
    fn record(&mut self, i: usize, checked: Result<Tally, String>) -> Option<Tally> {
        self.attempted += 1;
        let slot = i % self.reference.len();
        match checked {
            Ok(t) => match self.reference[slot] {
                None => {
                    self.reference[slot] = Some(t);
                    Some(t)
                }
                Some(r) if r.work == t.work && r.modeled_ns.to_bits() == t.modeled_ns.to_bits() => {
                    Some(t)
                }
                Some(r) => {
                    self.fail(format!(
                        "request {i}: tally {t:?} differs from the first run's {r:?}"
                    ));
                    None
                }
            },
            Err(e) => {
                self.fail(format!("request {i}: {e}"));
                None
            }
        }
    }
}

/// Issues request `i`, returning its host latency in seconds and its
/// checked tally. Only the request itself is timed.
fn issue<W: Workload>(
    w: &W,
    program: &mut W::Program,
    i: usize,
    traced: bool,
    tracker: &mut Tracker,
) -> (f64, Option<W::Output>, Option<Tally>) {
    let start = Instant::now();
    let out = if traced {
        spans::scope("request", || w.request(program, i))
    } else {
        w.request(program, i)
    };
    let dt = start.elapsed().as_secs_f64();
    let checked = out
        .as_ref()
        .map_err(Clone::clone)
        .and_then(|o| w.check(i, o));
    let tally = tracker.record(i, checked);
    (dt, out.ok(), tally)
}

/// Peak resident set of this process (VmHWM), MB; 0 where `/proc` is
/// missing.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one workload built by `make` (input generation and reference
/// computation, timed as `workloads.gen_s`).
pub fn run<W: Workload>(make: impl FnOnce() -> W, opts: &Options) -> Outcome {
    let smoke = opts.scale == Scale::Smoke;
    let gen_start = Instant::now();
    let mut w = make();
    let gen_s = gen_start.elapsed().as_secs_f64();

    let mut tracker = Tracker {
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        reference: vec![None; w.round_len()],
    };
    // Set-up is time to first result: building the program's objects
    // and completing its first request, so lazy initialization the first
    // request triggers counts as set-up rather than vanishing into the
    // unmeasured warm-up.
    let mut setup_s: Vec<f64> = Vec::new();
    let mut plain = None;
    let (floor, seconds) = if smoke {
        (1, 0.0)
    } else {
        (SETUPS, SETUP_SECONDS)
    };
    while setup_s.len() < floor || setup_s.iter().sum::<f64>() < seconds {
        drop(plain.take());
        let start = Instant::now();
        let mut program = w.build(false);
        issue(&w, &mut program, 0, false, &mut tracker);
        setup_s.push(start.elapsed().as_secs_f64());
        plain = Some(program);
    }
    let mut plain = plain.expect("at least one setup");
    let mut traced = opts.trace.then(|| w.build(true));

    for i in 0..WARMUP {
        issue(&w, &mut plain, i, false, &mut tracker);
        if let Some(t) = traced.as_mut() {
            issue(&w, t, i, false, &mut tracker);
        }
    }

    // Traced runs report no latency percentiles, so one round per
    // repetition is enough; untraced runs need the pooled sample floor.
    let (reps, floor, budget) = match (smoke, opts.trace) {
        (true, _) => (1, SMOKE_REQUESTS, 0.0),
        (false, true) => (REPS, w.round_len(), opts.seconds / REPS as f64),
        (false, false) => (
            REPS,
            MIN_REQUESTS.div_ceil(REPS),
            opts.seconds / REPS as f64,
        ),
    };
    let mut latency = Vec::new();
    let mut traced_latency = Vec::new();
    let mut rates = Vec::new();
    let mut i = 0;
    for _ in 0..reps {
        let start = Instant::now();
        let (mut n, mut busy, mut work) = (0, 0.0, 0u64);
        loop {
            let (dt, _, tally) = issue(&w, &mut plain, i, false, &mut tracker);
            latency.push(dt);
            busy += dt;
            work += tally.map_or(0, |t| t.work);
            n += 1;
            if let Some(t) = traced.as_mut() {
                spans::set_request(i as u64);
                spans::set_recording(true);
                let (dt, out, _) = issue(&w, t, i, true, &mut tracker);
                traced_latency.push(dt);
                if let Some(out) = out {
                    let mismatches = w.twins(t, i, &out);
                    for _ in 0..mismatches {
                        tracker.fail(format!("request {i}: a twin did not reproduce it"));
                    }
                }
                spans::set_recording(false);
            }
            i += 1;
            let done = if smoke {
                n >= floor
            } else {
                i % w.round_len() == 0 && n >= floor && start.elapsed().as_secs_f64() >= budget
            };
            if done {
                break;
            }
        }
        rates.push(work as f64 / busy);
    }

    let lat = stats::sorted(&latency);
    let mut metrics: Vec<Metric> = Vec::new();
    let mut spans_out = Vec::new();
    if opts.trace {
        let spans_log = spans::take();
        metrics.extend(layer_metrics(&spans_log));
        let derived = w.layer_values();
        for (name, unit) in DERIVED {
            let value = derived
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |v| v.1);
            metrics.push((name.into(), value, unit));
        }
        let traced_p50 = stats::percentile(&stats::sorted(&traced_latency), 50.0);
        metrics.push(("request.p50_ms".into(), traced_p50 * 1e3, "ms"));
        metrics.push((
            "trace_overhead_frac".into(),
            traced_p50 / stats::percentile(&lat, 50.0) - 1.0,
            "frac",
        ));
        let refs: Vec<Tally> = tracker.reference.iter().flatten().copied().collect();
        metrics.push((
            "modeled_ms".into(),
            refs.iter().map(|t| t.modeled_ns).sum::<f64>() / 1e6,
            "sim_ms",
        ));
        metrics.push((
            "work_per_round".into(),
            refs.iter().map(|t| t.work).sum::<u64>() as f64,
            "count",
        ));
        metrics.push(("workloads.gen_s".into(), gen_s, "s"));
        spans_out = spans_log;
    } else {
        metrics.push(("setup_s".into(), stats::quartiles(&setup_s)[1], "s"));
        metrics.push(("work_per_s".into(), stats::quartiles(&rates)[1], "1/s"));
        metrics.push((
            "request_ms.p50".into(),
            stats::percentile(&lat, 50.0) * 1e3,
            "ms",
        ));
        metrics.push((
            "request_ms.p90".into(),
            stats::percentile(&lat, 90.0) * 1e3,
            "ms",
        ));
        metrics.push(("peak_rss_mb".into(), peak_rss_mb(), "MB"));
    }
    Outcome {
        attempted: tracker.attempted,
        failed: tracker.failed,
        errors: tracker.errors,
        samples: latency.len(),
        metrics,
        spans: spans_out,
    }
}

/// `<span>.calls` and `<span>.self_frac` for every name in [`SPANS`]:
/// self time as a share of all traced time (the root spans' total), so
/// the shares of one run add up to one.
fn layer_metrics(log: &[Span]) -> Vec<Metric> {
    let agg = spans::aggregate(log);
    let traced_s: f64 = log
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.end - s.start) as f64 * 1e-9)
        .sum();
    let mut out = Vec::new();
    for name in SPANS {
        let a = agg.get(name).cloned().unwrap_or_default();
        out.push((format!("{name}.calls"), a.calls as f64, "count"));
        out.push((
            format!("{name}.self_frac"),
            a.self_s / traced_s.max(f64::MIN_POSITIVE),
            "frac",
        ));
    }
    out
}
