//! `bulk_bitwise` and `observed_bitwise`: the seven `BulkOp::ALL` jobs
//! forced onto one Ambit backend, then one `Runtime::drain`, on a
//! 4ch x 4ra x 16ba (256-bank) DDR3 device with operands one row-round
//! (2 MiB) long. The observed variant runs with the trace, telemetry and
//! profile sinks on, and each request also exports PIMTRC01 bytes, a
//! PIMTEL01 snapshot and PIMPROF01 JSON and runs the command-trace
//! oracle over the request's trace.

use crate::spans::{self, scope};
use crate::timed::Timed;
use crate::workload::{Scale, Tally, Workload};
use pim_ambit::{AmbitConfig, AmbitSystem};
use pim_check::{check_trace, replay, CheckOptions, Trace};
use pim_dram::DramSpec;
use pim_runtime::{AmbitBackend, Completion, Job, Placement, Runtime};
use pim_telemetry::Snapshot;
use pim_workloads::{BitVec, BulkOp};
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const BACKEND: &str = "ambit";

/// Traced requests between two replays of a command trace: one replay
/// costs about as much as the request, so it is sampled.
const REPLAY_EVERY: u64 = 4;

/// Sizes of the observation exports one request produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exports {
    trace_bytes: usize,
    telemetry_bytes: usize,
    profile_bytes: usize,
    /// Records in the request's command trace.
    records: usize,
    /// Commands the oracle accepted.
    checked: usize,
}

/// One request's completions, plus its exports when observed.
#[derive(Debug)]
pub struct Output {
    done: Vec<Completion>,
    exports: Option<Exports>,
}

/// Twin-side totals of a traced run.
#[derive(Debug, Default)]
struct TwinStats {
    requests: u64,
    batched: u64,
    commands: u64,
    replayed: u64,
    replay_s: f64,
    exports: [u64; 3],
}

/// Either bitwise workload.
pub struct Bitwise {
    observed: bool,
    config: AmbitConfig,
    a: Arc<BitVec>,
    b: Arc<BitVec>,
    want: Vec<BitVec>,
    /// The same request's tally with observation off: observing must
    /// not change what the simulated machine did.
    plain: Option<Tally>,
    twin: Option<AmbitSystem>,
    replay_twin: Option<AmbitSystem>,
    stats: TwinStats,
}

impl Bitwise {
    /// Generates the seed's operands and their host references.
    pub fn new(observed: bool, scale: Scale, seed: u64) -> Self {
        let spec = match scale {
            Scale::Full => DramSpec::ddr3_1600()
                .with_org(4, 4, 16)
                .expect("4x4x16 is a legal DDR3 organization"),
            Scale::Smoke => DramSpec::ddr3_1600(),
        };
        let bits = spec.org.row_bits() as usize * spec.org.total_banks() as usize;
        let config = AmbitConfig {
            spec,
            ..AmbitConfig::ddr3()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = BitVec::random(bits, 0.5, &mut rng);
        let b = BitVec::random(bits, 0.5, &mut rng);
        let want = BulkOp::ALL
            .iter()
            .map(|&op| {
                if op.is_unary() {
                    a.not()
                } else {
                    a.binary(op, &b)
                }
            })
            .collect();
        let mut w = Bitwise {
            observed,
            config,
            a: Arc::new(a),
            b: Arc::new(b),
            want,
            plain: None,
            twin: None,
            replay_twin: None,
            stats: TwinStats::default(),
        };
        if observed {
            let mut rt = w.runtime(false, false);
            w.plain = w.request(&mut rt, 0).and_then(|out| w.check(0, &out)).ok();
        }
        w
    }

    fn runtime(&self, observe: bool, traced: bool) -> Runtime {
        let backend = AmbitBackend::new(BACKEND, self.config.clone());
        let mut rt = if traced {
            Runtime::new().with(Box::new(Timed::new(backend, "ambit")))
        } else {
            Runtime::new().with(Box::new(backend))
        };
        if observe {
            rt.set_trace(true);
            rt.set_telemetry(true);
            rt.set_profile(true);
        }
        rt
    }

    /// Runs the seven operations on `sys` outside the runtime, each
    /// `execute` in an `ambit.execute` span when `timed`, and returns
    /// the operations whose output differs from the request's.
    fn rerun_ops(&self, sys: &mut AmbitSystem, done: &[Completion], timed: bool) -> u64 {
        let mut mismatches = 0;
        for (op, c) in BulkOp::ALL.iter().zip(done) {
            let same = twin_execute(sys, *op, &self.a, &self.b, timed)
                .is_ok_and(|bits| c.output.bits() == Some(&bits));
            if !same {
                if timed {
                    spans::discard_last();
                }
                mismatches += 1;
            }
        }
        mismatches
    }
}

/// One operation on a bare Ambit engine: stage, execute (timed as
/// `ambit.execute` when asked), read back, free.
fn twin_execute(
    sys: &mut AmbitSystem,
    op: BulkOp,
    a: &BitVec,
    b: &BitVec,
    timed: bool,
) -> Result<BitVec, pim_ambit::AmbitError> {
    let av = sys.alloc(a.len())?;
    let bv = sys.alloc(a.len())?;
    let out = sys.alloc(a.len())?;
    sys.write(&av, a)?;
    sys.write(&bv, b)?;
    let rhs = (!op.is_unary()).then_some(&bv);
    let run = |sys: &mut AmbitSystem| sys.execute(op, &av, rhs, &out);
    let result = if timed {
        scope("ambit.execute", || run(sys))
    } else {
        run(sys)
    };
    let bits = result.map(|_| sys.read(&out));
    sys.free(av);
    sys.free(bv);
    sys.free(out);
    bits
}

/// Exports everything the observation sinks captured during one
/// request and runs the oracle over its command trace.
fn export(rt: &mut Runtime) -> Result<Exports, String> {
    let (_, spec, records) = rt.take_traces().pop().ok_or("no command trace captured")?;
    let (trace, trace_bytes) = scope("trace.encode", || {
        let trace = Trace::capture(spec, records);
        let bytes = black_box(trace.to_bytes()).len();
        (trace, bytes)
    });
    let telemetry_bytes = scope("telemetry.snapshot", || {
        rt.take_telemetry()
            .map(|sink| black_box(Snapshot::from_sink(sink).to_json_string()).len())
    })
    .ok_or("telemetry is off")?;
    let profile_bytes = scope("profile.export", || {
        rt.take_profile()
            .map(|p| black_box(p.to_json_string()).len())
    })
    .ok_or("profiling is off")?;
    let report = scope("check.oracle", || {
        check_trace(&trace, CheckOptions::timing_only())
    })
    .map_err(|v| format!("oracle rejected the command trace: {v}"))?;
    Ok(Exports {
        trace_bytes,
        telemetry_bytes,
        profile_bytes,
        records: trace.records.len(),
        checked: report.commands,
    })
}

impl Workload for Bitwise {
    type Program = Runtime;
    type Output = Output;

    fn round_len(&self) -> usize {
        1
    }

    fn build(&self, traced: bool) -> Runtime {
        self.runtime(self.observed, traced)
    }

    fn request(&self, rt: &mut Runtime, _i: usize) -> Result<Output, String> {
        for op in BulkOp::ALL {
            let rhs = (!op.is_unary()).then(|| self.b.clone());
            let job = Job::bulk(op, self.a.clone(), rhs);
            scope("runtime.submit", || {
                rt.submit(job, Placement::Forced(BACKEND.to_string()))
            })
            .map_err(|e| e.to_string())?;
        }
        let done = scope("runtime.drain", || rt.drain()).map_err(|e| e.to_string())?;
        let exports = if rt.profile_enabled() {
            Some(export(rt)?)
        } else {
            None
        };
        Ok(Output { done, exports })
    }

    fn check(&self, _i: usize, out: &Output) -> Result<Tally, String> {
        if out.done.len() != self.want.len() {
            return Err(format!("{} completions for 7 jobs", out.done.len()));
        }
        let mut tally = Tally {
            work: 0,
            modeled_ns: 0.0,
        };
        for ((c, want), op) in out.done.iter().zip(&self.want).zip(BulkOp::ALL) {
            if c.output.bits() != Some(want) {
                return Err(format!("{op}: output differs from the BitVec reference"));
            }
            tally.work += c.report.commands.as_ref().map_or(0, |cc| cc.total());
            tally.modeled_ns += c.report.ns;
        }
        if let Some(e) = &out.exports {
            if e.records as u64 != tally.work || e.checked != e.records {
                return Err(format!(
                    "{} commands issued, {} traced, {} checked",
                    tally.work, e.records, e.checked
                ));
            }
            if self.plain != Some(tally) {
                return Err("observation changed the modeled result".into());
            }
        }
        Ok(tally)
    }

    fn twins(&mut self, _rt: &mut Runtime, _i: usize, out: &Output) -> u64 {
        let mut twin = self
            .twin
            .take()
            .unwrap_or_else(|| AmbitSystem::new(self.config.clone()));
        let before = *twin.counts();
        twin.reset_batched_commands();
        let mut mismatches = self.rerun_ops(&mut twin, &out.done, true);
        self.stats.batched += twin.batched_commands();
        self.stats.commands += twin.counts().since(&before).total();
        self.twin = Some(twin);

        if self.stats.requests.is_multiple_of(REPLAY_EVERY) {
            let mut sys = self.replay_twin.take().unwrap_or_else(|| {
                let mut sys = AmbitSystem::new(self.config.clone());
                sys.set_trace(true);
                sys
            });
            mismatches += self.rerun_ops(&mut sys, &out.done, false);
            let trace = Trace::capture(self.config.spec.clone(), sys.take_trace());
            let start = Instant::now();
            let replayed = scope("dram.replay", || replay(&trace));
            if replayed.is_ok() {
                self.stats.replay_s += start.elapsed().as_secs_f64();
                self.stats.replayed += trace.records.len() as u64;
            } else {
                spans::discard_last();
                mismatches += 1;
            }
            self.replay_twin = Some(sys);
        }
        if let Some(e) = &out.exports {
            for (sum, n) in self.stats.exports.iter_mut().zip([
                e.trace_bytes,
                e.telemetry_bytes,
                e.profile_bytes,
            ]) {
                *sum += n as u64;
            }
        }
        self.stats.requests += 1;
        mismatches
    }

    fn layer_values(&self) -> Vec<(&'static str, f64)> {
        let s = &self.stats;
        let per_request = |n: u64| n as f64 / s.requests.max(1) as f64;
        vec![
            (
                "ambit.batched_frac",
                s.batched as f64 / s.commands.max(1) as f64,
            ),
            (
                "dram.issue_cmds_per_s",
                if s.replay_s > 0.0 {
                    s.replayed as f64 / s.replay_s
                } else {
                    0.0
                },
            ),
            ("trace.bytes", per_request(s.exports[0])),
            ("telemetry.bytes", per_request(s.exports[1])),
            ("profile.bytes", per_request(s.exports[2])),
        ]
    }
}
