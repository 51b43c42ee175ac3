//! The Ambit in-DRAM engine as a runtime backend: lowers bitwise jobs to
//! multi-bank programs and **coalesces** compatible jobs into one wider
//! bank-parallel execution before dispatch.
//!
//! # Coalescing model
//!
//! `AmbitSystem::alloc` stripes a vector's row-sized chunks across banks
//! (`chunk c → bank c % banks`), so a *small* job dispatched alone leaves
//! most banks idle: a one-chunk job occupies exactly one bank. The
//! backend therefore stages queued **same-operation single-step** jobs as
//! row-aligned ranges of one wider group vector — each job's payload is
//! written straight into its own rows, and its output read straight out
//! of them — and executes that once. With the group capped at
//! `total_banks` chunks every chunk sits on a *distinct* bank, the whole
//! group runs fully bank-parallel, and each job's dependency chain is
//! exactly what it would have been alone.
//!
//! That cap is what makes per-job accounting exact rather than
//! approximate: job timing is reconstructed from
//! [`AmbitSystem::last_chunk_ends`] (its own chunks' chains), commands
//! are apportioned per chunk (an Ambit program issues identical commands
//! for every chunk), and energy is re-priced from the job's own commands
//! via [`AmbitSystem::price_commands`]. The determinism suite asserts the
//! resulting outputs *and reports* are byte-identical to unbatched
//! sequential dispatch.
//!
//! Jobs wider than the bank count, multi-step plans, RowClone jobs, and
//! any job on a fault-injecting device (`tra_failure_rate > 0`, where the
//! fault RNG is keyed on absolute chunk indices) dispatch individually.

use crate::backend::{ensure_supported, Backend, CostEstimate, JobQueue, DEFAULT_CAPACITY};
use crate::error::RuntimeError;
use crate::job::{Completion, Job, JobId, JobOutput, JobReport};
use pim_ambit::{AmbitConfig, AmbitError, AmbitSystem, BulkVec};
use pim_core::SiteModel;
use pim_dram::{CommandCounts, CommandKind, DramSpec, Observer, Projection, TraceRecord};
use pim_profile::{Cycle, JobPhases, ProfileSink};
use pim_telemetry::{ExecSpan, TelemetrySink, POW2_BOUNDS};
use pim_workloads::{BitSlicedIntVec, BitVec, BulkOp};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One member of a coalesced group: `(id, a, optional b)`.
type GroupMember = (JobId, Arc<BitVec>, Option<Arc<BitVec>>);

/// Allocates one `bits`-long vector per entry of `data` (writing the
/// payload where one is given), runs `f` over them, and frees them all
/// again — also when an allocation, a write or `f` fails.
fn with_staged<T>(
    sys: &mut AmbitSystem,
    bits: usize,
    data: &[Option<&BitVec>],
    f: impl FnOnce(&mut AmbitSystem, &[BulkVec]) -> Result<T, AmbitError>,
) -> Result<T, AmbitError> {
    let mut staged = Vec::with_capacity(data.len());
    let res = (|| {
        for payload in data {
            staged.push(sys.alloc(bits)?);
            if let Some(payload) = payload {
                sys.write(&staged[staged.len() - 1], payload)?;
            }
        }
        f(sys, &staged)
    })();
    for v in staged {
        sys.free(v);
    }
    res
}

/// [`AmbitSystem`] behind the [`Backend`] trait.
#[derive(Debug)]
pub struct AmbitBackend {
    name: String,
    sys: AmbitSystem,
    site: SiteModel,
    queue: JobQueue,
    coalesce: bool,
    total_banks: usize,
    row_bits: usize,
    /// Engine clock at each pending job's submit (queue-wait
    /// attribution), recorded while jobs are observed.
    submit_clocks: BTreeMap<JobId, Cycle>,
    /// One record per executed job — its phases on the engine clock and
    /// the size of the batch it ran in — kept while telemetry or
    /// profiling is on. [`Backend::take_exec_spans`] and
    /// [`Backend::take_job_phases`] each project the records since their
    /// own last take (`jobs_read`); records both have read are dropped.
    jobs: Vec<(JobId, JobPhases, u32)>,
    jobs_read: [usize; 2],
}

impl AmbitBackend {
    /// Creates a backend over a fresh Ambit device.
    pub fn new(name: impl Into<String>, config: AmbitConfig) -> Self {
        Self::with_capacity(name, config, DEFAULT_CAPACITY)
    }

    /// Like [`AmbitBackend::new`] with an explicit queue bound.
    pub fn with_capacity(name: impl Into<String>, config: AmbitConfig, capacity: usize) -> Self {
        let name = name.into();
        let coalesce = config.tra_failure_rate == 0.0;
        let total_banks = config.spec.org.total_banks() as usize;
        let sys = AmbitSystem::new(config);
        let row_bits = sys.row_bits();
        // Advisory roofline: the analytic all-banks AND rate is the
        // engine's output bandwidth; ~3 bytes move per output byte, and
        // in-DRAM ops ride the row activations, so time is purely
        // bandwidth-bound. Energy per byte is the E2-scale in-DRAM cost.
        let out_gbps = sys.analytic_throughput_gbps(BulkOp::And);
        let site = SiteModel::new(&name, 3.0 * out_gbps, 1e6, 1.2e-3, 0.0)
            .expect("ambit site coefficients are valid");
        AmbitBackend {
            name,
            sys,
            site,
            queue: JobQueue::new(capacity),
            coalesce,
            total_banks,
            row_bits,
            submit_clocks: BTreeMap::new(),
            jobs: Vec::new(),
            jobs_read: [0; 2],
        }
    }

    /// The underlying engine (stats, spec, analytic models).
    pub fn system(&self) -> &AmbitSystem {
        &self.sys
    }

    /// Mutable engine access (e.g. toggling the batched-run fast path).
    pub fn system_mut(&mut self) -> &mut AmbitSystem {
        &mut self.sys
    }

    fn engine_err(&self, e: impl std::fmt::Display) -> RuntimeError {
        RuntimeError::Engine {
            backend: self.name.clone(),
            message: e.to_string(),
        }
    }

    fn chunks_of(&self, len_bits: usize) -> usize {
        len_bits.div_ceil(self.row_bits).max(1)
    }

    /// `true` while telemetry or profiling is on: jobs are recorded.
    fn observing_jobs(&mut self) -> bool {
        self.sys
            .observer_mut()
            .is_some_and(|o| o.enabled(Projection::Telemetry) || o.enabled(Projection::Profile))
    }

    /// Switches one projection on the engine and starts a fresh window
    /// of job records.
    fn observe(&mut self, projection: Projection, enabled: bool) {
        self.sys.observe(projection, enabled);
        self.submit_clocks.clear();
        self.jobs.clear();
        self.jobs_read = [0; 2];
    }

    /// Records one executed job; its queue wait runs from its submit
    /// clock (or `batch_start`, when submitted before observation began).
    fn record_job(
        &mut self,
        id: JobId,
        batch_start: Cycle,
        (exec_start, exec_end): (Cycle, Cycle),
        drain_end: Cycle,
        group: u32,
    ) {
        let submit = self.submit_clocks.remove(&id).unwrap_or(batch_start);
        let phases = JobPhases {
            submit,
            batch_start,
            exec_start,
            exec_end,
            drain_end,
        };
        self.jobs.push((id, phases, group));
    }

    /// Projects the job records take `which` has not read yet, then drops
    /// the prefix both takes have read.
    fn take_jobs<T>(
        &mut self,
        which: usize,
        project: impl Fn(&(JobId, JobPhases, u32)) -> T,
    ) -> Vec<T> {
        let out = self.jobs[self.jobs_read[which]..]
            .iter()
            .map(project)
            .collect();
        self.jobs_read[which] = self.jobs.len();
        let both = self.jobs_read[0].min(self.jobs_read[1]);
        self.jobs.drain(..both);
        self.jobs_read = self.jobs_read.map(|r| r - both);
        out
    }

    /// Executes one coalesced group of same-`op` single-step jobs whose
    /// chunk total fits the bank count. `members` are `(id, a, b)`.
    fn run_group(&mut self, op: BulkOp, members: &[GroupMember]) -> Result<(), RuntimeError> {
        let observing = self.observing_jobs();
        // Queue wait ends and staging (operand placement) begins here.
        let batch_start = self.sys.clock();
        // Row-aligned chunk offset of each member.
        let mut offsets = Vec::with_capacity(members.len());
        let mut total_chunks = 0usize;
        for (_, a, _) in members {
            offsets.push(total_chunks);
            total_chunks += self.chunks_of(a.len());
        }
        debug_assert!(total_chunks <= self.total_banks);
        let vecs = if op.is_unary() { 2 } else { 3 };

        // Operands, then the output. Each member is written into, and read
        // back from, its own rows; slack bits in its last row stay zero.
        // Every member's `a` is written before any `b`.
        let (start, delta, ends, outputs) = with_staged(
            &mut self.sys,
            total_chunks * self.row_bits,
            &[None; 3][..vecs],
            |sys, staged| {
                let (out, ins) = staged.split_last().expect("an output vector");
                for (k, v) in ins.iter().enumerate() {
                    for ((_, a, b), &off) in members.iter().zip(&offsets) {
                        let payload = [Some(a), b.as_ref()][k].expect("binary operands");
                        sys.write_at(v, off, payload)?;
                    }
                }
                let start = sys.clock();
                let counts_before = *sys.counts();
                sys.execute(op, &ins[0], ins.get(1), out)?;
                let delta = sys.counts().since(&counts_before);
                let outputs = members
                    .iter()
                    .zip(&offsets)
                    .map(|((_, a, _), &off)| sys.read_at(out, off, a.len()))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok((start, delta, sys.last_chunk_ends().to_vec(), outputs))
            },
        )
        .map_err(|e| self.engine_err(e))?;
        // Results are back on the host; the batch closes here for every
        // member (read-back is a whole-batch operation).
        let drain_end = self.sys.clock();

        if let Some(tel) = self.sys.observer_mut().and_then(Observer::telemetry) {
            tel.count("coalesce.groups", 0, 1);
            tel.observe("coalesce.batch_jobs", 0, POW2_BOUNDS, members.len() as u64);
            tel.observe("coalesce.batch_chunks", 0, POW2_BOUNDS, total_chunks as u64);
            // Note: commands issued through the device's batched-run fast
            // path are tracked by `AmbitSystem::batched_commands`, not as a
            // telemetry series — batching is a host-side replay detail,
            // and the snapshot records only what the modeled machine did.
        }

        for (((id, a, _), &off), output) in members.iter().zip(&offsets).zip(outputs) {
            let len = a.len();
            let chunks = self.chunks_of(len);
            // As-if-alone timing: the slowest of the job's own chains.
            let end = ends[off..off + chunks]
                .iter()
                .copied()
                .max()
                .expect("jobs have at least one chunk");
            let cycles = end - start;
            // The program issues the same commands for every chunk, so
            // the group's delta divides exactly per chunk.
            let mut commands = CommandCounts::new();
            for (kind, n) in delta.iter() {
                debug_assert_eq!(n % total_chunks as u64, 0, "homogeneous per-chunk commands");
                commands.record_n(kind, (n / total_chunks as u64) * chunks as u64);
            }
            if observing {
                let group = members.len() as u32;
                self.record_job(*id, batch_start, (start, end), drain_end, group);
            }
            let report = JobReport {
                backend: self.name.clone(),
                ns: self.sys.spec().timing.cycles_to_ns(cycles),
                bytes_out: (len as u64).div_ceil(8),
                energy: self.sys.price_commands(&commands),
                commands: Some(commands),
            };
            self.queue.finish(Completion {
                id: *id,
                output: JobOutput::Bits(output),
                report,
            });
        }
        Ok(())
    }

    /// Executes one job alone (the non-coalescible path).
    fn run_single(&mut self, id: JobId, job: Job) -> Result<(), RuntimeError> {
        let observing = self.observing_jobs();
        let start = self.sys.clock();
        let (output, report) = match job {
            Job::Bitwise { plan, inputs } => {
                let refs: Vec<&BitVec> = inputs.iter().map(|v| v.as_ref()).collect();
                let (mut outs, r) = self
                    .sys
                    .run_plan_multi(&plan, &refs)
                    .map_err(|e| self.engine_err(e))?;
                let output = if outs.len() == 1 {
                    JobOutput::Bits(outs.swap_remove(0))
                } else {
                    JobOutput::MultiBits(outs)
                };
                (output, r)
            }
            Job::RowCopy { data, psm } => with_staged(
                &mut self.sys,
                data.len(),
                &[Some(&*data), None],
                |sys, v| {
                    let r = if psm {
                        sys.copy_psm(&v[0], &v[1])
                    } else {
                        sys.copy(&v[0], &v[1])
                    }?;
                    Ok((JobOutput::Bits(sys.read(&v[1])), r))
                },
            )
            .map_err(|e| self.engine_err(e))?,
            Job::RowInit { bits, ones } => with_staged(&mut self.sys, bits, &[None], |sys, v| {
                let r = sys.fill(&v[0], ones)?;
                Ok((JobOutput::Bits(sys.read(&v[0])), r))
            })
            .map_err(|e| self.engine_err(e))?,
            Job::SimdProgram { program, inputs } => {
                let refs: Vec<&BitSlicedIntVec> = inputs.iter().map(|v| v.as_ref()).collect();
                let (outs, r) = program
                    .execute(&mut self.sys, &refs)
                    .map_err(|e| self.engine_err(e))?;
                (JobOutput::Sliced(outs), r)
            }
            other => {
                return Err(RuntimeError::Unsupported {
                    backend: self.name.clone(),
                    job: other.kind(),
                })
            }
        };
        let end = self.sys.clock();
        if observing {
            // A solo run stages inside its own execute window (operand
            // writes are part of the plan), so batch/stage collapse onto
            // the window edges.
            self.record_job(id, start, (start, end), end, 1);
        }
        self.queue.finish(Completion {
            id,
            output,
            report: JobReport {
                backend: self.name.clone(),
                ns: report.ns,
                bytes_out: report.bytes_out,
                energy: report.energy,
                commands: Some(report.commands),
            },
        });
        Ok(())
    }
}

/// A coalescing group under construction.
struct Group {
    op: BulkOp,
    chunks: usize,
    members: Vec<(JobId, Arc<BitVec>, Option<Arc<BitVec>>)>,
}

impl Backend for AmbitBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn site(&self) -> &SiteModel {
        &self.site
    }

    fn capacity(&self) -> usize {
        self.queue.capacity()
    }

    fn channel_domains(&self) -> usize {
        self.sys.spec().org.channels as usize
    }

    fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    fn queue_high_water(&self) -> usize {
        self.queue.high_water()
    }

    fn rejections(&self) -> u64 {
        self.queue.rejections()
    }

    fn submitted(&self) -> u64 {
        self.queue.submitted()
    }

    fn completed(&self) -> u64 {
        self.queue.completed()
    }

    fn supports(&self, job: &Job) -> bool {
        matches!(
            job,
            Job::Bitwise { .. }
                | Job::RowCopy { .. }
                | Job::RowInit { .. }
                | Job::SimdProgram { .. }
        )
    }

    fn estimate(&self, job: &Job) -> Result<CostEstimate, RuntimeError> {
        ensure_supported(self, job)?;
        match job {
            // A compiled program's cost is its command sequence, not a
            // byte stream: project the typed [`pim_simd::CostModel`]
            // through the device's AAP/TRA timings (bank-parallel waves
            // of row-sized chunks) and its per-command energy model.
            // This is what lets the advisor see mul's quadratic command
            // blowup without executing anything.
            Job::SimdProgram { program, inputs } => {
                let lanes = inputs.first().map_or(0, |v| v.len());
                let cost = program.cost_model();
                let pim = self.sys.spec().pim;
                let cycles =
                    cost.lane_cycles(lanes, self.row_bits, self.total_banks, pim.aap, pim.tra);
                let chunks = lanes.div_ceil(self.row_bits).max(1) as u64;
                let mut counts = CommandCounts::new();
                counts.record_n(CommandKind::Aap, cost.aap * chunks);
                counts.record_n(CommandKind::Tra, cost.tra * chunks);
                Ok(CostEstimate {
                    ns: self.sys.spec().timing.cycles_to_ns(cycles),
                    energy: self.sys.price_commands(&counts),
                })
            }
            _ => Ok(CostEstimate::roofline(&self.site, job)),
        }
    }

    fn submit(&mut self, id: JobId, job: Job) -> Result<(), RuntimeError> {
        ensure_supported(self, &job)?;
        self.queue.push(&self.name.clone(), id, job)?;
        if self.observing_jobs() {
            self.submit_clocks.insert(id, self.sys.clock());
        }
        Ok(())
    }

    fn drain(&mut self) -> Result<(), RuntimeError> {
        let batch = self.queue.take_batch();
        // Pass 1: gather coalescible jobs into same-op groups capped at
        // `total_banks` chunks (first-seen op order, splitting at the
        // cap); everything else dispatches individually in queue order.
        let mut groups: Vec<Group> = Vec::new();
        let mut singles: Vec<(JobId, Job)> = Vec::new();
        for (id, job) in batch {
            let op = job.single_op();
            let chunks = self.chunks_of(job.len_bits());
            match op {
                Some(op) if self.coalesce && chunks <= self.total_banks => {
                    let (a, b) = match job {
                        Job::Bitwise { mut inputs, .. } => {
                            let a = inputs.remove(0);
                            let b = inputs.pop();
                            (a, b)
                        }
                        _ => unreachable!("single_op implies a bitwise job"),
                    };
                    match groups
                        .iter_mut()
                        .find(|g| g.op == op && g.chunks + chunks <= self.total_banks)
                    {
                        Some(g) => {
                            g.chunks += chunks;
                            g.members.push((id, a, b));
                        }
                        None => groups.push(Group {
                            op,
                            chunks,
                            members: vec![(id, a, b)],
                        }),
                    }
                }
                _ => singles.push((id, job)),
            }
        }
        for g in groups {
            self.run_group(g.op, &g.members)?;
        }
        for (id, job) in singles {
            self.run_single(id, job)?;
        }
        Ok(())
    }

    fn poll(&mut self) -> Vec<Completion> {
        self.queue.poll()
    }

    fn set_trace(&mut self, enabled: bool) {
        self.sys.set_trace(enabled);
    }

    fn take_trace(&mut self) -> Vec<TraceRecord> {
        self.sys.take_trace()
    }

    fn trace_spec(&self) -> Option<DramSpec> {
        Some(self.sys.spec().clone())
    }

    fn set_telemetry(&mut self, enabled: bool) {
        self.observe(Projection::Telemetry, enabled);
    }

    fn take_telemetry(&mut self) -> Option<TelemetrySink> {
        self.sys.observer_mut().and_then(Observer::take_telemetry)
    }

    fn take_exec_spans(&mut self) -> Vec<(JobId, ExecSpan)> {
        self.take_jobs(0, |&(id, p, group)| {
            let (start, end) = (p.exec_start, p.exec_end);
            (id, ExecSpan { start, end, group })
        })
    }

    fn set_profile(&mut self, enabled: bool) {
        self.observe(Projection::Profile, enabled);
    }

    fn take_profile(&mut self) -> Option<ProfileSink> {
        self.sys.observer_mut().and_then(Observer::take_profile)
    }

    fn profile_ns_per_cycle(&self) -> Option<f64> {
        Some(self.sys.spec().timing.cycles_to_ns(1))
    }

    fn take_job_phases(&mut self) -> Vec<(JobId, JobPhases)> {
        self.take_jobs(1, |&(id, phases, _)| (id, phases))
    }

    fn take_queue_high_water(&mut self) -> usize {
        self.queue.take_high_water()
    }
}
