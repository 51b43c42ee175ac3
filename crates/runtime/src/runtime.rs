//! The [`Runtime`]: a set of named backends behind one submission
//! surface, with the pim-core offload advisor as the live placement
//! policy and forced placement for A/B studies.

use crate::backend::{Backend, CostEstimate};
use crate::error::RuntimeError;
use crate::job::{Completion, Job, JobId};
use pim_core::{Objective, OffloadDecision};
use pim_dram::{DramSpec, TraceRecord};
use pim_profile::{JobPhases, JobRecord, Lane, Profile};
use pim_telemetry::{ExecSpan, JobSpan, TelemetrySink};
use std::collections::BTreeMap;

/// Where a submitted job should run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Placement {
    /// Let the offload advisor choose between the host backend and the
    /// best supporting PIM backend, optimizing `Objective`.
    Advised(Objective),
    /// Run on the named backend regardless of cost (the A/B override).
    Forced(String),
}

/// How a job's backend was chosen.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementDecision {
    /// The backend the job was queued on.
    pub backend: String,
    /// The advisor's host-vs-PIM verdict, when placement was advised and
    /// both sides existed (`None` for forced placement or a one-sided
    /// runtime).
    pub advised: Option<OffloadDecision>,
    /// Independent channel-domain shards on the chosen backend (DRAM
    /// channels, Tesseract stacks) — the parallel capacity the placement
    /// bought.
    pub channel_domains: usize,
}

/// A point-in-time snapshot of one backend's queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendStats {
    /// Backend name.
    pub name: String,
    /// Submission-queue bound.
    pub capacity: usize,
    /// Independent channel-domain shards the backend runs in parallel
    /// (DRAM channels, Tesseract stacks; `1` when unsharded).
    pub channel_domains: usize,
    /// Jobs queued and not yet drained.
    pub queue_depth: usize,
    /// Deepest the submission queue has ever been.
    pub queue_high_water: usize,
    /// Cumulative `QueueFull` rejections.
    pub rejections: u64,
    /// Jobs ever accepted.
    pub submitted: u64,
    /// Jobs ever completed.
    pub completed: u64,
}

/// The batching job runtime over a fleet of [`Backend`]s.
#[derive(Default)]
pub struct Runtime {
    backends: Vec<Box<dyn Backend>>,
    next_id: JobId,
    decisions: Vec<(JobId, PlacementDecision)>,
    /// Runtime-level telemetry (spans + placement metrics); `None` means
    /// disabled and every hot path reduces to one branch.
    telemetry: Option<TelemetrySink>,
    /// Closed job records awaiting [`Runtime::take_profile`]; `None`
    /// means profiling is disabled.
    profile: Option<Vec<JobRecord>>,
    /// One record per job submitted while telemetry or profiling is on:
    /// opened at submit, closed at drain into a telemetry span and/or a
    /// profile record.
    pending: BTreeMap<JobId, JobRecord>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field(
                "backends",
                &self
                    .backends
                    .iter()
                    .map(|b| b.name().to_string())
                    .collect::<Vec<_>>(),
            )
            .field("next_id", &self.next_id)
            .finish()
    }
}

impl Runtime {
    /// Creates an empty runtime; add engines with [`Runtime::register`].
    pub fn new() -> Self {
        Runtime::default()
    }

    /// Adds a backend. Registration order breaks ties: the first `is_host`
    /// backend is the host side of advised placement, and forced placement
    /// resolves names in registration order.
    pub fn register(&mut self, backend: Box<dyn Backend>) -> &mut Self {
        self.backends.push(backend);
        self
    }

    /// Builder-style [`Runtime::register`].
    #[must_use]
    pub fn with(mut self, backend: Box<dyn Backend>) -> Self {
        self.register(backend);
        self
    }

    fn backend_index(&self, name: &str) -> Result<usize, RuntimeError> {
        self.backends
            .iter()
            .position(|b| b.name() == name)
            .ok_or_else(|| RuntimeError::UnknownBackend {
                name: name.to_string(),
            })
    }

    /// Picks a backend for `job` under `placement` without queueing it.
    fn place(&self, job: &Job, placement: &Placement) -> Result<PlacementDecision, RuntimeError> {
        match placement {
            Placement::Forced(name) => {
                let idx = self.backend_index(name)?;
                let b = &self.backends[idx];
                if !b.supports(job) {
                    return Err(RuntimeError::Unsupported {
                        backend: name.clone(),
                        job: job.kind(),
                    });
                }
                Ok(PlacementDecision {
                    backend: name.clone(),
                    advised: None,
                    channel_domains: b.channel_domains(),
                })
            }
            Placement::Advised(objective) => self.advise(job, *objective),
        }
    }

    /// The advisor path: price the job with each supporting backend's
    /// own [`Backend::estimate`] — for compiled bit-serial programs that
    /// is the emitted AAP/TRA sequence on the PIM side and a vectorized
    /// scalar loop on the host, which is what routes wide multiplies
    /// back to the host — then offload to the highest-benefit PIM
    /// backend strictly cheaper than the host under `objective`,
    /// otherwise stay on the host. With no host registered, the
    /// cheapest supporting backend runs the job. Ties keep the host,
    /// then the first-registered backend.
    fn advise(&self, job: &Job, objective: Objective) -> Result<PlacementDecision, RuntimeError> {
        let cost = |e: &CostEstimate| match objective {
            Objective::Time => e.ns,
            Objective::Energy => e.energy_nj(),
            Objective::EnergyDelay => e.ns * e.energy_nj(),
        };
        let host = self
            .backends
            .iter()
            .find(|b| b.is_host() && b.supports(job));
        let host_est = host.map(|h| h.estimate(job)).transpose()?;
        // The highest score wins: the benefit over the host, or with no
        // host the negated cost.
        let mut best: Option<(f64, &dyn Backend, CostEstimate)> = None;
        // Only PIM backends compete: with no host supporting the job,
        // no supporting backend is host-side.
        for cand in self
            .backends
            .iter()
            .filter(|b| !b.is_host() && b.supports(job))
        {
            let est = cand.estimate(job)?;
            let score = match &host_est {
                Some(h) if cost(&est) < cost(h) => cost(h) / cost(&est),
                Some(_) => continue,
                None => -cost(&est),
            };
            if best.as_ref().is_none_or(|(b, _, _)| score > *b) {
                best = Some((score, cand.as_ref(), est));
            }
        }
        let (chosen, advised) = match (best, host) {
            (Some((_, cand, est)), _) => {
                let advised = host_est.map(|h| OffloadDecision {
                    offload: true,
                    host_time_ns: h.ns,
                    host_energy_nj: h.energy_nj(),
                    pim_time_ns: est.ns,
                    pim_energy_nj: est.energy_nj(),
                });
                (cand, advised)
            }
            (None, Some(host)) => (host.as_ref(), None),
            (None, None) => return Err(RuntimeError::NoBackend { job: job.kind() }),
        };
        Ok(PlacementDecision {
            backend: chosen.name().to_string(),
            advised,
            channel_domains: chosen.channel_domains(),
        })
    }

    /// Queues a job, returning its id.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownBackend`] / [`RuntimeError::Unsupported`] for
    /// bad forced placement, [`RuntimeError::NoBackend`] when no backend
    /// supports the job, [`RuntimeError::QueueFull`] (non-sticky — drain
    /// and resubmit) when the chosen backend is at capacity.
    pub fn submit(&mut self, job: Job, placement: Placement) -> Result<JobId, RuntimeError> {
        let decision = self.place(&job, &placement)?;
        let idx = self.backend_index(&decision.backend)?;
        let id = self.next_id;
        // Open the job's record before `job` moves into the queue; the
        // estimate recorded here is exactly what the advisor priced.
        let observing = self.telemetry.is_some() || self.profile.is_some();
        let record = observing.then(|| {
            let est = self.backends[idx].estimate(&job).ok();
            JobRecord {
                id,
                kind: job.kind().to_string(),
                backend: decision.backend.clone(),
                queue_depth: 0, // filled in once the push succeeds
                advised: match &placement {
                    Placement::Advised(_) => Some(decision.advised.is_some()),
                    Placement::Forced(_) => None,
                },
                est_ns: est.as_ref().map_or(0.0, |e| e.ns),
                est_nj: est.as_ref().map_or(0.0, |e| e.energy_nj()),
                actual_ns: 0.0,
                actual_nj: 0.0,
                commands: 0,
                group: 1,
                phases: None,
            }
        });
        if let Err(e) = self.backends[idx].submit(id, job) {
            if let Some(tel) = &mut self.telemetry {
                tel.count("runtime.rejected", idx as u32, 1);
            }
            return Err(e);
        }
        self.next_id += 1;
        if let Some(mut record) = record {
            let depth = self.backends[idx].queue_depth();
            record.queue_depth = depth as u32;
            if let Some(tel) = &mut self.telemetry {
                tel.count("runtime.jobs", idx as u32, 1);
                tel.gauge("runtime.queue_depth", idx as u32, depth as u64);
            }
            self.pending.insert(id, record);
        }
        self.decisions.push((id, decision));
        Ok(id)
    }

    /// Drains every backend (each batching/coalescing its queue as it sees
    /// fit) and returns all completions, ordered by job id.
    ///
    /// # Errors
    ///
    /// Propagates the first [`RuntimeError::Engine`] a backend reports;
    /// other backends still drain.
    pub fn drain(&mut self) -> Result<Vec<Completion>, RuntimeError> {
        let mut first_err = None;
        for b in &mut self.backends {
            if let Err(e) = b.drain() {
                first_err.get_or_insert(e);
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        let mut done: Vec<Completion> = self.backends.iter_mut().flat_map(|b| b.poll()).collect();
        done.sort_by_key(|c| c.id);
        if self.telemetry.is_some() || self.profile.is_some() {
            self.close_jobs(&done);
        }
        Ok(done)
    }

    /// Closes each completed job's pending record — measured time,
    /// energy, command count, and the backend's engine-clock execute
    /// window and lifecycle phases — then files it as a telemetry span
    /// (attributing its energy breakdown to per-backend `energy.*` series)
    /// and/or a profile record. Completions arrive sorted by id and are
    /// filed in that order, so both streams are independent of backend
    /// iteration and thread count.
    fn close_jobs(&mut self, done: &[Completion]) {
        let mut exec: BTreeMap<JobId, ExecSpan> = BTreeMap::new();
        let mut phases: BTreeMap<JobId, JobPhases> = BTreeMap::new();
        for b in &mut self.backends {
            exec.extend(b.take_exec_spans());
            phases.extend(b.take_job_phases());
        }
        for c in done {
            let Some(mut record) = self.pending.remove(&c.id) else {
                continue;
            };
            let exec = exec.get(&c.id).copied();
            record.actual_ns = c.report.ns;
            record.actual_nj = c.report.energy.total_nj();
            record.commands = c.report.commands.as_ref().map_or(0, |cc| cc.total());
            record.group = exec.map_or(1, |s| s.group);
            record.phases = phases.get(&c.id).copied();
            if let Some(tel) = &mut self.telemetry {
                let idx = self
                    .backends
                    .iter()
                    .position(|b| b.name() == c.report.backend)
                    .unwrap_or(0) as u32;
                c.report.energy.record_telemetry(tel, idx);
                tel.record_span(JobSpan {
                    id: record.id,
                    kind: record.kind.clone(),
                    backend: record.backend.clone(),
                    queue_depth: record.queue_depth,
                    advised: record.advised,
                    est_ns: record.est_ns,
                    est_nj: record.est_nj,
                    actual_ns: record.actual_ns,
                    actual_nj: record.actual_nj,
                    commands: record.commands,
                    exec,
                });
            }
            if let Some(finished) = &mut self.profile {
                finished.push(record);
            }
        }
    }

    /// How `id` was placed ([`Runtime::submit`] order is preserved).
    pub fn decision(&self, id: JobId) -> Option<&PlacementDecision> {
        self.decisions
            .iter()
            .find(|(jid, _)| *jid == id)
            .map(|(_, d)| d)
    }

    /// Predicts `job`'s cost on a named backend without running it.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownBackend`] / [`RuntimeError::Unsupported`].
    pub fn estimate_on(&self, backend: &str, job: &Job) -> Result<CostEstimate, RuntimeError> {
        let idx = self.backend_index(backend)?;
        self.backends[idx].estimate(job)
    }

    /// Queue statistics for every backend, in registration order.
    pub fn stats(&self) -> Vec<BackendStats> {
        self.backends
            .iter()
            .map(|b| BackendStats {
                name: b.name().to_string(),
                capacity: b.capacity(),
                channel_domains: b.channel_domains(),
                queue_depth: b.queue_depth(),
                queue_high_water: b.queue_high_water(),
                rejections: b.rejections(),
                submitted: b.submitted(),
                completed: b.completed(),
            })
            .collect()
    }

    /// Like [`Runtime::stats`], but reads **and resets** each backend's
    /// queue high-water mark, so successive calls report per-window
    /// peaks instead of a lifetime maximum (the other counters stay
    /// cumulative).
    pub fn stats_window(&mut self) -> Vec<BackendStats> {
        self.backends
            .iter_mut()
            .map(|b| BackendStats {
                name: b.name().to_string(),
                capacity: b.capacity(),
                channel_domains: b.channel_domains(),
                queue_depth: b.queue_depth(),
                queue_high_water: b.take_queue_high_water(),
                rejections: b.rejections(),
                submitted: b.submitted(),
                completed: b.completed(),
            })
            .collect()
    }

    /// Enables or disables DRAM command-trace capture on every backend
    /// that has a command-level device underneath.
    pub fn set_trace(&mut self, enabled: bool) {
        for b in &mut self.backends {
            b.set_trace(enabled);
        }
    }

    /// Enables or disables telemetry capture: the runtime's own span and
    /// placement registry, plus every backend's engine-level sink.
    /// Disabled (the default) costs one branch per submit/drain. Like
    /// [`Runtime::set_profile`], switching starts a fresh window of job
    /// records: jobs still pending are not recorded.
    pub fn set_telemetry(&mut self, enabled: bool) {
        self.telemetry = enabled.then(TelemetrySink::new);
        self.pending.clear();
        for b in &mut self.backends {
            b.set_telemetry(enabled);
        }
    }

    /// Takes everything recorded since telemetry was enabled (or last
    /// taken) as one merged sink: runtime-level series (`runtime.*`,
    /// `energy.*`) and job spans unprefixed, each backend's engine series
    /// namespaced under its name (e.g. `ambit.dram.cmd.act`). Returns
    /// `None` while telemetry is disabled; capture stays enabled after.
    pub fn take_telemetry(&mut self) -> Option<TelemetrySink> {
        let mut sink = std::mem::take(self.telemetry.as_mut()?);
        for b in &mut self.backends {
            if let Some(engine) = b.take_telemetry() {
                sink.merge_prefixed(b.name(), engine);
            }
        }
        Some(sink)
    }

    /// Enables or disables cycle-domain profiling capture: per-job
    /// lifecycle records (submit → queue-wait → batch → execute →
    /// drain) at the runtime level, plus every backend's engine-level
    /// timeline sink. Disabled (the default) costs one branch per
    /// submit/drain. Switching starts a fresh window of job records.
    pub fn set_profile(&mut self, enabled: bool) {
        self.profile = enabled.then(Vec::new);
        self.pending.clear();
        for b in &mut self.backends {
            b.set_profile(enabled);
        }
    }

    /// Whether profiling capture is on.
    pub fn profile_enabled(&self) -> bool {
        self.profile.is_some()
    }

    /// Takes everything profiled since capture was enabled (or last
    /// taken) as one [`Profile`]: a timeline group per backend that
    /// produced events — engine lanes (banks, channels, vaults) from
    /// the backend's own sink, plus runtime `queue`/`jobs` lanes
    /// synthesized from the closed job records — and the records
    /// themselves in the `jobs` array. Returns `None` while profiling
    /// is disabled; capture stays enabled after. Jobs submitted but not
    /// yet drained stay pending for the next take.
    pub fn take_profile(&mut self) -> Option<Profile> {
        let jobs = std::mem::take(self.profile.as_mut()?);
        let mut profile = Profile::new().with_meta("source", "pim-runtime");
        for b in &mut self.backends {
            let mut sink = b.take_profile().unwrap_or_default();
            let name = b.name().to_string();
            for record in jobs.iter().filter(|r| r.backend == name) {
                if let Some(p) = record.phases {
                    sink.counter(
                        Lane::Queue,
                        "depth",
                        p.submit,
                        u64::from(record.queue_depth),
                    );
                    sink.slice(
                        Lane::Queue,
                        "wait",
                        p.submit,
                        p.batch_start,
                        Some(record.id),
                    );
                    sink.slice(
                        Lane::Jobs,
                        record.kind.clone(),
                        p.submit,
                        p.drain_end,
                        Some(record.id),
                    );
                }
            }
            if !sink.is_empty() {
                let ns_per_cycle = b.profile_ns_per_cycle().unwrap_or(1.0);
                profile.add_group(name, ns_per_cycle, sink);
            }
        }
        profile.add_jobs(jobs);
        Some(profile)
    }

    /// Takes every captured command trace as `(backend, spec, records)`
    /// triples, ready for oracle validation.
    pub fn take_traces(&mut self) -> Vec<(String, DramSpec, Vec<TraceRecord>)> {
        let mut out = Vec::new();
        for b in &mut self.backends {
            if let Some(spec) = b.trace_spec() {
                let records = b.take_trace();
                if !records.is_empty() {
                    out.push((b.name().to_string(), spec, records));
                }
            }
        }
        out
    }
}
