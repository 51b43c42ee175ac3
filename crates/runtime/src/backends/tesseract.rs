//! The Tesseract graph accelerator as a runtime backend: each
//! [`Job::GraphBatch`] runs a kernel to convergence as a batch of
//! vault-partitioned supersteps.

use crate::backend::{ensure_supported, Backend, JobQueue, DEFAULT_CAPACITY};
use crate::error::RuntimeError;
use crate::job::{Completion, GraphRun, Job, JobId, JobOutput, JobReport};
use pim_core::SiteModel;
use pim_profile::{Cycle, JobPhases, ProfileSink};
use pim_telemetry::TelemetrySink;
use pim_tesseract::{TesseractConfig, TesseractSim};
use std::collections::BTreeMap;

/// [`TesseractSim`] behind the [`Backend`] trait.
#[derive(Debug)]
pub struct TesseractBackend {
    name: String,
    sim: TesseractSim,
    site: SiteModel,
    queue: JobQueue,
    telemetry: Option<TelemetrySink>,
    /// Profiling events on the synthesized picosecond clock (see
    /// [`pim_tesseract::profile`]); `None` = disabled.
    profile: Option<ProfileSink>,
    /// The synthesized clock: advances by each job's superstep
    /// waterfall as it executes (jobs run back-to-back).
    clock: Cycle,
    /// Clock at each pending job's submit, recorded while profiling is
    /// on.
    submit_clocks: BTreeMap<JobId, Cycle>,
    /// Per-job lifecycle phases recorded while profiling is on.
    job_phases: Vec<(JobId, JobPhases)>,
}

impl TesseractBackend {
    /// Creates a backend over a fresh Tesseract stack.
    pub fn new(name: impl Into<String>, config: TesseractConfig) -> Self {
        Self::with_capacity(name, config, DEFAULT_CAPACITY)
    }

    /// Like [`TesseractBackend::new`] with an explicit queue bound.
    pub fn with_capacity(
        name: impl Into<String>,
        config: TesseractConfig,
        capacity: usize,
    ) -> Self {
        let name = name.into();
        // Advisory roofline: aggregate TSV bandwidth across vaults and one
        // op per core cycle per vault; per-byte energy is the vault+TSV
        // path, per-op the in-order PIM core.
        let bw = config.stack.vaults as f64 * config.stack.tsv_gbps_per_vault;
        let gops = config.stack.vaults as f64 * config.core_ghz;
        let site =
            SiteModel::new(&name, bw, gops, 0.013, 0.06).expect("tesseract site coefficients");
        TesseractBackend {
            name,
            sim: TesseractSim::new(config),
            site,
            queue: JobQueue::new(capacity),
            telemetry: None,
            profile: None,
            clock: 0,
            submit_clocks: BTreeMap::new(),
            job_phases: Vec::new(),
        }
    }

    /// The underlying simulator (config, partition).
    pub fn simulator(&self) -> &TesseractSim {
        &self.sim
    }
}

impl Backend for TesseractBackend {
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
        self.sim.config().stacks as usize
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
        matches!(job, Job::GraphBatch { .. })
    }

    fn submit(&mut self, id: JobId, job: Job) -> Result<(), RuntimeError> {
        ensure_supported(self, &job)?;
        self.queue.push(&self.name.clone(), id, job)?;
        if self.profile.is_some() {
            self.submit_clocks.insert(id, self.clock);
        }
        Ok(())
    }

    fn drain(&mut self) -> Result<(), RuntimeError> {
        // One batch boundary for the whole drain pass: every queued
        // job's wait ends when the pass starts picking work up.
        let batch_start = self.clock;
        for (id, job) in self.queue.take_batch() {
            let Job::GraphBatch { kernel, graph } = job else {
                unreachable!("submit rejects foreign job kinds");
            };
            let (output, trace, report) = self.sim.run(kernel, &graph);
            if let Some(sink) = &mut self.telemetry {
                pim_tesseract::telemetry::record_execution(&trace, sink);
            }
            if let Some(sink) = self.profile.as_mut() {
                let exec_start = self.clock;
                self.clock = pim_tesseract::profile::record_execution(
                    &trace,
                    self.sim.config(),
                    exec_start,
                    Some(id),
                    sink,
                );
                // The kernel's output lives in the vaults when it
                // converges — there is no separate read-back phase.
                let submit = self.submit_clocks.remove(&id).unwrap_or(batch_start);
                self.job_phases.push((
                    id,
                    JobPhases {
                        submit,
                        batch_start,
                        exec_start,
                        exec_end: self.clock,
                        drain_end: self.clock,
                    },
                ));
            }
            self.queue.finish(Completion {
                id,
                output: JobOutput::Graph(Box::new(GraphRun { output, trace })),
                report: JobReport {
                    backend: self.name.clone(),
                    ns: report.ns,
                    bytes_out: 0,
                    energy: report.energy,
                    commands: None,
                },
            });
        }
        Ok(())
    }

    fn poll(&mut self) -> Vec<Completion> {
        self.queue.poll()
    }

    fn set_telemetry(&mut self, enabled: bool) {
        self.telemetry = enabled.then(TelemetrySink::new);
    }

    fn take_telemetry(&mut self) -> Option<TelemetrySink> {
        self.telemetry.as_mut().map(std::mem::take)
    }

    fn set_profile(&mut self, enabled: bool) {
        self.profile = enabled.then(ProfileSink::new);
        self.clock = 0;
        self.submit_clocks.clear();
        self.job_phases.clear();
    }

    fn take_profile(&mut self) -> Option<ProfileSink> {
        // The clock keeps running across takes so successive windows
        // stay on one monotonic timeline.
        self.profile.as_mut().map(std::mem::take)
    }

    fn profile_ns_per_cycle(&self) -> Option<f64> {
        Some(pim_tesseract::profile::NS_PER_CYCLE)
    }

    fn take_job_phases(&mut self) -> Vec<(JobId, JobPhases)> {
        std::mem::take(&mut self.job_phases)
    }

    fn take_queue_high_water(&mut self) -> usize {
        self.queue.take_high_water()
    }
}
