//! The [`Backend`] trait every execution engine implements, plus the
//! bounded [`JobQueue`] they share.

use crate::error::RuntimeError;
use crate::job::{Completion, Job, JobId};
use pim_core::SiteModel;
use pim_dram::{DramSpec, TraceRecord};
use pim_energy::{Component, EnergyBreakdown};
use pim_profile::{JobPhases, ProfileSink};
use pim_telemetry::{ExecSpan, TelemetrySink};
use std::collections::VecDeque;

/// What a job is predicted to cost on a backend, before running it.
#[derive(Debug, Clone, PartialEq)]
pub struct CostEstimate {
    /// Predicted nanoseconds (roofline over the backend's site model).
    pub ns: f64,
    /// Predicted energy by component.
    pub energy: EnergyBreakdown,
}

impl CostEstimate {
    /// `job`'s [`Job::profile`] priced on `site`'s roofline, with all
    /// energy attributed to [`Component::Other`].
    pub(crate) fn roofline(site: &SiteModel, job: &Job) -> Self {
        let profile = job.profile();
        let mut energy = EnergyBreakdown::new();
        energy.add_nj(Component::Other, site.energy_nj(&profile));
        CostEstimate {
            ns: site.time_ns(&profile),
            energy,
        }
    }

    /// Total predicted energy in nJ.
    pub fn energy_nj(&self) -> f64 {
        self.energy.total_nj()
    }
}

/// One execution engine behind the runtime: an Ambit DRAM, a Tesseract
/// stack, a host roofline. Backends own a bounded submission queue
/// (backpressure via [`RuntimeError::QueueFull`]), execute queued jobs on
/// [`Backend::drain`], and report finished work through
/// [`Backend::poll`].
pub trait Backend {
    /// Unique backend name — the handle forced placement uses.
    fn name(&self) -> &str;

    /// The roofline site model the offload advisor prices this backend
    /// with.
    fn site(&self) -> &SiteModel;

    /// Whether this backend is the host side of the offload decision.
    fn is_host(&self) -> bool {
        false
    }

    /// How many independent channel-domain shards this backend can run
    /// in parallel: DRAM channels for an Ambit device, stacks for a
    /// Tesseract fleet, `1` for backends with no internal sharding.
    /// The advisor surfaces this through
    /// [`BackendStats`](crate::BackendStats) and
    /// [`PlacementDecision`](crate::PlacementDecision) so placement can
    /// treat each channel domain as a schedulable capacity unit.
    fn channel_domains(&self) -> usize {
        1
    }

    /// Submission-queue bound.
    fn capacity(&self) -> usize;

    /// Jobs currently queued (not yet drained).
    fn queue_depth(&self) -> usize;

    /// Deepest the submission queue has ever been (backpressure
    /// incidents stay observable after the queue drains).
    fn queue_high_water(&self) -> usize;

    /// Cumulative [`RuntimeError::QueueFull`] rejections.
    fn rejections(&self) -> u64;

    /// Jobs accepted over this backend's lifetime.
    fn submitted(&self) -> u64;

    /// Jobs completed over this backend's lifetime.
    fn completed(&self) -> u64;

    /// Whether this backend can execute `job` at all.
    fn supports(&self, job: &Job) -> bool;

    /// Predicts `job`'s cost on this backend without executing it.
    ///
    /// The default prices the job's [`Job::profile`] on the backend's
    /// [`SiteModel`] roofline, attributing all energy to
    /// [`Component::Other`]; backends with a component-resolved energy
    /// model override this.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Unsupported`] if the backend cannot run the job.
    fn estimate(&self, job: &Job) -> Result<CostEstimate, RuntimeError> {
        ensure_supported(self, job)?;
        Ok(CostEstimate::roofline(self.site(), job))
    }

    /// Enqueues a job.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::QueueFull`] (non-sticky) at capacity,
    /// [`RuntimeError::Unsupported`] for foreign job kinds,
    /// [`RuntimeError::InvalidJob`] for malformed jobs.
    fn submit(&mut self, id: JobId, job: Job) -> Result<(), RuntimeError>;

    /// Executes everything queued (batching/coalescing compatible jobs
    /// where the engine supports it).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Engine`] if the engine rejects a job mid-batch; the
    /// rest of that batch is lost but the backend stays usable.
    fn drain(&mut self) -> Result<(), RuntimeError>;

    /// Takes all completions produced by previous drains.
    fn poll(&mut self) -> Vec<Completion>;

    /// Enables or disables DRAM command-trace capture, where the engine
    /// has a command-level device underneath (no-op elsewhere).
    fn set_trace(&mut self, _enabled: bool) {}

    /// Takes the captured command trace (empty when unsupported/disabled).
    fn take_trace(&mut self) -> Vec<TraceRecord> {
        Vec::new()
    }

    /// The DRAM device spec behind [`Backend::take_trace`]'s records, for
    /// oracle validation.
    fn trace_spec(&self) -> Option<DramSpec> {
        None
    }

    /// Enables or disables telemetry capture on the engine underneath
    /// (no-op for backends with nothing to record).
    fn set_telemetry(&mut self, _enabled: bool) {}

    /// Takes the engine's captured telemetry (`None` when unsupported
    /// or disabled). The runtime namespaces it under the backend name.
    fn take_telemetry(&mut self) -> Option<TelemetrySink> {
        None
    }

    /// Takes the engine-clock execute windows recorded since the last
    /// call, as `(job, span)` pairs — only backends with a
    /// cycle-domain device produce any. Recording happens only while
    /// telemetry or profiling is enabled.
    fn take_exec_spans(&mut self) -> Vec<(JobId, ExecSpan)> {
        Vec::new()
    }

    /// Enables or disables cycle-domain profiling-event capture on the
    /// engine underneath (no-op for backends with no cycle domain).
    /// Disabled costs one branch per event site.
    fn set_profile(&mut self, _enabled: bool) {}

    /// Takes the engine's captured profiling events (`None` when
    /// unsupported or disabled); capture stays enabled after.
    fn take_profile(&mut self) -> Option<ProfileSink> {
        None
    }

    /// Nanoseconds per cycle of this backend's profiling clock, used to
    /// place its timeline group on the wall-clock axis. `None` for
    /// backends with no cycle domain.
    fn profile_ns_per_cycle(&self) -> Option<f64> {
        None
    }

    /// Takes the per-job lifecycle phase boundaries recorded since the
    /// last call. Only backends with a cycle domain record any, and
    /// only while profiling is enabled.
    fn take_job_phases(&mut self) -> Vec<(JobId, JobPhases)> {
        Vec::new()
    }

    /// Reads **and resets** the submission-queue high-water mark, so a
    /// caller sampling at interval boundaries sees per-window peaks
    /// instead of a lifetime maximum. The default (for backends without
    /// a resettable queue) falls back to the lifetime value.
    fn take_queue_high_water(&mut self) -> usize {
        self.queue_high_water()
    }
}

/// `Ok` if `backend` can run `job` and the job is well-formed — the one
/// gate every backend's `submit` and `estimate` pass through.
///
/// # Errors
///
/// [`RuntimeError::Unsupported`] for a foreign job kind,
/// [`RuntimeError::InvalidJob`] for a malformed job.
pub(crate) fn ensure_supported<B: Backend + ?Sized>(
    backend: &B,
    job: &Job,
) -> Result<(), RuntimeError> {
    if !backend.supports(job) {
        return Err(RuntimeError::Unsupported {
            backend: backend.name().to_string(),
            job: job.kind(),
        });
    }
    job.validate().map_err(|reason| RuntimeError::InvalidJob {
        backend: backend.name().to_string(),
        job: job.kind(),
        reason,
    })
}

/// Default submission-queue bound for every backend.
pub const DEFAULT_CAPACITY: usize = 256;

/// The bounded submission queue all backends share: capacity-checked
/// submission, FIFO draining, and lifetime counters.
#[derive(Debug, Default)]
pub struct JobQueue {
    capacity: usize,
    queue: VecDeque<(JobId, Job)>,
    done: Vec<Completion>,
    submitted: u64,
    completed: u64,
    high_water: usize,
    rejections: u64,
}

impl JobQueue {
    /// Creates a queue bounded at `capacity` jobs.
    pub fn new(capacity: usize) -> Self {
        JobQueue {
            capacity,
            queue: VecDeque::new(),
            done: Vec::new(),
            submitted: 0,
            completed: 0,
            high_water: 0,
            rejections: 0,
        }
    }

    /// The bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs waiting to be drained.
    pub fn depth(&self) -> usize {
        self.queue.len()
    }

    /// Deepest the queue has ever been.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Reads and resets the high-water mark. The new window restarts at
    /// the *current* depth, not zero — jobs still queued are already
    /// "the deepest the queue has been" in the window that starts now.
    pub fn take_high_water(&mut self) -> usize {
        std::mem::replace(&mut self.high_water, self.queue.len())
    }

    /// Cumulative capacity rejections (each one surfaced to the caller
    /// as [`RuntimeError::QueueFull`]).
    pub fn rejections(&self) -> u64 {
        self.rejections
    }

    /// Jobs ever accepted.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Jobs ever completed.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Accepts a job, or rejects it (non-stickily) at capacity.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::QueueFull`] when `depth() == capacity()`.
    pub fn push(&mut self, backend: &str, id: JobId, job: Job) -> Result<(), RuntimeError> {
        if self.queue.len() >= self.capacity {
            self.rejections += 1;
            return Err(RuntimeError::QueueFull {
                backend: backend.to_string(),
                capacity: self.capacity,
            });
        }
        self.queue.push_back((id, job));
        self.submitted += 1;
        self.high_water = self.high_water.max(self.queue.len());
        Ok(())
    }

    /// Takes the whole queued batch in FIFO order.
    pub fn take_batch(&mut self) -> Vec<(JobId, Job)> {
        self.queue.drain(..).collect()
    }

    /// Records a finished job.
    pub fn finish(&mut self, completion: Completion) {
        self.completed += 1;
        self.done.push(completion);
    }

    /// Takes all recorded completions.
    pub fn poll(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_full_is_not_sticky() {
        let mut q = JobQueue::new(2);
        let job = || Job::RowInit {
            bits: 64,
            ones: false,
        };
        q.push("b", 0, job()).unwrap();
        q.push("b", 1, job()).unwrap();
        let err = q.push("b", 2, job()).unwrap_err();
        assert_eq!(
            err,
            RuntimeError::QueueFull {
                backend: "b".into(),
                capacity: 2
            }
        );
        assert_eq!(q.depth(), 2);
        assert_eq!(q.rejections(), 1);
        assert_eq!(q.take_batch().len(), 2);
        q.push("b", 3, job()).expect("accepts again after drain");
        assert_eq!(q.submitted(), 3);
        // High-water survives the drain; the post-drain push never
        // exceeded the earlier peak.
        assert_eq!(q.high_water(), 2);
        assert_eq!(q.rejections(), 1);
    }

    #[test]
    fn take_high_water_resets_to_current_depth() {
        let mut q = JobQueue::new(8);
        let job = || Job::RowInit {
            bits: 64,
            ones: false,
        };
        for id in 0..3 {
            q.push("b", id, job()).unwrap();
        }
        q.take_batch();
        q.push("b", 3, job()).unwrap();
        // First window saw depth 3; the mark resets to the current
        // depth (1), not zero — the queued job still counts.
        assert_eq!(q.take_high_water(), 3);
        assert_eq!(q.high_water(), 1);
        q.push("b", 4, job()).unwrap();
        assert_eq!(q.take_high_water(), 2);
        // An empty queue restarts the window at zero.
        q.take_batch();
        q.take_high_water();
        assert_eq!(q.high_water(), 0);
    }
}
