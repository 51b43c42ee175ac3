//! A span-recording shim around a runtime [`Backend`].
//!
//! The runtime calls into each engine through the public `Backend`
//! trait, so wrapping a backend times the engine side of that boundary
//! from outside the program: `<layer>.estimate` is the advisor pricing a
//! job on the engine, `<layer>.drain` the engine executing its queue.
//! Whatever the runtime does around those calls (placement, queueing,
//! completion sorting) is the runtime span's self time. Traced runs only;
//! untraced runs hand the runtime the bare backend.

use crate::spans;
use pim_core::SiteModel;
use pim_dram::{DramSpec, TraceRecord};
use pim_profile::{JobPhases, ProfileSink};
use pim_runtime::{Backend, Completion, CostEstimate, Job, JobId, JobOutput, RuntimeError};
use pim_telemetry::{ExecSpan, TelemetrySink};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Jobs a wrapped backend accepted and, when asked, the outputs it
/// produced for them, kept so a twin can re-run the same call on
/// identical inputs.
#[derive(Debug, Default)]
pub struct Capture {
    /// Accepted jobs, in submission order.
    pub jobs: Vec<(JobId, Job)>,
    /// Outputs of completed captured jobs; `None` keeps none.
    pub outputs: Option<BTreeMap<JobId, JobOutput>>,
}

/// Shared handle to a [`Capture`].
pub type SharedCapture = Rc<RefCell<Capture>>;

/// A backend whose estimate and drain calls record host-time spans.
pub struct Timed<B> {
    inner: B,
    estimate: &'static str,
    drain: &'static str,
    capture: Option<SharedCapture>,
}

impl<B: Backend> Timed<B> {
    /// Wraps `inner`, naming its spans after `layer` (`ambit`, `host`,
    /// `tesseract`).
    ///
    /// # Panics
    ///
    /// Panics on a layer name the benchmark does not report.
    pub fn new(inner: B, layer: &str) -> Self {
        let (estimate, drain) = match layer {
            "ambit" => ("ambit.estimate", "ambit.drain"),
            "host" => ("host.estimate", "host.drain"),
            "tesseract" => ("tesseract.estimate", "tesseract.drain"),
            other => panic!("no span names for layer {other}"),
        };
        Timed {
            inner,
            estimate,
            drain,
            capture: None,
        }
    }

    /// Also records every accepted job into `capture`, and its output
    /// when the capture keeps outputs.
    pub fn capturing(mut self, capture: SharedCapture) -> Self {
        self.capture = Some(capture);
        self
    }
}

impl<B: Backend> Backend for Timed<B> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn site(&self) -> &SiteModel {
        self.inner.site()
    }

    fn is_host(&self) -> bool {
        self.inner.is_host()
    }

    fn channel_domains(&self) -> usize {
        self.inner.channel_domains()
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn queue_depth(&self) -> usize {
        self.inner.queue_depth()
    }

    fn queue_high_water(&self) -> usize {
        self.inner.queue_high_water()
    }

    fn rejections(&self) -> u64 {
        self.inner.rejections()
    }

    fn submitted(&self) -> u64 {
        self.inner.submitted()
    }

    fn completed(&self) -> u64 {
        self.inner.completed()
    }

    fn supports(&self, job: &Job) -> bool {
        self.inner.supports(job)
    }

    fn estimate(&self, job: &Job) -> Result<CostEstimate, RuntimeError> {
        spans::scope(self.estimate, || self.inner.estimate(job))
    }

    fn submit(&mut self, id: JobId, job: Job) -> Result<(), RuntimeError> {
        let copy = self.capture.as_ref().map(|_| job.clone());
        self.inner.submit(id, job)?;
        if let (Some(c), Some(job)) = (&self.capture, copy) {
            c.borrow_mut().jobs.push((id, job));
        }
        Ok(())
    }

    fn drain(&mut self) -> Result<(), RuntimeError> {
        spans::scope(self.drain, || self.inner.drain())
    }

    fn poll(&mut self) -> Vec<Completion> {
        let done = self.inner.poll();
        if let Some(c) = &self.capture {
            let c = &mut *c.borrow_mut();
            if let Some(outputs) = &mut c.outputs {
                for d in &done {
                    if c.jobs.iter().any(|(id, _)| *id == d.id) {
                        outputs.insert(d.id, d.output.clone());
                    }
                }
            }
        }
        done
    }

    fn set_trace(&mut self, enabled: bool) {
        self.inner.set_trace(enabled);
    }

    fn take_trace(&mut self) -> Vec<TraceRecord> {
        self.inner.take_trace()
    }

    fn trace_spec(&self) -> Option<DramSpec> {
        self.inner.trace_spec()
    }

    fn set_telemetry(&mut self, enabled: bool) {
        self.inner.set_telemetry(enabled);
    }

    fn take_telemetry(&mut self) -> Option<TelemetrySink> {
        self.inner.take_telemetry()
    }

    fn take_exec_spans(&mut self) -> Vec<(JobId, ExecSpan)> {
        self.inner.take_exec_spans()
    }

    fn set_profile(&mut self, enabled: bool) {
        self.inner.set_profile(enabled);
    }

    fn take_profile(&mut self) -> Option<ProfileSink> {
        self.inner.take_profile()
    }

    fn profile_ns_per_cycle(&self) -> Option<f64> {
        self.inner.profile_ns_per_cycle()
    }

    fn take_job_phases(&mut self) -> Vec<(JobId, JobPhases)> {
        self.inner.take_job_phases()
    }

    fn take_queue_high_water(&mut self) -> usize {
        self.inner.take_queue_high_water()
    }
}
