//! Typed runtime errors.

use std::error::Error;
use std::fmt;

/// Everything that can go wrong submitting to or draining the runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// A backend's bounded submission queue is at capacity. Like the DRAM
    /// controller's queue-full semantics the error is **not sticky**: the
    /// rejected job is dropped, nothing is enqueued, and the backend
    /// accepts new jobs again once its queue drains.
    QueueFull {
        /// Backend that rejected the job.
        backend: String,
        /// Its queue bound.
        capacity: usize,
    },
    /// The selected backend cannot execute this job kind.
    Unsupported {
        /// Backend that was asked.
        backend: String,
        /// Job kind (see [`crate::Job::kind`]).
        job: &'static str,
    },
    /// No registered backend supports this job kind.
    NoBackend {
        /// Job kind (see [`crate::Job::kind`]).
        job: &'static str,
    },
    /// The job is malformed: a bitwise plan that fails
    /// [`pim_workloads::BitwisePlan::validate`], or input vectors that do
    /// not match the plan in count or length. Nothing is enqueued.
    InvalidJob {
        /// Backend that rejected the job.
        backend: String,
        /// Job kind (see [`crate::Job::kind`]).
        job: &'static str,
        /// What is wrong with it.
        reason: String,
    },
    /// A forced placement named a backend that is not registered.
    UnknownBackend {
        /// The name that did not resolve.
        name: String,
    },
    /// An engine failed while executing a job (allocation exhaustion,
    /// malformed plan, device errors). The queued batch it belonged to is
    /// lost; the runtime stays usable.
    Engine {
        /// Backend that failed.
        backend: String,
        /// Engine error rendered as text.
        message: String,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::QueueFull { backend, capacity } => {
                write!(f, "backend `{backend}`: queue full (capacity {capacity})")
            }
            RuntimeError::Unsupported { backend, job } => {
                write!(f, "backend `{backend}` does not support {job} jobs")
            }
            RuntimeError::InvalidJob {
                backend,
                job,
                reason,
            } => {
                write!(
                    f,
                    "backend `{backend}` rejected an invalid {job} job: {reason}"
                )
            }
            RuntimeError::NoBackend { job } => {
                write!(f, "no registered backend supports {job} jobs")
            }
            RuntimeError::UnknownBackend { name } => {
                write!(f, "no backend named `{name}` is registered")
            }
            RuntimeError::Engine { backend, message } => {
                write!(f, "backend `{backend}` failed: {message}")
            }
        }
    }
}

impl Error for RuntimeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_their_context() {
        let e = RuntimeError::QueueFull {
            backend: "ambit".into(),
            capacity: 4,
        };
        assert_eq!(e.to_string(), "backend `ambit`: queue full (capacity 4)");
        assert!(RuntimeError::NoBackend { job: "graph-batch" }
            .to_string()
            .contains("graph-batch"));
    }
}
