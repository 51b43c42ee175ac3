//! Deterministic, zero-cost-when-disabled cycle-domain profiling for
//! the pim workspace.
//!
//! Where `pim-telemetry` answers *how much* (counters, sums,
//! per-job spans), this crate answers *when* and *why*: hierarchical
//! trace timelines (`submit → queue-wait → coalesce/batch → execute →
//! drain`), per-bank/channel/vault occupancy lanes, and percentile
//! latency analytics — the substrate for the paper's central
//! where-does-the-time-go argument.
//!
//! The pieces:
//!
//! * [`ProfileSink`] / [`TraceEvent`] / [`Lane`] — an event buffer
//!   (the DRAM device fills one from its command observer at take
//!   time); [`event::normalize`] canonicalizes, so captures of one run
//!   export byte-identically whatever their capture order.
//! * [`JobRecord`] / [`JobPhases`] — the per-job lifecycle phase
//!   boundaries flat telemetry spans cannot express.
//! * [`Profile`] — the versioned `PIMPROF01` export, which is at the
//!   same time a loadable Chrome Trace Event / Perfetto JSON file
//!   (one process per backend group, one thread per lane).
//! * [`LogHistogram`] / [`analytics::Report`] — HDR-style log-spaced
//!   latency histograms, exact nearest-rank p50/p99/p999, phase
//!   attribution, lane utilization/straggler ranking, batch critical
//!   paths, and advisor calibration.

pub mod analytics;
pub mod event;
mod histogram;
mod profile;
mod record;

pub use event::{Lane, ProfileSink, TraceEvent};
pub use histogram::{percentile_exact, LogHistogram, DEFAULT_SUB_BITS};
pub use profile::{Group, Profile, ProfileFormatError, FORMAT_TAG};
pub use record::{ns_to_ps, JobPhases, JobRecord};

/// A point in simulated time, in the owning group's clock cycles.
pub type Cycle = pim_telemetry::Cycle;
