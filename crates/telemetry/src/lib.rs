//! Deterministic, zero-cost-when-disabled telemetry for the pim
//! workspace.
//!
//! Everything in this crate is keyed on **simulated cycles**, never
//! wall-clock time, so identical runs produce byte-identical telemetry
//! at any thread count — the same discipline the rest of the workspace
//! applies to outputs and command traces.
//!
//! The three pieces:
//!
//! * [`TelemetrySink`] — a metrics registry (monotonic counters, f64
//!   sums, gauges with high-water marks, fixed-bound histograms) plus a
//!   stream of job [`JobSpan`]s. Components hold an
//!   `Option<TelemetrySink>`; disabled telemetry is a single branch on
//!   `None` per event. Sinks recombine via [`TelemetrySink::merge`];
//!   every merge operation is commutative and associative (counters
//!   add, gauges max, histogram buckets add), so sinks merge to the
//!   same registry in any order.
//! * [`JobSpan`] / [`ExecSpan`] — the cycle-domain lifecycle of one
//!   runtime job (`submit → queue → coalesce → execute → complete`),
//!   including the placement decision and the advisor's
//!   cost estimate next to the measured cost, so prediction error is a
//!   first-class quantity.
//! * [`Snapshot`] — a self-describing, versioned (`PIMTEL01`) export:
//!   JSON for machines, a table for humans. Registry iteration order is
//!   the sorted metric key, so the JSON is deterministic byte-for-byte.

pub mod json;
mod metrics;
mod snapshot;
mod span;

pub use metrics::{Metric, MetricKey, TelemetrySink, POW2_BOUNDS};
pub use snapshot::{Snapshot, SnapshotFormatError, FORMAT_TAG};
pub use span::{ExecSpan, JobSpan};

/// A point in simulated time, in DRAM-clock cycles.
pub type Cycle = u64;
