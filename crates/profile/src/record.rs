//! Per-job profiling records: the hierarchical lifecycle phases that
//! `pim-telemetry`'s flat [`JobSpan`](pim_telemetry::JobSpan) cannot
//! express.

use crate::Cycle;

/// The cycle-domain phase boundaries of one job on its backend's
/// clock: `submit → batch → execute → drain`.
///
/// Invariant (checked by [`crate::Profile::from_value`] as it decodes):
/// `submit <= batch_start <= exec_start <= exec_end <= drain_end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobPhases {
    /// Backend clock when the job entered the queue.
    pub submit: Cycle,
    /// Clock when the drain pass picked the job up for
    /// coalescing/staging (queue wait ends here).
    pub batch_start: Cycle,
    /// Clock when the execute window opened (staging — operand
    /// placement, batch assembly — ends here).
    pub exec_start: Cycle,
    /// Clock when the job's last command retired.
    pub exec_end: Cycle,
    /// Clock when results were read back and the batch closed.
    pub drain_end: Cycle,
}

impl JobPhases {
    /// Cycles spent waiting in the submission queue.
    pub fn queue_wait(&self) -> Cycle {
        self.batch_start.saturating_sub(self.submit)
    }

    /// Cycles spent staging (operand writes, batch assembly).
    pub fn stage(&self) -> Cycle {
        self.exec_start.saturating_sub(self.batch_start)
    }

    /// Cycles spent executing on the engine.
    pub fn execute(&self) -> Cycle {
        self.exec_end.saturating_sub(self.exec_start)
    }

    /// Cycles spent draining results back out.
    pub fn drain(&self) -> Cycle {
        self.drain_end.saturating_sub(self.exec_end)
    }

    /// Total submit-to-drain cycles.
    pub fn total(&self) -> Cycle {
        self.drain_end.saturating_sub(self.submit)
    }
}

/// One job's profiling record: the telemetry span fields plus the
/// phase breakdown, exported in the PIMPROF01 `jobs` array.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Runtime job id (submission order).
    pub id: u64,
    /// Job kind label (`bitwise`, `row-copy`, `graph-batch`, …).
    pub kind: String,
    /// Backend the job ran on (names the owning group).
    pub backend: String,
    /// Queue depth right after this job was enqueued.
    pub queue_depth: u32,
    /// The advisor's offload verdict (None for forced placement).
    pub advised: Option<bool>,
    /// Predicted nanoseconds at submit time.
    pub est_ns: f64,
    /// Predicted total energy (nJ) at submit time.
    pub est_nj: f64,
    /// Measured nanoseconds.
    pub actual_ns: f64,
    /// Measured total energy (nJ).
    pub actual_nj: f64,
    /// DRAM commands attributed to this job.
    pub commands: u64,
    /// Number of jobs coalesced into this job's batch (1 for solo).
    pub group: u32,
    /// Phase boundaries on the backend clock, where the backend has a
    /// cycle domain (roofline backends leave this out).
    pub phases: Option<JobPhases>,
}

impl JobRecord {
    /// Measured latency in whole picoseconds.
    ///
    /// Latency analytics run on integer picoseconds so percentile
    /// extraction, histogram bucketing, and shard merging are exact
    /// integer arithmetic — deterministic at any thread count.
    pub fn latency_ps(&self) -> u64 {
        ns_to_ps(self.actual_ns)
    }

    /// Signed time prediction error in nanoseconds.
    pub fn time_error_ns(&self) -> f64 {
        self.actual_ns - self.est_ns
    }
}

/// Converts non-negative nanoseconds to whole picoseconds
/// (round-to-nearest, saturating).
pub fn ns_to_ps(ns: f64) -> u64 {
    if !ns.is_finite() || ns <= 0.0 {
        return 0;
    }
    let ps = (ns * 1000.0).round();
    if ps >= u64::MAX as f64 {
        u64::MAX
    } else {
        ps as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_partition_the_total() {
        let p = JobPhases {
            submit: 10,
            batch_start: 25,
            exec_start: 30,
            exec_end: 90,
            drain_end: 100,
        };
        assert_eq!(p.queue_wait(), 15);
        assert_eq!(p.stage(), 5);
        assert_eq!(p.execute(), 60);
        assert_eq!(p.drain(), 10);
        assert_eq!(
            p.queue_wait() + p.stage() + p.execute() + p.drain(),
            p.total()
        );
    }

    #[test]
    fn ns_to_ps_rounds_and_saturates() {
        assert_eq!(ns_to_ps(0.0), 0);
        assert_eq!(ns_to_ps(-1.0), 0);
        assert_eq!(ns_to_ps(1.0), 1000);
        assert_eq!(ns_to_ps(1.2344), 1234);
        assert_eq!(ns_to_ps(1.2346), 1235);
        assert_eq!(ns_to_ps(f64::INFINITY), 0);
        assert_eq!(ns_to_ps(1e30), u64::MAX);
    }
}
