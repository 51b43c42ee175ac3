//! Lowering an [`ExecutionTrace`] into profiling timeline events.
//!
//! Tesseract's engine has no persistent cycle clock — timing is
//! derived per superstep from the counter trace (see
//! [`crate::timing`]). For the profiling timeline we synthesize a
//! picosecond-granularity clock ([`NS_PER_CYCLE`] = 0.001 ns/cycle):
//! each superstep opens at the barrier the previous one closed on,
//! every vault gets one slice per superstep it worked in, and the
//! barrier advances by the slowest vault's time — reproducing the
//! engine's bulk-synchronous semantics as a waterfall.
//!
//! Like [`crate::telemetry`], this lowers from the finished trace after
//! the run, so the superstep loop needs no instrumentation.

use crate::config::TesseractConfig;
use crate::engine::ExecutionTrace;
use crate::timing::vault_superstep_ns;
use pim_profile::{ns_to_ps, Cycle, Lane, ProfileSink};

/// Nanoseconds per synthesized clock cycle (a picosecond clock).
pub const NS_PER_CYCLE: f64 = 0.001;

/// Records one kernel execution as vault-lane slices starting at
/// clock `base`, attributed to `job` where known. Returns the clock
/// after the final superstep barrier.
pub fn record_execution(
    trace: &ExecutionTrace,
    cfg: &TesseractConfig,
    base: Cycle,
    job: Option<u64>,
    sink: &mut ProfileSink,
) -> Cycle {
    let mut clock = base;
    for ss in &trace.supersteps {
        let mut step_ps = 0;
        for (vault, c) in ss.vaults.iter().enumerate() {
            if c.vertices == 0 && c.msgs_in() == 0 {
                continue;
            }
            let ps = ns_to_ps(vault_superstep_ns(c, trace.kernel, cfg));
            sink.slice(
                Lane::Vault(vault as u32),
                "superstep",
                clock,
                clock + ps,
                job,
            );
            step_ps = step_ps.max(ps);
        }
        clock += step_ps;
    }
    clock
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SuperstepTrace, VaultCounts};
    use crate::timing::trace_ns;
    use pim_workloads::kernels::KernelKind;

    fn sample_trace() -> ExecutionTrace {
        let mut a = SuperstepTrace {
            vaults: vec![VaultCounts::default(); 4],
        };
        a.vaults[0].vertices = 3;
        a.vaults[0].edges_scanned = 9;
        a.vaults[2].vertices = 1;
        let mut b = SuperstepTrace {
            vaults: vec![VaultCounts::default(); 4],
        };
        b.vaults[1].vertices = 5;
        b.vaults[1].seq_bytes = 4096;
        ExecutionTrace {
            kernel: KernelKind::PageRank,
            supersteps: vec![a, b],
        }
    }

    #[test]
    fn slices_cover_active_vaults_and_respect_barriers() {
        let trace = sample_trace();
        let cfg = TesseractConfig::single_cube();
        let mut sink = ProfileSink::new();
        let end = record_execution(&trace, &cfg, 0, Some(7), &mut sink);
        // Three active vault-supersteps → three slices.
        assert_eq!(sink.len(), 3);
        let events = sink.events();
        // Superstep 1 slices start at superstep 0's barrier.
        let barrier = events
            .iter()
            .filter(|e| e.start == 0)
            .map(|e| e.end)
            .max()
            .unwrap();
        let second = events.iter().find(|e| e.start > 0).unwrap();
        assert_eq!(second.start, barrier);
        assert_eq!(second.lane, Lane::Vault(1));
        assert_eq!(second.job, Some(7));
        assert_eq!(end, second.end);
        // The synthesized clock reconciles with the analytic wall time
        // to within one picosecond per superstep (rounding).
        let total_ns = end as f64 * NS_PER_CYCLE;
        assert!((total_ns - trace_ns(&trace, &cfg)).abs() < 0.002);
    }
}
