//! Lowering an [`ExecutionTrace`] into telemetry series.
//!
//! Tesseract's engine already produces a deterministic per-superstep,
//! per-vault counter trace; this module folds that trace into a
//! [`TelemetrySink`] registry after the run, so the superstep loop
//! needs no instrumentation of its own.

use crate::engine::ExecutionTrace;
use pim_telemetry::{TelemetrySink, POW2_BOUNDS};

/// Records one kernel execution into `sink`:
///
/// * `tesseract.supersteps` — supersteps run (counter).
/// * `tesseract.active_vaults` — histogram over supersteps of how many
///   vaults did any work that step (the utilization profile).
/// * `tesseract.vault.active_supersteps[v]` — supersteps in which vault
///   `v` processed a vertex or received a message.
/// * `tesseract.vault.{vertices,edges,msgs_in_local,msgs_in_remote,`
///   `msgs_out_remote,seq_bytes,random_accesses}[v]` — per-vault
///   message/traffic volumes summed over the run.
pub fn record_execution(trace: &ExecutionTrace, sink: &mut TelemetrySink) {
    sink.count("tesseract.runs", 0, 1);
    sink.count("tesseract.supersteps", 0, trace.supersteps.len() as u64);
    for ss in &trace.supersteps {
        let mut active = 0u64;
        for (vault, v) in ss.vaults.iter().enumerate() {
            let idx = vault as u32;
            let worked = v.vertices > 0 || v.msgs_in() > 0;
            if worked {
                active += 1;
                sink.count("tesseract.vault.active_supersteps", idx, 1);
            }
            if v.vertices > 0 {
                sink.count("tesseract.vault.vertices", idx, v.vertices);
            }
            if v.edges_scanned > 0 {
                sink.count("tesseract.vault.edges", idx, v.edges_scanned);
            }
            if v.msgs_in_local > 0 {
                sink.count("tesseract.vault.msgs_in_local", idx, v.msgs_in_local);
            }
            if v.msgs_in_remote > 0 {
                sink.count("tesseract.vault.msgs_in_remote", idx, v.msgs_in_remote);
            }
            if v.msgs_out_remote > 0 {
                sink.count("tesseract.vault.msgs_out_remote", idx, v.msgs_out_remote);
            }
            if v.seq_bytes > 0 {
                sink.count("tesseract.vault.seq_bytes", idx, v.seq_bytes);
            }
            if v.random_accesses > 0 {
                sink.count("tesseract.vault.random_accesses", idx, v.random_accesses);
            }
        }
        sink.observe("tesseract.active_vaults", 0, POW2_BOUNDS, active);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SuperstepTrace, VaultCounts};
    use pim_workloads::kernels::KernelKind;

    #[test]
    fn lowering_matches_trace_totals() {
        let mut ss = SuperstepTrace {
            vaults: vec![VaultCounts::default(); 4],
        };
        ss.vaults[0].vertices = 3;
        ss.vaults[0].edges_scanned = 9;
        ss.vaults[0].msgs_out_remote = 2;
        ss.vaults[2].msgs_in_remote = 2;
        ss.vaults[2].random_accesses = 2;
        let trace = ExecutionTrace {
            kernel: KernelKind::PageRank,
            supersteps: vec![ss],
        };
        let mut sink = TelemetrySink::new();
        record_execution(&trace, &mut sink);
        assert_eq!(sink.counter("tesseract.supersteps", 0), 1);
        assert_eq!(sink.counter("tesseract.vault.vertices", 0), 3);
        assert_eq!(sink.counter("tesseract.vault.edges", 0), 9);
        assert_eq!(sink.counter("tesseract.vault.msgs_in_remote", 2), 2);
        assert_eq!(
            sink.counter_total("tesseract.vault.msgs_out_remote"),
            trace.totals().msgs_out_remote
        );
        // Vaults 0 and 2 were active in the single superstep.
        assert_eq!(sink.counter("tesseract.vault.active_supersteps", 0), 1);
        assert_eq!(sink.counter("tesseract.vault.active_supersteps", 1), 0);
        assert_eq!(sink.counter("tesseract.vault.active_supersteps", 2), 1);
    }
}
