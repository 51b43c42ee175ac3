//! Vault command-trace generation: lowers one vault's share of an
//! [`ExecutionTrace`] into a real DRAM command stream on the stack's vault
//! device, captured through the `pim-dram` trace sink.
//!
//! The Tesseract engine is a counts-based model — it tallies sequential
//! bytes, random bursts, and messages per vault per superstep, and the
//! timing model prices those analytically. This module closes the loop
//! with the protocol oracle: it schedules the counted traffic as explicit
//! ACT/RD/WR/PRE (plus periodic REF) commands on a `DramSpec::hmc_vault()`
//! device, so `pim-check` can prove that the traffic the analytic model
//! charges for is protocol-legal on the modeled vault.
//!
//! Traffic within a superstep is lowered faithfully in *kind* but sampled
//! in *volume*: each superstep contributes at most `max_rows_per_superstep`
//! row activations per traffic class (sequential stream reads, random
//! bursts, message writes), striped round-robin across the vault's banks
//! and rows. Sampling keeps E5-scale traces tractable while still
//! exercising every constraint class — bank interleaving (tRRD/tFAW), row
//! cycles (tRCD/tRAS/tRP/tRC), column spacing (tCCD), bus turnaround,
//! write recovery (tWR/tWTR), and refresh (tREFI/tRFC).

use crate::config::TesseractConfig;
use crate::engine::ExecutionTrace;
use pim_dram::{
    Command, Cycle, Device, DramSpec, Observer, Projection, Result, RowId, TraceRecord,
};

/// Lowers `vault`'s traffic from `trace` into a captured DRAM command
/// stream on the stack's vault spec. Returns the spec the commands ran
/// against and the raw records (normalize via `pim_check::Trace::capture`).
///
/// # Errors
///
/// Propagates any device error — impossible for a well-formed vault spec,
/// since every command is issued at its device-computed earliest cycle.
///
/// # Panics
///
/// Panics if `max_rows_per_superstep` is 0.
pub fn vault_command_trace(
    trace: &ExecutionTrace,
    cfg: &TesseractConfig,
    vault: usize,
    max_rows_per_superstep: usize,
) -> Result<(DramSpec, Vec<TraceRecord>)> {
    assert!(max_rows_per_superstep > 0, "need a nonzero sampling budget");
    let spec = cfg.stack.vault_spec.clone();
    let mut dev = Device::new(spec.clone());
    dev.observe(Projection::Trace, true);
    let mut sched = VaultScheduler::new(&spec);
    for ss in &trace.supersteps {
        let Some(counts) = ss.vaults.get(vault) else {
            continue;
        };
        let row_bytes = spec.org.row_bytes();
        // Sequential streams: whole-row reads, activations amortized.
        let seq_rows = counts.seq_bytes.div_ceil(row_bytes.max(1));
        sched.stream_reads(&mut dev, cap(seq_rows, max_rows_per_superstep))?;
        // Random bursts: one activation per access (row-miss traffic).
        sched.random_reads(
            &mut dev,
            cap(counts.random_accesses, max_rows_per_superstep),
        )?;
        // Message delivery: applied updates land as writes.
        let msg_rows = (counts.msgs_in() * cfg.msg_bytes).div_ceil(row_bytes.max(1));
        sched.message_writes(&mut dev, cap(msg_rows, max_rows_per_superstep))?;
    }
    let records = dev.observer_mut().map(Observer::take_trace);
    Ok((spec, records.unwrap_or_default()))
}

fn cap(n: u64, max: usize) -> usize {
    n.min(max as u64) as usize
}

/// Round-robin bank/row scheduler with refresh duty for one vault device.
struct VaultScheduler {
    banks: u32,
    rows: u32,
    columns: u32,
    refi: Cycle,
    next_ref_due: Cycle,
    clock: Cycle,
    next_row: u32,
}

impl VaultScheduler {
    fn new(spec: &DramSpec) -> Self {
        VaultScheduler {
            banks: spec.org.banks,
            rows: spec.org.rows,
            columns: spec.org.columns,
            refi: spec.timing.refi,
            next_ref_due: spec.timing.refi,
            clock: 0,
            next_row: 0,
        }
    }

    /// Picks the next (bank, row) pair, striping banks fastest.
    fn next_site(&mut self) -> RowId {
        let n = self.next_row;
        self.next_row = self.next_row.wrapping_add(1);
        RowId::new(0, 0, n % self.banks, (n / self.banks) % self.rows)
    }

    /// Issues `cmd` at its earliest legal cycle and advances the clock.
    fn issue(&mut self, dev: &mut Device, cmd: Command) -> Result<()> {
        let (at, _) = dev.issue_earliest(cmd, self.clock)?;
        self.clock = at;
        Ok(())
    }

    /// Keeps the refresh duty. Called only at burst boundaries, where every
    /// row is (auto-)precharged, so a due REF can always issue.
    fn maybe_refresh(&mut self, dev: &mut Device) -> Result<()> {
        while self.clock >= self.next_ref_due {
            let (at, outcome) = dev.issue_earliest(
                Command::Ref {
                    channel: 0,
                    rank: 0,
                },
                self.clock,
            )?;
            self.clock = at.max(outcome.done);
            self.next_ref_due += self.refi;
        }
        Ok(())
    }

    /// One open row streamed with a run of column reads, then closed.
    fn stream_reads(&mut self, dev: &mut Device, rows: usize) -> Result<()> {
        for _ in 0..rows {
            self.maybe_refresh(dev)?;
            let site = self.next_site();
            self.issue(dev, Command::Act(site))?;
            let burst = self.columns.min(4);
            for c in 0..burst.saturating_sub(1) {
                self.issue(dev, Command::Rd(site.addr(c)))?;
            }
            self.issue(dev, Command::RdA(site.addr(burst.saturating_sub(1))))?;
        }
        Ok(())
    }

    /// Row-miss random bursts: activate, one read, auto-precharge.
    fn random_reads(&mut self, dev: &mut Device, accesses: usize) -> Result<()> {
        for _ in 0..accesses {
            self.maybe_refresh(dev)?;
            let site = self.next_site();
            self.issue(dev, Command::Act(site))?;
            self.issue(dev, Command::RdA(site.addr(0)))?;
        }
        Ok(())
    }

    /// Message application: activate, write, auto-precharge with recovery.
    fn message_writes(&mut self, dev: &mut Device, rows: usize) -> Result<()> {
        for _ in 0..rows {
            self.maybe_refresh(dev)?;
            let site = self.next_site();
            self.issue(dev, Command::Act(site))?;
            self.issue(dev, Command::WrA(site.addr(0)))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_pagerank;
    use crate::partition::VertexPartition;
    use pim_workloads::Graph;
    use rand::SeedableRng;

    #[test]
    fn vault_trace_covers_all_traffic_classes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let g = Graph::rmat(10, 8, &mut rng);
        let (_, trace) = run_pagerank(&g, &VertexPartition::hashed(32), 2);
        let cfg = TesseractConfig::single_cube();
        let (spec, records) = vault_command_trace(&trace, &cfg, 0, 16).expect("legal schedule");
        assert!(!records.is_empty());
        let kinds: std::collections::HashSet<_> = records.iter().map(|r| r.cmd.kind()).collect();
        use pim_dram::CommandKind as K;
        for k in [K::Act, K::Rd, K::RdA, K::WrA] {
            assert!(kinds.contains(&k), "missing {k:?} in vault trace");
        }
        assert_eq!(spec.org.channels, 1);
    }

    #[test]
    fn long_vault_traces_carry_refresh() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let g = Graph::rmat(13, 8, &mut rng);
        let (_, trace) = run_pagerank(&g, &VertexPartition::hashed(32), 16);
        let cfg = TesseractConfig::single_cube();
        let (spec, records) = vault_command_trace(&trace, &cfg, 0, 1024).expect("legal schedule");
        let span = records.iter().map(|r| r.at).max().unwrap_or(0);
        let refs = records
            .iter()
            .filter(|r| r.cmd.kind() == pim_dram::CommandKind::Ref)
            .count() as u64;
        assert!(
            span > spec.timing.refi,
            "trace must span at least one refresh window (span {span})"
        );
        let windows = span / spec.timing.refi;
        assert!(
            refs >= windows.saturating_sub(1) && refs <= windows + 1,
            "one REF per elapsed tREFI window: {refs} refs over {windows} windows"
        );
    }

    #[test]
    fn an_empty_trace_produces_no_commands() {
        let g = Graph::from_edges(0, &[]);
        let (_, trace) = run_pagerank(&g, &VertexPartition::hashed(32), 0);
        let cfg = TesseractConfig::single_cube();
        let (_, records) = vault_command_trace(&trace, &cfg, 0, 16).expect("empty is legal");
        assert!(records.is_empty());
    }
}
