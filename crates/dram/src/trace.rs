//! Command observation: one event log at the device's single mutation
//! point, with the three export formats as projections of it.
//!
//! The [`Device`](crate::Device) owns an optional [`Observer`] — `None`
//! by default, costing one branch per command — which logs every applied
//! command with its issue and completion cycles. Each [`Projection`] is
//! derived from that log when it is taken: [`Observer::take_trace`] (the
//! PIMTRC01 records `pim-check` validates and replays),
//! [`Observer::take_telemetry`] (`dram.cmd.<kind>` counters plus the
//! series recorders write into [`Observer::telemetry`]) and
//! [`Observer::take_profile`] (PIMPROF01 occupancy slices). Each enabled
//! projection reads from its own position, so takes are independent; the
//! prefix all of them have read is dropped.
//!
//! ## Capture order
//!
//! The log is in the order commands were applied, which is not cycle
//! order: the Ambit engine replays a row program instruction by
//! instruction across chunks, each chunk's chain in its own bank. So
//! consumers [`normalize`] traces (and `pim_profile::event::normalize`
//! timelines) before comparing them: a stable sort on
//! `(cycle, channel, rank, bank)`. Within one bank records are already in
//! issue order (bank occupancy serializes them), so the result depends
//! only on the commands and their cycles. Telemetry counters add, so they
//! need no normalization.

use crate::command::{Command, CommandKind};
use crate::spec::Organization;
use crate::types::Cycle;
use pim_profile::{Lane, ProfileSink};
use pim_telemetry::TelemetrySink;
use std::collections::BTreeMap;

/// One issued command, as observed at the device's mutation point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// The cycle the command issued at.
    pub at: Cycle,
    /// The command exactly as issued.
    pub cmd: Command,
}

impl TraceRecord {
    /// Canonical ordering key: issue cycle, then physical position.
    ///
    /// Rank-scoped commands (`PreAll`, `Ref`) sort after any bank-scoped
    /// command at the same cycle on the same rank.
    pub fn sort_key(&self) -> (Cycle, u32, u32, u32) {
        let (channel, rank) = self.cmd.rank();
        let bank = self.cmd.bank().map_or(u32::MAX, |b| b.bank);
        (self.at, channel, rank, bank)
    }
}

/// Canonicalizes a trace: stable sort by [`TraceRecord::sort_key`].
///
/// Per-bank subsequences keep their issue order (stable sort; two commands
/// can never share a bank *and* a cycle because every command occupies its
/// bank for at least one cycle), so any capture order that keeps each
/// bank's commands in issue order normalizes to the same trace.
pub fn normalize(records: &mut [TraceRecord]) {
    records.sort_by_key(TraceRecord::sort_key);
}

/// One applied command: what it was, when it issued, when it completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CommandEvent {
    at: Cycle,
    cmd: Command,
    /// See [`IssueOutcome::done`](crate::IssueOutcome::done).
    done: Cycle,
}

/// One export format derived from the observed command stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Projection {
    /// PIMTRC01 command records ([`Observer::take_trace`]).
    Trace,
    /// Per-bank command counters plus the recorders' own series
    /// ([`Observer::take_telemetry`]).
    Telemetry,
    /// Bank/rank/channel occupancy slices ([`Observer::take_profile`]).
    Profile,
}

/// The command-event log a recording device owns, with one read position
/// per enabled [`Projection`].
#[derive(Debug, Clone)]
pub struct Observer {
    org: Organization,
    events: Vec<CommandEvent>,
    /// Read position into `events` per projection; `None` while it is off.
    read: [Option<usize>; 3],
    /// Series that are not a function of the command stream.
    telemetry: TelemetrySink,
}

impl Observer {
    /// An observer with every projection off, for a device of `org`.
    pub(crate) fn new(org: Organization) -> Self {
        Observer {
            org,
            events: Vec::new(),
            read: [None; 3],
            telemetry: TelemetrySink::new(),
        }
    }

    /// Switches `projection` on or off. Switching on starts it fresh: it
    /// sees only commands applied from now on (and, for telemetry, an
    /// empty registry).
    pub(crate) fn set(&mut self, projection: Projection, enabled: bool) {
        self.read[projection as usize] = enabled.then_some(self.events.len());
        if projection == Projection::Telemetry {
            self.telemetry = TelemetrySink::new();
        }
        self.compact();
    }

    /// `true` if `projection` is on.
    pub fn enabled(&self, projection: Projection) -> bool {
        self.read[projection as usize].is_some()
    }

    /// `true` if every projection is off.
    pub(crate) fn is_idle(&self) -> bool {
        self.read.iter().all(Option::is_none)
    }

    /// Appends one applied command.
    #[inline]
    pub(crate) fn record(&mut self, at: Cycle, cmd: Command, done: Cycle) {
        self.events.push(CommandEvent { at, cmd, done });
    }

    /// The registry co-located recorders (controller scheduling, Ambit
    /// engine and coalescing metrics) write into; `None` while telemetry
    /// is off.
    pub fn telemetry(&mut self) -> Option<&mut TelemetrySink> {
        if self.enabled(Projection::Telemetry) {
            Some(&mut self.telemetry)
        } else {
            None
        }
    }

    /// Takes the trace projection: one record per command applied since
    /// the last trace take, in capture order. Empty while tracing is off.
    pub fn take_trace(&mut self) -> Vec<TraceRecord> {
        self.take(Projection::Trace, |events| {
            events
                .iter()
                .map(|e| TraceRecord {
                    at: e.at,
                    cmd: e.cmd,
                })
                .collect()
        })
        .unwrap_or_default()
    }

    /// Takes the telemetry projection: the recorders' series plus one
    /// `dram.cmd.<kind>` count per command applied since the last
    /// telemetry take — per flat bank for bank-scoped commands, per flat
    /// rank for rank-scoped REF/PREA (distinct series names, so the index
    /// spaces never mix). `None` while telemetry is off.
    pub fn take_telemetry(&mut self) -> Option<TelemetrySink> {
        let org = self.org;
        let counts = self.take(Projection::Telemetry, |events| {
            let mut counts: BTreeMap<(CommandKind, u32), u64> = BTreeMap::new();
            for e in events {
                let index = match e.cmd.bank() {
                    Some(b) => org.flat_bank_index(b),
                    None => org.flat_rank_index(e.cmd.rank()),
                };
                *counts.entry((e.cmd.kind(), index)).or_default() += 1;
            }
            counts
        })?;
        let mut sink = std::mem::take(&mut self.telemetry);
        for ((kind, index), n) in counts {
            sink.count(kind.telemetry_series(), index, n);
        }
        Some(sink)
    }

    /// Takes the profile projection: one occupancy slice per command
    /// applied since the last profile take, spanning issue to completion.
    /// Column transfers occupy their channel's data-bus lane (the paper's
    /// bus-vs-in-DRAM split), rank-scoped REF/PREA the flat rank lane, and
    /// everything else — activations and the in-DRAM compute commands —
    /// its flat bank lane. `None` while profiling is off.
    pub fn take_profile(&mut self) -> Option<ProfileSink> {
        let org = self.org;
        self.take(Projection::Profile, |events| {
            let mut sink = ProfileSink::new();
            for e in events {
                let kind = e.cmd.kind();
                let lane = match e.cmd.bank() {
                    _ if kind.uses_bus() => Lane::Channel(e.cmd.channel()),
                    Some(b) => Lane::Bank(org.flat_bank_index(b)),
                    None => Lane::Rank(org.flat_rank_index(e.cmd.rank())),
                };
                sink.slice(lane, kind.mnemonic(), e.at, e.done, None);
            }
            sink
        })
    }

    /// Projects the events `projection` has not read yet, advances its
    /// read position, and drops the prefix every projection has read.
    fn take<T>(
        &mut self,
        projection: Projection,
        project: impl FnOnce(&[CommandEvent]) -> T,
    ) -> Option<T> {
        let from = self.read[projection as usize]?;
        let out = project(&self.events[from..]);
        self.read[projection as usize] = Some(self.events.len());
        self.compact();
        Some(out)
    }

    fn compact(&mut self) {
        let read = self.read.iter().flatten().copied().min();
        let drop = read.unwrap_or(self.events.len());
        if drop > 0 {
            self.events.drain(..drop);
            for r in self.read.iter_mut().flatten() {
                *r -= drop;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DramSpec;
    use crate::types::{BankId, RowId};

    fn rec(at: Cycle, bank: u32) -> TraceRecord {
        TraceRecord {
            at,
            cmd: Command::Ap(RowId::new(0, 0, bank, 1)),
        }
    }

    #[test]
    fn normalize_orders_by_cycle_then_bank() {
        let mut t = vec![rec(50, 1), rec(10, 1), rec(10, 0), rec(50, 0)];
        normalize(&mut t);
        let key: Vec<(Cycle, u32)> = t
            .iter()
            .map(|r| (r.at, r.cmd.bank().unwrap().bank))
            .collect();
        assert_eq!(key, vec![(10, 0), (10, 1), (50, 0), (50, 1)]);
    }

    #[test]
    fn rank_scoped_commands_sort_last_within_a_cycle() {
        let mut t = vec![
            TraceRecord {
                at: 7,
                cmd: Command::Ref {
                    channel: 0,
                    rank: 0,
                },
            },
            rec(7, 3),
        ];
        normalize(&mut t);
        assert_eq!(t[0].cmd.bank(), Some(BankId::new(0, 0, 3)));
        assert_eq!(t[1].cmd.kind(), crate::CommandKind::Ref);
    }

    /// An observer with `projections` on and AP commands to feed it.
    fn observer(projections: &[Projection]) -> (Observer, Vec<Command>) {
        let mut obs = Observer::new(DramSpec::ddr3_1600().org);
        for &p in projections {
            obs.set(p, true);
        }
        let aps = (0..5)
            .map(|b| Command::Ap(RowId::new(0, 0, b, 9)))
            .collect();
        (obs, aps)
    }

    #[test]
    fn takes_are_independent_and_switching_starts_fresh() {
        let (mut obs, aps) = observer(&[Projection::Trace, Projection::Telemetry]);
        obs.telemetry()
            .expect("on")
            .count("dram.ctrl.row_hit", 0, 1);
        for &cmd in &aps[..2] {
            obs.record(0, cmd, 40);
        }
        assert_eq!(obs.take_trace().len(), 2);
        assert_eq!(obs.events.len(), 2, "telemetry has not read them yet");
        assert!(obs.take_profile().is_none(), "profiling is off");

        obs.set(Projection::Profile, true);
        for &cmd in &aps[2..] {
            obs.record(0, cmd, 40);
        }
        assert_eq!(
            obs.take_profile().expect("on").len(),
            3,
            "fresh from the switch"
        );
        let tel = obs.take_telemetry().expect("on");
        assert_eq!(tel.counter("dram.ctrl.row_hit", 0), 1);
        assert_eq!(tel.counter_total("dram.cmd.ap"), 5);
        assert_eq!(obs.events.len(), 3, "only trace still has to read these");
        assert_eq!(obs.take_trace().len(), 3);
        assert!(obs.events.is_empty(), "every projection has read the log");

        obs.telemetry()
            .expect("on")
            .count("dram.ctrl.row_hit", 0, 1);
        obs.set(Projection::Telemetry, true);
        assert!(
            obs.take_telemetry().expect("on").is_empty(),
            "a fresh registry"
        );
        for p in [
            Projection::Trace,
            Projection::Telemetry,
            Projection::Profile,
        ] {
            obs.set(p, false);
        }
        assert!(obs.is_idle() && obs.telemetry().is_none());
    }
}
