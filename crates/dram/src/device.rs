//! The DRAM device: command-level timing enforcement plus functional
//! execution of data-movement and in-DRAM-computation commands.
//!
//! [`Device`] is *passive*: callers (the [`Controller`](crate::controller::Controller),
//! or the Ambit engine in `pim-ambit`) decide which command to issue and at
//! what cycle; the device validates legality against JEDEC-style timing
//! constraints and applies the state transition. This mirrors the
//! Ramulator split between scheduler and device model.

use crate::bank::{Bank, BankState};
use crate::command::{Command, CommandCounts, CommandKind};
use crate::data::DataStore;
use crate::error::{DramError, Result};
use crate::spec::DramSpec;
use crate::trace::{Observer, Projection};
use crate::types::{BankId, Cycle, DramAddr, RowId};
use std::collections::VecDeque;

/// Rank-level timing state: tRRD spacing and the tFAW rolling window.
#[derive(Debug, Clone, Default)]
struct RankTiming {
    banks: Vec<Bank>,
    next_act: Cycle,
    /// Issue times of recent activations (for the four-activate window).
    act_window: VecDeque<Cycle>,
}

impl RankTiming {
    fn new(banks: u32) -> Self {
        RankTiming {
            banks: vec![Bank::new(); banks as usize],
            next_act: 0,
            act_window: VecDeque::with_capacity(4),
        }
    }

    /// Earliest cycle a new activation may issue under tRRD + tFAW.
    fn act_earliest(&self, faw: Cycle) -> Cycle {
        let faw_limit = if self.act_window.len() >= 4 {
            self.act_window[self.act_window.len() - 4] + faw
        } else {
            0
        };
        self.next_act.max(faw_limit)
    }

    fn record_act(&mut self, t: Cycle, rrd: Cycle) {
        self.next_act = self.next_act.max(t + rrd);
        self.act_window.push_back(t);
        while self.act_window.len() > 4 {
            self.act_window.pop_front();
        }
    }
}

/// Channel-level timing state: data-bus and read/write turnaround.
#[derive(Debug, Clone, Default)]
struct ChannelTiming {
    ranks: Vec<RankTiming>,
    next_rd: Cycle,
    next_wr: Cycle,
}

/// Outcome of successfully issuing a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueOutcome {
    /// Cycle at which the command's effect completes: data fully
    /// transferred for RD/WR, bank usable again for row ops, etc.
    pub done: Cycle,
    /// `true` if a column command hit an already-open matching row.
    pub row_hit: bool,
}

/// A DRAM device with full command-level timing and functional data.
///
/// # Examples
///
/// ```
/// use pim_dram::{Device, DramSpec, Command, RowId};
/// # fn main() -> Result<(), pim_dram::DramError> {
/// let mut dev = Device::new(DramSpec::ddr3_1600());
/// let row = RowId::new(0, 0, 0, 100);
/// let (t, _) = dev.issue_earliest(Command::Act(row), 0)?;
/// let (t2, out) = dev.issue_earliest(Command::Rd(row.addr(0)), t)?;
/// assert!(out.done > t2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Device {
    spec: DramSpec,
    channels: Vec<ChannelTiming>,
    store: DataStore,
    counts: CommandCounts,
    /// Optional command observation: one event log whose projections are
    /// the trace, the per-bank telemetry counters and the occupancy
    /// timeline. `None` (the default) keeps the issue path free of any
    /// recording cost beyond one branch.
    observer: Option<Observer>,
    /// `true` (the default) lets callers use the [`Device::issue_run`]
    /// batched path; turning it off forces per-command issue everywhere —
    /// the equivalence tests' lever.
    batch_runs: bool,
    /// Commands issued through [`Device::issue_run`] since construction or
    /// the last [`Device::reset_batched_commands`]: the running total of
    /// fast-path commands, which proves the fast path actually engaged.
    batched_commands: u64,
}

impl Device {
    /// Creates a device in the all-precharged state with zero-filled rows.
    pub fn new(spec: DramSpec) -> Self {
        let channels = (0..spec.org.channels)
            .map(|_| ChannelTiming {
                ranks: (0..spec.org.ranks)
                    .map(|_| RankTiming::new(spec.org.banks))
                    .collect(),
                next_rd: 0,
                next_wr: 0,
            })
            .collect();
        let store = DataStore::new(spec.org.row_bytes());
        let mut dev = Device {
            spec,
            channels,
            store,
            counts: CommandCounts::new(),
            observer: None,
            batch_runs: true,
            batched_commands: 0,
        };
        if dev.spec.pim.salp {
            let subarrays = dev.spec.org.subarrays;
            for ch in &mut dev.channels {
                for ra in &mut ch.ranks {
                    for b in &mut ra.banks {
                        b.init_salp(subarrays);
                    }
                }
            }
        }
        dev
    }

    /// The device specification.
    pub fn spec(&self) -> &DramSpec {
        &self.spec
    }

    /// Functional row contents (shared view).
    pub fn store(&self) -> &DataStore {
        &self.store
    }

    /// Functional row contents (mutable view, e.g. for preloading data).
    pub fn store_mut(&mut self) -> &mut DataStore {
        &mut self.store
    }

    /// Per-kind command issue counts since construction.
    pub fn counts(&self) -> &CommandCounts {
        &self.counts
    }

    /// Switches one projection of command observation on or off (see
    /// [`Observer`]).
    ///
    /// Switching a projection on starts it fresh. The observer exists
    /// while any projection is on and is dropped, with its event log, when
    /// the last one goes off; while none is on the only cost on the issue
    /// path is one branch on a `None` option.
    pub fn observe(&mut self, projection: Projection, enabled: bool) {
        let org = self.spec.org;
        let observer = self.observer.get_or_insert_with(|| Observer::new(org));
        observer.set(projection, enabled);
        if observer.is_idle() {
            self.observer = None;
        }
    }

    /// The live observer, `None` while every projection is off: callers
    /// take projections from it, and co-located recorders (the
    /// controller, the Ambit engine) reach its telemetry registry.
    pub fn observer_mut(&mut self) -> Option<&mut Observer> {
        self.observer.as_mut()
    }

    /// Enables or disables the batched-run issue path ([`Device::issue_run`]).
    /// On by default; callers that must compare batched and per-command
    /// execution byte-for-byte turn it off.
    pub fn set_batch_runs(&mut self, enabled: bool) {
        self.batch_runs = enabled;
    }

    /// `true` if the batched-run issue path is enabled.
    pub fn batch_runs_enabled(&self) -> bool {
        self.batch_runs
    }

    /// Commands issued through the batched-run fast path since
    /// construction or the last [`Device::reset_batched_commands`].
    pub fn batched_commands(&self) -> u64 {
        self.batched_commands
    }

    /// Resets the [`Device::batched_commands`] diagnostic counter to zero.
    ///
    /// Call this at the start of each measurement window. The counter is
    /// purely diagnostic: resetting it does not affect execution, traces,
    /// or telemetry.
    pub fn reset_batched_commands(&mut self) {
        self.batched_commands = 0;
    }

    /// Current state of `bank`.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range for the organization.
    pub fn bank_state(&self, bank: BankId) -> BankState {
        self.bank(bank).state
    }

    /// The subarray index containing `row`.
    pub fn subarray_of(&self, row: u32) -> u32 {
        row / self.spec.org.rows_per_subarray()
    }

    fn bank(&self, id: BankId) -> &Bank {
        &self.channels[id.channel as usize].ranks[id.rank as usize].banks[id.bank as usize]
    }

    fn bank_mut(&mut self, id: BankId) -> &mut Bank {
        &mut self.channels[id.channel as usize].ranks[id.rank as usize].banks[id.bank as usize]
    }

    fn check_bank_id(&self, b: BankId) -> Result<()> {
        let o = &self.spec.org;
        let addr = DramAddr::new(b.channel, b.rank, b.bank, 0, 0);
        if b.channel >= o.channels {
            return Err(DramError::AddressOutOfRange {
                addr,
                field: "channel",
            });
        }
        if b.rank >= o.ranks {
            return Err(DramError::AddressOutOfRange {
                addr,
                field: "rank",
            });
        }
        if b.bank >= o.banks {
            return Err(DramError::AddressOutOfRange {
                addr,
                field: "bank",
            });
        }
        Ok(())
    }

    fn check_row(&self, r: RowId) -> Result<()> {
        self.check_bank_id(r.bank_id())?;
        if r.row >= self.spec.org.rows {
            return Err(DramError::AddressOutOfRange {
                addr: r.addr(0),
                field: "row",
            });
        }
        Ok(())
    }

    fn check_addr(&self, a: DramAddr) -> Result<()> {
        self.check_row(a.row_id())?;
        if a.column >= self.spec.org.columns {
            return Err(DramError::AddressOutOfRange {
                addr: a,
                field: "column",
            });
        }
        Ok(())
    }

    fn check_same_subarray(&self, a: RowId, b: RowId) -> Result<()> {
        if a.bank_id() != b.bank_id() || self.subarray_of(a.row) != self.subarray_of(b.row) {
            return Err(DramError::SubarrayMismatch { a, b });
        }
        Ok(())
    }

    /// Earliest cycle at which `cmd` may legally issue, validating address
    /// bounds and bank-state preconditions.
    ///
    /// # Errors
    ///
    /// * [`DramError::AddressOutOfRange`] for malformed addresses.
    /// * [`DramError::WrongBankState`] if the bank is not in the state the
    ///   command requires (e.g. RD with no open row).
    /// * [`DramError::RowMismatch`] if a column command targets a row other
    ///   than the open one.
    /// * [`DramError::SubarrayMismatch`] for AAP/TRA across subarrays.
    /// * [`DramError::RefreshWhileActive`] if REF finds an open bank.
    pub fn earliest(&self, cmd: &Command) -> Result<Cycle> {
        match *cmd {
            Command::Act(row) => {
                self.check_row(row)?;
                let bank = self.bank(row.bank_id());
                if !bank.state.is_precharged() {
                    return Err(DramError::WrongBankState {
                        kind: CommandKind::Act,
                        bank: row.bank_id(),
                        need: "a precharged bank",
                    });
                }
                let mut at = self.act_earliest(row.bank_id());
                if self.spec.pim.salp {
                    at = at.max(bank.salp_earliest(self.subarray_of(row.row)));
                }
                Ok(at)
            }
            Command::Pre(bank_id) => {
                self.check_bank_id(bank_id)?;
                let bank = self.bank(bank_id);
                if bank.state.is_precharged() {
                    return Err(DramError::WrongBankState {
                        kind: CommandKind::Pre,
                        bank: bank_id,
                        need: "an open row",
                    });
                }
                Ok(bank.next_pre)
            }
            Command::PreAll { channel, rank } => {
                self.check_bank_id(BankId::new(channel, rank, 0))?;
                let r = &self.channels[channel as usize].ranks[rank as usize];
                Ok(r.banks
                    .iter()
                    .filter(|b| !b.state.is_precharged())
                    .map(|b| b.next_pre)
                    .max()
                    .unwrap_or(0))
            }
            Command::Rd(addr) | Command::RdA(addr) => {
                self.check_addr(addr)?;
                let bank = self.bank(addr.bank_id());
                self.check_open_row(addr, bank, cmd.kind())?;
                Ok(bank
                    .next_rd
                    .max(self.channels[addr.channel as usize].next_rd))
            }
            Command::Wr(addr) | Command::WrA(addr) => {
                self.check_addr(addr)?;
                let bank = self.bank(addr.bank_id());
                self.check_open_row(addr, bank, cmd.kind())?;
                Ok(bank
                    .next_wr
                    .max(self.channels[addr.channel as usize].next_wr))
            }
            Command::Ref { channel, rank } => {
                self.check_bank_id(BankId::new(channel, rank, 0))?;
                let r = &self.channels[channel as usize].ranks[rank as usize];
                if r.banks.iter().any(|b| !b.state.is_precharged()) {
                    return Err(DramError::RefreshWhileActive { channel, rank });
                }
                Ok(r.banks.iter().map(|b| b.next_act).max().unwrap_or(0))
            }
            Command::Aap { src, dst, .. } => {
                self.check_row(src)?;
                self.check_row(dst)?;
                self.check_same_subarray(src, dst)?;
                self.require_precharged(src.bank_id(), CommandKind::Aap)?;
                Ok(self.pim_act_earliest(src.bank_id(), src.row))
            }
            Command::Ap(row) => {
                self.check_row(row)?;
                self.require_precharged(row.bank_id(), CommandKind::Ap)?;
                Ok(self.pim_act_earliest(row.bank_id(), row.row))
            }
            Command::Tra { bank, rows } => {
                self.check_bank_id(bank)?;
                for &r in &rows {
                    self.check_row(bank.row(r))?;
                }
                self.check_same_subarray(bank.row(rows[0]), bank.row(rows[1]))?;
                self.check_same_subarray(bank.row(rows[0]), bank.row(rows[2]))?;
                self.require_precharged(bank, CommandKind::Tra)?;
                Ok(self.pim_act_earliest(bank, rows[0]))
            }
            Command::TraAap {
                bank, rows, dst, ..
            } => {
                self.check_bank_id(bank)?;
                for &r in &rows {
                    self.check_row(bank.row(r))?;
                }
                self.check_row(bank.row(dst))?;
                self.check_same_subarray(bank.row(rows[0]), bank.row(rows[1]))?;
                self.check_same_subarray(bank.row(rows[0]), bank.row(rows[2]))?;
                self.check_same_subarray(bank.row(rows[0]), bank.row(dst))?;
                self.require_precharged(bank, CommandKind::TraAap)?;
                Ok(self.pim_act_earliest(bank, rows[0]))
            }
        }
    }

    fn require_precharged(&self, bank_id: BankId, kind: CommandKind) -> Result<()> {
        if !self.bank(bank_id).state.is_precharged() {
            return Err(DramError::WrongBankState {
                kind,
                bank: bank_id,
                need: "a precharged bank",
            });
        }
        Ok(())
    }

    fn check_open_row(&self, addr: DramAddr, bank: &Bank, kind: CommandKind) -> Result<()> {
        match bank.state {
            BankState::Precharged => Err(DramError::WrongBankState {
                kind,
                bank: addr.bank_id(),
                need: "an open row",
            }),
            BankState::Activated { row } if row != addr.row => Err(DramError::RowMismatch {
                bank: addr.bank_id(),
                open: row,
                requested: addr.row,
            }),
            BankState::Activated { .. } => Ok(()),
        }
    }

    fn act_earliest(&self, bank_id: BankId) -> Cycle {
        let bank = self.bank(bank_id);
        let rank = &self.channels[bank_id.channel as usize].ranks[bank_id.rank as usize];
        bank.next_act.max(rank.act_earliest(self.spec.timing.faw))
    }

    /// How many cycles the four-activate window (tFAW) delays the next
    /// ACT on `bank_id` beyond what bank timing and tRRD already
    /// require. Zero when the window is not the binding constraint —
    /// the controller samples this before issuing an ACT to attribute
    /// rank-power stalls.
    pub(crate) fn act_faw_delay(&self, bank_id: BankId) -> Cycle {
        let bank = self.bank(bank_id);
        let rank = &self.channels[bank_id.channel as usize].ranks[bank_id.rank as usize];
        let without_faw = bank.next_act.max(rank.next_act);
        let with_faw = bank.next_act.max(rank.act_earliest(self.spec.timing.faw));
        with_faw.saturating_sub(without_faw)
    }

    /// Like [`Device::act_earliest`] but for PIM activations, which skip
    /// the rank power constraints when `PimTiming::faw_exempt` is set and
    /// respect per-subarray occupancy when SALP is enabled.
    fn pim_act_earliest(&self, bank_id: BankId, row: u32) -> Cycle {
        let bank = self.bank(bank_id);
        let base = if self.spec.pim.faw_exempt {
            bank.next_act
        } else {
            self.act_earliest(bank_id)
        };
        if self.spec.pim.salp {
            base.max(bank.salp_earliest(self.subarray_of(row)))
        } else {
            base
        }
    }

    /// Issues `cmd` at cycle `at`.
    ///
    /// # Errors
    ///
    /// All errors of [`Device::earliest`], plus [`DramError::TooEarly`] if
    /// `at` precedes the earliest legal cycle.
    pub fn issue(&mut self, cmd: Command, at: Cycle) -> Result<IssueOutcome> {
        let earliest = self.earliest(&cmd)?;
        if at < earliest {
            return Err(DramError::TooEarly {
                kind: cmd.kind(),
                at,
                earliest,
            });
        }
        Ok(self.apply(cmd, at))
    }

    /// Applies a command already validated by [`Device::earliest`] at a
    /// cycle already known to be legal. Infallible by construction — this
    /// is what lets [`Device::issue_earliest`] validate exactly once.
    fn apply(&mut self, cmd: Command, at: Cycle) -> IssueOutcome {
        self.counts.record(cmd.kind());
        let outcome = self.apply_state(cmd, at);
        if let Some(obs) = &mut self.observer {
            obs.record(at, cmd, outcome.done);
        }
        outcome
    }

    /// The state-transition half of [`Device::apply`]: timing chains and
    /// functional data, no bookkeeping. [`Device::issue_run`] calls this
    /// per command and records counts once per run.
    fn apply_state(&mut self, cmd: Command, at: Cycle) -> IssueOutcome {
        let t = self.spec.timing;
        let pim = self.spec.pim;
        let burst = t.burst_cycles();
        match cmd {
            Command::Act(row) => {
                self.bank_mut(row.bank_id())
                    .on_act(at, row.row, t.rcd, t.ras, t.rc);
                if pim.salp {
                    let sa = self.subarray_of(row.row);
                    let bank = self.bank_mut(row.bank_id());
                    let slot = &mut bank.subarray_next[sa as usize];
                    *slot = (*slot).max(at + t.rc);
                }
                self.rank_mut(row.channel, row.rank).record_act(at, t.rrd);
                IssueOutcome {
                    done: at + t.rcd,
                    row_hit: false,
                }
            }
            Command::Pre(bank_id) => {
                self.bank_mut(bank_id).on_pre(at, t.rp);
                IssueOutcome {
                    done: at + t.rp,
                    row_hit: false,
                }
            }
            Command::PreAll { channel, rank } => {
                let rp = t.rp;
                let r = self.rank_mut(channel, rank);
                for b in &mut r.banks {
                    if !b.state.is_precharged() {
                        b.on_pre(at, rp);
                    }
                }
                IssueOutcome {
                    done: at + rp,
                    row_hit: false,
                }
            }
            Command::Rd(addr) | Command::RdA(addr) => {
                let auto_pre = matches!(cmd, Command::RdA(_));
                let done = at + t.cl + burst;
                {
                    let bank = self.bank_mut(addr.bank_id());
                    bank.next_pre = bank.next_pre.max(at + t.rtp);
                    if auto_pre {
                        bank.state = BankState::Precharged;
                        bank.next_act = bank.next_act.max(at + t.rtp + t.rp);
                    }
                }
                let ch = &mut self.channels[addr.channel as usize];
                ch.next_rd = ch.next_rd.max(at + t.ccd);
                // Read-to-write: the write burst must not collide with the
                // read burst on the shared data bus.
                ch.next_wr = ch.next_wr.max(at + t.cl + burst + 2 - t.cwl.min(t.cl));
                IssueOutcome {
                    done,
                    row_hit: true,
                }
            }
            Command::Wr(addr) | Command::WrA(addr) => {
                let auto_pre = matches!(cmd, Command::WrA(_));
                let done = at + t.cwl + burst;
                {
                    let bank = self.bank_mut(addr.bank_id());
                    bank.next_pre = bank.next_pre.max(at + t.cwl + burst + t.wr);
                    bank.next_rd = bank.next_rd.max(at + t.cwl + burst + t.wtr);
                    if auto_pre {
                        bank.state = BankState::Precharged;
                        bank.next_act = bank.next_act.max(at + t.cwl + burst + t.wr + t.rp);
                    }
                }
                let ch = &mut self.channels[addr.channel as usize];
                ch.next_wr = ch.next_wr.max(at + t.ccd);
                ch.next_rd = ch.next_rd.max(at + t.cwl + burst + t.wtr);
                IssueOutcome {
                    done,
                    row_hit: true,
                }
            }
            Command::Ref { channel, rank } => {
                let rfc = t.rfc;
                let r = self.rank_mut(channel, rank);
                for b in &mut r.banks {
                    b.next_act = b.next_act.max(at + rfc);
                }
                IssueOutcome {
                    done: at + rfc,
                    row_hit: false,
                }
            }
            Command::Aap { src, dst, invert } => {
                // Two back-to-back activations: charge tRRD/tFAW for both
                // unless PIM activations are exempt from power windows.
                if pim.salp {
                    let sa = self.subarray_of(src.row);
                    let gap = t.rrd;
                    self.bank_mut(src.bank_id())
                        .on_row_op_salp(at, pim.aap, sa, gap);
                } else {
                    self.bank_mut(src.bank_id()).on_row_op(at, pim.aap);
                }
                if !pim.faw_exempt {
                    let rrd = t.rrd;
                    let ras = t.ras;
                    let r = self.rank_mut(src.channel, src.rank);
                    r.record_act(at, rrd);
                    r.record_act(at + ras, rrd);
                }
                if invert {
                    self.store.not_row(src, dst);
                } else {
                    self.store.copy_row(src, dst);
                }
                IssueOutcome {
                    done: at + pim.aap,
                    row_hit: false,
                }
            }
            Command::Ap(row) => {
                if pim.salp {
                    let sa = self.subarray_of(row.row);
                    let gap = t.rrd;
                    self.bank_mut(row.bank_id())
                        .on_row_op_salp(at, pim.ap, sa, gap);
                } else {
                    self.bank_mut(row.bank_id()).on_row_op(at, pim.ap);
                }
                if !pim.faw_exempt {
                    let rrd = t.rrd;
                    self.rank_mut(row.channel, row.rank).record_act(at, rrd);
                }
                IssueOutcome {
                    done: at + pim.ap,
                    row_hit: false,
                }
            }
            Command::Tra { bank, rows } => {
                if pim.salp {
                    let sa = self.subarray_of(rows[0]);
                    let gap = t.rrd;
                    self.bank_mut(bank).on_row_op_salp(at, pim.tra, sa, gap);
                } else {
                    self.bank_mut(bank).on_row_op(at, pim.tra);
                }
                if !pim.faw_exempt {
                    let rrd = t.rrd;
                    self.rank_mut(bank.channel, bank.rank).record_act(at, rrd);
                }
                self.store
                    .majority3(bank.row(rows[0]), bank.row(rows[1]), bank.row(rows[2]));
                IssueOutcome {
                    done: at + pim.tra,
                    row_hit: false,
                }
            }
            Command::TraAap {
                bank,
                rows,
                dst,
                invert,
            } => {
                if pim.salp {
                    let sa = self.subarray_of(rows[0]);
                    let gap = t.rrd;
                    self.bank_mut(bank).on_row_op_salp(at, pim.aap, sa, gap);
                } else {
                    self.bank_mut(bank).on_row_op(at, pim.aap);
                }
                if !pim.faw_exempt {
                    let rrd = t.rrd;
                    let ras = t.ras;
                    let r = self.rank_mut(bank.channel, bank.rank);
                    r.record_act(at, rrd);
                    r.record_act(at + ras, rrd);
                }
                self.store
                    .majority3(bank.row(rows[0]), bank.row(rows[1]), bank.row(rows[2]));
                // All three rows now hold the majority; capture it into dst
                // in place (inverted through the dual-contact cell if asked).
                if invert {
                    self.store.not_row(bank.row(rows[0]), bank.row(dst));
                } else {
                    self.store.copy_row(bank.row(rows[0]), bank.row(dst));
                }
                IssueOutcome {
                    done: at + pim.aap,
                    row_hit: false,
                }
            }
        }
    }

    /// Issues `cmd` at the earliest legal cycle that is `>= not_before`,
    /// returning `(issue_cycle, outcome)`.
    ///
    /// The legality check runs exactly once: `earliest` both validates the
    /// command and yields the issue cycle, and the state transition is then
    /// applied directly instead of re-deriving the constraint inside
    /// [`Device::issue`].
    ///
    /// # Errors
    ///
    /// Same as [`Device::earliest`].
    pub fn issue_earliest(
        &mut self,
        cmd: Command,
        not_before: Cycle,
    ) -> Result<(Cycle, IssueOutcome)> {
        let earliest = self.earliest(&cmd)?;
        let at = earliest.max(not_before);
        // Issuing at the cycle `earliest` just returned can never be
        // TooEarly; guard the single-validation fast path in debug builds.
        debug_assert!(
            at >= self.earliest(&cmd).expect("command stays valid"),
            "issue at {at} would be TooEarly"
        );
        Ok((at, self.apply(cmd, at)))
    }

    /// Batch-issues a homogeneous run of commands — same [`CommandKind`],
    /// each at the earliest legal cycle `>= not_before[i]` — and pushes each
    /// command's completion cycle onto `done` (cleared first). Returns the
    /// cycle the last command in the run finishes.
    ///
    /// Commands are validated, applied and observed strictly in order, so
    /// the timing chains, functional data, and observed events are
    /// byte-identical to issuing the run through [`Device::issue_earliest`]
    /// one command at a time. What the batch saves is per-command
    /// bookkeeping churn: command counts are recorded once per run
    /// ([`CommandCounts::record_n`]).
    ///
    /// # Errors
    ///
    /// Same as [`Device::earliest`]. On a mid-run error the commands before
    /// the failing one stay applied — exactly as if they had been issued
    /// individually — and `done` holds their completion cycles, so counts
    /// and observed events still agree with the per-command path.
    ///
    /// # Panics
    ///
    /// Panics if `cmds` and `not_before` have different lengths; the run
    /// must be kind-homogeneous (checked in debug builds).
    pub fn issue_run(
        &mut self,
        cmds: &[Command],
        not_before: &[Cycle],
        done: &mut Vec<Cycle>,
    ) -> Result<Cycle> {
        assert_eq!(
            cmds.len(),
            not_before.len(),
            "one dependency cycle per command"
        );
        done.clear();
        let Some(first) = cmds.first() else {
            return Ok(0);
        };
        let kind = first.kind();
        debug_assert!(
            cmds.iter().all(|c| c.kind() == kind),
            "issue_run requires a kind-homogeneous run"
        );
        let mut end = 0;
        let mut err = None;
        for (cmd, &nb) in cmds.iter().zip(not_before) {
            let at = match self.earliest(cmd) {
                Ok(e) => e.max(nb),
                Err(e) => {
                    err = Some(e);
                    break;
                }
            };
            let outcome = self.apply_state(*cmd, at);
            if let Some(obs) = &mut self.observer {
                obs.record(at, *cmd, outcome.done);
            }
            done.push(outcome.done);
            end = end.max(outcome.done);
        }
        // One bookkeeping touch for exactly the applied prefix.
        self.counts.record_n(kind, done.len() as u64);
        self.batched_commands += done.len() as u64;
        match err {
            Some(e) => Err(e),
            None => Ok(end),
        }
    }

    fn rank_mut(&mut self, channel: u32, rank: u32) -> &mut RankTiming {
        &mut self.channels[channel as usize].ranks[rank as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DramSpec;

    fn dev() -> Device {
        Device::new(DramSpec::ddr3_1600())
    }

    fn row(bank: u32, row_idx: u32) -> RowId {
        RowId::new(0, 0, bank, row_idx)
    }

    #[test]
    fn act_then_read_obeys_trcd_and_cl() {
        let mut d = dev();
        let t = d.spec().timing;
        let (at, out) = d.issue_earliest(Command::Act(row(0, 5)), 0).unwrap();
        assert_eq!(at, 0);
        assert_eq!(out.done, t.rcd);
        let (at2, out2) = d.issue_earliest(Command::Rd(row(0, 5).addr(0)), 0).unwrap();
        assert_eq!(at2, t.rcd);
        assert_eq!(out2.done, t.rcd + t.cl + t.burst_cycles());
    }

    #[test]
    fn read_wrong_row_is_error() {
        let mut d = dev();
        d.issue_earliest(Command::Act(row(0, 5)), 0).unwrap();
        let err = d.earliest(&Command::Rd(row(0, 6).addr(0))).unwrap_err();
        assert!(matches!(
            err,
            DramError::RowMismatch {
                open: 5,
                requested: 6,
                ..
            }
        ));
    }

    #[test]
    fn read_precharged_bank_is_error() {
        let d = dev();
        let err = d.earliest(&Command::Rd(row(0, 5).addr(0))).unwrap_err();
        assert!(matches!(
            err,
            DramError::WrongBankState {
                kind: CommandKind::Rd,
                ..
            }
        ));
    }

    #[test]
    fn act_on_open_bank_is_error() {
        let mut d = dev();
        d.issue_earliest(Command::Act(row(0, 5)), 0).unwrap();
        let err = d.earliest(&Command::Act(row(0, 6))).unwrap_err();
        assert!(matches!(
            err,
            DramError::WrongBankState {
                kind: CommandKind::Act,
                ..
            }
        ));
    }

    #[test]
    fn too_early_is_rejected() {
        let mut d = dev();
        d.issue(Command::Act(row(0, 5)), 0).unwrap();
        let err = d.issue(Command::Rd(row(0, 5).addr(0)), 1).unwrap_err();
        assert!(matches!(err, DramError::TooEarly { .. }));
    }

    #[test]
    fn pre_then_act_obeys_trp_and_tras() {
        let mut d = dev();
        let t = d.spec().timing;
        d.issue(Command::Act(row(0, 5)), 0).unwrap();
        // PRE cannot issue before tRAS.
        assert_eq!(
            d.earliest(&Command::Pre(BankId::new(0, 0, 0))).unwrap(),
            t.ras
        );
        d.issue(Command::Pre(BankId::new(0, 0, 0)), t.ras).unwrap();
        // Next ACT gated by max(tRC, tRAS+tRP) = tRC for DDR3-1600.
        assert_eq!(
            d.earliest(&Command::Act(row(0, 9))).unwrap(),
            t.rc.max(t.ras + t.rp)
        );
    }

    #[test]
    fn trrd_spaces_acts_across_banks() {
        let mut d = dev();
        let t = d.spec().timing;
        d.issue(Command::Act(row(0, 1)), 0).unwrap();
        assert_eq!(d.earliest(&Command::Act(row(1, 1))).unwrap(), t.rrd);
    }

    #[test]
    fn tfaw_limits_fifth_activation() {
        let mut d = dev();
        let t = d.spec().timing;
        let mut at = 0;
        for b in 0..4 {
            let (issued, _) = d.issue_earliest(Command::Act(row(b, 1)), at).unwrap();
            at = issued;
        }
        // Four ACTs at 0, rrd, 2*rrd, 3*rrd. Fifth must wait for tFAW.
        let fifth = d.earliest(&Command::Act(row(4, 1))).unwrap();
        assert_eq!(fifth, t.faw.max(3 * t.rrd + t.rrd));
        assert!(fifth >= t.faw);
    }

    #[test]
    fn ccd_spaces_column_commands() {
        let mut d = dev();
        let t = d.spec().timing;
        d.issue_earliest(Command::Act(row(0, 1)), 0).unwrap();
        let (first, _) = d.issue_earliest(Command::Rd(row(0, 1).addr(0)), 0).unwrap();
        let (second, _) = d.issue_earliest(Command::Rd(row(0, 1).addr(1)), 0).unwrap();
        assert_eq!(second - first, t.ccd);
    }

    #[test]
    fn write_to_read_turnaround() {
        let mut d = dev();
        let t = d.spec().timing;
        d.issue_earliest(Command::Act(row(0, 1)), 0).unwrap();
        let (w, _) = d.issue_earliest(Command::Wr(row(0, 1).addr(0)), 0).unwrap();
        let (r, _) = d.issue_earliest(Command::Rd(row(0, 1).addr(1)), 0).unwrap();
        assert!(r >= w + t.cwl + t.burst_cycles() + t.wtr);
    }

    #[test]
    fn rda_auto_precharges() {
        let mut d = dev();
        d.issue_earliest(Command::Act(row(0, 1)), 0).unwrap();
        d.issue_earliest(Command::RdA(row(0, 1).addr(0)), 0)
            .unwrap();
        assert!(d.bank_state(BankId::new(0, 0, 0)).is_precharged());
        // A new ACT is legal (after the precharge completes).
        assert!(d.earliest(&Command::Act(row(0, 2))).is_ok());
    }

    #[test]
    fn wra_auto_precharges_with_write_recovery() {
        let mut d = dev();
        let t = d.spec().timing;
        let (w, _) = d
            .issue_earliest(Command::Act(row(0, 1)), 0)
            .and_then(|_| d.issue_earliest(Command::WrA(row(0, 1).addr(0)), 0))
            .unwrap();
        assert!(d.bank_state(BankId::new(0, 0, 0)).is_precharged());
        let next = d.earliest(&Command::Act(row(0, 2))).unwrap();
        assert!(next >= w + t.cwl + t.burst_cycles() + t.wr + t.rp);
    }

    #[test]
    fn refresh_requires_precharged_and_blocks_trfc() {
        let mut d = dev();
        let t = d.spec().timing;
        d.issue_earliest(Command::Act(row(0, 1)), 0).unwrap();
        assert!(matches!(
            d.earliest(&Command::Ref {
                channel: 0,
                rank: 0
            }),
            Err(DramError::RefreshWhileActive { .. })
        ));
        let (p, _) = d
            .issue_earliest(Command::Pre(BankId::new(0, 0, 0)), 0)
            .unwrap();
        let (r, _) = d
            .issue_earliest(
                Command::Ref {
                    channel: 0,
                    rank: 0,
                },
                p,
            )
            .unwrap();
        let next = d.earliest(&Command::Act(row(0, 1))).unwrap();
        assert!(next >= r + t.rfc);
    }

    #[test]
    fn preall_closes_every_bank() {
        let mut d = dev();
        d.issue_earliest(Command::Act(row(0, 1)), 0).unwrap();
        d.issue_earliest(Command::Act(row(3, 1)), 0).unwrap();
        let e = d
            .earliest(&Command::PreAll {
                channel: 0,
                rank: 0,
            })
            .unwrap();
        d.issue(
            Command::PreAll {
                channel: 0,
                rank: 0,
            },
            e,
        )
        .unwrap();
        for b in 0..8 {
            assert!(d.bank_state(BankId::new(0, 0, b)).is_precharged());
        }
    }

    #[test]
    fn aap_copies_data_and_takes_double_ras() {
        let mut d = dev();
        let pim = d.spec().pim;
        let src = row(0, 10);
        let dst = row(0, 11);
        d.store_mut().write_word(src, 0, 0xabcd);
        let (at, out) = d
            .issue_earliest(
                Command::Aap {
                    src,
                    dst,
                    invert: false,
                },
                0,
            )
            .unwrap();
        assert_eq!(out.done - at, pim.aap);
        assert_eq!(d.store().read_word(dst, 0), 0xabcd);
        assert!(d.bank_state(BankId::new(0, 0, 0)).is_precharged());
    }

    #[test]
    fn aap_across_subarrays_is_error() {
        let mut d = dev();
        let rows_per_sa = d.spec().org.rows_per_subarray();
        let err = d
            .issue_earliest(
                Command::Aap {
                    src: row(0, 0),
                    dst: row(0, rows_per_sa),
                    invert: false,
                },
                0,
            )
            .unwrap_err();
        assert!(matches!(err, DramError::SubarrayMismatch { .. }));
    }

    #[test]
    fn tra_computes_majority_in_place() {
        let mut d = dev();
        let bank = BankId::new(0, 0, 2);
        d.store_mut().write_word(bank.row(0), 0, 0b1100);
        d.store_mut().write_word(bank.row(1), 0, 0b1010);
        d.store_mut().write_word(bank.row(2), 0, 0b0110);
        d.issue_earliest(
            Command::Tra {
                bank,
                rows: [0, 1, 2],
            },
            0,
        )
        .unwrap();
        for r in 0..3 {
            assert_eq!(d.store().read_word(bank.row(r), 0), 0b1110);
        }
    }

    #[test]
    fn aap_invert_captures_complement() {
        let mut d = dev();
        let src = row(0, 10);
        let dst = row(0, 11);
        d.store_mut().write_word(src, 0, 0x0ff0);
        d.issue_earliest(
            Command::Aap {
                src,
                dst,
                invert: true,
            },
            0,
        )
        .unwrap();
        assert_eq!(d.store().read_word(dst, 0), !0x0ff0u64);
        // Source is untouched by the negated capture.
        assert_eq!(d.store().read_word(src, 0), 0x0ff0);
    }

    #[test]
    fn tra_aap_fuses_majority_and_copy() {
        let mut d = dev();
        let pim = d.spec().pim;
        let bank = BankId::new(0, 0, 1);
        d.store_mut().write_word(bank.row(0), 0, 0b1100);
        d.store_mut().write_word(bank.row(1), 0, 0b1010);
        d.store_mut().write_word(bank.row(2), 0, 0b0110);
        let (at, out) = d
            .issue_earliest(
                Command::TraAap {
                    bank,
                    rows: [0, 1, 2],
                    dst: 5,
                    invert: false,
                },
                0,
            )
            .unwrap();
        // Fused op costs one AAP, not TRA + AAP.
        assert_eq!(out.done - at, pim.aap);
        assert_eq!(d.store().read_word(bank.row(5), 0), 0b1110);
        // TRA side effect: the three source rows also hold the majority.
        assert_eq!(d.store().read_word(bank.row(0), 0), 0b1110);
    }

    #[test]
    fn tra_aap_invert() {
        let mut d = dev();
        let bank = BankId::new(0, 0, 2);
        d.store_mut().write_word(bank.row(0), 0, u64::MAX);
        d.store_mut().write_word(bank.row(1), 0, u64::MAX);
        d.issue_earliest(
            Command::TraAap {
                bank,
                rows: [0, 1, 2],
                dst: 6,
                invert: true,
            },
            0,
        )
        .unwrap();
        assert_eq!(
            d.store().read_word(bank.row(6), 0),
            0,
            "NAND of all-ones is zero"
        );
    }

    #[test]
    fn tra_aap_dst_must_share_subarray() {
        let d = dev();
        let sa = d.spec().org.rows_per_subarray();
        let bank = BankId::new(0, 0, 0);
        let err = d
            .earliest(&Command::TraAap {
                bank,
                rows: [0, 1, 2],
                dst: sa,
                invert: false,
            })
            .unwrap_err();
        assert!(matches!(err, DramError::SubarrayMismatch { .. }));
    }

    #[test]
    fn pim_faw_exemption_allows_dense_activation() {
        // With the default (exempt), 8 APs across banks issue at cycle 0;
        // with exemption off, tRRD/tFAW spread them out.
        let mut exempt = dev();
        for b in 0..8 {
            let (at, _) = exempt.issue_earliest(Command::Ap(row(b, 0)), 0).unwrap();
            assert_eq!(at, 0, "exempt PIM activations need no rank spacing");
        }
        let mut spec = DramSpec::ddr3_1600();
        spec.pim.faw_exempt = false;
        let mut strict = Device::new(spec);
        let mut last = 0;
        for b in 0..8 {
            let (at, _) = strict.issue_earliest(Command::Ap(row(b, 0)), 0).unwrap();
            last = last.max(at);
        }
        assert!(last > 0, "constrained PIM activations must spread out");
    }

    #[test]
    fn tra_across_subarrays_is_error() {
        let d = dev();
        let sa = d.spec().org.rows_per_subarray();
        let bank = BankId::new(0, 0, 0);
        let err = d
            .earliest(&Command::Tra {
                bank,
                rows: [0, 1, sa],
            })
            .unwrap_err();
        assert!(matches!(err, DramError::SubarrayMismatch { .. }));
    }

    #[test]
    fn out_of_range_addresses_rejected() {
        let d = dev();
        let o = d.spec().org;
        assert!(d
            .earliest(&Command::Act(RowId::new(o.channels, 0, 0, 0)))
            .is_err());
        assert!(d
            .earliest(&Command::Act(RowId::new(0, o.ranks, 0, 0)))
            .is_err());
        assert!(d
            .earliest(&Command::Act(RowId::new(0, 0, o.banks, 0)))
            .is_err());
        assert!(d
            .earliest(&Command::Act(RowId::new(0, 0, 0, o.rows)))
            .is_err());
        assert!(d
            .earliest(&Command::Rd(DramAddr::new(0, 0, 0, 0, o.columns)))
            .is_err());
    }

    #[test]
    fn counts_accumulate() {
        let mut d = dev();
        d.issue_earliest(Command::Act(row(0, 1)), 0).unwrap();
        d.issue_earliest(Command::Rd(row(0, 1).addr(0)), 0).unwrap();
        d.issue_earliest(Command::Ap(row(1, 1)), 0).unwrap();
        assert_eq!(d.counts().count(CommandKind::Act), 1);
        assert_eq!(d.counts().count(CommandKind::Rd), 1);
        assert_eq!(d.counts().count(CommandKind::Ap), 1);
        assert_eq!(d.counts().total(), 3);
    }

    #[test]
    fn salp_overlaps_row_ops_across_subarrays() {
        let mut spec = DramSpec::ddr3_1600();
        spec.pim.salp = true;
        let mut d = Device::new(spec.clone());
        let sa_rows = spec.org.rows_per_subarray();
        // Four APs in four different subarrays of bank 0: with SALP they
        // issue tRRD apart instead of serializing on the full row cycle.
        let mut issue_times = Vec::new();
        for i in 0..4u32 {
            let (at, _) = d
                .issue_earliest(Command::Ap(row(0, i * sa_rows)), 0)
                .unwrap();
            issue_times.push(at);
        }
        for w in issue_times.windows(2) {
            assert_eq!(w[1] - w[0], spec.timing.rrd, "SALP spacing is tRRD");
        }
        // Same subarray still serializes on the full op duration.
        let (t1, _) = d.issue_earliest(Command::Ap(row(0, 1)), 0).unwrap();
        let (t2, _) = d.issue_earliest(Command::Ap(row(0, 2)), 0).unwrap();
        assert!(t2 - t1 >= spec.pim.ap, "same-subarray ops must not overlap");
    }

    #[test]
    fn salp_off_serializes_per_bank() {
        let mut d = dev(); // salp off
        let spec = d.spec().clone();
        let sa_rows = spec.org.rows_per_subarray();
        let (t1, _) = d.issue_earliest(Command::Ap(row(0, 0)), 0).unwrap();
        let (t2, _) = d.issue_earliest(Command::Ap(row(0, sa_rows)), 0).unwrap();
        assert!(t2 - t1 >= spec.pim.ap, "without SALP the bank serializes");
    }

    #[test]
    fn salp_regular_act_respects_inflight_subarray_op() {
        let mut spec = DramSpec::ddr3_1600();
        spec.pim.salp = true;
        let mut d = Device::new(spec.clone());
        // Row op in subarray 0 of bank 0.
        let (t0, _) = d.issue_earliest(Command::Ap(row(0, 5)), 0).unwrap();
        // A regular ACT to the same subarray must wait for it.
        let e = d.earliest(&Command::Act(row(0, 6))).unwrap();
        assert!(e >= t0 + spec.pim.ap, "ACT into a busy subarray must wait");
        // But an ACT to another subarray only pays the command gap.
        let sa_rows = spec.org.rows_per_subarray();
        let e2 = d.earliest(&Command::Act(row(0, sa_rows + 6))).unwrap();
        assert!(e2 < t0 + spec.pim.ap, "other subarrays stay available");
    }

    #[test]
    fn banks_operate_in_parallel() {
        // Row ops in different banks overlap: total time for 8 parallel APs
        // is far less than 8 serial ones (only tRRD apart).
        let mut d = dev();
        let t = d.spec().timing;
        let mut last_done = 0;
        for b in 0..8 {
            let (_, out) = d.issue_earliest(Command::Ap(row(b, 0)), 0).unwrap();
            last_done = last_done.max(out.done);
        }
        let serial = 8 * (t.ras + t.rp);
        assert!(
            last_done < serial,
            "parallel {last_done} vs serial {serial}"
        );
    }

    #[test]
    fn batched_commands_accumulate_and_reset() {
        let mut d = dev();
        let cmds: Vec<Command> = (0..3).map(|i| Command::Ap(row(0, i))).collect();
        let nb = vec![0; cmds.len()];
        let mut done = Vec::new();
        for _ in 0..2 {
            d.issue_run(&cmds, &nb, &mut done).unwrap();
        }
        // Two runs accumulate: 3 + 3.
        assert_eq!(d.batched_commands(), 6);
        d.reset_batched_commands();
        assert_eq!(d.batched_commands(), 0);
        d.issue_run(&cmds, &nb, &mut done).unwrap();
        assert_eq!(d.batched_commands(), 3, "post-reset window counts alone");
    }
}
