//! The memory controller: request queues, FR-FCFS scheduling, row-buffer
//! policies, and refresh management on top of a [`Device`].
//!
//! The controller is event-driven: [`Controller::step`] issues exactly one
//! command somewhere in the system (advancing the clock to that command's
//! issue cycle), and [`Controller::run_until_idle`] drains the queue.

use crate::bank::BankState;
use crate::command::Command;
use crate::device::Device;
use crate::error::{DramError, Result};
use crate::mapping::AddressMapping;
use crate::spec::DramSpec;
use crate::stats::ControllerStats;
use crate::trace::Observer;
use crate::types::{Access, Cycle, DramAddr, PhysAddr};
use std::collections::VecDeque;
use std::fmt;

/// A memory request presented to the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Physical byte address (mapped at burst granularity).
    pub addr: PhysAddr,
    /// Read or write.
    pub access: Access,
}

impl Request {
    /// Creates a read request.
    pub fn read(addr: PhysAddr) -> Self {
        Request {
            addr,
            access: Access::Read,
        }
    }

    /// Creates a write request.
    pub fn write(addr: PhysAddr) -> Self {
        Request {
            addr,
            access: Access::Write,
        }
    }
}

/// Opaque identifier for an enqueued request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReqId(u64);

impl fmt::Display for ReqId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// A completed request, with its timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The request identifier returned by [`Controller::enqueue`].
    pub id: ReqId,
    /// The access type.
    pub access: Access,
    /// The decoded DRAM address.
    pub addr: DramAddr,
    /// Arrival cycle.
    pub arrival: Cycle,
    /// Data-complete cycle.
    pub done: Cycle,
}

impl Completion {
    /// Request latency in cycles.
    pub fn latency(&self) -> Cycle {
        self.done - self.arrival
    }
}

/// Row-buffer management policy.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum RowPolicy {
    /// Leave rows open after column accesses (exploits locality).
    #[default]
    Open,
    /// Auto-precharge after every column access (favors random traffic).
    Closed,
}

#[derive(Debug, Clone)]
struct Pending {
    id: ReqId,
    addr: DramAddr,
    access: Access,
    arrival: Cycle,
    needed_act: bool,
    needed_pre: bool,
}

/// Per-(channel,rank) refresh bookkeeping.
#[derive(Debug, Clone, Copy)]
struct RefreshDuty {
    next_due: Cycle,
}

/// A DDR memory controller over a [`Device`].
///
/// # Examples
///
/// ```
/// use pim_dram::{Controller, DramSpec, Request, PhysAddr};
/// # fn main() -> Result<(), pim_dram::DramError> {
/// let mut mc = Controller::new(DramSpec::ddr3_1600());
/// for i in 0..16 {
///     mc.enqueue(Request::read(PhysAddr::new(i * 64)))?;
/// }
/// mc.run_until_idle();
/// assert_eq!(mc.stats().reads, 16);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Controller {
    device: Device,
    mapping: AddressMapping,
    policy: RowPolicy,
    queue_cap: usize,
    clock: Cycle,
    next_id: u64,
    pending: VecDeque<Pending>,
    completions: VecDeque<Completion>,
    refresh: Vec<RefreshDuty>,
    refresh_enabled: bool,
    channel_next_cmd: Vec<Cycle>,
    stats: ControllerStats,
    posted_writes: bool,
    write_buffer: VecDeque<Pending>,
    draining: bool,
}

impl Controller {
    /// Default request-queue capacity.
    pub const DEFAULT_QUEUE_CAP: usize = 64;

    /// Creates a controller with the default mapping
    /// ([`AddressMapping::RoBaRaCoCh`]), open-row policy, and refresh on.
    pub fn new(spec: DramSpec) -> Self {
        Controller::with_options(spec, AddressMapping::default(), RowPolicy::default(), true)
    }

    /// Creates a controller with explicit mapping, policy and refresh choice.
    pub fn with_options(
        spec: DramSpec,
        mapping: AddressMapping,
        policy: RowPolicy,
        refresh_enabled: bool,
    ) -> Self {
        let nranks = (spec.org.channels * spec.org.ranks) as usize;
        let refi = spec.timing.refi;
        let channels = spec.org.channels as usize;
        Controller {
            device: Device::new(spec),
            mapping,
            policy,
            queue_cap: Self::DEFAULT_QUEUE_CAP,
            clock: 0,
            next_id: 0,
            pending: VecDeque::new(),
            completions: VecDeque::new(),
            refresh: vec![RefreshDuty { next_due: refi }; nranks],
            refresh_enabled,
            channel_next_cmd: vec![0; channels],
            stats: ControllerStats::new(),
            posted_writes: false,
            write_buffer: VecDeque::new(),
            draining: false,
        }
    }

    /// Enables posted writes: writes acknowledge immediately (completion at
    /// the enqueue clock) and park in a write buffer that drains when it
    /// crosses a high watermark or no reads are waiting — the standard
    /// read-priority policy of real controllers.
    pub fn set_posted_writes(&mut self, enabled: bool) {
        self.posted_writes = enabled;
    }

    /// Writes currently parked in the write buffer (posted mode).
    pub fn write_buffer_len(&self) -> usize {
        self.write_buffer.len()
    }

    /// The underlying device (for spec, command counts, functional data).
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Mutable access to the underlying device (e.g. preloading row data,
    /// or observing the commands the scheduler issues — every command,
    /// refresh and row-policy precharges included, funnels through the
    /// device's single mutation point, and the scheduler adds its
    /// `dram.ctrl.*` series to the observer's telemetry).
    pub fn device_mut(&mut self) -> &mut Device {
        &mut self.device
    }

    /// The address-mapping scheme in use.
    pub fn mapping(&self) -> AddressMapping {
        self.mapping
    }

    /// The current controller clock, in cycles.
    pub fn clock(&self) -> Cycle {
        self.clock
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// Number of requests waiting or in flight.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Sets the request-queue capacity.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn set_queue_capacity(&mut self, cap: usize) {
        assert!(cap > 0, "queue capacity must be nonzero");
        self.queue_cap = cap;
    }

    /// Advances the clock to `cycle` without issuing commands (used for
    /// trace replay where requests arrive at known times).
    pub fn advance_to(&mut self, cycle: Cycle) {
        self.clock = self.clock.max(cycle);
    }

    /// Enqueues a request, arriving at the current clock.
    ///
    /// # Errors
    ///
    /// * [`DramError::QueueFull`] if the queue is at capacity.
    /// * [`DramError::AddressOutOfRange`] if the decoded address is invalid
    ///   (address beyond device capacity).
    pub fn enqueue(&mut self, req: Request) -> Result<ReqId> {
        if self.pending.len() >= self.queue_cap {
            return Err(DramError::QueueFull {
                capacity: self.queue_cap,
            });
        }
        let org = self.device.spec().org;
        if req.addr.as_u64() >= org.capacity_bytes() {
            return Err(DramError::AddressOutOfRange {
                addr: self.mapping.decode(req.addr, &org),
                field: "capacity",
            });
        }
        let addr = self.mapping.decode(req.addr, &org);
        let id = ReqId(self.next_id);
        self.next_id += 1;
        if self.stats.requests() == 0 && self.pending.is_empty() && self.write_buffer.is_empty() {
            self.stats.first_arrival = self.clock;
        }
        let pending = Pending {
            id,
            addr,
            access: req.access,
            arrival: self.clock,
            needed_act: false,
            needed_pre: false,
        };
        if self.posted_writes && req.access == Access::Write {
            if self.write_buffer.len() >= self.queue_cap {
                return Err(DramError::QueueFull {
                    capacity: self.queue_cap,
                });
            }
            // Posted: the writer gets its acknowledgment immediately.
            self.completions.push_back(Completion {
                id,
                access: Access::Write,
                addr,
                arrival: self.clock,
                done: self.clock,
            });
            self.write_buffer.push_back(pending);
        } else {
            self.pending.push_back(pending);
        }
        Ok(id)
    }

    /// Pops the next completion, if any (FIFO in completion order).
    pub fn pop_completion(&mut self) -> Option<Completion> {
        self.completions.pop_front()
    }

    /// Issues at most one command, advancing the clock to its issue cycle.
    ///
    /// Returns `false` when the queue is empty (nothing left to do).
    pub fn step(&mut self) -> bool {
        if self.pending.is_empty() && self.write_buffer.is_empty() {
            return false;
        }
        // Posted-write drain policy: reads always have priority; writes
        // drain opportunistically when no reads wait, and are only *forced*
        // in short bursts when the buffer nears capacity (3/4 high, 1/2
        // low hysteresis).
        if self.posted_writes {
            let high = (self.queue_cap * 3 / 4).max(1);
            let low = self.queue_cap / 2;
            if self.write_buffer.len() >= high {
                self.draining = true;
            } else if self.write_buffer.len() <= low {
                self.draining = false;
            }
        }
        let use_writes = self.posted_writes
            && !self.write_buffer.is_empty()
            && (self.pending.is_empty() || self.draining);
        // Candidate = (issue_cycle, command, index of pending request served
        // by a column command, or usize::MAX for maintenance commands).
        let mut best: Option<(Cycle, Command, usize)> = None;
        let channels = self.device.spec().org.channels;
        for ch in 0..channels {
            if let Some((at, cmd, idx)) = self.channel_candidate(ch, use_writes) {
                let at = at.max(self.channel_next_cmd[ch as usize]).max(self.clock);
                if best.is_none_or(|(bt, _, _)| at < bt) {
                    best = Some((at, cmd, idx));
                }
            }
        }
        let Some((at, cmd, idx)) = best else {
            return false;
        };
        let ch = cmd.channel() as usize;
        if let Command::Act(row) = cmd {
            // Sampled before `issue` mutates the rank's activate window:
            // the cycles tFAW (not bank timing or tRRD) pushed this ACT.
            let stall = self.device.act_faw_delay(row.bank_id());
            let index = self.device.spec().org.flat_bank_index(row.bank_id());
            if let Some(tel) = self.device.observer_mut().and_then(Observer::telemetry) {
                if stall > 0 {
                    tel.count("dram.ctrl.faw_stall_cycles", index, stall);
                }
            }
        }
        let outcome = self
            .device
            .issue(cmd, at)
            .expect("scheduler derived command from device state; issue must be legal");
        self.clock = at;
        self.channel_next_cmd[ch] = at + 1;

        match cmd {
            Command::Rd(_) | Command::RdA(_) | Command::Wr(_) | Command::WrA(_) => {
                let from_writes =
                    matches!(cmd, Command::Wr(_) | Command::WrA(_)) && self.posted_writes;
                let p = if from_writes {
                    self.write_buffer.remove(idx).expect("served index valid")
                } else {
                    self.pending.remove(idx).expect("served index valid")
                };
                let burst_bytes = self.device.spec().org.burst_bytes();
                match p.access {
                    Access::Read => {
                        self.stats.reads += 1;
                        self.stats.bytes_read += burst_bytes;
                    }
                    Access::Write => {
                        self.stats.writes += 1;
                        self.stats.bytes_written += burst_bytes;
                    }
                }
                if p.needed_pre {
                    self.stats.row_conflicts += 1;
                } else if p.needed_act {
                    self.stats.row_misses += 1;
                } else {
                    self.stats.row_hits += 1;
                }
                let index = self.device.spec().org.flat_bank_index(p.addr.bank_id());
                if let Some(tel) = self.device.observer_mut().and_then(Observer::telemetry) {
                    let series = if p.needed_pre {
                        "dram.ctrl.row_conflict"
                    } else if p.needed_act {
                        "dram.ctrl.row_miss"
                    } else {
                        "dram.ctrl.row_hit"
                    };
                    tel.count(series, index, 1);
                }
                let latency = outcome.done - p.arrival;
                self.stats.last_done = self.stats.last_done.max(outcome.done);
                if !from_writes {
                    self.stats.total_latency += latency;
                    self.stats.max_latency = self.stats.max_latency.max(latency);
                    // Posted writes were acknowledged at enqueue time.
                    self.completions.push_back(Completion {
                        id: p.id,
                        access: p.access,
                        addr: p.addr,
                        arrival: p.arrival,
                        done: outcome.done,
                    });
                }
            }
            Command::Act(_) => {
                let q = if use_writes {
                    &mut self.write_buffer
                } else {
                    &mut self.pending
                };
                if let Some(p) = q.get_mut(idx) {
                    p.needed_act = true;
                }
            }
            Command::Pre(_) => {
                let q = if use_writes {
                    &mut self.write_buffer
                } else {
                    &mut self.pending
                };
                if let Some(p) = q.get_mut(idx) {
                    p.needed_pre = true;
                }
            }
            Command::Ref { channel, rank } => {
                self.stats.refreshes += 1;
                let ridx = (channel * self.device.spec().org.ranks + rank) as usize;
                self.refresh[ridx].next_due += self.device.spec().timing.refi;
                let rfc = self.device.spec().timing.rfc;
                if let Some(tel) = self.device.observer_mut().and_then(Observer::telemetry) {
                    tel.count("dram.ctrl.refresh_busy_cycles", ridx as u32, rfc);
                }
            }
            _ => {}
        }
        true
    }

    /// Runs until the queue drains; returns the final clock.
    pub fn run_until_idle(&mut self) -> Cycle {
        while self.step() {}
        self.clock
    }

    /// Convenience: enqueue a batch and drain, returning (cycles elapsed,
    /// completions in completion order). The clock keeps advancing across
    /// calls.
    ///
    /// # Errors
    ///
    /// Propagates [`Controller::enqueue`] errors. Requests beyond the queue
    /// capacity are fed in as slots free up.
    pub fn run_batch(&mut self, reqs: &[Request]) -> Result<(Cycle, Vec<Completion>)> {
        let start = self.clock;
        let mut fed = 0usize;
        let mut out = Vec::with_capacity(reqs.len());
        while fed < reqs.len() || !self.pending.is_empty() || !self.write_buffer.is_empty() {
            while fed < reqs.len() && self.pending.len() < self.queue_cap {
                self.enqueue(reqs[fed])?;
                fed += 1;
            }
            if !self.step() && fed >= reqs.len() {
                break;
            }
            while let Some(c) = self.pop_completion() {
                out.push(c);
            }
        }
        while let Some(c) = self.pop_completion() {
            out.push(c);
        }
        Ok((self.clock - start, out))
    }

    /// Replays a timed trace: each `(cycle, request)` pair arrives at its
    /// cycle (the clock fast-forwards through idle gaps), and the run
    /// continues until every request completes.
    ///
    /// Returns the completions in completion order.
    ///
    /// # Errors
    ///
    /// Propagates [`Controller::enqueue`] errors (out-of-range addresses).
    /// Entries must be sorted by arrival cycle; queue pressure is handled
    /// by draining before each arrival burst.
    ///
    /// # Panics
    ///
    /// Panics if the trace arrival cycles are not monotonically
    /// non-decreasing.
    pub fn replay_trace(&mut self, trace: &[(Cycle, Request)]) -> Result<Vec<Completion>> {
        let mut out = Vec::with_capacity(trace.len());
        let mut last_arrival = 0;
        for &(arrival, req) in trace {
            assert!(
                arrival >= last_arrival,
                "trace must be sorted by arrival cycle"
            );
            last_arrival = arrival;
            // Work until the new request's arrival time.
            while self.clock < arrival {
                if !self.step() {
                    break;
                }
            }
            self.advance_to(arrival);
            while self.pending.len() >= self.queue_cap {
                if !self.step() {
                    break;
                }
                while let Some(c) = self.pop_completion() {
                    out.push(c);
                }
            }
            self.enqueue(req)?;
        }
        self.run_until_idle();
        while let Some(c) = self.pop_completion() {
            out.push(c);
        }
        Ok(out)
    }

    /// FR-FCFS candidate selection for one channel.
    fn channel_candidate(&self, ch: u32, use_writes: bool) -> Option<(Cycle, Command, usize)> {
        // Refresh duty takes priority once due.
        if self.refresh_enabled {
            if let Some(c) = self.refresh_candidate(ch) {
                return Some(c);
            }
        }
        // Per-bank FR-FCFS: for each bank, pick the oldest row-hit request if
        // one exists (the FR part), otherwise the oldest request (the FCFS
        // part). Then, across banks, issue the command with the earliest
        // legal cycle, preferring row hits on ties — this captures both
        // row-buffer locality and bank-level parallelism.
        let queue = if use_writes {
            &self.write_buffer
        } else {
            &self.pending
        };
        let mut per_bank: std::collections::HashMap<crate::types::BankId, (usize, bool)> =
            std::collections::HashMap::new();
        for (idx, p) in queue.iter().enumerate() {
            if p.addr.channel != ch {
                continue;
            }
            let hit = matches!(
                self.device.bank_state(p.addr.bank_id()),
                BankState::Activated { row } if row == p.addr.row
            );
            match per_bank.entry(p.addr.bank_id()) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert((idx, hit));
                }
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    if hit && !e.get().1 {
                        e.insert((idx, true));
                    }
                }
            }
        }
        let mut best: Option<(Cycle, Command, usize, bool)> = None;
        for (&bank, &(idx, hit)) in &per_bank {
            let p = &queue[idx];
            let cmd = if hit {
                self.column_command(p)
            } else {
                match self.device.bank_state(bank) {
                    BankState::Precharged => Command::Act(p.addr.row_id()),
                    BankState::Activated { row } if row != p.addr.row => Command::Pre(bank),
                    BankState::Activated { .. } => self.column_command(p),
                }
            };
            if let Ok(at) = self.device.earliest(&cmd) {
                let better = match best {
                    None => true,
                    Some((bt, _, bidx, bhit)) => {
                        at < bt || (at == bt && ((hit && !bhit) || (hit == bhit && idx < bidx)))
                    }
                };
                if better {
                    best = Some((at, cmd, idx, hit));
                }
            }
        }
        best.map(|(at, cmd, idx, _)| (at, cmd, idx))
    }

    fn column_command(&self, p: &Pending) -> Command {
        match (p.access, self.policy) {
            (Access::Read, RowPolicy::Open) => Command::Rd(p.addr),
            (Access::Read, RowPolicy::Closed) => Command::RdA(p.addr),
            (Access::Write, RowPolicy::Open) => Command::Wr(p.addr),
            (Access::Write, RowPolicy::Closed) => Command::WrA(p.addr),
        }
    }

    fn refresh_candidate(&self, ch: u32) -> Option<(Cycle, Command, usize)> {
        let ranks = self.device.spec().org.ranks;
        for rank in 0..ranks {
            let ridx = (ch * ranks + rank) as usize;
            if self.clock < self.refresh[ridx].next_due {
                continue;
            }
            // Close any open bank first, then refresh.
            let ref_cmd = Command::Ref { channel: ch, rank };
            match self.device.earliest(&ref_cmd) {
                Ok(at) => return Some((at, ref_cmd, usize::MAX)),
                Err(DramError::RefreshWhileActive { .. }) => {
                    let pre = Command::PreAll { channel: ch, rank };
                    if let Ok(at) = self.device.earliest(&pre) {
                        return Some((at, pre, usize::MAX));
                    }
                }
                Err(_) => {}
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctrl() -> Controller {
        Controller::new(DramSpec::ddr3_1600())
    }

    #[test]
    fn single_read_latency_is_act_plus_cas() {
        let mut mc = ctrl();
        let t = mc.device().spec().timing;
        mc.enqueue(Request::read(PhysAddr::new(0))).unwrap();
        mc.run_until_idle();
        let c = mc.pop_completion().unwrap();
        assert_eq!(c.latency(), t.rcd + t.cl + t.burst_cycles());
        assert_eq!(mc.stats().reads, 1);
        assert_eq!(mc.stats().row_misses, 1);
    }

    #[test]
    fn sequential_reads_hit_the_row_buffer() {
        let mut mc = ctrl();
        // Default mapping: consecutive bursts are consecutive columns.
        for i in 0..32u64 {
            mc.enqueue(Request::read(PhysAddr::new(i * 64))).unwrap();
        }
        mc.run_until_idle();
        assert_eq!(mc.stats().reads, 32);
        assert_eq!(mc.stats().row_misses, 1);
        assert_eq!(mc.stats().row_hits, 31);
        assert!(mc.stats().row_hit_rate() > 0.9);
    }

    #[test]
    fn row_conflict_forces_precharge() {
        let mut mc = ctrl();
        let org = mc.device().spec().org;
        let m = mc.mapping();
        // Two different rows in the same bank.
        let a = m.encode(DramAddr::new(0, 0, 0, 10, 0), &org);
        let b = m.encode(DramAddr::new(0, 0, 0, 20, 0), &org);
        mc.enqueue(Request::read(a)).unwrap();
        mc.run_until_idle();
        mc.enqueue(Request::read(b)).unwrap();
        mc.run_until_idle();
        assert_eq!(mc.stats().row_conflicts, 1);
        assert_eq!(mc.stats().reads, 2);
    }

    #[test]
    fn writes_complete_and_count_bytes() {
        let mut mc = ctrl();
        for i in 0..8u64 {
            mc.enqueue(Request::write(PhysAddr::new(i * 64))).unwrap();
        }
        mc.run_until_idle();
        assert_eq!(mc.stats().writes, 8);
        assert_eq!(mc.stats().bytes_written, 8 * 64);
        assert_eq!(mc.pending_len(), 0);
    }

    #[test]
    fn queue_capacity_enforced() {
        let mut mc = ctrl();
        mc.set_queue_capacity(2);
        mc.enqueue(Request::read(PhysAddr::new(0))).unwrap();
        mc.enqueue(Request::read(PhysAddr::new(64))).unwrap();
        let err = mc.enqueue(Request::read(PhysAddr::new(128))).unwrap_err();
        assert!(matches!(err, DramError::QueueFull { capacity: 2 }));
    }

    #[test]
    fn address_beyond_capacity_rejected() {
        let mut mc = ctrl();
        let cap = mc.device().spec().org.capacity_bytes();
        let err = mc.enqueue(Request::read(PhysAddr::new(cap))).unwrap_err();
        assert!(matches!(err, DramError::AddressOutOfRange { .. }));
    }

    #[test]
    fn refresh_fires_during_long_runs() {
        let mut mc = ctrl();
        let refi = mc.device().spec().timing.refi;
        // Enough row-conflict traffic to stretch past several tREFI windows.
        let org = mc.device().spec().org;
        let m = mc.mapping();
        let mut reqs = Vec::new();
        for i in 0..2000u32 {
            let a = m.encode(DramAddr::new(0, 0, 0, i % org.rows, 0), &org);
            reqs.push(Request::read(a));
        }
        let (cycles, comps) = mc.run_batch(&reqs).unwrap();
        assert_eq!(comps.len(), 2000);
        assert!(cycles > refi, "run must span refresh windows");
        assert!(mc.stats().refreshes > 0, "refresh must have fired");
    }

    #[test]
    fn refresh_can_be_disabled() {
        let mut mc = Controller::with_options(
            DramSpec::ddr3_1600(),
            AddressMapping::default(),
            RowPolicy::Open,
            false,
        );
        let org = mc.device().spec().org;
        let m = mc.mapping();
        let mut reqs = Vec::new();
        for i in 0..2000u32 {
            reqs.push(Request::read(
                m.encode(DramAddr::new(0, 0, 0, i % org.rows, 0), &org),
            ));
        }
        mc.run_batch(&reqs).unwrap();
        assert_eq!(mc.stats().refreshes, 0);
    }

    #[test]
    fn closed_policy_precharges_after_access() {
        let mut mc = Controller::with_options(
            DramSpec::ddr3_1600(),
            AddressMapping::default(),
            RowPolicy::Closed,
            true,
        );
        mc.enqueue(Request::read(PhysAddr::new(0))).unwrap();
        mc.run_until_idle();
        use crate::types::BankId;
        for b in 0..8 {
            assert!(mc.device().bank_state(BankId::new(0, 0, b)).is_precharged());
        }
    }

    #[test]
    fn random_traffic_mix_drains_completely() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut mc = ctrl();
        let cap = mc.device().spec().org.capacity_bytes();
        let reqs: Vec<Request> = (0..500)
            .map(|_| {
                let addr = PhysAddr::new(rng.gen_range(0..cap)).align_down(64);
                if rng.gen_bool(0.3) {
                    Request::write(addr)
                } else {
                    Request::read(addr)
                }
            })
            .collect();
        let (_, comps) = mc.run_batch(&reqs).unwrap();
        assert_eq!(comps.len(), 500);
        assert_eq!(mc.stats().requests(), 500);
        // Completions never run backwards in time.
        for w in comps.windows(2) {
            assert!(w[1].done >= w[0].done);
        }
    }

    #[test]
    fn bank_parallelism_beats_single_bank() {
        // Same number of row misses, spread over 8 banks vs 1 bank.
        let org = DramSpec::ddr3_1600().org;
        let m = AddressMapping::default();
        let spread: Vec<Request> = (0..64u32)
            .map(|i| Request::read(m.encode(DramAddr::new(0, 0, i % 8, i / 8 * 2 + 1, 0), &org)))
            .collect();
        let single: Vec<Request> = (0..64u32)
            .map(|i| Request::read(m.encode(DramAddr::new(0, 0, 0, i * 2 + 1, 0), &org)))
            .collect();
        let mut mc1 = ctrl();
        let (t_spread, _) = mc1.run_batch(&spread).unwrap();
        let mut mc2 = ctrl();
        let (t_single, _) = mc2.run_batch(&single).unwrap();
        assert!(
            t_spread * 2 < t_single,
            "bank-parallel {t_spread} should be well under serial {t_single}"
        );
    }

    #[test]
    fn completions_report_ids_in_issue_order_for_fifo_hits() {
        let mut mc = ctrl();
        let a = mc.enqueue(Request::read(PhysAddr::new(0))).unwrap();
        let b = mc.enqueue(Request::read(PhysAddr::new(64))).unwrap();
        mc.run_until_idle();
        let c1 = mc.pop_completion().unwrap();
        let c2 = mc.pop_completion().unwrap();
        assert_eq!(c1.id, a);
        assert_eq!(c2.id, b);
        assert!(mc.pop_completion().is_none());
    }

    #[test]
    fn trace_replay_honors_arrival_times() {
        let mut mc = ctrl();
        let trace: Vec<(u64, Request)> = (0..32u64)
            .map(|i| (i * 1000, Request::read(PhysAddr::new(i * 64))))
            .collect();
        let comps = mc.replay_trace(&trace).unwrap();
        assert_eq!(comps.len(), 32);
        for (i, c) in comps.iter().enumerate() {
            assert!(
                c.arrival >= i as u64 * 1000,
                "request {i} must not arrive early ({} < {})",
                c.arrival,
                i as u64 * 1000
            );
        }
        // Sparse arrivals: each request sees an idle system, so latency is
        // bounded by one access plus at most one overdue refresh (tRFC).
        let t = mc.device().spec().timing;
        let bound = t.rcd + t.cl + t.burst_cycles() + t.rfc + t.rp + t.rc;
        let worst = comps.iter().map(|c| c.latency()).max().unwrap();
        assert!(worst < bound, "idle-system latency {worst} (bound {bound})");
    }

    #[test]
    fn trace_replay_handles_bursts_beyond_queue_capacity() {
        let mut mc = ctrl();
        mc.set_queue_capacity(8);
        let trace: Vec<(u64, Request)> = (0..100u64)
            .map(|i| (0, Request::read(PhysAddr::new(i * 64))))
            .collect();
        let comps = mc.replay_trace(&trace).unwrap();
        assert_eq!(comps.len(), 100);
    }

    #[test]
    #[should_panic(expected = "sorted by arrival")]
    fn trace_replay_rejects_unsorted() {
        let mut mc = ctrl();
        let trace = vec![
            (100u64, Request::read(PhysAddr::new(0))),
            (50, Request::read(PhysAddr::new(64))),
        ];
        let _ = mc.replay_trace(&trace);
    }

    #[test]
    fn posted_writes_acknowledge_immediately() {
        let mut mc = ctrl();
        mc.set_posted_writes(true);
        let id = mc.enqueue(Request::write(PhysAddr::new(0))).unwrap();
        let c = mc.pop_completion().expect("posted ack");
        assert_eq!(c.id, id);
        assert_eq!(c.latency(), 0, "posted write acks at enqueue");
        assert_eq!(mc.write_buffer_len(), 1);
        mc.run_until_idle();
        assert_eq!(mc.write_buffer_len(), 0, "buffer must drain at idle");
        assert_eq!(mc.stats().writes, 1);
    }

    #[test]
    fn posted_writes_let_reads_bypass_a_write_burst() {
        let org = DramSpec::ddr3_1600().org;
        let m = AddressMapping::default();
        // A burst of row-conflicting writes, then one latency-critical read.
        let read_latency = |posted: bool| -> u64 {
            let mut mc = ctrl();
            mc.set_posted_writes(posted);
            for i in 0..32u32 {
                mc.enqueue(Request::write(
                    m.encode(DramAddr::new(0, 0, i % 8, 2 * i + 1, 0), &org),
                ))
                .unwrap();
            }
            let id = mc
                .enqueue(Request::read(
                    m.encode(DramAddr::new(0, 0, 1, 4000, 0), &org),
                ))
                .unwrap();
            mc.run_until_idle();
            loop {
                let c = mc.pop_completion().expect("read completes");
                if c.id == id {
                    return c.latency();
                }
            }
        };
        let blocking = read_latency(false);
        let posted = read_latency(true);
        assert!(
            posted * 3 < blocking,
            "read must bypass the write burst: posted {posted} vs blocking {blocking}"
        );
    }

    #[test]
    fn posted_write_buffer_has_capacity() {
        let mut mc = ctrl();
        mc.set_posted_writes(true);
        mc.set_queue_capacity(4);
        for i in 0..4u64 {
            mc.enqueue(Request::write(PhysAddr::new(i * 64))).unwrap();
        }
        let err = mc.enqueue(Request::write(PhysAddr::new(512))).unwrap_err();
        assert!(matches!(err, DramError::QueueFull { .. }));
    }

    #[test]
    fn posted_writes_actually_reach_dram() {
        let mut mc = ctrl();
        mc.set_posted_writes(true);
        for i in 0..32u64 {
            mc.enqueue(Request::write(PhysAddr::new(i * 64))).unwrap();
        }
        mc.run_until_idle();
        assert_eq!(mc.stats().writes, 32);
        assert_eq!(mc.stats().bytes_written, 32 * 64);
    }

    #[test]
    fn advance_to_moves_clock_forward_only() {
        let mut mc = ctrl();
        mc.advance_to(100);
        assert_eq!(mc.clock(), 100);
        mc.advance_to(50);
        assert_eq!(mc.clock(), 100);
    }

    #[test]
    fn queue_full_rejection_is_not_sticky() {
        let mut mc = ctrl();
        mc.set_queue_capacity(2);
        mc.enqueue(Request::read(PhysAddr::new(0))).unwrap();
        mc.enqueue(Request::read(PhysAddr::new(64))).unwrap();
        assert!(mc.enqueue(Request::read(PhysAddr::new(128))).is_err());
        // Draining one request frees a slot; the next enqueue succeeds.
        while mc.pending_len() == 2 {
            assert!(mc.step(), "pending work must make progress");
        }
        mc.enqueue(Request::read(PhysAddr::new(128)))
            .expect("slot freed after drain");
    }

    #[test]
    fn run_batch_completes_every_request_exactly_once() {
        let mut mc = ctrl();
        mc.set_queue_capacity(4);
        // More requests than queue slots, mixed access, colliding rows.
        let reqs: Vec<Request> = (0..64u64)
            .map(|i| {
                let addr = PhysAddr::new((i % 16) * 8192 + i * 64);
                if i % 3 == 0 {
                    Request::write(addr)
                } else {
                    Request::read(addr)
                }
            })
            .collect();
        let (elapsed, completions) = mc.run_batch(&reqs).unwrap();
        assert!(elapsed > 0);
        assert_eq!(completions.len(), reqs.len());
        let mut ids: Vec<u64> = completions.iter().map(|c| c.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), reqs.len(), "each request completes exactly once");
        // Completion timestamps are reported in completion order.
        for w in completions.windows(2) {
            assert!(w[1].done >= w[0].done, "completion order must follow time");
        }
    }

    #[test]
    fn run_batch_under_posted_writes_still_accounts_for_all() {
        let mut mc = ctrl();
        mc.set_posted_writes(true);
        mc.set_queue_capacity(4);
        let reqs: Vec<Request> = (0..32u64)
            .map(|i| {
                if i % 2 == 0 {
                    Request::write(PhysAddr::new(i * 64))
                } else {
                    Request::read(PhysAddr::new(4096 + i * 64))
                }
            })
            .collect();
        let (_, completions) = mc.run_batch(&reqs).unwrap();
        assert_eq!(completions.len(), reqs.len());
        assert_eq!(mc.write_buffer_len(), 0, "batch must drain posted writes");
        assert_eq!(mc.stats().writes, 16, "posted writes must reach DRAM");
        // Posted write acks carry zero latency; reads carry real latency.
        for c in &completions {
            match c.access {
                Access::Write => assert_eq!(c.latency(), 0),
                Access::Read => assert!(c.latency() > 0),
            }
        }
    }

    #[test]
    fn posted_write_drain_respects_hysteresis_watermarks() {
        let org = DramSpec::ddr3_1600().org;
        let m = AddressMapping::default();
        let mut mc = ctrl();
        mc.set_posted_writes(true);
        mc.set_queue_capacity(8); // high watermark 6, low watermark 4
                                  // Fill the write buffer to the forced-drain threshold…
        for i in 0..6u32 {
            mc.enqueue(Request::write(
                m.encode(DramAddr::new(0, 0, i % 8, 100 + i, 0), &org),
            ))
            .unwrap();
        }
        assert_eq!(mc.write_buffer_len(), 6);
        // …while a steady stream of reads is waiting.
        for i in 0..8u32 {
            mc.enqueue(Request::read(
                m.encode(DramAddr::new(0, 0, i % 8, 4000, 0), &org),
            ))
            .unwrap();
        }
        // The forced burst drains writes down to the low watermark even
        // though reads are pending; then reads regain priority and the
        // remaining writes wait until idle.
        let mut saw_low_with_reads_pending = false;
        while mc.step() {
            if mc.write_buffer_len() == 4 && mc.pending_len() > 0 {
                saw_low_with_reads_pending = true;
            }
            assert!(
                mc.write_buffer_len() >= 4 || mc.pending_len() == 0,
                "writes below the low watermark must not starve reads"
            );
        }
        assert!(
            saw_low_with_reads_pending,
            "high watermark must force a drain burst while reads wait"
        );
        assert_eq!(mc.write_buffer_len(), 0, "idle drain finishes the rest");
    }
}
