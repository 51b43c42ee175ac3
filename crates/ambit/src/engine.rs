//! The Ambit execution engine: allocates bulk bit vectors across
//! banks/subarrays, sequences row programs as real DRAM commands, and
//! reports cycle/energy costs.
//!
//! The engine plays the role of Ambit's modified memory controller: it
//! drives the [`pim_dram::Device`] command interface directly (AAP / TRA /
//! fused TRA-AAP), bypassing the request scheduler. Rows are *functionally*
//! simulated, so every operation's result is bit-exact and checked against
//! the CPU reference in the tests.

use crate::error::{AmbitError, Result};
use crate::program::{program_for, RowInst, RowSlot, MAJ};
use crate::rows::{SpecialRow, SubarrayLayout};
use pim_dram::{
    BankId, Command, CommandCounts, Cycle, Device, DramAddr, DramSpec, Observer, Projection, RowId,
};
use pim_energy::{DramEnergyModel, EnergyBreakdown};
use pim_workloads::{BitVec, BitwisePlan, BulkOp, PlanStep, Reg};
use std::fmt;

/// Configuration for an [`AmbitSystem`].
#[derive(Debug, Clone)]
pub struct AmbitConfig {
    /// The DRAM device to compute in.
    pub spec: DramSpec,
    /// Energy model matching the device technology.
    pub energy: DramEnergyModel,
    /// Per-bit failure probability of each triple-row activation (0 for a
    /// healthy device; derive a realistic value from the analog model via
    /// [`AmbitConfig::with_variation`]).
    pub tra_failure_rate: f64,
    /// RNG seed for fault injection (deterministic runs).
    pub fault_seed: u64,
}

impl AmbitConfig {
    /// DDR3-1600 with the matching energy model — the paper's main
    /// configuration.
    pub fn ddr3() -> Self {
        AmbitConfig {
            spec: DramSpec::ddr3_1600(),
            energy: DramEnergyModel::ddr3(),
            tra_failure_rate: 0.0,
            fault_seed: 0,
        }
    }

    /// One HMC-like vault (used by `pim-stack` to assemble Ambit-in-HMC).
    pub fn hmc_vault() -> Self {
        AmbitConfig {
            spec: DramSpec::hmc_vault(),
            energy: DramEnergyModel::hmc_vault(),
            tra_failure_rate: 0.0,
            fault_seed: 0,
        }
    }

    /// Derives the TRA per-bit failure rate from a Monte-Carlo run of the
    /// analog charge-sharing model (ties the §7-style reliability analysis
    /// into functional execution).
    pub fn with_variation(mut self, analog: &crate::analog::AnalogConfig, trials: u32) -> Self {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.fault_seed ^ 0xa11a);
        self.tra_failure_rate = crate::analog::monte_carlo_failure_rate(analog, trials, &mut rng);
        self
    }
}

/// A bulk bit vector resident in DRAM, striped row-by-row across banks and
/// subarrays.
///
/// Obtain one from [`AmbitSystem::alloc`]; the handle stays valid for the
/// lifetime of the system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BulkVec {
    len_bits: usize,
    rows: Vec<RowId>,
}

impl BulkVec {
    /// Length in bits.
    pub fn len(&self) -> usize {
        self.len_bits
    }

    /// `true` if the vector has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len_bits == 0
    }

    /// Number of DRAM rows (chunks) backing the vector.
    pub fn chunks(&self) -> usize {
        self.rows.len()
    }

    /// The backing rows, chunk order.
    pub fn rows(&self) -> &[RowId] {
        &self.rows
    }
}

/// Cost report for one engine operation.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecReport {
    /// Wall-clock cycles from operation start to the last chunk finishing.
    pub cycles: Cycle,
    /// The same, in nanoseconds.
    pub ns: f64,
    /// DRAM commands issued (delta for this operation).
    pub commands: CommandCounts,
    /// Energy consumed (delta for this operation).
    pub energy: EnergyBreakdown,
    /// Output payload bytes produced.
    pub bytes_out: u64,
}

impl ExecReport {
    /// Output throughput in GB/s.
    pub fn throughput_gbps(&self) -> f64 {
        if self.ns == 0.0 {
            0.0
        } else {
            self.bytes_out as f64 / self.ns
        }
    }

    /// Energy per kilobyte of output, in nJ.
    pub fn nj_per_kb(&self) -> f64 {
        if self.bytes_out == 0 {
            0.0
        } else {
            self.energy.total_nj() / (self.bytes_out as f64 / 1024.0)
        }
    }

    /// Merges another report executed *after* this one (cycles add;
    /// energy/commands/bytes accumulate).
    pub fn merge_sequential(&mut self, other: &ExecReport) {
        self.cycles += other.cycles;
        self.ns += other.ns;
        self.commands.merge(&other.commands);
        self.energy += other.energy;
        self.bytes_out += other.bytes_out;
    }
}

impl fmt::Display for ExecReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.0} ns, {:.2} GB/s, {:.1} nJ ({:.2} nJ/KB)",
            self.ns,
            self.throughput_gbps(),
            self.energy.total_nj(),
            self.nj_per_kb()
        )
    }
}

/// Per-(bank, subarray) allocation cursor with a free list of reclaimed
/// data rows.
#[derive(Debug, Clone, Default)]
struct ArenaCursor {
    next_data_row: u32,
    free: Vec<u32>,
}

/// The in-DRAM bulk bitwise computation engine.
///
/// # Examples
///
/// ```
/// use pim_ambit::{AmbitConfig, AmbitSystem};
/// use pim_workloads::{BitVec, BulkOp};
/// # fn main() -> Result<(), pim_ambit::AmbitError> {
/// let mut sys = AmbitSystem::new(AmbitConfig::ddr3());
/// let bits = 4 * 8192 * 8; // four rows worth
/// let a = sys.alloc(bits)?;
/// let b = sys.alloc(bits)?;
/// let out = sys.alloc(bits)?;
/// let av = BitVec::from_fn(bits, |i| i % 3 == 0);
/// let bv = BitVec::from_fn(bits, |i| i % 5 == 0);
/// sys.write(&a, &av)?;
/// sys.write(&b, &bv)?;
/// let report = sys.execute(BulkOp::And, &a, Some(&b), &out)?;
/// assert_eq!(sys.read(&out), av.binary(BulkOp::And, &bv));
/// assert!(report.throughput_gbps() > 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AmbitSystem {
    device: Device,
    layout: SubarrayLayout,
    energy: DramEnergyModel,
    clock: Cycle,
    cursors: Vec<ArenaCursor>, // indexed by flat (channel, rank, bank, subarray)
    tra_failure_rate: f64,
    fault_seed: u64,
    /// Monotonic counter of fault *sites* (row-program instruction slots)
    /// consumed so far. Each TRA derives its fault RNG from
    /// `(fault_seed, site, chunk)`, so the injected fault pattern is a pure
    /// function of program position, not of issue order.
    fault_epoch: u64,
    faults_injected: u64,
    /// Reusable site-list buffer: every operation builds its command replay
    /// list here, so steady-state execution performs no per-op allocation.
    site_buf: Vec<SiteCmd>,
    /// Reusable replay buffers (per-chunk dependency times + batched-issue
    /// arrays) for the site replay.
    run_buf: RunScratch,
}

/// Rows a site perturbs when fault injection is on — at most the three
/// rows of a TRA, held inline so [`SiteCmd`] stays `Copy` and building a
/// site list never allocates.
#[derive(Debug, Clone, Copy, Default)]
struct FaultRows {
    rows: [RowId; 3],
    len: u8,
}

impl FaultRows {
    fn push(&mut self, row: RowId) {
        self.rows[self.len as usize] = row;
        self.len += 1;
    }

    fn as_slice(&self) -> &[RowId] {
        &self.rows[..self.len as usize]
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// One command bound for a specific chunk's timing chain, tagged with the
/// fault-injection identity of its instruction slot. Building a full site
/// list up front lets [`AmbitSystem::run_banked`] replay it on the device
/// in construction order, batching homogeneous runs.
#[derive(Debug, Clone, Copy)]
struct SiteCmd {
    /// Fault-site index (monotonic across the system's lifetime).
    site: u64,
    /// Chunk whose dependency chain this command extends.
    chunk: usize,
    cmd: Command,
    /// Rows to perturb after issue when fault injection is enabled.
    fault_rows: FaultRows,
}

/// Output bytes of `v`, as an [`ExecReport`] counts them.
fn byte_len(v: &BulkVec) -> u64 {
    (v.len_bits as u64).div_ceil(8)
}

/// Linear-scan `(bank, free-at)` table for the serial-copy paths. The
/// engine touches at most a handful of banks per copy, so a scan beats
/// hashing and the Vec is the only allocation.
fn bank_free_get(table: &[(BankId, Cycle)], bank: BankId, default: Cycle) -> Cycle {
    table
        .iter()
        .find(|(b, _)| *b == bank)
        .map_or(default, |&(_, t)| t)
}

fn bank_free_set(table: &mut Vec<(BankId, Cycle)>, bank: BankId, t: Cycle) {
    match table.iter_mut().find(|(b, _)| *b == bank) {
        Some(entry) => entry.1 = t,
        None => table.push((bank, t)),
    }
}

/// Derives the per-site fault RNG from `(seed, site, chunk)` with a
/// SplitMix64-style mix, so every TRA slot owns an independent stream
/// regardless of execution order.
fn fault_site_rng(seed: u64, site: u64, chunk: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    let mut z =
        seed ^ site.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ chunk.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    rand::rngs::StdRng::seed_from_u64(z ^ (z >> 31))
}

/// Flips each bit of `row` with probability `rate` (geometric skipping
/// keeps this O(faults), not O(bits)). Returns the number of bits flipped.
fn inject_tra_faults(
    device: &mut Device,
    row: RowId,
    rate: f64,
    rng: &mut rand::rngs::StdRng,
) -> u64 {
    use rand::Rng;
    let bits = device.spec().org.row_bits();
    let p = rate.min(1.0);
    let mut pos = 0u64;
    let mut injected = 0u64;
    loop {
        // Geometric gap to the next failing bit.
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let gap = (u.ln() / (1.0 - p).ln()).floor() as u64;
        pos += gap;
        if pos >= bits {
            break;
        }
        let word = (pos / 64) as usize;
        let bit = pos % 64;
        let current = device.store().read_word(row, word);
        device
            .store_mut()
            .write_word(row, word, current ^ (1u64 << bit));
        injected += 1;
        pos += 1;
    }
    injected
}

/// Reusable replay buffers: the per-chunk dependency-time table plus the
/// command/dependency arrays handed to [`Device::issue_run`] and its
/// completion-cycle output. Owned by the system, so steady-state
/// execution stays allocation-free.
#[derive(Debug, Clone, Default)]
struct RunScratch {
    chunk_time: Vec<Cycle>,
    cmds: Vec<Command>,
    not_before: Vec<Cycle>,
    done: Vec<Cycle>,
}

/// Replays `sites` on `device` in order, chaining each command onto its
/// chunk's dependency time and injecting faults where tagged. Returns the
/// cycle the last command finishes and the number of faults injected.
///
/// Maximal homogeneous runs — same command kind, strictly increasing chunk
/// (so no chunk's dependency time is read and written within one run), no
/// fault injection pending — are handed to [`Device::issue_run`], which
/// batches the per-command bookkeeping. Row programs emit sites
/// instruction-major / chunk-minor (all but MAJ, which stays chunk-major),
/// so in steady state every instruction becomes one batched run across all
/// chunks. Commands still validate and apply strictly in order; data,
/// timing, counts, traces, and telemetry are byte-identical to the
/// per-command path (pinned by the equivalence tests), which stays
/// available via [`Device::set_batch_runs`].
fn run_sites(
    device: &mut Device,
    sites: &[SiteCmd],
    start: Cycle,
    n_chunks: usize,
    rate: f64,
    fault_seed: u64,
    scratch: &mut RunScratch,
) -> Result<(Cycle, u64)> {
    let RunScratch {
        chunk_time,
        cmds,
        not_before,
        done,
    } = scratch;
    chunk_time.clear();
    chunk_time.resize(n_chunks, start);
    let mut end = start;
    let mut faults = 0u64;
    let batch = device.batch_runs_enabled();
    let mut i = 0;
    while i < sites.len() {
        let head = sites[i];
        let injecting = rate > 0.0 && !head.fault_rows.is_empty();
        // Extend the run while it stays homogeneous and batchable.
        let mut j = i + 1;
        if batch && !injecting {
            let kind = head.cmd.kind();
            let mut last_chunk = head.chunk;
            while j < sites.len() {
                let s = &sites[j];
                if s.cmd.kind() != kind
                    || s.chunk <= last_chunk
                    || (rate > 0.0 && !s.fault_rows.is_empty())
                {
                    break;
                }
                last_chunk = s.chunk;
                j += 1;
            }
        }
        if j - i >= 2 {
            let run = &sites[i..j];
            cmds.clear();
            not_before.clear();
            for s in run {
                cmds.push(s.cmd);
                not_before.push(chunk_time[s.chunk]);
            }
            let res = device.issue_run(cmds, not_before, done);
            // `done` covers the applied prefix even on error; fold it back
            // before propagating so partial progress stays observable.
            for (s, &d) in run.iter().zip(done.iter()) {
                chunk_time[s.chunk] = d;
                end = end.max(d);
            }
            res?;
        } else {
            let (_, outcome) = device.issue_earliest(head.cmd, chunk_time[head.chunk])?;
            chunk_time[head.chunk] = outcome.done;
            end = end.max(outcome.done);
            if injecting {
                let mut rng = fault_site_rng(fault_seed, head.site, head.chunk as u64);
                for &r in head.fault_rows.as_slice() {
                    faults += inject_tra_faults(device, r, rate, &mut rng);
                }
            }
        }
        i = j;
    }
    Ok((end, faults))
}

impl AmbitSystem {
    /// Creates an engine over a fresh device. No row is materialized yet:
    /// `C0` reads as zero in the lazy store, and a subarray's `C1` row is
    /// filled with ones when its first data row is allocated (see
    /// [`AmbitSystem::alloc_shifted`]).
    pub fn new(config: AmbitConfig) -> Self {
        let spec = config.spec;
        let layout = SubarrayLayout::new(spec.org.rows_per_subarray());
        let org = spec.org;
        let arenas = (org.channels * org.ranks * org.banks * org.subarrays) as usize;
        AmbitSystem {
            device: Device::new(spec),
            layout,
            energy: config.energy,
            clock: 0,
            cursors: vec![ArenaCursor::default(); arenas],
            tra_failure_rate: config.tra_failure_rate,
            fault_seed: config.fault_seed,
            fault_epoch: 0,
            faults_injected: 0,
            site_buf: Vec::new(),
            run_buf: RunScratch::default(),
        }
    }

    /// Bit errors injected into TRA results so far (0 on a healthy device).
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected
    }

    /// Executes a site list on the device, in construction order, with
    /// [`run_sites`]. Bank-level parallelism lives on the simulated clock:
    /// each chunk's dependency chain starts at `start`, so chunks in
    /// different banks overlap in modeled time while the host replays
    /// them one after another.
    fn run_banked(&mut self, sites: &[SiteCmd], start: Cycle, n_chunks: usize) -> Result<Cycle> {
        if let Some(tel) = self.device.observer_mut().and_then(Observer::telemetry) {
            tel.count("ambit.ops", 0, 1);
            tel.count("ambit.sites", 0, sites.len() as u64);
            tel.observe(
                "ambit.chunk_width",
                0,
                pim_telemetry::POW2_BOUNDS,
                n_chunks as u64,
            );
        }
        let (end, faults) = run_sites(
            &mut self.device,
            sites,
            start,
            n_chunks,
            self.tra_failure_rate,
            self.fault_seed,
            &mut self.run_buf,
        )?;
        self.faults_injected += faults;
        Ok(end)
    }

    /// Fault rows for `cmd`, when fault injection is on: every row a TRA
    /// charge-shares (they all end up holding the possibly-corrupt
    /// majority), or the destination of a fused TRA-AAP.
    fn fault_rows_for(&self, cmd: &Command) -> FaultRows {
        let mut fr = FaultRows::default();
        if self.tra_failure_rate <= 0.0 {
            return fr;
        }
        match *cmd {
            Command::Tra { bank, rows } => {
                for &r in &rows {
                    fr.push(bank.row(r));
                }
            }
            Command::TraAap { bank, dst, .. } => fr.push(bank.row(dst)),
            _ => {}
        }
        fr
    }

    /// The device specification.
    pub fn spec(&self) -> &DramSpec {
        self.device.spec()
    }

    /// The current engine clock, in device cycles.
    pub fn clock(&self) -> Cycle {
        self.clock
    }

    /// Cumulative command counts since construction.
    pub fn counts(&self) -> &CommandCounts {
        self.device.counts()
    }

    /// Per-chunk completion cycles of the most recent row program
    /// ([`AmbitSystem::execute`], [`AmbitSystem::execute_maj`],
    /// [`AmbitSystem::copy`], [`AmbitSystem::fill`],
    /// [`AmbitSystem::execute_row_program`]): entry `c` is the
    /// cycle chunk `c`'s dependency chain finished (the operation's start
    /// cycle for untouched chunks). `pim-runtime` uses this to price each job of a
    /// coalesced dispatch as if it had run alone. Not updated by the
    /// analytic copy paths (`copy_psm` / `copy_lisa`).
    pub fn last_chunk_ends(&self) -> &[Cycle] {
        &self.run_buf.chunk_time
    }

    /// Prices a command-count delta with this system's energy model — the
    /// same pricing [`ExecReport::energy`] uses, exposed so callers that
    /// apportion one execution across jobs (runtime coalescing) can build
    /// per-job energy breakdowns that sum to the whole.
    pub fn price_commands(&self, counts: &CommandCounts) -> EnergyBreakdown {
        self.energy.energy_of(counts, 0, 0)
    }

    /// Enables or disables the batched-run issue fast path (on by
    /// default); per-command issue remains available for byte-for-byte
    /// equivalence checks.
    pub fn set_batch_issue(&mut self, enabled: bool) {
        self.device.set_batch_runs(enabled);
    }

    /// `true` if the batched-run issue path is enabled.
    pub fn batch_issue_enabled(&self) -> bool {
        self.device.batch_runs_enabled()
    }

    /// Commands issued through the batched-run fast path so far — the
    /// runtime's coalescing tests assert this advances when coalesced
    /// jobs execute. The count is cumulative; call
    /// [`AmbitSystem::reset_batched_commands`] between measurement windows.
    pub fn batched_commands(&self) -> u64 {
        self.device.batched_commands()
    }

    /// Resets the [`AmbitSystem::batched_commands`] diagnostic counter to
    /// zero. Purely diagnostic — execution, traces, and telemetry are
    /// unaffected. Use at the start of each measurement window.
    pub fn reset_batched_commands(&mut self) {
        self.device.reset_batched_commands();
    }

    /// Switches one projection of command observation on or off on the
    /// underlying device (see [`Observer`]).
    ///
    /// Every AAP/AP/TRA the engine issues is observed, in replay order;
    /// the trace and profile projections normalize at export. With
    /// telemetry on, the engine adds its operation, site and
    /// chunk-width series to the device's.
    pub fn observe(&mut self, projection: Projection, enabled: bool) {
        self.device.observe(projection, enabled);
    }

    /// The device's live observer, `None` while every projection is off:
    /// take projections from it, or record series next to the engine's
    /// through [`Observer::telemetry`].
    pub fn observer_mut(&mut self) -> Option<&mut Observer> {
        self.device.observer_mut()
    }

    /// Enables or disables command-trace capture: [`AmbitSystem::observe`]
    /// with [`Projection::Trace`].
    pub fn set_trace(&mut self, enabled: bool) {
        self.observe(Projection::Trace, enabled);
    }

    /// Takes the captured command trace (empty when capture is disabled).
    /// Records are in capture order; normalize before comparing
    /// (`pim-check`'s `Trace::capture` does this).
    pub fn take_trace(&mut self) -> Vec<pim_dram::TraceRecord> {
        self.observer_mut()
            .map(Observer::take_trace)
            .unwrap_or_default()
    }

    /// Bits held by one DRAM row (the chunk granularity).
    pub fn row_bits(&self) -> usize {
        self.device.spec().org.row_bits() as usize
    }

    /// Allocates a bulk vector of `len_bits`, striped across banks first
    /// (maximal bank-level parallelism), then subarrays.
    ///
    /// All vectors allocated from one system with the same length are
    /// chunk-by-chunk co-located, as Ambit's operand placement requires.
    ///
    /// # Errors
    ///
    /// [`AmbitError::OutOfRows`] when a subarray's data rows are exhausted;
    /// the rows already taken for earlier chunks are given back.
    pub fn alloc(&mut self, len_bits: usize) -> Result<BulkVec> {
        self.alloc_shifted(len_bits, 0)
    }

    /// Like [`AmbitSystem::alloc`] but placed `subarray_shift` subarrays
    /// away from the default arena — used to exercise *inter-subarray*
    /// mechanisms (LISA) that the co-locating allocator would otherwise
    /// never need.
    ///
    /// # Errors
    ///
    /// [`AmbitError::OutOfRows`] when a subarray's data rows are exhausted;
    /// the rows already taken for earlier chunks are given back.
    pub fn alloc_shifted(&mut self, len_bits: usize, subarray_shift: u32) -> Result<BulkVec> {
        let org = self.device.spec().org;
        let n_chunks = len_bits.div_ceil(self.row_bits()).max(1);
        let total_banks = org.total_banks() as usize;
        let mut vec = BulkVec {
            len_bits,
            rows: Vec::with_capacity(n_chunks),
        };
        for c in 0..n_chunks {
            let bank_flat = c % total_banks;
            let sa = ((c / total_banks) as u32 + subarray_shift) % org.subarrays;
            let ch = (bank_flat as u32) / (org.ranks * org.banks);
            let ra = ((bank_flat as u32) / org.banks) % org.ranks;
            let ba = (bank_flat as u32) % org.banks;
            let arena = self.arena_index(ch, ra, ba, sa);
            // The free list only holds rows handed out before, so an
            // untouched cursor marks the subarray's first allocation.
            let first = self.cursors[arena].next_data_row == 0;
            match self.take_data_row(arena, sa) {
                Ok(row) => vec.rows.push(RowId::new(ch, ra, ba, row)),
                Err(e) => {
                    self.free(vec);
                    return Err(e);
                }
            }
            // C1 is wired to all-ones at manufacture: fill it once, on the
            // subarray's first allocation, outside timing, energy and
            // observation. Programs resolve control rows only in allocated
            // subarrays and never write them, so every C1 read sees ones.
            if first {
                let c1 = RowId::new(ch, ra, ba, self.layout.special_row(sa, SpecialRow::C1));
                self.device.store_mut().fill_row(c1, u64::MAX);
            }
        }
        Ok(vec)
    }

    fn arena_index(&self, ch: u32, ra: u32, ba: u32, sa: u32) -> usize {
        let org = self.device.spec().org;
        (((ch * org.ranks + ra) * org.banks + ba) * org.subarrays + sa) as usize
    }

    fn take_data_row(&mut self, arena: usize, sa: u32) -> Result<u32> {
        let data_rows = self.layout.data_rows_per_subarray();
        let cursor = &mut self.cursors[arena];
        if let Some(row) = cursor.free.pop() {
            return Ok(row);
        }
        if cursor.next_data_row >= data_rows {
            return Err(AmbitError::OutOfRows {
                needed: cursor.next_data_row + 1,
                available: data_rows,
            });
        }
        let row = self.layout.data_row(sa, cursor.next_data_row);
        cursor.next_data_row += 1;
        Ok(row)
    }

    /// Returns a vector's rows to the allocator (deep query plans reclaim
    /// dead temporaries this way; `run_plan*` does it automatically via
    /// register liveness).
    pub fn free(&mut self, vec: BulkVec) {
        for row in vec.rows {
            let sa = self.layout.subarray_of(row.row);
            let arena = self.arena_index(row.channel, row.rank, row.bank, sa);
            self.cursors[arena].free.push(row.row);
        }
    }

    /// Writes bit-vector contents into the vector's rows (functional
    /// preload; not timed — the paper assumes operand data is DRAM-resident).
    ///
    /// # Errors
    ///
    /// [`AmbitError::LengthMismatch`] if `bits.len() != vec.len()`.
    pub fn write(&mut self, vec: &BulkVec, bits: &BitVec) -> Result<()> {
        if bits.len() != vec.len_bits {
            return Err(AmbitError::LengthMismatch {
                a: bits.len(),
                b: vec.len_bits,
            });
        }
        self.write_at(vec, 0, bits)
    }

    /// Writes `bits` into the vector's rows from chunk `chunk` on
    /// (functional and untimed, like [`AmbitSystem::write`]). The last
    /// row written is zero-filled past the payload; rows outside the range
    /// are left as they are.
    ///
    /// # Errors
    ///
    /// [`AmbitError::InvalidArgument`] if the payload runs past the
    /// vector's end; nothing is written then.
    pub fn write_at(&mut self, vec: &BulkVec, chunk: usize, bits: &BitVec) -> Result<()> {
        let rows = self.rows_at(vec, chunk, bits.len())?;
        let row_words = self.device.spec().org.row_bytes() as usize / 8;
        let words = bits.as_words();
        for (i, row) in rows.iter().enumerate() {
            let start = (i * row_words).min(words.len());
            let end = (start + row_words).min(words.len());
            // The store zero-fills the tail past the supplied slice.
            self.device
                .store_mut()
                .write_row_from(*row, &words[start..end]);
        }
        Ok(())
    }

    /// Reads the vector's contents back out (functional, untimed).
    pub fn read(&self, vec: &BulkVec) -> BitVec {
        self.read_at(vec, 0, vec.len_bits)
            .expect("a vector's own length spans its rows")
    }

    /// Reads `len_bits` bits from chunk `chunk` of the vector on into a
    /// fresh [`BitVec`] (functional, untimed).
    ///
    /// # Errors
    ///
    /// [`AmbitError::InvalidArgument`] if the range runs past the
    /// vector's end.
    pub fn read_at(&self, vec: &BulkVec, chunk: usize, len_bits: usize) -> Result<BitVec> {
        let rows = self.rows_at(vec, chunk, len_bits)?;
        let row_words = self.device.spec().org.row_bytes() as usize / 8;
        let n_words = len_bits.div_ceil(64);
        let mut words = Vec::with_capacity(n_words);
        for row in rows {
            let take = (n_words - words.len()).min(row_words);
            self.device.store().append_row(*row, take, &mut words);
        }
        Ok(BitVec::from_words(words, len_bits))
    }

    /// The rows a `len_bits`-long range from chunk `chunk` on spans (one
    /// at least), if the range ends within the vector.
    fn rows_at<'v>(&self, vec: &'v BulkVec, chunk: usize, len_bits: usize) -> Result<&'v [RowId]> {
        let row_bits = self.row_bits();
        let n = len_bits.div_ceil(row_bits).max(1);
        match vec.rows.get(chunk..chunk.saturating_add(n)) {
            Some(rows) if chunk * row_bits + len_bits <= vec.len_bits => Ok(rows),
            _ => Err(AmbitError::InvalidArgument(
                "row range runs past the vector's end",
            )),
        }
    }

    /// Issues *timed* host traffic over the vector's rows: per row one
    /// ACT, a full row of RD (or WR) bursts, and a PRE, all through the
    /// same per-channel/rank/bank timing state the PIM commands use.
    /// Commands issue in order as early as the channel allows (a memory
    /// controller streaming back-to-back), and the engine clock advances
    /// to the last completion — so host traffic interleaved with
    /// [`AmbitSystem::execute`] contends with bulk ops for the shared
    /// channels. This is the co-running-host-traffic model behind the
    /// scaling bench's interference ablation; [`AmbitSystem::read`] and
    /// [`AmbitSystem::write`] stay functional and untimed.
    ///
    /// # Errors
    ///
    /// [`AmbitError::Dram`] only on engine bugs (sequencing is valid by
    /// construction: each row is opened, streamed, and closed).
    pub fn host_stream(&mut self, vec: &BulkVec, write: bool) -> Result<ExecReport> {
        let start_counts = *self.device.counts();
        let start = self.clock;
        let columns = self.device.spec().org.columns;
        let mut t = start;
        let mut end = start;
        for row in &vec.rows {
            let (at, out) = self.device.issue_earliest(Command::Act(*row), t)?;
            (t, end) = (at, end.max(out.done));
            for col in 0..columns {
                let addr = DramAddr::new(row.channel, row.rank, row.bank, row.row, col);
                let cmd = if write {
                    Command::Wr(addr)
                } else {
                    Command::Rd(addr)
                };
                let (at, out) = self.device.issue_earliest(cmd, t)?;
                (t, end) = (at, end.max(out.done));
            }
            let (at, out) = self.device.issue_earliest(Command::Pre(row.bank_id()), t)?;
            (t, end) = (at, end.max(out.done));
        }
        self.clock = end;
        Ok(self.report(start, end, start_counts, byte_len(vec)))
    }

    fn check_colocated(&self, vecs: &[&BulkVec]) -> Result<()> {
        let first = vecs[0];
        for v in &vecs[1..] {
            if v.len_bits != first.len_bits {
                return Err(AmbitError::LengthMismatch {
                    a: first.len_bits,
                    b: v.len_bits,
                });
            }
            for (ra, rb) in first.rows.iter().zip(v.rows.iter()) {
                if ra.bank_id() != rb.bank_id()
                    || self.layout.subarray_of(ra.row) != self.layout.subarray_of(rb.row)
                {
                    return Err(AmbitError::NotColocated);
                }
            }
        }
        Ok(())
    }

    /// Executes one bulk bitwise operation entirely in DRAM.
    ///
    /// # Errors
    ///
    /// * [`AmbitError::WrongOperands`] if the operand count mismatches `op`.
    /// * [`AmbitError::LengthMismatch`] / [`AmbitError::NotColocated`] for
    ///   incompatible vectors.
    /// * [`AmbitError::InvalidArgument`] if the vectors span more chunks
    ///   than the device has (bank × subarray) arenas (see
    ///   [`AmbitSystem::execute_row_program`]).
    /// * [`AmbitError::Dram`] only on engine bugs (sequencing is validated).
    pub fn execute(
        &mut self,
        op: BulkOp,
        a: &BulkVec,
        b: Option<&BulkVec>,
        dst: &BulkVec,
    ) -> Result<ExecReport> {
        if op.is_unary() != b.is_none() {
            return Err(AmbitError::WrongOperands { op });
        }
        // The plane table `[a, b?, dst]`, stack-held — no per-call Vec.
        let storage = [a, b.unwrap_or(dst), dst];
        let planes = &storage[..2 + usize::from(b.is_some())];
        self.check_colocated(planes)?;
        self.run_program(program_for(op), planes, byte_len(dst))
    }

    fn resolve_slot(&self, slot: RowSlot, chunk: usize, planes: &[&BulkVec]) -> RowId {
        match slot {
            RowSlot::Plane(i) => planes[i as usize].rows[chunk],
            RowSlot::Special(s) => {
                let anchor = planes[0].rows[chunk];
                let sa = self.layout.subarray_of(anchor.row);
                anchor.bank_id().row(self.layout.special_row(sa, s))
            }
        }
    }

    fn row_command_for(&self, inst: &RowInst, chunk: usize, planes: &[&BulkVec]) -> Command {
        let bank: BankId = planes[0].rows[chunk].bank_id();
        match *inst {
            RowInst::Copy { src, dst, invert } => Command::Aap {
                src: self.resolve_slot(src, chunk, planes),
                dst: self.resolve_slot(dst, chunk, planes),
                invert,
            },
            RowInst::Tra { rows } => Command::Tra {
                bank,
                rows: [
                    self.resolve_slot(rows[0], chunk, planes).row,
                    self.resolve_slot(rows[1], chunk, planes).row,
                    self.resolve_slot(rows[2], chunk, planes).row,
                ],
            },
            RowInst::TraCopy { rows, dst, invert } => Command::TraAap {
                bank,
                rows: [
                    self.resolve_slot(rows[0], chunk, planes).row,
                    self.resolve_slot(rows[1], chunk, planes).row,
                    self.resolve_slot(rows[2], chunk, planes).row,
                ],
                dst: self.resolve_slot(dst, chunk, planes).row,
                invert,
            },
        }
    }

    /// Appends instruction `inst` — slot `op_idx` of the program about to
    /// run — bound to `chunk`'s rows of the plane table.
    fn push_site(
        &self,
        sites: &mut Vec<SiteCmd>,
        inst: &RowInst,
        op_idx: usize,
        chunk: usize,
        planes: &[&BulkVec],
    ) {
        let cmd = self.row_command_for(inst, chunk, planes);
        sites.push(SiteCmd {
            site: self.fault_epoch + op_idx as u64,
            chunk,
            fault_rows: self.fault_rows_for(&cmd),
            cmd,
        });
    }

    /// Runs `insts` over `planes` (already checked co-located), building
    /// the site list instruction-major / chunk-minor so every instruction
    /// becomes one batched run across all chunks.
    ///
    /// Rejects a program that writes a special row once the chunks
    /// outnumber the (bank × subarray) arenas: chunks would then share
    /// special rows, and one chunk's scratch state would overwrite
    /// another's between instructions.
    fn run_program(
        &mut self,
        insts: &[RowInst],
        planes: &[&BulkVec],
        bytes_out: u64,
    ) -> Result<ExecReport> {
        let n_chunks = planes[0].rows.len();
        let org = &self.device.spec().org;
        if n_chunks > (org.total_banks() * org.subarrays) as usize
            && insts
                .iter()
                .flat_map(RowInst::written)
                .any(|slot| matches!(slot, RowSlot::Special(_)))
        {
            return Err(AmbitError::InvalidArgument(
                "row program spans more chunks than bank x subarray arenas; \
                 special rows would alias across chunks",
            ));
        }
        self.replay(insts.len(), n_chunks, bytes_out, |sys, sites| {
            for (op_idx, inst) in insts.iter().enumerate() {
                for chunk in 0..n_chunks {
                    sys.push_site(sites, inst, op_idx, chunk, planes);
                }
            }
        })
    }

    /// The replay tail every row program shares: `build` fills the
    /// reusable site buffer, the sites replay from the current clock, the
    /// fault epoch advances by the program length, and the report prices
    /// the command delta with `bytes_out` bytes of output.
    fn replay(
        &mut self,
        program_len: usize,
        n_chunks: usize,
        bytes_out: u64,
        build: impl FnOnce(&Self, &mut Vec<SiteCmd>),
    ) -> Result<ExecReport> {
        let start_counts = *self.device.counts();
        let start = self.clock;
        let mut sites = std::mem::take(&mut self.site_buf);
        sites.clear();
        build(self, &mut sites);
        self.fault_epoch += program_len as u64;
        let end = self.run_banked(&sites, start, n_chunks);
        self.site_buf = sites;
        let end = end?;
        self.clock = end;
        Ok(self.report(start, end, start_counts, bytes_out))
    }

    /// Executes a compiled row-level program — a [`RowInst`] sequence such
    /// as the MAJ/NOT μprograms `pim-simd` emits — over a table of
    /// co-located plane vectors. `planes[i]` is what `RowSlot::Plane(i)`
    /// addresses; special rows resolve against the subarray each chunk
    /// lives in. This is the path the built-in bulk operations take too
    /// ([`AmbitSystem::execute`] runs [`program_for`] over `[a, b?, dst]`),
    /// so a compiled program rides the same batched issue fast path.
    ///
    /// The returned report's `bytes_out` is `0`: the engine cannot know
    /// which planes are the program's payload, so callers attribute output
    /// bytes themselves.
    ///
    /// # Errors
    ///
    /// * [`AmbitError::InvalidArgument`] if `planes` is empty, or if the
    ///   program writes a special row and the planes span more chunks than
    ///   the device has (bank × subarray) arenas — beyond that point two
    ///   chunks of one plane would share the same physical special rows,
    ///   and a program's scratch state would alias across chunks.
    /// * [`AmbitError::LengthMismatch`] / [`AmbitError::NotColocated`] for
    ///   incompatible plane vectors.
    /// * [`AmbitError::PlanInvalid`] if an instruction violates the row
    ///   discipline (see [`RowInst::validate`]).
    pub fn execute_row_program(
        &mut self,
        insts: &[RowInst],
        planes: &[&BulkVec],
    ) -> Result<ExecReport> {
        if planes.is_empty() {
            return Err(AmbitError::InvalidArgument("row program needs planes"));
        }
        self.check_colocated(planes)?;
        for inst in insts {
            inst.validate(planes.len())
                .map_err(AmbitError::PlanInvalid)?;
        }
        self.run_program(insts, planes, 0)
    }

    /// Bitwise majority of three vectors (`dst = MAJ(a, b, c)`) — the
    /// native TRA operation, one copy per operand plus one fused TRA-copy
    /// per chunk. This is the primitive that makes in-DRAM bit-serial
    /// arithmetic practical: a full adder's carry is `MAJ(a, b, cin)`.
    ///
    /// # Errors
    ///
    /// Same compatibility errors as [`AmbitSystem::execute`].
    pub fn execute_maj(
        &mut self,
        a: &BulkVec,
        b: &BulkVec,
        c: &BulkVec,
        dst: &BulkVec,
    ) -> Result<ExecReport> {
        let planes = [a, b, c, dst];
        self.check_colocated(&planes)?;
        let n_chunks = dst.rows.len();
        // Chunk-major, unlike `run_program`, for two reasons. The order is
        // pinned: instruction-major issue leaves the cycles unchanged but
        // reorders the normalized command trace of bit-serial adder plans
        // on both DDR3 and the HMC vault. And each chunk finishes its TRA
        // before the next chunk refills `T0..T2`, so the result stays
        // correct past the arena count, where chunks share special rows.
        self.replay(MAJ.len(), n_chunks, byte_len(dst), |sys, sites| {
            for chunk in 0..n_chunks {
                for (op_idx, inst) in MAJ.iter().enumerate() {
                    sys.push_site(sites, inst, op_idx, chunk, &planes);
                }
            }
        })
    }

    /// RowClone-FPM bulk copy (`dst = src`), one AAP per chunk.
    ///
    /// # Errors
    ///
    /// Same compatibility errors as [`AmbitSystem::execute`], except that
    /// any length is accepted (a copy writes no special row).
    pub fn copy(&mut self, src: &BulkVec, dst: &BulkVec) -> Result<ExecReport> {
        let planes = [src, dst];
        self.check_colocated(&planes)?;
        let program = [RowInst::Copy {
            src: RowSlot::Plane(0),
            dst: RowSlot::Plane(1),
            invert: false,
        }];
        self.run_program(&program, &planes, byte_len(dst))
    }

    /// Bulk initialization (`dst = 000…` or `111…`) by RowClone from the
    /// control rows, one AAP per chunk.
    ///
    /// # Errors
    ///
    /// [`AmbitError::Dram`] only on engine bugs.
    pub fn fill(&mut self, dst: &BulkVec, ones: bool) -> Result<ExecReport> {
        let control = if ones { SpecialRow::C1 } else { SpecialRow::C0 };
        let program = [RowInst::Copy {
            src: RowSlot::Special(control),
            dst: RowSlot::Plane(0),
            invert: false,
        }];
        self.run_program(&program, &[dst], byte_len(dst))
    }

    /// RowClone-PSM (pipelined serial mode) copy between banks: the row
    /// crosses the chip-internal bus column by column. Roughly `columns ×
    /// 2·tCCD` per row — an order of magnitude slower than FPM but still
    /// ~2× faster than going over the memory channel, and with no I/O
    /// energy.
    ///
    /// # Errors
    ///
    /// [`AmbitError::LengthMismatch`] if lengths differ.
    pub fn copy_psm(&mut self, src: &BulkVec, dst: &BulkVec) -> Result<ExecReport> {
        if src.len_bits != dst.len_bits {
            return Err(AmbitError::LengthMismatch {
                a: src.len_bits,
                b: dst.len_bits,
            });
        }
        let spec = self.device.spec().clone();
        let start = self.clock;
        let start_counts = *self.device.counts();
        let per_row =
            spec.timing.rcd + spec.org.columns as Cycle * spec.pim.psm_col_cycles + spec.timing.rp;
        // Chunks in distinct (src,dst) bank pairs overlap; model per-pair
        // serialization through the shared internal bus pessimistically as
        // full serialization per source bank.
        let mut bank_free: Vec<(BankId, Cycle)> = Vec::new();
        let mut end = start;
        for chunk in 0..dst.rows.len() {
            let (s, d) = (src.rows[chunk], dst.rows[chunk]);
            let ready = bank_free_get(&bank_free, s.bank_id(), start);
            let done = ready + per_row;
            bank_free_set(&mut bank_free, s.bank_id(), done);
            bank_free_set(&mut bank_free, d.bank_id(), done);
            end = end.max(done);
            self.device.store_mut().copy_row(s, d);
        }
        self.clock = end;
        let mut report = self.report(start, end, start_counts, byte_len(dst));
        // PSM energy: two activations per row plus internal column movement.
        let rows = dst.rows.len() as f64;
        let row_kb = spec.org.row_bytes() as f64 / 1024.0;
        report.energy.add_nj(
            pim_energy::Component::PimOp,
            rows * 2.0 * self.energy.act_pre_nj,
        );
        report.energy.add_nj(
            pim_energy::Component::DramColumn,
            rows * row_kb * (self.energy.rd_nj_per_kb + self.energy.wr_nj_per_kb),
        );
        Ok(report)
    }

    /// LISA copy (Chang et al., HPCA'16 — cited by the paper as the fast
    /// *inter-subarray* movement substrate): the row buffer hops between
    /// linked subarrays at ~8 ns per hop, so a cross-subarray copy costs
    /// roughly one AAP plus `hops x RBM`, far below PSM's column-by-column
    /// crawl. Rows must be in the same bank.
    ///
    /// # Errors
    ///
    /// [`AmbitError::LengthMismatch`] if lengths differ, or
    /// [`AmbitError::NotColocated`] if some chunk pair crosses banks.
    pub fn copy_lisa(&mut self, src: &BulkVec, dst: &BulkVec) -> Result<ExecReport> {
        if src.len_bits != dst.len_bits {
            return Err(AmbitError::LengthMismatch {
                a: src.len_bits,
                b: dst.len_bits,
            });
        }
        for (s, d) in src.rows.iter().zip(dst.rows.iter()) {
            if s.bank_id() != d.bank_id() {
                return Err(AmbitError::NotColocated);
            }
        }
        let spec = self.device.spec().clone();
        let rbm_cycles = spec.timing.ns_to_cycles(8.0);
        let start = self.clock;
        let start_counts = *self.device.counts();
        let mut bank_free: Vec<(BankId, Cycle)> = Vec::new();
        let mut end = start;
        let mut total_hops = 0u64;
        for chunk in 0..dst.rows.len() {
            let (s, d) = (src.rows[chunk], dst.rows[chunk]);
            let hops = (self.layout.subarray_of(s.row) as i64
                - self.layout.subarray_of(d.row) as i64)
                .unsigned_abs();
            total_hops += hops;
            let per_row = spec.pim.aap + hops * rbm_cycles;
            let ready = bank_free_get(&bank_free, s.bank_id(), start);
            let done = ready + per_row;
            bank_free_set(&mut bank_free, s.bank_id(), done);
            end = end.max(done);
            self.device.store_mut().copy_row(s, d);
        }
        self.clock = end;
        let mut report = self.report(start, end, start_counts, byte_len(dst));
        // Two activations per row plus a small per-hop buffer-drive cost.
        report.energy.add_nj(
            pim_energy::Component::PimOp,
            dst.rows.len() as f64 * 2.0 * self.energy.act_pre_nj + total_hops as f64 * 0.2,
        );
        Ok(report)
    }

    /// Executes a [`BitwisePlan`] in DRAM: inputs are loaded, every step
    /// runs as a bulk operation, and the output vector is read back.
    ///
    /// Returns the result plus the cost report for the bitwise work (data
    /// loading is untimed, matching the DRAM-resident-operand assumption).
    ///
    /// Dead temporaries are reclaimed by register liveness, so deep plans
    /// (bit-serial multipliers, wide scans) do not exhaust subarray rows.
    ///
    /// # Errors
    ///
    /// [`AmbitError::PlanInvalid`] for malformed plans, allocation and
    /// compatibility errors otherwise.
    pub fn run_plan(
        &mut self,
        plan: &BitwisePlan,
        inputs: &[&BitVec],
    ) -> Result<(BitVec, ExecReport)> {
        let (mut outs, report) = self.run_plan_multi(plan, inputs)?;
        Ok((outs.swap_remove(0), report))
    }

    /// Like [`AmbitSystem::run_plan`] but reads back *every* output
    /// register (multi-output plans such as bit-sliced adders).
    ///
    /// # Errors
    ///
    /// Same as [`AmbitSystem::run_plan`].
    pub fn run_plan_multi(
        &mut self,
        plan: &BitwisePlan,
        inputs: &[&BitVec],
    ) -> Result<(Vec<BitVec>, ExecReport)> {
        plan.validate().map_err(AmbitError::PlanInvalid)?;
        if inputs.len() != plan.inputs() {
            return Err(AmbitError::PlanInvalid(format!(
                "plan expects {} inputs, got {}",
                plan.inputs(),
                inputs.len()
            )));
        }
        let mut regs: Vec<Option<BulkVec>> = vec![None; plan.regs()];
        let result = self.run_plan_regs(plan, inputs, &mut regs);
        // Outputs (and any register a degenerate plan left alive) are dead
        // once read back, and every live register is dead once a step
        // fails; reclaim their rows so a long-lived engine can run an
        // unbounded stream of plans without exhausting subarrays.
        for v in regs.into_iter().flatten() {
            self.free(v);
        }
        result
    }

    /// The body of [`AmbitSystem::run_plan_multi`] over caller-owned
    /// registers, which the caller frees on success and error alike.
    fn run_plan_regs(
        &mut self,
        plan: &BitwisePlan,
        inputs: &[&BitVec],
        regs: &mut [Option<BulkVec>],
    ) -> Result<(Vec<BitVec>, ExecReport)> {
        let len = inputs.first().map_or(0, |v| v.len());

        // Register liveness: the step index after which each register is
        // dead and its rows can be reclaimed. Outputs never die.
        let mut last_use = vec![0usize; plan.regs()];
        for (i, step) in plan.steps().iter().enumerate() {
            let mut touch = |r: Reg| last_use[r.0] = i;
            match *step {
                PlanStep::Unary { a, .. } => touch(a),
                PlanStep::Binary { a, b, .. } => {
                    touch(a);
                    touch(b);
                }
                PlanStep::Const { .. } => {}
                PlanStep::Maj { a, b, c, .. } => {
                    touch(a);
                    touch(b);
                    touch(c);
                }
            }
        }
        let immortal: std::collections::HashSet<usize> =
            plan.outputs().iter().map(|o| o.0).collect();

        for (reg, bits) in regs.iter_mut().zip(inputs) {
            let v = reg.insert(self.alloc(len)?);
            self.write(v, bits)?;
        }
        let mut total: Option<ExecReport> = None;
        for (i, step) in plan.steps().iter().enumerate() {
            let dst_vec = self.alloc(len)?;
            let reg = |r: Reg| regs[r.0].as_ref().expect("validated plan");
            let report = match *step {
                PlanStep::Unary { a, .. } => self.execute(BulkOp::Not, reg(a), None, &dst_vec),
                PlanStep::Binary { op, a, b, .. } => {
                    self.execute(op, reg(a), Some(reg(b)), &dst_vec)
                }
                PlanStep::Const { ones, .. } => self.fill(&dst_vec, ones),
                PlanStep::Maj { a, b, c, .. } => self.execute_maj(reg(a), reg(b), reg(c), &dst_vec),
            };
            let report = match report {
                Ok(report) => report,
                Err(e) => {
                    self.free(dst_vec);
                    return Err(e);
                }
            };
            match &mut total {
                None => total = Some(report),
                Some(t) => t.merge_sequential(&report),
            }
            // A hand-built plan may redefine a register; its old value is
            // unreachable from here on.
            if let Some(old) = regs[step.dst().0].replace(dst_vec) {
                self.free(old);
            }
            // Reclaim registers whose last read was this step (but never
            // the value just written, even if a hand-built plan reuses the
            // register it read from).
            for (r, lu) in last_use.iter().enumerate() {
                if *lu == i && r != step.dst().0 && !immortal.contains(&r) {
                    if let Some(v) = regs[r].take() {
                        self.free(v);
                    }
                }
            }
        }
        let outs = plan
            .outputs()
            .iter()
            .map(|o| self.read(regs[o.0].as_ref().expect("validated plan defines outputs")))
            .collect();
        let report = total.unwrap_or(ExecReport {
            cycles: 0,
            ns: 0.0,
            commands: CommandCounts::new(),
            energy: EnergyBreakdown::new(),
            bytes_out: 0,
        });
        Ok((outs, report))
    }

    fn report(
        &self,
        start: Cycle,
        end: Cycle,
        start_counts: CommandCounts,
        bytes_out: u64,
    ) -> ExecReport {
        let delta = self.device.counts().since(&start_counts);
        let cycles = end - start;
        ExecReport {
            cycles,
            ns: self.device.spec().timing.cycles_to_ns(cycles),
            commands: delta,
            energy: self.energy.energy_of(&delta, 0, 0),
            bytes_out,
        }
    }

    /// Analytic per-op throughput (GB/s of output) for this device with all
    /// banks computing in parallel — the closed-form the measured numbers
    /// should approach for large vectors.
    pub fn analytic_throughput_gbps(&self, op: BulkOp) -> f64 {
        let spec = self.device.spec();
        let cycles: Cycle = program_for(op)
            .iter()
            .map(|inst| {
                if inst.is_aap_cost() {
                    spec.pim.aap
                } else {
                    spec.pim.tra
                }
            })
            .sum();
        let ns = spec.timing.cycles_to_ns(cycles);
        let banks = spec.org.total_banks() as f64;
        spec.org.row_bytes() as f64 * banks / ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn small_sys() -> AmbitSystem {
        AmbitSystem::new(AmbitConfig::ddr3())
    }

    fn rand_bits(len: usize, seed: u64) -> BitVec {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        BitVec::random(len, 0.5, &mut rng)
    }

    #[test]
    fn all_seven_ops_match_cpu_reference() {
        let mut sys = small_sys();
        let bits = sys.row_bits() * 3; // three chunks across banks
        let av = rand_bits(bits, 1);
        let bv = rand_bits(bits, 2);
        let a = sys.alloc(bits).unwrap();
        let b = sys.alloc(bits).unwrap();
        let out = sys.alloc(bits).unwrap();
        for op in BulkOp::ALL {
            sys.write(&a, &av).unwrap();
            sys.write(&b, &bv).unwrap();
            let report = if op.is_unary() {
                sys.execute(op, &a, None, &out).unwrap()
            } else {
                sys.execute(op, &a, Some(&b), &out).unwrap()
            };
            let expect = BitVec::apply(op, &av, (!op.is_unary()).then_some(&bv));
            assert_eq!(sys.read(&out), expect, "{op}");
            assert!(report.cycles > 0);
            assert!(report.energy.total_nj() > 0.0);
        }
    }

    #[test]
    fn last_chunk_ends_cover_every_chunk_and_peak_at_the_clock() {
        let mut sys = small_sys();
        let bits = sys.row_bits() * 3;
        let av = rand_bits(bits, 7);
        let bv = rand_bits(bits, 8);
        let a = sys.alloc(bits).unwrap();
        let b = sys.alloc(bits).unwrap();
        let out = sys.alloc(bits).unwrap();
        sys.write(&a, &av).unwrap();
        sys.write(&b, &bv).unwrap();
        let start = sys.clock();
        sys.execute(BulkOp::Nand, &a, Some(&b), &out).unwrap();
        let ends = sys.last_chunk_ends();
        assert_eq!(ends.len(), 3);
        assert!(ends.iter().all(|&e| e > start));
        assert_eq!(ends.iter().copied().max(), Some(sys.clock()));
    }

    #[test]
    fn operands_survive_execution() {
        let mut sys = small_sys();
        let bits = sys.row_bits();
        let av = rand_bits(bits, 3);
        let bv = rand_bits(bits, 4);
        let a = sys.alloc(bits).unwrap();
        let b = sys.alloc(bits).unwrap();
        let out = sys.alloc(bits).unwrap();
        sys.write(&a, &av).unwrap();
        sys.write(&b, &bv).unwrap();
        sys.execute(BulkOp::Xor, &a, Some(&b), &out).unwrap();
        assert_eq!(sys.read(&a), av, "input a clobbered");
        assert_eq!(sys.read(&b), bv, "input b clobbered");
    }

    #[test]
    fn sub_row_lengths_work() {
        let mut sys = small_sys();
        let bits = 1000; // far less than one row
        let av = rand_bits(bits, 5);
        let a = sys.alloc(bits).unwrap();
        let out = sys.alloc(bits).unwrap();
        sys.write(&a, &av).unwrap();
        sys.execute(BulkOp::Not, &a, None, &out).unwrap();
        assert_eq!(sys.read(&out), av.not());
    }

    #[test]
    fn bank_parallelism_speeds_up_large_vectors() {
        // 8 chunks over 8 banks should take barely longer than 1 chunk.
        let mut sys = small_sys();
        let one = sys.alloc(sys.row_bits()).unwrap();
        let one_out = sys.alloc(sys.row_bits()).unwrap();
        let av = rand_bits(sys.row_bits(), 6);
        sys.write(&one, &av).unwrap();
        let r1 = sys.execute(BulkOp::Not, &one, None, &one_out).unwrap();

        let mut sys8 = small_sys();
        let bits8 = sys8.row_bits() * 8;
        let big = sys8.alloc(bits8).unwrap();
        let big_out = sys8.alloc(bits8).unwrap();
        let av8 = rand_bits(bits8, 7);
        sys8.write(&big, &av8).unwrap();
        let r8 = sys8.execute(BulkOp::Not, &big, None, &big_out).unwrap();
        assert!(
            r8.cycles < r1.cycles * 2,
            "8-bank op ({}) must not cost much more than 1-bank ({})",
            r8.cycles,
            r1.cycles
        );
        assert!(r8.throughput_gbps() > 4.0 * r1.throughput_gbps());
    }

    #[test]
    fn measured_throughput_approaches_analytic() {
        let mut sys = small_sys();
        let bits = sys.row_bits() * 64; // 8 rounds over 8 banks
        let av = rand_bits(bits, 8);
        let bv = rand_bits(bits, 9);
        let a = sys.alloc(bits).unwrap();
        let b = sys.alloc(bits).unwrap();
        let out = sys.alloc(bits).unwrap();
        sys.write(&a, &av).unwrap();
        sys.write(&b, &bv).unwrap();
        let report = sys.execute(BulkOp::And, &a, Some(&b), &out).unwrap();
        let analytic = sys.analytic_throughput_gbps(BulkOp::And);
        let ratio = report.throughput_gbps() / analytic;
        assert!(
            (0.7..=1.05).contains(&ratio),
            "measured {:.1} vs analytic {:.1} GB/s",
            report.throughput_gbps(),
            analytic
        );
        // Ambit-on-DDR3 AND with 8 banks lands in the ~100s of GB/s.
        assert!(report.throughput_gbps() > 100.0);
    }

    #[test]
    fn and_energy_matches_calibration() {
        let mut sys = small_sys();
        let bits = sys.row_bits() * 8;
        let a = sys.alloc(bits).unwrap();
        let b = sys.alloc(bits).unwrap();
        let out = sys.alloc(bits).unwrap();
        sys.write(&a, &rand_bits(bits, 10)).unwrap();
        sys.write(&b, &rand_bits(bits, 11)).unwrap();
        let report = sys.execute(BulkOp::And, &a, Some(&b), &out).unwrap();
        // Ambit paper Table 4: AND ~3.2 nJ/KB. Our fused TRA-AAP charges
        // slightly less than 2 full activations, so allow a band.
        let nj_kb = report.nj_per_kb();
        assert!((2.5..4.5).contains(&nj_kb), "AND energy {nj_kb} nJ/KB");
    }

    #[test]
    fn copy_is_one_aap_per_row() {
        let mut sys = small_sys();
        let bits = sys.row_bits() * 4;
        let src = sys.alloc(bits).unwrap();
        let dst = sys.alloc(bits).unwrap();
        let data = rand_bits(bits, 12);
        sys.write(&src, &data).unwrap();
        let report = sys.copy(&src, &dst).unwrap();
        assert_eq!(sys.read(&dst), data);
        assert_eq!(report.commands.count(pim_dram::CommandKind::Aap), 4);
        // 4 chunks over 4 different banks: wall-clock ~= one AAP.
        assert_eq!(report.cycles, sys.spec().pim.aap);
    }

    #[test]
    fn fill_uses_control_rows() {
        let mut sys = small_sys();
        let bits = sys.row_bits() * 2;
        let dst = sys.alloc(bits).unwrap();
        sys.fill(&dst, true).unwrap();
        assert_eq!(sys.read(&dst).count_ones() as usize, bits);
        sys.fill(&dst, false).unwrap();
        assert_eq!(sys.read(&dst).count_ones(), 0);
    }

    #[test]
    fn psm_copy_works_and_is_slower_than_fpm() {
        let mut sys = small_sys();
        let bits = sys.row_bits() * 2;
        let src = sys.alloc(bits).unwrap();
        let dst = sys.alloc(bits).unwrap();
        let data = rand_bits(bits, 13);
        sys.write(&src, &data).unwrap();
        let fpm = sys.copy(&src, &dst).unwrap();
        sys.write(&dst, &BitVec::zeros(bits)).unwrap();
        let psm = sys.copy_psm(&src, &dst).unwrap();
        assert_eq!(sys.read(&dst), data);
        assert!(
            psm.cycles > 3 * fpm.cycles,
            "PSM ({}) must be much slower than FPM ({})",
            psm.cycles,
            fpm.cycles
        );
    }

    #[test]
    fn lisa_copies_across_subarrays_between_fpm_and_psm() {
        let mut sys = small_sys();
        let bits = sys.row_bits() * 2;
        let src = sys.alloc(bits).unwrap();
        let near = sys.alloc(bits).unwrap(); // same subarray -> FPM
        let far = sys.alloc_shifted(bits, 4).unwrap(); // 4 subarrays away
        let data = rand_bits(bits, 40);
        sys.write(&src, &data).unwrap();

        let fpm = sys.copy(&src, &near).unwrap();
        let lisa = sys.copy_lisa(&src, &far).unwrap();
        assert_eq!(sys.read(&far), data, "LISA copy must be bit-exact");
        sys.write(&far, &BitVec::zeros(bits)).unwrap();
        let psm = sys.copy_psm(&src, &far).unwrap();
        assert_eq!(sys.read(&far), data);

        assert!(lisa.cycles > fpm.cycles, "LISA pays per-hop RBM time");
        assert!(
            lisa.cycles * 5 < psm.cycles,
            "LISA ({}) must be far below PSM ({})",
            lisa.cycles,
            psm.cycles
        );
    }

    #[test]
    fn lisa_rejects_cross_bank_pairs() {
        // Shift by one *bank* via a hand-built mismatch: vectors of
        // different chunk counts land in different banks chunk-by-chunk.
        let mut sys = small_sys();
        let a = sys.alloc(sys.row_bits()).unwrap();
        let b = sys.alloc(sys.row_bits() * 2).unwrap();
        assert!(matches!(
            sys.copy_lisa(&a, &b),
            Err(AmbitError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn run_plan_matches_cpu_eval() {
        use pim_workloads::PlanBuilder;
        let mut sys = small_sys();
        let len = sys.row_bits();
        let av = rand_bits(len, 14);
        let bv = rand_bits(len, 15);
        let mut pb = PlanBuilder::new(2);
        let x = pb.input(0);
        let y = pb.input(1);
        let nx = pb.not(x);
        let t = pb.binary(BulkOp::And, nx, y);
        let ones = pb.constant(true);
        let out = pb.binary(BulkOp::Xor, t, ones);
        let plan = pb.finish(out);
        let (got, report) = sys.run_plan(&plan, &[&av, &bv]).unwrap();
        assert_eq!(got, plan.eval_cpu(&[&av, &bv]));
        assert!(report.cycles > 0);
        assert!(report.commands.total() > 0);
    }

    #[test]
    fn execute_maj_is_one_tra_per_chunk() {
        let mut sys = small_sys();
        let bits = sys.row_bits() * 2;
        let (av, bv, cv) = (
            rand_bits(bits, 30),
            rand_bits(bits, 31),
            rand_bits(bits, 32),
        );
        let a = sys.alloc(bits).unwrap();
        let b = sys.alloc(bits).unwrap();
        let c = sys.alloc(bits).unwrap();
        let out = sys.alloc(bits).unwrap();
        sys.write(&a, &av).unwrap();
        sys.write(&b, &bv).unwrap();
        sys.write(&c, &cv).unwrap();
        let report = sys.execute_maj(&a, &b, &c, &out).unwrap();
        let got = sys.read(&out);
        for i in 0..bits {
            let (x, y, z) = (av.get(i), bv.get(i), cv.get(i));
            assert_eq!(got.get(i), (x & y) | (y & z) | (x & z), "bit {i}");
        }
        // 3 copies + 1 fused TRA-copy per chunk — same cost as an AND.
        assert_eq!(report.commands.count(pim_dram::CommandKind::Aap), 6);
        assert_eq!(report.commands.count(pim_dram::CommandKind::TraAap), 2);
    }

    #[test]
    fn wrong_operand_counts_rejected() {
        let mut sys = small_sys();
        let v = sys.alloc(64).unwrap();
        let o = sys.alloc(64).unwrap();
        assert!(matches!(
            sys.execute(BulkOp::And, &v, None, &o),
            Err(AmbitError::WrongOperands { .. })
        ));
        let b = sys.alloc(64).unwrap();
        assert!(matches!(
            sys.execute(BulkOp::Not, &v, Some(&b), &o),
            Err(AmbitError::WrongOperands { .. })
        ));
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut sys = small_sys();
        let a = sys.alloc(64).unwrap();
        let b = sys.alloc(sys.row_bits() * 2).unwrap();
        let o = sys.alloc(64).unwrap();
        assert!(matches!(
            sys.execute(BulkOp::And, &a, Some(&b), &o),
            Err(AmbitError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn write_length_mismatch_rejected() {
        let mut sys = small_sys();
        let a = sys.alloc(128).unwrap();
        let bits = BitVec::zeros(64);
        assert!(matches!(
            sys.write(&a, &bits),
            Err(AmbitError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn allocation_exhausts_gracefully() {
        // Shrink to a tiny device: 1 bank, 1 subarray's worth of rows.
        let mut spec = DramSpec::ddr3_1600();
        spec.org.banks = 1;
        spec.org.channels = 1;
        spec.org.subarrays = 1;
        spec.org.rows = 16;
        let cfg = AmbitConfig {
            spec,
            ..AmbitConfig::ddr3()
        };
        let mut sys = AmbitSystem::new(cfg);
        // 8 data rows available (16 - 8 reserved).
        for _ in 0..8 {
            sys.alloc(1).unwrap();
        }
        assert!(matches!(sys.alloc(1), Err(AmbitError::OutOfRows { .. })));
    }

    #[test]
    fn xor_costs_more_than_and() {
        let mut sys = small_sys();
        let bits = sys.row_bits();
        let a = sys.alloc(bits).unwrap();
        let b = sys.alloc(bits).unwrap();
        let o = sys.alloc(bits).unwrap();
        sys.write(&a, &rand_bits(bits, 16)).unwrap();
        sys.write(&b, &rand_bits(bits, 17)).unwrap();
        let and = sys.execute(BulkOp::And, &a, Some(&b), &o).unwrap();
        let xor = sys.execute(BulkOp::Xor, &a, Some(&b), &o).unwrap();
        assert!(xor.cycles > 2 * and.cycles);
        assert!(xor.energy.total_nj() > and.energy.total_nj());
    }

    #[test]
    fn fault_injection_corrupts_results_at_high_variation() {
        let mut cfg = AmbitConfig::ddr3();
        cfg.tra_failure_rate = 0.01; // 1% per bit: clearly broken hardware
        cfg.fault_seed = 9;
        let mut sys = AmbitSystem::new(cfg);
        let bits = sys.row_bits();
        let av = rand_bits(bits, 50);
        let bv = rand_bits(bits, 51);
        let a = sys.alloc(bits).unwrap();
        let b = sys.alloc(bits).unwrap();
        let out = sys.alloc(bits).unwrap();
        sys.write(&a, &av).unwrap();
        sys.write(&b, &bv).unwrap();
        sys.execute(BulkOp::And, &a, Some(&b), &out).unwrap();
        let expect = av.binary(BulkOp::And, &bv);
        assert_ne!(sys.read(&out), expect, "1% TRA failures must corrupt a row");
        assert!(sys.faults_injected() > 0);
    }

    #[test]
    fn realistic_variation_keeps_results_exact() {
        // The analog model at nominal variation yields a negligible rate;
        // a whole row of ANDs still comes out bit-exact.
        let cfg = AmbitConfig::ddr3().with_variation(&crate::analog::AnalogConfig::ddr3(), 20_000);
        assert!(
            cfg.tra_failure_rate < 1e-3,
            "nominal rate {}",
            cfg.tra_failure_rate
        );
        let mut sys = AmbitSystem::new(cfg);
        let bits = sys.row_bits();
        let av = rand_bits(bits, 52);
        let bv = rand_bits(bits, 53);
        let a = sys.alloc(bits).unwrap();
        let b = sys.alloc(bits).unwrap();
        let out = sys.alloc(bits).unwrap();
        sys.write(&a, &av).unwrap();
        sys.write(&b, &bv).unwrap();
        sys.execute(BulkOp::Or, &a, Some(&b), &out).unwrap();
        assert_eq!(sys.read(&out), av.binary(BulkOp::Or, &bv));
    }

    #[test]
    fn special_row_aliasing_past_the_arena_count_is_rejected() {
        // One chunk more than the vault's bank x subarray arenas: chunks 0
        // and 256 share a subarray's special rows, so an instruction-major
        // program that writes them would mix the two chunks' temporaries.
        let mut sys = AmbitSystem::new(AmbitConfig::hmc_vault());
        let org = sys.spec().org;
        let chunks = (org.total_banks() * org.subarrays) as usize + 1;
        assert_eq!(chunks, 257);
        let bits = sys.row_bits() * chunks;
        let (av, bv, cv) = (
            rand_bits(bits, 60),
            rand_bits(bits, 61),
            rand_bits(bits, 62),
        );
        let [a, b, c, out] = [(); 4].map(|_| sys.alloc(bits).unwrap());
        sys.write(&a, &av).unwrap();
        sys.write(&b, &bv).unwrap();
        sys.write(&c, &cv).unwrap();
        for op in BulkOp::ALL {
            let res = sys.execute(op, &a, (!op.is_unary()).then_some(&b), &out);
            assert!(
                matches!(res, Err(AmbitError::InvalidArgument(_))),
                "{op}: {res:?}"
            );
        }
        // MAJ runs chunk-major; copy and fill write no special row.
        sys.execute_maj(&a, &b, &c, &out).unwrap();
        let got = sys.read(&out);
        for i in 0..bits {
            let (x, y, z) = (av.get(i), bv.get(i), cv.get(i));
            assert_eq!(got.get(i), (x & y) | (y & z) | (x & z), "MAJ bit {i}");
        }
        sys.copy(&b, &out).unwrap();
        assert_eq!(sys.read(&out), bv);
        sys.fill(&out, true).unwrap();
        assert_eq!(sys.read(&out).count_ones() as usize, bits);
        sys.fill(&out, false).unwrap();
        assert_eq!(sys.read(&out).count_ones(), 0);
    }

    #[test]
    fn report_display_and_merge() {
        let mut sys = small_sys();
        let bits = sys.row_bits();
        let a = sys.alloc(bits).unwrap();
        let o = sys.alloc(bits).unwrap();
        sys.write(&a, &rand_bits(bits, 18)).unwrap();
        let mut r1 = sys.execute(BulkOp::Not, &a, None, &o).unwrap();
        let r2 = sys.execute(BulkOp::Not, &a, None, &o).unwrap();
        let c1 = r1.cycles;
        r1.merge_sequential(&r2);
        assert_eq!(r1.cycles, c1 + r2.cycles);
        assert!(!format!("{r1}").is_empty());
    }

    /// Runs the three operations that read `C1` (`Or`, `Nor`, `fill(ones)`)
    /// on fresh operands and checks each against the `BitVec` reference.
    fn assert_c1_readers_exact(sys: &mut AmbitSystem, a: &BulkVec, b: &BulkVec, out: &BulkVec) {
        let bits = a.len();
        let (av, bv) = (rand_bits(bits, 21), rand_bits(bits, 22));
        sys.write(a, &av).unwrap();
        sys.write(b, &bv).unwrap();
        for op in [BulkOp::Or, BulkOp::Nor] {
            sys.execute(op, a, Some(b), out).unwrap();
            assert_eq!(sys.read(out), av.binary(op, &bv), "{op:?}");
        }
        sys.fill(out, true).unwrap();
        assert_eq!(sys.read(out), BitVec::ones(bits));
    }

    #[test]
    fn c1_rows_materialize_only_in_allocated_subarrays() {
        let spec = DramSpec::ddr3_1600().with_org(4, 4, 16).unwrap();
        let org = spec.org;
        let mut sys = AmbitSystem::new(AmbitConfig {
            spec,
            ..AmbitConfig::ddr3()
        });
        assert_eq!(sys.device.store().allocated_rows(), 0);
        // One row round: one chunk in subarray 0 of each of the 256 banks.
        let bits = sys.row_bits() * org.total_banks() as usize;
        let a = sys.alloc(bits).unwrap();
        let b = sys.alloc(bits).unwrap();
        let out = sys.alloc(bits).unwrap();
        sys.execute(BulkOp::Or, &a, Some(&b), &out).unwrap();
        let mut c1_rows = 0;
        for bank in 0..org.total_banks() {
            let (ch, ra, ba) = (
                bank / (org.ranks * org.banks),
                (bank / org.banks) % org.ranks,
                bank % org.banks,
            );
            for sa in 0..org.subarrays {
                let c1 = RowId::new(ch, ra, ba, sys.layout.special_row(sa, SpecialRow::C1));
                match sys.device.store().row(c1) {
                    Some(words) => {
                        assert_eq!(sa, 0, "C1 of untouched subarray {sa} in bank {bank}");
                        assert!(words.iter().all(|&w| w == u64::MAX));
                        c1_rows += 1;
                    }
                    None => assert_ne!(sa, 0, "C1 of touched bank {bank} never filled"),
                }
            }
        }
        assert_eq!(c1_rows, 256);
    }

    #[test]
    fn c1_readers_stay_exact_off_the_default_allocation_path() {
        // Two and a half row rounds from subarray 5: chunks reach the
        // never-touched subarrays 5, 6 and 7 of every bank.
        let mut sys = small_sys();
        let bits = sys.row_bits() * sys.spec().org.total_banks() as usize * 2 + 100;
        let a = sys.alloc_shifted(bits, 5).unwrap();
        let b = sys.alloc_shifted(bits, 5).unwrap();
        let out = sys.alloc_shifted(bits, 5).unwrap();
        assert_c1_readers_exact(&mut sys, &a, &b, &out);

        // Freed rows come back from the free list, not the cursor.
        let mut rows = [a.rows.clone(), b.rows.clone(), out.rows.clone()].concat();
        rows.sort_unstable_by_key(|r| (r.bank_id(), r.row));
        for v in [a, b, out] {
            sys.free(v);
        }
        let a = sys.alloc_shifted(bits, 5).unwrap();
        let b = sys.alloc_shifted(bits, 5).unwrap();
        let out = sys.alloc_shifted(bits, 5).unwrap();
        let mut reused = [a.rows.clone(), b.rows.clone(), out.rows.clone()].concat();
        reused.sort_unstable_by_key(|r| (r.bank_id(), r.row));
        assert_eq!(reused, rows);
        assert_c1_readers_exact(&mut sys, &a, &b, &out);

        // A clone taken before any allocation fills its own C1 rows, and
        // the original still fills its own afterwards.
        let mut fresh = small_sys();
        let mut twin = fresh.clone();
        let bits = sys.row_bits() * 3;
        let a = twin.alloc(bits).unwrap();
        let b = twin.alloc(bits).unwrap();
        let out = twin.alloc(bits).unwrap();
        assert_c1_readers_exact(&mut twin, &a, &b, &out);
        assert_eq!(fresh.device.store().allocated_rows(), 0);
        let a = fresh.alloc(bits).unwrap();
        let b = fresh.alloc(bits).unwrap();
        let out = fresh.alloc(bits).unwrap();
        assert_c1_readers_exact(&mut fresh, &a, &b, &out);
    }

    #[test]
    fn write_at_read_at_round_trip_at_a_chunk_offset() {
        let mut sys = small_sys();
        let row_bits = sys.row_bits();
        let v = sys.alloc(row_bits * 4).unwrap();
        // Starts at chunk 1, ends 77 bits into chunk 2.
        let payload = rand_bits(row_bits + 77, 3);
        sys.write_at(&v, 1, &payload).unwrap();
        assert_eq!(sys.read_at(&v, 1, payload.len()).unwrap(), payload);
        // Rows outside the range are untouched; the tail is zero.
        let all = sys.read(&v);
        for i in (0..row_bits).chain(row_bits * 2 + 77..row_bits * 4) {
            assert!(!all.get(i), "bit {i} outside the payload");
        }
        for i in 0..payload.len() {
            assert_eq!(all.get(row_bits + i), payload.get(i), "bit {i}");
        }
    }

    #[test]
    fn short_write_at_zero_fills_a_dirty_row_tail() {
        let mut sys = small_sys();
        let row_bits = sys.row_bits();
        let v = sys.alloc(row_bits * 2).unwrap();
        sys.write(&v, &BitVec::ones(row_bits * 2)).unwrap();
        let payload = rand_bits(100, 4);
        sys.write_at(&v, 0, &payload).unwrap();
        let mut expect = BitVec::zeros(row_bits);
        for i in 0..payload.len() {
            expect.set(i, payload.get(i));
        }
        assert_eq!(sys.read_at(&v, 0, row_bits).unwrap(), expect);
        // The next row keeps its ones.
        assert_eq!(
            sys.read_at(&v, 1, row_bits).unwrap(),
            BitVec::ones(row_bits)
        );
    }

    #[test]
    fn out_of_range_write_at_is_an_error_and_writes_nothing() {
        let mut sys = small_sys();
        let row_bits = sys.row_bits();
        let v = sys.alloc(row_bits * 2 - 10).unwrap();
        let before = rand_bits(v.len(), 5);
        sys.write(&v, &before).unwrap();
        let rows = sys.device.store().allocated_rows();
        let cases = [
            (0, row_bits * 2), // past the length, within the last row
            (1, row_bits),     // the same from chunk 1
            (1, row_bits + 1), // one row past the last
            (2, 0),            // an empty payload past the last row
            (usize::MAX, 1),   // an offset that overflows
        ];
        for (chunk, len) in cases {
            let res = sys.write_at(&v, chunk, &BitVec::ones(len));
            assert!(
                matches!(res, Err(AmbitError::InvalidArgument(_))),
                "write_at({chunk}, {len})"
            );
            assert!(
                sys.read_at(&v, chunk, len).is_err(),
                "read_at({chunk}, {len})"
            );
        }
        assert_eq!(sys.read(&v), before);
        assert_eq!(sys.device.store().allocated_rows(), rows);
    }
}
