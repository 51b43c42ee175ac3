//! Device specifications: timing parameters, organization, and presets.
//!
//! A [`DramSpec`] bundles the electrical timing constraints ([`Timing`]) with
//! the physical organization ([`Organization`]) of a device, plus the timing
//! extensions needed for in-DRAM computation ([`PimTiming`], used by the
//! `pim-ambit` crate).
//!
//! All timing fields are in memory-clock cycles; [`Timing::t_ck_ps`] gives the
//! clock period so callers can convert to wall-clock time.

use crate::types::{BankId, Cycle};
use std::fmt;

/// DRAM timing constraints, in memory-clock cycles.
///
/// Field names follow the JEDEC convention without the leading `t` and in
/// lowercase (`rcd` is tRCD, `faw` is tFAW, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Timing {
    /// Clock period in picoseconds (e.g. 1250 for DDR3-1600).
    pub t_ck_ps: u64,
    /// CAS latency (read command to first data).
    pub cl: Cycle,
    /// CAS write latency.
    pub cwl: Cycle,
    /// ACT to internal read/write delay (tRCD).
    pub rcd: Cycle,
    /// PRE to ACT delay (tRP).
    pub rp: Cycle,
    /// ACT to PRE minimum (tRAS).
    pub ras: Cycle,
    /// ACT to ACT same bank (tRC = tRAS + tRP).
    pub rc: Cycle,
    /// Write recovery time (tWR).
    pub wr: Cycle,
    /// Write-to-read turnaround (tWTR).
    pub wtr: Cycle,
    /// Read-to-precharge (tRTP).
    pub rtp: Cycle,
    /// Column-to-column delay (tCCD).
    pub ccd: Cycle,
    /// ACT-to-ACT different bank, same rank (tRRD).
    pub rrd: Cycle,
    /// Four-activate window (tFAW).
    pub faw: Cycle,
    /// Refresh cycle time (tRFC).
    pub rfc: Cycle,
    /// Average refresh interval (tREFI).
    pub refi: Cycle,
    /// Burst length in bus beats (8 for DDR3/DDR4).
    pub bl: u32,
}

impl Timing {
    /// Bus occupancy of one burst, in cycles (BL/2 for DDR).
    pub const fn burst_cycles(&self) -> Cycle {
        (self.bl / 2) as Cycle
    }

    /// Converts a cycle count to nanoseconds.
    ///
    /// # Examples
    ///
    /// ```
    /// use pim_dram::DramSpec;
    /// let t = DramSpec::ddr3_1600().timing;
    /// assert!((t.cycles_to_ns(8) - 10.0).abs() < 1e-9); // 8 * 1.25ns
    /// ```
    pub fn cycles_to_ns(&self, cycles: Cycle) -> f64 {
        cycles as f64 * self.t_ck_ps as f64 / 1000.0
    }

    /// Converts nanoseconds to cycles, rounding up.
    pub fn ns_to_cycles(&self, ns: f64) -> Cycle {
        (ns * 1000.0 / self.t_ck_ps as f64).ceil() as Cycle
    }

    /// Memory-clock frequency in MHz.
    pub fn freq_mhz(&self) -> f64 {
        1.0e6 / self.t_ck_ps as f64
    }

    /// Validates internal consistency of the timing set.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated relation (e.g. `rc` less
    /// than `ras + rp`).
    pub fn validate(&self) -> Result<(), String> {
        if self.t_ck_ps == 0 {
            return Err("t_ck_ps must be nonzero".into());
        }
        if self.rc < self.ras + self.rp {
            return Err(format!(
                "rc ({}) must be >= ras + rp ({})",
                self.rc,
                self.ras + self.rp
            ));
        }
        if self.bl == 0 || !self.bl.is_multiple_of(2) {
            return Err(format!(
                "burst length must be a nonzero multiple of 2, got {}",
                self.bl
            ));
        }
        if self.faw < self.rrd {
            return Err(format!("faw ({}) must be >= rrd ({})", self.faw, self.rrd));
        }
        if self.refi <= self.rfc {
            return Err(format!(
                "refi ({}) must exceed rfc ({})",
                self.refi, self.rfc
            ));
        }
        Ok(())
    }
}

/// Physical organization of the memory attached to one controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Organization {
    /// Number of independent channels.
    pub channels: u32,
    /// Ranks per channel.
    pub ranks: u32,
    /// Banks per rank.
    pub banks: u32,
    /// Subarrays per bank (used by RowClone-FPM / Ambit row groups).
    pub subarrays: u32,
    /// Rows per bank.
    pub rows: u32,
    /// Columns (bursts) per row.
    pub columns: u32,
    /// Data-bus width of the channel, in bits (64 for a DIMM).
    pub bus_bits: u32,
    /// Burst length in beats (must match [`Timing::bl`]).
    pub bl: u32,
}

impl Organization {
    /// Bytes transferred by one burst (one column access).
    ///
    /// For a 64-bit bus with BL8 this is the familiar 64-byte cache line.
    pub const fn burst_bytes(&self) -> u64 {
        (self.bus_bits as u64 / 8) * self.bl as u64
    }

    /// Size of one row, in bytes.
    pub const fn row_bytes(&self) -> u64 {
        self.columns as u64 * self.burst_bytes()
    }

    /// Size of one row, in bits.
    pub const fn row_bits(&self) -> u64 {
        self.row_bytes() * 8
    }

    /// Rows per subarray.
    pub const fn rows_per_subarray(&self) -> u32 {
        self.rows / self.subarrays
    }

    /// Total capacity across all channels, in bytes.
    pub const fn capacity_bytes(&self) -> u64 {
        self.channels as u64
            * self.ranks as u64
            * self.banks as u64
            * self.rows as u64
            * self.row_bytes()
    }

    /// Total number of banks across all channels and ranks.
    pub const fn total_banks(&self) -> u32 {
        self.channels * self.ranks * self.banks
    }

    /// Flat index of `(channel, rank)` across the device: `channel * ranks
    /// + rank`.
    pub fn flat_rank_index(&self, (channel, rank): (u32, u32)) -> u32 {
        channel * self.ranks + rank
    }

    /// Flat index of `bank` across the device: `(channel * ranks + rank) *
    /// banks + bank` — the per-bank telemetry instance and profiling lane.
    pub fn flat_bank_index(&self, bank: BankId) -> u32 {
        self.flat_rank_index((bank.channel, bank.rank)) * self.banks + bank.bank
    }

    /// Validates the organization.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field (zero counts,
    /// non-power-of-two dimensions, or `rows` not divisible by `subarrays`).
    pub fn validate(&self) -> Result<(), String> {
        let dims: [(u32, &str); 7] = [
            (self.channels, "channels"),
            (self.ranks, "ranks"),
            (self.banks, "banks"),
            (self.subarrays, "subarrays"),
            (self.rows, "rows"),
            (self.columns, "columns"),
            (self.bus_bits, "bus_bits"),
        ];
        for (v, name) in dims {
            if v == 0 {
                return Err(format!("{name} must be nonzero"));
            }
            if !v.is_power_of_two() {
                return Err(format!("{name} must be a power of two, got {v}"));
            }
        }
        if !self.rows.is_multiple_of(self.subarrays) {
            return Err(format!(
                "rows ({}) must be divisible by subarrays ({})",
                self.rows, self.subarrays
            ));
        }
        if !self.bus_bits.is_multiple_of(8) {
            return Err(format!(
                "bus_bits ({}) must be a multiple of 8",
                self.bus_bits
            ));
        }
        Ok(())
    }
}

/// Timing extensions for in-DRAM computation commands.
///
/// These model the Ambit/RowClone command latencies:
///
/// * `AP` — `ACTIVATE` followed by `PRECHARGE`: one full row cycle.
/// * `AAP` — back-to-back `ACTIVATE`s of two rows followed by `PRECHARGE`
///   (the RowClone-FPM copy primitive): roughly two `tRAS` plus one `tRP`.
/// * `TRA` — triple-row activation (Ambit majority operation), charged as a
///   single row cycle because the three rows are activated simultaneously.
/// * `psm_col_cycles` — per-column cost of RowClone-PSM (inter-bank copy over
///   the shared internal bus), two column commands' worth of bus time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct PimTiming {
    /// Latency of one AP primitive, in cycles.
    pub ap: Cycle,
    /// Latency of one AAP primitive, in cycles.
    pub aap: Cycle,
    /// Latency of one triple-row activation (plus precharge), in cycles.
    pub tra: Cycle,
    /// Per-column cycles for RowClone-PSM inter-bank transfer.
    pub psm_col_cycles: Cycle,
    /// Whether PIM activations (AAP/AP/TRA) are exempt from the tFAW/tRRD
    /// rank power constraints. Ambit argues its activations draw far less
    /// current than regular ones (no column I/O), so the default is `true`;
    /// the ablation benches flip it.
    pub faw_exempt: bool,
    /// Subarray-level parallelism for PIM row operations (SALP, Kim+
    /// ISCA'12, cited by the paper): row ops in *different subarrays* of
    /// one bank overlap, paying only a command-spacing gap. Off by
    /// default — the baseline Ambit design serializes per bank.
    pub salp: bool,
}

impl PimTiming {
    /// Derives PIM timing from base DRAM timing, per the RowClone and Ambit
    /// papers: `AP = tRAS + tRP`, `AAP = 2*tRAS + tRP`, `TRA = tRAS + tRP`.
    pub fn from_timing(t: &Timing) -> Self {
        PimTiming {
            ap: t.ras + t.rp,
            aap: 2 * t.ras + t.rp,
            tra: t.ras + t.rp,
            psm_col_cycles: 2 * t.ccd,
            faw_exempt: true,
            salp: false,
        }
    }
}

/// A complete device specification: timing + organization + PIM extensions.
///
/// # Examples
///
/// ```
/// use pim_dram::DramSpec;
/// let spec = DramSpec::ddr3_1600();
/// assert_eq!(spec.org.burst_bytes(), 64);
/// assert_eq!(spec.org.row_bytes(), 8192);
/// assert!(spec.peak_bandwidth_gbps() > 12.0); // 12.8 GB/s per channel
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DramSpec {
    /// Human-readable name of the preset (e.g. `"DDR3-1600"`).
    pub name: String,
    /// Timing constraints.
    pub timing: Timing,
    /// Physical organization.
    pub org: Organization,
    /// PIM command timing extensions.
    pub pim: PimTiming,
}

impl DramSpec {
    /// Builds a spec from parts, deriving [`PimTiming`] from the base timing.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] if the timing or organization fail validation or
    /// the burst lengths disagree.
    pub fn new(
        name: impl Into<String>,
        timing: Timing,
        org: Organization,
    ) -> Result<Self, SpecError> {
        timing.validate().map_err(SpecError::Timing)?;
        org.validate().map_err(SpecError::Organization)?;
        if timing.bl != org.bl {
            return Err(SpecError::BurstMismatch {
                timing_bl: timing.bl,
                org_bl: org.bl,
            });
        }
        Ok(DramSpec {
            name: name.into(),
            pim: PimTiming::from_timing(&timing),
            timing,
            org,
        })
    }

    /// DDR3-1600 (11-11-11), 2 Gb x8 devices, one rank of 8 banks per
    /// channel, 8 KB rows. This is the configuration the Ambit paper
    /// evaluates against.
    pub fn ddr3_1600() -> Self {
        let timing = Timing {
            t_ck_ps: 1250,
            cl: 11,
            cwl: 8,
            rcd: 11,
            rp: 11,
            ras: 28,
            rc: 39,
            wr: 12,
            wtr: 6,
            rtp: 6,
            ccd: 4,
            rrd: 5,
            faw: 24,
            rfc: 208,
            refi: 6240,
            bl: 8,
        };
        let org = Organization {
            channels: 1,
            ranks: 1,
            banks: 8,
            subarrays: 64,
            rows: 32768,
            columns: 128,
            bus_bits: 64,
            bl: 8,
        };
        DramSpec::new("DDR3-1600", timing, org).expect("preset is valid")
    }

    /// DDR4-2400 (17-17-17), one rank of 16 banks per channel.
    pub fn ddr4_2400() -> Self {
        let timing = Timing {
            t_ck_ps: 833,
            cl: 17,
            cwl: 12,
            rcd: 17,
            rp: 17,
            ras: 39,
            rc: 56,
            wr: 18,
            wtr: 9,
            rtp: 9,
            ccd: 4,
            rrd: 7,
            faw: 26,
            rfc: 313,
            refi: 9360,
            bl: 8,
        };
        let org = Organization {
            channels: 1,
            ranks: 1,
            banks: 16,
            subarrays: 64,
            rows: 32768,
            columns: 128,
            bus_bits: 64,
            bl: 8,
        };
        DramSpec::new("DDR4-2400", timing, org).expect("preset is valid")
    }

    /// LPDDR3-1600 used by the consumer-device studies: narrower bus,
    /// slightly relaxed core timing.
    pub fn lpddr3_1600() -> Self {
        let timing = Timing {
            t_ck_ps: 1250,
            cl: 12,
            cwl: 6,
            rcd: 15,
            rp: 15,
            ras: 34,
            rc: 49,
            wr: 12,
            wtr: 6,
            rtp: 6,
            ccd: 4,
            rrd: 8,
            faw: 40,
            rfc: 168,
            refi: 3120,
            bl: 8,
        };
        let org = Organization {
            channels: 2,
            ranks: 1,
            banks: 8,
            subarrays: 32,
            rows: 16384,
            columns: 64,
            bus_bits: 32,
            bl: 8,
        };
        DramSpec::new("LPDDR3-1600", timing, org).expect("preset is valid")
    }

    /// One vault of an HMC-2.0-like 3D stack: 16 banks behind a 32-bit TSV
    /// bus at a 1.25 GHz clock, with small 512 B rows (stacked DRAM uses
    /// much shorter rows than DIMMs — this is what makes Ambit-in-HMC
    /// "only" ~10x the logic layer rather than hundreds).
    ///
    /// A full HMC device is assembled from 32 of these by `pim-stack`
    /// (or modeled as 32 channels of this spec by `pim-ambit`).
    pub fn hmc_vault() -> Self {
        let timing = Timing {
            t_ck_ps: 800, // 1.25 GHz TSV/vault clock
            cl: 13,
            cwl: 10,
            rcd: 13,
            rp: 13,
            ras: 34,
            rc: 47,
            wr: 15,
            wtr: 8,
            rtp: 8,
            ccd: 4,
            rrd: 6,
            faw: 24,
            rfc: 208,
            refi: 4875,
            bl: 8,
        };
        let org = Organization {
            channels: 1,
            ranks: 1,
            banks: 16,
            subarrays: 16,
            rows: 16384,
            columns: 16,
            bus_bits: 32,
            bl: 8,
        };
        DramSpec::new("HMC-vault", timing, org).expect("preset is valid")
    }

    /// HBM2-class stack channel: 128-bit pseudo-channel at 1 GHz DDR with
    /// small rows — eight of these make one HBM2 device (256 GB/s).
    pub fn hbm2_channel() -> Self {
        let timing = Timing {
            t_ck_ps: 1000,
            cl: 14,
            cwl: 4,
            rcd: 14,
            rp: 14,
            ras: 33,
            rc: 47,
            wr: 16,
            wtr: 8,
            rtp: 5,
            ccd: 2,
            rrd: 4,
            faw: 16,
            rfc: 260,
            refi: 3900,
            bl: 4,
        };
        let org = Organization {
            channels: 1,
            ranks: 1,
            banks: 16,
            subarrays: 32,
            rows: 16384,
            columns: 32,
            bus_bits: 128,
            bl: 4,
        };
        DramSpec::new("HBM2-channel", timing, org).expect("preset is valid")
    }

    /// Peak channel bandwidth in GB/s (all channels combined).
    pub fn peak_bandwidth_gbps(&self) -> f64 {
        // DDR: two beats per clock.
        let bytes_per_cycle = (self.org.bus_bits as f64 / 8.0) * 2.0;
        let cycles_per_sec = 1.0e12 / self.timing.t_ck_ps as f64;
        bytes_per_cycle * cycles_per_sec * self.org.channels as f64 / 1.0e9
    }

    /// Returns a copy with a different channel count.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero or not a power of two.
    pub fn with_channels(mut self, channels: u32) -> Self {
        assert!(
            channels.is_power_of_two(),
            "channels must be a nonzero power of two"
        );
        self.org.channels = channels;
        self
    }

    /// Returns a copy with a different bank count per rank.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero or not a power of two.
    pub fn with_banks(mut self, banks: u32) -> Self {
        assert!(
            banks.is_power_of_two(),
            "banks must be a nonzero power of two"
        );
        self.org.banks = banks;
        self
    }

    /// Returns a copy with a different rank count per channel.
    ///
    /// # Panics
    ///
    /// Panics if `ranks` is zero or not a power of two.
    pub fn with_ranks(mut self, ranks: u32) -> Self {
        assert!(
            ranks.is_power_of_two(),
            "ranks must be a nonzero power of two"
        );
        self.org.ranks = ranks;
        self
    }

    /// Returns a copy reorganized as `channels x ranks x banks`, keeping
    /// rows/columns/bus untouched — the fallible builder CLI sweeps use,
    /// where an out-of-range organization must surface as a typed error
    /// rather than a panic.
    ///
    /// # Errors
    ///
    /// [`SpecError::Organization`] if the resulting organization fails
    /// [`Organization::validate`] (zero or non-power-of-two counts).
    pub fn with_org(mut self, channels: u32, ranks: u32, banks: u32) -> Result<Self, SpecError> {
        self.org.channels = channels;
        self.org.ranks = ranks;
        self.org.banks = banks;
        self.org.validate().map_err(SpecError::Organization)?;
        Ok(self)
    }
}

impl fmt::Display for DramSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} ch x {} rank x {} banks, {} MB, {:.1} GB/s peak)",
            self.name,
            self.org.channels,
            self.org.ranks,
            self.org.banks,
            self.org.capacity_bytes() / (1 << 20),
            self.peak_bandwidth_gbps()
        )
    }
}

/// Error building a [`DramSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The timing parameters are inconsistent.
    Timing(String),
    /// The organization parameters are inconsistent.
    Organization(String),
    /// `Timing::bl` and `Organization::bl` disagree.
    BurstMismatch {
        /// Burst length from the timing set.
        timing_bl: u32,
        /// Burst length from the organization.
        org_bl: u32,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Timing(msg) => write!(f, "invalid timing: {msg}"),
            SpecError::Organization(msg) => write!(f, "invalid organization: {msg}"),
            SpecError::BurstMismatch { timing_bl, org_bl } => {
                write!(
                    f,
                    "burst length mismatch: timing bl={timing_bl}, organization bl={org_bl}"
                )
            }
        }
    }
}

impl std::error::Error for SpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for spec in [
            DramSpec::ddr3_1600(),
            DramSpec::ddr4_2400(),
            DramSpec::lpddr3_1600(),
            DramSpec::hmc_vault(),
            DramSpec::hbm2_channel(),
        ] {
            assert!(spec.timing.validate().is_ok(), "{}", spec.name);
            assert!(spec.org.validate().is_ok(), "{}", spec.name);
            assert!(!format!("{spec}").is_empty());
        }
    }

    #[test]
    fn ddr3_headline_numbers() {
        let s = DramSpec::ddr3_1600();
        // 64B cache-line bursts, 8KB rows, 12.8 GB/s per channel.
        assert_eq!(s.org.burst_bytes(), 64);
        assert_eq!(s.org.row_bytes(), 8192);
        assert!((s.peak_bandwidth_gbps() - 12.8).abs() < 0.05);
        // tRAS=35ns, tRP=13.75ns at 1.25ns clock.
        assert!((s.timing.cycles_to_ns(s.timing.ras) - 35.0).abs() < 0.01);
        assert!((s.timing.cycles_to_ns(s.timing.rp) - 13.75).abs() < 0.01);
    }

    #[test]
    fn hbm2_bandwidth() {
        // One pseudo-channel: 16B x 2 x 1 GHz = 32 GB/s; a full 8-channel
        // device reaches 256 GB/s.
        let one = DramSpec::hbm2_channel();
        assert!((one.peak_bandwidth_gbps() - 32.0).abs() < 0.1);
        let device = DramSpec::hbm2_channel().with_channels(8);
        assert!((device.peak_bandwidth_gbps() - 256.0).abs() < 0.5);
        // Stacked DRAM rows are small (2 KB here) vs the 8 KB DIMM row.
        assert!(one.org.row_bytes() < DramSpec::ddr3_1600().org.row_bytes());
    }

    #[test]
    fn pim_timing_derivation() {
        let s = DramSpec::ddr3_1600();
        assert_eq!(s.pim.ap, s.timing.ras + s.timing.rp);
        assert_eq!(s.pim.aap, 2 * s.timing.ras + s.timing.rp);
        assert_eq!(s.pim.tra, s.timing.ras + s.timing.rp);
        // AAP ~ 83.75ns on DDR3-1600, as in the Ambit paper.
        assert!((s.timing.cycles_to_ns(s.pim.aap) - 83.75).abs() < 0.01);
    }

    #[test]
    fn cycles_ns_roundtrip() {
        let t = DramSpec::ddr3_1600().timing;
        for c in [1u64, 10, 100, 12345] {
            let ns = t.cycles_to_ns(c);
            assert_eq!(t.ns_to_cycles(ns), c);
        }
        assert!((t.freq_mhz() - 800.0).abs() < 0.01);
    }

    #[test]
    fn capacity_math() {
        let s = DramSpec::ddr3_1600();
        // 8 banks * 32768 rows * 8 KB = 2 GiB per channel.
        assert_eq!(s.org.capacity_bytes(), 2 * (1u64 << 30));
        assert_eq!(s.org.total_banks(), 8);
        assert_eq!(s.org.rows_per_subarray(), 512);
        assert_eq!(s.org.row_bits(), 8192 * 8);
    }

    #[test]
    fn invalid_timing_rejected() {
        let mut t = DramSpec::ddr3_1600().timing;
        t.rc = 5;
        assert!(t.validate().is_err());
        let mut t2 = DramSpec::ddr3_1600().timing;
        t2.bl = 3;
        assert!(t2.validate().is_err());
        let mut t3 = DramSpec::ddr3_1600().timing;
        t3.t_ck_ps = 0;
        assert!(t3.validate().is_err());
        let mut t4 = DramSpec::ddr3_1600().timing;
        t4.refi = t4.rfc;
        assert!(t4.validate().is_err());
        let mut t5 = DramSpec::ddr3_1600().timing;
        t5.faw = t5.rrd - 1;
        assert!(t5.validate().is_err());
    }

    #[test]
    fn invalid_org_rejected() {
        let mut o = DramSpec::ddr3_1600().org;
        o.banks = 0;
        assert!(o.validate().is_err());
        let mut o2 = DramSpec::ddr3_1600().org;
        o2.rows = 24576; // not a power of two
        assert!(o2.validate().is_err());
        let mut o3 = DramSpec::ddr3_1600().org;
        o3.subarrays = o3.rows * 2; // rows not divisible
        assert!(o3.validate().is_err());
    }

    #[test]
    fn burst_mismatch_rejected() {
        let s = DramSpec::ddr3_1600();
        let mut org = s.org;
        org.bl = 4;
        let err = DramSpec::new("bad", s.timing, org).unwrap_err();
        assert!(matches!(err, SpecError::BurstMismatch { .. }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn with_modifiers() {
        let s = DramSpec::ddr3_1600().with_channels(2).with_banks(16);
        assert_eq!(s.org.channels, 2);
        assert_eq!(s.org.banks, 16);
        assert!((s.peak_bandwidth_gbps() - 25.6).abs() < 0.1);
        let r = DramSpec::ddr3_1600().with_ranks(4);
        assert_eq!(r.org.ranks, 4);
    }

    #[test]
    fn with_org_builds_256_banks_and_rejects_bad_shapes() {
        let s = DramSpec::ddr3_1600().with_org(4, 4, 16).expect("valid org");
        assert_eq!(s.org.total_banks(), 256);
        assert_eq!((s.org.channels, s.org.ranks, s.org.banks), (4, 4, 16));
        // Typed errors, not panics, for CLI-supplied shapes.
        for (ch, ra, ba) in [(0, 1, 8), (3, 1, 8), (1, 0, 8), (1, 1, 12)] {
            let err = DramSpec::ddr3_1600().with_org(ch, ra, ba).unwrap_err();
            assert!(matches!(err, SpecError::Organization(_)), "{ch}x{ra}x{ba}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn with_channels_rejects_zero() {
        let _ = DramSpec::ddr3_1600().with_channels(0);
    }
}
