//! Configuration of the Tesseract accelerator and its host baseline.

use pim_dram::DramSpec;
use pim_energy::{CacheEnergyModel, ComputeEnergyModel, DramEnergyModel, LinkEnergyModel};
use pim_host::HierarchyConfig;
use pim_stack::StackConfig;

/// Tesseract accelerator parameters (ISCA'15 §4).
#[derive(Debug, Clone)]
pub struct TesseractConfig {
    /// The 3D stack hosting the PIM cores (one core per vault).
    pub stack: StackConfig,
    /// Number of HMC cubes (stacks) the vaults are spread over. It shapes
    /// neither placement nor execution — the engine scans vaults in one
    /// flat loop — but the runtime reports it as the backend's channel
    /// domains, and per-stack load balance groups vault counters by it.
    pub stacks: u32,
    /// PIM core clock, GHz (in-order, IPC 1).
    pub core_ghz: f64,
    /// Instruction overhead per remote function call (enqueue + dequeue +
    /// dispatch).
    pub msg_overhead_instr: u64,
    /// Payload bytes per remote function call message.
    pub msg_bytes: u64,
    /// Per-vault network-on-chip port bandwidth for cross-vault messages,
    /// GB/s (the crossbar/SerDes path between vaults and cubes).
    pub noc_gbps_per_vault: f64,
    /// Sequential (list) prefetcher enabled.
    pub list_prefetcher: bool,
    /// Message-triggered prefetcher enabled.
    pub msg_prefetcher: bool,
    /// Remote function calls are non-blocking (the paper's interface).
    /// When `false`, every remote call stalls the sender for a cross-vault
    /// round trip — the ablation showing why the non-blocking interface
    /// matters.
    pub non_blocking_calls: bool,
    /// Cross-vault round-trip latency for a blocking remote call, ns.
    pub remote_rt_ns: f64,
    /// Average vault-local random access latency, nanoseconds.
    pub local_latency_ns: f64,
    /// Outstanding local accesses an in-order core sustains *without* the
    /// message-triggered prefetcher.
    pub base_mlp: u32,
    /// Outstanding accesses with the message-triggered prefetcher (message
    /// queues expose many independent accesses).
    pub prefetch_mlp: u32,
    /// Vault DRAM energy model.
    pub dram_energy: DramEnergyModel,
    /// Core energy model.
    pub compute_energy: ComputeEnergyModel,
    /// TSV/link energy model.
    pub link_energy: LinkEnergyModel,
}

impl TesseractConfig {
    /// The paper's configuration: **16 HMC cubes** (512 vaults / 512 PIM
    /// cores), 2 GHz in-order cores, both prefetchers on.
    pub fn isca2015() -> Self {
        let mut stack = StackConfig::hmc2();
        stack.vaults *= 16; // 16 cubes x 32 vaults
        TesseractConfig {
            stack,
            stacks: 16,
            core_ghz: 2.0,
            msg_overhead_instr: 2,
            msg_bytes: 16,
            noc_gbps_per_vault: 8.0,
            list_prefetcher: true,
            msg_prefetcher: true,
            non_blocking_calls: true,
            remote_rt_ns: 120.0,
            local_latency_ns: 45.0,
            base_mlp: 4,
            prefetch_mlp: 16,
            dram_energy: DramEnergyModel::hmc_vault(),
            compute_energy: ComputeEnergyModel::default_28nm(),
            link_energy: LinkEnergyModel::hmc(),
        }
    }

    /// A single-cube (32-vault) configuration for scaling studies.
    pub fn single_cube() -> Self {
        let mut c = TesseractConfig::isca2015();
        c.stack.vaults = 32;
        c.stacks = 1;
        c
    }

    /// Copy with the vaults spread over `stacks` cubes (the multi-stack
    /// scaling axis). Vault count, placement and every output are
    /// unchanged; only the reported channel domains move.
    ///
    /// # Panics
    ///
    /// Panics if `stacks` is zero.
    pub fn with_stacks(mut self, stacks: u32) -> Self {
        assert!(stacks > 0, "stacks must be nonzero");
        self.stacks = stacks;
        self
    }

    /// Copy with both prefetchers disabled (ablation).
    pub fn without_prefetchers(mut self) -> Self {
        self.list_prefetcher = false;
        self.msg_prefetcher = false;
        self
    }

    /// Copy with blocking remote function calls (ablation).
    pub fn with_blocking_calls(mut self) -> Self {
        self.non_blocking_calls = false;
        self
    }

    /// Number of PIM cores (= vaults).
    pub fn cores(&self) -> u32 {
        self.stack.vaults
    }
}

/// Conventional host baseline parameters (Tesseract's "DDR3-OoO").
#[derive(Debug, Clone)]
pub struct HostGraphConfig {
    /// Out-of-order core count.
    pub cores: u32,
    /// Core clock, GHz.
    pub freq_ghz: f64,
    /// Effective IPC on graph code.
    pub ipc: f64,
    /// Outstanding memory requests per core.
    pub mlp: u32,
    /// The memory system.
    pub mem: DramSpec,
    /// Achievable fraction of peak bandwidth on irregular traffic.
    pub mem_efficiency: f64,
    /// Average memory latency under load, nanoseconds.
    pub mem_latency_ns: f64,
    /// The cache hierarchy used to measure vertex-state residency.
    pub hierarchy: HierarchyConfig,
    /// DRAM energy model.
    pub dram_energy: DramEnergyModel,
    /// Cache energy model.
    pub cache_energy: CacheEnergyModel,
    /// Core energy model.
    pub compute_energy: ComputeEnergyModel,
}

impl HostGraphConfig {
    /// 32 OoO cores over two DDR3-1600 channels — the scaled-to-one-cube
    /// equivalent of the Tesseract paper's conventional baseline.
    pub fn ddr3_ooo() -> Self {
        HostGraphConfig {
            cores: 32,
            freq_ghz: 3.2,
            ipc: 2.0,
            mlp: 8,
            mem: DramSpec::ddr3_1600().with_channels(8), // 102.4 GB/s, as in the paper
            mem_efficiency: 0.7,
            mem_latency_ns: 200.0,
            hierarchy: HierarchyConfig::server(),
            dram_energy: DramEnergyModel::ddr3(),
            cache_energy: CacheEnergyModel::server(),
            compute_energy: ComputeEnergyModel::default_28nm(),
        }
    }
}

impl HostGraphConfig {
    /// The ISCA'15 "HMC-OoO" baseline: the same out-of-order cores but
    /// with the HMC used as *plain main memory* — far more bandwidth over
    /// the serial links, slightly higher latency, still no computation in
    /// memory.
    pub fn hmc_ooo() -> Self {
        let mut cfg = HostGraphConfig::ddr3_ooo();
        // 4 links x 40 GB/s usable minus protocol overhead; represent as a
        // high-bandwidth "channel" with HMC-ish access latency.
        cfg.mem = DramSpec::hbm2_channel().with_channels(8); // 256 GB/s peak
        cfg.mem_efficiency = 0.7;
        cfg.mem_latency_ns = 150.0;
        cfg.dram_energy = DramEnergyModel::hmc_vault();
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isca_config_is_sane() {
        let c = TesseractConfig::isca2015();
        assert_eq!(c.cores(), 512);
        assert_eq!(c.stacks, 16);
        assert_eq!(TesseractConfig::single_cube().cores(), 32);
        assert_eq!(TesseractConfig::single_cube().stacks, 1);
        assert_eq!(TesseractConfig::single_cube().with_stacks(4).stacks, 4);
        assert!(c.list_prefetcher && c.msg_prefetcher);
        assert!(c.prefetch_mlp > c.base_mlp);
        assert!(c.local_latency_ns > 0.0);
    }

    #[test]
    fn ablation_disables_prefetchers() {
        let c = TesseractConfig::isca2015().without_prefetchers();
        assert!(!c.list_prefetcher && !c.msg_prefetcher);
    }

    #[test]
    fn hmc_ooo_has_more_bandwidth_but_no_compute() {
        let ddr3 = HostGraphConfig::ddr3_ooo();
        let hmc = HostGraphConfig::hmc_ooo();
        assert!(
            hmc.mem.peak_bandwidth_gbps() > 2.0 * ddr3.mem.peak_bandwidth_gbps(),
            "HMC links must beat DDR3 channels"
        );
        assert!(hmc.mem_latency_ns > ddr3.mem_latency_ns * 0.5);
    }

    #[test]
    fn host_has_less_bandwidth_than_the_stack() {
        let t = TesseractConfig::isca2015();
        let h = HostGraphConfig::ddr3_ooo();
        assert!(
            t.stack.internal_bandwidth_gbps()
                > 5.0 * h.mem.peak_bandwidth_gbps() * h.mem_efficiency
        );
    }
}
