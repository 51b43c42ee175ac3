//! Energy parameters for the non-DRAM parts of the system: caches, cores,
//! PIM logic, and 3D-stack links/TSVs.
//!
//! Values are representative of published numbers for ~22–28 nm parts:
//! a big out-of-order core spends on the order of 0.5 nJ per instruction
//! (dominated by fetch/rename/wakeup, not the ALU), SRAM accesses cost
//! 0.1–1 nJ depending on the level, HMC SerDes links are ~5–6 pJ/bit and
//! TSVs well under 1 pJ/bit. The consumer-workloads experiment (E6) is an
//! energy-accounting reproduction, so these relative magnitudes — not the
//! absolute values — carry the result.

use crate::breakdown::{Component, EnergyBreakdown};

/// Per-access SRAM cache energies, in nJ per 64-byte access.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CacheEnergyModel {
    /// L1 hit energy.
    pub l1_nj: f64,
    /// L2 hit energy.
    pub l2_nj: f64,
    /// Last-level cache hit energy.
    pub llc_nj: f64,
}

impl CacheEnergyModel {
    /// Server-class hierarchy (large LLC).
    pub fn server() -> Self {
        CacheEnergyModel {
            l1_nj: 0.1,
            l2_nj: 0.35,
            llc_nj: 1.0,
        }
    }

    /// Mobile-class hierarchy (smaller, lower-power arrays).
    pub fn mobile() -> Self {
        CacheEnergyModel {
            l1_nj: 0.06,
            l2_nj: 0.25,
            llc_nj: 0.6,
        }
    }

    /// Energy for a given number of accesses per level.
    pub fn energy_of(&self, l1: u64, l2: u64, llc: u64) -> EnergyBreakdown {
        let mut e = EnergyBreakdown::new();
        e.add_nj(
            Component::Cache,
            l1 as f64 * self.l1_nj + l2 as f64 * self.l2_nj + llc as f64 * self.llc_nj,
        );
        e
    }
}

/// Energy per executed operation for the compute sites in the system.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ComputeEnergyModel {
    /// Big out-of-order host core, nJ per instruction.
    pub host_core_nj_per_op: f64,
    /// GPU streaming multiprocessor lane, nJ per lane-op.
    pub gpu_nj_per_op: f64,
    /// Simple in-order PIM core in a logic layer, nJ per instruction.
    pub pim_core_nj_per_op: f64,
    /// Fixed-function PIM accelerator, nJ per operation.
    pub pim_accel_nj_per_op: f64,
}

impl ComputeEnergyModel {
    /// Representative 22–28 nm values.
    pub fn default_28nm() -> Self {
        ComputeEnergyModel {
            host_core_nj_per_op: 0.5,
            gpu_nj_per_op: 0.08,
            pim_core_nj_per_op: 0.06,
            pim_accel_nj_per_op: 0.012,
        }
    }

    /// Energy of `ops` operations on the given site, as a breakdown entry.
    pub fn compute_nj(&self, site: ComputeSite, ops: u64) -> EnergyBreakdown {
        let per_op = match site {
            ComputeSite::HostCore => self.host_core_nj_per_op,
            ComputeSite::Gpu => self.gpu_nj_per_op,
            ComputeSite::PimCore => self.pim_core_nj_per_op,
            ComputeSite::PimAccel => self.pim_accel_nj_per_op,
        };
        let mut e = EnergyBreakdown::new();
        e.add_nj(Component::CoreCompute, ops as f64 * per_op);
        e
    }
}

/// Where computation executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComputeSite {
    /// Out-of-order host CPU core.
    HostCore,
    /// GPU streaming multiprocessor.
    Gpu,
    /// In-order core in the logic layer of a 3D stack.
    PimCore,
    /// Fixed-function accelerator in the logic layer.
    PimAccel,
}

/// Link and TSV transfer energies for a 3D-stacked memory.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LinkEnergyModel {
    /// External SerDes link energy, pJ per bit.
    pub serdes_pj_per_bit: f64,
    /// TSV energy, pJ per bit.
    pub tsv_pj_per_bit: f64,
}

impl LinkEnergyModel {
    /// HMC-like defaults.
    pub fn hmc() -> Self {
        LinkEnergyModel {
            serdes_pj_per_bit: 6.0,
            tsv_pj_per_bit: 0.4,
        }
    }

    /// Energy of moving `bytes` over the external links.
    pub fn link_energy(&self, bytes: u64) -> EnergyBreakdown {
        let mut e = EnergyBreakdown::new();
        e.add_nj(
            Component::Link,
            bytes as f64 * 8.0 * self.serdes_pj_per_bit / 1000.0,
        );
        e
    }

    /// Energy of moving `bytes` over TSVs.
    pub fn tsv_energy(&self, bytes: u64) -> EnergyBreakdown {
        let mut e = EnergyBreakdown::new();
        e.add_nj(
            Component::Tsv,
            bytes as f64 * 8.0 * self.tsv_pj_per_bit / 1000.0,
        );
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_energy_accumulates() {
        let m = CacheEnergyModel::server();
        let e = m.energy_of(10, 4, 2);
        let expect = 10.0 * 0.1 + 4.0 * 0.35 + 2.0 * 1.0;
        assert!((e.get(Component::Cache) - expect).abs() < 1e-9);
    }

    #[test]
    fn mobile_caches_cheaper_than_server() {
        let s = CacheEnergyModel::server();
        let m = CacheEnergyModel::mobile();
        assert!(m.l1_nj < s.l1_nj && m.llc_nj < s.llc_nj);
    }

    #[test]
    fn compute_site_ordering() {
        // Host core >> GPU lane > PIM core > accelerator, per op.
        let m = ComputeEnergyModel::default_28nm();
        let host = m.compute_nj(ComputeSite::HostCore, 100).total_nj();
        let gpu = m.compute_nj(ComputeSite::Gpu, 100).total_nj();
        let pim = m.compute_nj(ComputeSite::PimCore, 100).total_nj();
        let acc = m.compute_nj(ComputeSite::PimAccel, 100).total_nj();
        assert!(host > gpu && gpu > pim && pim > acc);
        // PIM core is roughly an order of magnitude cheaper than the host
        // core, as the GoogleWL paper's area/energy analysis assumes.
        assert!(host / pim > 5.0);
    }

    #[test]
    fn link_vs_tsv() {
        let m = LinkEnergyModel::hmc();
        let link = m.link_energy(1024).total_nj();
        let tsv = m.tsv_energy(1024).total_nj();
        // 1 KB over SerDes: 8192 bits * 6 pJ = 49.2 nJ.
        assert!((link - 49.152).abs() < 1e-6);
        assert!(link / tsv > 10.0, "SerDes must dominate TSV energy");
    }
}
