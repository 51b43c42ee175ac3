//! 3D-stacked memory configuration (HMC-like).

use pim_dram::DramSpec;
use std::fmt;

/// Geometry and bandwidth of a 3D-stacked memory device.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StackConfig {
    /// Human-readable name.
    pub name: String,
    /// Number of vaults (vertical slices, each with its own controller).
    pub vaults: u32,
    /// The DRAM organization of one vault.
    pub vault_spec: DramSpec,
    /// TSV bandwidth per vault, GB/s.
    pub tsv_gbps_per_vault: f64,
    /// Number of external serial links.
    pub ext_links: u32,
    /// Usable bandwidth per external link, GB/s (per direction, aggregate
    /// of the lanes).
    pub ext_link_gbps: f64,
    /// Logic-layer area available per vault for added PIM logic, mm².
    pub logic_area_mm2_per_vault: f64,
}

impl StackConfig {
    /// HMC-2.0-like device: 32 vaults × 16 banks, 10 GB/s of TSV bandwidth
    /// per vault (320 GB/s aggregate internal), 4 external links.
    pub fn hmc2() -> Self {
        StackConfig {
            name: "hmc2".into(),
            vaults: 32,
            vault_spec: DramSpec::hmc_vault(),
            tsv_gbps_per_vault: 10.0,
            ext_links: 4,
            ext_link_gbps: 40.0,
            logic_area_mm2_per_vault: 3.5,
        }
    }

    /// Aggregate internal (TSV) bandwidth, GB/s.
    pub fn internal_bandwidth_gbps(&self) -> f64 {
        self.vaults as f64 * self.tsv_gbps_per_vault
    }

    /// Aggregate external link bandwidth, GB/s.
    pub fn external_bandwidth_gbps(&self) -> f64 {
        self.ext_links as f64 * self.ext_link_gbps
    }

    /// Ratio of internal to external bandwidth — the lever all
    /// 3D-stacked-PIM proposals pull.
    pub fn bandwidth_amplification(&self) -> f64 {
        self.internal_bandwidth_gbps() / self.external_bandwidth_gbps()
    }

    /// Total banks across all vaults.
    pub fn total_banks(&self) -> u32 {
        self.vaults * self.vault_spec.org.total_banks()
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.vaults as u64 * self.vault_spec.org.capacity_bytes()
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.vaults == 0 {
            return Err("vaults must be nonzero".into());
        }
        if self.tsv_gbps_per_vault <= 0.0 || self.ext_link_gbps <= 0.0 {
            return Err("bandwidths must be positive".into());
        }
        if self.logic_area_mm2_per_vault <= 0.0 {
            return Err("logic area must be positive".into());
        }
        self.vault_spec.timing.validate()?;
        self.vault_spec.org.validate()?;
        Ok(())
    }
}

impl fmt::Display for StackConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} vaults, {} banks, {:.0} GB/s internal / {:.0} GB/s external ({:.1}x)",
            self.name,
            self.vaults,
            self.total_banks(),
            self.internal_bandwidth_gbps(),
            self.external_bandwidth_gbps(),
            self.bandwidth_amplification()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hmc2_headline_numbers() {
        let c = StackConfig::hmc2();
        assert!(c.validate().is_ok());
        assert_eq!(c.vaults, 32);
        assert_eq!(c.total_banks(), 512);
        assert!((c.internal_bandwidth_gbps() - 320.0).abs() < 1e-9);
        assert!((c.external_bandwidth_gbps() - 160.0).abs() < 1e-9);
        assert!(c.bandwidth_amplification() >= 2.0);
        assert!(!format!("{c}").is_empty());
    }

    #[test]
    fn capacity_is_gigabytes() {
        let c = StackConfig::hmc2();
        let gb = c.capacity_bytes() as f64 / (1u64 << 30) as f64;
        assert!((2.0..16.0).contains(&gb), "HMC capacity {gb} GB");
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = StackConfig::hmc2();
        c.vaults = 0;
        assert!(c.validate().is_err());
        let mut c = StackConfig::hmc2();
        c.tsv_gbps_per_vault = 0.0;
        assert!(c.validate().is_err());
        let mut c = StackConfig::hmc2();
        c.logic_area_mm2_per_vault = -1.0;
        assert!(c.validate().is_err());
    }
}
