//! Per-technology cost-model entries for the Table 1 comparison.

use serde::Serialize;

use febim_core::PerformanceMetrics;

/// How a technology stores the model probabilities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum DeviceUsage {
    /// The device is used as a random number generator; probabilities are
    /// generated on demand rather than stored.
    RandomNumberGenerator,
    /// The device is used as memory holding the probabilities.
    Memory,
}

/// Cell configuration of the probability storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CellConfiguration {
    /// Single-level cells.
    SingleLevel,
    /// Multi-level cells.
    MultiLevel,
}

/// One row of the Table 1 comparison.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TechnologyEntry {
    /// Reference label (e.g. `"MTJ RNG [13]"`).
    pub name: String,
    /// Underlying device technology.
    pub technology: String,
    /// How the device is used.
    pub device_usage: DeviceUsage,
    /// Cell configuration.
    pub cell_configuration: CellConfiguration,
    /// Clock cycles needed per inference (`None` when the source does not
    /// report a single number).
    pub clock_cycles_per_inference: Option<f64>,
    /// Storage density in Mb/mm² (`None` when probabilities are not stored).
    pub storage_density_mb_per_mm2: Option<f64>,
    /// Computing density in million operations per mm².
    pub computing_density_mo_per_mm2: Option<f64>,
    /// Computing efficiency in TOPS/W.
    pub efficiency_tops_per_watt: Option<f64>,
}

impl TechnologyEntry {
    /// The superparamagnetic MTJ random-number-generator implementation \[13\].
    pub fn mtj_rng() -> Self {
        Self {
            name: "MTJ RNG [13]".to_string(),
            technology: "MTJ".to_string(),
            device_usage: DeviceUsage::RandomNumberGenerator,
            cell_configuration: CellConfiguration::SingleLevel,
            clock_cycles_per_inference: Some(2000.0),
            storage_density_mb_per_mm2: None,
            computing_density_mo_per_mm2: Some(0.23),
            efficiency_tops_per_watt: Some(0.013),
        }
    }

    /// The two-dimensional memtransistor Bayesian-network implementation \[14\].
    pub fn memtransistor_rng() -> Self {
        Self {
            name: "Memtransistor RNG [14]".to_string(),
            technology: "Memtransistor".to_string(),
            device_usage: DeviceUsage::RandomNumberGenerator,
            cell_configuration: CellConfiguration::SingleLevel,
            clock_cycles_per_inference: Some(200.0),
            storage_density_mb_per_mm2: None,
            computing_density_mo_per_mm2: Some(0.033),
            efficiency_tops_per_watt: Some(0.0025),
        }
    }

    /// The memristor-based Bayesian machine \[16\] (the prior state of the art).
    ///
    /// The efficiency depends on the operation scheme (2.14–13.39 TOPS/W);
    /// the best-case figure is stored so that improvement ratios are
    /// conservative.
    pub fn memristor_bayesian_machine() -> Self {
        Self {
            name: "Memristor Bayesian machine [16]".to_string(),
            technology: "Memristor".to_string(),
            device_usage: DeviceUsage::Memory,
            cell_configuration: CellConfiguration::SingleLevel,
            clock_cycles_per_inference: Some(255.0),
            storage_density_mb_per_mm2: Some(2.47),
            computing_density_mo_per_mm2: Some(0.034),
            efficiency_tops_per_watt: Some(13.39),
        }
    }

    /// Builds the FeBiM entry from measured engine metrics.
    pub fn febim(metrics: &PerformanceMetrics) -> Self {
        Self {
            name: "FeBiM (this work)".to_string(),
            technology: "FeFET".to_string(),
            device_usage: DeviceUsage::Memory,
            cell_configuration: CellConfiguration::MultiLevel,
            clock_cycles_per_inference: Some(metrics.clock_cycles_per_inference),
            storage_density_mb_per_mm2: Some(metrics.storage_density_mb_per_mm2),
            computing_density_mo_per_mm2: Some(metrics.computing_density_mo_per_mm2),
            efficiency_tops_per_watt: Some(metrics.efficiency_tops_per_watt),
        }
    }

    /// The paper's published FeBiM numbers, useful for validating the
    /// reproduction without running the engine.
    pub fn febim_published() -> Self {
        Self {
            name: "FeBiM (published)".to_string(),
            technology: "FeFET".to_string(),
            device_usage: DeviceUsage::Memory,
            cell_configuration: CellConfiguration::MultiLevel,
            clock_cycles_per_inference: Some(1.0),
            storage_density_mb_per_mm2: Some(26.32),
            computing_density_mo_per_mm2: Some(0.69),
            efficiency_tops_per_watt: Some(581.40),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_entries_match_table_1() {
        let mtj = TechnologyEntry::mtj_rng();
        assert_eq!(mtj.device_usage, DeviceUsage::RandomNumberGenerator);
        assert_eq!(mtj.clock_cycles_per_inference, Some(2000.0));
        assert_eq!(mtj.storage_density_mb_per_mm2, None);

        let memtransistor = TechnologyEntry::memtransistor_rng();
        assert_eq!(memtransistor.efficiency_tops_per_watt, Some(0.0025));

        let memristor = TechnologyEntry::memristor_bayesian_machine();
        assert_eq!(memristor.device_usage, DeviceUsage::Memory);
        assert_eq!(memristor.storage_density_mb_per_mm2, Some(2.47));
        assert_eq!(memristor.efficiency_tops_per_watt, Some(13.39));
    }

    #[test]
    fn published_febim_entry_matches_the_abstract() {
        let febim = TechnologyEntry::febim_published();
        assert_eq!(febim.cell_configuration, CellConfiguration::MultiLevel);
        assert_eq!(febim.storage_density_mb_per_mm2, Some(26.32));
        assert_eq!(febim.efficiency_tops_per_watt, Some(581.40));
        assert_eq!(febim.clock_cycles_per_inference, Some(1.0));
    }
}
