//! Area, density and efficiency metrics (the FeBiM row of Table 1).

use serde::Serialize;

use crate::compiler::CrossbarProgram;
use crate::engine::EvaluationReport;
use crate::errors::{CoreError, Result};

/// Parameters of the analytical area/efficiency model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MetricsConfig {
    /// Area of one 1-FeFET cell at the 45 nm node, in µm² (the paper lays out
    /// a 2×2 array based on the 2-FeFET/cell design of \[41\] and estimates
    /// 0.076 µm² per cell).
    pub cell_area_um2: f64,
    /// Bits stored per cell (2 for the iris operating point, `Q_l`).
    pub bits_per_cell: f64,
    /// Fixed peripheral energy per inference, in joules, covering the clock
    /// circuitry and the write/input buffer that the behavioural circuit
    /// model does not capture. Calibrated so the iris-GNBC average inference
    /// energy lands at the paper's 17.2 fJ.
    pub peripheral_energy: f64,
}

impl MetricsConfig {
    /// The calibration used for the Table 1 comparison.
    pub fn febim_calibrated() -> Self {
        Self {
            cell_area_um2: 0.076,
            bits_per_cell: 2.0,
            peripheral_energy: 14.0e-15,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for non-positive area or bit
    /// count, or a negative peripheral energy.
    pub fn validate(&self) -> Result<()> {
        if !(self.cell_area_um2 > 0.0 && self.cell_area_um2.is_finite()) {
            return Err(CoreError::InvalidConfig {
                name: "cell_area_um2",
                reason: "cell area must be positive".to_string(),
            });
        }
        if !(self.bits_per_cell > 0.0 && self.bits_per_cell.is_finite()) {
            return Err(CoreError::InvalidConfig {
                name: "bits_per_cell",
                reason: "bits per cell must be positive".to_string(),
            });
        }
        if self.peripheral_energy < 0.0 {
            return Err(CoreError::InvalidConfig {
                name: "peripheral_energy",
                reason: "peripheral energy cannot be negative".to_string(),
            });
        }
        Ok(())
    }
}

impl Default for MetricsConfig {
    fn default() -> Self {
        Self::febim_calibrated()
    }
}

/// The derived performance metrics of one FeBiM deployment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PerformanceMetrics {
    /// Total array area in mm².
    pub array_area_mm2: f64,
    /// Storage density in Mb/mm².
    pub storage_density_mb_per_mm2: f64,
    /// Equivalent operations performed per inference.
    pub ops_per_inference: f64,
    /// Computing density in million operations per mm².
    pub computing_density_mo_per_mm2: f64,
    /// Average energy per inference in joules (crossbar + sensing +
    /// peripherals).
    pub energy_per_inference: f64,
    /// Computing efficiency in TOPS/W.
    pub efficiency_tops_per_watt: f64,
    /// Clock cycles per inference (FeBiM needs exactly one).
    pub clock_cycles_per_inference: f64,
}

/// Equivalent operation count of one FeBiM inference.
///
/// Every wordline accumulates the currents of the activated columns
/// (`activated_columns - 1` additions per event) and the WTA performs one
/// global maximum search, matching the paper's 10-operation count for the
/// 3-class, 4-feature iris classifier.
pub fn ops_per_inference(events: usize, activated_columns: usize) -> f64 {
    let additions_per_event = activated_columns.saturating_sub(1) as f64;
    events as f64 * additions_per_event + 1.0
}

/// Computes the FeBiM performance metrics from a compiled program and an
/// evaluation report.
///
/// # Errors
///
/// Propagates [`MetricsConfig::validate`] errors.
pub fn performance_metrics(
    program: &CrossbarProgram,
    report: &EvaluationReport,
    config: &MetricsConfig,
) -> Result<PerformanceMetrics> {
    config.validate()?;
    let layout = program.layout();
    let cells = layout.cells() as f64;
    let array_area_um2 = cells * config.cell_area_um2;
    let array_area_mm2 = array_area_um2 * 1e-6;
    // bits/µm² numerically equals Mb/mm² (1 µm² = 1e-6 mm², 1 Mb = 1e6 bit).
    let storage_density = config.bits_per_cell / config.cell_area_um2;
    let ops = ops_per_inference(layout.events(), layout.activated_columns());
    let computing_density = ops / array_area_um2;
    let energy = report.mean_energy + config.peripheral_energy;
    let efficiency = ops / energy / 1e12;
    Ok(PerformanceMetrics {
        array_area_mm2,
        storage_density_mb_per_mm2: storage_density,
        ops_per_inference: ops,
        computing_density_mo_per_mm2: computing_density,
        energy_per_inference: energy,
        efficiency_tops_per_watt: efficiency,
        clock_cycles_per_inference: 1.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::engine::FebimEngine;
    use febim_data::rng::seeded_rng;
    use febim_data::split::stratified_split;
    use febim_data::synthetic::iris_like;

    fn iris_metrics() -> PerformanceMetrics {
        let dataset = iris_like(50).unwrap();
        let split = stratified_split(&dataset, 0.7, &mut seeded_rng(50)).unwrap();
        let engine = FebimEngine::fit(&split.train, EngineConfig::febim_default()).unwrap();
        let report = engine.evaluate(&split.test).unwrap();
        performance_metrics(
            engine.program(),
            &report,
            &MetricsConfig::febim_calibrated(),
        )
        .unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(MetricsConfig::febim_calibrated().validate().is_ok());
        let mut c = MetricsConfig::febim_calibrated();
        c.cell_area_um2 = 0.0;
        assert!(c.validate().is_err());
        let mut c = MetricsConfig::febim_calibrated();
        c.bits_per_cell = -1.0;
        assert!(c.validate().is_err());
        let mut c = MetricsConfig::febim_calibrated();
        c.peripheral_energy = -1.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn ops_count_matches_the_paper_for_iris() {
        // 3 events, 4 activated likelihood columns (uniform prior omitted):
        // 3 * 3 additions + 1 WTA operation = 10 operations.
        assert!((ops_per_inference(3, 4) - 10.0).abs() < 1e-12);
        assert!((ops_per_inference(1, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn storage_density_matches_table_1() {
        let metrics = iris_metrics();
        assert!(
            (metrics.storage_density_mb_per_mm2 - 26.32).abs() < 0.05,
            "density {}",
            metrics.storage_density_mb_per_mm2
        );
    }

    #[test]
    fn computing_density_matches_table_1() {
        let metrics = iris_metrics();
        // Paper: 0.69 MO/mm² for the 3×64 iris array.
        assert!(
            (metrics.computing_density_mo_per_mm2 - 0.69).abs() < 0.05,
            "computing density {}",
            metrics.computing_density_mo_per_mm2
        );
    }

    #[test]
    fn energy_and_efficiency_are_in_the_table_1_band() {
        let metrics = iris_metrics();
        // Paper: 17.2 fJ per inference and 581.40 TOPS/W. The behavioural
        // circuit model reproduces the order of magnitude.
        assert!(
            metrics.energy_per_inference > 10e-15 && metrics.energy_per_inference < 30e-15,
            "energy {}",
            metrics.energy_per_inference
        );
        assert!(
            metrics.efficiency_tops_per_watt > 300.0 && metrics.efficiency_tops_per_watt < 900.0,
            "efficiency {}",
            metrics.efficiency_tops_per_watt
        );
        assert_eq!(metrics.clock_cycles_per_inference, 1.0);
        assert!(metrics.array_area_mm2 > 0.0);
    }
}
