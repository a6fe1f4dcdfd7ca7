//! Assembly of the full Table 1 comparison and the headline improvement
//! ratios.

use serde::Serialize;

use febim_core::PerformanceMetrics;

use crate::entry::TechnologyEntry;

/// The complete cross-technology comparison (Table 1).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ComparisonTable {
    /// All rows, prior work first and FeBiM last.
    pub entries: Vec<TechnologyEntry>,
}

impl ComparisonTable {
    /// Builds the comparison with the FeBiM row derived from measured engine
    /// metrics.
    pub fn from_metrics(metrics: &PerformanceMetrics) -> Self {
        Self {
            entries: vec![
                TechnologyEntry::mtj_rng(),
                TechnologyEntry::memtransistor_rng(),
                TechnologyEntry::memristor_bayesian_machine(),
                TechnologyEntry::febim(metrics),
            ],
        }
    }

    /// Builds the comparison with the paper's published FeBiM numbers.
    pub fn published() -> Self {
        Self {
            entries: vec![
                TechnologyEntry::mtj_rng(),
                TechnologyEntry::memtransistor_rng(),
                TechnologyEntry::memristor_bayesian_machine(),
                TechnologyEntry::febim_published(),
            ],
        }
    }

    /// The FeBiM row (always the last entry).
    pub fn febim(&self) -> &TechnologyEntry {
        self.entries.last().expect("table always has entries")
    }

    /// The memristor Bayesian machine row (the state-of-the-art baseline the
    /// paper compares against).
    pub fn state_of_the_art(&self) -> &TechnologyEntry {
        &self.entries[2]
    }

    /// Headline improvement ratios of FeBiM over the state-of-the-art
    /// memristor Bayesian machine and the best RNG-based implementation.
    pub fn improvements(&self) -> ImprovementSummary {
        let febim = self.febim();
        let sota = self.state_of_the_art();
        let best_rng_computing_density = self.entries[..2]
            .iter()
            .filter_map(|e| e.computing_density_mo_per_mm2)
            .fold(f64::NEG_INFINITY, f64::max);
        ImprovementSummary {
            storage_density_vs_sota: ratio(
                febim.storage_density_mb_per_mm2,
                sota.storage_density_mb_per_mm2,
            ),
            efficiency_vs_sota: ratio(
                febim.efficiency_tops_per_watt,
                sota.efficiency_tops_per_watt,
            ),
            computing_density_vs_rng: ratio(
                febim.computing_density_mo_per_mm2,
                Some(best_rng_computing_density),
            ),
        }
    }
}

fn ratio(numerator: Option<f64>, denominator: Option<f64>) -> Option<f64> {
    match (numerator, denominator) {
        (Some(n), Some(d)) if d > 0.0 => Some(n / d),
        _ => None,
    }
}

/// The paper's headline improvement claims derived from the table.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ImprovementSummary {
    /// Storage-density improvement over the memristor Bayesian machine
    /// (paper: 10.7×).
    pub storage_density_vs_sota: Option<f64>,
    /// Efficiency improvement over the memristor Bayesian machine
    /// (paper: 43.4×).
    pub efficiency_vs_sota: Option<f64>,
    /// Computing-density improvement over the best RNG-based implementation
    /// (paper: more than 3.0×).
    pub computing_density_vs_rng: Option<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_table_reproduces_the_headline_ratios() {
        let table = ComparisonTable::published();
        assert_eq!(table.entries.len(), 4);
        let improvements = table.improvements();
        let density = improvements.storage_density_vs_sota.unwrap();
        let efficiency = improvements.efficiency_vs_sota.unwrap();
        let computing = improvements.computing_density_vs_rng.unwrap();
        // Paper: 10.7× storage density, 43.4× efficiency, > 3.0× computing
        // density.
        assert!((density - 10.7).abs() < 0.2, "density ratio {density}");
        assert!(
            (efficiency - 43.4).abs() < 0.5,
            "efficiency ratio {efficiency}"
        );
        assert!(computing > 2.9, "computing ratio {computing}");
    }

    #[test]
    fn febim_row_is_last_and_sota_is_memristor() {
        let table = ComparisonTable::published();
        assert!(table.febim().name.contains("FeBiM"));
        assert!(table.state_of_the_art().name.contains("Memristor"));
    }

    #[test]
    fn ratio_handles_missing_values() {
        assert_eq!(ratio(None, Some(1.0)), None);
        assert_eq!(ratio(Some(1.0), None), None);
        assert_eq!(ratio(Some(1.0), Some(0.0)), None);
        assert_eq!(ratio(Some(4.0), Some(2.0)), Some(2.0));
    }
}
