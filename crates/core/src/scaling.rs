//! Array-scalability study: inference delay and energy as a function of the
//! crossbar geometry (Fig. 6 of the paper).

use serde::Serialize;

use febim_circuit::{ReadGeometry, SensingChain};
use febim_crossbar::{Activation, CrossbarLayout, ProgrammingMode, TileGrid, TilePlan};
use febim_device::{FeFetParams, LevelProgrammer};

use crate::errors::Result;

/// One point of the scalability sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ScalingPoint {
    /// Number of wordlines (rows).
    pub rows: usize,
    /// Number of bitlines (columns).
    pub columns: usize,
    /// Worst-case inference delay in seconds.
    pub delay: f64,
    /// Array-settling part of the delay in seconds.
    pub delay_array: f64,
    /// Sensing (WTA) part of the delay in seconds.
    pub delay_sensing: f64,
    /// Array energy (drivers + cell conduction) in joules.
    pub energy_array: f64,
    /// Sensing energy (mirrors + WTA) in joules.
    pub energy_sensing: f64,
}

impl ScalingPoint {
    /// Total inference energy in joules.
    pub fn energy_total(&self) -> f64 {
        self.energy_array + self.energy_sensing
    }
}

/// Measures the worst-case delay and energy of a `rows × columns` crossbar
/// with every bitline activated, the stress pattern used in Fig. 6.
///
/// The cells are programmed with a deterministic staggered level pattern so
/// neighbouring wordlines carry slightly different currents (the worst-case
/// gap assumption is handled inside the delay model).
///
/// # Errors
///
/// Propagates layout, programming and circuit-model errors.
pub fn measure_geometry(
    rows: usize,
    columns: usize,
    sensing: &SensingChain,
    levels: usize,
) -> Result<ScalingPoint> {
    // Model the geometry as `columns` single-level evidence nodes so any
    // row/column combination is expressible.
    let layout = CrossbarLayout::new(rows, columns, 1, false)?;
    let programmer = LevelProgrammer::new(
        FeFetParams::febim_calibrated(),
        levels,
        febim_device::programming::DEFAULT_MIN_READ_CURRENT,
        febim_device::programming::DEFAULT_MAX_READ_CURRENT,
    )?;
    let mut array = TileGrid::new(TilePlan::monolithic(layout), programmer);
    for row in 0..rows {
        for column in 0..columns {
            let level = (row + column) % levels;
            array.program_cell(row, column, level, ProgrammingMode::Ideal)?;
        }
    }
    let activation = Activation::all_columns(array.layout());
    let currents = array.wordline_currents(&activation)?;
    let mirrored = sensing.mirror().copy_all(&currents)?;
    let geometry = ReadGeometry::Array { activated: columns };
    let (delay, energy) = sensing.price(geometry, None, &currents, &mirrored)?;
    Ok(ScalingPoint {
        rows,
        columns,
        delay: delay.total(),
        delay_array: delay.array,
        delay_sensing: delay.sensing,
        energy_array: energy.array,
        energy_sensing: energy.sensing,
    })
}

/// Sweeps the number of columns at a fixed row count (Fig. 6(a)/(b)).
///
/// # Errors
///
/// Propagates [`measure_geometry`] errors.
pub fn column_sweep(
    rows: usize,
    columns: &[usize],
    sensing: &SensingChain,
) -> Result<Vec<ScalingPoint>> {
    columns
        .iter()
        .map(|&c| measure_geometry(rows, c, sensing, 10))
        .collect()
}

/// Sweeps the number of rows at a fixed column count (Fig. 6(c)/(d)).
///
/// # Errors
///
/// Propagates [`measure_geometry`] errors.
pub fn row_sweep(
    rows: &[usize],
    columns: usize,
    sensing: &SensingChain,
) -> Result<Vec<ScalingPoint>> {
    rows.iter()
        .map(|&r| measure_geometry(r, columns, sensing, 10))
        .collect()
}

/// The column counts used in Fig. 6(a)/(b): 2 to 256.
pub fn figure6_columns() -> Vec<usize> {
    vec![2, 4, 8, 16, 32, 64, 128, 256]
}

/// The row counts used in Fig. 6(c)/(d): 2 to 32.
pub fn figure6_rows() -> Vec<usize> {
    vec![2, 4, 8, 16, 32]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> SensingChain {
        SensingChain::febim_calibrated()
    }

    #[test]
    fn figure6_geometries_are_the_paper_ones() {
        assert_eq!(figure6_columns().first(), Some(&2));
        assert_eq!(figure6_columns().last(), Some(&256));
        assert_eq!(figure6_rows(), vec![2, 4, 8, 16, 32]);
    }

    #[test]
    fn delay_grows_with_columns() {
        let points = column_sweep(2, &figure6_columns(), &chain()).unwrap();
        assert_eq!(points.len(), 8);
        for pair in points.windows(2) {
            assert!(pair[1].delay > pair[0].delay);
        }
        // Fig. 6(a): roughly 200 ps at 2 columns, roughly 800 ps at 256.
        assert!(points[0].delay > 100e-12 && points[0].delay < 350e-12);
        assert!(points[7].delay > 600e-12 && points[7].delay < 1100e-12);
    }

    #[test]
    fn energy_grows_with_columns() {
        let points = column_sweep(2, &figure6_columns(), &chain()).unwrap();
        for pair in points.windows(2) {
            assert!(pair[1].energy_total() > pair[0].energy_total());
        }
        // Fig. 6(b): tens of femtojoules at 256 columns.
        let last = points.last().unwrap();
        assert!(last.energy_total() > 10e-15 && last.energy_total() < 200e-15);
        // With only two rows the array energy dominates the sensing energy.
        assert!(last.energy_array > last.energy_sensing);
    }

    #[test]
    fn delay_grows_with_rows() {
        let points = row_sweep(&figure6_rows(), 32, &chain()).unwrap();
        for pair in points.windows(2) {
            assert!(pair[1].delay > pair[0].delay);
        }
        // Fig. 6(c): approaching a nanosecond at 32 rows.
        let last = points.last().unwrap();
        assert!(last.delay > 700e-12 && last.delay < 1500e-12);
    }

    #[test]
    fn sensing_energy_dominates_for_tall_arrays() {
        let points = row_sweep(&figure6_rows(), 32, &chain()).unwrap();
        let last = points.last().unwrap();
        // Fig. 6(d): the per-row mirrors and WTA cells dominate at 32 rows.
        assert!(last.energy_sensing > last.energy_array);
        assert!(last.energy_total() > 50e-15 && last.energy_total() < 500e-15);
    }

    #[test]
    fn delay_breakdown_is_consistent() {
        let point = measure_geometry(4, 16, &chain(), 10).unwrap();
        assert!((point.delay - (point.delay_array + point.delay_sensing)).abs() < 1e-18);
        assert!(point.energy_array > 0.0);
        assert!(point.energy_sensing > 0.0);
    }
}
