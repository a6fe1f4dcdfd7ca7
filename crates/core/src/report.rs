//! Experiment reports: tabular results with CSV export, used by the benchmark
//! binaries to persist the regenerated figures and tables.

use std::fs;
use std::io::Write as _;
use std::path::Path;

use serde::Serialize;

use crate::errors::{CoreError, Result};

/// A simple tabular experiment result.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Table {
    /// Table title (e.g. `"fig6a_delay_vs_columns"`).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows; every row must have one entry per header.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with the given title and headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of cells (converted to strings).
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the header count; experiment
    /// code constructs rows statically so a mismatch is a programming error.
    pub fn push_row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells for {} headers",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells.to_vec());
    }

    /// Convenience helper to push a row of formatted floating-point values.
    ///
    /// Values with a magnitude below `1e-3` (device currents, energies,
    /// delays) are written in scientific notation so they survive the
    /// fixed-precision formatting.
    pub fn push_numeric_row(&mut self, cells: &[f64]) {
        let formatted: Vec<String> = cells
            .iter()
            .map(|&c| {
                if c != 0.0 && c.abs() < 1e-3 {
                    format!("{c:.6e}")
                } else {
                    format!("{c:.6}")
                }
            })
            .collect();
        self.push_row(&formatted);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as CSV text.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Renders the table as an aligned plain-text block for console output.
    pub fn to_pretty(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (index, cell) in row.iter().enumerate() {
                widths[index] = widths[index].max(cell.len());
            }
        }
        let mut out = format!("== {} ==\n", self.title);
        let header_line: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(index, h)| format!("{h:>width$}", width = widths[index]))
            .collect();
        out.push_str(&header_line.join("  "));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(index, cell)| format!("{cell:>width$}", width = widths[index]))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        out
    }

    /// Writes the table as `<dir>/<title>.csv`, creating the directory first.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] wrapping the I/O failure if the
    /// directory or file cannot be written.
    pub fn write_csv(&self, dir: &Path) -> Result<std::path::PathBuf> {
        fs::create_dir_all(dir).map_err(|err| CoreError::InvalidConfig {
            name: "output_dir",
            reason: format!("cannot create {}: {err}", dir.display()),
        })?;
        let path = dir.join(format!("{}.csv", self.title));
        let mut file = fs::File::create(&path).map_err(|err| CoreError::InvalidConfig {
            name: "output_file",
            reason: format!("cannot create {}: {err}", path.display()),
        })?;
        file.write_all(self.to_csv().as_bytes())
            .map_err(|err| CoreError::InvalidConfig {
                name: "output_file",
                reason: format!("cannot write {}: {err}", path.display()),
            })?;
        Ok(path)
    }
}

/// The default directory used by the benchmark binaries for CSV output.
pub fn default_experiment_dir() -> std::path::PathBuf {
    std::path::PathBuf::from("target").join("experiments")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_round_trip_shape() {
        let mut table = Table::new("demo", &["a", "b"]);
        table.push_row(&["1".to_string(), "2".to_string()]);
        table.push_numeric_row(&[3.5, 4.25]);
        assert_eq!(table.len(), 2);
        assert!(!table.is_empty());
        let csv = table.to_csv();
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "a,b");
        assert!(lines[2].starts_with("3.5"));
    }

    #[test]
    #[should_panic(expected = "row has 1 cells for 2 headers")]
    fn mismatched_row_panics() {
        let mut table = Table::new("demo", &["a", "b"]);
        table.push_row(&["only one".to_string()]);
    }

    #[test]
    fn pretty_rendering_contains_title_and_data() {
        let mut table = Table::new("pretty", &["metric", "value"]);
        table.push_row(&["density".to_string(), "26.32".to_string()]);
        let text = table.to_pretty();
        assert!(text.contains("== pretty =="));
        assert!(text.contains("26.32"));
    }

    #[test]
    fn csv_file_is_written() {
        let dir = std::env::temp_dir().join(format!("febim-report-test-{}", std::process::id()));
        let mut table = Table::new("written", &["x"]);
        table.push_row(&["1".to_string()]);
        let path = table.write_csv(&dir).unwrap();
        let contents = std::fs::read_to_string(&path).unwrap();
        assert!(contents.contains("x"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn default_dir_is_under_target() {
        assert!(default_experiment_dir().starts_with("target"));
    }
}
