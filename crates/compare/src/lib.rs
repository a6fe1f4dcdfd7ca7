//! # febim-compare
//!
//! Analytical cost models of prior NVM-based Bayesian inference hardware and
//! the assembly of the paper's Table 1 comparison: the MTJ RNG engine \[13\],
//! the memtransistor RNG engine \[14\], the memristor Bayesian machine \[16\] and
//! FeBiM itself (either from measured engine metrics or from the published
//! numbers).
//!
//! # Example
//!
//! ```
//! use febim_compare::ComparisonTable;
//!
//! let table = ComparisonTable::published();
//! let improvements = table.improvements();
//! // The paper reports a 10.7x storage density improvement over the
//! // state-of-the-art memristor Bayesian machine.
//! assert!(improvements.storage_density_vs_sota.unwrap() > 10.0);
//! ```

#![warn(missing_docs)]

pub mod entry;
pub mod table;

pub use entry::{CellConfiguration, DeviceUsage, TechnologyEntry};
pub use table::{ComparisonTable, ImprovementSummary};

pub mod bayesian_machine;

pub use bayesian_machine::{BayesianMachine, BayesianMachineConfig, Lfsr, StochasticInference};
