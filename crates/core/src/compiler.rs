//! Compilation of a quantized Bayesian model into a crossbar program, either
//! monolithic (one array holds the whole model) or tiled (the model is
//! sharded across a grid of fixed-size physical tiles).

use serde::Serialize;

use febim_crossbar::{CrossbarLayout, TilePlan, TileShape};
use febim_quant::{pack_feature_levels, Encoding, QuantizedGnbc};

use crate::errors::Result;

/// A complete crossbar programming plan: the array geometry plus the target
/// multi-level state of every cell.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CrossbarProgram {
    layout: CrossbarLayout,
    /// `levels[row][column]`: target level, or `None` for cells left erased.
    levels: Vec<Vec<Option<usize>>>,
    /// Number of FeFET states used by the program (`2^Q_l` for one-hot,
    /// `2^bits` for bit-plane cells).
    state_count: usize,
    /// Column encoding the levels were emitted under.
    encoding: Encoding,
}

impl CrossbarProgram {
    /// The crossbar geometry.
    pub fn layout(&self) -> &CrossbarLayout {
        &self.layout
    }

    /// The per-cell target levels.
    pub fn levels(&self) -> &[Vec<Option<usize>>] {
        &self.levels
    }

    /// Number of distinct FeFET states the program uses.
    pub fn state_count(&self) -> usize {
        self.state_count
    }

    /// Number of programmed (non-erased) cells.
    pub fn programmed_cells(&self) -> usize {
        self.levels
            .iter()
            .flat_map(|row| row.iter())
            .filter(|level| level.is_some())
            .count()
    }

    /// Number of bits stored per cell (`log2` of the state count).
    pub fn bits_per_cell(&self) -> f64 {
        (self.state_count as f64).log2()
    }

    /// The column encoding the program was compiled for.
    pub fn encoding(&self) -> Encoding {
        self.encoding
    }
}

/// Compiles a quantized GNBC into a crossbar program.
///
/// The prior column is emitted only when the model's prior is non-uniform or
/// `force_prior_column` is set, matching the paper's choice of omitting the
/// prior block for the balanced iris dataset (Fig. 8(b)).
///
/// Under [`Encoding::OneHot`] every `(feature, bin)` pair gets its own
/// column. Under [`Encoding::BitPlane`] each feature's per-bin level row is
/// packed `digits_per_cell` bins at a time into multi-bit cells, shrinking
/// the likelihood block by that factor; the prior column (when emitted)
/// stores its level raw in the lowest digit slot.
///
/// # Errors
///
/// Propagates layout-construction, level-lookup, and digit-packing errors,
/// and rejects an encoding too narrow for the model's likelihood precision.
pub fn compile(
    quantized: &QuantizedGnbc,
    force_prior_column: bool,
    encoding: Encoding,
) -> Result<CrossbarProgram> {
    let likelihood_bits = quantized.config().likelihood_bits;
    encoding.validate(likelihood_bits)?;
    let include_prior = force_prior_column || !quantized.has_uniform_prior();
    let bins = quantized.discretizer().bins();
    let digits_per_cell = encoding.digits_per_cell(likelihood_bits);
    let layout = CrossbarLayout::new(
        quantized.n_classes(),
        quantized.n_features(),
        encoding.columns_per_feature(bins, likelihood_bits),
        include_prior,
    )?;
    let mut levels = vec![vec![None; layout.columns()]; layout.rows()];
    for (class, row) in levels.iter_mut().enumerate() {
        if let Some(prior_column) = layout.prior_column() {
            row[prior_column] = Some(quantized.prior_level(class)?);
        }
        for feature in 0..quantized.n_features() {
            let bin_levels = (0..bins)
                .map(|bin| quantized.likelihood_level(class, feature, bin))
                .collect::<febim_quant::Result<Vec<usize>>>()?;
            let cell_values = if encoding.is_packed() {
                pack_feature_levels(&bin_levels, digits_per_cell, likelihood_bits)?
            } else {
                bin_levels
            };
            for (slot, value) in cell_values.into_iter().enumerate() {
                let column = layout.likelihood_column(feature, slot)?;
                row[column] = Some(value);
            }
        }
    }
    Ok(CrossbarProgram {
        layout,
        levels,
        state_count: encoding.state_count(quantized.quantizer().levels()),
        encoding,
    })
}

/// A crossbar program together with its placement on a tiled fabric: the
/// same per-cell level matrix as the monolithic [`CrossbarProgram`], plus the
/// [`TilePlan`] that shards it row-wise over event tiles and column-wise over
/// evidence tiles.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TiledProgram {
    program: CrossbarProgram,
    plan: TilePlan,
}

impl TiledProgram {
    /// Places a program on one array of its own size
    /// ([`TilePlan::monolithic`]).
    pub(crate) fn monolithic(program: CrossbarProgram) -> Self {
        let plan = TilePlan::monolithic(*program.layout());
        Self { program, plan }
    }

    /// The underlying (tile-agnostic) crossbar program.
    pub fn program(&self) -> &CrossbarProgram {
        &self.program
    }

    /// The tile placement plan.
    pub fn plan(&self) -> &TilePlan {
        &self.plan
    }

    /// The logical crossbar geometry.
    pub fn layout(&self) -> &CrossbarLayout {
        self.program.layout()
    }

    /// Number of distinct FeFET states the program uses.
    pub fn state_count(&self) -> usize {
        self.program.state_count()
    }

    /// The column encoding the program was compiled for.
    pub fn encoding(&self) -> Encoding {
        self.program.encoding()
    }
}

/// Compiles a quantized GNBC onto a tiled fabric of fixed-size crossbar
/// tiles: the monolithic program is planned onto the smallest grid of
/// `shape`-sized tiles that covers it.
///
/// The prior-column policy matches [`compile`].
///
/// # Errors
///
/// Propagates layout/level errors from [`compile`] and tile-plan errors
/// (zero-dimension tile shapes).
pub fn compile_tiled(
    quantized: &QuantizedGnbc,
    force_prior_column: bool,
    shape: TileShape,
    encoding: Encoding,
) -> Result<TiledProgram> {
    let program = compile(quantized, force_prior_column, encoding)?;
    let plan = TilePlan::new(*program.layout(), shape)?;
    Ok(TiledProgram { program, plan })
}

#[cfg(test)]
mod tests {
    use super::*;
    use febim_bayes::GaussianNaiveBayes;
    use febim_data::rng::seeded_rng;
    use febim_data::split::stratified_split;
    use febim_data::synthetic::{cancer_like, iris_like};
    use febim_data::Dataset;
    use febim_quant::QuantConfig;

    fn iris_quantized() -> QuantizedGnbc {
        let dataset = iris_like(30).unwrap();
        let split = stratified_split(&dataset, 0.7, &mut seeded_rng(30)).unwrap();
        let model = GaussianNaiveBayes::fit(&split.train).unwrap();
        QuantizedGnbc::quantize(&model, &split.train, QuantConfig::febim_optimal()).unwrap()
    }

    #[test]
    fn iris_program_matches_figure_8b_geometry() {
        let program = compile(&iris_quantized(), false, Encoding::OneHot).unwrap();
        // 3 classes x 64 bitlines, no prior column, 2-bit cells.
        assert_eq!(program.layout().rows(), 3);
        assert_eq!(program.layout().columns(), 64);
        assert!(!program.layout().has_prior());
        assert_eq!(program.state_count(), 4);
        assert!((program.bits_per_cell() - 2.0).abs() < 1e-12);
        assert_eq!(program.programmed_cells(), 192);
    }

    #[test]
    fn forcing_the_prior_column_adds_one_column() {
        let program = compile(&iris_quantized(), true, Encoding::OneHot).unwrap();
        assert_eq!(program.layout().columns(), 65);
        assert!(program.layout().has_prior());
        assert_eq!(program.programmed_cells(), 195);
    }

    #[test]
    fn non_uniform_prior_always_gets_a_column() {
        let dataset = cancer_like(31).unwrap();
        let split = stratified_split(&dataset, 0.7, &mut seeded_rng(31)).unwrap();
        let model = GaussianNaiveBayes::fit(&split.train).unwrap();
        assert!(!model.has_uniform_prior());
        let quantized =
            QuantizedGnbc::quantize(&model, &split.train, QuantConfig::new(3, 3)).unwrap();
        let program = compile(&quantized, false, Encoding::OneHot).unwrap();
        assert!(program.layout().has_prior());
        assert_eq!(program.layout().rows(), 2);
        assert_eq!(program.layout().columns(), 1 + 30 * 8);
    }

    #[test]
    fn every_level_is_within_the_state_count() {
        let program = compile(&iris_quantized(), false, Encoding::OneHot).unwrap();
        for row in program.levels() {
            for level in row.iter().flatten() {
                assert!(*level < program.state_count());
            }
        }
    }

    /// The crossbar column order, for every bit width and prior-column
    /// setting: column 0 holds the prior level when the layout has a prior
    /// column, then each feature owns a block of `2^Q_f` likelihood
    /// columns in bin order, and every cell stores its quantized level.
    #[test]
    fn levels_match_the_quantized_tables() {
        let dataset = iris_like(30).unwrap();
        let split = stratified_split(&dataset, 0.7, &mut seeded_rng(30)).unwrap();
        let model = GaussianNaiveBayes::fit(&split.train).unwrap();
        for feature_bits in 1..5 {
            for likelihood_bits in 1..4 {
                let config = QuantConfig::new(feature_bits, likelihood_bits);
                let quantized = QuantizedGnbc::quantize(&model, &split.train, config).unwrap();
                let bins = quantized.discretizer().bins();
                for force_prior_column in [false, true] {
                    let program =
                        compile(&quantized, force_prior_column, Encoding::OneHot).unwrap();
                    let layout = program.layout();
                    let has_prior = force_prior_column || !quantized.has_uniform_prior();
                    assert_eq!(layout.has_prior(), has_prior);
                    assert_eq!(layout.prior_column(), has_prior.then_some(0));
                    let first = usize::from(has_prior);
                    assert_eq!(layout.columns(), first + quantized.n_features() * bins);
                    for (class, row) in program.levels().iter().enumerate() {
                        if has_prior {
                            assert_eq!(row[0], Some(quantized.prior_level(class).unwrap()));
                        }
                        for feature in 0..quantized.n_features() {
                            for bin in 0..bins {
                                let column = first + feature * bins + bin;
                                assert_eq!(layout.likelihood_column(feature, bin).unwrap(), column);
                                assert_eq!(
                                    row[column],
                                    Some(quantized.likelihood_level(class, feature, bin).unwrap())
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tiled_compile_covers_the_iris_program_with_a_2x2_grid() {
        let quantized = iris_quantized();
        let tiled = compile_tiled(
            &quantized,
            false,
            TileShape::new(2, 48).unwrap(),
            Encoding::OneHot,
        )
        .unwrap();
        // 3×64 on 2×48 tiles → 2 tile rows × 2 tile columns.
        assert_eq!(tiled.plan().row_tiles(), 2);
        assert_eq!(tiled.plan().col_tiles(), 2);
        assert!(tiled.plan().is_multi_tile());
        assert_eq!(tiled.layout(), tiled.program().layout());
        assert_eq!(tiled.state_count(), 4);
        assert_eq!(
            tiled.program(),
            &compile(&quantized, false, Encoding::OneHot).unwrap(),
            "tiling must not change the compiled levels"
        );
        assert!(
            compile_tiled(
                &quantized,
                false,
                TileShape::new(64, 64).unwrap(),
                Encoding::OneHot
            )
            .unwrap()
            .plan()
            .tile_count()
                == 1
        );
    }

    #[test]
    fn packed_iris_program_halves_the_columns_at_four_bits() {
        use febim_quant::{digit_slot_of, packed_column_of, unpack_digit};
        let quantized = iris_quantized();
        let encoding = Encoding::BitPlane { bits: 4 };
        let packed = compile(&quantized, false, encoding).unwrap();
        // 4-bit cells pack two 2-bit bins: 3 classes x 32 bitlines.
        assert_eq!(packed.layout().rows(), 3);
        assert_eq!(packed.layout().columns(), 32);
        assert_eq!(packed.state_count(), 16);
        assert_eq!(packed.encoding(), encoding);
        assert!((packed.bits_per_cell() - 4.0).abs() < 1e-12);
        assert_eq!(packed.programmed_cells(), 96);
        // Every bin level survives the packing bit for bit.
        let r = encoding.digits_per_cell(2);
        for class in 0..quantized.n_classes() {
            for feature in 0..quantized.n_features() {
                for bin in 0..quantized.discretizer().bins() {
                    let column = packed
                        .layout()
                        .likelihood_column(feature, packed_column_of(bin, r))
                        .unwrap();
                    let cell = packed.levels()[class][column].unwrap();
                    assert_eq!(
                        unpack_digit(cell, digit_slot_of(bin, r), 2),
                        quantized.likelihood_level(class, feature, bin).unwrap()
                    );
                }
            }
        }
        // An 8-bit cell packs four bins: 16 columns for the same model.
        let wide = compile(&quantized, false, Encoding::BitPlane { bits: 8 }).unwrap();
        assert_eq!(wide.layout().columns(), 16);
        assert_eq!(wide.state_count(), 256);
    }

    #[test]
    fn packed_prior_column_stores_the_raw_level() {
        let quantized = iris_quantized();
        let packed = compile(&quantized, true, Encoding::BitPlane { bits: 4 }).unwrap();
        let prior_column = packed.layout().prior_column().unwrap();
        for class in 0..quantized.n_classes() {
            assert_eq!(
                packed.levels()[class][prior_column],
                Some(quantized.prior_level(class).unwrap())
            );
        }
    }

    #[test]
    fn narrow_cells_are_rejected_at_compile_time() {
        // A 1-bit cell cannot hold one Q_l = 2 digit.
        assert!(compile(&iris_quantized(), false, Encoding::BitPlane { bits: 1 }).is_err());
    }

    #[test]
    fn packed_tiled_program_matches_the_monolithic_packing() {
        let quantized = iris_quantized();
        let encoding = Encoding::BitPlane { bits: 4 };
        let tiled =
            compile_tiled(&quantized, false, TileShape::new(2, 16).unwrap(), encoding).unwrap();
        assert_eq!(tiled.encoding(), encoding);
        assert_eq!(tiled.plan().row_tiles(), 2);
        assert_eq!(tiled.plan().col_tiles(), 2);
        assert_eq!(
            tiled.program(),
            &compile(&quantized, false, encoding).unwrap(),
            "tiling must not change the packed levels"
        );
    }

    #[test]
    fn degenerate_single_class_still_compiles() {
        let dataset = Dataset::new(
            "single",
            vec!["x".to_string()],
            1,
            vec![vec![0.0], vec![1.0], vec![2.0]],
            vec![0, 0, 0],
        )
        .unwrap();
        let model = GaussianNaiveBayes::fit(&dataset).unwrap();
        let quantized = QuantizedGnbc::quantize(&model, &dataset, QuantConfig::new(2, 2)).unwrap();
        let program = compile(&quantized, false, Encoding::OneHot).unwrap();
        assert_eq!(program.layout().rows(), 1);
    }
}
