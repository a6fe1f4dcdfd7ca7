//! Criterion micro-benchmarks of the array-scaling simulation (the machinery
//! behind Fig. 6): wordline accumulation and sensing for growing geometries.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use febim_circuit::SensingChain;
use febim_core::measure_geometry;
use febim_crossbar::{Activation, CrossbarLayout, ProgrammingMode, TileGrid, TilePlan};
use febim_device::{FeFetParams, LevelProgrammer};

fn build_array(rows: usize, columns: usize) -> TileGrid {
    let layout = CrossbarLayout::new(rows, columns, 1, false).expect("layout");
    let programmer = LevelProgrammer::new(
        FeFetParams::febim_calibrated(),
        10,
        febim_device::programming::DEFAULT_MIN_READ_CURRENT,
        febim_device::programming::DEFAULT_MAX_READ_CURRENT,
    )
    .expect("programmer");
    let mut array = TileGrid::new(TilePlan::monolithic(layout), programmer);
    for row in 0..rows {
        for column in 0..columns {
            array
                .program_cell(row, column, (row + column) % 10, ProgrammingMode::Ideal)
                .expect("program");
        }
    }
    array
}

fn scaling_benches(c: &mut Criterion) {
    let chain = SensingChain::febim_calibrated();

    let mut group = c.benchmark_group("wordline_accumulation");
    for columns in [32usize, 128, 256] {
        let array = build_array(2, columns);
        let activation = Activation::all_columns(array.layout());
        group.bench_with_input(BenchmarkId::new("2_rows", columns), &columns, |b, _| {
            b.iter(|| {
                array
                    .wordline_currents(std::hint::black_box(&activation))
                    .expect("currents")
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("sensing_chain");
    for rows in [2usize, 8, 32] {
        let currents: Vec<f64> = (0..rows).map(|r| 0.5e-6 + r as f64 * 0.05e-6).collect();
        group.bench_with_input(BenchmarkId::new("rows", rows), &rows, |b, _| {
            b.iter(|| {
                chain
                    .sense(std::hint::black_box(&currents), 32)
                    .expect("sense")
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("figure6_point");
    group.sample_size(20);
    for (rows, columns) in [(2usize, 256usize), (32, 32)] {
        group.bench_with_input(
            BenchmarkId::new("geometry", format!("{rows}x{columns}")),
            &(rows, columns),
            |b, &(rows, columns)| {
                b.iter(|| measure_geometry(rows, columns, &chain, 10).expect("measure"))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, scaling_benches);
criterion_main!(benches);
