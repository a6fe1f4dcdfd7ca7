//! Criterion micro-benchmarks of the crossbar read path: the
//! conductance-cached sparse accumulation against the uncached dense
//! reference, at the iris geometry (3×64) and at a Fig. 6-scale geometry
//! (64 rows × 512 columns).

use criterion::{criterion_group, criterion_main, Criterion};

use febim_crossbar::{Activation, CrossbarLayout, ProgrammingMode, TileGrid, TilePlan};
use febim_device::LevelProgrammer;

/// Builds a fully programmed crossbar with a deterministic staggered level
/// pattern (the same scheme the Fig. 6 sweeps use).
fn programmed_array(rows: usize, nodes: usize, levels_per_node: usize) -> TileGrid {
    let layout = CrossbarLayout::new(rows, nodes, levels_per_node, false).expect("layout");
    let programmer = LevelProgrammer::febim_default(10).expect("programmer");
    let mut array = TileGrid::new(TilePlan::monolithic(layout), programmer);
    for row in 0..rows {
        for column in 0..array.layout().columns() {
            let level = (row + column) % 10;
            array
                .program_cell(row, column, level, ProgrammingMode::Ideal)
                .expect("program");
        }
    }
    array
}

fn bench_geometry(c: &mut Criterion, name: &str, rows: usize, nodes: usize, levels: usize) {
    let array = programmed_array(rows, nodes, levels);
    // One observation-style activation (one column per evidence node) and the
    // all-columns stress pattern of the scalability study.
    let evidence: Vec<usize> = (0..nodes).map(|node| node % levels).collect();
    let sparse = Activation::from_observation(array.layout(), &evidence).expect("activation");
    let all = Activation::all_columns(array.layout());
    // Warm the conductance cache outside the timed region.
    let mut currents = array.wordline_currents(&sparse).expect("warm-up read");

    let mut group = c.benchmark_group(name);
    group.sample_size(20);
    group.bench_function("cached_sparse", |b| {
        b.iter(|| {
            array
                .wordline_currents_into(std::hint::black_box(&sparse), &mut currents)
                .expect("read")
        })
    });
    group.bench_function("cached_all_columns", |b| {
        b.iter(|| {
            array
                .wordline_currents_into(std::hint::black_box(&all), &mut currents)
                .expect("read")
        })
    });
    group.bench_function("reference_dense_sparse_activation", |b| {
        b.iter(|| {
            array
                .wordline_currents_reference(std::hint::black_box(&sparse))
                .expect("read")
        })
    });
    group.bench_function("reference_dense_all_columns", |b| {
        b.iter(|| {
            array
                .wordline_currents_reference(std::hint::black_box(&all))
                .expect("read")
        })
    });
    group.finish();
}

fn read_path_benches(c: &mut Criterion) {
    // The iris geometry of Fig. 8(b): 3 wordlines, 4 nodes × 16 levels.
    bench_geometry(c, "read_path_iris_3x64", 3, 4, 16);
    // A Fig. 6-scale stress geometry: 64 wordlines, 32 nodes × 16 levels.
    bench_geometry(c, "read_path_fig6_64x512", 64, 32, 16);
}

criterion_group!(benches, read_path_benches);
criterion_main!(benches);
