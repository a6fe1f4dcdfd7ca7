//! Criterion micro-benchmarks of device and crossbar programming: pulse-train
//! vs ideal programming of a single FeFET and of the full iris crossbar.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use febim_bayes::GaussianNaiveBayes;
use febim_core::{compile, EngineConfig, FebimEngine};
use febim_crossbar::{ProgrammingMode, TileGrid, TilePlan};
use febim_data::rng::seeded_rng;
use febim_data::split::stratified_split;
use febim_data::synthetic::iris_like;
use febim_device::{FeFet, FeFetParams, LevelProgrammer};
use febim_quant::{Encoding, QuantConfig, QuantizedGnbc};

fn programming_benches(c: &mut Criterion) {
    let programmer = LevelProgrammer::febim_default(10).expect("programmer");

    let mut group = c.benchmark_group("device_programming");
    group.bench_function("single_cell_pulse_train", |b| {
        b.iter_batched(
            || FeFet::new(FeFetParams::febim_calibrated()),
            |mut device| {
                programmer
                    .program_with_pulses(&mut device, 7)
                    .expect("program")
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("single_cell_ideal", |b| {
        b.iter_batched(
            || FeFet::new(FeFetParams::febim_calibrated()),
            |mut device| programmer.program_ideal(&mut device, 7).expect("program"),
            BatchSize::SmallInput,
        )
    });
    group.finish();

    // Full 3x64 iris crossbar programming.
    let dataset = iris_like(43).expect("dataset");
    let split = stratified_split(&dataset, 0.7, &mut seeded_rng(43)).expect("split");
    let model = GaussianNaiveBayes::fit(&split.train).expect("fit");
    let quantized = QuantizedGnbc::quantize(&model, &split.train, QuantConfig::febim_optimal())
        .expect("quantize");
    let program = compile(&quantized, false, Encoding::OneHot).expect("compile");
    let array_programmer = LevelProgrammer::new(
        FeFetParams::febim_calibrated(),
        program.state_count(),
        febim_device::programming::DEFAULT_MIN_READ_CURRENT,
        febim_device::programming::DEFAULT_MAX_READ_CURRENT,
    )
    .expect("programmer");

    let mut group = c.benchmark_group("crossbar_programming_3x64");
    group.sample_size(30);
    for (label, mode) in [
        ("ideal", ProgrammingMode::Ideal),
        ("pulse_train_with_disturb", ProgrammingMode::PulseTrain),
    ] {
        group.bench_function(label, |b| {
            b.iter_batched(
                || {
                    TileGrid::new(
                        TilePlan::monolithic(*program.layout()),
                        array_programmer.clone(),
                    )
                },
                |mut array| {
                    array
                        .program_matrix(program.levels(), mode)
                        .expect("program")
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();

    // Engine construction end to end (train + quantize + compile + program).
    let mut group = c.benchmark_group("engine_construction");
    group.sample_size(20);
    group.bench_function("fit_iris_engine", |b| {
        b.iter(|| {
            FebimEngine::fit(
                std::hint::black_box(&split.train),
                EngineConfig::febim_default(),
            )
            .expect("engine")
        })
    });
    group.finish();
}

criterion_group!(benches, programming_benches);
criterion_main!(benches);
