//! Fault-simulation engine throughput: serial vs parallel coverage
//! evaluation under the full-replay oracle and the packed engine,
//! full-replay vs early-exit detection, single-fault detection (a
//! one-fault packed plan) against a full replay over a shared compiled
//! trace, and lane-packed batch
//! simulation of the batchable fault classes.

use criterion::{criterion_group, criterion_main, Criterion};
use mbist_march::{
    evaluate_coverage, expand, library, run_steps, run_steps_detect, CompiledTrace,
    CoverageOptions, SimEngine,
};
use mbist_mem::{class_universe, FaultClass, MemGeometry, MemoryArray, UniverseSpec};
use std::hint::black_box;

fn bench_coverage_parallelism(c: &mut Criterion) {
    let g = MemGeometry::bit_oriented(256);
    let mut group = c.benchmark_group("fault_sim_256x1");
    group.sample_size(10);

    let modes = [
        ("jobs1_full", Some(1), SimEngine::Full),
        ("jobs1_packed", Some(1), SimEngine::Packed),
        ("jobs_auto_full", None, SimEngine::Full),
        ("jobs_auto_packed", None, SimEngine::Packed),
    ];
    for (label, jobs, engine) in modes {
        group.bench_function(format!("march_c_all_classes_{label}"), |b| {
            let opts = CoverageOptions {
                max_faults_per_class: Some(128),
                jobs,
                engine,
                ..CoverageOptions::default()
            };
            b.iter(|| black_box(evaluate_coverage(&library::march_c(), &g, &opts)))
        });
    }
    group.finish();
}

fn bench_single_fault(c: &mut Criterion) {
    let g = MemGeometry::bit_oriented(256);
    let test = library::march_c();
    let steps = expand(&test, &g);
    let spec = UniverseSpec::default();
    // A coupling fault exercises an inter-word program (two merged op
    // lists plus sensitization); the victim sits mid-array so neither
    // path exits unrealistically early, and the plan builds its program
    // from a representative relocated onto words 0 and 1.
    let fault =
        class_universe(&g, FaultClass::CouplingInversion, &spec)[g.words() as usize / 2];

    let mut group = c.benchmark_group("single_fault_256x1");
    group.sample_size(10);
    group.bench_function("compile_trace_march_c", |b| {
        b.iter(|| black_box(CompiledTrace::from_steps(g, &steps)))
    });
    let trace = CompiledTrace::from_steps(g, &steps);
    group.bench_function("detect_coupling", |b| b.iter(|| black_box(trace.detect(fault))));
    group.bench_function("detect_full_coupling", |b| {
        let mut scratch = MemoryArray::new(g);
        b.iter(|| black_box(trace.detect_full(fault, &mut scratch)))
    });
    group.finish();
}

fn bench_packed_batches(c: &mut Criterion) {
    let g = MemGeometry::bit_oriented(256);
    let test = library::march_c();
    let steps = expand(&test, &g);
    let spec = UniverseSpec::default();
    let trace = CompiledTrace::from_steps(g, &steps);
    // Five of the classes the packed engine vectorizes.
    let batchable = [
        FaultClass::StuckAt,
        FaultClass::Transition,
        FaultClass::CouplingInversion,
        FaultClass::CouplingIdempotent,
        FaultClass::CouplingState,
    ];
    let universe: Vec<_> = batchable
        .iter()
        .flat_map(|&class| class_universe(&g, class, &spec).into_iter().take(256))
        .collect();

    let mut group = c.benchmark_group("packed_256x1");
    group.sample_size(10);
    group.bench_function("march_c_packed_batchable", |b| {
        b.iter(|| black_box(trace.detect_universe(&universe, Some(1), SimEngine::Packed)))
    });
    group.finish();
}

fn bench_detect_early_exit(c: &mut Criterion) {
    let g = MemGeometry::bit_oriented(256);
    let test = library::march_c();
    let steps = expand(&test, &g);
    let spec = UniverseSpec::default();
    // A stuck-at fault trips on the very first read sweep (early exit wins);
    // the fault-free array replays the whole stream in both modes.
    let fault = class_universe(&g, FaultClass::StuckAt, &spec)[0];

    let mut group = c.benchmark_group("detect_256x1");
    group.sample_size(10);
    group.bench_function("full_replay_stuck_at", |b| {
        b.iter(|| {
            let mut mem = MemoryArray::with_fault(g, fault).unwrap();
            black_box(!run_steps(&mut mem, &steps).passed())
        })
    });
    group.bench_function("early_exit_stuck_at", |b| {
        b.iter(|| {
            let mut mem = MemoryArray::with_fault(g, fault).unwrap();
            black_box(run_steps_detect(&mut mem, &steps))
        })
    });
    group.bench_function("early_exit_fault_free", |b| {
        b.iter(|| {
            let mut mem = MemoryArray::new(g);
            black_box(run_steps_detect(&mut mem, &steps))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_coverage_parallelism,
    bench_single_fault,
    bench_packed_batches,
    bench_detect_early_exit
);
criterion_main!(benches);
