//! End-to-end simulation speed: workload generation, VM execution, and a
//! full suite evaluation — the costs that bound how far the `--scale` and
//! `--full` knobs of `dfcm-repro` can be pushed.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dfcm::DfcmPredictor;
use dfcm_bench::fixture_trace;
use dfcm_sim::{run_suite_engine, simulate_trace, EngineConfig};
use dfcm_trace::suite::standard_traces;
use dfcm_trace::TraceSource;
use dfcm_vm::{assemble, programs, Vm};
use std::hint::black_box;

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");

    group.throughput(Throughput::Elements(50_000));
    group.bench_function("generate_trace_50k", |b| {
        b.iter(|| black_box(fixture_trace(50_000)))
    });

    group.bench_function("vm_execute_norm_100k_steps", |b| {
        let program = assemble(programs::NORM).unwrap();
        b.iter(|| {
            let mut vm = Vm::new(program.clone());
            black_box(vm.take_trace(50_000))
        })
    });

    group.bench_function("suite_run_dfcm_scale_0.01", |b| {
        let traces = standard_traces(1, 0.01);
        let engine = EngineConfig::threads(1);
        b.iter(|| {
            black_box(run_suite_engine(
                || {
                    DfcmPredictor::builder()
                        .l1_bits(14)
                        .l2_bits(12)
                        .build()
                        .unwrap()
                },
                &traces,
                &engine,
            ))
        })
    });

    group.bench_function("simulate_dfcm_50k", |b| {
        let trace = fixture_trace(50_000);
        b.iter(|| {
            let mut p = DfcmPredictor::builder()
                .l1_bits(14)
                .l2_bits(12)
                .build()
                .unwrap();
            black_box(simulate_trace(&mut p, &trace))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_generation);
criterion_main!(benches);
