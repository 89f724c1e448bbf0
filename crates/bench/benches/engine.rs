//! Engine scaling: `sweep_engine` at 1, 2 and 4 workers on a Figure
//! 10(a)-sized sweep. The 1-worker row is the baseline; higher counts
//! show the scaling the host's cores allow (on a single-core host all
//! counts collapse to the 1-worker cost, which is itself the interesting
//! result).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dfcm::DfcmPredictor;
use dfcm_sim::{sweep_engine, EngineConfig};
use dfcm_trace::suite::standard_traces;
use std::hint::black_box;

fn bench_engine_scaling(c: &mut Criterion) {
    let traces = standard_traces(1, 0.01);
    let configs: Vec<u32> = (8..=16).step_by(2).collect();
    let factory = |&l2: &u32| {
        DfcmPredictor::builder()
            .l1_bits(16)
            .l2_bits(l2)
            .build()
            .unwrap()
    };
    let records: u64 = traces.iter().map(|b| b.trace.len() as u64).sum();

    let mut group = c.benchmark_group("engine");
    group.throughput(Throughput::Elements(records * configs.len() as u64));
    for threads in [1usize, 2, 4] {
        group.bench_function(BenchmarkId::new("sweep_engine", threads), |b| {
            let engine = EngineConfig::threads(threads);
            b.iter(|| black_box(sweep_engine(&configs, factory, &traces, &engine)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine_scaling);
criterion_main!(benches);
