//! Observability overhead: the engine sweep with the obs handle
//! disabled (the default) and enabled, at 1, 2 and 4 workers; the
//! 1-worker disabled row is the baseline. The disabled case must stay
//! within noise of a build that predates the obs hooks — the handle is
//! an `Option<Arc>` checked once per task attempt, so an obs-free run
//! costs one branch. The enabled case prices the spans, per-task
//! histogram updates and table trackers, which is worth knowing before
//! shipping `--obs` into a large sweep.
//!
//! The `obs_stream_overhead` group prices the windowed phase-series +
//! top-K fold on the streaming core: `stream_off` is the plain
//! single-pass path (with obs disabled the observed entry point is
//! exactly `stream_trace_file`), `stream_series` adds the per-record
//! window/top-K fold, and `stream_series_classified` additionally runs
//! the aliasing taxonomy.
//!
//! Fold placement decides what `stream_series` costs. On hosts with
//! more than one hardware thread the fold runs on a dedicated thread
//! and the streaming consumer only pays for writing outcome tuples into
//! a recycled buffer — a few percent of the core, which is how the
//! fold stays off the critical path. On a single-core host the fold
//! runs inline (a fold thread would only time-slice against the
//! consumer) and its full price lands on the core: roughly 2.3x on
//! this deliberately miss-heavy two-lane suite, dominated by the
//! per-miss top-K and histogram updates. `stream_series_classified`
//! additionally pays the alias analyzer itself inside each lane access
//! — predictor-side work that exists independently of the series fold.
//! Either placement folds the identical outcome sequence, so the
//! exported series is bit-identical (pinned by the dfcm-sim tests).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dfcm::DfcmPredictor;
use dfcm_obs::Obs;
use dfcm_sim::{stream_trace_file_observed, sweep_engine, EngineConfig, StreamPredictor};
use dfcm_trace::suite::standard_traces;
use dfcm_trace::{Trace, TraceFormat};
use std::hint::black_box;

fn bench_obs_overhead(c: &mut Criterion) {
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

    let mut group = c.benchmark_group("obs_overhead");
    group.throughput(Throughput::Elements(records * configs.len() as u64));
    for threads in [1usize, 2, 4] {
        group.bench_function(BenchmarkId::new("engine_obs_off", threads), |b| {
            let engine = EngineConfig::threads(threads);
            b.iter(|| black_box(sweep_engine(&configs, factory, &traces, &engine)))
        });
        group.bench_function(BenchmarkId::new("engine_obs_on", threads), |b| {
            let engine = EngineConfig {
                obs: Obs::enabled(),
                ..EngineConfig::threads(threads)
            };
            b.iter(|| black_box(sweep_engine(&configs, factory, &traces, &engine)))
        });
    }
    group.finish();
}

fn bench_stream_series_overhead(c: &mut Criterion) {
    // One merged suite trace on disk: the streaming core's real input.
    let dir = std::env::temp_dir().join("dfcm_bench_obs_stream");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("suite.v2.trc");
    let mut merged = Trace::new();
    for b in standard_traces(1, 0.02) {
        for r in &b.trace {
            merged.push(*r);
        }
    }
    let records = merged.len() as u64;
    merged
        .save_with(&path, TraceFormat::V2 { seed: 1 })
        .expect("save trace");

    let lanes = || {
        vec![
            StreamPredictor::parse_spec("dfcm:12:12").expect("spec"),
            StreamPredictor::parse_spec("fcm:12:12").expect("spec"),
        ]
    };
    let mut group = c.benchmark_group("obs_stream_overhead");
    group.throughput(Throughput::Elements(records * 2));
    // Disabled handle: short-circuits to the plain streaming pass.
    group.bench_function(BenchmarkId::new("stream_off", 1), |b| {
        b.iter(|| {
            let mut lanes = lanes();
            black_box(
                stream_trace_file_observed(&path, &mut lanes, 1, &Obs::disabled(), false)
                    .expect("stream"),
            )
        })
    });
    // Windowed series + top-K fold, no alias classification (the cheap
    // default for observed streaming).
    group.bench_function(BenchmarkId::new("stream_series", 1), |b| {
        b.iter(|| {
            let mut lanes = lanes();
            black_box(
                stream_trace_file_observed(&path, &mut lanes, 1, &Obs::enabled(), false)
                    .expect("stream"),
            )
        })
    });
    // Series fold plus the full aliasing taxonomy (what `eval
    // --streaming --obs` runs).
    group.bench_function(BenchmarkId::new("stream_series_classified", 1), |b| {
        b.iter(|| {
            let mut lanes = lanes();
            black_box(
                stream_trace_file_observed(&path, &mut lanes, 1, &Obs::enabled(), true)
                    .expect("stream"),
            )
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_obs_overhead, bench_stream_series_overhead);
criterion_main!(benches);
