//! Predictions-per-second throughput suite.
//!
//! Measures the simulator's hot path over the eight-benchmark synthetic
//! suite and emits a machine-readable `BENCH_throughput.json` (schema
//! `dfcm-bench-throughput/v1`, validated by `dfcm-tools bench check`) at
//! the repo root, so throughput can be compared across commits. Two paths
//! per predictor:
//!
//! * **dyn** — the classic per-predictor pass: `Box<dyn ValuePredictor>`
//!   driven through the predict-then-update protocol, one full suite walk
//!   per configuration (the pre-streaming hot path).
//! * **stream** — one [`StreamPredictor`] lane through the single-pass
//!   streaming core (fused access, enum dispatch).
//!
//! Per-predictor entries time the walk alone (traces already in memory),
//! giving the raw predictions/sec trajectory for each of the four paper
//! predictors at eval-sized tables. The headline aggregate times the
//! workload the streaming core exists for: a paper-style table-size sweep
//! (16 configurations) over the suite stored as DFCMTRC2 traces. The
//! baseline is the pre-streaming workflow — one cold start per
//! configuration, each paying a full v2 decode (CRC + varint) of every
//! benchmark plus a dyn walk, what 16 separate one-predictor
//! evaluations cost. The streaming side decodes each benchmark ONCE and
//! feeds all 16 lanes in a single pass (`dfcm-tools eval` with 16 specs):
//! `aggregate.speedup = baseline_dyn_seconds / stream_seconds`.
//!
//! Not a Criterion bench: the in-workspace criterion shim measures
//! internally but does not expose timings, and this suite must write its
//! numbers out. `--test` / `--quick` (or `DFCM_BENCH_QUICK=1`) selects a
//! small-trace smoke mode for CI; `DFCM_BENCH_OUT` overrides the output
//! path.

use std::path::PathBuf;
use std::time::Instant;

use dfcm::{DfcmPredictor, FcmPredictor, LastValuePredictor, StridePredictor, ValuePredictor};
use dfcm_obs::json::JsonObj;
use dfcm_sim::{stream_trace, StreamPredictor};
use dfcm_trace::suite::{standard_traces, BenchmarkTrace};
use dfcm_trace::Trace;

/// One measured pass.
struct Measurement {
    predictor: String,
    kind: &'static str,
    path: &'static str,
    records: u64,
    seconds: f64,
}

impl Measurement {
    fn predictions_per_sec(&self) -> f64 {
        self.records as f64 / self.seconds
    }
}

/// Best-of-`reps` wall time of `run`, each rep on freshly built state.
fn best_of<T>(reps: usize, mut build: impl FnMut() -> T, mut run: impl FnMut(&mut T)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut state = build();
        let start = Instant::now();
        run(&mut state);
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// The four paper predictors at eval-sized tables, as streaming lanes.
fn lanes() -> Vec<(&'static str, StreamPredictor)> {
    vec![
        ("lvp", LastValuePredictor::new(16).into()),
        ("stride", StridePredictor::new(16).into()),
        (
            "fcm",
            FcmPredictor::builder()
                .l1_bits(16)
                .l2_bits(12)
                .build()
                .unwrap()
                .into(),
        ),
        (
            "dfcm",
            DfcmPredictor::builder()
                .l1_bits(16)
                .l2_bits(12)
                .build()
                .unwrap()
                .into(),
        ),
    ]
}

/// The aggregate's sweep: lvp/stride at 2^{10,12,14,16} entries and
/// fcm/dfcm at l1 = 2^16 with l2 = 2^{8,10,12,14} — the repo's standard
/// table-size sweep shape (16 configurations).
fn sweep_lanes() -> Vec<StreamPredictor> {
    let mut v: Vec<StreamPredictor> = Vec::new();
    for bits in [10u32, 12, 14, 16] {
        v.push(LastValuePredictor::new(bits).into());
        v.push(StridePredictor::new(bits).into());
    }
    for l2 in [8u32, 10, 12, 14] {
        v.push(
            FcmPredictor::builder()
                .l1_bits(16)
                .l2_bits(l2)
                .build()
                .unwrap()
                .into(),
        );
        v.push(
            DfcmPredictor::builder()
                .l1_bits(16)
                .l2_bits(l2)
                .build()
                .unwrap()
                .into(),
        );
    }
    v
}

/// The pre-streaming reference pass: dyn dispatch, predict then update
/// (two table index computations per record), counting like the classic
/// `simulate_trace`.
fn dyn_pass(p: &mut Box<dyn ValuePredictor>, trace: &Trace) -> u64 {
    let mut correct = 0u64;
    for r in trace {
        let predicted = p.predict(r.pc);
        p.update(r.pc, r.value);
        correct += u64::from(predicted == r.value);
    }
    correct
}

/// A dyn suite walk: fresh predictor per benchmark, like the engine's
/// suite tasks.
fn dyn_suite(lane: &StreamPredictor, suite: &[BenchmarkTrace]) -> u64 {
    let mut correct = 0u64;
    for bench in suite {
        let mut p: Box<dyn ValuePredictor> = Box::new(lane.clone());
        correct += dyn_pass(&mut p, &bench.trace);
    }
    correct
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--test" || a == "--quick")
        || std::env::var_os("DFCM_BENCH_QUICK").is_some();
    // Criterion-style harness flags that other benches accept are
    // irrelevant here but must not error under `cargo bench -- --test`.
    let mode = if quick { "quick" } else { "full" };
    let scale = if quick { 0.01 } else { 0.1 };
    let reps = if quick { 1 } else { 3 };

    eprintln!("throughput: generating synthetic suite (scale {scale}, {mode} mode)...");
    let suite = standard_traces(0xBEEF, scale);
    let records: u64 = suite.iter().map(|b| b.trace.len() as u64).sum();

    let mut results: Vec<Measurement> = Vec::new();

    // Per-predictor: dyn reference walk vs single-lane streaming walk,
    // traces in memory, fresh predictor per benchmark.
    for (kind, lane) in lanes() {
        let name = lane.name();
        let dyn_s = best_of(
            reps,
            || (),
            |()| {
                std::hint::black_box(dyn_suite(&lane, &suite));
            },
        );
        results.push(Measurement {
            predictor: name.clone(),
            kind,
            path: "dyn",
            records,
            seconds: dyn_s,
        });
        let stream_s = best_of(
            reps,
            || (),
            |()| {
                for bench in &suite {
                    let mut l = vec![lane.clone()];
                    std::hint::black_box(stream_trace(&mut l, &bench.trace));
                }
            },
        );
        results.push(Measurement {
            predictor: name,
            kind,
            path: "stream",
            records,
            seconds: stream_s,
        });
    }

    // Aggregate: the table-size sweep on the suite stored as v2 traces.
    // Baseline = one cold start per configuration (every benchmark
    // decoded, then a dyn walk — what 16 separate `eval` invocations
    // cost); stream = each benchmark decoded ONCE, feeding all 16 lanes
    // in a single pass.
    let encoded: Vec<Vec<u8>> = suite
        .iter()
        .map(|b| {
            let mut v = Vec::new();
            b.trace
                .write_v2_to(&mut v, 0xBEEF)
                .expect("in-memory v2 encode cannot fail");
            v
        })
        .collect();
    let sweep = sweep_lanes();
    let configs = sweep.len() as u64;
    let baseline_dyn_seconds = best_of(
        reps,
        || (),
        |()| {
            for lane in &sweep {
                for bytes in &encoded {
                    let trace = Trace::read_from(bytes.as_slice()).expect("suite decodes");
                    let mut p: Box<dyn ValuePredictor> = Box::new(lane.clone());
                    std::hint::black_box(dyn_pass(&mut p, &trace));
                }
            }
        },
    );
    let stream_seconds = best_of(
        reps,
        || (),
        |()| {
            for bytes in &encoded {
                let trace = Trace::read_from(bytes.as_slice()).expect("suite decodes");
                let mut l = sweep.clone();
                std::hint::black_box(stream_trace(&mut l, &trace));
            }
        },
    );
    let speedup = baseline_dyn_seconds / stream_seconds;

    println!("predictions/sec on the synthetic suite ({records} records, {mode} mode):");
    for m in &results {
        println!(
            "  {:<16} {:<6} {:>12.0} pred/s  ({:.4}s)",
            m.predictor,
            m.path,
            m.predictions_per_sec(),
            m.seconds
        );
    }
    println!(
        "  aggregate ({configs}-config sweep): {configs} cold starts (decode + dyn walk) \
         {baseline_dyn_seconds:.4}s vs one decode + {configs}-lane stream pass \
         {stream_seconds:.4}s -> {speedup:.2}x"
    );

    // Emit the artifact.
    let out_path = std::env::var_os("DFCM_BENCH_OUT").map_or_else(
        || {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("BENCH_throughput.json")
        },
        PathBuf::from,
    );
    let result_objs: Vec<String> = results
        .iter()
        .map(|m| {
            JsonObj::new()
                .str("predictor", &m.predictor)
                .str("kind", m.kind)
                .str("path", m.path)
                .u64("records", m.records)
                .f64("seconds", m.seconds, 6)
                .f64("predictions_per_sec", m.predictions_per_sec(), 1)
                .finish()
        })
        .collect();
    let machine = JsonObj::new()
        .str("os", std::env::consts::OS)
        .str("arch", std::env::consts::ARCH)
        .u64(
            "threads",
            std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        )
        .finish();
    let aggregate = JsonObj::new()
        .u64("configs", configs)
        .f64("baseline_dyn_seconds", baseline_dyn_seconds, 6)
        .f64("stream_seconds", stream_seconds, 6)
        .f64("speedup", speedup, 3)
        .finish();
    let doc = JsonObj::new()
        .str("schema", "dfcm-bench-throughput/v1")
        .str("mode", mode)
        .str("suite", "synthetic-suite")
        .u64("records", records)
        .raw("machine", &machine)
        .raw("results", &format!("[{}]", result_objs.join(",")))
        .raw("aggregate", &aggregate)
        .finish();
    match dfcm_trace::atomic_write(&out_path, format!("{doc}\n").as_bytes()) {
        Ok(()) => println!("wrote {}", out_path.display()),
        Err(e) => {
            eprintln!("error writing {}: {e}", out_path.display());
            std::process::exit(1);
        }
    }
}
