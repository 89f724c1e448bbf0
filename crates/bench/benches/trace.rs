//! Trace-format benchmark: v3 (compressed) against v2 on the synthetic
//! suite.
//!
//! For every suite benchmark this encodes the same trace as v2 and v3,
//! reports per-format sizes and bits/record, times v3 encode/decode
//! (MB/s against the raw record size, 16 bytes/record), and streams both
//! files through a DFCM lane to compare end-to-end predictions/sec. It
//! emits `BENCH_trace.json` (schema `dfcm-bench-trace/v1`, validated by
//! `dfcm-tools bench check`) at the repo root.
//!
//! Density is an acceptance gate, not just a report: the validator
//! requires every suite trace to come in at or under 16 bits/record in
//! v3, the aggregate at or under 12, and the aggregate ratio over v2 at
//! 2x or better, so a packing or compression regression fails CI.
//!
//! Not a Criterion bench: the in-workspace criterion shim measures
//! internally but does not expose timings, and this suite must write
//! its numbers out. `--test` / `--quick` (or `DFCM_BENCH_QUICK=1`)
//! selects a small smoke mode for CI; `DFCM_BENCH_OUT` overrides the
//! output path.

use std::path::PathBuf;
use std::time::Instant;

use dfcm_obs::json::JsonObj;
use dfcm_sim::{stream_trace_file, StreamPredictor};
use dfcm_trace::suite::standard_suite;
use dfcm_trace::{Trace, TraceFormat, TraceSource};

/// Raw size of one record before any encoding (pc + value, 8 bytes each).
const RAW_RECORD_BYTES: f64 = 16.0;

/// Best-of-`reps` wall time for `run`.
fn best_of<T>(reps: usize, mut run: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        let value = run();
        best = best.min(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    (best, last.expect("reps >= 1"))
}

struct SuiteResult {
    name: &'static str,
    records: u64,
    v2_bytes: u64,
    v3_bytes: u64,
    encode_seconds: f64,
    decode_seconds: f64,
}

impl SuiteResult {
    fn v2_bits_record(&self) -> f64 {
        self.v2_bytes as f64 * 8.0 / self.records as f64
    }
    fn v3_bits_record(&self) -> f64 {
        self.v3_bytes as f64 * 8.0 / self.records as f64
    }
    fn encode_mb_s(&self) -> f64 {
        self.records as f64 * RAW_RECORD_BYTES / 1e6 / self.encode_seconds
    }
    fn decode_mb_s(&self) -> f64 {
        self.records as f64 * RAW_RECORD_BYTES / 1e6 / self.decode_seconds
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--test" || a == "--quick")
        || std::env::var_os("DFCM_BENCH_QUICK").is_some();
    let mode = if quick { "quick" } else { "full" };
    let records_per_trace: usize = if quick { 80_000 } else { 1_000_000 };
    let reps = if quick { 1 } else { 3 };
    let seed = 0xBEEF;

    eprintln!(
        "trace: encoding {} suite benchmarks at {records_per_trace} records ({mode} mode)...",
        standard_suite().len()
    );

    let mut results: Vec<SuiteResult> = Vec::new();
    let mut traces: Vec<(&'static str, Trace)> = Vec::new();
    for spec in standard_suite() {
        let trace = spec.program(seed).take_trace(records_per_trace);
        let mut v2 = Vec::new();
        trace.write_v2_to(&mut v2, seed).expect("vec write");
        let (encode_seconds, v3) = best_of(reps, || {
            let mut buf = Vec::new();
            trace
                .write_with(&mut buf, TraceFormat::V3 { seed })
                .expect("vec write");
            buf
        });
        let (decode_seconds, decoded) =
            best_of(reps, || Trace::read_from(&v3[..]).expect("own encoding"));
        assert_eq!(
            decoded.records(),
            trace.records(),
            "{}: v3 round-trip diverged",
            spec.name()
        );
        results.push(SuiteResult {
            name: spec.name(),
            records: trace.len() as u64,
            v2_bytes: v2.len() as u64,
            v3_bytes: v3.len() as u64,
            encode_seconds,
            decode_seconds,
        });
        traces.push((spec.name(), trace));
    }

    // End-to-end streaming: one suite-sized trace per format on disk,
    // DFCM lane, same thread count both ways.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let dir = std::env::temp_dir().join(format!("dfcm_bench_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let stream_trace: Trace = traces
        .iter()
        .flat_map(|(_, t)| t.records().iter().copied())
        .collect();
    let v2_path = dir.join("stream.v2.trc");
    let v3_path = dir.join("stream.v3.trc");
    stream_trace
        .save_with(&v2_path, TraceFormat::V2 { seed })
        .expect("temp write");
    stream_trace
        .save_with(&v3_path, TraceFormat::V3 { seed })
        .expect("temp write");
    let lane = || -> Vec<StreamPredictor> {
        vec![StreamPredictor::parse_spec("dfcm:12:12").expect("valid spec")]
    };
    let (v2_seconds, v2_report) = best_of(reps, || {
        stream_trace_file(&v2_path, &mut lane(), threads).expect("intact file")
    });
    let (v3_seconds, v3_report) = best_of(reps, || {
        stream_trace_file(&v3_path, &mut lane(), threads).expect("intact file")
    });
    assert_eq!(
        v2_report.stats, v3_report.stats,
        "v2 and v3 streaming paths diverged"
    );
    let v2_pred_s = v2_report.records as f64 / v2_seconds;
    let v3_pred_s = v3_report.records as f64 / v3_seconds;
    std::fs::remove_dir_all(&dir).ok();

    let total_records: u64 = results.iter().map(|r| r.records).sum();
    let total_v2: u64 = results.iter().map(|r| r.v2_bytes).sum();
    let total_v3: u64 = results.iter().map(|r| r.v3_bytes).sum();
    let agg_v2_bits = total_v2 as f64 * 8.0 / total_records as f64;
    let agg_v3_bits = total_v3 as f64 * 8.0 / total_records as f64;
    let encode_mb_s = total_records as f64 * RAW_RECORD_BYTES
        / 1e6
        / results.iter().map(|r| r.encode_seconds).sum::<f64>();
    let decode_mb_s = total_records as f64 * RAW_RECORD_BYTES
        / 1e6
        / results.iter().map(|r| r.decode_seconds).sum::<f64>();

    println!("Trace format density and throughput ({mode} mode):");
    for r in &results {
        println!(
            "  {:<10} {:>9} records  v2 {:>6.2} b/rec  v3 {:>6.2} b/rec  \
             encode {:>7.1} MB/s  decode {:>7.1} MB/s",
            r.name,
            r.records,
            r.v2_bits_record(),
            r.v3_bits_record(),
            r.encode_mb_s(),
            r.decode_mb_s(),
        );
    }
    println!(
        "  aggregate: v2 {agg_v2_bits:.2} -> v3 {agg_v3_bits:.2} bits/record \
         ({:.2}x); stream {v2_pred_s:.0} -> {v3_pred_s:.0} pred/s ({:.2}x, {threads} threads)",
        agg_v2_bits / agg_v3_bits,
        v3_pred_s / v2_pred_s,
    );

    let out_path = std::env::var_os("DFCM_BENCH_OUT").map_or_else(
        || {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("BENCH_trace.json")
        },
        PathBuf::from,
    );
    let suite_objs: Vec<String> = results
        .iter()
        .map(|r| {
            JsonObj::new()
                .str("name", r.name)
                .u64("records", r.records)
                .u64("v2_bytes", r.v2_bytes)
                .u64("v3_bytes", r.v3_bytes)
                .f64("v2_bits_record", r.v2_bits_record(), 3)
                .f64("v3_bits_record", r.v3_bits_record(), 3)
                .f64("encode_mb_s", r.encode_mb_s(), 1)
                .f64("decode_mb_s", r.decode_mb_s(), 1)
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
        .f64("v2_bits_record", agg_v2_bits, 3)
        .f64("v3_bits_record", agg_v3_bits, 3)
        .f64("ratio_vs_v2", agg_v2_bits / agg_v3_bits, 3)
        .f64("encode_mb_s", encode_mb_s, 1)
        .f64("decode_mb_s", decode_mb_s, 1)
        .f64("v2_stream_pred_s", v2_pred_s, 1)
        .f64("v3_stream_pred_s", v3_pred_s, 1)
        .f64("stream_ratio", v3_pred_s / v2_pred_s, 3)
        .u64("stream_threads", threads as u64)
        .finish();
    let doc = JsonObj::new()
        .str("schema", "dfcm-bench-trace/v1")
        .str("mode", mode)
        .u64("records", total_records)
        .raw("machine", &machine)
        .raw("suite", &format!("[{}]", suite_objs.join(",")))
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
