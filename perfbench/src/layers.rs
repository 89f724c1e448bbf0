//! The traced run: per-layer metrics, the reconciliation report and the
//! tracing overhead.
//!
//! Spans come only from this package, around calls into the crates'
//! public functions, and are recorded with `dfcm_obs::Obs`. They are kept
//! in memory and written once at the end (Chrome trace, JSONL and
//! Prometheus text under `.bench_work/spans_<workload>/`). Every traced
//! run emits every per-layer metric: besides the workload's own pass it
//! runs one probe of each layer, at the workload's trace scale.

use std::path::Path;
use std::time::Instant;

use dfcm::{DfcmPredictor, FcmPredictor, ValuePredictor};
use dfcm_obs::metrics::MetricValue;
use dfcm_obs::span::Event;
use dfcm_obs::Obs;
use dfcm_serve::protocol::{encode_frame, read_frame};
use dfcm_serve::{LoadGenReport, Reply, Request, ServeClient, SessionStore};
use dfcm_sim::engine::RetryPolicy;
use dfcm_sim::{
    kernel_traces_observed, simulate_trace, stream_trace, stream_trace_file,
    stream_trace_file_observed, sweep_engine, EngineConfig, RunStats,
};
use dfcm_trace::suite::standard_traces;
use dfcm_trace::{BenchmarkTrace, V3ChunkReader};
use dfcm_vm::Tier;

use crate::workloads::{
    lanes, repro_check, repro_pass, repro_setup, serve_setup, serve_trace, stream_obs_pass,
    stream_ok, stream_oracle, stream_pass, stream_setup, write_v3, StreamPass, TraceFile, Workload,
    EXPERIMENTS, HEADLINE, REPRO_SCALE, SERVE_SPEC, SWEEP,
};
use crate::{nproc, work_dir, Args, Report};

/// `vmbench`'s record cap at the repro scale.
const VM_RECORDS: usize = 1_000_000;

/// Runs the traced run of `args.workload`.
pub fn run(args: &Args) -> Result<Report, String> {
    let bench = Obs::enabled();
    let off = Obs::disabled();
    let mut rep = Report::default();
    let w = args.workload;
    let scale = w.scale();

    // The workload's own pass, untraced and then traced.
    let mut serve_probe = None;
    let (untraced_s, traced_s) = match w {
        Workload::Repro => {
            let opts = repro_setup(args.seed)?;
            let mut times = [0.0; 2];
            for (obs, time) in [&off, &bench].into_iter().zip(&mut times) {
                let t = Instant::now();
                for ok in repro_pass(&opts, obs) {
                    rep.op(ok);
                }
                *time = t.elapsed().as_secs_f64();
            }
            repro_check(&opts, &mut rep);
            (times[0], times[1])
        }
        Workload::Stream | Workload::StreamObs => {
            let files = stream_setup(args.seed, scale)?;
            let export = work_dir("stream_obs_export").map_err(|e| e.to_string())?;
            let specs: &[&str] = if w == Workload::Stream {
                &SWEEP
            } else {
                &HEADLINE
            };
            let oracle = stream_oracle(&files, args.seed, scale);
            let mut times = [0.0; 2];
            for (obs, time) in [&off, &bench].into_iter().zip(&mut times) {
                let t = Instant::now();
                let pass: StreamPass = if w == Workload::Stream {
                    stream_pass(&files, specs, obs)
                } else {
                    stream_obs_pass(&files, &export, obs)
                };
                *time = t.elapsed().as_secs_f64();
                if w == Workload::StreamObs {
                    rep.op(pass.export_ok);
                }
                for (run, (file, want)) in pass.files.iter().zip(files.iter().zip(&oracle)) {
                    rep.op(stream_ok(run, file, specs, want));
                }
            }
            (times[0], times[1])
        }
        Workload::Serve => {
            let probe = serve_rounds(args.seed, &[&off, &bench], &mut rep)?;
            let times = (probe.rounds[0].elapsed, probe.rounds[1].elapsed);
            serve_probe = Some(probe);
            (times.0.as_secs_f64(), times.1.as_secs_f64())
        }
    };

    // One probe per layer.
    if w != Workload::Repro {
        let opts = repro_setup(args.seed)?;
        for ok in repro_pass(&opts, &bench) {
            rep.op(ok);
        }
        repro_check(&opts, &mut rep);
    }
    let traces = {
        let _span = bench.span("trace.gen");
        standard_traces(args.seed, scale)
    };
    let dir = work_dir("layers").map_err(|e| e.to_string())?;
    let files = {
        let _span = bench.span("trace.v3_encode");
        traces
            .iter()
            .map(|t| write_v3(t, &dir, args.seed))
            .collect::<Result<Vec<TraceFile>, String>>()?
    };
    sim_probes(&traces, &files, &bench, &mut rep);
    let utilization = engine_probe(&traces, args.seed, scale, &bench, &mut rep);
    let vm_obs = Obs::enabled();
    {
        let _span = bench.span("vm.kernel_traces_observed");
        std::hint::black_box(kernel_traces_observed(VM_RECORDS, Tier::Fast, &vm_obs));
    }
    let obs_export = work_dir("layers_obs_export").map_err(|e| e.to_string())?;
    obs_probes(&files, &obs_export, &bench, &mut rep);
    let codec_requests = codec_probes(args.seed, &bench, &mut rep);
    let probe = match serve_probe {
        Some(p) => p,
        None => serve_rounds(args.seed, &[&bench], &mut rep)?,
    };

    // Per-layer metrics from the spans.
    let (events, _) = bench.snapshot();
    let span_s = |name: &str| span_total_s(&events, name);
    let records: u64 = files.iter().map(|f| f.records).sum();
    let bytes: u64 = files.iter().map(|f| f.bytes).sum();

    let mut exp_sum = 0.0;
    for (name, _) in EXPERIMENTS {
        let s = span_s(&format!("repro.{name}"));
        exp_sum += s;
        rep.metric(&format!("repro.{name}_s"), s, "s");
    }
    let repro_wall = span_s("repro.all");
    rep.metric("repro.unexplained_s", repro_wall - exp_sum, "s");

    rep.metric("trace.gen_s", span_s("trace.gen"), "s");
    rep.metric("trace.v3_encode_s", span_s("trace.v3_encode"), "s");
    rep.metric(
        "trace.v3_bits_per_record",
        8.0 * bytes as f64 / records as f64,
        "bit",
    );
    let decode = span_s("trace.v3_decode");
    rep.metric("trace.v3_decode_s", decode, "s");

    let kernel_s = span_s("vm.kernel_traces_observed");
    rep.metric("vm.kernel_traces_s", kernel_s, "s");
    rep.metric(
        "vm.steps_per_s",
        counter_total(&vm_obs, "vm_instructions_total") / kernel_s,
        "1/s",
    );

    let lanes_s = span_s("sim.lanes");
    let stream_s = span_s("sim.stream");
    rep.metric("sim.lanes_s", lanes_s, "s");
    rep.metric("sim.stream_s", stream_s, "s");
    for family in ["lvp", "stride", "fcm", "dfcm"] {
        let per_lane = SWEEP
            .iter()
            .filter(|s| s.split(':').next() == Some(family))
            .count();
        let s = span_s(&format!("sim.lane.{family}"));
        rep.metric(
            &format!("sim.lane_pred_per_s.{family}"),
            (records * per_lane as u64) as f64 / s,
            "1/s",
        );
    }
    let overlap = (decode + lanes_s - stream_s) / stream_s;
    rep.metric("sim.stream_overlap", overlap, "ratio");
    rep.metric(
        "sim.dyn_pred_per_s",
        records as f64 / span_s("sim.dyn"),
        "1/s",
    );
    rep.metric("sim.engine_sweep_s", span_s("sim.sweep_engine"), "s");
    rep.metric("sim.engine_utilization", utilization, "ratio");

    let observed = span_s("obs.stream_observed");
    let no_stats = span_s("obs.stream_no_table_stats");
    let disabled = span_s("obs.stream_disabled");
    rep.metric("obs.observed_s", observed, "s");
    rep.metric("obs.disabled_s", disabled, "s");
    rep.metric("obs.no_table_stats_s", no_stats, "s");
    rep.metric("obs.overhead_x", observed / disabled, "ratio");
    rep.metric(
        "obs.alias_share",
        (observed - no_stats) / (observed - disabled),
        "ratio",
    );
    rep.metric("obs.export_s", span_s("obs.write_exports"), "s");

    let frame_ns = span_s("serve.frame_codec") * 1e9 / codec_requests as f64;
    let session_ns = span_s("serve.session") * 1e9 / codec_requests as f64;
    let handled_us = (frame_ns + session_ns) / 1000.0;
    rep.metric("serve.frame_codec_ns", frame_ns, "ns");
    rep.metric("serve.session_ns", session_ns, "ns");
    rep.metric("serve.server_p50_us", probe.server_p50_us, "us");
    rep.metric("serve.client_p50_us", probe.client_p50_us, "us");
    rep.metric(
        "serve.wait_us",
        probe.client_p50_us - probe.server_p50_us,
        "us",
    );
    rep.metric(
        "serve.unexplained_us",
        probe.server_p50_us - handled_us,
        "us",
    );

    rep.metric("bench.untraced_pass_s", untraced_s, "s");
    rep.metric("bench.traced_pass_s", traced_s, "s");
    rep.metric("bench.tracing_overhead_x", traced_s / untraced_s, "ratio");

    println!();
    println!(
        "reconciliation ({} traced run, trace scale {scale})",
        w.name()
    );
    println!(
        "  repro:  21 experiments sum to {exp_sum:.4} s of a {repro_wall:.4} s pass; \
         unexplained {:.4} s",
        repro_wall - exp_sum
    );
    println!(
        "  stream: decode-only {decode:.4} s + in-memory lanes {lanes_s:.4} s = {:.4} s \
         against {stream_s:.4} s streaming; overlap {overlap:.4} of streaming time",
        decode + lanes_s
    );
    println!(
        "  serve:  frame codec {:.1} ns + session {:.1} ns = {handled_us:.3} us against the \
         daemon's p50 of {} us (whole microseconds); unexplained {:.3} us; client p50 {} us \
         over {} requests, of which {:.3} us is socket, queueing and worker rotation",
        frame_ns,
        session_ns,
        probe.server_p50_us,
        probe.server_p50_us - handled_us,
        probe.client_p50_us,
        probe.requests,
        probe.client_p50_us - probe.server_p50_us
    );
    println!(
        "  obs:    observed {observed:.4} s / disabled {disabled:.4} s = {:.3}x; table stats \
         add {:.4} s of the {:.4} s overhead",
        observed / disabled,
        observed - no_stats,
        observed - disabled
    );
    println!(
        "tracing overhead ({}): traced pass {traced_s:.4} s / untraced pass {untraced_s:.4} s \
         = {:.4}x",
        w.name(),
        traced_s / untraced_s
    );
    let spans_dir = Path::new(".bench_work").join(format!("spans_{}", w.name()));
    bench
        .write_exports(&spans_dir)
        .map_err(|e| format!("{}: {e}", spans_dir.display()))?;
    println!("spans -> {}/trace.json", spans_dir.display());
    Ok(rep)
}

/// Seconds covered by all spans named `name`.
fn span_total_s(events: &[Event], name: &str) -> f64 {
    events
        .iter()
        .map(|e| match e {
            Event::Span {
                name: n, dur_us, ..
            } if n == name => *dur_us as f64 / 1e6,
            _ => 0.0,
        })
        .sum()
}

/// Sum of the counter `name` over all label sets.
fn counter_total(obs: &Obs, name: &str) -> f64 {
    obs.snapshot()
        .1
        .metrics
        .iter()
        .map(|(k, v)| match v {
            MetricValue::Counter(n) if k.name == name => *n as f64,
            _ => 0.0,
        })
        .sum()
}

/// Decode-only, streaming, in-memory, one-lane-at-a-time and `dyn`
/// probes over the same records. The three ways of running a lane must
/// agree; each disagreement is a failed operation.
fn sim_probes(traces: &[BenchmarkTrace], files: &[TraceFile], bench: &Obs, rep: &mut Report) {
    {
        let _span = bench.span("trace.v3_decode");
        for f in files {
            let decoded: Result<u64, std::io::Error> = V3ChunkReader::open(&f.path).and_then(|r| {
                r.map(|c| c.and_then(|c| c.decode()).map(|v| v.len() as u64))
                    .sum()
            });
            rep.op(decoded.is_ok_and(|n| n == f.records));
        }
    }
    let streamed: Vec<Option<Vec<RunStats>>> = {
        let _span = bench.span("sim.stream");
        files
            .iter()
            .map(|f| {
                stream_trace_file(&f.path, &mut lanes(&SWEEP), nproc())
                    .ok()
                    .map(|r| r.stats)
            })
            .collect()
    };
    let in_memory: Vec<Vec<RunStats>> = {
        let _span = bench.span("sim.lanes");
        traces
            .iter()
            .map(|t| stream_trace(&mut lanes(&SWEEP), &t.trace))
            .collect()
    };
    for (s, m) in streamed.iter().zip(&in_memory) {
        rep.op(s.as_ref() == Some(m));
    }
    for family in ["lvp", "stride", "fcm", "dfcm"] {
        let specs: Vec<&str> = SWEEP
            .iter()
            .copied()
            .filter(|s| s.split(':').next() == Some(family))
            .collect();
        let _span = bench.span(&format!("sim.lane.{family}"));
        for spec in specs {
            for t in traces {
                std::hint::black_box(stream_trace(&mut lanes(&[spec]), &t.trace));
            }
        }
    }
    let dfcm_lane = SWEEP
        .iter()
        .position(|s| *s == HEADLINE[1])
        .expect("dfcm lane");
    let _span = bench.span("sim.dyn");
    for (t, m) in traces.iter().zip(&in_memory) {
        let mut p: Box<dyn ValuePredictor> = Box::new(
            DfcmPredictor::builder()
                .l1_bits(16)
                .l2_bits(12)
                .build()
                .expect("valid dfcm"),
        );
        rep.op(simulate_trace(p.as_mut(), &t.trace) == m[dfcm_lane]);
    }
}

/// `sweep_engine` over fig3's FCM grid at the repro scale; returns the
/// mean worker utilization.
fn engine_probe(
    traces: &[BenchmarkTrace],
    seed: u64,
    scale: f64,
    bench: &Obs,
    rep: &mut Report,
) -> f64 {
    let repro_traces;
    let traces = if scale == REPRO_SCALE {
        traces
    } else {
        repro_traces = standard_traces(seed, REPRO_SCALE);
        &repro_traces
    };
    let grid: Vec<(u32, u32)> = [0, 4, 6, 8, 10, 12, 14, 16]
        .iter()
        .flat_map(|&l1| (8..=16).step_by(2).map(move |l2| (l1, l2)))
        .collect();
    let (points, report) = {
        let _span = bench.span("sim.sweep_engine");
        sweep_engine(
            &grid,
            |&(l1, l2)| {
                FcmPredictor::builder()
                    .l1_bits(l1)
                    .l2_bits(l2)
                    .build()
                    .expect("valid fcm")
            },
            traces,
            &EngineConfig::threads(nproc()),
        )
    };
    rep.op(report.all_ok() && points.len() == grid.len());
    report
        .workers
        .iter()
        .map(|w| report.utilization(w))
        .sum::<f64>()
        / report.workers.len().max(1) as f64
}

/// The headline lanes through `stream_trace_file_observed`: with
/// observability disabled, enabled without table statistics, and enabled
/// with them, then the export of the last.
fn obs_probes(files: &[TraceFile], export: &Path, bench: &Obs, rep: &mut Report) {
    fn pass(
        files: &[TraceFile],
        span: &str,
        layer: &Obs,
        table_stats: bool,
        bench: &Obs,
        rep: &mut Report,
    ) {
        let _span = bench.span(span);
        for f in files {
            let r = stream_trace_file_observed(
                &f.path,
                &mut lanes(&HEADLINE),
                nproc(),
                layer,
                table_stats,
            );
            rep.op(r.is_ok_and(|r| r.records == f.records));
        }
    }
    pass(
        files,
        "obs.stream_disabled",
        &Obs::disabled(),
        true,
        bench,
        rep,
    );
    pass(
        files,
        "obs.stream_no_table_stats",
        &Obs::enabled(),
        false,
        bench,
        rep,
    );
    let layer = Obs::enabled();
    pass(files, "obs.stream_observed", &layer, true, bench, rep);
    let _span = bench.span("obs.write_exports");
    rep.op(layer.write_exports(export).is_ok());
}

/// In-memory request/reply framing and session access over the serving
/// trace, one request per record; returns the request count.
fn codec_probes(seed: u64, bench: &Obs, rep: &mut Report) -> usize {
    let trace = serve_trace(seed);
    let mut round_trips_ok = true;
    {
        let _span = bench.span("serve.frame_codec");
        for (i, r) in trace.records().iter().enumerate() {
            let seq = i as u64 + 1;
            let request = Request::Update {
                session: 1,
                seq,
                pc: r.pc,
                value: r.value,
            };
            let frame = encode_frame(&request.encode());
            let back = read_frame(&mut frame.as_slice())
                .ok()
                .and_then(|p| Request::decode(&p).ok());
            let reply = Reply::Updated {
                seq,
                predicted: r.value,
                correct: true,
            };
            let frame = encode_frame(&reply.encode());
            let reply_back = read_frame(&mut frame.as_slice())
                .ok()
                .and_then(|p| Reply::decode(&p).ok());
            round_trips_ok &=
                back.as_ref() == Some(&request) && reply_back.as_ref() == Some(&reply);
        }
    }
    rep.op(round_trips_ok);
    let store = SessionStore::new(SERVE_SPEC, 1024).expect("valid serving spec");
    let _span = bench.span("serve.session");
    for r in trace.records() {
        std::hint::black_box(store.with_session(1, |s| s.predictor.access(r.pc, r.value)));
    }
    trace.len()
}

/// What the serving probe measured.
struct ServeProbe {
    rounds: Vec<LoadGenReport>,
    client_p50_us: f64,
    server_p50_us: f64,
    requests: u64,
}

/// Starts a warmed daemon, runs one round per entry of `obss` (each
/// recording into that handle), reads the daemon's own latency quantile
/// and stops it.
fn serve_rounds(seed: u64, obss: &[&Obs], rep: &mut Report) -> Result<ServeProbe, String> {
    let (mut daemon, trace) = serve_setup(seed)?;
    let mut rounds = Vec::new();
    for obs in obss {
        let r = daemon.round(&trace, obs)?;
        rep.attempted += r.requests;
        rep.failed += r.failed + r.corrupted;
        rounds.push(r);
    }
    let stats = {
        let _span = obss[obss.len() - 1].span("serve.stats");
        ServeClient::new(daemon.addr, 0, RetryPolicy::none()).stats()
    };
    let server_p50_us = stats.ok().and_then(|text| {
        text.lines()
            .find_map(|l| l.strip_prefix("serve_recent_request_us{quantile=\"0.5\"}"))
            .and_then(|v| v.trim().parse::<f64>().ok())
    });
    rep.op(server_p50_us.is_some());
    rep.op(daemon.stop().is_ok());
    let last = rounds.last().expect("at least one round");
    Ok(ServeProbe {
        client_p50_us: last.p50_us as f64,
        server_p50_us: server_p50_us.unwrap_or(0.0),
        requests: last.requests,
        rounds,
    })
}
