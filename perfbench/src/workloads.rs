//! The four workloads: set-up, one timed pass, and the output checks.
//!
//! Every pass takes the benchmark's own [`Obs`] and opens a span around
//! each call into a crate. Untraced runs pass [`Obs::disabled`], whose
//! spans are inert, so the traced and untraced runs execute the same
//! code.

use std::fs::File;
use std::io::BufWriter;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

use dfcm::{DfcmPredictor, FcmPredictor};
use dfcm_obs::Obs;
use dfcm_repro::common::Options;
use dfcm_repro::experiments;
use dfcm_serve::{
    run_loadgen, LoadGenConfig, LoadGenReport, ServeConfig, ServeError, Server, ServerHandle,
    ShutdownReport,
};
use dfcm_sim::{
    simulate_trace, stream_trace_file, stream_trace_file_observed, RunStats, StreamFileReport,
    StreamPredictor,
};
use dfcm_trace::suite::standard_suite;
use dfcm_trace::{BenchmarkTrace, Trace, V3StreamWriter};

use crate::{median, nproc, peak_rss_mib, quantile, work_dir, Args, Report, DEFAULT_SEED};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// A named set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Repro,
    Stream,
    Serve,
    StreamObs,
}

impl Workload {
    pub fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "repro" => Ok(Workload::Repro),
            "stream" => Ok(Workload::Stream),
            "serve" => Ok(Workload::Serve),
            "stream_obs" => Ok(Workload::StreamObs),
            _ => Err(format!("unknown workload `{name}`")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Repro => "repro",
            Workload::Stream => "stream",
            Workload::Serve => "serve",
            Workload::StreamObs => "stream_obs",
        }
    }

    /// Trace scale of the workload's inputs.
    pub fn scale(self) -> f64 {
        match self {
            Workload::Repro | Workload::Serve => REPRO_SCALE,
            Workload::Stream | Workload::StreamObs => STREAM_SCALE,
        }
    }
}

/// Runs one untraced run of `args.workload` and reports its end-to-end
/// metrics.
pub fn run(args: &Args) -> Result<Report, String> {
    let off = Obs::disabled();
    let mut rep = Report::default();
    let mut setups = Vec::new();
    let e2e = match args.workload {
        Workload::Repro => {
            let mut opts = None;
            for _ in 0..SETUP_REPS {
                let t = Instant::now();
                opts = Some(repro_setup(args.seed)?);
                setups.push(t.elapsed().as_secs_f64());
            }
            let opts = opts.expect("at least one set-up");
            let mut ops = 0.0;
            let mut lane_preds = 0.0;
            let mut quantiles = Vec::new();
            let passes = repeat(args.seconds, || {
                let t = Instant::now();
                let runs = repro_pass(&opts, &off);
                let secs = t.elapsed().as_secs_f64();
                for ok in runs {
                    rep.op(ok);
                }
                let tasks = engine_tasks(&opts.out_dir);
                let task_us: Vec<f64> = tasks.iter().map(|t| t.1 * 1e6).collect();
                ops += tasks.len() as f64;
                lane_preds += tasks.iter().map(|t| t.0 as f64).sum::<f64>();
                quantiles.push(pass_quantiles(&task_us));
                Ok(secs)
            })?;
            repro_check(&opts, &mut rep);
            E2e {
                passes,
                ops,
                lane_preds,
                quantiles,
            }
        }
        Workload::Stream | Workload::StreamObs => {
            let observed = args.workload == Workload::StreamObs;
            let mut files = Vec::new();
            for _ in 0..SETUP_REPS {
                let t = Instant::now();
                files = stream_setup(args.seed, STREAM_SCALE)?;
                setups.push(t.elapsed().as_secs_f64());
            }
            let specs: &[&str] = if observed { &HEADLINE } else { &SWEEP };
            let export = work_dir("stream_obs_export").map_err(|e| e.to_string())?;
            let mut lane_preds = 0.0;
            let mut quantiles = Vec::new();
            let mut runs = Vec::new();
            let passes = repeat(args.seconds, || {
                let t = Instant::now();
                let pass = if observed {
                    stream_obs_pass(&files, &export, &off)
                } else {
                    stream_pass(&files, specs, &off)
                };
                let secs = t.elapsed().as_secs_f64();
                if observed {
                    rep.op(pass.export_ok);
                }
                for run in &pass.files {
                    if let Ok(r) = &run.result {
                        lane_preds += (r.records * specs.len() as u64) as f64;
                    }
                }
                let file_us: Vec<f64> = pass.files.iter().map(|r| r.secs * 1e6).collect();
                quantiles.push(pass_quantiles(&file_us));
                runs.push(pass);
                Ok(secs)
            })?;
            let oracle = stream_oracle(&files, args.seed, STREAM_SCALE);
            for pass in &runs {
                for (run, (file, want)) in pass.files.iter().zip(files.iter().zip(&oracle)) {
                    rep.op(stream_ok(run, file, specs, want));
                }
            }
            E2e {
                ops: (runs.len() * files.len()) as f64,
                lane_preds,
                quantiles,
                passes,
            }
        }
        Workload::Serve => {
            let mut daemon: Option<(Daemon, Trace)> = None;
            for _ in 0..SETUP_REPS {
                if let Some((previous, _)) = daemon.take() {
                    rep.op(previous.stop().is_ok());
                }
                let t = Instant::now();
                daemon = Some(serve_setup(args.seed)?);
                setups.push(t.elapsed().as_secs_f64());
            }
            let (mut d, trace) = daemon.expect("at least one set-up");
            let mut rounds: Vec<LoadGenReport> = Vec::new();
            let passes = repeat(args.seconds, || {
                let round = d.round(&trace, &off)?;
                let secs = round.elapsed.as_secs_f64();
                rounds.push(round);
                Ok(secs)
            })?;
            rep.op(d.stop().is_ok());
            let mut acked = 0;
            for r in &rounds {
                rep.attempted += r.requests;
                rep.failed += r.failed + r.corrupted;
                acked += r.acked;
            }
            println!(
                "serve: {} rounds of {} requests, {acked} acknowledged",
                rounds.len(),
                rounds[0].requests
            );
            E2e {
                ops: acked as f64,
                lane_preds: acked as f64,
                quantiles: rounds
                    .iter()
                    .map(|r| (r.p50_us as f64, r.p99_us as f64))
                    .collect(),
                passes,
            }
        }
    };
    let timed: f64 = e2e.passes.iter().sum();
    rep.metric("setup_s", median(&setups), "s");
    rep.metric("wall_s", median(&e2e.passes), "s");
    rep.metric("lane_pred_per_s", e2e.lane_preds / timed, "1/s");
    rep.metric("req_per_s", e2e.ops / timed, "1/s");
    let passes = e2e.quantiles.len() as f64;
    let p50: f64 = e2e.quantiles.iter().map(|q| q.0).sum();
    let p99: f64 = e2e.quantiles.iter().map(|q| q.1).sum();
    rep.metric("p50_us", p50 / passes, "us");
    rep.metric("p99_us", p99 / passes, "us");
    rep.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    println!(
        "{}: set-ups {:.4?} s; timed passes {:.4?} s",
        args.workload.name(),
        setups,
        e2e.passes
    );
    Ok(rep)
}

/// What a workload's timed passes measured.
struct E2e {
    /// Host seconds of each pass.
    passes: Vec<f64>,
    /// Operations completed in all passes.
    ops: f64,
    /// Record × lane predictions made in all passes.
    lane_preds: f64,
    /// Each pass's median and 99th-percentile operation latency, in
    /// microseconds; the metrics are their means over passes.
    quantiles: Vec<(f64, f64)>,
}

fn pass_quantiles(op_us: &[f64]) -> (f64, f64) {
    (quantile(op_us, 0.5), quantile(op_us, 0.99))
}

/// Runs `pass`, which returns the host seconds of its timed region,
/// until those add up to `seconds` (at least once), and returns them.
pub fn repeat(
    seconds: f64,
    mut pass: impl FnMut() -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let mut times = Vec::new();
    while times.iter().sum::<f64>() < seconds {
        times.push(pass()?);
    }
    Ok(times)
}

// --- repro -----------------------------------------------------------

/// The scale `dfcm-repro` runs at by default.
pub const REPRO_SCALE: f64 = 0.1;

/// An experiment's name in `dfcm-repro` and its entry point.
pub type Experiment = (&'static str, fn(&Options));

/// The experiments `dfcm-repro all` runs, in its order. `all` leaves out
/// `order`, and so does this list.
pub const EXPERIMENTS: [Experiment; 21] = [
    ("table1", experiments::table1::run),
    ("fig3", experiments::fig03::run),
    ("fig4_8", experiments::fig04_08::run),
    ("fig6_9", experiments::fig06_09::run),
    ("fig10a", experiments::fig10::run_a),
    ("fig10b", experiments::fig10::run_b),
    ("fig11a", experiments::fig11::run_a),
    ("fig11b", experiments::fig11::run_b),
    ("fig12", experiments::fig12_14::run_fig12),
    ("fig13", experiments::fig12_14::run_fig13),
    ("fig14", experiments::fig12_14::run_fig14),
    ("fig16", experiments::fig16::run),
    ("fig17", experiments::fig17::run),
    ("sec4_4", experiments::sec4_4::run),
    ("tags", experiments::tags::run),
    ("related", experiments::related::run),
    ("ideal", experiments::ideal::run),
    ("speedup", experiments::speedup::run),
    ("vmbench", experiments::vmbench::run),
    ("phases", experiments::phases::run),
    ("specupdate", experiments::specupdate::run),
];

/// An empty output directory, plus one generation of the suite so that
/// the allocator and page cache are warm before the timed region.
pub fn repro_setup(seed: u64) -> Result<Options, String> {
    let out_dir = work_dir("repro").map_err(|e| e.to_string())?;
    std::hint::black_box(dfcm_trace::suite::standard_traces(seed, REPRO_SCALE));
    Ok(Options {
        seed,
        scale: REPRO_SCALE,
        threads: nproc(),
        out_dir,
        ..Options::default()
    })
}

/// Runs the 21 experiments in-process and returns whether each
/// completed; a panicking experiment counts as a failed operation
/// instead of ending the run.
pub fn repro_pass(opts: &Options, obs: &Obs) -> Vec<bool> {
    let _span = obs.span("repro.all");
    EXPERIMENTS
        .iter()
        .map(|(name, run)| {
            let _span = obs.span(&format!("repro.{name}"));
            catch_unwind(AssertUnwindSafe(|| run(opts))).is_ok()
        })
        .collect()
}

/// `<csv name> <bytes> <crc32>` for every CSV `all` writes at the
/// default seed and scale. Regenerate from the `csv-digest` lines a
/// default-seed `repro` run prints.
const REPRO_DIGESTS: &str = include_str!("../repro_digests.txt");

/// Checks the CSVs of the last pass, one operation per CSV: at the
/// default seed their bytes must match the recorded digests; at other
/// seeds every recorded CSV must exist and be non-empty.
pub fn repro_check(opts: &Options, rep: &mut Report) {
    let mut actual: Vec<(String, u64, u32)> = std::fs::read_dir(&opts.out_dir)
        .map(|dir| {
            dir.filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "csv"))
                .filter_map(|p| {
                    let bytes = std::fs::read(&p).ok()?;
                    let name = p.file_name()?.to_str()?.to_owned();
                    Some((name, bytes.len() as u64, dfcm_trace::crc::crc32(&bytes)))
                })
                .collect()
        })
        .unwrap_or_default();
    actual.sort();
    for (name, len, crc) in &actual {
        println!("csv-digest {name} {len} {crc:08x}");
    }
    let expected: Vec<(&str, u64, u32)> = REPRO_DIGESTS
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let name = f.next()?;
            let len = f.next()?.parse().ok()?;
            let crc = u32::from_str_radix(f.next()?, 16).ok()?;
            Some((name, len, crc))
        })
        .collect();
    let find = |name: &str| actual.iter().find(|a| a.0 == name);
    for &(name, len, crc) in &expected {
        let ok = match find(name) {
            Some(&(_, l, c)) if opts.seed == DEFAULT_SEED => (l, c) == (len, crc),
            Some(&(_, l, _)) => l > 0,
            None => false,
        };
        if !ok {
            eprintln!("repro: {name} does not match its recorded digest");
        }
        rep.op(ok);
    }
    // A CSV without a recorded digest means the experiment set changed.
    for (name, _, _) in &actual {
        let known = expected.iter().any(|e| e.0 == name);
        if !known {
            eprintln!("repro: {name} has no recorded digest");
        }
        rep.op(known);
    }
}

/// `(records, wall seconds)` of every engine task the last pass ran, read
/// from the `task` lines of `<out>/metrics/*.jsonl`.
pub fn engine_tasks(out_dir: &Path) -> Vec<(u64, f64)> {
    let Ok(dir) = std::fs::read_dir(out_dir.join("metrics")) else {
        return Vec::new();
    };
    dir.filter_map(Result::ok)
        .filter_map(|e| std::fs::read_to_string(e.path()).ok())
        .flat_map(|text| {
            text.lines()
                .filter_map(|l| {
                    let line = dfcm_obs::json::parse(l).ok()?;
                    if line.get("type")?.as_str()? != "task" {
                        return None;
                    }
                    Some((
                        line.get("records")?.as_u64()?,
                        line.get("wall_s")?.as_f64()?,
                    ))
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

// --- stream and stream_obs --------------------------------------------

/// Scale of the `stream` suite: 10.95M records.
pub const STREAM_SCALE: f64 = 1.0;

/// The repository's standard 16-configuration sweep.
pub const SWEEP: [&str; 16] = [
    "lvp:10",
    "lvp:12",
    "lvp:14",
    "lvp:16",
    "stride:10",
    "stride:12",
    "stride:14",
    "stride:16",
    "fcm:16:8",
    "fcm:16:10",
    "fcm:16:12",
    "fcm:16:14",
    "dfcm:16:8",
    "dfcm:16:10",
    "dfcm:16:12",
    "dfcm:16:14",
];

/// The paper's headline FCM and DFCM configurations; the oracle checks
/// these lanes.
pub const HEADLINE: [&str; 2] = ["fcm:16:12", "dfcm:16:12"];

/// One benchmark of the suite written as a v3 file.
pub struct TraceFile {
    pub name: &'static str,
    pub path: PathBuf,
    pub records: u64,
    pub bytes: u64,
}

pub fn lanes(specs: &[&str]) -> Vec<StreamPredictor> {
    specs
        .iter()
        .map(|s| StreamPredictor::parse_spec(s).expect("benchmark specs are valid"))
        .collect()
}

/// Writes `trace` as a v3 file (no fsync: the file is scratch input).
pub fn write_v3(trace: &BenchmarkTrace, dir: &Path, seed: u64) -> Result<TraceFile, String> {
    let path = dir.join(format!("{}.trc", trace.name));
    let io_err = |e: std::io::Error| format!("{}: {e}", path.display());
    let file = BufWriter::new(File::create(&path).map_err(io_err)?);
    let mut w = V3StreamWriter::new(file, trace.trace.len() as u64, seed).map_err(io_err)?;
    for &record in trace.trace.records() {
        w.push(record).map_err(io_err)?;
    }
    w.finish().map_err(io_err)?;
    let bytes = std::fs::metadata(&path).map_err(io_err)?.len();
    Ok(TraceFile {
        name: trace.name,
        path,
        records: trace.trace.len() as u64,
        bytes,
    })
}

/// Generates the suite one benchmark at a time and writes each as a v3
/// file under `.bench_work/stream/`.
pub fn stream_setup(seed: u64, scale: f64) -> Result<Vec<TraceFile>, String> {
    let dir = work_dir("stream").map_err(|e| e.to_string())?;
    standard_suite()
        .iter()
        .map(|spec| write_v3(&spec.trace(seed, scale), &dir, seed))
        .collect()
}

pub struct FileRun {
    pub secs: f64,
    pub result: std::io::Result<StreamFileReport>,
}

pub struct StreamPass {
    pub files: Vec<FileRun>,
    /// Whether the observability export (stream_obs only) succeeded.
    pub export_ok: bool,
}

/// Streams every file through fresh `specs` lanes with one decode thread
/// per hardware thread.
pub fn stream_pass(files: &[TraceFile], specs: &[&str], obs: &Obs) -> StreamPass {
    let _span = obs.span("pass.stream");
    let runs = files
        .iter()
        .map(|f| {
            let _span = obs.span("sim.stream_trace_file");
            let t = Instant::now();
            let mut lanes = lanes(specs);
            let result = stream_trace_file(&f.path, &mut lanes, nproc());
            FileRun {
                secs: t.elapsed().as_secs_f64(),
                result,
            }
        })
        .collect();
    StreamPass {
        files: runs,
        export_ok: true,
    }
}

/// Streams every file through the two headline lanes with an enabled
/// layer `Obs` and table statistics, then writes its exports.
pub fn stream_obs_pass(files: &[TraceFile], export: &Path, obs: &Obs) -> StreamPass {
    let _span = obs.span("pass.stream_obs");
    let layer = Obs::enabled();
    let runs = files
        .iter()
        .map(|f| {
            let _span = obs.span("sim.stream_trace_file_observed");
            let t = Instant::now();
            let mut lanes = lanes(&HEADLINE);
            let result = stream_trace_file_observed(&f.path, &mut lanes, nproc(), &layer, true);
            FileRun {
                secs: t.elapsed().as_secs_f64(),
                result,
            }
        })
        .collect();
    let export_ok = {
        let _span = obs.span("pass.write_exports");
        layer.write_exports(export).is_ok()
    };
    StreamPass {
        files: runs,
        export_ok,
    }
}

/// The predict-then-update reference loop over a freshly generated copy
/// of each benchmark, for the headline fcm and dfcm configurations.
pub fn stream_oracle(files: &[TraceFile], seed: u64, scale: f64) -> Vec<[RunStats; 2]> {
    let suite = standard_suite();
    files
        .iter()
        .map(|f| {
            let spec = suite
                .iter()
                .find(|s| s.name() == f.name)
                .expect("suite name");
            let trace = spec.trace(seed, scale).trace;
            let mut fcm = FcmPredictor::builder()
                .l1_bits(16)
                .l2_bits(12)
                .build()
                .expect("valid fcm");
            let mut dfcm = DfcmPredictor::builder()
                .l1_bits(16)
                .l2_bits(12)
                .build()
                .expect("valid dfcm");
            [
                simulate_trace(&mut fcm, &trace),
                simulate_trace(&mut dfcm, &trace),
            ]
        })
        .collect()
}

/// Whether a file stream read every record and its headline lanes equal
/// the oracle.
pub fn stream_ok(run: &FileRun, file: &TraceFile, specs: &[&str], want: &[RunStats; 2]) -> bool {
    let report = match &run.result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("stream: {}: {e}", file.name);
            return false;
        }
    };
    let lane = |spec: &str| {
        let i = specs
            .iter()
            .position(|s| *s == spec)
            .expect("headline lane");
        report.stats[i]
    };
    let ok = report.records == file.records
        && lane(HEADLINE[0]) == want[0]
        && lane(HEADLINE[1]) == want[1];
    if !ok {
        eprintln!("stream: {}: lanes disagree with the oracle", file.name);
    }
    ok
}

// --- serve ------------------------------------------------------------

/// The predictor every serving session runs.
pub const SERVE_SPEC: &str = "dfcm:16:12";

/// The suite benchmark each client replays, and its scale.
const SERVE_BENCH: &str = "go";
const SERVE_SCALE: f64 = 0.125;

/// Requests per client in the warm-up round.
const WARMUP_RECORDS: usize = 20_000;

/// An in-process daemon on a loopback port.
pub struct Daemon {
    handle: ServerHandle,
    thread: JoinHandle<Result<ShutdownReport, ServeError>>,
    pub addr: SocketAddr,
    next_session: u64,
}

impl Daemon {
    /// Binds a daemon with one worker per hardware thread.
    pub fn start() -> Result<Daemon, String> {
        let mut config = ServeConfig::new(SERVE_SPEC);
        config.limits.workers = nproc();
        let server = Server::bind("127.0.0.1:0", config).map_err(|e| e.to_string())?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon {
            handle,
            thread,
            addr,
            next_session: 1,
        })
    }

    /// One closed-loop round: one fresh session per client, each
    /// replaying `trace` with shadow verification.
    pub fn round(&mut self, trace: &Trace, obs: &Obs) -> Result<LoadGenReport, String> {
        let mut config = LoadGenConfig::new(self.addr, nproc(), SERVE_SPEC);
        config.session_base = self.next_session;
        self.next_session += config.clients as u64;
        let _span = obs.span("serve.run_loadgen");
        run_loadgen(&config, trace)
    }

    /// Drains the daemon and waits for its threads.
    pub fn stop(self) -> Result<ShutdownReport, String> {
        self.handle.shutdown();
        self.thread
            .join()
            .map_err(|_| "daemon thread panicked".to_owned())?
            .map_err(|e| e.to_string())
    }
}

/// The trace each client replays.
pub fn serve_trace(seed: u64) -> Trace {
    let spec = standard_suite()
        .into_iter()
        .find(|s| s.name() == SERVE_BENCH)
        .expect("suite benchmark");
    spec.trace(seed, SERVE_SCALE).trace
}

/// Starts a daemon, makes its load trace and warms it with one short
/// round.
pub fn serve_setup(seed: u64) -> Result<(Daemon, Trace), String> {
    let mut daemon = Daemon::start()?;
    let trace = serve_trace(seed);
    let warm: Trace = trace.records()[..WARMUP_RECORDS.min(trace.len())]
        .iter()
        .copied()
        .collect();
    match daemon.round(&warm, &Obs::disabled()) {
        Ok(r) if r.failed + r.corrupted == 0 => Ok((daemon, trace)),
        warm_up => {
            let _ = daemon.stop();
            Err(format!("warm-up round failed: {warm_up:?}"))
        }
    }
}
