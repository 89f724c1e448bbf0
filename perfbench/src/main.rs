//! End-to-end benchmark of the DFCM reproduction, the streaming core and
//! the serving daemon.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <repro|stream|serve|stream_obs> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` one run sets the workload up three times, then
//! repeats its timed pass for `--seconds`, checks the outputs, and prints
//! every end-to-end metric. With `--trace 1` it records spans around the
//! calls into each crate (in this package only) and prints the per-layer
//! metrics, the reconciliation report and the tracing overhead. The last
//! line of standard output is always one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//!
//! Everything the benchmark writes lives under `.bench_work/` in the
//! current directory and is removed at the end of the run, except the
//! span exports of a traced run. See `perfbench/README.md` for the workloads, the
//! metric definitions and the layer → end-to-end prediction table.

mod layers;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::Workload;

/// The `dfcm-repro` default seed.
const DEFAULT_SEED: u64 = 12345;

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 15.0;
    let mut trace = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What one run reports: operation counts and named metrics with units.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Counts `ok` as one attempted operation that may have failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN or infinity; a non-finite value is a
                // benchmark bug and must not pass as a number.
                assert!(value.is_finite(), "metric {name} is {value}");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `values` (the mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q` quantile of `values` by nearest rank, the rule `dfcm-serve`'s
/// load generator uses for its latency percentiles.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "quantile of no values");
    let idx = ((v.len() - 1) as f64 * q).round() as usize;
    v[idx.min(v.len() - 1)]
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Worker threads and client connections: one per hardware thread.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// This run's scratch root: private to the process, so concurrent runs
/// in one checkout cannot clobber each other's files.
fn work_root() -> PathBuf {
    PathBuf::from(".bench_work").join(format!("run-{}", std::process::id()))
}

/// The benchmark's scratch directory for `name`, emptied first.
pub fn work_dir(name: &str) -> std::io::Result<PathBuf> {
    let dir = work_root().join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: dfcm-perfbench --workload <repro|stream|serve|stream_obs> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::FAILURE;
        }
    };
    let result = if args.trace {
        layers::run(&args)
    } else {
        workloads::run(&args)
    };
    // The span exports of a traced run are kept; everything else goes.
    let _ = std::fs::remove_dir_all(work_root());
    match result {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
