//! Observability coverage: every suite experiment runs on the engine, so
//! under an enabled `Obs` it records the engine's spans and metrics with
//! no instrumentation of its own.

use dfcm_obs::metrics::MetricValue;
use dfcm_obs::span::Event;
use dfcm_obs::Obs;
use dfcm_repro::common::Options;
use dfcm_repro::experiments;

/// Runs one experiment at a tiny scale with `Obs` enabled and checks
/// that its suite evaluations went through the engine.
fn assert_engine_observed(name: &str, run: fn(&Options)) {
    let opts = Options {
        scale: 0.004,
        seed: 99,
        threads: 2,
        out_dir: std::env::temp_dir()
            .join("dfcm_repro_obs_coverage")
            .join(name),
        obs: Obs::enabled(),
        ..Options::default()
    };
    run(&opts);
    let (events, metrics) = opts.obs.snapshot();
    let attempts = events
        .iter()
        .filter(|e| matches!(e, Event::Span { name, .. } if name == "engine.attempt"))
        .count();
    assert!(attempts > 0, "{name} recorded no engine.attempt span");
    match metrics.get("engine_tasks_total", &[("outcome", "ok")]) {
        Some(MetricValue::Counter(tasks)) if *tasks > 0 => {}
        other => panic!("{name}: engine_tasks_total is {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&opts.out_dir);
}

#[test]
fn suite_experiments_record_engine_spans_and_task_counts() {
    assert_engine_observed("fig16", experiments::fig16::run);
    assert_engine_observed("ideal", experiments::ideal::run);
}
