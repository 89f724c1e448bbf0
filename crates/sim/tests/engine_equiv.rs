//! Engine ⇔ oracle equivalence: the parallel engine must return results
//! bit-identical to a serial sweep of the paper's predict-then-update
//! loop (`simulate_trace` on a fresh predictor per configuration and
//! benchmark), for every predictor type, any thread count, and the edge
//! suites (empty, singleton).
//!
//! CI runs this file explicitly (`cargo test -p dfcm-sim --test
//! engine_equiv`); it is the contract that lets every figure use the
//! engine while EXPERIMENTS.md stays comparable across machines.

use dfcm::{
    DfcmPredictor, FcmPredictor, LastValuePredictor, StridePredictor, TwoDeltaStridePredictor,
    ValuePredictor,
};
use dfcm_sim::{
    run_suite_engine, simulate_trace, sweep_engine, BenchmarkResult, EngineConfig, SuiteResult,
    SweepPoint,
};
use dfcm_trace::{BenchmarkTrace, Trace, TraceRecord};
use proptest::prelude::*;

const THREADS: [usize; 3] = [1, 4, 64];

static NAMES: [&str; 4] = ["b0", "b1", "b2", "b3"];

fn suite_from(benches: &[Vec<(u64, u64)>]) -> Vec<BenchmarkTrace> {
    benches
        .iter()
        .enumerate()
        .map(|(i, records)| BenchmarkTrace {
            name: NAMES[i % NAMES.len()],
            trace: records
                .iter()
                .map(|&(pc, value)| TraceRecord::new(pc, value))
                .collect::<Trace>(),
        })
        .collect()
}

/// The oracle, written out: for every configuration in order, a fresh
/// predictor per benchmark folded over its trace by `simulate_trace`.
/// The label and size come from one more fresh predictor; an empty suite
/// has none to ask and reports the engine's placeholder.
fn serial_sweep<C: Clone, P: ValuePredictor>(
    configs: &[C],
    factory: impl Fn(&C) -> P,
    traces: &[BenchmarkTrace],
) -> Vec<SweepPoint<C>> {
    configs
        .iter()
        .map(|config| {
            let (predictor, kbits) = if traces.is_empty() {
                ("(empty suite)".to_owned(), 0.0)
            } else {
                let probe = factory(config);
                (probe.name(), probe.storage().kbits())
            };
            let benchmarks = traces
                .iter()
                .map(|b| BenchmarkResult {
                    name: b.name,
                    stats: simulate_trace(&mut factory(config), &b.trace),
                })
                .collect();
            SweepPoint {
                config: config.clone(),
                result: SuiteResult {
                    predictor,
                    kbits,
                    benchmarks,
                },
            }
        })
        .collect()
}

type SharedFactory = Box<dyn Fn() -> Box<dyn ValuePredictor> + Sync>;

/// One factory per predictor family, all sized small so tables alias and
/// any ordering bug would change the results.
fn factories() -> Vec<(&'static str, SharedFactory)> {
    vec![
        ("lvp", Box::new(|| Box::new(LastValuePredictor::new(5)))),
        ("stride", Box::new(|| Box::new(StridePredictor::new(5)))),
        (
            "2delta",
            Box::new(|| Box::new(TwoDeltaStridePredictor::new(5))),
        ),
        (
            "fcm",
            Box::new(|| {
                Box::new(
                    FcmPredictor::builder()
                        .l1_bits(5)
                        .l2_bits(7)
                        .build()
                        .unwrap(),
                )
            }),
        ),
        (
            "dfcm",
            Box::new(|| {
                Box::new(
                    DfcmPredictor::builder()
                        .l1_bits(5)
                        .l2_bits(7)
                        .build()
                        .unwrap(),
                )
            }),
        ),
    ]
}

fn assert_equivalent(traces: &[BenchmarkTrace]) {
    for (kind, factory) in factories() {
        let serial = serial_sweep(&[()], |()| factory(), traces)
            .pop()
            .unwrap()
            .result;
        for threads in THREADS {
            let (engine, report) =
                run_suite_engine(&*factory, traces, &EngineConfig::threads(threads));
            assert_eq!(engine, serial, "{kind} diverged at {threads} threads");
            assert_eq!(report.tasks.len(), traces.len(), "{kind} task count");
        }
    }
}

// Aligned PCs (see `TraceRecord::pc`) over a small window so the tiny
// tables see heavy aliasing. Half the values come from a small alphabet,
// so predictors hit and configurations differ in their hit counts; the
// rest from the full u64 range.
fn arb_suite() -> impl Strategy<Value = Vec<Vec<(u64, u64)>>> {
    prop::collection::vec(
        prop::collection::vec((0u64..64u64, prop_oneof![0u64..8, any::<u64>()]), 0..120)
            .prop_map(|v| v.into_iter().map(|(pc, value)| (pc * 4, value)).collect()),
        0..4,
    )
}

proptest! {
    #[test]
    fn engine_matches_serial_on_arbitrary_suites(benches in arb_suite()) {
        let traces = suite_from(&benches);
        assert_equivalent(&traces);
    }

    #[test]
    fn sweep_engine_matches_serial_sweep(benches in arb_suite()) {
        let traces = suite_from(&benches);
        let configs = [(4u32, 6u32), (5, 7), (6, 6)];
        let factory = |&(l1, l2): &(u32, u32)| {
            DfcmPredictor::builder()
                .l1_bits(l1)
                .l2_bits(l2)
                .build()
                .unwrap()
        };
        let serial = serial_sweep(&configs, factory, &traces);
        for threads in THREADS {
            let (points, report) =
                sweep_engine(&configs, factory, &traces, &EngineConfig::threads(threads));
            prop_assert!(points == serial, "sweep diverged at {} threads", threads);
            prop_assert!(report.tasks.len() == configs.len() * traces.len());
        }
    }
}

#[test]
fn empty_suite_is_equivalent() {
    assert_equivalent(&[]);
}

#[test]
fn singleton_suite_is_equivalent() {
    let traces = suite_from(&[(0..200u64).map(|i| (4 * (i % 16), i * 3)).collect()]);
    assert_eq!(traces.len(), 1);
    assert_equivalent(&traces);
}

#[test]
fn empty_benchmark_inside_suite_is_equivalent() {
    // A benchmark with zero records still produces a (zeroed) result row.
    let traces = suite_from(&[vec![], (0..100u64).map(|i| (4 * (i % 8), i)).collect()]);
    assert_equivalent(&traces);
}
