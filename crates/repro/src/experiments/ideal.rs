//! Extension experiment: how much accuracy do finite tables and lossy
//! hashing cost?
//!
//! §4.2 ends with the observation that even after the DFCM's improvement,
//! hash aliasing still causes the majority of mispredictions — "there is
//! still plenty of room for improvement". This experiment quantifies that
//! room by comparing each real predictor against an
//! [`IdealContextPredictor`] of matching
//! order: per-instruction, unbounded, collision-free context tables. The
//! residual gap between the real predictor and its oracle is exactly the
//! loss to level-1 aliasing + hashing + capacity (minus any constructive
//! cross-instruction sharing the oracle forgoes).

use dfcm::{AnalyzedKind, DfcmPredictor, FcmPredictor, IdealContextPredictor, ValuePredictor};
use dfcm_sim::report::{fmt_accuracy, TextTable};
use dfcm_sim::run_suite_engine;

use crate::common::{banner, Options};

/// Runs the room-for-improvement analysis.
pub fn run(opts: &Options) {
    banner(
        "Extension (§4.2): room for improvement vs ideal context tables",
        "Ideal = per-instruction, unbounded, collision-free tables of the same order.",
    );
    let traces = opts.traces();
    let engine = opts.engine_config();
    let mut table = TextTable::new(vec!["predictor", "accuracy", "ideal", "gap"]);
    for (kind, label) in [(AnalyzedKind::Fcm, "fcm"), (AnalyzedKind::Dfcm, "dfcm")] {
        for l2 in [12u32, 16] {
            let real = run_suite_engine(
                || -> Box<dyn ValuePredictor> {
                    match kind {
                        AnalyzedKind::Fcm => Box::new(
                            FcmPredictor::builder()
                                .l1_bits(16)
                                .l2_bits(l2)
                                .build()
                                .expect("valid"),
                        ),
                        AnalyzedKind::Dfcm => Box::new(
                            DfcmPredictor::builder()
                                .l1_bits(16)
                                .l2_bits(l2)
                                .build()
                                .expect("valid"),
                        ),
                    }
                },
                &traces,
                &engine,
            )
            .0;
            let order = dfcm::HashFunction::FsR5.order(l2) as usize;
            let ideal =
                run_suite_engine(|| IdealContextPredictor::new(kind, order), &traces, &engine).0;
            let (r, i) = (real.weighted_accuracy(), ideal.weighted_accuracy());
            table.row(vec![
                format!("{label}(2^16/2^{l2}, order {order})"),
                fmt_accuracy(r),
                fmt_accuracy(i),
                format!("{:+.3}", i - r),
            ]);
        }
    }
    print!("{}", table.render());
    opts.emit(&table, "ideal");
    println!();
    println!(
        "Check (paper §4.2): real predictors sit well below their collision-free \
         oracles — the remaining gap is the aliasing/capacity loss the paper says \
         leaves 'plenty of room for improvement'."
    );
}
