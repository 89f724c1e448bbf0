//! Related-work comparison (§5): the DFCM vs. the alternative efficiency
//! schemes the paper discusses.
//!
//! * **Dynamic classification** (Rychlik et al. \[12\]): assign each
//!   instruction to one of several separate sub-predictors. The paper's
//!   §5 argument: this introduces a *fixed* partitioning of the resources,
//!   while the DFCM shares one table dynamically — constants use one
//!   entry, each distinct stride one entry, the rest is free for contexts.
//!   (Rychlik's own classifier marked >50% of instructions unpredictable
//!   and reported 43% overall accuracy.)
//! * **Last-n value prediction** (Burtscher & Zorn \[2\]): widen each
//!   last-value entry to n candidates instead of adding context.
//!
//! Both are compared against a DFCM of *equal or smaller* storage.

use dfcm::{
    ClassifiedPredictor, DfcmPredictor, LastNValuePredictor, LastValuePredictor, ValuePredictor,
};
use dfcm_sim::report::{fmt_accuracy, fmt_kbits, TextTable};
use dfcm_sim::run_suite_engine;

use crate::common::{banner, Options};

/// Runs the §5 related-work comparison.
pub fn run(opts: &Options) {
    banner(
        "Related work (§5): DFCM vs dynamic classification and last-n",
        "All predictors compared at comparable storage on the suite.",
    );
    let traces = opts.traces();
    let engine = opts.engine_config();
    let mut table = TextTable::new(vec!["predictor", "kbit", "accuracy"]);

    let mut row = |name: String, kbits: f64, acc: f64| {
        table.row(vec![name, fmt_kbits(kbits), fmt_accuracy(acc)]);
    };

    // Dynamic classification: LVP + stride + FCM sub-tables plus a
    // classifier, sized to ~match the DFCM below.
    let classified = || {
        ClassifiedPredictor::builder()
            .class_bits(12)
            .lvp_bits(11)
            .stride_bits(11)
            .fcm_bits(11, 12)
            .build()
            .expect("valid")
    };
    let result = run_suite_engine(classified, &traces, &engine).0;
    row(
        result.predictor.clone(),
        result.kbits,
        result.weighted_accuracy(),
    );

    // Report the classification census of one representative benchmark.
    let mut census_probe = classified();
    for r in &traces[0].trace {
        census_probe.access(r.pc, r.value);
    }
    let census = census_probe.census();
    println!(
        "classification census (cc1): lvp {}, stride {}, fcm {}, unpredictable {}",
        census.last_value, census.stride, census.fcm, census.unpredictable
    );

    // Last-n value predictors.
    for n in [1usize, 2, 4] {
        let result = run_suite_engine(|| LastNValuePredictor::new(12, n), &traces, &engine).0;
        row(
            result.predictor.clone(),
            result.kbits,
            result.weighted_accuracy(),
        );
    }
    let result = run_suite_engine(|| LastValuePredictor::new(12), &traces, &engine).0;
    row(
        result.predictor.clone(),
        result.kbits,
        result.weighted_accuracy(),
    );

    // The DFCM at comparable (and at half) storage.
    for (l1, l2) in [(12u32, 12u32), (11, 11)] {
        let result = run_suite_engine(
            || {
                DfcmPredictor::builder()
                    .l1_bits(l1)
                    .l2_bits(l2)
                    .build()
                    .expect("valid")
            },
            &traces,
            &engine,
        )
        .0;
        row(
            result.predictor.clone(),
            result.kbits,
            result.weighted_accuracy(),
        );
    }

    print!("{}", table.render());
    opts.emit(&table, "related");
    println!();
    println!(
        "Check (paper §5): the DFCM beats the fixed-partitioned classified predictor \
         at comparable storage, and last-n widening is no substitute for context."
    );
}
