use dfcm::ValuePredictor;
use dfcm_trace::{Trace, TraceSource};

/// Aggregate outcome of running a predictor over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Number of predictions made.
    pub predictions: u64,
    /// Number of correct predictions.
    pub correct: u64,
}

impl RunStats {
    /// The prediction accuracy, `correct / predictions` (0 for an empty
    /// run).
    pub fn accuracy(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.correct as f64 / self.predictions as f64
        }
    }

    /// Merges another run into this one. Saturates rather than
    /// overflowing: merged counters from many chunked sub-runs cap at
    /// `u64::MAX` instead of wrapping into nonsense (or panicking in
    /// debug builds).
    pub fn merge(&mut self, other: RunStats) {
        self.predictions = self.predictions.saturating_add(other.predictions);
        self.correct = self.correct.saturating_add(other.correct);
    }
}

/// Runs `predictor` over at most `n` records of `source`.
pub fn simulate_n<P, S>(predictor: &mut P, source: &mut S, n: usize) -> RunStats
where
    P: ValuePredictor + ?Sized,
    S: TraceSource + ?Sized,
{
    let mut stats = RunStats::default();
    for _ in 0..n {
        let Some(record) = source.next_record() else {
            break;
        };
        stats.predictions += 1;
        stats.correct += u64::from(predictor.access(record.pc, record.value).correct);
    }
    stats
}

/// Runs `predictor` over a buffered trace.
pub fn simulate_trace<P>(predictor: &mut P, trace: &Trace) -> RunStats
where
    P: ValuePredictor + ?Sized,
{
    // Count incrementally (like `simulate_n`) rather than pre-populating
    // `predictions` with `trace.len()`: a chunked or early-exiting caller
    // must never see more predictions reported than were actually made.
    let mut stats = RunStats::default();
    for record in trace {
        stats.predictions += 1;
        stats.correct += u64::from(predictor.access(record.pc, record.value).correct);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfcm::LastValuePredictor;
    use dfcm_trace::TraceRecord;

    fn constant_trace(n: u64) -> Trace {
        (0..n).map(|_| TraceRecord::new(4, 9)).collect()
    }

    #[test]
    fn trace_and_source_paths_agree() {
        let trace = constant_trace(100);
        let mut a = LastValuePredictor::new(4);
        let mut b = LastValuePredictor::new(4);
        let sa = simulate_trace(&mut a, &trace);
        let sb = simulate_n(&mut b, &mut trace.source(), usize::MAX);
        assert_eq!(sa, sb);
        assert_eq!(sa.predictions, 100);
        assert_eq!(sa.correct, 99); // one cold miss
    }

    #[test]
    fn simulate_n_bounds_the_run() {
        let trace = constant_trace(100);
        let mut p = LastValuePredictor::new(4);
        let stats = simulate_n(&mut p, &mut trace.source(), 10);
        assert_eq!(stats.predictions, 10);
        let stats = simulate_n(&mut p, &mut trace.source(), 1000);
        assert_eq!(stats.predictions, 100, "stops at trace end");
    }

    #[test]
    fn accuracy_of_empty_run_is_zero() {
        assert_eq!(RunStats::default().accuracy(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = RunStats {
            predictions: 10,
            correct: 5,
        };
        a.merge(RunStats {
            predictions: 30,
            correct: 30,
        });
        assert_eq!(a.predictions, 40);
        assert_eq!(a.correct, 35);
        assert!((a.accuracy() - 0.875).abs() < 1e-12);
    }

    #[test]
    fn merge_saturates_instead_of_overflowing() {
        let mut a = RunStats {
            predictions: u64::MAX - 1,
            correct: u64::MAX - 1,
        };
        a.merge(RunStats {
            predictions: 10,
            correct: 3,
        });
        assert_eq!(a.predictions, u64::MAX);
        assert_eq!(a.correct, u64::MAX);
    }
}
