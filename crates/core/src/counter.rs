use std::fmt;

/// A saturating up/down counter with configurable width and step sizes.
///
/// The paper's stride predictor (§2.2, §4) uses a 3-bit counter that is
/// incremented by 1 on a correct prediction and decremented by 2 on a wrong
/// one; the stored stride is replaced only while the counter is below its
/// maximum. The same structure backs [`CounterMeta`](crate::CounterMeta)
/// hybrid selectors.
///
/// ```
/// use dfcm::SaturatingCounter;
///
/// let mut c = SaturatingCounter::paper_confidence();
/// assert_eq!(c.value(), 0);
/// for _ in 0..10 {
///     c.increment();
/// }
/// assert!(c.is_max()); // saturates at 7 for a 3-bit counter
/// c.decrement();
/// assert_eq!(c.value(), 5); // decrements by 2
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SaturatingCounter {
    value: u16,
    max: u16,
    inc: u16,
    dec: u16,
}

impl SaturatingCounter {
    /// Creates a counter of `bits` width that saturates at `2^bits - 1`,
    /// stepping up by `inc` and down by `dec`. The counter starts at 0.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 15.
    pub fn new(bits: u32, inc: u16, dec: u16) -> Self {
        assert!(
            bits > 0 && bits <= 15,
            "counter width must be in 1..=15, got {bits}"
        );
        SaturatingCounter {
            value: 0,
            max: (1u16 << bits) - 1,
            inc,
            dec,
        }
    }

    /// The 3-bit, +1/−2 counter used for stride confidence in the paper.
    pub fn paper_confidence() -> Self {
        SaturatingCounter::new(3, 1, 2)
    }

    /// Current counter value.
    pub fn value(&self) -> u16 {
        self.value
    }

    /// Maximum (saturation) value.
    pub fn max(&self) -> u16 {
        self.max
    }

    /// True if the counter is saturated at its maximum.
    pub fn is_max(&self) -> bool {
        self.value == self.max
    }

    /// True if the counter is in the upper half of its range (commonly used
    /// as a "taken"/"use B" decision threshold in meta-predictors).
    pub fn is_high(&self) -> bool {
        self.value > self.max / 2
    }

    /// Steps the counter up, saturating at the maximum.
    pub fn increment(&mut self) {
        self.value = self.value.saturating_add(self.inc).min(self.max);
    }

    /// Steps the counter down, saturating at zero.
    pub fn decrement(&mut self) {
        self.value = self.value.saturating_sub(self.dec);
    }

    /// Steps the counter up when `up` holds, down otherwise — the same
    /// result as [`increment`](Self::increment) or
    /// [`decrement`](Self::decrement), computed without branching on
    /// `up`.
    #[inline]
    pub fn step(&mut self, up: bool) {
        let raised = self.value.saturating_add(self.inc).min(self.max);
        let lowered = self.value.saturating_sub(self.dec);
        self.value = if up { raised } else { lowered };
    }

    /// Sets the counter to an exact value, as restored from a serialized
    /// predictor state.
    ///
    /// # Errors
    ///
    /// Returns `Err(value)` (leaving the counter untouched) when `value`
    /// exceeds the saturation maximum — a counter can never legally reach
    /// such a state, so the serialized blob is corrupt.
    pub fn set_value(&mut self, value: u16) -> Result<(), u16> {
        if value > self.max {
            return Err(value);
        }
        self.value = value;
        Ok(())
    }

    /// Width of this counter in storage bits.
    pub fn bits(&self) -> u32 {
        16 - self.max.leading_zeros()
    }
}

impl Default for SaturatingCounter {
    /// Returns the paper's 3-bit confidence counter.
    fn default() -> Self {
        SaturatingCounter::paper_confidence()
    }
}

impl fmt::Display for SaturatingCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.value, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        let c = SaturatingCounter::new(3, 1, 2);
        assert_eq!(c.value(), 0);
        assert!(!c.is_max());
        assert!(!c.is_high());
    }

    #[test]
    fn saturates_at_max() {
        let mut c = SaturatingCounter::new(2, 1, 1);
        for _ in 0..100 {
            c.increment();
        }
        assert_eq!(c.value(), 3);
        assert!(c.is_max());
    }

    #[test]
    fn saturates_at_zero() {
        let mut c = SaturatingCounter::new(2, 1, 1);
        c.decrement();
        c.decrement();
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn asymmetric_steps() {
        let mut c = SaturatingCounter::paper_confidence();
        for _ in 0..7 {
            c.increment();
        }
        assert_eq!(c.value(), 7);
        c.decrement();
        assert_eq!(c.value(), 5);
        c.decrement();
        c.decrement();
        c.decrement();
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn step_matches_increment_and_decrement() {
        for (bits, inc, dec) in [(3, 1, 2), (2, 1, 1), (4, 3, 5)] {
            let mut c = SaturatingCounter::new(bits, inc, dec);
            for i in 0..200u32 {
                let up = (i * 7 + i / 3) % 5 < 3;
                let mut expected = c;
                if up {
                    expected.increment();
                } else {
                    expected.decrement();
                }
                c.step(up);
                assert_eq!(c, expected, "step {i}");
            }
        }
    }

    #[test]
    fn is_high_threshold() {
        let mut c = SaturatingCounter::new(3, 1, 1); // max 7, high when > 3
        for _ in 0..3 {
            c.increment();
        }
        assert!(!c.is_high());
        c.increment();
        assert!(c.is_high());
    }

    #[test]
    fn bits_roundtrip() {
        for bits in 1..=15 {
            let c = SaturatingCounter::new(bits, 1, 1);
            assert_eq!(c.bits(), bits, "width {bits}");
        }
    }

    #[test]
    fn display_shows_value_and_max() {
        let c = SaturatingCounter::paper_confidence();
        assert_eq!(c.to_string(), "0/7");
    }

    #[test]
    #[should_panic(expected = "counter width")]
    fn zero_bits_panics() {
        let _ = SaturatingCounter::new(0, 1, 1);
    }
}
