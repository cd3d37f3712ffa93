//! A single hardware counter with realistic 48-bit width and overflow
//! detection.
//!
//! Sampling-mode tools (perf record) preload a counter with `2^48 - period`
//! so that the counter overflows — and raises a PMI — after exactly `period`
//! occurrences. [`Counter::add`] reports how many overflows a batch of
//! occurrences produced so the interrupt path can deliver them.

/// Width of hardware counters, in bits.
pub const COUNTER_WIDTH_BITS: u32 = 48;

const MASK: u64 = (1u64 << COUNTER_WIDTH_BITS) - 1;

/// One 48-bit up-counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// A counter holding zero.
    pub const fn new() -> Self {
        Self { value: 0 }
    }

    /// Current value (always `< 2^48`).
    pub const fn value(&self) -> u64 {
        self.value
    }

    /// Writes the counter, truncating to 48 bits exactly as a `wrmsr` to a
    /// counter MSR does.
    pub fn write(&mut self, value: u64) {
        self.value = value & MASK;
    }

    /// Adds `count` occurrences, wrapping at 48 bits.
    ///
    /// Returns the number of overflows (wraps) that occurred, which is the
    /// number of PMIs a sampling configuration would receive.
    #[must_use = "overflow count drives PMI delivery"]
    pub fn add(&mut self, count: u64) -> u64 {
        let sum = self.value as u128 + count as u128;
        let overflows = (sum >> COUNTER_WIDTH_BITS) as u64;
        self.value = (sum & MASK as u128) as u64;
        overflows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_up() {
        let mut c = Counter::new();
        assert_eq!(c.add(5), 0);
        assert_eq!(c.add(7), 0);
        assert_eq!(c.value(), 12);
    }

    #[test]
    fn write_truncates_to_48_bits() {
        let mut c = Counter::new();
        c.write(u64::MAX);
        assert_eq!(c.value(), MASK);
    }

    #[test]
    fn single_overflow_wraps() {
        let mut c = Counter::new();
        c.write(MASK); // one away from wrap
        assert_eq!(c.add(1), 1);
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn bulk_add_wraps_like_a_raw_adder() {
        let mut c = Counter::new();
        // Preloaded to overflow after 100 occurrences. 250 occurrences:
        // the counter crosses 2^48 once and continues from zero (re-arming
        // for the next period is the PMI handler's job).
        c.write(MASK + 1 - 100);
        assert_eq!(c.add(250), 1);
        assert_eq!(c.value(), 150);
    }
}
