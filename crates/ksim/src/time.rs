//! Simulated time: nanosecond instants, durations, and cycle conversion.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point in simulated time, in nanoseconds since machine power-on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Instant(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Instant {
    /// Machine power-on.
    pub const ZERO: Instant = Instant(0);

    /// Constructs an instant from nanoseconds since power-on.
    pub const fn from_nanos(ns: u64) -> Self {
        Instant(ns)
    }

    /// Nanoseconds since power-on.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is later.
    pub fn saturating_since(self, earlier: Instant) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Constructs from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Duration(ns)
    }

    /// Constructs from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// Constructs from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// Nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds, as a float (for reporting).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Milliseconds, as a float (for reporting).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Seconds, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, d: Duration) -> Instant {
        Instant(self.0 + d.0)
    }
}

impl AddAssign<Duration> for Instant {
    fn add_assign(&mut self, d: Duration) {
        self.0 += d.0;
    }
}

impl Sub<Instant> for Instant {
    type Output = Duration;
    /// # Panics
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: Instant) -> Duration {
        debug_assert!(self.0 >= rhs.0, "instant subtraction went negative");
        Duration(self.0 - rhs.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        debug_assert!(self.0 >= rhs.0, "duration subtraction went negative");
        Duration(self.0 - rhs.0)
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.3}ms", self.0 as f64 / 1e6)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// A core clock frequency, used to convert between cycles and wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuFreq {
    hz: u64,
}

impl CpuFreq {
    /// The paper's local testbed: Intel Core i7-920 @ 2.67 GHz.
    pub const I7_920: CpuFreq = CpuFreq { hz: 2_670_000_000 };

    /// The paper's AWS verification machine: Xeon Platinum 8259CL @ 2.50 GHz.
    pub const XEON_8259CL: CpuFreq = CpuFreq { hz: 2_500_000_000 };

    /// Converts a cycle count to wall time (rounding to nearest ns, min 1 ns
    /// for non-zero cycles so work always advances time).
    pub fn cycles_to_duration(self, cycles: u64) -> Duration {
        if cycles == 0 {
            return Duration::ZERO;
        }
        // The u64 form gives the same quotient whenever its dividend fits,
        // which it does below about 1.8e10 cycles (6.9 s at 2.67 GHz).
        let ns = match cycles
            .checked_mul(1_000_000_000)
            .and_then(|n| n.checked_add(self.hz / 2))
        {
            Some(dividend) => dividend / self.hz,
            None => {
                ((cycles as u128 * 1_000_000_000u128 + self.hz as u128 / 2) / self.hz as u128)
                    as u64
            }
        };
        Duration::from_nanos(ns.max(1))
    }

    /// Converts a duration to cycles (rounding down).
    pub fn duration_to_cycles(self, d: Duration) -> u64 {
        (d.as_nanos() as u128 * self.hz as u128 / 1_000_000_000u128) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_arithmetic() {
        let t = Instant::ZERO + Duration::from_micros(5);
        assert_eq!(t.as_nanos(), 5_000);
        assert_eq!(t - Instant::ZERO, Duration::from_micros(5));
        assert_eq!(Instant::ZERO.saturating_since(t), Duration::ZERO);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(Duration::from_millis(1), Duration::from_micros(1000));
        assert_eq!(Duration::from_micros(1), Duration::from_nanos(1000));
    }

    #[test]
    fn duration_scaling() {
        assert_eq!(Duration::from_micros(10) * 3, Duration::from_micros(30));
        assert_eq!(Duration::from_micros(10) / 4, Duration::from_nanos(2500));
    }

    #[test]
    fn cycles_round_trip() {
        let f = CpuFreq::I7_920;
        let d = f.cycles_to_duration(2_670_000_000);
        assert_eq!(d, Duration::from_millis(1_000));
        assert_eq!(
            f.duration_to_cycles(Duration::from_millis(1_000)),
            2_670_000_000
        );
    }

    #[test]
    fn nonzero_cycles_always_advance_time() {
        let f = CpuFreq::I7_920;
        assert_eq!(f.cycles_to_duration(0), Duration::ZERO);
        assert!(f.cycles_to_duration(1) >= Duration::from_nanos(1));
    }

    /// The conversion equals the all-u128 formula at both shipped
    /// frequencies and at 1 Hz and 3 GHz: for counts of every magnitude,
    /// around `u64::MAX / 10^9`, and on both sides of the largest count
    /// whose u64 dividend fits.
    #[test]
    fn cycles_to_duration_matches_the_u128_formula() {
        fn reference(freq: CpuFreq, cycles: u64) -> Duration {
            if cycles == 0 {
                return Duration::ZERO;
            }
            let hz = freq.hz as u128;
            let ns = (cycles as u128 * 1_000_000_000u128 + hz / 2) / hz;
            Duration::from_nanos((ns as u64).max(1))
        }
        let freqs = [
            CpuFreq::I7_920,
            CpuFreq::XEON_8259CL,
            CpuFreq { hz: 1 },
            CpuFreq { hz: 3_000_000_000 },
        ];
        let mut x = 42u64;
        for freq in freqs {
            let fits = (u64::MAX - freq.hz / 2) / 1_000_000_000;
            let mut cycles: Vec<u64> = [0, 1, 2, 3, u64::MAX - 1, u64::MAX].to_vec();
            for center in [u64::MAX / 1_000_000_000, fits] {
                cycles.extend(center - 2_000..=center + 2_000);
            }
            for _ in 0..20_000 {
                // SplitMix64, shifted so every magnitude is drawn.
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                cycles.push(z >> (z % 64));
            }
            for c in cycles {
                assert_eq!(
                    freq.cycles_to_duration(c),
                    reference(freq, c),
                    "{c} cycles at {} Hz",
                    freq.hz
                );
            }
        }
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(Duration::from_nanos(5).to_string(), "5ns");
        assert_eq!(Duration::from_micros(5).to_string(), "5.000us");
        assert_eq!(Duration::from_millis(5).to_string(), "5.000ms");
        assert_eq!(Duration::from_millis(5_000).to_string(), "5.000s");
    }

    #[test]
    fn freq_constants() {
        assert_eq!(CpuFreq::I7_920.hz, 2_670_000_000);
        assert_eq!(CpuFreq::XEON_8259CL.hz, 2_500_000_000);
    }
}
