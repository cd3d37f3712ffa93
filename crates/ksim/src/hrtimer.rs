//! High-resolution kernel timers with a jitter model.
//!
//! K-LEB's core mechanism is an `hrtimer` armed in kernel space, which is
//! what lets it sample at 100 µs instead of perf's 10 ms user-space floor
//! (paper §III). Real hrtimers are not exact: expiry slips by interrupt
//! latency and clock jitter, which §VI highlights as the practical limit near
//! 100 µs periods. [`JitterModel`] reproduces that with a seeded Gaussian.

use crate::device::DeviceId;
use crate::process::CoreId;
use crate::time::{Duration, Instant};

/// Identifies one kernel timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub usize);

/// Gaussian expiry-slip model.
///
/// Fire times slip late by `|N(mean, sigma)|` — timers never fire early,
/// matching hrtimer semantics (expiry is a lower bound).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitterModel {
    /// Mean lateness, nanoseconds.
    pub mean_ns: f64,
    /// Standard deviation, nanoseconds.
    pub sigma_ns: f64,
}

impl JitterModel {
    /// No jitter at all (for exactness tests).
    pub const NONE: JitterModel = JitterModel {
        mean_ns: 0.0,
        sigma_ns: 0.0,
    };

    /// Default model: ~1.2 µs mean slip, 400 ns sigma — consistent with the
    /// paper's observation that ~1% jitter at 100 µs periods is expected.
    pub fn default_hrtimer() -> Self {
        Self {
            mean_ns: 1_200.0,
            sigma_ns: 400.0,
        }
    }

    /// Draws a slip using the caller's RNG (kept external so the whole
    /// machine shares one seeded stream).
    pub fn sample(&self, rng: &mut impl rand::Rng) -> Duration {
        if self.mean_ns == 0.0 && self.sigma_ns == 0.0 {
            return Duration::ZERO;
        }
        use rand_distr::{Distribution, Normal};
        // A non-finite/negative sigma cannot form a distribution; rather
        // than panic mid-simulation, degrade to the deterministic mean.
        let Ok(normal) = Normal::new(self.mean_ns, self.sigma_ns) else {
            return Duration::from_nanos(self.mean_ns.abs() as u64);
        };
        let slip: f64 = normal.sample(rng).abs();
        Duration::from_nanos(slip as u64)
    }
}

/// State of one armed timer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TimerEntry {
    /// Device whose `on_timer` hook fires.
    pub owner: DeviceId,
    /// Core the expiry interrupt is delivered on.
    pub core: CoreId,
    /// Nominal (un-jittered) deadline, if armed.
    pub deadline: Option<Instant>,
    /// Bumped on every arm/cancel so stale queued fires are ignored.
    pub generation: u64,
}

/// Table of all kernel timers.
#[derive(Debug, Default)]
pub(crate) struct TimerTable {
    timers: Vec<TimerEntry>,
}

impl TimerTable {
    /// An empty table.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Registers a timer owned by `owner`, delivered on `core`, initially
    /// disarmed.
    pub(crate) fn create(&mut self, owner: DeviceId, core: CoreId) -> TimerId {
        let id = TimerId(self.timers.len());
        self.timers.push(TimerEntry {
            owner,
            core,
            deadline: None,
            generation: 0,
        });
        id
    }

    /// Arms (or re-arms) a timer for `deadline`; returns the new generation
    /// to stamp into the queued fire event.
    pub(crate) fn arm(&mut self, id: TimerId, deadline: Instant) -> u64 {
        let t = &mut self.timers[id.0];
        t.generation += 1;
        t.deadline = Some(deadline);
        t.generation
    }

    /// Cancels a timer; any queued fire becomes stale.
    pub(crate) fn cancel(&mut self, id: TimerId) {
        let t = &mut self.timers[id.0];
        t.generation += 1;
        t.deadline = None;
    }

    /// Checks whether a queued fire `(id, generation)` is still current;
    /// if so, disarms the timer (one-shot semantics — owners re-arm for
    /// periodic behaviour) and returns its entry.
    pub(crate) fn take_fire(&mut self, id: TimerId, generation: u64) -> Option<TimerEntry> {
        let t = &mut self.timers[id.0];
        if t.generation != generation || t.deadline.is_none() {
            return None;
        }
        t.deadline = None;
        Some(*t)
    }

    /// The entry for a timer.
    pub(crate) fn get(&self, id: TimerId) -> &TimerEntry {
        &self.timers[id.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn arm_take_fire() {
        let mut t = TimerTable::new();
        let id = t.create(DeviceId(0), CoreId(0));
        assert!(t.get(id).deadline.is_none());
        let g = t.arm(id, Instant::from_nanos(100));
        assert!(t.get(id).deadline.is_some());
        let fired = t.take_fire(id, g).expect("current generation fires");
        assert_eq!(fired.owner, DeviceId(0));
        assert!(
            t.get(id).deadline.is_none(),
            "one-shot: disarmed after fire"
        );
    }

    #[test]
    fn cancel_invalidates_queued_fire() {
        let mut t = TimerTable::new();
        let id = t.create(DeviceId(0), CoreId(0));
        let g = t.arm(id, Instant::from_nanos(100));
        t.cancel(id);
        assert!(t.take_fire(id, g).is_none());
    }

    #[test]
    fn rearm_invalidates_previous_generation() {
        let mut t = TimerTable::new();
        let id = t.create(DeviceId(0), CoreId(0));
        let g1 = t.arm(id, Instant::from_nanos(100));
        let g2 = t.arm(id, Instant::from_nanos(200));
        assert!(t.take_fire(id, g1).is_none(), "stale fire ignored");
        assert!(t.take_fire(id, g2).is_some());
    }

    #[test]
    fn jitter_none_is_exact() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(JitterModel::NONE.sample(&mut rng), Duration::ZERO);
    }

    #[test]
    fn jitter_is_never_negative_and_deterministic() {
        let model = JitterModel::default_hrtimer();
        let a: Vec<_> = {
            let mut rng = StdRng::seed_from_u64(7);
            (0..100).map(|_| model.sample(&mut rng)).collect()
        };
        let b: Vec<_> = {
            let mut rng = StdRng::seed_from_u64(7);
            (0..100).map(|_| model.sample(&mut rng)).collect()
        };
        assert_eq!(a, b, "same seed, same slips");
        // Mean slip should be near the configured mean (within 50%).
        let mean = a.iter().map(|d| d.as_nanos()).sum::<u64>() as f64 / a.len() as f64;
        assert!(mean > 600.0 && mean < 2_400.0, "mean slip {mean}ns");
    }
}
