//! Counter time-multiplexing, as `perf` implements for "virtualizing" more
//! events than the hardware has counters.
//!
//! The paper (§II-B, §VI) notes that perf can monitor more events than the
//! four programmable registers by rotating event groups onto the counters and
//! *scaling* each event's raw count by `total_time / enabled_time`. The
//! scaling is an estimate: it assumes the event rate while a group was
//! scheduled is representative of the whole run, which fails for phased
//! programs. The `ablation_multiplex` experiment quantifies that error with
//! this module.

use crate::event::HwEvent;

/// The final accounting for one multiplexed event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiplexEstimate {
    /// The event being estimated.
    pub event: HwEvent,
    /// Raw occurrences counted while this event's group was scheduled.
    pub raw: u64,
    /// Scaled estimate `raw * total_time / enabled_time` (equals `raw` when
    /// the event was always scheduled).
    pub scaled: u64,
    /// Fraction of total time the event was actually on a counter, in
    /// `0.0..=1.0`.
    pub enabled_fraction: f64,
}

/// Round-robin scheduler of event groups onto `width` hardware counters.
///
/// # Example
///
/// ```
/// use pmu::{Multiplexer, HwEvent};
///
/// // Six events on four counters: two groups.
/// let mut mux = Multiplexer::new(
///     vec![
///         HwEvent::Load, HwEvent::Store, HwEvent::BranchRetired,
///         HwEvent::BranchMiss, HwEvent::LlcReference, HwEvent::LlcMiss,
///     ],
///     4,
/// );
/// // Group 0 ran 10ms and counted these raw values:
/// mux.record_and_rotate(10_000_000, &[100, 200, 300, 400]);
/// // Group 1 ran 10ms:
/// mux.record_and_rotate(10_000_000, &[50, 60]);
/// let est = mux.estimates();
/// // Each group was enabled half the time, so estimates double the raw count.
/// assert_eq!(est[0].scaled, 200);
/// assert_eq!(est[4].scaled, 100);
/// ```
#[derive(Debug, Clone)]
pub struct Multiplexer {
    /// Groups are contiguous `width`-sized chunks of `order`; group `g`
    /// covers `order[g * width ..]`, so a group index plus an offset *is*
    /// the event's request-order index — no reverse lookup needed.
    width: usize,
    current: usize,
    raw: Vec<u64>,
    enabled_ns: Vec<u64>,
    total_ns: u64,
    order: Vec<HwEvent>,
}

impl Multiplexer {
    /// Partitions `events` into groups of at most `width` and starts with the
    /// first group scheduled.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or `events` is empty.
    pub fn new(events: Vec<HwEvent>, width: usize) -> Self {
        assert!(width > 0, "counter width must be non-zero");
        assert!(!events.is_empty(), "need at least one event");
        let n = events.len();
        Self {
            width,
            current: 0,
            raw: vec![0; n],
            enabled_ns: vec![0; n],
            total_ns: 0,
            order: events,
        }
    }

    /// Number of groups the events were partitioned into. `1` means no
    /// multiplexing is needed and estimates are exact.
    fn group_count(&self) -> usize {
        self.order.len().div_ceil(self.width)
    }

    /// Request-order index of the first event in the current group.
    fn group_start(&self) -> usize {
        self.current * self.width
    }

    /// The events that should currently be programmed on the counters.
    pub fn current_events(&self) -> &[HwEvent] {
        let start = self.group_start();
        let end = (start + self.width).min(self.order.len());
        &self.order[start..end]
    }

    /// Records that the current group was scheduled for `elapsed_ns` and
    /// counted `raw_counts` (one per event in [`current_events`]
    /// group order), then rotates to the next group.
    ///
    /// [`current_events`]: Self::current_events
    ///
    /// # Panics
    ///
    /// Panics if `raw_counts.len()` differs from the current group size.
    pub fn record_and_rotate(&mut self, elapsed_ns: u64, raw_counts: &[u64]) {
        assert_eq!(
            raw_counts.len(),
            self.current_events().len(),
            "raw_counts must match the current group"
        );
        let start = self.group_start();
        for (offset, &count) in raw_counts.iter().enumerate() {
            self.raw[start + offset] += count;
            self.enabled_ns[start + offset] += elapsed_ns;
        }
        self.total_ns += elapsed_ns;
        self.current = (self.current + 1) % self.group_count();
    }

    /// Produces the scaled estimate for every requested event, in request
    /// order.
    pub fn estimates(&self) -> Vec<MultiplexEstimate> {
        self.order
            .iter()
            .enumerate()
            .map(|(i, &event)| {
                let enabled = self.enabled_ns[i];
                let (scaled, fraction) = if enabled == 0 {
                    (0, 0.0)
                } else if enabled >= self.total_ns {
                    (self.raw[i], 1.0)
                } else {
                    let scale = self.total_ns as f64 / enabled as f64;
                    (
                        (self.raw[i] as f64 * scale).round() as u64,
                        enabled as f64 / self.total_ns as f64,
                    )
                };
                MultiplexEstimate {
                    event,
                    raw: self.raw[i],
                    scaled,
                    enabled_fraction: fraction,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn six_events() -> Vec<HwEvent> {
        vec![
            HwEvent::Load,
            HwEvent::Store,
            HwEvent::BranchRetired,
            HwEvent::BranchMiss,
            HwEvent::LlcReference,
            HwEvent::LlcMiss,
        ]
    }

    #[test]
    fn no_multiplexing_when_events_fit() {
        let mut mux = Multiplexer::new(vec![HwEvent::Load, HwEvent::Store], 4);
        assert_eq!(mux.group_count(), 1);
        mux.record_and_rotate(1000, &[10, 20]);
        mux.record_and_rotate(1000, &[5, 5]);
        let est = mux.estimates();
        assert_eq!(est[0].raw, 15);
        assert_eq!(est[0].scaled, 15);
        assert_eq!(est[0].enabled_fraction, 1.0);
    }

    #[test]
    fn two_groups_scale_by_half() {
        let mut mux = Multiplexer::new(six_events(), 4);
        assert_eq!(mux.group_count(), 2);
        assert_eq!(mux.current_events().len(), 4);
        mux.record_and_rotate(10, &[100, 200, 300, 400]);
        assert_eq!(mux.current_events().len(), 2);
        mux.record_and_rotate(10, &[50, 60]);
        let est = mux.estimates();
        assert_eq!(est[0].scaled, 200);
        assert_eq!(est[3].scaled, 800);
        assert_eq!(est[4].scaled, 100);
        assert_eq!(est[5].scaled, 120);
        assert!((est[0].enabled_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn scaling_error_on_phased_workload() {
        // A program whose LLC misses all happen in the second half: the
        // estimate for a group scheduled only in the quiet half is wrong.
        let mut mux = Multiplexer::new(six_events(), 4);
        // Group 0 scheduled during quiet phase; LLC group during busy phase.
        mux.record_and_rotate(10, &[10, 10, 10, 10]); // quiet
        mux.record_and_rotate(10, &[1000, 1000]); // busy: LLC events spike
        let est = mux.estimates();
        // True LLC refs might be ~1000 total (all in busy half) but the
        // scaled estimate doubles what it saw.
        assert_eq!(est[4].scaled, 2000);
    }

    #[test]
    fn never_scheduled_event_estimates_zero() {
        let mux = Multiplexer::new(six_events(), 4);
        let est = mux.estimates();
        assert!(est
            .iter()
            .all(|e| e.scaled == 0 && e.enabled_fraction == 0.0));
    }

    #[test]
    #[should_panic]
    fn wrong_count_len_panics() {
        let mut mux = Multiplexer::new(six_events(), 4);
        mux.record_and_rotate(10, &[1, 2]);
    }

    #[test]
    #[should_panic]
    fn zero_width_panics() {
        let _ = Multiplexer::new(six_events(), 0);
    }

    #[test]
    fn rotation_is_round_robin() {
        let mut mux = Multiplexer::new(six_events(), 2);
        assert_eq!(mux.group_count(), 3);
        let first = mux.current_events().to_vec();
        mux.record_and_rotate(1, &[0, 0]);
        mux.record_and_rotate(1, &[0, 0]);
        mux.record_and_rotate(1, &[0, 0]);
        assert_eq!(mux.current_events(), first.as_slice());
    }
}
