//! Offline analysis over recorded traces: the bridge from a
//! [`ktrace::RecoveredStream`] into this crate's time-series, MPKI and
//! phase machinery.
//!
//! A recorded stream is already columnar on disk; [`TraceSeries`] lifts
//! it into per-lane delta series (the same shape the live fleet store
//! holds), so everything that works on a live run — MPKI over windows,
//! phase detection, sparklines — works identically on a trace loaded
//! months later. Lane numbering matches the store and the trace index:
//! `0‥2` fixed (instructions, cycles, ref-cycles), `3‥6` the
//! programmable counters in `pmc[i]` order.

use crate::metrics::mpki;
use ktrace::RecoveredStream;
use pmu::{HwEvent, NUM_FIXED};

/// Lane index of the instructions fixed counter.
pub const LANE_INSTRUCTIONS: usize = 0;

/// A recovered stream unpacked into per-lane series for analysis.
#[derive(Debug, Clone)]
pub struct TraceSeries {
    /// Sample timestamps, nanoseconds, stream order.
    pub timestamps_ns: Vec<u64>,
    /// Per-lane counter deltas: `lanes[lane][i]` is sample `i`'s reading
    /// on that lane. All lanes have `timestamps_ns.len()` entries.
    pub lanes: Vec<Vec<u64>>,
    /// The programmable events, `pmc[i]` order (lane `3 + i`).
    pub events: Vec<HwEvent>,
    /// The stream's label.
    pub label: String,
}

impl TraceSeries {
    /// Unpacks `stream` into per-lane series.
    pub fn from_stream(stream: &RecoveredStream) -> Self {
        let n = stream.samples.len();
        let n_lanes = NUM_FIXED + stream.meta.events.len();
        let mut lanes = vec![Vec::with_capacity(n); n_lanes];
        let mut timestamps_ns = Vec::with_capacity(n);
        for s in &stream.samples {
            timestamps_ns.push(s.timestamp_ns);
            let (fixed_lanes, pmc_lanes) = lanes.split_at_mut(NUM_FIXED);
            for (lane, v) in fixed_lanes.iter_mut().zip(s.fixed) {
                lane.push(v);
            }
            for (lane, v) in pmc_lanes.iter_mut().zip(s.pmc) {
                lane.push(v);
            }
        }
        Self {
            timestamps_ns,
            lanes,
            events: stream.meta.events.clone(),
            label: stream.meta.label.clone(),
        }
    }

    /// Samples in the series.
    pub fn len(&self) -> usize {
        self.timestamps_ns.len()
    }

    /// True when the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.timestamps_ns.is_empty()
    }

    /// The lane carrying `event`, if it was programmed on this stream.
    pub fn lane_of(&self, event: HwEvent) -> Option<usize> {
        self.events
            .iter()
            .position(|&e| e == event)
            .map(|i| NUM_FIXED + i)
    }

    /// Sum of a lane over the half-open time window `[start_ns, end_ns)`.
    pub fn window_sum(&self, lane: usize, start_ns: u64, end_ns: u64) -> u64 {
        let Some(series) = self.lanes.get(lane) else {
            return 0;
        };
        self.timestamps_ns
            .iter()
            .zip(series)
            .filter(|(&ts, _)| ts >= start_ns && ts < end_ns)
            .map(|(_, &v)| v)
            .sum()
    }

    /// Whole-trace MPKI for `miss_event`, or `None` if the event was not
    /// programmed on this stream.
    pub fn total_mpki(&self, miss_event: HwEvent) -> Option<f64> {
        let lane = self.lane_of(miss_event)?;
        let misses: u64 = self.lanes[lane].iter().sum();
        let instructions: u64 = self.lanes[LANE_INSTRUCTIONS].iter().sum();
        Some(mpki(misses, instructions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kleb::Sample;
    use ktrace::{RecoveryReport, StreamMeta};

    fn stream() -> RecoveredStream {
        let events = vec![HwEvent::LlcReference, HwEvent::LlcMiss];
        let samples: Vec<Sample> = (0..100u64)
            .map(|i| Sample {
                timestamp_ns: (i + 1) * 100_000,
                seq: i,
                pid: 7,
                fixed: [1_000, 2_670, 2_000],
                // Misses spike in the second half: two phases.
                pmc: [50, if i < 50 { 1 } else { 40 }, 0, 0],
                ..Sample::default()
            })
            .collect();
        RecoveredStream {
            meta: StreamMeta {
                label: "t0".into(),
                seed: 9,
                period_ns: 100_000,
                events,
            },
            batch_lens: vec![100],
            samples,
            ledger: None,
            report: RecoveryReport::default(),
        }
    }

    #[test]
    fn lanes_unpack_in_store_order() {
        let series = TraceSeries::from_stream(&stream());
        assert_eq!(series.len(), 100);
        assert_eq!(series.lanes.len(), NUM_FIXED + 2);
        assert_eq!(series.lanes[LANE_INSTRUCTIONS][0], 1_000);
        assert_eq!(series.lane_of(HwEvent::LlcMiss), Some(NUM_FIXED + 1));
        assert_eq!(series.lane_of(HwEvent::ArithMul), None);
        assert_eq!(series.lanes[NUM_FIXED + 1][99], 40);
    }

    #[test]
    fn mpki_totals() {
        let series = TraceSeries::from_stream(&stream());
        let total = series.total_mpki(HwEvent::LlcMiss).unwrap();
        // (50·1 + 50·40) misses over 100k instructions.
        assert!((total - 20.5).abs() < 1e-9, "got {total}");
        assert_eq!(series.total_mpki(HwEvent::ArithMul), None);
    }

    #[test]
    fn window_sum_respects_half_open_bounds() {
        let series = TraceSeries::from_stream(&stream());
        // Samples at 100k..=10M; window covering the first ten samples.
        let lane = series.lane_of(HwEvent::LlcReference).unwrap();
        assert_eq!(series.window_sum(lane, 0, 1_000_001), 50 * 10);
        assert_eq!(series.window_sum(lane, 0, 0), 0);
        assert_eq!(series.window_sum(99, 0, u64::MAX), 0, "missing lane");
    }
}
