//! Observability of the observer: the pipeline's own counters.
//!
//! K-LEB's pitch is that monitoring must not perturb the monitored
//! system; at fleet scale the collector itself becomes a system worth
//! monitoring. [`FleetMetrics`] is a plain summary built once per run,
//! after every machine has joined, from the reports that own each count
//! (fan-in, store, supervision, governance) plus the collector's
//! log2-bucketed drain-latency histogram, one value per drained batch,
//! and rendered as a table through `analysis::table`.

use std::time::Duration;

use analysis::TextTable;

use crate::governor::GovernorReport;
use crate::ingest::ChannelStats;
use crate::store::StoreStats;
use crate::supervisor::HealthReport;

const BUCKETS: usize = 64;

/// Histogram over `u64` nanosecond values, bucketed by power-of-two
/// magnitude: bucket *i* holds values in `[2^i, 2^(i+1))` (bucket 0
/// also holds zero).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: [0; BUCKETS],
        }
    }
}

impl LatencyHistogram {
    /// A histogram with all buckets empty.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value.
    pub fn record(&mut self, value_ns: u64) {
        let bucket = (64 - value_ns.leading_zeros()).saturating_sub(1) as usize;
        self.buckets[bucket] += 1;
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Upper bound of the bucket containing the `p`-th percentile value
    /// (0 < p <= 100). Zero when empty.
    pub fn percentile_bound(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return if i + 1 >= 64 {
                    u64::MAX
                } else {
                    1u64 << (i + 1)
                };
            }
        }
        u64::MAX
    }
}

/// The pipeline's self-metrics for one run.
///
/// `#[non_exhaustive]`: only the runner assembles one, at the end of a
/// run; the fields are readable everywhere.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct FleetMetrics {
    /// Samples handed to the store, accepted or rejected.
    pub samples_ingested: u64,
    /// Batches the collector drained into the store.
    pub batches_ingested: u64,
    /// Samples lost to ring backpressure.
    pub samples_dropped: u64,
    /// Samples the store refused (timestamp regression).
    pub samples_rejected: u64,
    /// Deepest any stream's ring ever got, in samples.
    pub channel_depth_hwm: u64,
    /// Supervisor restarts (machines rebuilt after a panic).
    pub machine_restarts: u64,
    /// Recorded machine failures (panics, monitor errors, trace I/O),
    /// across all attempts.
    pub machine_failures: u64,
    /// Machines lost for good (restart budget exhausted or a
    /// non-retryable error).
    pub machines_lost: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
    /// Rate-governor retunes (period changes issued by the AIMD loop).
    pub governor_retunes: u64,
    /// Governor backoffs cut short by the period ceiling.
    pub governor_clamps: u64,
    /// Governor direction reversals (hunting indicator).
    pub governor_oscillations: u64,
    /// Wall time from a batch leaving its ring to its samples resting in
    /// the store.
    pub drain_latency: LatencyHistogram,
}

impl FleetMetrics {
    /// Sums one run's reports. `drain_latency` is the collector's own,
    /// with one value per batch it drained; every other count belongs to
    /// the report it is read from.
    pub(crate) fn from_reports(
        drain_latency: LatencyHistogram,
        channel: &ChannelStats,
        store: StoreStats,
        health: &[HealthReport],
        governors: &[GovernorReport],
    ) -> Self {
        Self {
            samples_ingested: store.appended + store.rejected,
            batches_ingested: drain_latency.count(),
            samples_dropped: channel.total_dropped(),
            samples_rejected: store.rejected,
            channel_depth_hwm: channel.depth_high_water as u64,
            machine_restarts: health.iter().map(|h| u64::from(h.restarts)).sum(),
            machine_failures: health.iter().map(|h| u64::from(h.failure_count)).sum(),
            machines_lost: health.iter().filter(|h| h.failed).count() as u64,
            breaker_trips: health.iter().map(|h| u64::from(h.breaker_trips)).sum(),
            governor_retunes: governors.iter().map(|g| u64::from(g.stats.retunes)).sum(),
            governor_clamps: governors.iter().map(|g| u64::from(g.stats.clamps)).sum(),
            governor_oscillations: governors
                .iter()
                .map(|g| u64::from(g.stats.oscillations))
                .sum(),
            drain_latency,
        }
    }

    /// Renders everything as a two-column table. `elapsed` is the
    /// collector's wall-clock run time, used for the ingest rate.
    pub fn render(&self, elapsed: Duration) -> String {
        let rate = if elapsed.as_secs_f64() > 0.0 {
            self.samples_ingested as f64 / elapsed.as_secs_f64()
        } else {
            0.0
        };
        let lat = |p: f64| format!("< {} µs", self.drain_latency.percentile_bound(p) / 1_000);
        let mut t = TextTable::new(&["self-metric", "value"]);
        for (name, value) in [
            ("samples ingested", self.samples_ingested.to_string()),
            ("batches ingested", self.batches_ingested.to_string()),
            ("ingest rate", format!("{rate:.0} samples/s")),
            ("samples dropped", self.samples_dropped.to_string()),
            ("samples rejected", self.samples_rejected.to_string()),
            (
                "channel depth high-water",
                format!("{} samples", self.channel_depth_hwm),
            ),
            ("machine restarts", self.machine_restarts.to_string()),
            ("machine failures", self.machine_failures.to_string()),
            ("machines lost", self.machines_lost.to_string()),
            ("breaker trips", self.breaker_trips.to_string()),
            ("governor retunes", self.governor_retunes.to_string()),
            ("governor clamps", self.governor_clamps.to_string()),
            (
                "governor oscillations",
                self.governor_oscillations.to_string(),
            ),
            ("drain latency p50", lat(50.0)),
            ("drain latency p90", lat(90.0)),
            ("drain latency p99", lat(99.0)),
        ] {
            t.row_owned(vec![name.into(), value]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_magnitude() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(1);
        h.record(1023);
        h.record(1024);
        assert_eq!(h.count(), 4);
        // All values < 2^10 except the last, which is < 2^11.
        assert_eq!(h.percentile_bound(75.0), 1 << 10);
        assert_eq!(h.percentile_bound(100.0), 1 << 11);
    }

    #[test]
    fn empty_histogram_percentile_is_zero() {
        assert_eq!(LatencyHistogram::new().percentile_bound(99.0), 0);
    }

    #[test]
    fn render_mentions_every_counter() {
        let mut latency = LatencyHistogram::new();
        latency.record(1_000);
        let m = FleetMetrics {
            samples_ingested: 100,
            batches_ingested: 1,
            drain_latency: latency,
            ..FleetMetrics::default()
        };
        let out = m.render(Duration::from_secs(1));
        for needle in [
            "samples ingested",
            "ingest rate",
            "samples dropped",
            "channel depth high-water",
            "machine restarts",
            "breaker trips",
            "governor retunes",
            "governor clamps",
            "governor oscillations",
            "drain latency p99",
        ] {
            assert!(out.contains(needle), "missing {needle} in:\n{out}");
        }
        assert!(out.contains("100 samples/s"), "{out}");
    }
}
