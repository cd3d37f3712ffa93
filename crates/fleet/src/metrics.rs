//! Observability of the observer: the pipeline's own counters.
//!
//! K-LEB's pitch is that monitoring must not perturb the monitored
//! system; at fleet scale the collector itself becomes a system worth
//! monitoring. [`FleetMetrics`] is a lock-free set of atomic counters
//! plus a log2-bucketed latency histogram, updated from the ingest path
//! and rendered as a table through `analysis::table`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use analysis::TextTable;

const BUCKETS: usize = 64;

/// Lock-free histogram over `u64` nanosecond values, bucketed by
/// power-of-two magnitude: bucket *i* holds values in `[2^i, 2^(i+1))`
/// (bucket 0 also holds zero).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencyHistogram {
    /// A histogram with all buckets empty.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value.
    pub fn record(&self, value_ns: u64) {
        let bucket = (64 - value_ns.leading_zeros()).saturating_sub(1) as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
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
            seen += b.load(Ordering::Relaxed);
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

/// Atomic counters for the whole pipeline. Share via `Arc`; every method
/// takes `&self`.
#[derive(Debug, Default)]
pub struct FleetMetrics {
    samples_ingested: AtomicU64,
    batches_ingested: AtomicU64,
    samples_dropped: AtomicU64,
    samples_rejected: AtomicU64,
    channel_depth_hwm: AtomicU64,
    stream_stalls: AtomicU64,
    stream_resumes: AtomicU64,
    machine_restarts: AtomicU64,
    machine_failures: AtomicU64,
    machines_lost: AtomicU64,
    breaker_trips: AtomicU64,
    governor_retunes: AtomicU64,
    governor_clamps: AtomicU64,
    governor_oscillations: AtomicU64,
    /// Wall time from a batch leaving its ring to its samples resting in
    /// the store.
    drain_latency: LatencyHistogram,
}

impl FleetMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one drained-and-stored batch.
    pub fn record_batch(&self, samples: u64, drain_latency_ns: u64) {
        self.batches_ingested.fetch_add(1, Ordering::Relaxed);
        self.samples_ingested.fetch_add(samples, Ordering::Relaxed);
        self.drain_latency.record(drain_latency_ns);
    }

    /// Adds samples lost to channel backpressure.
    pub fn add_dropped(&self, samples: u64) {
        self.samples_dropped.fetch_add(samples, Ordering::Relaxed);
    }

    /// Adds samples the store refused (timestamp regression).
    pub fn add_rejected(&self, samples: u64) {
        self.samples_rejected.fetch_add(samples, Ordering::Relaxed);
    }

    /// Records one watchdog stall episode (a stream went silent past the
    /// stall timeout and was quarantined).
    pub fn add_stall(&self) {
        self.stream_stalls.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one watchdog resume (a quarantined stream came back).
    pub fn add_resume(&self) {
        self.stream_resumes.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds supervisor restarts (machines rebuilt after a panic).
    pub fn add_restarts(&self, restarts: u64) {
        self.machine_restarts.fetch_add(restarts, Ordering::Relaxed);
    }

    /// Adds recorded machine failures (panics, monitor errors, trace
    /// I/O), across all attempts.
    pub fn add_machine_failures(&self, failures: u64) {
        self.machine_failures.fetch_add(failures, Ordering::Relaxed);
    }

    /// Records one machine lost for good (restart budget exhausted or a
    /// non-retryable error).
    pub fn add_machine_lost(&self) {
        self.machines_lost.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds circuit-breaker trips from the supervisor.
    pub fn add_breaker_trips(&self, trips: u64) {
        self.breaker_trips.fetch_add(trips, Ordering::Relaxed);
    }

    /// Adds rate-governor retunes (period changes issued by the AIMD
    /// loop).
    pub fn add_retunes(&self, retunes: u64) {
        self.governor_retunes.fetch_add(retunes, Ordering::Relaxed);
    }

    /// Adds governor backoffs cut short by the period ceiling.
    pub fn add_retune_clamps(&self, clamps: u64) {
        self.governor_clamps.fetch_add(clamps, Ordering::Relaxed);
    }

    /// Adds governor direction reversals (hunting indicator).
    pub fn add_retune_oscillations(&self, oscillations: u64) {
        self.governor_oscillations
            .fetch_add(oscillations, Ordering::Relaxed);
    }

    /// Raises the recorded fan-in depth high-water mark to `depth`
    /// samples.
    pub fn observe_depth_hwm(&self, depth: u64) {
        self.channel_depth_hwm.fetch_max(depth, Ordering::Relaxed);
    }

    /// Samples stored so far.
    pub fn samples_ingested(&self) -> u64 {
        self.samples_ingested.load(Ordering::Relaxed)
    }

    /// Batches stored so far.
    pub fn batches_ingested(&self) -> u64 {
        self.batches_ingested.load(Ordering::Relaxed)
    }

    /// Samples lost to backpressure so far.
    pub fn samples_dropped(&self) -> u64 {
        self.samples_dropped.load(Ordering::Relaxed)
    }

    /// Samples refused by the store so far.
    pub fn samples_rejected(&self) -> u64 {
        self.samples_rejected.load(Ordering::Relaxed)
    }

    /// Deepest any stream's ring ever got, in samples.
    pub fn channel_depth_hwm(&self) -> u64 {
        self.channel_depth_hwm.load(Ordering::Relaxed)
    }

    /// Watchdog stall episodes so far.
    pub fn stream_stalls(&self) -> u64 {
        self.stream_stalls.load(Ordering::Relaxed)
    }

    /// Watchdog resumes so far.
    pub fn stream_resumes(&self) -> u64 {
        self.stream_resumes.load(Ordering::Relaxed)
    }

    /// Supervisor restarts so far.
    pub fn machine_restarts(&self) -> u64 {
        self.machine_restarts.load(Ordering::Relaxed)
    }

    /// Recorded machine failures so far.
    pub fn machine_failures(&self) -> u64 {
        self.machine_failures.load(Ordering::Relaxed)
    }

    /// Machines lost for good so far.
    pub fn machines_lost(&self) -> u64 {
        self.machines_lost.load(Ordering::Relaxed)
    }

    /// Circuit-breaker trips so far.
    pub fn breaker_trips(&self) -> u64 {
        self.breaker_trips.load(Ordering::Relaxed)
    }

    /// Governor retunes so far.
    pub fn governor_retunes(&self) -> u64 {
        self.governor_retunes.load(Ordering::Relaxed)
    }

    /// Governor ceiling clamps so far.
    pub fn governor_clamps(&self) -> u64 {
        self.governor_clamps.load(Ordering::Relaxed)
    }

    /// Governor direction reversals so far.
    pub fn governor_oscillations(&self) -> u64 {
        self.governor_oscillations.load(Ordering::Relaxed)
    }

    /// The drain-latency histogram.
    pub fn drain_latency(&self) -> &LatencyHistogram {
        &self.drain_latency
    }

    /// Renders everything as a two-column table. `elapsed` is the
    /// collector's wall-clock run time, used for the ingest rate.
    pub fn render(&self, elapsed: Duration) -> String {
        let ingested = self.samples_ingested();
        let rate = if elapsed.as_secs_f64() > 0.0 {
            ingested as f64 / elapsed.as_secs_f64()
        } else {
            0.0
        };
        let lat = |p: f64| format!("< {} µs", self.drain_latency.percentile_bound(p) / 1_000);
        let mut t = TextTable::new(&["self-metric", "value"]);
        t.row_owned(vec!["samples ingested".into(), ingested.to_string()]);
        t.row_owned(vec![
            "batches ingested".into(),
            self.batches_ingested().to_string(),
        ]);
        t.row_owned(vec!["ingest rate".into(), format!("{rate:.0} samples/s")]);
        t.row_owned(vec![
            "samples dropped".into(),
            self.samples_dropped().to_string(),
        ]);
        t.row_owned(vec![
            "samples rejected".into(),
            self.samples_rejected().to_string(),
        ]);
        t.row_owned(vec![
            "channel depth high-water".into(),
            format!("{} samples", self.channel_depth_hwm()),
        ]);
        t.row_owned(vec![
            "stream stalls".into(),
            self.stream_stalls().to_string(),
        ]);
        t.row_owned(vec![
            "stream resumes".into(),
            self.stream_resumes().to_string(),
        ]);
        t.row_owned(vec![
            "machine restarts".into(),
            self.machine_restarts().to_string(),
        ]);
        t.row_owned(vec![
            "machine failures".into(),
            self.machine_failures().to_string(),
        ]);
        t.row_owned(vec![
            "machines lost".into(),
            self.machines_lost().to_string(),
        ]);
        t.row_owned(vec![
            "breaker trips".into(),
            self.breaker_trips().to_string(),
        ]);
        t.row_owned(vec![
            "governor retunes".into(),
            self.governor_retunes().to_string(),
        ]);
        t.row_owned(vec![
            "governor clamps".into(),
            self.governor_clamps().to_string(),
        ]);
        t.row_owned(vec![
            "governor oscillations".into(),
            self.governor_oscillations().to_string(),
        ]);
        t.row_owned(vec!["drain latency p50".into(), lat(50.0)]);
        t.row_owned(vec!["drain latency p90".into(), lat(90.0)]);
        t.row_owned(vec!["drain latency p99".into(), lat(99.0)]);
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_magnitude() {
        let h = LatencyHistogram::new();
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
    fn counters_accumulate() {
        let m = FleetMetrics::new();
        m.record_batch(10, 500);
        m.record_batch(5, 2_000);
        m.add_dropped(3);
        m.add_rejected(1);
        m.add_stall();
        m.add_stall();
        m.add_resume();
        m.add_retunes(4);
        m.add_retune_clamps(2);
        m.add_retune_oscillations(1);
        m.observe_depth_hwm(4);
        m.observe_depth_hwm(2);
        assert_eq!(m.samples_ingested(), 15);
        assert_eq!(m.batches_ingested(), 2);
        assert_eq!(m.samples_dropped(), 3);
        assert_eq!(m.samples_rejected(), 1);
        assert_eq!(m.stream_stalls(), 2);
        assert_eq!(m.stream_resumes(), 1);
        assert_eq!(m.channel_depth_hwm(), 4, "hwm is monotone");
        assert_eq!(m.governor_retunes(), 4);
        assert_eq!(m.governor_clamps(), 2);
        assert_eq!(m.governor_oscillations(), 1);
        assert_eq!(m.drain_latency().count(), 2);
    }

    #[test]
    fn render_mentions_every_counter() {
        let m = FleetMetrics::new();
        m.record_batch(100, 1_000);
        let out = m.render(Duration::from_secs(1));
        for needle in [
            "samples ingested",
            "ingest rate",
            "samples dropped",
            "channel depth high-water",
            "stream stalls",
            "stream resumes",
            "governor retunes",
            "governor clamps",
            "governor oscillations",
            "drain latency p99",
        ] {
            assert!(out.contains(needle), "missing {needle} in:\n{out}");
        }
    }
}
