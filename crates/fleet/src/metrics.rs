//! Observability of the observer: the pipeline's own counters.
//!
//! K-LEB's pitch is that monitoring must not perturb the monitored
//! system; at fleet scale the pipeline itself becomes a system worth
//! monitoring. [`FleetMetrics`] is a plain summary built once per run,
//! after every machine has joined, from the reports that own each count
//! (store, supervision, governance), and rendered as a table through
//! `analysis::table`.

use std::time::Duration;

use analysis::TextTable;

use crate::governor::GovernorReport;
use crate::store::StoreStats;
use crate::supervisor::HealthReport;

/// The pipeline's self-metrics for one run.
///
/// `#[non_exhaustive]`: only the runner assembles one, at the end of a
/// run; the fields are readable everywhere.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct FleetMetrics {
    /// Samples handed to the store, accepted or rejected.
    pub samples_ingested: u64,
    /// Samples the store refused (timestamp regression).
    pub samples_rejected: u64,
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
}

impl FleetMetrics {
    /// Sums one run's reports; every count belongs to the report it is
    /// read from.
    pub(crate) fn from_reports(
        store: StoreStats,
        health: &[HealthReport],
        governors: &[GovernorReport],
    ) -> Self {
        Self {
            samples_ingested: store.appended + store.rejected,
            samples_rejected: store.rejected,
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
        }
    }

    /// Renders everything as a two-column table. `elapsed` is the run's
    /// host wall time, used for the ingest rate.
    pub(crate) fn render(&self, elapsed: Duration) -> String {
        let rate = if elapsed.as_secs_f64() > 0.0 {
            self.samples_ingested as f64 / elapsed.as_secs_f64()
        } else {
            0.0
        };
        let mut t = TextTable::new(&["self-metric", "value"]);
        for (name, value) in [
            ("samples ingested", self.samples_ingested.to_string()),
            ("ingest rate", format!("{rate:.0} samples/s")),
            ("samples rejected", self.samples_rejected.to_string()),
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
    fn render_mentions_every_counter() {
        let m = FleetMetrics {
            samples_ingested: 100,
            ..FleetMetrics::default()
        };
        let out = m.render(Duration::from_secs(1));
        for needle in [
            "samples ingested",
            "ingest rate",
            "samples rejected",
            "machine restarts",
            "breaker trips",
            "governor retunes",
            "governor clamps",
            "governor oscillations",
        ] {
            assert!(out.contains(needle), "missing {needle} in:\n{out}");
        }
        assert!(out.contains("100 samples/s"), "{out}");
    }
}
