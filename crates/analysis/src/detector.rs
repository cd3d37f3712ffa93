//! Online anomaly detection over counter time series.
//!
//! The paper closes its Meltdown case study noting K-LEB's time-series
//! granularity "gives K-LEB the potential to be used for hardware event
//! based anomaly detection" (§IV-C, building it was "outside the scope").
//! This module supplies that next step: a streaming EWMA detector suitable
//! for the 100 µs sample stream — constant memory, one update per sample.

/// Verdict for one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Detection {
    /// Still learning the baseline.
    Warmup,
    /// Within the control band.
    Normal,
    /// Outside the band; carries the deviation in band-widths.
    Anomalous {
        /// `(value − mean) / band` at detection time.
        score: f64,
    },
}

impl Detection {
    /// True for [`Detection::Anomalous`].
    fn is_anomalous(&self) -> bool {
        matches!(self, Detection::Anomalous { .. })
    }
}

/// Exponentially-weighted moving average detector with a variance-scaled
/// control band (an EWMA control chart).
///
/// ```
/// use analysis::detector::{Detection, EwmaDetector};
///
/// let mut d = EwmaDetector::new(0.2, 4.0, 8);
/// for _ in 0..20 {
///     assert!(!matches!(d.update(100.0), Detection::Anomalous { .. }));
/// }
/// assert!(matches!(d.update(100_000.0), Detection::Anomalous { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct EwmaDetector {
    alpha: f64,
    k: f64,
    warmup: u32,
    seen: u32,
    mean: f64,
    var: f64,
}

impl EwmaDetector {
    /// A detector smoothing with factor `alpha` (0 < alpha ≤ 1), alarming
    /// at `k` standard deviations, after `warmup` samples of baseline.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]` or `k` is not positive.
    pub fn new(alpha: f64, k: f64, warmup: u32) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha in (0, 1]");
        assert!(k > 0.0, "k must be positive");
        Self {
            alpha,
            k,
            warmup,
            seen: 0,
            mean: 0.0,
            var: 0.0,
        }
    }

    /// A configuration suited to per-period event counts: moderate
    /// smoothing, a 5-sigma band, 16 warmup samples.
    pub fn for_counter_series() -> Self {
        Self::new(0.15, 5.0, 16)
    }

    /// Current baseline estimate.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Feeds one sample; returns its verdict. Anomalous samples do **not**
    /// update the baseline (so a sustained attack stays flagged).
    pub fn update(&mut self, value: f64) -> Detection {
        if self.seen < self.warmup {
            self.seen += 1;
            let a = 1.0 / self.seen as f64; // plain mean during warmup
            let delta = value - self.mean;
            self.mean += a * delta;
            self.var += a * (delta * delta - self.var);
            return Detection::Warmup;
        }
        let band = self.k * self.var.sqrt().max(self.mean.abs() * 0.05).max(1e-9);
        let deviation = value - self.mean;
        if deviation.abs() > band {
            return Detection::Anomalous {
                score: deviation / band,
            };
        }
        self.mean += self.alpha * deviation;
        self.var += self.alpha * (deviation * deviation - self.var);
        Detection::Normal
    }

    /// Runs the detector over a whole series, returning the indices of
    /// anomalous samples.
    pub fn scan(mut self, series: impl IntoIterator<Item = f64>) -> Vec<usize> {
        series
            .into_iter()
            .enumerate()
            .filter_map(|(i, v)| self.update(v).is_anomalous().then_some(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_series_never_alarms() {
        let hits = EwmaDetector::for_counter_series().scan((0..200).map(|_| 500.0));
        assert!(hits.is_empty());
    }

    #[test]
    fn small_noise_never_alarms() {
        let series = (0..300).map(|i| 500.0 + ((i * 37) % 11) as f64);
        let hits = EwmaDetector::for_counter_series().scan(series);
        assert!(hits.is_empty(), "hits at {hits:?}");
    }

    #[test]
    fn spike_alarms_and_baseline_holds() {
        let mut d = EwmaDetector::for_counter_series();
        for _ in 0..50 {
            assert!(!d.update(100.0).is_anomalous());
        }
        let baseline = d.mean();
        match d.update(10_000.0) {
            Detection::Anomalous { score } => assert!(score > 1.0),
            other => panic!("expected anomaly, got {other:?}"),
        }
        // Anomalies do not poison the baseline.
        assert_eq!(d.mean(), baseline);
        assert!(!d.update(100.0).is_anomalous());
    }

    #[test]
    fn sustained_shift_keeps_alarming() {
        let mut d = EwmaDetector::for_counter_series();
        for _ in 0..50 {
            d.update(100.0);
        }
        let alarms = (0..30).filter(|_| d.update(5_000.0).is_anomalous()).count();
        assert_eq!(alarms, 30, "sustained attack stays flagged");
    }

    #[test]
    fn warmup_is_reported() {
        let mut d = EwmaDetector::new(0.2, 4.0, 3);
        assert_eq!(d.update(1.0), Detection::Warmup);
        assert_eq!(d.update(1.0), Detection::Warmup);
        assert_eq!(d.update(1.0), Detection::Warmup);
        assert_eq!(d.update(1.0), Detection::Normal);
    }

    #[test]
    #[should_panic]
    fn bad_alpha_panics() {
        EwmaDetector::new(0.0, 4.0, 1);
    }
}
