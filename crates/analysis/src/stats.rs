//! Summary statistics: mean, deviation, percentiles, box-whisker summaries.

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Sample standard deviation (n−1 denominator); `0.0` for fewer than two
/// values.
pub fn stddev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    let var = values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
    var.sqrt()
}

/// Percentile `p` in `0.0..=100.0` with linear interpolation between order
/// statistics.
///
/// # Panics
///
/// Panics if `values` is empty or `p` is outside `0..=100`.
fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Median; `0.0` for an empty slice.
pub(crate) fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    percentile(values, 50.0)
}

/// Median absolute deviation from the median; `0.0` for an empty slice.
fn mad(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let m = median(values);
    let deviations: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    median(&deviations)
}

/// Robust z-scores (modified z): each value's distance from the median in
/// units of `1.4826 × MAD` — the fleet-aggregation outlier score. Unlike
/// the classic z-score, one extreme machine cannot inflate the scale it
/// is judged against.
///
/// When the MAD is zero (more than half the values identical), values
/// equal to the median score `0.0` and every other value scores
/// `±INFINITY` — an unambiguous outlier among constants.
pub fn robust_z(values: &[f64]) -> Vec<f64> {
    let m = median(values);
    let scale = 1.4826 * mad(values);
    values
        .iter()
        .map(|v| {
            if v == &m {
                0.0
            } else if scale > 0.0 {
                (v - m) / scale
            } else {
                (v - m).signum() * f64::INFINITY
            }
        })
        .collect()
}

/// The five-number summary behind a box-and-whisker plot (paper Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiveNumber {
    /// Smallest observation.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest observation.
    pub max: f64,
}

impl FiveNumber {
    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Computes the five-number summary.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn five_number(values: &[f64]) -> FiveNumber {
    FiveNumber {
        min: percentile(values, 0.0),
        q1: percentile(values, 25.0),
        median: percentile(values, 50.0),
        q3: percentile(values, 75.0),
        max: percentile(values, 100.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stddev() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&v) - 5.0).abs() < 1e-12);
        assert!((stddev(&v) - 2.138089935).abs() < 1e-6);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(stddev(&[1.0]), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert!((percentile(&v, 50.0) - 2.5).abs() < 1e-12);
        assert!((percentile(&v, 25.0) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn percentile_unsorted_input() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert!((percentile(&v, 50.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn five_number_summary() {
        let v: Vec<f64> = (1..=9).map(|i| i as f64).collect();
        let f = five_number(&v);
        assert_eq!(f.min, 1.0);
        assert_eq!(f.median, 5.0);
        assert_eq!(f.max, 9.0);
        assert_eq!(f.q1, 3.0);
        assert_eq!(f.q3, 7.0);
        assert_eq!(f.iqr(), 4.0);
    }

    #[test]
    #[should_panic]
    fn empty_percentile_panics() {
        percentile(&[], 50.0);
    }

    #[test]
    fn median_and_mad() {
        let v = [1.0, 2.0, 3.0, 4.0, 100.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(mad(&v), 1.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mad(&[]), 0.0);
    }

    #[test]
    fn robust_z_isolates_the_outlier() {
        let v = [7.0, 7.2, 6.9, 7.1, 27.0];
        let z = robust_z(&v);
        assert!(z[4] > 10.0, "attacker score {}", z[4]);
        for (i, zi) in z.iter().enumerate().take(4) {
            assert!(zi.abs() < 3.5, "benign {i} scored {zi}");
        }
    }

    #[test]
    fn robust_z_with_zero_mad() {
        let z = robust_z(&[5.0, 5.0, 5.0, 9.0]);
        assert_eq!(z[0], 0.0);
        assert_eq!(z[3], f64::INFINITY);
        let z = robust_z(&[5.0, 5.0, 5.0, 1.0]);
        assert_eq!(z[3], f64::NEG_INFINITY);
    }

    #[test]
    fn single_value() {
        let f = five_number(&[3.5]);
        assert_eq!(f.min, 3.5);
        assert_eq!(f.max, 3.5);
        assert_eq!(f.median, 3.5);
    }
}
