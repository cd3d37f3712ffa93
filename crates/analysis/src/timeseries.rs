//! Time-series helpers and terminal rendering for the figure harnesses.

/// Downsamples `values` to at most `buckets` points by averaging each
/// bucket (used to fit long series into a terminal plot).
pub fn downsample(values: &[u64], buckets: usize) -> Vec<f64> {
    if values.is_empty() || buckets == 0 {
        return Vec::new();
    }
    if values.len() <= buckets {
        return values.iter().map(|&v| v as f64).collect();
    }
    let per = values.len() as f64 / buckets as f64;
    (0..buckets)
        .map(|b| {
            let start = (b as f64 * per) as usize;
            let end = (((b + 1) as f64 * per) as usize)
                .min(values.len())
                .max(start + 1);
            values[start..end].iter().sum::<u64>() as f64 / (end - start) as f64
        })
        .collect()
}

const SPARK_LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders a one-line Unicode sparkline of `values`, scaled to their range.
pub fn sparkline(values: &[f64]) -> String {
    if values.is_empty() {
        return String::new();
    }
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    let min = values.iter().cloned().fold(f64::MAX, f64::min);
    let span = (max - min).max(f64::EPSILON);
    values
        .iter()
        .map(|&v| {
            let idx = (((v - min) / span) * (SPARK_LEVELS.len() - 1) as f64).round() as usize;
            SPARK_LEVELS[idx.min(SPARK_LEVELS.len() - 1)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downsample_averages_buckets() {
        let v = [0u64, 2, 4, 6];
        let d = downsample(&v, 2);
        assert_eq!(d, vec![1.0, 5.0]);
    }

    #[test]
    fn downsample_short_input_passthrough() {
        let v = [1u64, 2];
        assert_eq!(downsample(&v, 10), vec![1.0, 2.0]);
        assert!(downsample(&[], 4).is_empty());
        assert!(downsample(&v, 0).is_empty());
    }

    #[test]
    fn sparkline_spans_levels() {
        let s = sparkline(&[0.0, 1.0]);
        assert_eq!(s.chars().count(), 2);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn sparkline_constant_input() {
        let s = sparkline(&[5.0, 5.0, 5.0]);
        assert_eq!(s.chars().count(), 3);
    }
}
