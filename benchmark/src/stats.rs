//! Order statistics for the reported figures.

/// Percentiles a tail is reported at, lowest first.
const LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100) of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (any order, non-empty); the mean of the two middle
/// values for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile a sample supports, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile (0–100).
    pub p: f64,
    /// Value at that percentile.
    pub value: f64,
    /// Samples it was computed from.
    pub n: usize,
}

/// The highest percentile of [`LADDER`] that has at least [`MIN_BEYOND`]
/// samples strictly beyond its rank, or `None` when even the median lacks
/// them. `sorted` is ascending.
pub fn highest_supported(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    LADDER
        .iter()
        .rev()
        .find(|&&p| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            n >= rank + MIN_BEYOND
        })
        .map(|&p| Tail {
            p,
            value: percentile(sorted, p),
            n,
        })
}

/// Sort samples ascending (total order; NaN never occurs in timings).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        // 100 samples: p90 leaves exactly 10 beyond, p99 only 1
        let t = highest_supported(&ramp(100)).unwrap();
        assert_eq!((t.p, t.value, t.n), (90.0, 90.0, 100));
        // 1000 samples: p99 leaves 10 beyond
        let t = highest_supported(&ramp(1000)).unwrap();
        assert_eq!((t.p, t.value, t.n), (99.0, 990.0, 1000));
        // 99 samples: p90 leaves 9 beyond, so only the median qualifies
        let t = highest_supported(&ramp(99)).unwrap();
        assert_eq!((t.p, t.n), (50.0, 99));
        // 20 samples: the median leaves exactly 10
        assert_eq!(highest_supported(&ramp(20)).unwrap().p, 50.0);
        // 19 samples support no percentile at all
        assert_eq!(highest_supported(&ramp(19)), None);
        // a million samples support the deepest rung
        let t = highest_supported(&ramp(1_000_000)).unwrap();
        assert_eq!((t.p, t.n), (99.999, 1_000_000));
    }
}
