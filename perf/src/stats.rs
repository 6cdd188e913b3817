//! Order statistics over timing samples.

/// The `p`-quantile (`0 ≤ p ≤ 1`) of `sorted` by linear interpolation
/// between closest ranks. `sorted` must be ascending and non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median, quartiles and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub p99: f64,
}

impl Summary {
    /// Summarises `samples` (any order); `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Self {
            n: sorted.len(),
            q1: percentile(&sorted, 0.25),
            median: percentile(&sorted, 0.5),
            q3: percentile(&sorted, 0.75),
            p99: percentile(&sorted, 0.99),
        })
    }

    /// Whether the sample supports a 99th percentile: at least ten
    /// samples must lie beyond it.
    pub fn supports_p99(&self) -> bool {
        self.n >= 1000
    }
}

/// Median of `samples`; 0 for an empty sample (a layer that never ran).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

/// `part / whole`, or 0 when there is no whole (a layer that never ran).
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&s, 0.0), 10.0);
        assert_eq!(percentile(&s, 1.0), 40.0);
        assert_eq!(percentile(&s, 0.5), 25.0);
        assert!((percentile(&s, 0.25) - 17.5).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn summary_orders_its_input() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 2.0, 3.0, 4.0));
        assert!(!s.supports_p99());
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let many: Vec<f64> = (0..1000).map(f64::from).collect();
        let s = Summary::of(&many).unwrap();
        assert!(s.supports_p99());
        assert!((s.p99 - 989.01).abs() < 1e-9);
    }

    #[test]
    fn median_of_nothing_is_zero() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[2.0, 4.0]), 3.0);
    }
}
