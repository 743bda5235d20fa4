//! Sample statistics: medians, nearest-rank percentiles and the rule for
//! which percentile a sample set supports.

/// Minimum number of samples that must lie beyond a percentile for the
/// sample set to support reporting it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` (in `(0, 1]`) among `n` sorted
/// samples: the smallest rank whose cumulative share reaches `p`.
fn rank(p: f64, n: usize) -> usize {
    // The tiny epsilon keeps exact products such as 0.9 * 100 from
    // rounding up to the next rank through floating-point error.
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// Whether `n` samples support percentile `p`: at least
/// [`MIN_BEYOND`] samples lie strictly above its nearest rank.
pub fn supports(p: f64, n: usize) -> bool {
    n > 0 && n - 1 - rank(p, n) >= MIN_BEYOND
}

/// The highest of `candidates` (ascending) that `n` samples support.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates.iter().copied().rfind(|&p| supports(p, n))
}

/// Nearest-rank percentile `p` of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(p, sorted.len())]
}

/// Median of `sorted` (ascending, non-empty): the mean of the two middle
/// samples for an even count.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// A named latency sample set, in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.values.push(ms);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn median(&self) -> f64 {
        median(&self.sorted())
    }

    /// Percentile `p`, or an error naming the shortfall when the sample
    /// count does not support it.
    pub fn percentile(&self, p: f64) -> Result<f64, String> {
        if !supports(p, self.len()) {
            return Err(format!(
                "{} samples do not support p{} (need {} beyond it)",
                self.len(),
                p * 100.0,
                MIN_BEYOND
            ));
        }
        Ok(percentile(&self.sorted(), p))
    }

    /// `"mean M, p50 X, pQ Y (n=N)"` with the highest supported percentile
    /// among p90, p99 and p99.9.
    pub fn describe(&self) -> String {
        let sorted = self.sorted();
        let mean = self.sum() / sorted.len().max(1) as f64;
        let mut out = format!("mean {mean:.4}, p50 {:.4}", median(&sorted));
        if let Some(p) = highest_supported(sorted.len(), &[0.9, 0.99, 0.999]) {
            out.push_str(&format!(", p{} {:.4}", p * 100.0, percentile(&sorted, p)));
        }
        out.push_str(&format!(" (n={})", sorted.len()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_one_hundred_samples() {
        assert!(supports(0.9, 100));
        assert!(!supports(0.9, 99));
        assert!(supports(0.99, 1000));
        assert!(!supports(0.99, 999));
        assert!(supports(0.5, 20));
        assert!(!supports(0.5, 19));
        assert!(!supports(0.5, 0));
    }

    #[test]
    fn highest_supported_picks_the_largest_candidate() {
        let c = [0.9, 0.99, 0.999];
        assert_eq!(highest_supported(99, &c), None);
        assert_eq!(highest_supported(100, &c), Some(0.9));
        assert_eq!(highest_supported(5_000, &c), Some(0.99));
        assert_eq!(highest_supported(10_000, &c), Some(0.999));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(median(&v), 50.5);
        assert_eq!(median(&[3.0, 1.0, 2.0][..1]), 3.0);
    }

    #[test]
    fn unsupported_percentile_is_an_error() {
        let mut s = Samples::default();
        for i in 0..50 {
            s.push(f64::from(i));
        }
        assert!(s.percentile(0.9).is_err());
        assert_eq!(s.percentile(0.5).unwrap(), 24.0);
        assert!(s.describe().ends_with("(n=50)"));
    }
}
