//! The latency reporting rule: every timing reports its median, the
//! highest percentile that still has at least ten samples beyond it, and
//! its sample count.

use mds_harness::json::Json;

/// Percentiles considered for the tail, highest first.
const TAIL_LADDER: [f64; 4] = [99.99, 99.9, 99.0, 90.0];
/// Samples that must lie beyond a reported tail percentile.
const TAIL_SUPPORT: f64 = 10.0;

/// One timing series folded by the reporting rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median (mean of the middle pair for an even count); 0 when empty.
    pub median: f64,
    /// `(percentile, value)` of the highest percentile in the ladder with
    /// at least ten samples beyond it, if the series is long enough.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Folds `samples` (any order).
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        Summary {
            n,
            median: median_sorted(&sorted),
            tail: tail_percentile(n).map(|p| (p, nearest_rank(&sorted, p))),
        }
    }

    /// The JSON form: `{"n", "p50", "p<tail>"}` in `unit`.
    pub fn to_json(&self, unit: &str) -> Json {
        let mut doc = Json::object()
            .field("unit", unit)
            .field("n", self.n)
            .field("p50", self.median);
        if let Some((p, v)) = self.tail {
            doc = doc.field(&format!("p{p}"), v);
        }
        doc
    }
}

/// Median of already-sorted samples; 0 when empty.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Median of unsorted samples; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    median_sorted(&sorted)
}

/// The highest ladder percentile with at least ten of `n` samples
/// strictly beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|p| (n as f64) * (1.0 - p / 100.0) >= TAIL_SUPPORT - 1e-9)
}

/// Nearest-rank percentile of sorted samples.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.n, 1000);
        assert_eq!(s.median, 500.5);
        // p99 of 1..=1000 leaves exactly ten samples (991..=1000) beyond.
        assert_eq!(s.tail, Some((99.0, 990.0)));
        let short = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((short.n, short.median, short.tail), (3, 2.0, None));
        assert_eq!(Summary::of(&[]).median, 0.0);
    }
}
