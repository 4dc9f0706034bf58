//! Event counters, histograms, and numeric aggregation helpers.

use mds_harness::json::{Json, ToJson};
use std::fmt;

/// A named monotonically increasing event counter.
///
/// Counters are the lingua franca of the simulators: every interesting event
/// (committed instruction, mis-speculation, cache miss, …) bumps one.
///
/// # Examples
///
/// ```
/// use mds_sim::stats::Counter;
/// let mut c = Counter::new("misses");
/// c.incr();
/// c.add(2);
/// assert_eq!(c.value(), 3);
/// assert_eq!(c.name(), "misses");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counter {
    name: String,
    value: u64,
}

impl Counter {
    /// Creates a counter with the given display name, starting at zero.
    pub fn new(name: impl Into<String>) -> Self {
        Counter {
            name: name.into(),
            value: 0,
        }
    }

    /// Increments the counter by one.
    #[inline]
    pub fn incr(&mut self) {
        self.value += 1;
    }

    /// Adds `n` events to the counter.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Returns the current count.
    #[inline]
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Returns the counter's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Resets the count to zero, keeping the name.
    pub fn reset(&mut self) {
        self.value = 0;
    }

    /// Returns this counter's value as a fraction of `denom`, or 0.0 when
    /// `denom` is zero.
    pub fn per(&self, denom: u64) -> f64 {
        ratio(self.value, denom)
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.name, self.value)
    }
}

/// Returns `num / denom` as `f64`, defining `0 / 0 = 0`.
///
/// # Examples
///
/// ```
/// assert_eq!(mds_sim::stats::ratio(1, 4), 0.25);
/// assert_eq!(mds_sim::stats::ratio(0, 0), 0.0);
/// ```
pub fn ratio(num: u64, denom: u64) -> f64 {
    if denom == 0 {
        0.0
    } else {
        num as f64 / denom as f64
    }
}

/// A percentage value with conventional formatting (two decimals).
///
/// # Examples
///
/// ```
/// use mds_sim::stats::Percent;
/// let p = Percent::of(1, 8);
/// assert_eq!(p.value(), 12.5);
/// assert_eq!(p.to_string(), "12.50");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Percent(f64);

impl Percent {
    /// Builds the percentage `100 * num / denom` (0 when `denom == 0`).
    pub fn of(num: u64, denom: u64) -> Self {
        Percent(ratio(num, denom) * 100.0)
    }

    /// The percentage as a plain `f64` (e.g. `12.5` for 12.5 %).
    pub fn value(&self) -> f64 {
        self.0
    }
}

impl fmt::Display for Percent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}", self.0)
    }
}

/// A power-of-two bucketed histogram of `u64` samples.
///
/// Bucket `i` holds samples in `[2^(i-1), 2^i)`, with bucket 0 holding the
/// value 0 and 1. Used for distributions like dependence distances and task
/// sizes where orders of magnitude matter more than exact values.
///
/// # Examples
///
/// ```
/// use mds_sim::stats::Histogram;
/// let mut h = Histogram::new("dependence distance");
/// for d in [1u64, 3, 5, 100] { h.record(d); }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.max(), 100);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    name: String,
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram with the given display name.
    pub fn new(name: impl Into<String>) -> Self {
        Histogram {
            name: name.into(),
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let b = bucket_index(v);
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        ratio(self.sum, self.count)
    }

    /// The histogram's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Iterates over `(bucket_upper_bound_exclusive, count)` pairs for
    /// non-empty buckets.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_upper_bound(i), c))
    }
}

fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        (64 - (v - 1).leading_zeros()) as usize
    }
}

fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        1u64 << i
    }
}

impl ToJson for Counter {
    fn to_json(&self) -> Json {
        Json::object()
            .field("name", &self.name)
            .field("value", self.value)
    }
}

impl ToJson for Percent {
    fn to_json(&self) -> Json {
        self.0.to_json()
    }
}

impl ToJson for Histogram {
    fn to_json(&self) -> Json {
        let buckets: Vec<(u64, u64)> = self.iter().collect();
        Json::object()
            .field("name", &self.name)
            .field("count", self.count)
            .field("sum", self.sum)
            .field("max", self.max)
            .field("mean", self.mean())
            .field("buckets", buckets)
    }
}

/// Percentage speedup of `new` over `old` measured in cycles:
/// `100 * (old / new - 1)`. Positive means `new` is faster.
///
/// # Examples
///
/// ```
/// let s = mds_sim::stats::speedup_percent(200, 100);
/// assert_eq!(s, 100.0);
/// ```
pub fn speedup_percent(old_cycles: u64, new_cycles: u64) -> f64 {
    if new_cycles == 0 {
        return 0.0;
    }
    (old_cycles as f64 / new_cycles as f64 - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new("x");
        c.incr();
        c.add(9);
        assert_eq!(c.value(), 10);
        assert_eq!(c.per(20), 0.5);
        c.reset();
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn counter_display_includes_name_and_value() {
        let mut c = Counter::new("misses");
        c.add(7);
        assert_eq!(c.to_string(), "misses: 7");
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        assert_eq!(ratio(5, 0), 0.0);
        assert_eq!(ratio(5, 10), 0.5);
    }

    #[test]
    fn percent_formats_two_decimals() {
        assert_eq!(Percent::of(1, 3).to_string(), "33.33");
        assert_eq!(Percent::of(0, 0).value(), 0.0);
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let mut h = Histogram::new("h");
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(4);
        h.record(1024);
        let buckets: Vec<(u64, u64)> = h.iter().collect();
        // 0 and 1 in bucket (<=1); 2 in (1,2]; 3 and 4 in (2,4]; 1024 in (512,1024]
        assert_eq!(buckets, vec![(1, 2), (2, 1), (4, 2), (1024, 1)]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), 1024);
    }

    #[test]
    fn histogram_mean_and_sum() {
        let mut h = Histogram::new("h");
        for v in [2u64, 4, 6] {
            h.record(v);
        }
        assert_eq!(h.sum(), 12);
        assert_eq!(h.mean(), 4.0);
    }

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn speedup_percent_signs() {
        assert_eq!(speedup_percent(100, 100), 0.0);
        assert!(speedup_percent(150, 100) > 0.0);
        assert!(speedup_percent(100, 150) < 0.0);
        assert_eq!(speedup_percent(100, 0), 0.0);
    }
}
