//! Latency telemetry: a log-linear histogram with tight percentiles.
//!
//! Power-of-two buckets are fine for size distributions but too coarse for
//! latency percentiles (a p99 answer that may be 2× off is useless for
//! tail-latency work). [`LatencyHistogram`] subdivides every octave into 32
//! linear sub-buckets, bounding the relative quantile error to ≤ 1/32 ≈ 3 %
//! while staying a fixed-size array — the same trade HdrHistogram makes.

const SUB_BUCKET_BITS: u32 = 5; // 32 sub-buckets per octave
const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS;
// Values below 2^(SUB_BUCKET_BITS) get exact unit buckets; above, one bucket
// per (octave, sub-bucket) pair up to u64::MAX.
const NUM_BUCKETS: usize = ((64 - SUB_BUCKET_BITS as usize) * SUB_BUCKETS as usize) + 32;

/// A log-linear latency histogram over `u64` samples (cycles, nanoseconds —
/// any non-negative magnitude).
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index of `value` in the log-linear layout (exact unit buckets below
/// 32, then 32 linear sub-buckets per octave). `HistoSnapshot::of` in
/// `agile-metrics` keeps these indices, so a histogram's registry sample is
/// lossless.
pub fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS {
        value as usize
    } else {
        let octave = 63 - value.leading_zeros();
        let sub = (value >> (octave - SUB_BUCKET_BITS)) & (SUB_BUCKETS - 1);
        ((octave - SUB_BUCKET_BITS + 1) as u64 * SUB_BUCKETS + sub) as usize
    }
}

/// Upper bound (inclusive) of the bucket at `index` — the value reported for
/// quantiles landing in that bucket.
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index < SUB_BUCKETS as usize {
        index as u64
    } else {
        let octave = (index as u64 / SUB_BUCKETS) + SUB_BUCKET_BITS as u64 - 1;
        let sub = index as u64 % SUB_BUCKETS;
        let unit = 1u128 << (octave - SUB_BUCKET_BITS as u64);
        let base = 1u128 << octave;
        // The top octave's last sub-bucket ends exactly at u64::MAX.
        ((base + (sub as u128 + 1) * unit - 1).min(u64::MAX as u128)) as u64
    }
}

impl LatencyHistogram {
    /// New, empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Non-empty buckets as `(index, count)`, ascending by index (indices of
    /// [`bucket_index`]).
    pub fn buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        // The extremes bound the populated range (empty when nothing was
        // recorded: `min` is then above `max`).
        let live = bucket_index(self.min)..bucket_index(self.max) + 1;
        live.filter_map(|i| (self.buckets[i] > 0).then_some((i, self.buckets[i])))
    }

    /// Mean of recorded samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample (`None` if empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample (`None` if empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The value at quantile `q ∈ [0, 1]` (bucket upper bound, ≤ ~3 % high;
    /// exact min/max are clamped in). `None` if empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(bucket_upper_bound(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Median (p50).
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_and_bound_are_consistent() {
        for v in (0..4096u64).chain([1 << 20, (1 << 20) + 12345, u64::MAX / 2, u64::MAX]) {
            let idx = bucket_index(v);
            assert!(idx < NUM_BUCKETS, "index {idx} out of range for {v}");
            let ub = bucket_upper_bound(idx);
            assert!(ub >= v, "upper bound {ub} below value {v}");
            // Bound is tight: within one sub-bucket width.
            if v >= SUB_BUCKETS {
                assert!(ub - v < (v / (SUB_BUCKETS - 1)).max(1) + 1);
            } else {
                assert_eq!(ub, v);
            }
        }
    }

    #[test]
    fn indices_are_monotone() {
        let mut values: Vec<u64> = (0..100_000u64).chain((0..63).map(|s| 1u64 << s)).collect();
        values.sort_unstable();
        let mut prev = 0usize;
        for v in values {
            let idx = bucket_index(v);
            assert!(idx >= prev, "bucket index regressed at {v}");
            prev = idx;
        }
    }

    #[test]
    fn quantiles_have_bounded_relative_error() {
        let mut h = LatencyHistogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100_000);
        for (q, exact) in [(0.5, 50_000f64), (0.95, 95_000.0), (0.99, 99_000.0)] {
            let got = h.quantile(q).unwrap() as f64;
            let err = (got - exact).abs() / exact;
            assert!(
                err < 0.04,
                "quantile {q}: got {got}, exact {exact}, err {err}"
            );
        }
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100_000));
        assert!((h.mean() - 50_000.5).abs() < 1.0);
    }

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let mut whole = LatencyHistogram::new();
        let mut left = LatencyHistogram::new();
        let mut right = LatencyHistogram::new();
        for v in 0..10_000u64 {
            whole.record(v * 37 % 100_000);
            if v % 2 == 0 {
                left.record(v * 37 % 100_000);
            } else {
                right.record(v * 37 % 100_000);
            }
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert_eq!(left.p50(), whole.p50());
        assert_eq!(left.p99(), whole.p99());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn single_sample_quantiles_clamp_to_value() {
        let mut h = LatencyHistogram::new();
        h.record(123_456);
        assert_eq!(h.p50(), Some(123_456));
        assert_eq!(h.p99(), Some(123_456));
    }
}
