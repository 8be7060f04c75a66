//! Point-in-time snapshots with delta and merge semantics.
//!
//! Snapshots are plain values: counters and histogram buckets subtract
//! (`delta_since`) and add (`merge`) bucket-wise, which is what gives the
//! [`crate::WindowedSampler`] its per-window percentiles — the delta of two
//! cumulative histograms *is* the histogram of the window.
//!
//! A delta is sparse: it keeps only the counters and histograms that moved
//! (and every gauge), so an absent sample reads as 0 / `None` — which is
//! what [`MetricsSnapshot::counter`], [`MetricsSnapshot::histo`] and
//! [`MetricsSnapshot::family`] sums return for it anyway.

use agile_trace::stats::{bucket_upper_bound, LatencyHistogram};

/// Sparse snapshot of a `LatencyHistogram` ([`HistoSnapshot::of`]):
/// `(bucket index, count)` pairs in index order, plus the aggregates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoSnapshot {
    /// Non-empty buckets as `(index, count)`, ascending by index.
    pub buckets: Vec<(u32, u64)>,
    /// Total recorded samples.
    pub count: u64,
    /// Sum of recorded samples.
    pub sum: u64,
    /// Smallest recorded sample (`u64::MAX` when empty). Exact for live
    /// snapshots; bucket-resolution for deltas.
    pub min: u64,
    /// Largest recorded sample (0 when empty).
    pub max: u64,
}

impl Default for HistoSnapshot {
    fn default() -> Self {
        HistoSnapshot {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl HistoSnapshot {
    /// The snapshot of `h`: the same bucketing, with the sum wrapped to `u64`
    /// (latency sums over a replay stay far below 2^64).
    pub fn of(h: &LatencyHistogram) -> Self {
        HistoSnapshot {
            buckets: h.buckets().map(|(i, n)| (i as u32, n)).collect(),
            count: h.count(),
            sum: h.sum() as u64,
            min: h.min().unwrap_or(u64::MAX),
            max: h.max().unwrap_or(0),
        }
    }

    /// Smallest recorded sample (`None` when empty).
    pub fn min_value(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample (`None` when empty).
    pub fn max_value(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q ∈ [0, 1]` — the bucket upper bound, clamped
    /// into `[min, max]`, same contract as `LatencyHistogram::quantile`
    /// (≤ ~3 % high). `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(i, c) in &self.buckets {
            seen += c;
            if seen >= target {
                return Some(bucket_upper_bound(i as usize).clamp(self.min, self.max));
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

    /// Bucket-wise sum of two snapshots. Associative and commutative with
    /// the empty snapshot as identity.
    pub fn merge(&self, other: &HistoSnapshot) -> HistoSnapshot {
        let mut buckets: Vec<(u32, u64)> = Vec::with_capacity(self.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, ca)), Some(&&(ib, cb))) => {
                    if ia < ib {
                        buckets.push((ia, ca));
                        a.next();
                    } else if ib < ia {
                        buckets.push((ib, cb));
                        b.next();
                    } else {
                        buckets.push((ia, ca + cb));
                        a.next();
                        b.next();
                    }
                }
                (Some(&&e), None) => {
                    buckets.push(e);
                    a.next();
                }
                (None, Some(&&e)) => {
                    buckets.push(e);
                    b.next();
                }
                (None, None) => break,
            }
        }
        HistoSnapshot {
            buckets,
            count: self.count.saturating_add(other.count),
            sum: self.sum.saturating_add(other.sum),
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// The histogram of the interval between `earlier` and `self` (both
    /// cumulative snapshots of the same histogram): buckets, count and sum
    /// subtract; `min`/`max` are reconstructed from the surviving buckets at
    /// bucket resolution (the exact extremes of an interval are not
    /// recoverable from cumulative cells).
    pub fn delta_since(&self, earlier: &HistoSnapshot) -> HistoSnapshot {
        let mut buckets: Vec<(u32, u64)> = Vec::new();
        let earlier_at = |idx: u32| -> u64 {
            earlier
                .buckets
                .binary_search_by_key(&idx, |&(i, _)| i)
                .map(|p| earlier.buckets[p].1)
                .unwrap_or(0)
        };
        for &(i, c) in &self.buckets {
            let d = c.saturating_sub(earlier_at(i));
            if d > 0 {
                buckets.push((i, d));
            }
        }
        buckets.shrink_to_fit();
        let min = buckets
            .first()
            .map(|&(i, _)| lower_bound(i as usize))
            .unwrap_or(u64::MAX);
        let max = buckets
            .last()
            .map(|&(i, _)| bucket_upper_bound(i as usize))
            .unwrap_or(0);
        HistoSnapshot {
            buckets,
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            min,
            max,
        }
    }
}

/// Inclusive lower bound of bucket `index` (one past the previous bucket's
/// upper bound; bucket 0 starts at 0).
fn lower_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        bucket_upper_bound(index - 1).saturating_add(1)
    }
}

/// The value of one metric at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonic counter value.
    Counter(u64),
    /// Point-in-time gauge value.
    Gauge(u64),
    /// Histogram snapshot, boxed so a counter or gauge sample stays small
    /// (most samples are counters).
    Histo(Box<HistoSnapshot>),
}

impl MetricValue {
    /// Scalar view: the value of a counter or gauge, a histogram's count.
    pub fn as_u64(&self) -> u64 {
        match self {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => *v,
            MetricValue::Histo(h) => h.count,
        }
    }
}

/// One named, labeled metric value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Metric name (`agile_<layer>_<what>{_total}`).
    pub name: &'static str,
    /// Static label set.
    pub labels: crate::Labels,
    /// The value.
    pub value: MetricValue,
}

/// A point-in-time copy of a whole registry, sorted by `(name, labels)`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// All samples, in deterministic order.
    pub samples: Vec<Sample>,
}

impl MetricsSnapshot {
    /// The sample `name{labels}`, if present.
    pub fn get(&self, name: &str, labels: crate::Labels) -> Option<&MetricValue> {
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels == labels)
            .map(|s| &s.value)
    }

    /// Counter value of `name{labels}` (0 when absent).
    pub fn counter(&self, name: &str, labels: crate::Labels) -> u64 {
        match self.get(name, labels) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Gauge value of `name{labels}` (0 when absent).
    pub fn gauge(&self, name: &str, labels: crate::Labels) -> u64 {
        match self.get(name, labels) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// Histogram snapshot of `name{labels}`, if present.
    pub fn histo(&self, name: &str, labels: crate::Labels) -> Option<&HistoSnapshot> {
        match self.get(name, labels) {
            Some(MetricValue::Histo(h)) => Some(h),
            _ => None,
        }
    }

    /// All samples whose name is `name`, in label order (e.g. every tenant
    /// of a family).
    pub fn family<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Sample> + 'a {
        self.samples.iter().filter(move |s| s.name == name)
    }

    /// The interval between `earlier` and `self`: counters and histograms
    /// subtract, gauges keep their current (end-of-window) value. Samples
    /// absent from `earlier` are treated as zero there.
    ///
    /// The result is sparse: a counter whose delta is 0 and a histogram that
    /// recorded nothing in the interval are left out (an absent sample reads
    /// as 0 / `None`); gauges always stay.
    ///
    /// Both snapshots carry their samples in `(name, labels)` order (the
    /// registry invariant), so matching is a single merge walk — this runs
    /// on every sampler window crossing and a quadratic scan shows up in the
    /// replay's overhead budget.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut prev = earlier.samples.iter().peekable();
        let mut samples = Vec::with_capacity(self.samples.len());
        for s in &self.samples {
            let key = (s.name, s.labels);
            while prev.peek().is_some_and(|p| (p.name, p.labels) < key) {
                prev.next();
            }
            let matched = prev
                .peek()
                .filter(|p| (p.name, p.labels) == key)
                .map(|p| &p.value);
            // Counters and histograms new this window delta against zero;
            // those that did not move are left out.
            let value = match (&s.value, matched) {
                (MetricValue::Counter(v), Some(MetricValue::Counter(e))) if v > e => {
                    MetricValue::Counter(v - e)
                }
                (MetricValue::Counter(v), None) if *v > 0 => MetricValue::Counter(*v),
                (MetricValue::Counter(_), _) => continue,
                (MetricValue::Histo(h), Some(MetricValue::Histo(e))) if h.count > e.count => {
                    MetricValue::Histo(Box::new(h.delta_since(e)))
                }
                (MetricValue::Histo(h), None) if h.count > 0 => s.value.clone(),
                (MetricValue::Histo(_), _) => continue,
                // Gauges are point-in-time.
                (MetricValue::Gauge(_), _) => s.value.clone(),
            };
            samples.push(Sample {
                name: s.name,
                labels: s.labels,
                value,
            });
        }
        // Windows are kept for the whole run: hold only what moved.
        samples.shrink_to_fit();
        MetricsSnapshot { samples }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Labels;

    fn histo_of(values: &[u64]) -> HistoSnapshot {
        let mut h = LatencyHistogram::new();
        for &v in values {
            h.record(v);
        }
        HistoSnapshot::of(&h)
    }

    fn sample(name: &'static str, value: MetricValue) -> Sample {
        Sample {
            name,
            labels: Labels::NONE,
            value,
        }
    }

    #[test]
    fn merge_matches_combined_recording() {
        let a = histo_of(&[1, 5, 900, 70_000]);
        let b = histo_of(&[2, 5, 1_000_000]);
        let both = histo_of(&[1, 5, 900, 70_000, 2, 5, 1_000_000]);
        assert_eq!(a.merge(&b), both);
        assert_eq!(b.merge(&a), both);
        assert_eq!(a.merge(&HistoSnapshot::default()), a);
    }

    #[test]
    fn delta_recovers_the_interval() {
        let mut h = LatencyHistogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        let early = HistoSnapshot::of(&h);
        for v in [100u64, 200] {
            h.record(v);
        }
        let late = HistoSnapshot::of(&h);
        let delta = late.delta_since(&early);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.sum, 300);
        assert_eq!(delta.buckets, histo_of(&[100, 200]).buckets);
        // min/max are bucket-resolution in deltas.
        assert!(delta.min <= 100 && delta.max >= 200);
    }

    #[test]
    fn snapshot_delta_subtracts_counters_keeps_gauges() {
        let snap = |c, g| MetricsSnapshot {
            samples: vec![
                sample("agile_test_gauge", MetricValue::Gauge(g)),
                sample("agile_test_total", MetricValue::Counter(c)),
            ],
        };
        let delta = snap(12, 11).delta_since(&snap(5, 3));
        assert_eq!(delta.counter("agile_test_total", Labels::NONE), 7);
        assert_eq!(delta.gauge("agile_test_gauge", Labels::NONE), 11);
    }

    #[test]
    fn delta_drops_what_did_not_move() {
        let idle = || MetricValue::Histo(Box::new(histo_of(&[9])));
        let early = MetricsSnapshot {
            samples: vec![
                sample("agile_test_gauge", MetricValue::Gauge(0)),
                sample("agile_test_idle_cycles", idle()),
                sample("agile_test_moved_total", MetricValue::Counter(0)),
                sample("agile_test_still_total", MetricValue::Counter(4)),
            ],
        };
        let late = MetricsSnapshot {
            samples: vec![
                sample("agile_test_gauge", MetricValue::Gauge(0)),
                sample("agile_test_idle_cycles", idle()),
                sample("agile_test_moved_total", MetricValue::Counter(1)),
                sample("agile_test_new_total", MetricValue::Counter(0)),
                sample("agile_test_still_total", MetricValue::Counter(4)),
            ],
        };
        let delta = late.delta_since(&early);
        let names: Vec<_> = delta.samples.iter().map(|s| s.name).collect();
        assert_eq!(names, ["agile_test_gauge", "agile_test_moved_total"]);
        assert_eq!(delta.counter("agile_test_still_total", Labels::NONE), 0);
        assert!(delta
            .histo("agile_test_idle_cycles", Labels::NONE)
            .is_none());
    }
}
