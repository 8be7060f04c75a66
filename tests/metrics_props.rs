//! Property-based tests (proptest) over the metrics layer's algebra:
//! histogram merge/delta semantics, the log-linear quantile error bound, and
//! the windowed sampler's partition invariant.

use agile_repro::metrics::{HistoSnapshot, Labels, MetricsRegistry, WindowedSampler};
use agile_repro::trace::stats::{bucket_index, LatencyHistogram};
use proptest::prelude::*;
use std::sync::Arc;

/// Record `values` into a fresh histogram and snapshot it.
fn histo_of(values: &[u64]) -> HistoSnapshot {
    let mut h = LatencyHistogram::new();
    for &v in values {
        h.record(v);
    }
    HistoSnapshot::of(&h)
}

// Realistic magnitudes (simulated cycle counts): a snapshot's cumulative
// `sum` is a u64, so hundreds of near-`u64::MAX` samples would wrap it.
fn samples() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0..(1u64 << 50), 0..100)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merge is commutative, associative, has the empty snapshot as
    /// identity, and equals the histogram of the concatenated samples.
    #[test]
    fn histo_merge_is_a_commutative_monoid(a in samples(), b in samples(), c in samples()) {
        let (ha, hb, hc) = (histo_of(&a), histo_of(&b), histo_of(&c));
        prop_assert_eq!(ha.merge(&hb), hb.merge(&ha));
        prop_assert_eq!(ha.merge(&hb).merge(&hc), ha.merge(&hb.merge(&hc)));
        prop_assert_eq!(ha.merge(&HistoSnapshot::default()), ha.clone());
        let mut ab = a.clone();
        ab.extend_from_slice(&b);
        prop_assert_eq!(ha.merge(&hb), histo_of(&ab));
    }

    /// Quantiles never under-report and over-report by at most one
    /// sub-bucket: ≤ 1/32 relative (32 linear sub-buckets per octave), with
    /// +1 slack for the unit buckets below 32.
    #[test]
    fn histo_quantile_error_is_bounded(
        values in proptest::collection::vec(0..(1u64 << 50), 1..200),
        q_pct in 0u64..100,
    ) {
        let q = q_pct as f64 / 100.0;
        let h = histo_of(&values);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
        let truth = sorted[rank - 1];
        let reported = h.quantile(q).expect("non-empty");
        prop_assert!(reported >= truth, "quantile must not under-report");
        prop_assert!(
            reported as u128 <= truth as u128 + truth as u128 / 32 + 1,
            "reported {} exceeds the 1/32 bound over {}",
            reported,
            truth
        );
    }

    /// The delta of two cumulative snapshots is the histogram of the
    /// interval's samples: buckets, count and sum recover exactly; the
    /// extremes recover at bucket resolution.
    #[test]
    fn histo_delta_recovers_the_interval(a in samples(), b in samples()) {
        let s1 = histo_of(&a);
        let mut ab = a.clone();
        ab.extend_from_slice(&b);
        let d = histo_of(&ab).delta_since(&s1);
        let hb = histo_of(&b);
        prop_assert_eq!(&d.buckets, &hb.buckets);
        prop_assert_eq!(d.count, hb.count);
        prop_assert_eq!(d.sum, hb.sum);
        if !b.is_empty() {
            prop_assert!(d.min <= hb.min && d.max >= hb.max);
            prop_assert_eq!(bucket_index(d.min), bucket_index(hb.min));
            prop_assert_eq!(bucket_index(d.max), bucket_index(hb.max));
        }
    }

    /// The sampler partitions time: windows tile `[0, finish)` contiguously
    /// and their counter deltas sum back to the cumulative total, whatever
    /// the observation cadence.
    #[test]
    fn sampler_windows_partition_the_run(
        steps in proptest::collection::vec((0u64..500, 0u64..10), 1..50),
        window in 1u64..400,
    ) {
        let reg = MetricsRegistry::new();
        let c = reg.counter("agile_prop_total", Labels::NONE);
        let sampler = WindowedSampler::new(Arc::clone(&reg), window);
        let mut now = 0u64;
        let mut total = 0u64;
        for (dt, inc) in steps {
            now += dt;
            c.add(inc);
            total += inc;
            sampler.observe(now);
        }
        sampler.finish(now);
        let windows = sampler.windows();
        let mut expected_start = 0u64;
        for w in &windows {
            prop_assert_eq!(w.start, expected_start, "windows tile contiguously");
            prop_assert!(w.end > w.start);
            expected_start = w.end;
        }
        if now > 0 {
            let last = windows.last().expect("a run with elapsed time has windows");
            prop_assert_eq!(last.end, now, "the series covers the whole run");
            let summed: u64 = windows
                .iter()
                .map(|w| w.deltas.counter("agile_prop_total", Labels::NONE))
                .sum();
            prop_assert_eq!(summed, total, "window deltas sum to the cumulative total");
        } else {
            prop_assert!(windows.is_empty(), "a zero-length run has no windows");
        }
    }
}
