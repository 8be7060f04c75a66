//! Property-based tests (proptest) over the control plane's loop algebra:
//! same-signal determinism of the decision log, fixed-point convergence of
//! the prefetch hysteresis loop, and AIMD decay back to the installed base.
//!
//! These drive the [`Controller`] directly with synthetic window streams (a
//! registry + sampler pair polled on a fake clock, latencies fed through the
//! replay's own collector) rather than full replays, so hundreds of cases
//! stay cheap; the end-to-end controller behaviour is covered by
//! `tests/slo_convergence.rs`.

use agile_repro::control::{ControlPolicy, Controller, Knob, KnobSet, SloSpec, TenantWeights};
use agile_repro::metrics::{Labels, MetricsRegistry, WindowedSampler};
use agile_repro::sim::WeightError;
use agile_repro::workloads::trace_replay::ReplayCollector;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

/// Minimal online weight table standing in for `WeightedFair` /
/// `TenantShare` (same contract: clamp is identity, zero refused).
struct TestWeights(Mutex<BTreeMap<u32, u64>>);

impl TestWeights {
    fn new(pairs: &[(u32, u64)]) -> Arc<Self> {
        Arc::new(TestWeights(Mutex::new(pairs.iter().copied().collect())))
    }
}

impl TenantWeights for TestWeights {
    fn set_weight(&self, tenant: u32, weight: u64) -> Result<u64, WeightError> {
        if weight == 0 {
            return Err(WeightError::Zero);
        }
        self.0.lock().unwrap().insert(tenant, weight);
        Ok(weight)
    }
    fn weight(&self, tenant: u32) -> Option<u64> {
        self.0.lock().unwrap().get(&tenant).copied()
    }
}

/// One synthetic metric window: cache counters plus the SLO tenant's
/// completed ops and their (uniform) latency in cycles — as a plain
/// `(hits, misses, full_sets, ops, lat_cycles)` tuple so the tuple strategy
/// generates it directly.
type Win = (u64, u64, u64, u64, u64);

fn windows() -> impl Strategy<Value = Vec<Win>> {
    proptest::collection::vec(
        (0..400u64, 0..400u64, 0..50u64, 0..64u64, 1..30_000u64),
        1..40,
    )
}

/// Build a controller over a fresh registry/sampler, feed it `stream` one
/// window per poll, and return (decision log, final prefetch depth, final
/// weight of tenant 1).
fn drive(policy: &ControlPolicy, depth0: u32, stream: &[Win]) -> (String, u32, u64) {
    let reg = MetricsRegistry::new();
    let sampler = WindowedSampler::new(Arc::clone(&reg), 1_000);
    let depth = Arc::new(AtomicU32::new(depth0));
    let wfq = TestWeights::new(&[(1, 1)]);
    let shares = TestWeights::new(&[(1, 1)]);
    let ctrl = Controller::new(
        policy.clone(),
        vec![SloSpec::p99(1, 10.0)], // 10us at 1 GHz = 10_000 cycles
        KnobSet {
            prefetch_depth: Some(Arc::clone(&depth)),
            wfq: Some(wfq.clone() as Arc<dyn TenantWeights>),
            cache_shares: Some(shares as Arc<dyn TenantWeights>),
            ..KnobSet::none()
        },
        Arc::clone(&sampler),
        1.0,
        None,
    );
    let hits = reg.counter("agile_cache_hits_total", Labels::NONE);
    let misses = reg.counter("agile_cache_misses_total", Labels::NONE);
    let full_sets = reg.counter("agile_cache_full_sets_total", Labels::NONE);
    let completions = ReplayCollector::new();
    completions.bind_metrics(&reg);
    for (i, &(h, m, n, o, l)) in stream.iter().enumerate() {
        hits.add(h);
        misses.add(m);
        full_sets.add(n);
        for _ in 0..o {
            completions.record(1, l, false);
        }
        ctrl.poll((i as u64 + 1) * 1_000);
    }
    let report = ctrl.report();
    (
        report.decision_log().join("\n"),
        depth.load(Ordering::Relaxed),
        wfq.weight(1).unwrap(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The controller is a pure function of its window stream: two
    /// controllers fed the identical signal produce the identical decision
    /// log and land every knob on the identical value.
    #[test]
    fn identical_window_streams_give_identical_decision_logs(
        stream in windows(),
        depth0 in 0u32..=8,
    ) {
        let policy = ControlPolicy::all();
        let a = drive(&policy, depth0, &stream);
        let b = drive(&policy, depth0, &stream);
        prop_assert_eq!(a, b);
    }

    /// Fixed-point convergence: on a *steady* signal the prefetch loop
    /// walks the depth to a fixed point (0, the clamp, or wherever the
    /// mid-band holds it) and then goes quiet — hysteresis never oscillates
    /// against an unchanging workload.
    #[test]
    fn prefetch_loop_converges_on_a_steady_signal(
        hits in 0..600u64,
        misses in 0..600u64,
        full_sets in 0..60u64,
        depth0 in 0u32..=8,
    ) {
        const WINDOWS: usize = 64;
        // Worst case walk: 0 -> 8 is 8 moves x (2 votes + 2 cooldown).
        const SETTLED_BY: u64 = 48;
        let policy = ControlPolicy::prefetch_only();
        let reg = MetricsRegistry::new();
        let sampler = WindowedSampler::new(Arc::clone(&reg), 1_000);
        let depth = Arc::new(AtomicU32::new(depth0));
        let ctrl = Controller::new(
            policy,
            Vec::new(),
            KnobSet {
                prefetch_depth: Some(Arc::clone(&depth)),
                ..KnobSet::none()
            },
            Arc::clone(&sampler),
            1.0,
            None,
        );
        let h = reg.counter("agile_cache_hits_total", Labels::NONE);
        let m = reg.counter("agile_cache_misses_total", Labels::NONE);
        let n = reg.counter("agile_cache_full_sets_total", Labels::NONE);
        for i in 0..WINDOWS as u64 {
            h.add(hits);
            m.add(misses);
            n.add(full_sets);
            ctrl.poll((i + 1) * 1_000);
        }
        let report = ctrl.report();
        for d in report.decisions_for(Knob::PrefetchDepth) {
            prop_assert!(
                d.window < SETTLED_BY,
                "decision in window {} is past the fixed point ({:?})",
                d.window,
                report.decision_log()
            );
        }
    }

    /// AIMD shape: a burst of SLO violations boosts the tenant's weight
    /// (additive, monotone while violating); once the signal turns healthy
    /// the weight decays multiplicatively back to exactly the installed
    /// base and the loop goes quiet — no oscillation around the target.
    #[test]
    fn aimd_decays_back_to_base_after_the_violation_clears(
        base in 1u64..=8,
        step in 1u64..=8,
        violating in 1usize..=10,
    ) {
        const HEALTHY: usize = 64;
        let mut policy = ControlPolicy::slo_only();
        policy.vote_windows = 1;
        policy.cooldown_windows = 0;
        policy.settle_windows = 1;
        policy.min_ops_per_window = 1;
        policy.weight_step = step;
        let reg = MetricsRegistry::new();
        let sampler = WindowedSampler::new(Arc::clone(&reg), 1_000);
        let wfq = TestWeights::new(&[(1, base)]);
        let ctrl = Controller::new(
            policy,
            vec![SloSpec::p99(1, 10.0)], // 10us at 1 GHz
            KnobSet {
                wfq: Some(wfq.clone() as Arc<dyn TenantWeights>),
                ..KnobSet::none()
            },
            Arc::clone(&sampler),
            1.0,
            None,
        );
        let completions = ReplayCollector::new();
        completions.bind_metrics(&reg);
        let mut prev = base;
        for i in 0..violating {
            for _ in 0..16 {
                completions.record(1, 50_000, false); // 50us >> 10us target
            }
            ctrl.poll((i as u64 + 1) * 1_000);
            let now = wfq.weight(1).unwrap();
            prop_assert!(now >= prev, "weight must not drop while violating");
            prop_assert!(now <= prev + step, "increase is additive, one step");
            prev = now;
        }
        prop_assert_eq!(prev, base + violating as u64 * step);
        for i in 0..HEALTHY {
            for _ in 0..16 {
                completions.record(1, 1_000, false); // 1us, well inside target
            }
            ctrl.poll((violating as u64 + i as u64 + 1) * 1_000);
            let now = wfq.weight(1).unwrap();
            prop_assert!(now <= prev, "weight must not grow once healthy");
            prev = now;
        }
        prop_assert_eq!(
            wfq.weight(1).unwrap(),
            base,
            "decay must land exactly on the installed base"
        );
        let report = ctrl.report();
        let last_move = report
            .decisions_for(Knob::WfqWeight)
            .iter()
            .map(|d| d.window)
            .max()
            .unwrap();
        prop_assert!(
            last_move + 8 < (violating + HEALTHY) as u64,
            "the loop must go quiet well before the stream ends \
             (last move in window {last_move})"
        );
    }
}
