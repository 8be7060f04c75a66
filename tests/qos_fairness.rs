//! Fairness and regression suite for the QoS submission scheduler.
//!
//! Three layers of evidence keep the scheduler honest:
//!
//! 1. **Policy-level properties** — the deficit-round-robin core, driven
//!    directly with seeded admission-attempt streams: under saturation,
//!    admitted shares converge to the weight ratio.
//! 2. **Replay-level properties** — full-stack replays: with equal weights,
//!    `WeightedFair` is throughput-equivalent to `Fifo` within tolerance, and
//!    every op still completes exactly once.
//! 3. **The noisy-neighbour acceptance run** — a 9:1 two-tenant mix over
//!    saturated SQs, where the victim tenant's p99 must improve under
//!    `WeightedFair` without collapsing aggregate IOPS.

use agile_repro::agile::qos::{QosDecision, QosPolicy, WeightedFair};
use agile_repro::trace::TraceSpec;
use agile_repro::workloads::experiments::trace_replay::{
    run_trace_replay, ReplayConfig, ReplaySystem,
};
use proptest::prelude::*;

/// The saturated noisy-neighbour rig: few queue resources, many warps, two
/// tenants partitioned onto their own warps (per-tenant virtual queues).
fn contended_config() -> ReplayConfig {
    ReplayConfig {
        total_warps: 32,
        window: 32,
        queue_pairs: 2,
        queue_depth: 32,
        ..ReplayConfig::quick()
    }
    .tenant_partitioned()
}

#[test]
fn noisy_neighbor_victim_p99_improves_under_wfq_without_iops_collapse() {
    let trace = TraceSpec::noisy_neighbor("nn-accept", 0x905, 2, 1 << 12, 4_096).generate();
    let fifo = run_trace_replay(&trace, ReplaySystem::Agile, &contended_config());
    let wfq = run_trace_replay(
        &trace,
        ReplaySystem::Agile,
        &contended_config().weighted_fair(vec![1, 1]),
    );
    assert!(!fifo.deadlocked && !wfq.deadlocked);
    assert_eq!(fifo.ops, 4_096, "FIFO must complete the trace");
    assert_eq!(wfq.ops, 4_096, "WFQ must complete the trace");
    let victim_fifo = &fifo.tenants[1];
    let victim_wfq = &wfq.tenants[1];
    assert!(
        victim_wfq.p99_us < victim_fifo.p99_us,
        "victim p99 must improve under WFQ (fifo {:.2}us vs wfq {:.2}us)",
        victim_fifo.p99_us,
        victim_wfq.p99_us
    );
    assert!(
        wfq.iops >= fifo.iops * 0.9,
        "aggregate IOPS must stay within 10% of FIFO (fifo {:.0} vs wfq {:.0})",
        fifo.iops,
        wfq.iops
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Policy level: two always-backlogged tenants over a FIFO "device" that
    /// completes the oldest in-flight op each tick, with a seeded interleave
    /// of admission attempts — completed-op shares converge to the weight
    /// ratio.
    #[test]
    fn drr_admission_shares_converge_to_weight_ratio(
        w0 in 1u64..=8,
        w1 in 1u64..=8,
        seed in any::<u64>(),
    ) {
        let policy = WeightedFair::from_weights(&[w0, w1]);
        policy.bind(64);
        let mut in_service: std::collections::VecDeque<u32> = Default::default();
        let mut completed = [0u64; 2];
        let mut lcg = seed | 1;
        for i in 0..40_000u64 {
            // Seeded pseudo-random attempt order; both tenants stay
            // backlogged (each attempts every tick, in varying order).
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let first = (lcg >> 63) as u32;
            for t in [first, 1 - first] {
                if policy.admit(t, agile_repro::sim::Cycles(i)) == QosDecision::Admit {
                    in_service.push_back(t);
                }
            }
            if let Some(t) = in_service.pop_front() {
                completed[t as usize] += 1;
                policy.on_complete(t);
            }
        }
        let share = completed[0] as f64 / (completed[0] + completed[1]) as f64;
        let expected = w0 as f64 / (w0 + w1) as f64;
        prop_assert!(
            (share - expected).abs() < 0.06,
            "weights {w0}:{w1} expected share {expected:.3}, got {share:.3} ({completed:?})"
        );
    }

    /// Policy level with shard-affine service scale-out: completions return
    /// through four independent service streams (one per shard-affine
    /// partition), interleaved in seeded order — the DRR shares must still
    /// converge to the weight ratio and no credit may leak, exercising the
    /// sharded per-tenant atomics of `WeightedFair` the way N concurrent
    /// `on_complete` callers do.
    #[test]
    fn drr_shares_converge_with_four_completion_streams(
        w0 in 1u64..=8,
        w1 in 1u64..=8,
        seed in any::<u64>(),
    ) {
        let policy = WeightedFair::from_weights(&[w0, w1]);
        policy.bind(64);
        // One FIFO completion queue per service shard; admitted ops land on
        // a shard by the seeded LCG (the CQ the submission happened to use).
        let mut shards: [std::collections::VecDeque<u32>; 4] = Default::default();
        let mut completed = [0u64; 2];
        let mut lcg = seed | 1;
        let mut step = || {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            lcg >> 33
        };
        for i in 0..40_000u64 {
            let first = (step() & 1) as u32;
            for t in [first, 1 - first] {
                if policy.admit(t, agile_repro::sim::Cycles(i)) == QosDecision::Admit {
                    shards[(step() % 4) as usize].push_back(t);
                }
            }
            // One completion per tick (the device is the bottleneck, as in
            // the single-stream property), but delivered by whichever
            // service shard the seeded sweep reaches first — `on_complete`
            // arrives through four rotating streams, not one.
            let start = step() as usize;
            for k in 0..4 {
                if let Some(t) = shards[(start + k) % 4].pop_front() {
                    completed[t as usize] += 1;
                    policy.on_complete(t);
                    break;
                }
            }
        }
        let in_flight: u64 = policy.tenant_stats().iter().map(|s| s.in_flight).sum();
        let queued: u64 = shards.iter().map(|q| q.len() as u64).sum();
        prop_assert_eq!(in_flight, queued, "credits must balance completions exactly");
        let share = completed[0] as f64 / (completed[0] + completed[1]) as f64;
        let expected = w0 as f64 / (w0 + w1) as f64;
        prop_assert!(
            (share - expected).abs() < 0.06,
            "weights {w0}:{w1} expected share {expected:.3}, got {share:.3} ({completed:?})"
        );
    }

    /// Replay level: with equal weights, WFQ completes the same ops and is
    /// throughput-equivalent to FIFO within tolerance.
    #[test]
    fn equal_weight_wfq_is_throughput_equivalent_to_fifo(seed in 0u64..1_000) {
        let spec = TraceSpec::noisy_neighbor("nn-eq", seed, 1, 1 << 12, 768);
        let trace = spec.generate();
        let fifo = run_trace_replay(&trace, ReplaySystem::Agile, &contended_config());
        let wfq = run_trace_replay(
            &trace,
            ReplaySystem::Agile,
            &contended_config().weighted_fair(vec![1, 1]),
        );
        prop_assert!(!fifo.deadlocked && !wfq.deadlocked);
        prop_assert_eq!(fifo.ops, 768u64, "every op exactly once under FIFO");
        prop_assert_eq!(wfq.ops, 768u64, "every op exactly once under WFQ");
        let ratio = wfq.iops / fifo.iops;
        prop_assert!(
            ratio > 0.85,
            "equal-weight WFQ must not collapse throughput (ratio {ratio:.3})"
        );
    }
}
