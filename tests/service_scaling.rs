//! Shard-affine service scale-out + event-driven engine scheduler gates.
//!
//! Three invariants keep the scale-out refactor honest:
//!
//! 1. **Default = pre-refactor, bit for bit.** `service_shards = 1` and the
//!    event-queue scheduler must reproduce the single-service, full-scan
//!    stack exactly — property-tested here by replaying random traces under
//!    the legacy `FullScan` scheduler (the pre-refactor engine, kept for
//!    exactly this purpose) and comparing summaries byte-for-byte; the
//!    golden-trace suite pins the same property against pre-refactor
//!    recorded outputs.
//! 2. **The ready-queue actually engages.** Same replay, strictly fewer
//!    engine rounds than the full scan (device-event-only rounds are
//!    skipped; work per round drops from O(resident warps) to O(due warps)).
//! 3. **Scale-out scales.** At 8 SSDs on the 4-shard topology, four
//!    shard-affine services must sustain at least the single service's
//!    aggregate IOPS (and the bench section shows the improvement curve).

use agile_repro::gpu::EngineSched;
use agile_repro::trace::TraceSpec;
use agile_repro::workloads::experiments::trace_replay::{
    run_trace_replay, ReplayConfig, ReplayReport, ReplaySystem,
};
use proptest::prelude::*;

/// The 8-SSD scaling rig: sharded topology (4 lock shards), striped ops,
/// and a CQ space wide enough (8 × 32 queue pairs) that a single service's
/// two warps spend most rounds sweeping idle CQs — slot recycling is then
/// gated on the service's visit period, which is exactly the ceiling the
/// shard-affine scale-out removes. The small per-warp window keeps the
/// in-flight pool lean so the recycle delay shows up in aggregate IOPS
/// instead of hiding behind queue depth.
fn scaling_config() -> ReplayConfig {
    ReplayConfig {
        total_warps: 32,
        window: 8,
        queue_pairs: 32,
        queue_depth: 32,
        ..ReplayConfig::quick()
    }
    .sharded(4)
}

#[test]
fn service_shards_4_beats_single_service_iops_at_8_ssds() {
    let trace = TraceSpec::uniform("svc-scale", 0xA11E, 8, 1 << 14, 8_192).generate();
    let one = run_trace_replay(&trace, ReplaySystem::Agile, &scaling_config());
    let four = run_trace_replay(
        &trace,
        ReplaySystem::Agile,
        &scaling_config().service_sharded(4),
    );
    assert!(!one.deadlocked && !four.deadlocked);
    assert_eq!(one.ops, 8_192, "single service must complete the trace");
    assert_eq!(four.ops, 8_192, "sharded services must complete the trace");
    assert!(
        four.iops > one.iops * 1.1,
        "4 shard-affine services must beat the single service's throughput \
         (1 shard {:.0} vs 4 shards {:.0} IOPS; the single service's CQ \
         visit period is the recycle ceiling here)",
        one.iops,
        four.iops
    );
    // Every partition did real work: the shard-affine split is live, not
    // one kernel doing everything while three idle.
    assert_eq!(four.service_stats.len(), 4);
    for (shard, svc) in four.service_stats.iter().enumerate() {
        assert!(
            svc.completions > 0,
            "service shard {shard} processed no completions"
        );
    }
    let total: u64 = four.service_stats.iter().map(|s| s.completions).sum();
    assert_eq!(
        total, 8_192,
        "partition completions must cover the whole trace exactly once"
    );
    println!(
        "service scale-out: 1 shard {:.0} IOPS, 4 shards {:.0} IOPS ({:+.1}%)",
        one.iops,
        four.iops,
        (four.iops / one.iops - 1.0) * 100.0
    );
}

#[test]
fn wfq_share_convergence_holds_with_service_shards_4() {
    // The QoS completion hook now fires from four services concurrently;
    // the sharded WeightedFair interior state must still converge the 9:1
    // noisy-neighbour mix: the victim gets its share of the slots, so it
    // drains its ops sooner (an op's latency runs from its admission, so
    // its p99 is the shared device queue's either way), and nothing is lost.
    let trace = TraceSpec::noisy_neighbor("svc-qos", 0xBEE, 8, 1 << 12, 4_096).generate();
    let cfg = ReplayConfig {
        total_warps: 32,
        window: 32,
        queue_pairs: 2,
        queue_depth: 32,
        ..ReplayConfig::quick()
    }
    .sharded(4)
    .service_sharded(4)
    .tenant_partitioned()
    .with_metrics_window(50_000);
    let fifo = run_trace_replay(&trace, ReplaySystem::Agile, &cfg.clone());
    let wfq = run_trace_replay(&trace, ReplaySystem::Agile, &cfg.weighted_fair(vec![1, 1]));
    assert!(!fifo.deadlocked && !wfq.deadlocked);
    assert_eq!(fifo.ops, 4_096);
    assert_eq!(
        wfq.ops, 4_096,
        "no op may be lost under concurrent on_complete"
    );
    // The window of 50 000 cycles in which the victim's last op completed.
    let drained = |report: &ReplayReport| {
        let iops = report.metrics.as_ref().unwrap().tenant_windowed_iops(1);
        iops.iter().rposition(|&rate| rate > 0.0).unwrap()
    };
    let (victim_fifo, victim_wfq) = (drained(&fifo), drained(&wfq));
    assert!(
        victim_wfq * 3 < victim_fifo * 2,
        "the victim must still drain sooner under WFQ with 4 services \
         (last op in window {victim_fifo} under fifo vs {victim_wfq} under wfq)"
    );
    assert!(
        wfq.iops >= fifo.iops * 0.9,
        "aggregate IOPS must stay within 10% of FIFO ({:.0} vs {:.0})",
        fifo.iops,
        wfq.iops
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `service_shards = 1` + the event-queue scheduler is bit-identical to
    /// the pre-refactor stack (single service, full-scan engine) on random
    /// multi-tenant traces, for both systems.
    #[test]
    fn default_stack_is_bit_identical_to_pre_refactor(seed in 0u64..1_000) {
        let trace = TraceSpec::multi_tenant("svc-eq", seed, 2, 1 << 13, 512).generate();
        let cfg = ReplayConfig::quick();
        let legacy = ReplayConfig::quick().with_engine_sched(EngineSched::FullScan);
        for system in [ReplaySystem::Agile, ReplaySystem::Bam] {
            let new = run_trace_replay(&trace, system, &cfg);
            let old = run_trace_replay(&trace, system, &legacy);
            prop_assert_eq!(
                new.summary(),
                old.summary(),
                "event-queue + ServiceSet(1) must match the full-scan single service"
            );
            prop_assert!(
                new.engine_rounds <= old.engine_rounds,
                "the ready-queue may not visit more rounds than the scan"
            );
        }
    }
}
