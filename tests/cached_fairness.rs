//! Cached-path fairness gates for the tenant-aware cache stack.
//!
//! The raw path got its QoS gate in PR 3 (SQ admission); this suite keeps
//! the *cached* path honest:
//!
//! 1. **TenantShare protects the victim.** On the cached noisy-neighbour
//!    mix (uniform flood vs Zipf hot-set reader) the victim tenant's
//!    hit-rate and p99 must improve under `TenantShare` relative to the
//!    clock policy, at equal or better aggregate IOPS — the acceptance
//!    gate of the tenant-aware cache work, run in release mode by CI.
//! 2. **Occupancy converges to the weighted shares.** Driving the cache
//!    directly with two always-missing tenants, the live occupancy ratio
//!    must settle near the configured weight ratio (property-tested over
//!    seeds).
//! 3. **Defaults are inert.** Clock + no shares + prefetch depth 1 must be
//!    indistinguishable from the pre-threading stack: explicit defaults
//!    replay byte-identically to the implicit ones (the golden-trace suite
//!    additionally pins the raw path against the PR 4 recorded summaries).

use agile_repro::cache::{CacheConfig, CacheLookup, SoftwareCache, TenantShare};
use agile_repro::nvme::PageToken;
use agile_repro::sim::SimRng;
use agile_repro::trace::TraceSpec;
use agile_repro::workloads::experiments::trace_replay::{
    run_trace_replay, ReplayConfig, ReplaySystem,
};
use proptest::prelude::*;

/// The contended cached rig: tenant-partitioned warps (so per-tenant cache
/// attribution is exact) over the small-test 1024-line cache, with an LBA
/// space 8× the cache so the flood genuinely thrashes, and enough SQ slots
/// (8 QPs × 128) that fills issue on first try — SQ churn would otherwise
/// drown the cache-behaviour signal this gate is about.
fn cached_noisy_config() -> ReplayConfig {
    ReplayConfig {
        queue_pairs: 8,
        queue_depth: 128,
        ..ReplayConfig::quick().cached().tenant_partitioned()
    }
}

fn cached_noisy_trace() -> agile_repro::trace::Trace {
    TraceSpec::cached_noisy_neighbor("cached-noisy", 0xCA5E, 1, 1 << 13, 6_144).generate()
}

#[test]
fn tenant_share_protects_the_victim_on_the_cached_path() {
    let trace = cached_noisy_trace();
    let clock = run_trace_replay(&trace, ReplaySystem::Agile, &cached_noisy_config());
    let shared = run_trace_replay(
        &trace,
        ReplaySystem::Agile,
        &cached_noisy_config().tenant_share(vec![1, 1]),
    );
    assert!(!clock.deadlocked && !shared.deadlocked);
    assert_eq!(clock.ops, 6_144, "clock run must complete the trace");
    assert_eq!(
        shared.ops, 6_144,
        "tenant-share run must complete the trace"
    );

    // Victim (tenant 1) hit-rate: the hot set must actually stay resident.
    let hit_rate = |report: &agile_repro::workloads::experiments::trace_replay::ReplayReport| {
        report
            .tenant_cache
            .iter()
            .find(|t| t.tenant == 1)
            .expect("victim cache stats tracked")
            .hit_rate()
    };
    let clock_hr = hit_rate(&clock);
    let shared_hr = hit_rate(&shared);
    assert!(
        shared_hr > clock_hr + 0.03,
        "TenantShare must lift the victim's hit-rate by ≥ 3pp over clock \
         (clock {clock_hr:.3} vs tenant-share {shared_hr:.3})"
    );

    // Victim tail latency: resident hot pages mean fewer flash round-trips.
    let victim_p99 = |report: &agile_repro::workloads::experiments::trace_replay::ReplayReport| {
        report
            .tenants
            .iter()
            .find(|t| t.tenant == 1)
            .expect("victim latency tracked")
            .p99_us
    };
    assert!(
        victim_p99(&shared) < victim_p99(&clock),
        "victim p99 must improve under TenantShare \
         (clock {:.2}us vs tenant-share {:.2}us)",
        victim_p99(&clock),
        victim_p99(&shared)
    );
    let victim_p50 = |report: &agile_repro::workloads::experiments::trace_replay::ReplayReport| {
        report
            .tenants
            .iter()
            .find(|t| t.tenant == 1)
            .expect("victim latency tracked")
            .p50_us
    };
    assert!(
        victim_p50(&shared) <= victim_p50(&clock),
        "victim p50 must not regress under TenantShare \
         (clock {:.2}us vs tenant-share {:.2}us)",
        victim_p50(&clock),
        victim_p50(&shared)
    );

    // Fairness must not be bought with aggregate throughput: the flood has
    // no reuse to lose, the victim's extra hits are pure savings.
    assert!(
        shared.iops >= clock.iops,
        "aggregate IOPS must stay equal or better under TenantShare \
         (clock {:.0} vs tenant-share {:.0})",
        clock.iops,
        shared.iops
    );
    println!(
        "cached noisy-neighbour: victim hit-rate {:.3} -> {:.3}, victim p99 \
         {:.2}us -> {:.2}us, aggregate {:.0} -> {:.0} IOPS",
        clock_hr,
        shared_hr,
        victim_p99(&clock),
        victim_p99(&shared),
        clock.iops,
        shared.iops
    );
}

#[test]
fn deeper_prefetch_needs_share_bounding_to_stay_fair() {
    // The AGILE-vs-BaM cached-replay gap traces to batch-ahead prefetch
    // doubling cache pressure. Deeper prefetch must still complete the
    // trace under TenantShare without costing the victim its hit-rate edge.
    let trace = cached_noisy_trace();
    let shallow = run_trace_replay(
        &trace,
        ReplaySystem::Agile,
        &cached_noisy_config().tenant_share(vec![1, 1]),
    );
    let deep = run_trace_replay(
        &trace,
        ReplaySystem::Agile,
        &cached_noisy_config()
            .tenant_share(vec![1, 1])
            .with_prefetch_depth(4),
    );
    assert!(!deep.deadlocked);
    assert_eq!(deep.ops, 6_144);
    let victim_hr = |report: &agile_repro::workloads::experiments::trace_replay::ReplayReport| {
        report
            .tenant_cache
            .iter()
            .find(|t| t.tenant == 1)
            .expect("victim tracked")
            .hit_rate()
    };
    assert!(
        victim_hr(&deep) > victim_hr(&shallow) - 0.10,
        "share bounding must hold the victim's hit-rate under 4x prefetch \
         pressure (depth-1 {:.3} vs depth-4 {:.3})",
        victim_hr(&shallow),
        victim_hr(&deep)
    );
}

#[test]
fn explicit_defaults_replay_byte_identically() {
    // Tenant threading must be invisible at defaults: spelling out
    // clock/no-shares/depth-1 produces the byte-identical summary (the
    // golden-trace suite separately pins the raw path against the PR 4
    // recorded summaries, which this PR must not regenerate).
    let trace = TraceSpec::multi_tenant("cached-default", 44, 2, 1 << 13, 768).generate();
    let implicit = ReplayConfig::quick().cached();
    let explicit = ReplayConfig::quick()
        .cached()
        .with_cache_policy(agile_repro::agile::config::CachePolicyKind::Clock)
        .with_prefetch_depth(1);
    for system in [ReplaySystem::Agile, ReplaySystem::Bam] {
        let a = run_trace_replay(&trace, system, &implicit);
        let b = run_trace_replay(&trace, system, &explicit);
        assert_eq!(a.summary(), b.summary(), "{system:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Two always-missing tenants with 3:1 occupancy weights: the live
    /// occupancy ratio must converge near 3:1 regardless of the address
    /// stream, because every eviction preferentially reclaims whichever
    /// tenant is over its share.
    #[test]
    fn tenant_share_occupancy_converges_to_the_weight_ratio(seed in 0u64..1_000) {
        // 512 lines, 8-way => shares of 384 and 128 under 3:1 weights.
        let cache = SoftwareCache::new(
            CacheConfig {
                capacity_bytes: 512 * 4096,
                associativity: 8,
            },
            Box::new(TenantShare::from_weights(&[3, 1])),
        );
        let mut rng = SimRng::new(seed);
        let touch = |lba: u64, tenant: u32| {
            match cache.lookup_or_reserve_as(0, lba, tenant) {
                CacheLookup::Hit { line, .. } => cache.unpin(line),
                CacheLookup::Miss { line, dma, .. } => {
                    dma.store(PageToken(lba));
                    cache.complete_fill(line);
                    cache.unpin(line);
                }
                CacheLookup::Busy { .. } | CacheLookup::NoLineAvailable => {}
            }
        };
        // Disjoint uniform spaces far larger than the cache: both tenants
        // miss essentially always, so only eviction policy shapes occupancy.
        for _ in 0..8_192 {
            touch(rng.gen_range(1 << 16), 0);
            touch((1 << 20) + rng.gen_range(1 << 16), 1);
        }
        let stats = cache.tenant_stats();
        let occ0 = stats.iter().find(|s| s.tenant == 0).unwrap().occupancy as f64;
        let occ1 = stats.iter().find(|s| s.tenant == 1).unwrap().occupancy as f64;
        prop_assert!(occ1 > 0.0, "victim share must never be starved to zero");
        let ratio = occ0 / occ1;
        prop_assert!(
            (2.0..=4.5).contains(&ratio),
            "3:1 weights must yield ≈3:1 occupancy, got {:.2} ({} vs {})",
            ratio, occ0, occ1
        );
    }
}
