//! Integration tests for the unified metrics & telemetry layer.
//!
//! These exercise the whole instrumented stack through the trace-replay
//! runner: the registry wired into submit path / cache / topology / service /
//! engine, the windowed sampler bridged into the engine and its sparse
//! windows, and — most importantly — the zero-perturbation contract:
//! replaying with metrics on produces the byte-identical summary of the
//! un-instrumented run.

use agile_repro::control::{ControlPolicy, SloSpec};
use agile_repro::metrics::{windows_to_json, Labels, MetricValue, MetricsRegistry};
use agile_repro::trace::TraceSpec;
use agile_repro::workloads::experiments::trace_replay::{
    run_trace_replay, MetricsReport, QosSpec, ReplayConfig, ReplaySystem,
};
use agile_repro::workloads::trace_replay::ReplayCollector;
use std::collections::BTreeSet;

fn noisy_cfg(qos: QosSpec) -> ReplayConfig {
    ReplayConfig {
        total_warps: 32,
        window: 32,
        queue_pairs: 2,
        queue_depth: 32,
        qos,
        ..ReplayConfig::quick()
    }
    .tenant_partitioned()
}

#[test]
fn metrics_do_not_perturb_the_replay() {
    let trace = TraceSpec::multi_tenant("metrics-mt", 7, 2, 1 << 13, 512).generate();
    let cfg = ReplayConfig::quick();
    for system in [ReplaySystem::Agile, ReplaySystem::Bam] {
        let bare = run_trace_replay(&trace, system, &cfg);
        let metered = run_trace_replay(&trace, system, &cfg.clone().with_metrics());
        assert_eq!(
            bare.summary(),
            metered.summary(),
            "{system:?}: instrumenting the stack must not change the replay"
        );
        assert!(bare.metrics.is_none(), "metrics off by default");
        let m = metered.metrics.expect("with_metrics captures a report");
        assert!(!m.windows.is_empty(), "sampler emitted windows");
    }
}

#[test]
fn instrumented_replay_covers_every_layer() {
    let trace = TraceSpec::multi_tenant("metrics-cover", 9, 2, 1 << 13, 512).generate();
    let report = run_trace_replay(
        &trace,
        ReplaySystem::Agile,
        &ReplayConfig::quick().cached().with_metrics(),
    );
    let snap = report.metrics.expect("metrics captured").snapshot;
    // Submit path (collector over the SQ cursors and `IoStats`). On the cached
    // path only misses and write-backs reach the SQs, so admissions is
    // positive but below the replayed op count.
    let admissions = snap.counter("agile_submit_admissions_total", Labels::NONE);
    assert!(admissions > 0, "cache misses were admitted to the SQs");
    assert!(admissions < report.ops, "cache hits bypassed the SQs");
    // Cache (collector-bridged from the cache's own stats).
    let cache_touches = snap.counter("agile_cache_hits_total", Labels::NONE)
        + snap.counter("agile_cache_misses_total", Labels::NONE);
    assert!(cache_touches >= report.ops, "cached path touched the cache");
    // Devices (collector-bridged per-device counters).
    let dev_reads: u64 = snap
        .family("agile_device_reads_completed_total")
        .map(|s| s.value.as_u64())
        .sum();
    assert!(dev_reads > 0, "devices completed reads");
    // Service (per-partition collector).
    assert!(
        snap.counter("agile_service_completions_total", Labels::partition(0)) > 0,
        "the service recycled completions"
    );
    // Engine (collector over the totals the scheduling loop stores).
    assert_eq!(
        snap.counter("agile_engine_rounds_total", Labels::NONE),
        report.engine_rounds,
        "engine rounds counter matches the execution report"
    );
    assert!(snap.counter("agile_engine_warp_steps_total", Labels::NONE) > 0);
    // Replay collector (per-tenant ops + latency mirrored into the registry).
    let replay_ops: u64 = snap
        .family("agile_replay_ops_total")
        .map(|s| s.value.as_u64())
        .sum();
    assert_eq!(replay_ops, report.ops);
}

#[test]
fn sparse_windows_sum_back_to_a_real_snapshot() {
    let trace = TraceSpec::zipfian("metrics-zipf", 5, 1, 1 << 13, 384, 0.99).generate();
    let report = run_trace_replay(
        &trace,
        ReplaySystem::Agile,
        &ReplayConfig::quick().with_metrics_window(100_000),
    );
    let m = report.metrics.expect("metrics captured");
    assert!(m.windows.len() >= 2, "run long enough for several windows");
    let is_gauge = |v: &MetricValue| matches!(v, MetricValue::Gauge(_));
    let gauges: Vec<_> = m
        .snapshot
        .samples
        .iter()
        .filter(|s| is_gauge(&s.value))
        .map(|s| (s.name, s.labels))
        .collect();
    for w in &m.windows {
        // A window holds what moved, and every gauge.
        for s in &w.deltas.samples {
            assert!(s.value.as_u64() > 0 || is_gauge(&s.value));
        }
        for &(name, labels) in &gauges {
            assert!(
                w.deltas.get(name, labels).is_some(),
                "window {} lacks {name}",
                w.index
            );
        }
    }
    // Leaving the zero deltas out loses nothing: every counter's windowed
    // deltas and every histogram's windowed counts add up to its total.
    for s in m.snapshot.samples.iter().filter(|s| !is_gauge(&s.value)) {
        let windowed: u64 = m
            .windows
            .iter()
            .filter_map(|w| w.deltas.get(s.name, s.labels))
            .map(MetricValue::as_u64)
            .sum();
        assert_eq!(windowed, s.value.as_u64(), "{}{:?}", s.name, s.labels);
    }
}

#[test]
fn sampler_series_is_deterministic() {
    let trace = TraceSpec::noisy_neighbor("metrics-nn", 21, 2, 1 << 12, 768).generate();
    let cfg = noisy_cfg(QosSpec::WeightedFair(vec![1, 1])).with_metrics_window(100_000);
    let a = run_trace_replay(&trace, ReplaySystem::Agile, &cfg);
    let b = run_trace_replay(&trace, ReplaySystem::Agile, &cfg);
    let (ma, mb) = (a.metrics.expect("captured"), b.metrics.expect("captured"));
    assert_eq!(
        windows_to_json(&ma.windows),
        windows_to_json(&mb.windows),
        "same trace + seed + window must produce an identical series"
    );
    assert_eq!(ma.snapshot, mb.snapshot);
}

#[test]
fn noisy_neighbour_emits_per_tenant_windowed_series() {
    let trace = TraceSpec::noisy_neighbor("metrics-nn", 21, 2, 1 << 12, 768).generate();
    let report = run_trace_replay(
        &trace,
        ReplaySystem::Agile,
        &noisy_cfg(QosSpec::WeightedFair(vec![1, 1])).with_metrics_window(100_000),
    );
    let m = report.metrics.expect("metrics captured");
    assert!(m.windows.len() >= 2, "run long enough for several windows");
    for tenant in 0..trace.meta.tenants {
        let iops = m.tenant_windowed_iops(tenant);
        assert_eq!(iops.len(), m.windows.len());
        assert!(
            iops.iter().any(|&r| r > 0.0),
            "tenant {tenant} completed ops in at least one window"
        );
        // The windowed ops deltas must sum back to the tenant's total.
        let windowed: u64 = m
            .windows
            .iter()
            .map(|w| {
                w.deltas
                    .counter("agile_replay_ops_total", Labels::tenant(tenant))
            })
            .sum();
        let total = report
            .tenants
            .iter()
            .find(|t| t.tenant == tenant)
            .map(|t| t.ops)
            .unwrap_or(0);
        assert_eq!(windowed, total, "tenant {tenant} windows sum to its total");
        let p99 = m.tenant_windowed_p99_us(tenant);
        assert!(
            p99.iter().any(|p| p.is_some_and(|us| us > 0.0)),
            "tenant {tenant} has a p99 in at least one window"
        );
    }
}

#[test]
fn qos_deferrals_surface_in_the_summary() {
    let trace = TraceSpec::noisy_neighbor("metrics-nn", 21, 2, 1 << 12, 768).generate();
    let fifo = run_trace_replay(&trace, ReplaySystem::Agile, &noisy_cfg(QosSpec::Fifo));
    assert_eq!(fifo.io_stats.qos_deferrals, 0, "FIFO never defers");
    assert!(!fifo.summary().contains("qos_deferrals="));
    let wfq = run_trace_replay(
        &trace,
        ReplaySystem::Agile,
        &noisy_cfg(QosSpec::WeightedFair(vec![1, 1])).with_metrics(),
    );
    assert!(
        wfq.io_stats.qos_deferrals > 0,
        "saturated WFQ defers the hog"
    );
    assert!(wfq
        .summary()
        .contains(&format!(" qos_deferrals={}", wfq.io_stats.qos_deferrals)));
    // The registry's per-tenant deferral family sums to the same total.
    let snap = wfq.metrics.expect("metrics captured").snapshot;
    let deferrals: u64 = snap
        .family("agile_submit_qos_deferrals_total")
        .map(|s| s.value.as_u64())
        .sum();
    assert_eq!(deferrals, wfq.io_stats.qos_deferrals);
}

#[test]
fn lock_wait_family_matches_the_reports_lock_wait() {
    let trace = TraceSpec::uniform("metrics-topo", 13, 4, 1 << 13, 1_024).generate();
    let report = run_trace_replay(
        &trace,
        ReplaySystem::Agile,
        &ReplayConfig::quick().striped().with_metrics(),
    );
    assert!(
        !report.summary().contains("lock_wait="),
        "the summary prints no lock_wait field (goldens)"
    );
    assert!(report.lock_wait_cycles > 0, "four SSDs contend on the lock");
    // The registry's family (one `shard=0` sample) must agree with the
    // array's own accounting.
    let snap = report.metrics.expect("metrics captured").snapshot;
    let wait: Vec<(Labels, u64)> = snap
        .family("agile_submit_lock_wait_cycles_total")
        .map(|s| (s.labels, s.value.as_u64()))
        .collect();
    assert_eq!(wait, [(Labels::shard(0), report.lock_wait_cycles)]);
}

#[test]
fn a_replay_collector_binds_once_and_exports_each_sample_once() {
    let registry = MetricsRegistry::new();
    let collector = ReplayCollector::new();
    assert!(collector.bind_metrics(&registry));
    assert!(!collector.bind_metrics(&registry), "the first binding wins");
    collector.record(0, 100, false);
    collector.record(1, 200, true);
    collector.record(1, 300, false);
    let snap = registry.snapshot();
    let keys: Vec<_> = snap.samples.iter().map(|s| (s.name, s.labels)).collect();
    let unique: BTreeSet<_> = keys.iter().copied().collect();
    assert_eq!(keys.len(), unique.len(), "one sample per (name, labels)");
    // Per tenant ops and latency, then the aggregate reads and writes.
    assert_eq!(keys.len(), 2 * 2 + 2);
    assert_eq!(snap.counter("agile_replay_ops_total", Labels::tenant(1)), 2);
    assert_eq!(snap.counter("agile_replay_reads_total", Labels::NONE), 2);
    assert_eq!(snap.counter("agile_replay_writes_total", Labels::NONE), 1);
    let h = snap
        .histo("agile_replay_latency_cycles", Labels::tenant(1))
        .expect("tenant 1 recorded");
    assert_eq!((h.count, h.sum, h.min, h.max), (2, 500, 200, 300));
    assert_eq!(collector.latency().count(), 3);
    assert_eq!((collector.reads(), collector.writes()), (2, 1));
}

/// `a_{x,y}_b` → `a_x_b`, `a_y_b` (the catalogue's shorthand; one group).
fn expand_braces(name: &str) -> Vec<String> {
    match (name.find('{'), name.find('}')) {
        (Some(open), Some(close)) if open < close => name[open + 1..close]
            .split(',')
            .map(|alt| format!("{}{}{}", &name[..open], alt, &name[close + 1..]))
            .collect(),
        _ => vec![name.to_string()],
    }
}

/// Every `agile_*` metric name the README spells, shorthand expanded. A
/// back-ticked span counts when it is made of name characters only, so paths
/// (`agile_core::host`) and placeholders (`agile_<layer>_<what>`) do not; a
/// trailing `*` is kept and marks a prefix.
fn readme_names(readme: &str) -> BTreeSet<String> {
    readme
        .split('`')
        .skip(1)
        .step_by(2)
        .filter(|span| span.starts_with("agile_"))
        .filter(|span| {
            span.chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "_{},*".contains(c))
        })
        .flat_map(expand_braces)
        .collect()
}

#[test]
fn readme_catalogue_and_registry_name_the_same_families() {
    let catalogue = readme_names(include_str!("../README.md"));

    // The full stack: cached path, tenant-partitioned warps with cache
    // shares, metrics, control with an SLO.
    let trace = TraceSpec::noisy_neighbor("metrics-drift", 23, 2, 1 << 12, 768).generate();
    let cfg = noisy_cfg(QosSpec::Fifo)
        .cached()
        .tenant_share(vec![1, 1])
        .with_metrics()
        .with_control(ControlPolicy::all())
        .with_slos(vec![SloSpec::p99(0, 500.0)]);
    let report = run_trace_replay(&trace, ReplaySystem::Agile, &cfg);
    assert!(!report.deadlocked);
    let snapshot = report.metrics.expect("metrics captured").snapshot;
    let registered: BTreeSet<String> = snapshot
        .samples
        .iter()
        .map(|s| s.name.to_string())
        .collect();

    let uncatalogued: Vec<_> = registered.difference(&catalogue).collect();
    assert!(
        uncatalogued.is_empty(),
        "registered on a full-stack run but missing from README's metric catalogue: \
         {uncatalogued:?}"
    );
    // The engine registers its whole family unconditionally, so there the
    // README must not name (or glob) anything the run did not register.
    let dead: Vec<_> = catalogue
        .iter()
        .filter(|name| name.starts_with("agile_engine_"))
        .filter(|name| match name.strip_suffix('*') {
            Some(prefix) => !registered.iter().any(|r| r.starts_with(prefix)),
            None => !registered.contains(*name),
        })
        .collect();
    assert!(
        dead.is_empty(),
        "README names engine metric families nothing registers: {dead:?}"
    );
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(FNV_OFFSET, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// The FNV-1a hash of a metered replay's `MetricsReport::to_json()` (the
/// final snapshot and every window), plus the report for further checks.
fn metrics_fingerprint(system: ReplaySystem, cfg: &ReplayConfig) -> (u64, MetricsReport) {
    let trace = TraceSpec::noisy_neighbor("metrics-golden", 31, 2, 1 << 12, 768).generate();
    let report = run_trace_replay(&trace, system, cfg);
    assert!(!report.deadlocked);
    let m = report.metrics.expect("metrics captured");
    (fnv1a(m.to_json().as_bytes()), m)
}

/// Pins what the registry reports, snapshot and windows byte for byte, on
/// three metered replays. A change to the simulation moves them too; they
/// were last re-recorded when the submit lock became one per SQ (all three
/// moved) and `TenantShare` began to reclaim an over-quota tenant's read
/// lines before its unread ones (the cached tenant-share replay).
/// Cached-path submissions are system traffic, which the QoS
/// gate never defers (and `run_trace_replay` refuses WFQ on the cached path),
/// so the deferral family is pinned on a raw WFQ replay and the cached AGILE
/// stack on a second, controlled one.
#[test]
fn metered_replays_report_pinned_metrics() {
    let slos = vec![SloSpec::p99(0, 500.0)];
    let (wfq, m) = metrics_fingerprint(
        ReplaySystem::Agile,
        &noisy_cfg(QosSpec::WeightedFair(vec![1, 1]))
            .with_metrics_window(100_000)
            .with_control(ControlPolicy::all())
            .with_slos(slos.clone()),
    );
    for family in [
        "agile_submit_qos_deferrals_total",
        "agile_replay_latency_cycles",
    ] {
        assert!(
            m.snapshot.family(family).next().is_some(),
            "{family} is empty"
        );
    }
    let (cached, _) = metrics_fingerprint(
        ReplaySystem::Agile,
        &noisy_cfg(QosSpec::Fifo)
            .cached()
            .tenant_share(vec![1, 1])
            .with_metrics_window(100_000)
            .with_control(ControlPolicy::all())
            .with_slos(slos),
    );
    let (bam, _) = metrics_fingerprint(
        ReplaySystem::Bam,
        &ReplayConfig::quick().cached().with_metrics_window(100_000),
    );
    let got = [wfq, cached, bam];
    let pinned = [
        0x759b_adba_d2c5_59c8,
        0x34a0_02f5_530b_1d8d,
        0x6c92_2115_7014_a53a,
    ];
    assert_eq!(
        got, pinned,
        "metrics fingerprints {got:#018x?} != pinned {pinned:#018x?} (WFQ, cached, BaM)"
    );
}
