//! Trace replay: a zipfian multi-tenant synthetic workload through both
//! AGILE and the BaM baseline, with p50/p95/p99 latency and throughput.
//!
//! Also demonstrates the two pillars of the trace subsystem:
//!
//! * **determinism** — replaying the same trace with the same seed twice
//!   yields byte-identical stats (asserted below);
//! * **capture** — the AGILE run records a live event log through the
//!   `TraceSink` hook, which is then serialized, round-tripped, and turned
//!   back into a replayable trace.
//!
//! ```text
//! cargo run --release --example trace_replay
//! cargo run --release --example trace_replay -- --metrics-json metrics.json
//! cargo run --release --example trace_replay -- --metrics-prom metrics.prom
//! ```
//!
//! With `--metrics-json <path>`, the AGILE replay is re-run with the metrics
//! stack enabled and the capture (final registry snapshot + windowed time
//! series) is written to `<path>` as JSON. With `--metrics-prom <path>`, the
//! end-of-run registry snapshot is written as Prometheus text exposition
//! instead (both flags may be given; the instrumented run happens once). The
//! instrumented run's summary is asserted byte-identical to the bare run —
//! observing the stack does not perturb it.

use agile_repro::nvme::DEFAULT_LOCK_HOLD_CYCLES;
use agile_repro::trace::{decode_events, encode_events, MemorySink, Trace, TraceSpec};
use agile_repro::workloads::experiments::fig04::run_lockstep_burst;
use agile_repro::workloads::experiments::trace_replay::{
    run_trace_replay, run_trace_replay_with_sink, ReplayConfig, ReplaySystem,
};
use std::sync::Arc;

fn main() {
    let (metrics_json, metrics_prom) = parse_args();

    // --- 1. Synthesize a zipfian multi-tenant workload -------------------
    // Tenant 0: zipf(0.99) hot-set reader; tenant 1: uniform mixed
    // read/write; tenant 2: bursty write-heavy. 2 SSDs.
    let spec = TraceSpec::multi_tenant("zipf-multi-tenant", 42, 2, 1 << 16, 8_192);
    let trace = spec.generate();
    println!(
        "trace `{}`: {} ops ({} reads / {} writes), {} tenants, {} devices",
        trace.meta.name,
        trace.ops.len(),
        trace.reads(),
        trace.writes(),
        trace.meta.tenants,
        trace.meta.devices
    );

    let cfg = ReplayConfig::default();

    // --- 2. Replay through AGILE (capturing a live event log) ------------
    let sink = Arc::new(MemorySink::new());
    let agile = run_trace_replay_with_sink(
        &trace,
        ReplaySystem::Agile,
        &cfg,
        Some(sink.clone() as Arc<_>),
    );
    println!("{}", agile.summary());
    assert!(!agile.deadlocked);

    // --- 3. Replay through the BaM baseline ------------------------------
    let bam = run_trace_replay(&trace, ReplaySystem::Bam, &cfg);
    println!("{}", bam.summary());
    assert!(!bam.deadlocked);
    println!(
        "AGILE vs BaM (raw): p99 {:.2}us vs {:.2}us, throughput {:.3} vs {:.3} GB/s",
        agile.p99_us, bam.p99_us, agile.gbps, bam.gbps
    );

    // --- 3b. The same trace through the software-cache path --------------
    // This is where the zipfian hot set pays off: most accesses hit HBM.
    let cached_cfg = cfg.clone().cached();
    let agile_cached = run_trace_replay(&trace, ReplaySystem::Agile, &cached_cfg);
    let bam_cached = run_trace_replay(&trace, ReplaySystem::Bam, &cached_cfg);
    println!("{}", agile_cached.summary());
    println!("{}", bam_cached.summary());
    assert!(!agile_cached.deadlocked && !bam_cached.deadlocked);
    println!(
        "AGILE vs BaM (cached): p50 {:.2}us vs {:.2}us, p99 {:.2}us vs {:.2}us",
        agile_cached.p50_us, bam_cached.p50_us, agile_cached.p99_us, bam_cached.p99_us
    );

    // --- 3c. The per-SQ submit lock --------------------------------------
    // A 1024-thread block in lockstep submits its 1 024 reads at one instant.
    // On one SQ each warp queues behind the earlier warps' holds; spread over
    // 16 SQs only the second warp of each SQ waits. One SSD serves the burst
    // at the same pace either way.
    for (queue_pairs, depth) in [(1, 2_048), (16, 128)] {
        let (elapsed, wait) = run_lockstep_burst(queue_pairs, depth);
        println!(
            "submit lock, 1024-thread burst on {queue_pairs:>2} QP(s): {:.1} holds of queue wait per submission, {elapsed} cycles",
            wait as f64 / 1_024.0 / DEFAULT_LOCK_HOLD_CYCLES as f64
        );
    }

    // --- 3d. Prefetch depth × eviction policy ---------------------------
    // A uniform flood beside a Zipf hot-set reader through the cache: AGILE's
    // batch-ahead depth {0,1,2,4} under clock and TenantShare eviction vs the
    // demand-fill BaM baseline. The AGILE-vs-BaM cached-replay gap is this
    // pipeline-depth / cache-pressure trade.
    let noisy =
        TraceSpec::cached_noisy_neighbor("cached-noisy", 0xA61E, 1, 1 << 13, 6_144).generate();
    let contended = ReplayConfig {
        queue_pairs: 8,
        queue_depth: 128,
        ..ReplayConfig::quick()
    }
    .cached()
    .tenant_partitioned();
    println!("prefetch depth x eviction policy, cached noisy neighbour:");
    let mut runs = Vec::new();
    for depth in [0u32, 1, 2, 4] {
        for policy in ["clock", "tenant-share"] {
            let mut depth_cfg = contended.clone().with_prefetch_depth(depth);
            if policy == "tenant-share" {
                depth_cfg = depth_cfg.tenant_share(vec![1, 1]);
            }
            let r = run_trace_replay(&noisy, ReplaySystem::Agile, &depth_cfg);
            runs.push((r, depth.to_string(), policy));
        }
    }
    // The synchronous baseline: no prefetch by construction, clock fixed.
    let baseline = run_trace_replay(&noisy, ReplaySystem::Bam, &contended);
    runs.push((baseline, "-".to_string(), "clock"));
    for (r, depth, policy) in &runs {
        assert!(!r.deadlocked);
        println!(
            "  system={}  depth={depth}  policy={policy}  ops={}  p50_us={:.2}  p99_us={:.2}  iops={:.0}  deadlocked={}",
            r.system, r.ops, r.p50_us, r.p99_us, r.iops, r.deadlocked
        );
    }

    // --- 4. Determinism: same trace + same seed ⇒ byte-identical stats ---
    let again = run_trace_replay(&trace, ReplaySystem::Agile, &cfg);
    assert_eq!(
        agile.summary(),
        again.summary(),
        "replay must be deterministic"
    );
    let regenerated = spec.generate();
    assert_eq!(regenerated, trace, "generation must be deterministic");
    println!("determinism: two replays produced byte-identical stats ✓");

    // --- 5. Capture round-trip: events → binary → events → trace ---------
    let events = sink.take_events();
    let encoded = encode_events(&events);
    let decoded = decode_events(&encoded).expect("self-encoded log must parse");
    assert_eq!(decoded, events);
    let captured = Trace::from_events("captured-from-agile", &events);
    println!(
        "captured {} events ({} bytes serialized) -> {} replayable ops",
        events.len(),
        encoded.len(),
        captured.ops.len()
    );
    assert!(captured.ops.len() as u64 >= agile.ops);

    // --- 6. Optional metrics capture (--metrics-json / --metrics-prom) ---
    if metrics_json.is_some() || metrics_prom.is_some() {
        let metered = run_trace_replay(&trace, ReplaySystem::Agile, &cfg.clone().with_metrics());
        assert_eq!(
            metered.summary(),
            agile.summary(),
            "the metrics stack must not perturb the replay"
        );
        let m = metered.metrics.expect("with_metrics captures a report");
        for tenant in 0..trace.meta.tenants {
            let iops = m.tenant_windowed_iops(tenant);
            let peak = iops.iter().cloned().fold(0.0f64, f64::max);
            println!(
                "tenant{tenant} windowed IOPS: {} windows, peak {peak:.0}",
                iops.len()
            );
        }
        if let Some(path) = metrics_json {
            std::fs::write(&path, m.to_json()).expect("write metrics JSON");
            println!(
                "metrics: {} windows x {} cycles -> {}",
                m.windows.len(),
                m.window_cycles,
                path
            );
        }
        if let Some(path) = metrics_prom {
            std::fs::write(&path, m.snapshot.to_prometheus()).expect("write metrics prom");
            println!("metrics: final snapshot (Prometheus text) -> {path}");
        }
    }
    println!("done.");
}

/// Parse `--metrics-json <path>` and `--metrics-prom <path>`.
fn parse_args() -> (Option<String>, Option<String>) {
    let mut args = std::env::args().skip(1);
    let mut json = None;
    let mut prom = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--metrics-json" => {
                json = Some(args.next().expect("--metrics-json takes a path"));
            }
            "--metrics-prom" => {
                prom = Some(args.next().expect("--metrics-prom takes a path"));
            }
            other => panic!(
                "unknown argument `{other}` \
                 (supported: --metrics-json <path>, --metrics-prom <path>)"
            ),
        }
    }
    (json, prom)
}
