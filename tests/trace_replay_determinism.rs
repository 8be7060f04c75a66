//! Replay determinism and capture→replay integration through the full stack:
//! the same trace + seed must yield byte-identical stats, on both systems,
//! and a live AGILE run must produce a capturable, re-replayable event log.

use agile_repro::gpu::EngineSched;
use agile_repro::trace::{CountingSink, MemorySink, Trace, TraceEventKind, TraceSpec};
use agile_repro::workloads::experiments::trace_replay::{
    run_trace_replay, run_trace_replay_with_sink, ReplayConfig, ReplaySystem,
};
use proptest::prelude::*;
use std::sync::Arc;

fn small_trace() -> Trace {
    TraceSpec::multi_tenant("det-mt", 77, 2, 1 << 14, 1_024).generate()
}

#[test]
fn agile_replay_is_byte_identical_across_runs() {
    let trace = small_trace();
    let cfg = ReplayConfig::quick();
    let a = run_trace_replay(&trace, ReplaySystem::Agile, &cfg);
    let b = run_trace_replay(&trace, ReplaySystem::Agile, &cfg);
    assert!(!a.deadlocked);
    assert_eq!(a.ops, trace.ops.len() as u64, "every op must complete");
    assert_eq!(a.summary(), b.summary(), "replay must be deterministic");
}

#[test]
fn ready_queue_engine_cuts_rounds_on_the_large_replay() {
    // The event-driven scheduler must replay the large trace bit-identically
    // to the legacy full scan while visiting strictly fewer rounds — warps
    // wake out of the ready-queue and device-event-only rounds are skipped,
    // so fewer (and far cheaper) rounds is the ready-queue actually engaged.
    let trace = TraceSpec::multi_tenant("det-rounds", 99, 4, 1 << 14, 4_096).generate();
    let cfg = ReplayConfig::quick();
    let scan_cfg = ReplayConfig::quick().with_engine_sched(EngineSched::FullScan);
    for system in [ReplaySystem::Agile, ReplaySystem::Bam] {
        let event = run_trace_replay(&trace, system, &cfg);
        let scan = run_trace_replay(&trace, system, &scan_cfg);
        assert!(!event.deadlocked && !scan.deadlocked);
        assert_eq!(
            event.summary(),
            scan.summary(),
            "both schedulers must replay bit-identically ({system:?})"
        );
        assert!(
            event.engine_rounds < scan.engine_rounds,
            "the ready-queue must cut engine rounds on {system:?} \
             (event {} vs scan {})",
            event.engine_rounds,
            scan.engine_rounds
        );
    }
}

#[test]
fn bam_replay_is_byte_identical_across_runs() {
    let trace = TraceSpec::zipfian("det-zipf", 5, 1, 1 << 14, 512, 0.99).generate();
    let cfg = ReplayConfig::quick();
    let a = run_trace_replay(&trace, ReplaySystem::Bam, &cfg);
    let b = run_trace_replay(&trace, ReplaySystem::Bam, &cfg);
    assert!(!a.deadlocked);
    assert_eq!(a.ops, 512);
    assert_eq!(a.summary(), b.summary());
}

#[test]
fn deserialized_trace_replays_identically_to_the_original() {
    let trace = small_trace();
    let reloaded = Trace::from_bytes(&trace.to_bytes()).expect("round-trip");
    let cfg = ReplayConfig::quick();
    let a = run_trace_replay(&trace, ReplaySystem::Agile, &cfg);
    let b = run_trace_replay(&reloaded, ReplaySystem::Agile, &cfg);
    assert_eq!(a.summary(), b.summary());
}

#[test]
fn capture_records_every_layer_and_is_replayable() {
    let trace = small_trace();
    let cfg = ReplayConfig::quick();
    let sink = Arc::new(MemorySink::new());
    let report = run_trace_replay_with_sink(
        &trace,
        ReplaySystem::Agile,
        &cfg,
        Some(sink.clone() as Arc<_>),
    );
    assert!(!report.deadlocked);
    let events = sink.take_events();
    assert!(!events.is_empty(), "capture must record events");

    // Every layer of the stack showed up in the log.
    let count = |k: TraceEventKind| events.iter().filter(|e| e.kind == k).count() as u64;
    assert!(
        count(TraceEventKind::Submit) >= trace.ops.len() as u64,
        "every replayed op must record a submit"
    );
    assert!(count(TraceEventKind::Doorbell) > 0, "doorbells recorded");
    assert_eq!(
        count(TraceEventKind::DeviceCompletion),
        count(TraceEventKind::Submit),
        "device completes exactly what was submitted"
    );
    assert!(
        count(TraceEventKind::ServiceCompletion) >= trace.ops.len() as u64,
        "the AGILE service processed the completions"
    );
    // Timestamps are monotone-ish per layer: submits are capture-ordered.
    let submits: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == TraceEventKind::Submit)
        .map(|e| e.at)
        .collect();
    assert!(submits.windows(2).all(|w| w[0] <= w[1]));

    // The captured log converts back into a replayable trace that runs.
    let captured = Trace::from_events("recaptured", &events);
    assert!(captured.ops.len() as u64 >= report.ops);
    let rerun = run_trace_replay(&captured, ReplaySystem::Agile, &cfg);
    assert!(!rerun.deadlocked);
    assert_eq!(rerun.ops, captured.ops.len() as u64);
}

#[test]
fn cache_path_records_through_the_same_hook() {
    // The prefetch/read path goes through the software cache; a counting
    // sink on a cache-heavy workload must observe cache events.
    use agile_repro::agile::config::AgileConfig;
    use agile_repro::agile::kernels::PrefetchComputeKernel;
    use agile_repro::bam::HostBuilder;
    use agile_repro::gpu::{GpuConfig, LaunchConfig};

    let sink = Arc::new(CountingSink::new());
    let mut host = HostBuilder::agile(AgileConfig::small_test())
        .gpu(GpuConfig::tiny(4))
        .devices(1, 1 << 16)
        .trace_sink(sink.clone() as Arc<_>)
        .build();
    let ctrl = host.ctrl();
    let report = host.run_kernel(
        LaunchConfig::new(2, 64).with_registers(32),
        Box::new(PrefetchComputeKernel::new(ctrl, 8, 2_000)),
    );
    assert!(!report.deadlocked);
    assert!(sink.count(TraceEventKind::CacheMiss) > 0, "misses recorded");
    assert!(sink.count(TraceEventKind::CacheHit) > 0, "hits recorded");
    assert!(sink.count(TraceEventKind::Submit) > 0);
    assert!(sink.count(TraceEventKind::ServiceCompletion) > 0);
    host.stop_agile();
}

mod engine_scheduler_equivalence {
    //! The engine's determinism contract, property-tested end to end: the
    //! parking `EventQueue` must replay bit-identically to the never-parking
    //! `FullScan` on random synthetic traces — apart from the polls it never
    //! made — with the metrics *and* control bridges enabled — the
    //! configurations where a reordered round would actually show up
    //! (windowed counters, controller decisions, latency tails).

    use super::*;
    use agile_repro::control::{ControlPolicy, Knob, SloSpec};
    use agile_repro::metrics::Sample;
    use agile_repro::workloads::experiments::trace_replay::ReplayReport;

    /// Poll counts: lookups that found a line BUSY or no line at all, idle
    /// service sweeps and submissions every SQ refused count what ran, so a
    /// parked run makes at most the polled run's.
    const POLL_COUNTS: [&str; 4] = [
        "agile_cache_busy_hits_total",
        "agile_cache_no_line_total",
        "agile_service_idle_rounds_total",
        "agile_submit_sq_full_retries_total",
    ];

    /// Metric samples of a run split into the poll counts and the rest,
    /// minus the `agile_engine_*` scheduler introspection (rounds, executed
    /// steps, ready-queue high water), on which `FullScan` legitimately
    /// differs: it visits more rounds and has no ready queue. The rest —
    /// replay counters, cache/topology telemetry, controller gauges — must
    /// match sample for sample, value for value.
    fn comparable_samples(report: &ReplayReport) -> (Vec<Sample>, Vec<Sample>) {
        report
            .metrics
            .as_ref()
            .expect("instrumented run captures metrics")
            .snapshot
            .samples
            .iter()
            .filter(|s| !s.name.starts_with("agile_engine_"))
            .cloned()
            .partition(|s| POLL_COUNTS.contains(&s.name))
    }

    fn instrumented_config(sched: EngineSched) -> ReplayConfig {
        ReplayConfig::quick()
            .striped()
            .tenant_partitioned()
            .with_engine_sched(sched)
            .with_metrics()
            .with_control(ControlPolicy::all())
            .with_slos(vec![SloSpec::p99(0, 500.0)])
    }

    /// A controlled cached replay whose cache (2 MiB, 64 sets) is small
    /// enough that lookups find sets full and warps sleep on them, with
    /// windows short enough for the prefetch loop to vote.
    fn cached_config(sched: EngineSched) -> ReplayConfig {
        ReplayConfig::quick()
            .cached()
            .with_cache_bytes(2 << 20)
            .with_engine_sched(sched)
            .with_metrics_window(100_000)
            .with_control(ControlPolicy::all())
    }

    /// Replays `trace` under `config(sched)` on both schedulers and demands
    /// identical summaries, metrics apart from the poll counts (parked ≤
    /// polled) and decision logs. Returns the parked and the polled run.
    fn assert_like_full_scan(
        trace: &Trace,
        config: impl Fn(EngineSched) -> ReplayConfig,
        case: &str,
    ) -> (ReplayReport, ReplayReport) {
        let run = |sched| run_trace_replay(trace, ReplaySystem::Agile, &config(sched));
        let decisions = |report: &ReplayReport| {
            report
                .control
                .as_ref()
                .map(|c| (c.windows_seen, c.decisions.clone()))
        };
        let event = run(EngineSched::EventQueue);
        let scan = run(EngineSched::FullScan);
        assert!(!event.deadlocked && !scan.deadlocked, "{}", case);
        assert_eq!(
            scan.summary(),
            event.summary(),
            "summaries must be byte-identical ({})",
            case
        );
        let ((scan_polls, scan_rest), (event_polls, event_rest)) =
            (comparable_samples(&scan), comparable_samples(&event));
        assert_eq!(
            scan_rest, event_rest,
            "metrics snapshots must be bit-identical ({})",
            case
        );
        assert_eq!(scan_polls.len(), event_polls.len());
        for (s, e) in scan_polls.iter().zip(&event_polls) {
            assert_eq!((&s.name, s.labels), (&e.name, e.labels));
            assert!(
                e.value.as_u64() <= s.value.as_u64(),
                "{} parked {:?} > polled {:?} ({})",
                s.name,
                e.value,
                s.value,
                case
            );
        }
        assert_eq!(
            decisions(&scan),
            decisions(&event),
            "controller decision logs must be identical ({})",
            case
        );
        (event, scan)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn event_queue_replays_like_full_scan(
            seed in 1u64..=u64::MAX / 2,
            ops in 256u64..=512,
            devices in 2u32..=4,
        ) {
            let trace = TraceSpec::multi_tenant(
                "engine-equiv", seed, devices, 1 << 14, ops,
            ).generate();
            assert_like_full_scan(&trace, instrumented_config, "raw");
            // The cached path, where the prefetch loop has a knob and reads
            // cache pressure while warps sleep on full sets.
            assert_like_full_scan(&trace, cached_config, "cached");
        }
    }

    /// The cached case above is only worth something if its warps do sleep
    /// on full sets and the prefetch loop does move on what it reads: on this
    /// trace the polled run makes ten times the parked run's no-line lookups
    /// and the controller retunes the prefetch depth.
    #[test]
    fn the_cached_case_sleeps_on_full_sets_and_moves_the_prefetch_depth() {
        let trace = TraceSpec::multi_tenant("engine-equiv", 2, 2, 1 << 14, 512).generate();
        let (event, scan) = assert_like_full_scan(&trace, cached_config, "cached, seed 2");
        let no_line = |r: &ReplayReport| r.cache_stats.no_line;
        assert!(
            no_line(&event) * 5 < no_line(&scan),
            "warps sleep on full sets ({} vs {} no-line lookups)",
            no_line(&event),
            no_line(&scan)
        );
        let control = scan.control.expect("controlled run");
        assert!(
            !control.decisions_for(Knob::PrefetchDepth).is_empty(),
            "the prefetch loop moves: {:?}",
            control.decision_log()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The default stack (one service, the event-queue scheduler) is
    /// bit-identical to the pre-refactor stack (single service, full-scan
    /// engine) on random multi-tenant traces, for both systems.
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
                "event-queue + the single service must match the full-scan single service"
            );
            prop_assert!(
                new.engine_rounds <= old.engine_rounds,
                "the ready-queue may not visit more rounds than the scan"
            );
        }
    }
}

#[test]
fn agile_latency_beats_bam_on_multi_tenant_load() {
    // Not a strict paper claim, but the qualitative shape the subsystem
    // exists to measure: under concurrent multi-tenant load the synchronous
    // baseline cannot overlap its waits, so its completion throughput
    // (and typically its tail) is worse.
    let trace = small_trace();
    let cfg = ReplayConfig::quick();
    let agile = run_trace_replay(&trace, ReplaySystem::Agile, &cfg);
    let bam = run_trace_replay(&trace, ReplaySystem::Bam, &cfg);
    assert!(!agile.deadlocked && !bam.deadlocked);
    assert_eq!(agile.ops, bam.ops, "both systems must complete the trace");
    assert!(
        agile.iops > bam.iops,
        "AGILE should sustain higher IOPS (got {:.0} vs {:.0})",
        agile.iops,
        bam.iops
    );
}
