//! Golden-trace regression suite.
//!
//! Small binary traces are checked into `tests/data/`, together with the
//! expected replay summaries (`golden_summaries.txt`). Replay is fully
//! deterministic, so the summaries must stay **byte-identical across PRs**;
//! any diff here is a behavioural change of the I/O stack (cost model,
//! queue protocol, cache policy, scheduling) and must be intentional.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! cargo test --test golden_traces -- --ignored regenerate --nocapture
//! ```

use agile_repro::trace::{AddressPattern, MemorySink, TenantSpec, Trace, TraceSpec};
use agile_repro::workloads::experiments::trace_replay::{
    run_trace_replay, run_trace_replay_with_sink, QosSpec, ReplayConfig, ReplaySystem,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn data_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data")
}

/// The golden workloads: (file stem, generator). Small enough to replay in
/// debug mode in seconds, diverse enough to cover the uniform, skewed and
/// multi-tenant shapes.
fn golden_specs() -> Vec<(&'static str, TraceSpec)> {
    vec![
        (
            "golden_uniform",
            TraceSpec::uniform("golden-uniform", 101, 2, 1 << 12, 512),
        ),
        (
            "golden_zipf",
            TraceSpec::zipfian("golden-zipf", 202, 2, 1 << 12, 512, 0.99),
        ),
        (
            "golden_multi_tenant",
            TraceSpec::multi_tenant("golden-mt", 303, 2, 1 << 12, 512),
        ),
    ]
}

/// Replay one golden trace on both systems and return the summary lines.
///
/// `ReplayConfig::quick()` installs the explicit `Fifo` QoS policy object,
/// so matching the pre-QoS expected summaries byte-for-byte *is* the
/// scheduler-off ⇒ no-behaviour-drift assertion.
fn replay_summaries(stem: &str, trace: &Trace) -> Vec<String> {
    let cfg = ReplayConfig::quick();
    let mut lines = Vec::new();
    for system in [ReplaySystem::Agile, ReplaySystem::Bam] {
        let report = run_trace_replay(trace, system, &cfg);
        assert!(!report.deadlocked, "{stem} deadlocked on {system:?}");
        lines.push(format!("{stem} {}", report.summary()));
    }
    lines
}

/// The golden QoS workload: the 9:1 noisy-neighbour mix replayed on AGILE
/// under FIFO and under equal-weight WFQ, over saturated SQs with
/// demand-proportional tenant warps. Two summary lines per regeneration —
/// the checked-in pair pins both schedules, deferral count included.
fn golden_qos_spec() -> TraceSpec {
    TraceSpec::noisy_neighbor("golden-qos", 404, 2, 1 << 12, 1_024)
}

fn golden_qos_config(qos: QosSpec) -> ReplayConfig {
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

fn golden_qos_summaries(trace: &Trace) -> Vec<String> {
    [QosSpec::Fifo, QosSpec::WeightedFair(vec![1, 1])]
        .into_iter()
        .map(|qos| {
            let report = run_trace_replay(trace, ReplaySystem::Agile, &golden_qos_config(qos));
            assert!(!report.deadlocked, "golden_qos deadlocked");
            format!("golden_qos {}", report.summary())
        })
        .collect()
}

/// The golden cached-path workload: 512 ops, half of them stores, uniform
/// over 1024 pages — 8× the 128-line cache — on 8 warps, so BUSY waits,
/// dirty evictions, write-backs and `NoLineAvailable` retries all occur.
/// The raw-path goldens above never enter the cache.
fn golden_cached_spec() -> TraceSpec {
    TraceSpec {
        name: "golden-cached".to_string(),
        seed: 505,
        devices: 2,
        lba_space: 1 << 9,
        tenants: vec![TenantSpec::new(512, AddressPattern::Uniform, 0.5, 200)],
    }
}

/// Four lines per system: the summary, the I/O path's counters, the cache's
/// counters and the length of the captured event log.
fn golden_cached_lines(trace: &Trace) -> Vec<String> {
    let cfg = ReplayConfig {
        total_warps: 8,
        ..ReplayConfig::quick()
    }
    .cached()
    .with_cache_bytes(512 << 10);
    let mut lines = Vec::new();
    for system in [ReplaySystem::Agile, ReplaySystem::Bam] {
        let sink = Arc::new(MemorySink::new());
        let report = run_trace_replay_with_sink(trace, system, &cfg, Some(sink.clone() as Arc<_>));
        assert!(!report.deadlocked, "golden_cached deadlocked on {system:?}");
        let name = report.system;
        lines.push(format!("golden_cached {}", report.summary()));
        lines.push(format!("golden_cached {name} {:?}", report.io_stats));
        lines.push(format!("golden_cached {name} {:?}", report.cache_stats));
        lines.push(format!(
            "golden_cached {name} events={}",
            sink.take_events().len()
        ));
    }
    lines
}

#[test]
fn golden_cached_trace_replays_byte_identically() {
    let dir = data_dir();
    let bytes = std::fs::read(dir.join("golden_cached.trace"))
        .expect("tests/data/golden_cached.trace is checked in");
    let trace = Trace::from_bytes(&bytes).expect("golden cached trace parses");
    assert_eq!(
        trace,
        golden_cached_spec().generate(),
        "golden_cached: generator or format drifted from the checked-in binary"
    );
    let expected = std::fs::read_to_string(dir.join("golden_cached_summary.txt"))
        .expect("tests/data/golden_cached_summary.txt is checked in");
    let actual: String = golden_cached_lines(&trace)
        .into_iter()
        .map(|l| l + "\n")
        .collect();
    assert_eq!(
        actual, expected,
        "cached-path replay drifted from tests/data/golden_cached_summary.txt — \
         if intentional, regenerate with: \
         cargo test --test golden_traces -- --ignored regenerate --nocapture"
    );
}

#[test]
fn golden_traces_replay_byte_identically() {
    let dir = data_dir();
    let expected = std::fs::read_to_string(dir.join("golden_summaries.txt"))
        .expect("tests/data/golden_summaries.txt is checked in");
    let mut actual = String::new();
    for (stem, spec) in golden_specs() {
        let bytes = std::fs::read(dir.join(format!("{stem}.trace")))
            .unwrap_or_else(|e| panic!("tests/data/{stem}.trace is checked in: {e}"));
        let trace = Trace::from_bytes(&bytes).expect("golden trace parses");
        // The checked-in binary must match its generator (no drift in the
        // synthetic generators or the wire format).
        assert_eq!(
            trace,
            spec.generate(),
            "{stem}: generator or format drifted from the checked-in binary"
        );
        for line in replay_summaries(stem, &trace) {
            actual.push_str(&line);
            actual.push('\n');
        }
    }
    assert_eq!(
        actual, expected,
        "replay summaries drifted from tests/data/golden_summaries.txt — \
         if intentional, regenerate with: \
         cargo test --test golden_traces -- --ignored regenerate --nocapture"
    );
}

#[test]
fn golden_qos_trace_replays_byte_identically() {
    let dir = data_dir();
    let bytes = std::fs::read(dir.join("golden_qos.trace"))
        .expect("tests/data/golden_qos.trace is checked in");
    let trace = Trace::from_bytes(&bytes).expect("golden qos trace parses");
    assert_eq!(
        trace,
        golden_qos_spec().generate(),
        "golden_qos: generator or format drifted from the checked-in binary"
    );
    let expected = std::fs::read_to_string(dir.join("golden_qos_summary.txt"))
        .expect("tests/data/golden_qos_summary.txt is checked in");
    let actual: String = golden_qos_summaries(&trace)
        .into_iter()
        .map(|l| l + "\n")
        .collect();
    assert_eq!(
        actual, expected,
        "QoS replay summaries drifted from tests/data/golden_qos_summary.txt — \
         if intentional, regenerate with: \
         cargo test --test golden_traces -- --ignored regenerate --nocapture"
    );
}

/// Write `trace` to `path`, unless the file there already decodes to it:
/// the golden tests compare decoded traces, and a binary written by an older
/// wire-format version stays as it was checked in.
fn write_trace(path: &Path, trace: &Trace) {
    let current = std::fs::read(path).ok();
    if current
        .and_then(|bytes| Trace::from_bytes(&bytes).ok())
        .as_ref()
        != Some(trace)
    {
        std::fs::write(path, trace.to_bytes()).expect("write golden trace");
    }
}

/// Regenerates the golden binaries and the expected-summary files.
#[test]
#[ignore = "writes tests/data — run explicitly to regenerate"]
fn regenerate() {
    let dir = data_dir();
    std::fs::create_dir_all(&dir).expect("create tests/data");
    let mut summaries = String::new();
    for (stem, spec) in golden_specs() {
        let trace = spec.generate();
        write_trace(&dir.join(format!("{stem}.trace")), &trace);
        for line in replay_summaries(stem, &trace) {
            summaries.push_str(&line);
            summaries.push('\n');
        }
    }
    std::fs::write(dir.join("golden_summaries.txt"), &summaries).expect("write summaries");
    let qos_trace = golden_qos_spec().generate();
    write_trace(&dir.join("golden_qos.trace"), &qos_trace);
    let qos_summaries: String = golden_qos_summaries(&qos_trace)
        .into_iter()
        .map(|l| l + "\n")
        .collect();
    std::fs::write(dir.join("golden_qos_summary.txt"), &qos_summaries)
        .expect("write qos summaries");
    let cached_trace = golden_cached_spec().generate();
    write_trace(&dir.join("golden_cached.trace"), &cached_trace);
    let cached_summaries: String = golden_cached_lines(&cached_trace)
        .into_iter()
        .map(|l| l + "\n")
        .collect();
    std::fs::write(dir.join("golden_cached_summary.txt"), &cached_summaries)
        .expect("write cached summaries");
    println!("regenerated tests/data:\n{summaries}{qos_summaries}{cached_summaries}");
}
