//! Trace replay: latency percentiles (p50/p95/p99) and throughput for
//! synthetic traces through AGILE and the BaM baseline.
//!
//! Three workload shapes (uniform, zipfian hot-set, multi-tenant mix) run on
//! both systems; each row reports the latency distribution a serving stack
//! would see, not just aggregate bandwidth. A second section runs the array
//! at 8 SSDs, where the devices could serve more than its one submission
//! lock admits: throughput sits at the lock's clock ÷ hold ceiling. A third
//! section evaluates the QoS scheduler on a 9:1 noisy-neighbour mix over
//! saturated SQs: the victim tenant's p99 must improve under `WeightedFair`
//! without collapsing aggregate IOPS. The final section compares the two
//! engine schedulers on the same large replay: bit-identical simulated
//! results, with the ready-queue cutting wall time and rounds.

use agile_bench::{print_header, print_row, quick_mode};
use agile_trace::TraceSpec;
use agile_workloads::experiments::trace_replay::{
    run_trace_replay, QosSpec, ReplayConfig, ReplayReport, ReplaySystem,
};
use agile_workloads::trace_replay::ReplayPath;
use gpu_sim::EngineSched;
use nvme_sim::DEFAULT_LOCK_HOLD_CYCLES;

/// Machine-readable bench results, opted into with `--json <path>`
/// (`cargo bench --bench trace_replay -- --json BENCH_trace_replay.json`):
/// one row per replay run — section, label, IOPS and host wall time — so the
/// perf trajectory is diffable across commits instead of living only in
/// bench stdout. JSON is built by hand to keep the bench dependency-free.
#[derive(Default)]
struct JsonRows {
    rows: Vec<(String, String, f64, f64)>,
}

impl JsonRows {
    fn push(&mut self, section: &str, label: String, iops: f64, wall_ms: f64) {
        self.rows.push((section.to_string(), label, iops, wall_ms));
    }

    fn write(&self, path: &str) {
        let mut out = String::from("{\n  \"bench\": \"trace_replay\",\n  \"rows\": [\n");
        for (i, (section, label, iops, wall_ms)) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"section\": {}, \"label\": {}, \"iops\": {:.1}, \"wall_ms\": {:.3}}}{}\n",
                json_str(section),
                json_str(label),
                iops,
                wall_ms,
                if i + 1 < self.rows.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        if let Err(e) = std::fs::write(path, out) {
            eprintln!("failed to write {path}: {e}");
        } else {
            println!("\nwrote {} rows to {path}", self.rows.len());
        }
    }
}

/// Minimal JSON string escape (labels are ASCII identifiers in practice).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `--json <path>` from the bench arguments (after the `--` separator when
/// invoked through cargo).
fn json_path() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Run one replay and measure its host wall time.
fn timed_run(
    trace: &agile_trace::Trace,
    system: ReplaySystem,
    cfg: &ReplayConfig,
) -> (ReplayReport, f64) {
    let t0 = std::time::Instant::now();
    let r = run_trace_replay(trace, system, cfg);
    (r, t0.elapsed().as_secs_f64() * 1e3)
}

fn main() {
    let mut json = JsonRows::default();
    print_header(
        "Trace replay",
        "latency percentiles + throughput, AGILE vs BaM, raw and cached paths",
    );
    let ops: u64 = if quick_mode() { 2_048 } else { 16_384 };
    let lba_space = 1u64 << 18;
    let seed = 0xA61E;
    let traces = [
        TraceSpec::uniform("uniform", seed, 2, lba_space, ops).generate(),
        TraceSpec::zipfian("zipf-0.99", seed, 2, lba_space, ops, 0.99).generate(),
        TraceSpec::multi_tenant("multi-tenant", seed, 2, lba_space, ops).generate(),
    ];
    for path in [ReplayPath::Raw, ReplayPath::Cached] {
        let cfg = ReplayConfig {
            path,
            ..ReplayConfig::default()
        };
        for trace in &traces {
            for system in [ReplaySystem::Agile, ReplaySystem::Bam] {
                let (r, wall_ms) = timed_run(trace, system, &cfg);
                json.push(
                    "replay",
                    format!("{}/{:?}/{}", r.trace_name, path, r.system).to_lowercase(),
                    r.iops,
                    wall_ms,
                );
                print_row(&[
                    ("trace", r.trace_name.clone()),
                    ("path", format!("{path:?}").to_lowercase()),
                    ("system", r.system.to_string()),
                    ("ops", r.ops.to_string()),
                    ("p50_us", format!("{:.2}", r.p50_us)),
                    ("p95_us", format!("{:.2}", r.p95_us)),
                    ("p99_us", format!("{:.2}", r.p99_us)),
                    ("iops", format!("{:.0}", r.iops)),
                    ("gbps", format!("{:.3}", r.gbps)),
                    ("deadlocked", r.deadlocked.to_string()),
                ]);
            }
        }
    }

    print_header(
        "Array lock ceiling",
        "raw replay at 8 SSDs: one submission lock admits clock ÷ hold IOPS",
    );
    let devices = 8u32;
    let topo_ops: u64 = if quick_mode() { 4_096 } else { 16_384 };
    let trace = TraceSpec::uniform("topology", seed, devices, 1 << 14, topo_ops).generate();
    let ceiling = agile_workloads::experiments::testbed::experiment_gpu().clock_ghz * 1e9
        / DEFAULT_LOCK_HOLD_CYCLES as f64;
    for system in [ReplaySystem::Agile, ReplaySystem::Bam] {
        let (r, wall_ms) = timed_run(&trace, system, &ReplayConfig::default().striped());
        json.push("topology", r.system.to_lowercase(), r.iops, wall_ms);
        print_row(&[
            ("system", r.system.to_string()),
            ("devices", devices.to_string()),
            ("ops", r.ops.to_string()),
            ("p50_us", format!("{:.2}", r.p50_us)),
            ("p99_us", format!("{:.2}", r.p99_us)),
            ("iops", format!("{:.0}", r.iops)),
            ("of_ceiling", format!("{:.3}", r.iops / ceiling)),
            ("gbps", format!("{:.3}", r.gbps)),
            ("deadlocked", r.deadlocked.to_string()),
        ]);
    }

    print_header(
        "QoS scheduling",
        "9:1 noisy-neighbour mix, 2 tenants, saturated SQs — FIFO vs weighted fair queueing",
    );
    let qos_ops: u64 = if quick_mode() { 4_096 } else { 16_384 };
    let trace = TraceSpec::noisy_neighbor("noisy-neighbor", seed, 2, 1 << 12, qos_ops).generate();
    // Few queue resources + demand-proportional tenant warps ⇒ the noisy
    // tenant keeps every SQ saturated. Latency runs from admission, so the
    // per-tenant p99s show the shared device queue; the policy decides when
    // each tenant is admitted.
    let contended = ReplayConfig {
        total_warps: 32,
        window: 32,
        queue_pairs: 2,
        queue_depth: 32,
        ..ReplayConfig::quick()
    }
    .tenant_partitioned();
    for system in [ReplaySystem::Agile, ReplaySystem::Bam] {
        for qos in [QosSpec::Fifo, QosSpec::WeightedFair(vec![1, 1])] {
            let cfg = ReplayConfig {
                qos: qos.clone(),
                ..contended.clone()
            };
            let (r, wall_ms) = timed_run(&trace, system, &cfg);
            json.push(
                "qos",
                format!("{}/{}", r.system, r.qos).to_lowercase(),
                r.iops,
                wall_ms,
            );
            let victim = &r.tenants[1];
            let noisy = &r.tenants[0];
            print_row(&[
                ("system", r.system.to_string()),
                ("qos", r.qos.to_string()),
                ("ops", r.ops.to_string()),
                ("noisy_p99_us", format!("{:.2}", noisy.p99_us)),
                ("victim_p50_us", format!("{:.2}", victim.p50_us)),
                ("victim_p99_us", format!("{:.2}", victim.p99_us)),
                ("iops", format!("{:.0}", r.iops)),
                ("deadlocked", r.deadlocked.to_string()),
            ]);
        }
    }

    print_header(
        "Cached-path noisy neighbour",
        "uniform flood vs Zipf hot-set reader through the HBM cache — \
         clock vs TenantShare eviction (AGILE; BaM hard-codes clock)",
    );
    let cn_ops: u64 = if quick_mode() { 6_144 } else { 16_384 };
    let trace =
        TraceSpec::cached_noisy_neighbor("cached-noisy", seed, 1, 1 << 13, cn_ops).generate();
    let cached_contended = ReplayConfig {
        queue_pairs: 8,
        queue_depth: 128,
        ..ReplayConfig::quick()
    }
    .cached()
    .tenant_partitioned();
    for policy in ["clock", "tenant-share"] {
        let cfg = if policy == "clock" {
            cached_contended.clone()
        } else {
            cached_contended.clone().tenant_share(vec![1, 1])
        };
        let (r, wall_ms) = timed_run(&trace, ReplaySystem::Agile, &cfg);
        json.push("cached-noisy", policy.to_string(), r.iops, wall_ms);
        let victim_cache = r.tenant_cache.iter().find(|t| t.tenant == 1);
        let victim = &r.tenants[1];
        print_row(&[
            ("system", r.system.to_string()),
            ("policy", policy.to_string()),
            ("ops", r.ops.to_string()),
            (
                "victim_hit_rate",
                victim_cache.map_or("-".into(), |t| format!("{:.3}", t.hit_rate())),
            ),
            (
                "victim_occ",
                victim_cache.map_or("-".into(), |t| t.occupancy.to_string()),
            ),
            (
                "victim_evictions",
                victim_cache.map_or("-".into(), |t| t.evictions.to_string()),
            ),
            ("victim_p50_us", format!("{:.2}", victim.p50_us)),
            ("victim_p99_us", format!("{:.2}", victim.p99_us)),
            ("iops", format!("{:.0}", r.iops)),
            ("deadlocked", r.deadlocked.to_string()),
        ]);
    }

    print_header(
        "Prefetch depth × eviction policy",
        "cached replay: AGILE batch-ahead depth {0,1,2,4} under clock and \
         TenantShare vs the demand-fill BaM baseline — the AGILE-vs-BaM \
         cached-replay gap is this pipeline-depth/cache-pressure trade",
    );
    for depth in [0u32, 1, 2, 4] {
        for policy in ["clock", "tenant-share"] {
            let mut cfg = cached_contended.clone().with_prefetch_depth(depth);
            if policy == "tenant-share" {
                cfg = cfg.tenant_share(vec![1, 1]);
            }
            let (r, wall_ms) = timed_run(&trace, ReplaySystem::Agile, &cfg);
            json.push(
                "prefetch",
                format!("depth{depth}/{policy}"),
                r.iops,
                wall_ms,
            );
            print_row(&[
                ("system", r.system.to_string()),
                ("depth", depth.to_string()),
                ("policy", policy.to_string()),
                ("ops", r.ops.to_string()),
                ("p50_us", format!("{:.2}", r.p50_us)),
                ("p99_us", format!("{:.2}", r.p99_us)),
                ("iops", format!("{:.0}", r.iops)),
                ("deadlocked", r.deadlocked.to_string()),
            ]);
        }
    }
    // The synchronous baseline: no prefetch by construction, clock fixed.
    let (bam, bam_wall_ms) = timed_run(&trace, ReplaySystem::Bam, &cached_contended);
    json.push("prefetch", "bam".to_string(), bam.iops, bam_wall_ms);
    print_row(&[
        ("system", bam.system.to_string()),
        ("depth", "-".to_string()),
        ("policy", "clock".to_string()),
        ("ops", bam.ops.to_string()),
        ("p50_us", format!("{:.2}", bam.p50_us)),
        ("p99_us", format!("{:.2}", bam.p99_us)),
        ("iops", format!("{:.0}", bam.iops)),
        ("deadlocked", bam.deadlocked.to_string()),
    ]);

    print_header(
        "Engine scheduler",
        "ready-queue vs full-scan on the same large replay: identical simulated \
         results, wall time and rounds are the delta",
    );
    let eng_ops: u64 = if quick_mode() { 16_384 } else { 65_536 };
    let trace = TraceSpec::multi_tenant("engine-sched", seed, 4, 1 << 16, eng_ops).generate();
    // A *large* replay: 1024 resident warps is what the full scan pays for
    // on every round, while the ready-queue only touches the warps that are
    // due. The per-warp window stays small so most warps sit stalled on
    // in-flight I/O at any instant.
    let base = ReplayConfig {
        total_warps: 1024,
        window: 8,
        ..ReplayConfig::default()
    };
    // AGILE only: the synchronous BaM warps busy-poll every 500 cycles, so
    // nearly every warp is due on every round and a scheduler comparison
    // mostly re-measures the polling model (it shows a similar cut, at ~30×
    // the bench wall time).
    let mut wall_ms = [0.0f64; 2];
    for (i, sched) in [EngineSched::EventQueue, EngineSched::FullScan]
        .into_iter()
        .enumerate()
    {
        let cfg = base.clone().with_engine_sched(sched);
        let (r, ms) = timed_run(&trace, ReplaySystem::Agile, &cfg);
        wall_ms[i] = ms;
        json.push(
            "engine-sched",
            format!("{sched:?}").to_lowercase(),
            r.iops,
            ms,
        );
        print_row(&[
            ("system", r.system.to_string()),
            ("sched", format!("{sched:?}").to_lowercase()),
            ("ops", r.ops.to_string()),
            ("iops", format!("{:.0}", r.iops)),
            ("rounds", r.engine_rounds.to_string()),
            ("wall_ms", format!("{:.0}", wall_ms[i])),
            ("deadlocked", r.deadlocked.to_string()),
        ]);
    }
    print_row(&[(
        "ready_queue_speedup",
        format!("{:.1}x", wall_ms[1] / wall_ms[0]),
    )]);

    if let Some(path) = json_path() {
        json.write(&path);
    }
}
