//! One workload, one process: the measured (`--trace 0`) and the traced
//! (`--trace 1`) run, and the result object each prints.

use crate::catalog::{self, MetricDef};
use crate::drivers;
use crate::json::Json;
use crate::spans::{self, JoinReport};
use crate::workloads::{cycles_to_us, Instruments, Outcome, Scale, Side, Workload};
use agile_repro::metrics::{Labels, MetricsSnapshot};
use std::time::Instant;

/// Fewest repeats of the run phase, however short `--seconds` is.
const MIN_REPEATS: usize = 3;
/// Share of `--seconds` the traced mode spends on untraced repeats (the
/// reference for `metrics.trace_overhead_pct` and the `est_*_share`s).
const UNTRACED_SHARE: f64 = 0.4;
/// Calls per batch of the isolated drivers.
const DRIVER_CALLS: u64 = 1 << 20;
const SMOKE_DRIVER_CALLS: u64 = 1 << 14;

/// What one invocation measured.
pub struct Run {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Everything a reader wants beside the bare values: sample counts,
    /// quartiles, what the speed-up divides by, how the caches started.
    pub detail: Json,
}

impl Run {
    /// The contract's result object.
    pub fn result_line(&self) -> Json {
        let metrics = self.metrics.iter().map(|&(name, value)| {
            (
                name,
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::str(catalog::unit_of(name))),
                ]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// `(first quartile, median, third quartile)` of `samples` (non-empty).
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (sorted.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// The fastest repeat. The run phase is deterministic work, and interference
/// on a shared host only ever adds time to it (measured here: the whole
/// machine drifts by ±5 % over tens of seconds), so the minimum is the
/// steadiest estimate of what the code costs when left alone.
fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

fn quartiles_json(samples: &[f64]) -> Json {
    let (q1, median, q3) = quartiles(samples);
    Json::obj([
        ("n", Json::from(samples.len() as u64)),
        ("min", Json::Num(fastest(samples))),
        ("q1", Json::Num(q1)),
        ("median", Json::Num(median)),
        ("q3", Json::Num(q3)),
    ])
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Repeated set-up + run of the primary side, every repeat checked against
/// the first.
struct Repeats {
    first: Outcome,
    setup_s: Vec<f64>,
    run_ns: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Every repeat produced the first one's simulated numbers.
    identical: bool,
}

fn repeat_primary(workload: &dyn Workload, seed: u64, scale: Scale, seconds: f64) -> Repeats {
    let start = Instant::now();
    let mut repeats: Option<Repeats> = None;
    loop {
        let setup_start = Instant::now();
        let prepared = workload.prepare(seed, scale, Side::Primary, None);
        let setup_s = setup_start.elapsed().as_secs_f64();
        let outcome = prepared.run();
        let r = repeats.get_or_insert_with(|| Repeats {
            first: outcome.clone(),
            setup_s: Vec::new(),
            run_ns: Vec::new(),
            attempted: 0,
            failed: 0,
            identical: true,
        });
        r.setup_s.push(setup_s);
        r.run_ns.push(outcome.host_run_ns as f64);
        r.attempted += outcome.ops;
        if outcome.sim_fingerprint() == r.first.sim_fingerprint() {
            r.failed += outcome.ops - outcome.verified;
        } else {
            // A simulated number moved between two runs of one input: none
            // of this repeat's operations can be trusted.
            r.identical = false;
            r.failed += outcome.ops;
        }
        if r.run_ns.len() >= MIN_REPEATS && start.elapsed().as_secs_f64() >= seconds {
            return repeats.expect("at least one repeat ran");
        }
    }
}

fn run_baseline(workload: &dyn Workload, seed: u64, scale: Scale) -> Outcome {
    workload.prepare(seed, scale, Side::Baseline, None).run()
}

/// `|speedup − paper| ÷ paper`, in percent.
fn paper_gap_pct(speedup: f64, paper: f64) -> f64 {
    (speedup - paper).abs() / paper * 100.0
}

/// What every detail line starts with.
fn detail_head(
    workload: &dyn Workload,
    seed: u64,
    mode: &str,
    primary: &Outcome,
    baseline: &Outcome,
) -> Vec<(&'static str, Json)> {
    let speedup = baseline.sim_cycles as f64 / primary.sim_cycles as f64;
    vec![
        ("workload", Json::str(workload.name())),
        ("mode", Json::str(mode)),
        ("seed", Json::from(seed)),
        ("ops", Json::from(primary.ops)),
        (
            "loop",
            Json::str("closed: fixed warps, bounded window each"),
        ),
        ("cache_start", Json::str(workload.cache_start())),
        ("sim_speedup_base", Json::str(workload.baseline())),
        (
            "paper",
            match workload.paper_speedup() {
                Some(paper) => Json::obj([
                    ("reference_speedup", Json::Num(paper)),
                    ("gap_pct", Json::Num(paper_gap_pct(speedup, paper))),
                ]),
                None => Json::str("unvalidated"),
            },
        ),
        ("sim_elapsed_us", Json::Num(primary.sim_secs() * 1e6)),
        (
            "baseline_sim_elapsed_us",
            Json::Num(baseline.sim_secs() * 1e6),
        ),
    ]
}

/// `--trace 0`: the end-to-end metrics, tracing off.
pub fn run_end_to_end(workload: &dyn Workload, seed: u64, scale: Scale, seconds: f64) -> Run {
    // The baseline side is deterministic: once, outside the timed repeats.
    let baseline = run_baseline(workload, seed, scale);
    let r = repeat_primary(workload, seed, scale, seconds);
    let ops = r.first.ops as f64;
    let run_ns = fastest(&r.run_ns);
    let (_, setup_s, _) = quartiles(&r.setup_s);
    let value = |def: &MetricDef| match def.name {
        "sim_iops" => r.first.sim_iops(),
        "sim_speedup" => baseline.sim_cycles as f64 / r.first.sim_cycles as f64,
        "host_ns_per_io" => run_ns / ops,
        "host_peak_rss_mb" => peak_rss_mb(),
        "setup_s" => setup_s,
        other => unreachable!("end-to-end metric {other} has no definition"),
    };
    let metrics = catalog::END_TO_END
        .iter()
        .map(|d| (d.name, value(d)))
        .collect();
    let mut detail = detail_head(workload, seed, "end_to_end", &r.first, &baseline);
    detail.push(("host_run_ns", quartiles_json(&r.run_ns)));
    detail.push(("setup_s", quartiles_json(&r.setup_s)));
    detail.push(("sim_repeats_identical", Json::Bool(r.identical)));
    Run {
        correct: r.failed == 0 && baseline.verified == r.first.verified,
        attempted: r.attempted + baseline.ops,
        failed: r.failed + (baseline.ops - baseline.verified),
        metrics,
        detail: Json::obj(detail),
    }
}

/// Sum of metric family `name` over every label set.
fn total(snapshot: &MetricsSnapshot, name: &str) -> f64 {
    snapshot.family(name).map(|s| s.value.as_u64()).sum::<u64>() as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `--trace 1`: the per-layer metrics. Untraced repeats first (the reference
/// host time), then one run with the registry, the event sink and the
/// decorators on, then the baseline, then the isolated drivers.
pub fn run_traced(workload: &dyn Workload, seed: u64, scale: Scale, seconds: f64) -> Run {
    let untraced = repeat_primary(workload, seed, scale, seconds * UNTRACED_SHARE);
    let untraced_ns = fastest(&untraced.run_ns);

    let instr = Instruments::new();
    let root = instr.spans.open_root("workload");
    let setup = instr.spans.open("setup", root.id());
    let prepared = workload.prepare(seed, scale, Side::Primary, Some(&instr));
    let setup_ns = instr.spans.close(setup, 0);
    let traced = prepared.run();
    let (run_kernel_ns, step_ns) = instr.spans.run_kernel_totals();
    instr.spans.close(root, setup_ns + run_kernel_ns);
    instr.sampler.finish(traced.sim_end);
    let snapshot = instr.registry.snapshot();
    let events = instr.sink.take_events();
    let join = spans::join(&events);
    let same_sim = traced.sim_fingerprint() == untraced.first.sim_fingerprint();

    let baseline = run_baseline(workload, seed, scale);
    let extras = workload.extra_layer_metrics(seed, scale, &untraced.first, &baseline);
    let drivers = drivers::run_all(scale.pick(DRIVER_CALLS, SMOKE_DRIVER_CALLS));
    let driver = |name: &str| {
        drivers
            .iter()
            .find(|d| d.metric == name)
            .map_or(0.0, |d| d.value)
    };

    let us =
        |h: &agile_repro::trace::LatencyHistogram, q: f64| cycles_to_us(h.quantile(q).unwrap_or(0));
    let (busy, stall, done) = instr.spans.step_counts();
    let steps = (busy + stall + done) as f64;
    let (accessor_calls, accessor_ns) = instr.spans.accessor_totals();
    let admissions = total(&snapshot, "agile_submit_admissions_total");
    let sq_full = total(&snapshot, "agile_submit_sq_full_retries_total");
    let deferrals = total(&snapshot, "agile_submit_qos_deferrals_total");
    let (svc_busy, svc_idle) = (
        total(&snapshot, "agile_service_busy_rounds_total"),
        total(&snapshot, "agile_service_idle_rounds_total"),
    );
    let (reads, writes) = (
        total(&snapshot, "agile_device_reads_completed_total"),
        total(&snapshot, "agile_device_writes_completed_total"),
    );
    let device_bytes = total(&snapshot, "agile_device_bytes_read_total")
        + total(&snapshot, "agile_device_bytes_written_total");
    let (hits, misses) = (
        total(&snapshot, "agile_cache_hits_total"),
        total(&snapshot, "agile_cache_misses_total"),
    );
    let victim = Labels::tenant(1);
    let (victim_hits, victim_misses) = (
        snapshot.counter("agile_cache_tenant_hits_total", victim) as f64,
        snapshot.counter("agile_cache_tenant_misses_total", victim) as f64,
    );
    let speedup = baseline.sim_cycles as f64 / untraced.first.sim_cycles as f64;
    let (baseline_p50, baseline_p99) = baseline.latency_us.unwrap_or((0.0, 0.0));
    let (p50, p99) = traced.latency_us.unwrap_or((0.0, 0.0));

    let value = |def: &MetricDef| -> f64 {
        if let Some(&(_, v)) = extras.iter().find(|(name, _)| *name == def.name) {
            return v;
        }
        match def.name {
            "gpu-sim.rounds" => traced.rounds as f64,
            "gpu-sim.warp_steps" => total(&snapshot, "agile_engine_warp_steps_total"),
            "gpu-sim.stale_wakes" => total(&snapshot, "agile_engine_stale_wakes_total"),
            "gpu-sim.ready_queue_high_water" => {
                total(&snapshot, "agile_engine_ready_queue_high_water")
            }
            "gpu-sim.useful_step_ratio" => ratio((busy + done) as f64, steps),
            "gpu-sim.launches" => traced.launches as f64,
            "gpu-sim.engine_self_host_ns_per_round" => ratio(
                run_kernel_ns.saturating_sub(step_ns) as f64,
                traced.rounds as f64,
            ),
            "workloads.sim_p50_us" => p50,
            "workloads.sim_p99_us" => p99,
            "workloads.stall_step_share" => ratio(stall as f64, steps),
            "workloads.accessor_calls" => accessor_calls as f64,
            "workloads.warp_step_host_ns" => ratio(step_ns as f64, steps),
            "workloads.accessor_host_ns" => ratio(accessor_ns as f64, accessor_calls as f64),
            "core.submit_admissions" => admissions,
            "core.sq_full_retries" => sq_full,
            "core.qos_deferrals" => deferrals,
            "core.admit_ratio" => ratio(admissions, admissions + sq_full + deferrals),
            "core.lock_acquires" => total(&snapshot, "agile_submit_lock_acquires_total"),
            "core.lock_wait_cycles" => total(&snapshot, "agile_submit_lock_wait_cycles_total"),
            "core.service_completions" => total(&snapshot, "agile_service_completions_total"),
            "core.service_busy_share" => ratio(svc_busy, svc_busy + svc_idle),
            "core.submit_to_doorbell_us_p50" => us(&join.submit_to_doorbell, 0.5),
            "core.service_pickup_us_p50" => us(&join.service_pickup, 0.5),
            "core.service_pickup_us_p99" => us(&join.service_pickup, 0.99),
            "core.victim_p99_us" => traced.victim_p99_us.unwrap_or(0.0),
            "core.est_submit_share" => {
                ratio(admissions * driver("core.sq_issue_host_ns"), untraced_ns)
            }
            "nvme-sim.reads_completed" => reads,
            "nvme-sim.writes_completed" => writes,
            "nvme-sim.doorbells" => total(&snapshot, "agile_device_doorbells_total"),
            "nvme-sim.cq_stalls" => total(&snapshot, "agile_device_cq_stalls_total"),
            "nvme-sim.errors" => total(&snapshot, "agile_device_errors_total"),
            "nvme-sim.gbps_per_ssd" => ratio(
                device_bytes / 1e9,
                traced.sim_secs() * traced.devices as f64,
            ),
            "nvme-sim.device_service_us_p50" => us(&join.device_service, 0.5),
            "nvme-sim.device_service_us_p99" => us(&join.device_service, 0.99),
            "nvme-sim.est_device_share" => ratio(
                (reads + writes) * driver("nvme-sim.advance_host_ns_per_cmd"),
                untraced_ns,
            ),
            "cache.hits" => hits,
            "cache.misses" => misses,
            "cache.busy_hits" => total(&snapshot, "agile_cache_busy_hits_total"),
            "cache.no_line" => total(&snapshot, "agile_cache_no_line_total"),
            "cache.evictions" => total(&snapshot, "agile_cache_evictions_total"),
            "cache.writebacks" => total(&snapshot, "agile_cache_writebacks_total"),
            "cache.hit_rate" => ratio(hits, hits + misses),
            "cache.victim_hit_rate" => ratio(victim_hits, victim_hits + victim_misses),
            "cache.est_lookup_share" => ratio(
                hits * driver("cache.lookup_hit_host_ns")
                    + misses * driver("cache.lookup_miss_host_ns"),
                untraced_ns,
            ),
            "baseline.sim_iops" => baseline.sim_iops(),
            "baseline.sim_p50_us" => baseline_p50,
            "baseline.sim_p99_us" => baseline_p99,
            "baseline.rounds" => baseline.rounds as f64,
            "baseline.host_ns_per_io" => ratio(baseline.host_run_ns as f64, baseline.ops as f64),
            "trace.captured_events" => events.len() as f64,
            "trace.join_violations" => join.violations() as f64,
            "metrics.samples" => snapshot.samples.len() as f64,
            "metrics.windows" => instr.sampler.window_count() as f64,
            "metrics.trace_overhead_pct" => {
                (ratio(traced.host_run_ns as f64, untraced_ns) - 1.0) * 100.0
            }
            "control.decisions" => total(&snapshot, "agile_ctrl_decisions_total"),
            "control.slo_violations" => total(&snapshot, "agile_ctrl_slo_violations_total"),
            "control.final_prefetch_depth" => total(&snapshot, "agile_ctrl_prefetch_depth"),
            "paper.gap_pct" => workload
                .paper_speedup()
                .map_or(-1.0, |paper| paper_gap_pct(speedup, paper)),
            // Ratios only the graph workload measures.
            "core.io_overhead_ratio_vs_bam" | "cache.api_overhead_ratio_vs_bam" => 0.0,
            name => driver(name),
        }
    };
    let metrics: Vec<_> = catalog::PER_LAYER
        .iter()
        .map(|d| (d.name, value(d)))
        .collect();

    let trace_file = write_trace_file(workload.name(), &instr, &join);
    let mut detail = detail_head(workload, seed, "traced", &untraced.first, &baseline);
    detail.push(("untraced_host_run_ns", quartiles_json(&untraced.run_ns)));
    detail.push(("traced_host_run_ns", Json::from(traced.host_run_ns)));
    detail.push(("traced_run_simulates_the_same", Json::Bool(same_sim)));
    detail.push(("baseline_host_runs", Json::from(1u64)));
    detail.push((
        "drivers",
        Json::obj(drivers.iter().map(|d| {
            (
                d.metric,
                Json::obj([
                    ("calls_per_batch", Json::from(d.calls)),
                    ("batches", Json::from(drivers::REPEATS as u64)),
                ]),
            )
        })),
    ));
    detail.push((
        "est_shares",
        Json::str("traced count x isolated per-call cost / untraced run time: a rough outside-in estimate"),
    ));
    detail.push(("trace_file", trace_file.map_or(Json::Null, Json::Str)));

    let lost = (traced.ops - traced.verified) + join.violations();
    let failed = untraced.failed + if same_sim { lost } else { traced.ops };
    Run {
        correct: failed == 0 && baseline.verified == traced.verified,
        attempted: untraced.attempted + traced.ops,
        failed,
        metrics,
        detail: Json::obj(detail),
    }
}

/// Write the host-time spans and the simulated-time stage summary to
/// `out/<workload>.trace.json` inside the benchmark's directory.
fn write_trace_file(workload: &str, instr: &Instruments, join: &JoinReport) -> Option<String> {
    let stage = |h: &agile_repro::trace::LatencyHistogram| {
        Json::obj([
            ("n", Json::from(h.count())),
            ("p50_us", Json::Num(cycles_to_us(h.p50().unwrap_or(0)))),
            ("p99_us", Json::Num(cycles_to_us(h.p99().unwrap_or(0)))),
            ("max_us", Json::Num(cycles_to_us(h.max().unwrap_or(0)))),
        ])
    };
    let sim = Json::obj([
        (
            "clock",
            Json::str("simulated; joined per (dev, queue, cid)"),
        ),
        ("submits", Json::from(join.submits)),
        ("joined", Json::from(join.joined)),
        ("orphan_submits", Json::from(join.orphan_submits)),
        (
            "writes_in_flight_at_end",
            Json::from(join.writes_in_flight_at_end),
        ),
        ("stray_completions", Json::from(join.stray_completions)),
        ("submit_to_doorbell", stage(&join.submit_to_doorbell)),
        ("doorbell_to_device_completion", stage(&join.device_service)),
        ("device_to_service_completion", stage(&join.service_pickup)),
    ]);
    let mut doc = instr.spans.to_json(workload);
    if let Json::Obj(pairs) = &mut doc {
        pairs.push(("simulated_stages".to_string(), sim));
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{workload}.trace.json"));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc.render_pretty()));
    match written {
        Ok(()) => Some(path.display().to_string()),
        Err(err) => {
            eprintln!("agile-benchmark: cannot write {}: {err}", path.display());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_like_a_median() {
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        assert_eq!(quartiles(&[1.0, 3.0]).1, 2.0);
        let (q1, median, q3) = quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((q1, median, q3), (2.0, 3.0, 4.0));
    }

    #[test]
    fn paper_gap_is_relative_to_the_paper() {
        assert!((paper_gap_pct(1.0, 2.0) - 50.0).abs() < 1e-12);
        assert!((paper_gap_pct(2.2, 2.0) - 10.0).abs() < 1e-9);
    }
}
