//! The metric catalogue: every name the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` lists the same names; the smoke test fails when
//! the two drift apart.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end only).
    pub bound: Option<f64>,
    /// Simulated clock (repeats exactly) or host clock (noisy).
    pub simulated: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    simulated: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        simulated,
    }
}

const fn sim(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        simulated: true,
    }
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        simulated: false,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by `--trace 0` on every workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("sim_iops", "1/s", Higher, 0.15, true),
    e2e("sim_speedup", "ratio", Higher, 0.15, true),
    e2e("host_ns_per_io", "ns", Lower, 0.25, false),
    e2e("host_peak_rss_mb", "MB", Lower, 0.10, false),
    e2e("setup_s", "s", Lower, 0.25, false),
];

/// Per-layer metrics, reported by `--trace 1` on every workload (0 where the
/// layer does no work; `paper.gap_pct` is -1 where the repository holds no
/// reference value).
pub const PER_LAYER: &[MetricDef] = &[
    // gpu-sim
    sim("gpu-sim.rounds", "count", Lower),
    sim("gpu-sim.warp_steps", "count", Lower),
    sim("gpu-sim.stale_wakes", "count", Lower),
    sim("gpu-sim.ready_queue_high_water", "count", Lower),
    sim("gpu-sim.useful_step_ratio", "ratio", Higher),
    sim("gpu-sim.launches", "count", Lower),
    host("gpu-sim.engine_self_host_ns_per_round", "ns", Lower),
    host("gpu-sim.compute_only_host_ns_per_step", "ns", Lower),
    // workloads
    sim("workloads.sim_p50_us", "us", Lower),
    sim("workloads.sim_p99_us", "us", Lower),
    sim("workloads.stall_step_share", "ratio", Lower),
    sim("workloads.accessor_calls", "count", Lower),
    host("workloads.warp_step_host_ns", "ns", Lower),
    host("workloads.accessor_host_ns", "ns", Lower),
    // core
    sim("core.submit_admissions", "count", Lower),
    sim("core.sq_full_retries", "count", Lower),
    sim("core.qos_deferrals", "count", Lower),
    sim("core.admit_ratio", "ratio", Higher),
    sim("core.lock_acquires", "count", Lower),
    sim("core.lock_wait_cycles", "cycles", Lower),
    sim("core.service_completions", "count", Higher),
    sim("core.service_busy_share", "ratio", Higher),
    sim("core.submit_to_doorbell_us_p50", "us", Lower),
    sim("core.service_pickup_us_p50", "us", Lower),
    sim("core.service_pickup_us_p99", "us", Lower),
    sim("core.victim_p99_us", "us", Lower),
    sim("core.io_overhead_ratio_vs_bam", "ratio", Higher),
    host("core.sq_issue_host_ns", "ns", Lower),
    host("core.coalesce_host_ns", "ns", Lower),
    host("core.wfq_admit_host_ns", "ns", Lower),
    host("core.est_submit_share", "ratio", Lower),
    // nvme-sim
    sim("nvme-sim.reads_completed", "count", Lower),
    sim("nvme-sim.writes_completed", "count", Lower),
    sim("nvme-sim.doorbells", "count", Lower),
    sim("nvme-sim.cq_stalls", "count", Lower),
    sim("nvme-sim.errors", "count", Lower),
    sim("nvme-sim.gbps_per_ssd", "GB/s", Higher),
    sim("nvme-sim.device_service_us_p50", "us", Lower),
    sim("nvme-sim.device_service_us_p99", "us", Lower),
    host("nvme-sim.advance_host_ns_per_cmd", "ns", Lower),
    host("nvme-sim.est_device_share", "ratio", Lower),
    // cache
    sim("cache.hits", "count", Higher),
    sim("cache.misses", "count", Lower),
    sim("cache.busy_hits", "count", Lower),
    sim("cache.no_line", "count", Lower),
    sim("cache.evictions", "count", Lower),
    sim("cache.writebacks", "count", Lower),
    sim("cache.hit_rate", "ratio", Higher),
    sim("cache.victim_hit_rate", "ratio", Higher),
    sim("cache.api_overhead_ratio_vs_bam", "ratio", Higher),
    host("cache.lookup_hit_host_ns", "ns", Lower),
    host("cache.lookup_miss_host_ns", "ns", Lower),
    host("cache.share_table_host_ns", "ns", Lower),
    host("cache.est_lookup_share", "ratio", Lower),
    // the baseline side of sim_speedup (crate `bam` on five workloads)
    sim("baseline.sim_iops", "1/s", Lower),
    sim("baseline.sim_p50_us", "us", Higher),
    sim("baseline.sim_p99_us", "us", Higher),
    sim("baseline.rounds", "count", Lower),
    host("baseline.host_ns_per_io", "ns", Lower),
    // trace
    sim("trace.captured_events", "count", Lower),
    sim("trace.join_violations", "count", Lower),
    host("trace.generate_host_ns_per_op", "ns", Lower),
    host("trace.encode_host_ns_per_event", "ns", Lower),
    host("trace.decode_host_ns_per_event", "ns", Lower),
    // metrics
    sim("metrics.samples", "count", Lower),
    sim("metrics.windows", "count", Lower),
    host("metrics.trace_overhead_pct", "%", Lower),
    host("metrics.counter_inc_host_ns", "ns", Lower),
    host("metrics.snapshot_host_us", "us", Lower),
    // control
    sim("control.decisions", "count", Lower),
    sim("control.slo_violations", "count", Lower),
    sim("control.final_prefetch_depth", "count", Lower),
    // fidelity against the paper
    sim("paper.gap_pct", "%", Lower),
];

/// Unit of metric `name`, from either list.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}
