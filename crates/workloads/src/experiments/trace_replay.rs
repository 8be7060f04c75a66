//! Trace-replay experiment runner: feed a [`Trace`] through AGILE or BaM and
//! report latency percentiles plus throughput.
//!
//! This is the first experiment in the repository that reports a latency
//! *distribution* (p50/p95/p99) rather than only aggregate bandwidth, which
//! is what production serving cares about. The runner is deterministic: the
//! same trace and configuration produce a byte-identical
//! [`ReplayReport::summary`], a property the integration tests assert.

use crate::experiments::testbed::experiment_gpu;
use crate::trace_replay::{
    AgileTraceReplayKernel, BamTraceReplayKernel, ReplayCollector, ReplayPath, TraceReplayParams,
};
use agile_cache::{CacheStats, TenantCacheStats};
use agile_control::{ControlPolicy, ControlReport, SloSpec};
use agile_core::config::CachePolicyKind;
use agile_core::qos::{Fifo, QosPolicy, WeightedFair};
use agile_core::service::ServiceStats;
use agile_core::{AgileConfig, Host, HostSystem, IoStats, StorageCtrl};
use agile_metrics::{
    windows_to_json, Labels, MetricsRegistry, MetricsSnapshot, WindowSample, WindowedSampler,
    DEFAULT_WINDOW_CYCLES,
};
use agile_sim::trace::TraceSink;
use agile_sim::units::SSD_PAGE_SIZE;
use agile_trace::Trace;
use bam_baseline::{BamConfig, HostBuilder};
use gpu_sim::{EngineSched, LaunchConfig};
use std::sync::Arc;

/// Which QoS policy a replay installs on the host's submission path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QosSpec {
    /// First-come-first-served slot race — the pre-QoS behaviour, bit-for-bit
    /// (the golden-trace suite asserts this).
    Fifo,
    /// Deficit-round-robin weighted fair queueing; weights indexed by tenant
    /// id (missing tenants weigh 1).
    WeightedFair(Vec<u64>),
}

impl QosSpec {
    /// Short lowercase name, matching [`QosPolicy::name`].
    pub fn name(&self) -> &'static str {
        match self {
            QosSpec::Fifo => "fifo",
            QosSpec::WeightedFair(_) => "wfq",
        }
    }

    /// Instantiate the policy this spec describes.
    pub fn policy(&self) -> Arc<dyn QosPolicy> {
        match self {
            QosSpec::Fifo => Arc::new(Fifo),
            QosSpec::WeightedFair(weights) => Arc::new(WeightedFair::from_weights(weights)),
        }
    }
}

/// Which system replays the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplaySystem {
    /// Asynchronous AGILE stack (background service recycles SQEs).
    Agile,
    /// Synchronous BaM baseline (user threads poll their own completions).
    Bam,
}

impl ReplaySystem {
    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ReplaySystem::Agile => "AGILE",
            ReplaySystem::Bam => "BaM",
        }
    }
}

/// Per-tenant latency percentiles of one replay run.
#[derive(Debug, Clone)]
pub struct TenantLatency {
    /// Tenant id from the trace ops.
    pub tenant: u32,
    /// Ops this tenant completed.
    pub ops: u64,
    /// Median request latency in microseconds.
    pub p50_us: f64,
    /// 95th-percentile request latency in microseconds.
    pub p95_us: f64,
    /// 99th-percentile request latency in microseconds.
    pub p99_us: f64,
}

/// Metrics captured by an instrumented replay ([`ReplayConfig::with_metrics`]):
/// the final registry snapshot plus the sampler's windowed time series.
#[derive(Debug, Clone)]
pub struct MetricsReport {
    /// End-of-run registry snapshot (counters are cumulative totals).
    pub snapshot: MetricsSnapshot,
    /// Per-window registry deltas, in time order.
    pub windows: Vec<WindowSample>,
    /// Sampler window width in simulated cycles.
    pub window_cycles: u64,
    /// GPU clock in GHz, for cycle → wall-time conversions.
    pub clock_ghz: f64,
}

impl MetricsReport {
    /// Per-window replay throughput of `tenant` in IOPS (the rate of
    /// `agile_replay_ops_total{tenant}` over each window).
    pub fn tenant_windowed_iops(&self, tenant: u32) -> Vec<f64> {
        self.windows
            .iter()
            .map(|w| {
                w.rate(
                    "agile_replay_ops_total",
                    Labels::tenant(tenant),
                    self.clock_ghz,
                )
            })
            .collect()
    }

    /// Per-window p99 replay latency of `tenant` in microseconds (`None` for
    /// windows where the tenant completed nothing).
    pub fn tenant_windowed_p99_us(&self, tenant: u32) -> Vec<Option<f64>> {
        let cycles_per_us = self.clock_ghz * 1_000.0;
        self.windows
            .iter()
            .map(|w| {
                w.deltas
                    .histo("agile_replay_latency_cycles", Labels::tenant(tenant))
                    .and_then(|h| h.p99())
                    .map(|c| c as f64 / cycles_per_us)
            })
            .collect()
    }

    /// JSON object with the window width, the final snapshot and the window
    /// series (snapshot/window formats from [`MetricsSnapshot::to_json`]).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"window_cycles\":{},\"snapshot\":{},\"windows\":{}}}",
            self.window_cycles,
            self.snapshot.to_json(),
            windows_to_json(&self.windows)
        )
    }
}

/// Latency + throughput results of one replay run.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// System that ran the trace.
    pub system: &'static str,
    /// Name from the trace metadata.
    pub trace_name: String,
    /// Ops completed (reads + writes).
    pub ops: u64,
    /// Completed reads.
    pub reads: u64,
    /// Completed writes.
    pub writes: u64,
    /// End-to-end simulated time in cycles.
    pub elapsed_cycles: u64,
    /// Median request latency in microseconds.
    pub p50_us: f64,
    /// 95th-percentile request latency in microseconds.
    pub p95_us: f64,
    /// 99th-percentile request latency in microseconds.
    pub p99_us: f64,
    /// Mean request latency in microseconds.
    pub mean_us: f64,
    /// Aggregate request throughput in IOPS.
    pub iops: f64,
    /// Aggregate data throughput in GB/s.
    pub gbps: f64,
    /// True when the engine flagged the run as deadlocked.
    pub deadlocked: bool,
    /// Name of the QoS policy the run was scheduled under (`fifo` when none).
    pub qos: &'static str,
    /// Per-tenant latency percentiles, ordered by tenant id.
    pub tenants: Vec<TenantLatency>,
    /// Cache replacement policy of the run (`clock` when default).
    pub cache_policy: &'static str,
    /// Effective cached-path prefetch depth (batches of lookahead; 1 =
    /// historical). Always 1 for runs that cannot prefetch (BaM, raw path).
    pub prefetch_depth: u32,
    /// Per-tenant cache accounting (hits/misses/fills/evictions and final
    /// occupancy), ordered by tenant id. Populated only for tenant-partitioned
    /// runs, where each warp carries exactly one tenant and the attribution
    /// is exact; empty otherwise (warp-as-tenant attribution would be noise).
    pub tenant_cache: Vec<TenantCacheStats>,
    /// The AGILE service's statistics (all zero for BaM, which has none).
    pub service_stats: ServiceStats,
    /// Engine scheduling rounds of the run (not part of the summary: both
    /// engine schedulers replay the same simulated times; rounds, and the
    /// polls counted in `io_stats`, `cache_stats` and `service_stats`, are
    /// what differs).
    pub engine_rounds: u64,
    /// Submissions the QoS scheduler deferred at least once (always 0 under
    /// FIFO, which never defers).
    pub qos_deferrals: u64,
    /// Total cycles warps spent queued on the topology's array lock.
    pub lock_wait_cycles: u64,
    /// The I/O path's end-of-run counters (not part of the summary).
    pub io_stats: IoStats,
    /// The software cache's end-of-run counters (not part of the summary).
    pub cache_stats: CacheStats,
    /// Metrics capture, present when [`ReplayConfig::with_metrics`] was set.
    pub metrics: Option<MetricsReport>,
    /// Closed-loop control capture (decision log + final knob values),
    /// present when [`ReplayConfig::with_control`] was set.
    pub control: Option<ControlReport>,
}

impl ReplayReport {
    /// Deterministic one-line summary (fixed precision, fixed field order) —
    /// two runs of the same trace + seed produce byte-identical strings.
    /// Per-tenant percentiles are appended in tenant-id order.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} trace={} ops={} reads={} writes={} p50={:.2}us p95={:.2}us p99={:.2}us mean={:.2}us iops={:.0} bw={:.3}GB/s deadlocked={}",
            self.system,
            self.trace_name,
            self.ops,
            self.reads,
            self.writes,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.mean_us,
            self.iops,
            self.gbps,
            self.deadlocked
        );
        // The qos field is appended only for non-FIFO runs so the pre-QoS
        // golden summaries stay byte-identical (FIFO ⇒ no behaviour drift,
        // and no format drift either). The same rule covers cache_policy and
        // prefetch_depth: the defaults print nothing.
        if self.qos != "fifo" {
            s.push_str(&format!(" qos={}", self.qos));
        }
        if self.cache_policy != "clock" {
            s.push_str(&format!(" cache={}", self.cache_policy));
        }
        if self.prefetch_depth != 1 {
            s.push_str(&format!(" prefetch={}", self.prefetch_depth));
        }
        // qos_deferrals appears only when the scheduler actually deferred —
        // FIFO never defers, so the pre-QoS goldens stay byte-identical.
        if self.qos_deferrals > 0 {
            s.push_str(&format!(" qos_deferrals={}", self.qos_deferrals));
        }
        for t in &self.tenants {
            s.push_str(&format!(
                " | tenant{} ops={} p50={:.2}us p95={:.2}us p99={:.2}us",
                t.tenant, t.ops, t.p50_us, t.p95_us, t.p99_us
            ));
        }
        // Per-tenant cache rows appear only under a non-default policy, the
        // runs where per-tenant cache behaviour is the point.
        if self.cache_policy != "clock" {
            for t in &self.tenant_cache {
                s.push_str(&format!(
                    " | ct{} hits={} misses={} hr={:.3} evict={} occ={}",
                    t.tenant,
                    t.hits,
                    t.misses,
                    t.hit_rate(),
                    t.evictions,
                    t.occupancy
                ));
            }
        }
        // The control line appears only for controller-on runs: controller
        // off must stay byte-identical to the pre-control goldens (gated by
        // the golden-trace suite).
        if let Some(ctrl) = &self.control {
            s.push_str(&format!(
                " | ctrl windows={} decisions={}",
                ctrl.windows_seen,
                ctrl.decisions.len()
            ));
            if let Some(depth) = ctrl.final_knobs.prefetch_depth {
                s.push_str(&format!(" final_prefetch={depth}"));
            }
        }
        s
    }
}

/// Knobs for [`run_trace_replay`].
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Warps the trace is partitioned across.
    pub total_warps: u64,
    /// Per-warp async window (AGILE raw path; BaM is synchronous by design).
    pub window: usize,
    /// I/O queue pairs per SSD.
    pub queue_pairs: usize,
    /// Queue depth.
    pub queue_depth: u32,
    /// Which I/O path the replay drives (raw or through the software cache).
    pub path: ReplayPath,
    /// Route ops through the topology's page-striping layer (the paper's
    /// interleave over one global page space).
    pub stripe: bool,
    /// QoS policy installed on the host's submission path.
    pub qos: QosSpec,
    /// Cache replacement policy (AGILE only — BaM hard-codes clock, which is
    /// the paper's flexibility-gap point). `TenantShare` + `cache_shares`
    /// bound each tenant's HBM-cache occupancy to a weighted share.
    pub cache_policy: CachePolicyKind,
    /// Per-tenant cache-occupancy weights for `TenantShare` (indexed by
    /// tenant id; empty = equal shares).
    pub cache_shares: Vec<u64>,
    /// Cached-path prefetch depth in batches of lookahead (1 = the
    /// historical one-batch pipeline; 0 = demand fills only).
    pub prefetch_depth: u32,
    /// Software-cache capacity override in bytes (`None` keeps each
    /// system's scaled-down default, 4 MiB). Applies to both systems.
    pub cache_bytes: Option<u64>,
    /// Partition warps by tenant (each warp replays one tenant's ops) — the
    /// per-tenant virtual queues a QoS policy arbitrates. See
    /// [`TraceReplayParams::tenant_warps`].
    pub tenant_warps: bool,
    /// Engine scheduling loop (event-driven ready-queue by default; the
    /// legacy full scan replays bit-identically but visits more rounds).
    pub engine_sched: EngineSched,
    /// Instrument the run with a metrics registry + windowed sampler and
    /// attach the capture to [`ReplayReport::metrics`]. Off by default —
    /// un-instrumented replays are byte-identical to the pre-metrics stack
    /// (the golden suite pins this).
    pub metrics: bool,
    /// Sampler window in simulated cycles (only meaningful with `metrics`).
    pub metrics_window: u64,
    /// Closed-loop control policy bridged into the run (implies `metrics` —
    /// the controller consumes the sampler's windows). `None` leaves the run
    /// byte-identical to the pre-control stack.
    pub control: Option<ControlPolicy>,
    /// Per-tenant SLO targets the controller enforces (only meaningful with
    /// `control`).
    pub slos: Vec<SloSpec>,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            total_warps: 64,
            window: 64,
            queue_pairs: 8,
            queue_depth: 128,
            path: ReplayPath::Raw,
            stripe: false,
            qos: QosSpec::Fifo,
            cache_policy: CachePolicyKind::Clock,
            cache_shares: Vec::new(),
            prefetch_depth: 1,
            cache_bytes: None,
            tenant_warps: false,
            engine_sched: EngineSched::EventQueue,
            metrics: false,
            metrics_window: DEFAULT_WINDOW_CYCLES,
            control: None,
            slos: Vec::new(),
        }
    }
}

impl ReplayConfig {
    /// Scaled-down configuration for integration tests.
    pub fn quick() -> Self {
        ReplayConfig {
            total_warps: 32,
            window: 32,
            queue_pairs: 4,
            queue_depth: 64,
            ..Self::default()
        }
    }

    /// Switch the replay onto the software-cache path.
    pub fn cached(mut self) -> Self {
        self.path = ReplayPath::Cached;
        self
    }

    /// Route ops through the topology's striping layer.
    pub fn striped(mut self) -> Self {
        self.stripe = true;
        self
    }

    /// Select the engine scheduling loop (equivalence tests and wall-time
    /// comparisons; both loops replay bit-identically).
    pub fn with_engine_sched(mut self, sched: EngineSched) -> Self {
        self.engine_sched = sched;
        self
    }

    /// Schedule SQ admission with deficit-round-robin weighted fair queueing
    /// (`weights` indexed by tenant id). Pair with
    /// [`ReplayConfig::tenant_partitioned`] so each tenant's queue is its own
    /// warp set — otherwise a deferred tenant head-of-line blocks the other
    /// tenants sharing its warps.
    pub fn weighted_fair(mut self, weights: Vec<u64>) -> Self {
        self.qos = QosSpec::WeightedFair(weights);
        self
    }

    /// Partition warps by tenant (one tenant per warp; a tenant's ops strided
    /// across its warps), the replay-side realisation of per-tenant virtual
    /// queues.
    pub fn tenant_partitioned(mut self) -> Self {
        self.tenant_warps = true;
        self
    }

    /// Instrument the replay with the metrics stack: a registry wired through
    /// the whole host (submit path, cache, topology, devices, service,
    /// engine) plus a windowed sampler, captured in
    /// [`ReplayReport::metrics`].
    pub fn with_metrics(mut self) -> Self {
        self.metrics = true;
        self
    }

    /// Set the sampler window in simulated cycles (implies metrics).
    pub fn with_metrics_window(mut self, cycles: u64) -> Self {
        self.metrics = true;
        self.metrics_window = cycles.max(1);
        self
    }

    /// Bridge a closed-loop controller into the run (implies metrics: the
    /// controller consumes the windowed sampler). The decision log and final
    /// knob values land in [`ReplayReport::control`].
    pub fn with_control(mut self, policy: ControlPolicy) -> Self {
        self.metrics = true;
        self.control = Some(policy);
        self
    }

    /// Set the per-tenant SLO targets the controller enforces (pair with
    /// [`ReplayConfig::with_control`]).
    pub fn with_slos(mut self, slos: Vec<SloSpec>) -> Self {
        self.slos = slos;
        self
    }

    /// Select the cache replacement policy (AGILE only).
    pub fn with_cache_policy(mut self, policy: CachePolicyKind) -> Self {
        self.cache_policy = policy;
        self
    }

    /// Bound each tenant's cache occupancy to a weighted share
    /// (`TenantShare` eviction; `weights` indexed by tenant id, empty =
    /// equal shares). The cached-path counterpart of
    /// [`ReplayConfig::weighted_fair`].
    pub fn tenant_share(mut self, weights: Vec<u64>) -> Self {
        self.cache_policy = CachePolicyKind::TenantShare;
        self.cache_shares = weights;
        self
    }

    /// Set the cached-path prefetch depth (batches of lookahead).
    pub fn with_prefetch_depth(mut self, depth: u32) -> Self {
        self.prefetch_depth = depth;
        self
    }

    /// Override the software-cache capacity in bytes for both systems
    /// (`None` keeps the scaled-down 4 MiB default).
    pub fn with_cache_bytes(mut self, bytes: u64) -> Self {
        self.cache_bytes = Some(bytes);
        self
    }

    /// Short lowercase cache-policy name for reports.
    pub fn cache_policy_name(&self) -> &'static str {
        match self.cache_policy {
            CachePolicyKind::Clock => "clock",
            CachePolicyKind::TenantShare => "tenant-share",
        }
    }
}

fn finish_report(
    system: ReplaySystem,
    trace: &Trace,
    cfg: &ReplayConfig,
    collector: &ReplayCollector,
    elapsed_cycles: u64,
    deadlocked: bool,
    engine_rounds: u64,
) -> ReplayReport {
    let gpu = experiment_gpu();
    let cycles_per_us = gpu.clock_ghz * 1_000.0;
    let to_us = |c: u64| c as f64 / cycles_per_us;
    let latency = collector.latency();
    let ops = latency.count();
    let elapsed_secs = elapsed_cycles as f64 / (gpu.clock_ghz * 1e9);
    let bytes = ops * SSD_PAGE_SIZE;
    let tenants = collector
        .tenant_latencies()
        .into_iter()
        .map(|(tenant, h)| TenantLatency {
            tenant,
            ops: h.count(),
            p50_us: to_us(h.p50().unwrap_or(0)),
            p95_us: to_us(h.p95().unwrap_or(0)),
            p99_us: to_us(h.p99().unwrap_or(0)),
        })
        .collect();
    ReplayReport {
        system: system.name(),
        trace_name: trace.meta.name.clone(),
        ops,
        reads: collector.reads(),
        writes: collector.writes(),
        elapsed_cycles,
        p50_us: to_us(latency.p50().unwrap_or(0)),
        p95_us: to_us(latency.p95().unwrap_or(0)),
        p99_us: to_us(latency.p99().unwrap_or(0)),
        mean_us: latency.mean() / cycles_per_us,
        iops: if elapsed_secs > 0.0 {
            ops as f64 / elapsed_secs
        } else {
            0.0
        },
        gbps: if elapsed_secs > 0.0 {
            bytes as f64 / elapsed_secs / 1e9
        } else {
            0.0
        },
        deadlocked,
        qos: cfg.qos.name(),
        tenants,
        cache_policy: cfg.cache_policy_name(),
        // Only the AGILE cached path actually prefetches: report the inert
        // default elsewhere so no summary claims a knob that never ran.
        prefetch_depth: if system == ReplaySystem::Agile && cfg.path == ReplayPath::Cached {
            cfg.prefetch_depth
        } else {
            1
        },
        tenant_cache: Vec::new(),
        service_stats: ServiceStats::default(),
        engine_rounds,
        qos_deferrals: 0,
        lock_wait_cycles: 0,
        io_stats: IoStats::default(),
        cache_stats: CacheStats::default(),
        metrics: None,
        control: None,
    }
}

/// One registry + sampler pair instrumenting whichever host runs.
type Instruments = Option<(Arc<MetricsRegistry>, Arc<WindowedSampler>)>;

/// The system-agnostic prologue: apply every knob both systems share to
/// `builder` and return the started host.
fn build_host<S: HostSystem>(
    mut builder: HostBuilder<S>,
    trace: &Trace,
    cfg: &ReplayConfig,
    sink: Option<Arc<dyn TraceSink>>,
    instruments: &Instruments,
) -> Host<S> {
    builder = builder
        .gpu(experiment_gpu())
        .devices(
            trace.meta.devices.max(1) as usize,
            trace.meta.lba_space.max(1),
        )
        .qos(cfg.qos.policy());
    if let Some(sink) = sink {
        builder = builder.trace_sink(sink);
    }
    if let Some((registry, sampler)) = instruments {
        builder = builder
            .metrics(Arc::clone(registry))
            .metrics_sampler(Arc::clone(sampler));
    }
    if let Some(policy) = &cfg.control {
        builder = builder.control(policy.clone()).slos(cfg.slos.clone());
    }
    let mut host = builder.build();
    host.engine_mut().set_scheduler(cfg.engine_sched);
    host
}

/// Drive the replay kernel on a started host — the system-agnostic half of
/// the runner.
fn drive<S: HostSystem>(
    host: &mut Host<S>,
    launch: LaunchConfig,
    factory: Box<dyn gpu_sim::KernelFactory>,
    system: ReplaySystem,
    trace: &Trace,
    cfg: &ReplayConfig,
    collector: &ReplayCollector,
) -> ReplayReport {
    let report = host.run_kernel(launch, factory);
    host.stop();
    let mut out = finish_report(
        system,
        trace,
        cfg,
        collector,
        report.elapsed.raw(),
        report.deadlocked,
        report.rounds,
    );
    out.lock_wait_cycles = host.topology().lock_wait_cycles();
    out
}

/// The system-agnostic epilogue: fold the cache, metrics and control-plane
/// state of a finished run into `report`.
fn fold_stack_state<S: HostSystem>(
    host: &Host<S>,
    cfg: &ReplayConfig,
    instruments: &Instruments,
    report: &mut ReplayReport,
) {
    let ctrl = host.ctrl();
    let io = ctrl.io();
    report.io_stats = io.stats();
    report.qos_deferrals = report.io_stats.qos_deferrals;
    report.cache_stats = io.cache().stats();
    if cfg.tenant_warps {
        report.tenant_cache = io.cache().tenant_stats();
    }
    if let Some((registry, sampler)) = instruments {
        sampler.finish(host.now().raw());
        report.metrics = Some(MetricsReport {
            snapshot: registry.snapshot(),
            windows: sampler.windows(),
            window_cycles: sampler.window_cycles(),
            clock_ghz: experiment_gpu().clock_ghz,
        });
    }
    // After `finish`: the controller's report drains the trailing partial
    // window so late decisions and final knobs line up.
    report.control = host.controller().map(|c| c.report());
}

/// Replay `trace` through `system`, optionally capturing a fresh event log
/// through `sink` (installed across the whole stack before the run).
pub fn run_trace_replay_with_sink(
    trace: &Trace,
    system: ReplaySystem,
    cfg: &ReplayConfig,
    sink: Option<Arc<dyn TraceSink>>,
) -> ReplayReport {
    // QoS arbitration covers the raw path: cached-path issues go through
    // untenanted cache fills and dirty-victim write-backs, which bypass the
    // admission gate by design (deferring a write-back drops the dirty
    // snapshot). Refuse the combination rather than report a policy name
    // for a run the scheduler never touched; cached-path QoS is the
    // `TenantShare` eviction policy (`ReplayConfig::tenant_share`), which
    // bounds occupancy instead of gating submissions.
    assert!(
        cfg.path == ReplayPath::Raw || cfg.qos == QosSpec::Fifo,
        "non-FIFO QoS policies only arbitrate the raw replay path \
         (cached-path QoS is the TenantShare eviction policy — \
         use ReplayConfig::tenant_share)"
    );
    // The BaM baseline hard-codes the clock policy (the paper's
    // flexibility-gap point); a non-default policy there would silently run
    // clock, so refuse it.
    assert!(
        system == ReplaySystem::Agile || cfg.cache_policy == CachePolicyKind::Clock,
        "the BaM baseline hard-codes the clock cache policy; \
         pluggable eviction is AGILE-only"
    );
    let trace = Arc::new(trace.clone());
    let collector = Arc::new(ReplayCollector::new());
    // The replay collector mirrors its per-tenant accounting into the same
    // registry so windowed IOPS/p99 series line up with the stack metrics.
    let instruments: Instruments = cfg.metrics.then(|| {
        let registry = MetricsRegistry::new();
        let sampler = WindowedSampler::new(Arc::clone(&registry), cfg.metrics_window);
        collector.bind_metrics(&registry);
        (registry, sampler)
    });
    let params = TraceReplayParams {
        total_warps: cfg.total_warps,
        window: cfg.window,
        path: cfg.path,
        stripe: cfg.stripe,
        tenant_warps: cfg.tenant_warps,
        prefetch_depth: cfg.prefetch_depth,
    };
    let blocks = cfg.total_warps.div_ceil(8).max(1) as u32;
    match system {
        ReplaySystem::Agile => {
            let mut config = AgileConfig::small_test()
                .with_queue_pairs(cfg.queue_pairs)
                .with_queue_depth(cfg.queue_depth);
            if let Some(bytes) = cfg.cache_bytes {
                config = config.with_cache_bytes(bytes);
            }
            let builder = HostBuilder::agile(config)
                .cache_policy(cfg.cache_policy)
                .cache_shares(cfg.cache_shares.clone());
            let mut host = build_host(builder, &trace, cfg, sink, &instruments);
            let ctrl = host.ctrl();
            // Seed the live prefetch-depth cell before the controller's
            // first window so a controlled run starts from the requested
            // static depth rather than the construction default.
            ctrl.set_prefetch_depth(params.prefetch_depth);
            let launch = LaunchConfig::new(blocks, 256).with_registers(40);
            let factory = Box::new(AgileTraceReplayKernel::new(
                Arc::clone(&ctrl),
                Arc::clone(&trace),
                Arc::clone(&collector),
                params,
            ));
            let mut report = drive(&mut host, launch, factory, system, &trace, cfg, &collector);
            report.service_stats = host.service().stats();
            fold_stack_state(&host, cfg, &instruments, &mut report);
            report
        }
        ReplaySystem::Bam => {
            let mut config = BamConfig::small_test()
                .with_queue_pairs(cfg.queue_pairs)
                .with_queue_depth(cfg.queue_depth);
            if let Some(bytes) = cfg.cache_bytes {
                config = config.with_cache_bytes(bytes);
            }
            let builder = HostBuilder::bam(config);
            let mut host = build_host(builder, &trace, cfg, sink, &instruments);
            let ctrl = host.ctrl();
            // BaM's polling lives in the user kernel: heavier footprint.
            let launch = LaunchConfig::new(blocks, 256).with_registers(56);
            let factory = Box::new(BamTraceReplayKernel::new(
                Arc::clone(&ctrl),
                Arc::clone(&trace),
                Arc::clone(&collector),
                params,
            ));
            let mut report = drive(&mut host, launch, factory, system, &trace, cfg, &collector);
            fold_stack_state(&host, cfg, &instruments, &mut report);
            report
        }
    }
}

/// Replay `trace` through `system` with no capture.
pub fn run_trace_replay(trace: &Trace, system: ReplaySystem, cfg: &ReplayConfig) -> ReplayReport {
    run_trace_replay_with_sink(trace, system, cfg, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use agile_trace::TraceSpec;

    #[test]
    fn small_uniform_replay_completes_on_agile() {
        let trace = TraceSpec::uniform("unit-uniform", 11, 1, 1 << 14, 512).generate();
        let report = run_trace_replay(&trace, ReplaySystem::Agile, &ReplayConfig::quick());
        assert!(!report.deadlocked);
        assert_eq!(report.ops, 512);
        assert_eq!(report.reads, 512);
        assert!(report.p50_us > 0.0);
        assert!(report.p99_us >= report.p50_us);
        assert!(report.iops > 0.0);
    }

    #[test]
    fn small_replay_completes_on_bam() {
        let trace = TraceSpec::uniform("unit-uniform", 11, 1, 1 << 14, 256).generate();
        let report = run_trace_replay(&trace, ReplaySystem::Bam, &ReplayConfig::quick());
        assert!(!report.deadlocked);
        assert_eq!(report.ops, 256);
        assert!(report.p50_us > 0.0);
    }

    #[test]
    fn replay_is_deterministic() {
        let trace = TraceSpec::multi_tenant("unit-mt", 3, 2, 1 << 14, 600).generate();
        let cfg = ReplayConfig::quick();
        let a = run_trace_replay(&trace, ReplaySystem::Agile, &cfg);
        let b = run_trace_replay(&trace, ReplaySystem::Agile, &cfg);
        assert_eq!(a.summary(), b.summary());
    }

    #[test]
    fn non_multiple_of_8_warp_count_does_not_duplicate_ops() {
        // The launch rounds warps up to a multiple of 8; the excess warps
        // must be idle, not replay other warps' ops.
        let trace = TraceSpec::uniform("unit-odd-warps", 2, 1, 1 << 14, 200).generate();
        let cfg = ReplayConfig {
            total_warps: 10,
            ..ReplayConfig::quick()
        };
        let report = run_trace_replay(&trace, ReplaySystem::Agile, &cfg);
        assert!(!report.deadlocked);
        assert_eq!(report.ops, 200, "every op exactly once");
        let bam = run_trace_replay(&trace, ReplaySystem::Bam, &cfg);
        assert_eq!(bam.ops, 200, "every op exactly once (BaM)");
    }

    #[test]
    fn write_only_cached_bam_replay_does_not_wedge() {
        // A write-only batch gives BaM warps no reads to poll on; once
        // evictions fill the SQs with write-backs, only the warps' own CQ
        // polling can recycle entries. Regression test for the stall path.
        use agile_trace::{AddressPattern, TenantSpec, TraceSpec};
        let spec = TraceSpec {
            name: "unit-write-only".to_string(),
            seed: 4,
            devices: 1,
            // Working set far larger than the small-test cache so dirty
            // evictions (and their write-backs) dominate.
            lba_space: 1 << 14,
            tenants: vec![TenantSpec::new(1_024, AddressPattern::Uniform, 1.0, 100)],
        };
        let trace = spec.generate();
        assert_eq!(trace.writes(), trace.ops.len() as u64, "write-only trace");
        let cfg = ReplayConfig::quick().cached();
        let report = run_trace_replay(&trace, ReplaySystem::Bam, &cfg);
        assert!(!report.deadlocked, "write-only cached BaM replay wedged");
        assert_eq!(report.ops, 1_024);
    }

    #[test]
    fn cached_replay_completes_on_both_systems() {
        let trace = TraceSpec::multi_tenant("unit-mt-cached", 3, 1, 1 << 12, 512).generate();
        let cfg = ReplayConfig::quick().cached();
        let agile = run_trace_replay(&trace, ReplaySystem::Agile, &cfg);
        assert!(!agile.deadlocked);
        assert_eq!(agile.ops, 512);
        let bam = run_trace_replay(&trace, ReplaySystem::Bam, &cfg);
        assert!(!bam.deadlocked);
        assert_eq!(bam.ops, 512);
    }

    #[test]
    #[should_panic(expected = "raw replay path")]
    fn cached_path_rejects_non_fifo_qos() {
        // The cached path issues through untenanted fills/write-backs that
        // bypass the QoS gate; reporting "qos=wfq" for such a run would be a
        // lie, so the runner refuses the combination outright.
        let trace = TraceSpec::multi_tenant("unit-cached-qos", 3, 1, 1 << 12, 64).generate();
        let cfg = ReplayConfig::quick().cached().weighted_fair(vec![1, 1]);
        let _ = run_trace_replay(&trace, ReplaySystem::Agile, &cfg);
    }

    #[test]
    fn cached_tenant_share_reports_per_tenant_cache_stats() {
        let trace = TraceSpec::multi_tenant("unit-ts", 5, 1, 1 << 12, 512).generate();
        let cfg = ReplayConfig::quick()
            .cached()
            .tenant_partitioned()
            .tenant_share(vec![1, 1, 1]);
        let report = run_trace_replay(&trace, ReplaySystem::Agile, &cfg);
        assert!(!report.deadlocked);
        assert_eq!(report.ops, 512);
        assert_eq!(report.cache_policy, "tenant-share");
        assert_eq!(
            report.tenant_cache.len(),
            trace.meta.tenants as usize,
            "tenant-partitioned cached runs report exact per-tenant stats"
        );
        for t in &report.tenant_cache {
            assert!(t.hits + t.misses > 0, "tenant {} saw no lookups", t.tenant);
        }
        let summary = report.summary();
        assert!(summary.contains(" cache=tenant-share"));
        assert!(summary.contains(" | ct0 hits="));
    }

    #[test]
    fn prefetch_depth_knob_completes_at_every_depth() {
        let trace = TraceSpec::zipfian("unit-depth", 6, 1, 1 << 13, 512, 0.99).generate();
        for depth in [0u32, 1, 4] {
            let cfg = ReplayConfig::quick().cached().with_prefetch_depth(depth);
            let report = run_trace_replay(&trace, ReplaySystem::Agile, &cfg);
            assert!(!report.deadlocked, "depth {depth} deadlocked");
            assert_eq!(report.ops, 512, "depth {depth} lost ops");
            if depth != 1 {
                assert!(report.summary().contains(&format!(" prefetch={depth}")));
            }
        }
    }

    #[test]
    fn default_summary_carries_no_new_fields() {
        // The tenant-aware knobs must be invisible at defaults, or the
        // golden summaries (and every downstream parser) would break.
        let trace = TraceSpec::uniform("unit-default", 8, 1, 1 << 13, 256).generate();
        let cfg = ReplayConfig::quick().cached();
        let report = run_trace_replay(&trace, ReplaySystem::Agile, &cfg);
        let summary = report.summary();
        assert!(!summary.contains("cache="));
        assert!(!summary.contains("prefetch="));
        assert!(report.tenant_cache.is_empty());
    }

    #[test]
    #[should_panic(expected = "hard-codes the clock")]
    fn bam_rejects_pluggable_cache_policies() {
        let trace = TraceSpec::uniform("unit-bam-policy", 9, 1, 1 << 12, 64).generate();
        let cfg = ReplayConfig::quick().cached().tenant_share(vec![1, 1]);
        let _ = run_trace_replay(&trace, ReplaySystem::Bam, &cfg);
    }

    #[test]
    fn per_tenant_histograms_partition_the_aggregate() {
        let trace = TraceSpec::multi_tenant("unit-tenants", 9, 1, 1 << 14, 600).generate();
        let report = run_trace_replay(&trace, ReplaySystem::Agile, &ReplayConfig::quick());
        assert!(!report.deadlocked);
        assert_eq!(report.tenants.len(), trace.meta.tenants as usize);
        assert_eq!(
            report.tenants.iter().map(|t| t.ops).sum::<u64>(),
            report.ops,
            "tenant rows must partition the aggregate"
        );
        for t in &report.tenants {
            assert!(
                t.p50_us > 0.0 && t.p99_us >= t.p50_us,
                "tenant {}",
                t.tenant
            );
        }
        assert!(report.summary().contains("tenant0 "));
    }

    #[test]
    fn the_array_lock_caps_throughput_at_clock_over_hold() {
        // At 8 and 16 SSDs the devices could serve more than one array lock
        // admits, so the replay runs at — and never above — the lock's
        // ceiling of clock ÷ hold submissions per second.
        let ceiling = experiment_gpu().clock_ghz * 1e9 / nvme_sim::DEFAULT_LOCK_HOLD_CYCLES as f64;
        for devices in [8u32, 16] {
            let trace =
                TraceSpec::uniform("unit-lock-ceiling", 13, devices, 1 << 12, 2_048).generate();
            let report = run_trace_replay(&trace, ReplaySystem::Agile, &ReplayConfig::quick());
            assert!(!report.deadlocked);
            assert_eq!(report.ops, 2_048);
            assert!(
                report.iops <= ceiling && report.iops >= 0.95 * ceiling,
                "{devices} SSDs: {:.0} IOPS against a lock ceiling of {ceiling:.0}",
                report.iops
            );
        }
    }

    #[test]
    fn cached_zipf_beats_cached_uniform_latency() {
        // The cache path is where address skew matters: a zipfian hot set
        // mostly hits HBM while uniform traffic streams from flash.
        let ops = 2_048;
        let lba_space = 1 << 16; // far larger than the small-test cache
        let zipf = TraceSpec::zipfian("unit-zipf", 7, 1, lba_space, ops, 1.1).generate();
        let uniform = TraceSpec::uniform("unit-uniform", 7, 1, lba_space, ops).generate();
        let cfg = ReplayConfig::quick().cached();
        let z = run_trace_replay(&zipf, ReplaySystem::Agile, &cfg);
        let u = run_trace_replay(&uniform, ReplaySystem::Agile, &cfg);
        assert!(!z.deadlocked && !u.deadlocked);
        assert!(
            z.p50_us < u.p50_us,
            "hot-set median ({:.2}us) should beat uniform ({:.2}us)",
            z.p50_us,
            u.p50_us
        );
    }
}
