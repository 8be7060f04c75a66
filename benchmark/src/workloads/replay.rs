//! The four `replay_*` workloads: a seeded synthetic trace replayed through
//! `AgileTraceReplayKernel` (primary) and `BamTraceReplayKernel` or a static
//! AGILE stack (baseline). The wiring mirrors
//! `experiments::trace_replay::run_trace_replay_with_sink`, split so that
//! set-up and `run_kernel` are timed apart and the kernel factory can be
//! decorated. Simulated caches start empty: warm-up is inside the measurement.

use super::{
    cycles_to_us, decorate, gpu, instrument, timed_run, Instruments, Outcome, Prepared, Scale,
    Side, Workload,
};
use crate::decorate::SpanLog;
use agile_repro::agile::config::CachePolicyKind;
use agile_repro::agile::{AgileConfig, GpuStorageHost};
use agile_repro::bam::{BamConfig, HostBuilder};
use agile_repro::control::{ControlPolicy, SloSpec};
use agile_repro::gpu::{KernelFactory, LaunchConfig};
use agile_repro::metrics::{MetricsRegistry, WindowedSampler};
use agile_repro::trace::{AddressPattern, TenantSpec, Trace, TraceSpec};
use agile_repro::workloads::trace_replay::{
    AgileTraceReplayKernel, BamTraceReplayKernel, ReplayCollector, ReplayPath, TraceReplayParams,
};
use std::sync::Arc;

/// What the baseline side of a replay workload is.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Base {
    /// The BaM baseline on the identical trace and geometry.
    Bam,
    /// AGILE with the controller off and the prefetch depth fixed at 1.
    StaticAgile,
    /// AGILE with an eighth of the warps, so an eighth of the requests in
    /// flight. (BaM on 1024 warps busy-polls its way to ~1 ms of host time
    /// per simulated I/O, and so does AGILE at window 1: neither fits a run.)
    NarrowAgile,
}

/// One replay workload: trace shape plus stack geometry.
pub struct ReplayWorkload {
    name: &'static str,
    why: &'static str,
    /// Trace generator: `(seed, ops) → spec`.
    spec: fn(u64, u64) -> TraceSpec,
    ops: u64,
    path: ReplayPath,
    total_warps: u64,
    window: usize,
    queue_pairs: usize,
    queue_depth: u32,
    cache_bytes: Option<u64>,
    /// The full stack: tenant-partitioned warps, `TenantShare [1,1]`, metrics
    /// and the controller inside the measured run.
    full_stack: bool,
    base: Base,
}

/// The ROADMAP hot-path target: raw path, 1024 warps, four SSDs.
pub static RAW_LARGE: ReplayWorkload = ReplayWorkload {
    name: "replay_raw_large",
    why: "ROADMAP hot-path target: engine ready-queue, submit path, service and devices do all the work; cache, metrics, control do none.",
    spec: |seed, ops| TraceSpec::multi_tenant("raw-large", seed, 4, 1 << 16, ops),
    ops: 131_072,
    path: ReplayPath::Raw,
    total_warps: 1024,
    window: 8,
    queue_pairs: 8,
    queue_depth: 128,
    cache_bytes: None,
    full_stack: false,
    base: Base::NarrowAgile,
};

/// Read-hit path of the cache: Zipf(0.99) reads, cache 3 % of the pages.
/// (At 4–8 MiB the BaM side's simulated time swings 2× from seed to seed, so
/// `sim_speedup` would measure the seed; 16 MiB is where it settles.)
pub static CACHED_ZIPF: ReplayWorkload = ReplayWorkload {
    name: "replay_cached_zipf",
    why: "Read-hit path of the cache dominates and devices see only misses: the path the paper's cache claims are about.",
    spec: |seed, ops| TraceSpec::zipfian("cached-zipf", seed, 2, 1 << 16, ops, 0.99),
    ops: 32_768,
    path: ReplayPath::Cached,
    total_warps: 64,
    window: 64,
    queue_pairs: 8,
    queue_depth: 128,
    cache_bytes: Some(16 << 20),
    full_stack: false,
    base: Base::Bam,
};

/// Write-back path of the cache: 50 % writes, working set 8× the cache.
pub static CACHED_WRITEMIX: ReplayWorkload = ReplayWorkload {
    name: "replay_cached_writemix",
    why: "The cache used the other way: 50% writes over 8x the cache, so dirty evictions, write-backs and reinstate_victim dominate.",
    spec: |seed, ops| TraceSpec {
        name: "cached-writemix".to_string(),
        seed,
        devices: 2,
        lba_space: 1 << 14,
        tenants: vec![TenantSpec::new(ops, AddressPattern::Uniform, 0.5, 200)],
    },
    ops: 16_384,
    path: ReplayPath::Cached,
    total_warps: 64,
    window: 64,
    queue_pairs: 8,
    queue_depth: 128,
    cache_bytes: Some(16 << 20),
    full_stack: false,
    base: Base::Bam,
};

/// Metrics, control and tenant accounting inside the measured path.
pub static FULLSTACK_SHIFT: ReplayWorkload = ReplayWorkload {
    name: "replay_fullstack_shift",
    why: "Only workload with metrics, control plane and tenant accounting inside the measured path; base is the same stack, controller off.",
    spec: |seed, ops| TraceSpec::shifting_mix("fullstack-shift", seed, 1, 1 << 13, ops, 8),
    ops: 98_304,
    path: ReplayPath::Cached,
    total_warps: 4,
    window: 32,
    queue_pairs: 8,
    queue_depth: 128,
    cache_bytes: Some(4 << 20),
    full_stack: true,
    base: Base::StaticAgile,
};

/// p99 target (simulated µs) of the victim tenant on the full stack.
const VICTIM_P99_US: f64 = 2_000.0;
/// The victim tenant of `TraceSpec::shifting_mix`.
const VICTIM_TENANT: u32 = 1;

impl ReplayWorkload {
    fn params(&self, total_warps: u64) -> TraceReplayParams {
        TraceReplayParams {
            total_warps,
            window: self.window,
            path: self.path,
            stripe: false,
            tenant_warps: self.full_stack,
            prefetch_depth: 1,
        }
    }

    fn launch(total_warps: u64, registers: u32) -> LaunchConfig {
        let blocks = total_warps.div_ceil(8).max(1) as u32;
        LaunchConfig::new(blocks, 256).with_registers(registers)
    }

    /// Build the AGILE host and a replay kernel of `total_warps` warps.
    /// `controlled` adds the control plane.
    fn agile(
        &self,
        trace: Arc<Trace>,
        total_warps: u64,
        controlled: bool,
        instr: Option<&Instruments>,
    ) -> Box<dyn Prepared> {
        let collector = Arc::new(ReplayCollector::new());
        let mut config = AgileConfig::small_test()
            .with_queue_pairs(self.queue_pairs)
            .with_queue_depth(self.queue_depth);
        if let Some(bytes) = self.cache_bytes {
            config = config.with_cache_bytes(bytes);
        }
        let mut builder = HostBuilder::agile(config)
            .gpu(gpu())
            .devices(trace.meta.devices as usize, trace.meta.lba_space);
        if self.full_stack {
            builder = builder
                .cache_policy(CachePolicyKind::TenantShare)
                .cache_shares(vec![1, 1]);
        }
        // The full stack carries metrics in its measured run; everything
        // else only when traced.
        let metrics = match instr {
            Some(i) => Some((Arc::clone(&i.registry), Arc::clone(&i.sampler))),
            None if self.full_stack => {
                let registry = MetricsRegistry::new();
                let sampler =
                    WindowedSampler::new(Arc::clone(&registry), super::METRICS_WINDOW_CYCLES);
                Some((registry, sampler))
            }
            None => None,
        };
        if let Some((registry, sampler)) = &metrics {
            collector.bind_metrics(registry);
            builder = builder
                .metrics(Arc::clone(registry))
                .metrics_sampler(Arc::clone(sampler));
        }
        if let Some(i) = instr {
            builder = builder.trace_sink(i.sink.clone());
        }
        if controlled {
            let policy = ControlPolicy {
                max_prefetch_depth: 1,
                ..ControlPolicy::all()
            };
            builder = builder
                .control(policy)
                .slos(vec![SloSpec::p99(VICTIM_TENANT, VICTIM_P99_US)]);
        }
        let host = builder.build();
        let factory = Box::new(AgileTraceReplayKernel::new(
            host.ctrl(),
            Arc::clone(&trace),
            Arc::clone(&collector),
            self.params(total_warps),
        ));
        Box::new(PreparedReplay {
            host,
            launch: Self::launch(total_warps, 40),
            factory: decorate(factory, instr),
            trace,
            collector,
            spans: instr.map(|i| Arc::clone(&i.spans)),
            victim: self.full_stack,
        })
    }

    fn bam(&self, trace: Arc<Trace>, instr: Option<&Instruments>) -> Box<dyn Prepared> {
        let collector = Arc::new(ReplayCollector::new());
        let mut config = BamConfig::small_test()
            .with_queue_pairs(self.queue_pairs)
            .with_queue_depth(self.queue_depth);
        if let Some(bytes) = self.cache_bytes {
            config = config.with_cache_bytes(bytes);
        }
        if let Some(i) = instr {
            collector.bind_metrics(&i.registry);
        }
        let builder = HostBuilder::bam(config)
            .gpu(gpu())
            .devices(trace.meta.devices as usize, trace.meta.lba_space);
        let host = instrument(builder, instr).build();
        let factory = Box::new(BamTraceReplayKernel::new(
            host.ctrl(),
            Arc::clone(&trace),
            Arc::clone(&collector),
            self.params(self.total_warps),
        ));
        Box::new(PreparedReplay {
            host,
            // BaM's polling lives in the user kernel: heavier footprint.
            launch: Self::launch(self.total_warps, 56),
            factory: decorate(factory, instr),
            trace,
            collector,
            spans: instr.map(|i| Arc::clone(&i.spans)),
            victim: false,
        })
    }
}

impl Workload for ReplayWorkload {
    fn name(&self) -> &'static str {
        self.name
    }

    fn why(&self) -> &'static str {
        self.why
    }

    fn baseline(&self) -> &'static str {
        match self.base {
            Base::Bam => "BaM, same trace and geometry",
            Base::StaticAgile => "AGILE with the controller off (static prefetch depth 1)",
            Base::NarrowAgile => "AGILE with 1/8 of the warps (1/8 of the requests in flight)",
        }
    }

    fn cache_start(&self) -> &'static str {
        match self.path {
            ReplayPath::Raw => "no cache on the path",
            ReplayPath::Cached => "empty (warm-up is inside the measurement)",
        }
    }

    fn prepare(
        &self,
        seed: u64,
        scale: Scale,
        side: Side,
        instr: Option<&Instruments>,
    ) -> Box<dyn Prepared> {
        let ops = scale.pick(self.ops, self.ops.min(2_048));
        let trace = Arc::new((self.spec)(seed, ops).generate());
        match (side, self.base) {
            (Side::Primary, _) => self.agile(trace, self.total_warps, self.full_stack, instr),
            (Side::Baseline, Base::Bam) => self.bam(trace, instr),
            (Side::Baseline, Base::StaticAgile) => {
                self.agile(trace, self.total_warps, false, instr)
            }
            (Side::Baseline, Base::NarrowAgile) => {
                self.agile(trace, self.total_warps / 8, false, instr)
            }
        }
    }
}

/// Ops that count as done: every read and write of the trace exactly once.
/// A missing op, a duplicated one and a deadlock flag each cost at least one.
fn verified_ops(done: (u64, u64), want: (u64, u64), deadlocked: bool) -> u64 {
    let matched = done.0.min(want.0) + done.1.min(want.1);
    let excess = done.0.saturating_sub(want.0) + done.1.saturating_sub(want.1);
    let verified = matched.saturating_sub(excess);
    if deadlocked {
        verified.min((want.0 + want.1).saturating_sub(1))
    } else {
        verified
    }
}

struct PreparedReplay<H: GpuStorageHost> {
    host: H,
    launch: LaunchConfig,
    factory: Box<dyn KernelFactory>,
    trace: Arc<Trace>,
    collector: Arc<ReplayCollector>,
    spans: Option<Arc<SpanLog>>,
    victim: bool,
}

impl<H: GpuStorageHost> Prepared for PreparedReplay<H> {
    fn run(self: Box<Self>) -> Outcome {
        let PreparedReplay {
            mut host,
            launch,
            factory,
            trace,
            collector,
            spans,
            victim,
        } = *self;
        let (report, host_run_ns) = timed_run(spans.as_ref(), || host.run_kernel(launch, factory));
        host.stop();
        let latency = collector.latency();
        let ops = trace.ops.len() as u64;
        let verified = verified_ops(
            (collector.reads(), collector.writes()),
            (trace.reads(), trace.writes()),
            report.deadlocked,
        );
        let to_us = |c: Option<u64>| cycles_to_us(c.unwrap_or(0));
        Outcome {
            ops,
            verified,
            sim_cycles: report.elapsed.raw(),
            sim_end: host.now().raw(),
            host_run_ns,
            rounds: report.rounds,
            launches: 1,
            devices: trace.meta.devices as u64,
            latency_us: Some((to_us(latency.p50()), to_us(latency.p99()))),
            victim_p99_us: victim.then(|| {
                collector
                    .tenant_latencies()
                    .iter()
                    .find(|(tenant, _)| *tenant == VICTIM_TENANT)
                    .map_or(0.0, |(_, h)| to_us(h.p99()))
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agile_repro::workloads::experiments::trace_replay::{
        run_trace_replay, ReplayConfig, ReplaySystem,
    };

    /// The split wiring above must simulate what the repository's own replay
    /// runner simulates on the same trace and geometry.
    #[test]
    fn wiring_matches_the_repositorys_replay_runner() {
        let w = &CACHED_WRITEMIX;
        let trace = (w.spec)(7, 2_048).generate();
        let config = ReplayConfig {
            total_warps: w.total_warps,
            window: w.window,
            queue_pairs: w.queue_pairs,
            queue_depth: w.queue_depth,
            ..ReplayConfig::default()
        }
        .cached()
        .with_cache_bytes(w.cache_bytes.unwrap());
        for (side, system) in [
            (Side::Primary, ReplaySystem::Agile),
            (Side::Baseline, ReplaySystem::Bam),
        ] {
            let theirs = run_trace_replay(&trace, system, &config);
            let ours = w.prepare(7, Scale::Smoke, side, None).run();
            assert_eq!(ours.ops, theirs.ops);
            assert_eq!(ours.verified, theirs.ops);
            assert_eq!(ours.sim_cycles, theirs.elapsed_cycles, "{system:?}");
            assert_eq!(ours.latency_us, Some((theirs.p50_us, theirs.p99_us)));
        }
    }

    #[test]
    fn missing_duplicated_and_deadlocked_ops_all_count_as_failed() {
        assert_eq!(verified_ops((10, 5), (10, 5), false), 15);
        assert_eq!(verified_ops((9, 5), (10, 5), false), 14);
        assert_eq!(verified_ops((11, 5), (10, 5), false), 14);
        assert_eq!(verified_ops((10, 5), (10, 5), true), 14);
    }
}
