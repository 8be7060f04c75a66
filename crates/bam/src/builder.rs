//! One builder for both hosts.
//!
//! The paper's Listing-1 flow (`new` → `add_nvme_dev*` → `init_nvme` →
//! `start`) on the generic [`agile_core::host::Host`] is order-sensitive.
//! [`HostBuilder`] is a declarative construction API whose invalid orders
//! are unrepresentable — `build()` runs the flow in the only valid order and
//! returns a started host:
//!
//! ```
//! use bam_baseline::HostBuilder;
//! use agile_core::{AgileConfig, GpuStorageHost};
//! use gpu_sim::GpuConfig;
//!
//! let mut host = HostBuilder::agile(AgileConfig::small_test())
//!     .gpu(GpuConfig::tiny(4))
//!     .devices(2, 1 << 16)  // two SSDs of 2^16 pages
//!     .shards(2)            // lock-partitioned ShardedArray topology
//!     .build();
//! assert_eq!(host.topology().shard_count(), 2);
//! # let _ = &mut host;
//! ```
//!
//! `HostBuilder::bam(config)` builds the synchronous baseline the same way;
//! the result of either constructor implements
//! [`agile_core::host::GpuStorageHost`], so harness code compares the two
//! systems without duplicating setup.

use crate::ctrl::BamConfig;
use crate::host::BamSystem;
use agile_control::{ControlPolicy, SloSpec};
use agile_core::config::AgileConfig;
use agile_core::host::{AgileSystem, Host, HostSystem};
use agile_core::qos::QosPolicy;
use agile_metrics::{MetricsRegistry, WindowedSampler, DEFAULT_WINDOW_CYCLES};
use agile_sim::trace::TraceSink;
use gpu_sim::{EngineSched, GpuConfig};
use nvme_sim::{PageBacking, Placement};
use std::sync::Arc;

/// One device to be created at build time.
struct DeviceSpec {
    pages: u64,
    backing: Option<Arc<dyn PageBacking>>,
}

/// Declarative construction of an AGILE or BaM host (see the module docs).
pub struct HostBuilder<S: HostSystem> {
    gpu: GpuConfig,
    config: S::Config,
    devices: Vec<DeviceSpec>,
    shards: usize,
    placement: Placement,
    service_shards: usize,
    engine_sched: EngineSched,
    sink: Option<Arc<dyn TraceSink>>,
    qos: Option<Arc<dyn QosPolicy>>,
    metrics: Option<Arc<MetricsRegistry>>,
    sampler: Option<Arc<WindowedSampler>>,
    control: Option<ControlPolicy>,
    slos: Vec<SloSpec>,
}

impl HostBuilder<AgileSystem> {
    /// Build an AGILE host (background service, asynchronous I/O API).
    pub fn agile(config: AgileConfig) -> Self {
        Self::new(config)
    }

    /// Scale the AGILE service out to `shards` shard-affine partitions —
    /// one persistent kernel per partition, each polling the CQs of the
    /// devices its storage shard owns ([`agile_core::service::ServiceSet`]).
    /// The default of 1 is the paper's single service, bit for bit.
    pub fn service_shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "the service needs at least one partition");
        self.service_shards = shards;
        self
    }

    /// Select the software cache's replacement policy
    /// ([`agile_core::config::CachePolicyKind`]). The default clock policy is
    /// the paper's, bit-identical to the pre-tenant-threading stack. Pair
    /// [`CachePolicyKind::TenantShare`](agile_core::config::CachePolicyKind::TenantShare)
    /// with [`HostBuilder::cache_shares`] for weighted per-tenant occupancy
    /// bounds. AGILE only — the BaM baseline hard-codes one policy, which is
    /// exactly the flexibility gap the paper calls out.
    pub fn cache_policy(mut self, policy: agile_core::config::CachePolicyKind) -> Self {
        self.config.cache_policy = policy;
        self
    }

    /// Per-tenant cache-occupancy weights, indexed by tenant id, consumed by
    /// the `TenantShare` eviction policy (tenants beyond the slice weigh 1;
    /// empty = equal shares).
    pub fn cache_shares(mut self, shares: Vec<u64>) -> Self {
        self.config.cache_shares = shares;
        self
    }

    /// Auto-size each service partition's warp count from its CQ target
    /// count ([`agile_core::service::auto_service_warps`]) instead of the
    /// fixed `service_warps` geometry.
    pub fn auto_service_warps(mut self) -> Self {
        self.config.auto_service_warps = true;
        self
    }
}

impl HostBuilder<BamSystem> {
    /// Build a BaM baseline host (no service, synchronous issue-then-poll).
    pub fn bam(config: BamConfig) -> Self {
        Self::new(config)
    }
}

impl<S: HostSystem> HostBuilder<S> {
    fn new(config: S::Config) -> Self {
        HostBuilder {
            gpu: GpuConfig::rtx_5000_ada(),
            config,
            devices: Vec::new(),
            shards: 0,
            placement: Placement::default(),
            service_shards: 1,
            engine_sched: EngineSched::default(),
            sink: None,
            qos: None,
            metrics: None,
            sampler: None,
            control: None,
            slos: Vec::new(),
        }
    }

    /// Simulated GPU to run on (default: the paper's RTX 5000 Ada).
    pub fn gpu(mut self, gpu: GpuConfig) -> Self {
        self.gpu = gpu;
        self
    }

    /// Add `count` SSDs of `pages` 4 KiB pages each with default in-memory
    /// backings. May be called repeatedly; devices accumulate.
    pub fn devices(mut self, count: usize, pages: u64) -> Self {
        for _ in 0..count {
            self.devices.push(DeviceSpec {
                pages,
                backing: None,
            });
        }
        self
    }

    /// Add one SSD of `pages` pages with a caller-supplied page backing
    /// (synthetic content, payload-carrying, …).
    pub fn backing(mut self, pages: u64, backing: Arc<dyn PageBacking>) -> Self {
        self.devices.push(DeviceSpec {
            pages,
            backing: Some(backing),
        });
        self
    }

    /// Partition the storage into `shards` lock shards
    /// ([`nvme_sim::ShardedArray`]); without this call the topology is the
    /// single-lock [`nvme_sim::FlatArray`]. `shards(1)` behaves identically
    /// to the flat array but exercises the sharded code path.
    pub fn shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "shards(0) is the flat array; pass ≥ 1");
        self.shards = shards;
        self
    }

    /// Select the striping layer's placement seed over
    /// [`nvme_sim::StorageTopology::map_page`]: the default
    /// [`Placement::Interleave`] is the paper's `g % devices` layout
    /// (golden-guarded), [`Placement::Hash`] rotates each page row by a
    /// hash for diagonal data-layout experiments.
    pub fn placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Select the engine's scheduling loop: the event-driven ready-queue
    /// (default) or the legacy full scan ([`gpu_sim::EngineSched`]). Both
    /// execute bit-identically; the scan exists for equivalence tests and
    /// wall-time comparisons.
    pub fn engine_sched(mut self, sched: EngineSched) -> Self {
        self.engine_sched = sched;
        self
    }

    /// Install a trace sink across the whole stack before the first kernel
    /// runs, so capture covers every event from time zero.
    pub fn trace_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Install a QoS policy ([`agile_core::qos::QosPolicy`]) arbitrating
    /// tenant-attributed SQ admission, before the first kernel runs. Without
    /// this call the stack schedules FIFO (pre-QoS behaviour, bit-for-bit).
    pub fn qos(mut self, policy: Arc<dyn QosPolicy>) -> Self {
        self.qos = Some(policy);
        self
    }

    /// Instrument the whole stack with a metrics registry
    /// ([`agile_metrics::MetricsRegistry`]): submit-path and engine counters
    /// plus snapshot-time collectors over the cache, topology, devices and
    /// (on AGILE) service partitions. Without this call every metrics hook
    /// is a no-op and replay output is byte-identical to an uninstrumented
    /// build.
    pub fn metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Attach a windowed sampler ([`agile_metrics::WindowedSampler`]) driven
    /// by the simulated clock; pair with [`HostBuilder::metrics`] over the
    /// same registry to get per-window time series out of a run.
    pub fn metrics_sampler(mut self, sampler: Arc<WindowedSampler>) -> Self {
        self.sampler = Some(sampler);
        self
    }

    /// Enable the closed-loop control plane ([`agile_control::Controller`])
    /// under `policy`. Implies metrics: when no registry / sampler was
    /// supplied, a registry and a [`DEFAULT_WINDOW_CYCLES`]-cycle sampler
    /// are created automatically at build time. Pair with
    /// [`HostBuilder::slos`] to enforce per-tenant objectives.
    pub fn control(mut self, policy: ControlPolicy) -> Self {
        self.control = Some(policy);
        self
    }

    /// Declare per-tenant SLOs ([`agile_control::SloSpec`]) for the control
    /// plane's AIMD loop. Only meaningful with [`HostBuilder::control`].
    pub fn slos(mut self, slos: Vec<SloSpec>) -> Self {
        self.slos = slos;
        self
    }

    /// Construct, initialise and start the host: devices + queues built,
    /// controller created, trace sink / QoS / metrics / control plane
    /// installed, engine ready and (on AGILE) the service launched.
    pub fn build(self) -> Host<S> {
        assert!(
            !self.devices.is_empty(),
            "HostBuilder needs at least one device — call .devices(n, pages)"
        );
        let mut host = Host::<S>::new(self.gpu, self.config);
        for dev in self.devices {
            match dev.backing {
                Some(backing) => host.add_nvme_dev_with_backing(dev.pages, backing),
                None => host.add_nvme_dev(dev.pages),
            };
        }
        if self.shards > 0 {
            host.set_shards(self.shards);
        }
        host.set_placement(self.placement);
        host.set_service_shards(self.service_shards);
        host.set_engine_sched(self.engine_sched);
        host.init_nvme();
        if let Some(sink) = self.sink {
            host.set_trace_sink(sink);
        }
        if let Some(qos) = self.qos {
            host.set_qos_policy(qos);
        }
        // The control plane consumes sampler windows: create the registry /
        // sampler pair when it was requested without explicit instruments.
        let (mut metrics, mut sampler) = (self.metrics, self.sampler);
        if self.control.is_some() {
            let registry = metrics.get_or_insert_with(Default::default);
            sampler.get_or_insert_with(|| {
                WindowedSampler::new(Arc::clone(registry), DEFAULT_WINDOW_CYCLES)
            });
        }
        if let Some(registry) = metrics {
            host.set_metrics(registry);
        }
        if let Some(sampler) = sampler {
            host.set_metrics_sampler(sampler);
        }
        if let Some(policy) = self.control {
            host.set_control(policy, self.slos);
        }
        host.start();
        host
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agile_sim::trace::{TraceEvent, TraceEventKind};
    use gpu_sim::LaunchConfig;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Default)]
    struct SubmitCounter(AtomicU64);
    impl TraceSink for SubmitCounter {
        fn record(&self, ev: TraceEvent) {
            if ev.kind == TraceEventKind::Submit {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn builds_a_started_agile_host() {
        let host = HostBuilder::agile(AgileConfig::small_test())
            .gpu(GpuConfig::tiny(2))
            .devices(2, 1 << 14)
            .build();
        assert_eq!(host.ctrl().io().device_count(), 2);
        assert_eq!(host.topology().shard_count(), 1);
        // start_agile already ran: the engine exists and reports time.
        assert_eq!(host.now().raw(), 0);
    }

    #[test]
    fn builds_a_sharded_bam_host_with_sink() {
        let sink = Arc::new(SubmitCounter::default());
        let mut host = HostBuilder::bam(BamConfig::small_test())
            .gpu(GpuConfig::tiny(2))
            .devices(4, 1 << 12)
            .shards(4)
            .trace_sink(sink.clone() as Arc<_>)
            .build();
        assert_eq!(host.topology().shard_count(), 4);
        let ctrl = host.ctrl();
        let report = host.run_kernel(
            LaunchConfig::new(1, 64).with_registers(56),
            Box::new(crate::kernels::SyncReadComputeKernel::new(
                ctrl, 2, 1_000, 50_000,
            )),
        );
        assert!(!report.deadlocked);
        assert!(sink.0.load(Ordering::Relaxed) > 0, "sink was installed");
    }

    #[test]
    fn mixed_backings_accumulate_in_order() {
        use nvme_sim::{MemBacking, PageToken};
        let custom = Arc::new(MemBacking::new(7));
        custom.write(3, PageToken(0xC0FFEE));
        let host = HostBuilder::agile(AgileConfig::small_test())
            .gpu(GpuConfig::tiny(1))
            .devices(1, 1 << 12)
            .backing(1 << 12, custom)
            .build();
        assert_eq!(host.ctrl().io().device_count(), 2);
        assert_eq!(host.backing(1).read(3), PageToken(0xC0FFEE));
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn refuses_to_build_without_devices() {
        let _ = HostBuilder::agile(AgileConfig::small_test()).build();
    }

    #[test]
    fn qos_policy_is_installed_on_both_systems() {
        use agile_core::qos::WeightedFair;
        let host = HostBuilder::agile(AgileConfig::small_test())
            .gpu(GpuConfig::tiny(1))
            .devices(1, 1 << 12)
            .qos(Arc::new(WeightedFair::from_weights(&[3, 1])))
            .build();
        assert_eq!(
            host.ctrl().io().qos_policy().expect("installed").name(),
            "wfq"
        );
        let bam = HostBuilder::bam(BamConfig::small_test())
            .gpu(GpuConfig::tiny(1))
            .devices(1, 1 << 12)
            .qos(Arc::new(WeightedFair::new()))
            .build();
        assert_eq!(
            bam.ctrl().io().qos_policy().expect("installed").name(),
            "wfq"
        );
    }
}
