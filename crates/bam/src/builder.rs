//! One builder for both hosts.
//!
//! A host exists only started: [`agile_core::host::Host::build`] brings it
//! up from one [`HostSpec`] in the only valid order (Listing 1's
//! `addNvmeDev` → `initNvme` → `startAgile`). [`HostBuilder`] fills that
//! spec declaratively and `build()` hands it over:
//!
//! ```
//! use bam_baseline::HostBuilder;
//! use agile_core::{AgileConfig, GpuStorageHost};
//! use gpu_sim::GpuConfig;
//!
//! let mut host = HostBuilder::agile(AgileConfig::small_test())
//!     .gpu(GpuConfig::tiny(4))
//!     .devices(2, 1 << 16)  // two SSDs of 2^16 pages
//!     .build();
//! assert_eq!(host.topology().device_count(), 2);
//! # let _ = &mut host;
//! ```
//!
//! `HostBuilder::bam(config)` builds the synchronous baseline the same way;
//! the result of either constructor implements
//! [`agile_core::host::GpuStorageHost`], so harness code compares the two
//! systems without duplicating setup.
//!
//! The engine's scheduling loop is not a build setting: switch it between
//! runs with `host.engine_mut().set_scheduler(..)` ([`gpu_sim::Engine`]).

use crate::ctrl::BamConfig;
use crate::host::BamSystem;
use agile_control::{ControlPolicy, SloSpec};
use agile_core::config::AgileConfig;
use agile_core::host::{AgileSystem, Host, HostSpec, HostSystem};
use agile_core::qos::QosPolicy;
use agile_metrics::{MetricsRegistry, WindowedSampler};
use agile_sim::trace::TraceSink;
use gpu_sim::GpuConfig;
use std::sync::Arc;

/// Declarative construction of an AGILE or BaM host (see the module docs).
pub struct HostBuilder<S: HostSystem> {
    spec: HostSpec<S>,
}

impl HostBuilder<AgileSystem> {
    /// Build an AGILE host (background service, asynchronous I/O API).
    pub fn agile(config: AgileConfig) -> Self {
        Self::new(config)
    }

    /// Select the software cache's replacement policy
    /// ([`agile_core::config::CachePolicyKind`]). The default clock policy is
    /// the paper's, bit-identical to the pre-tenant-threading stack. Pair
    /// [`CachePolicyKind::TenantShare`](agile_core::config::CachePolicyKind::TenantShare)
    /// with [`HostBuilder::cache_shares`] for weighted per-tenant occupancy
    /// bounds. AGILE only — the BaM baseline hard-codes one policy, which is
    /// exactly the flexibility gap the paper calls out.
    pub fn cache_policy(mut self, policy: agile_core::config::CachePolicyKind) -> Self {
        self.spec.config.cache_policy = policy;
        self
    }

    /// Per-tenant cache-occupancy weights, indexed by tenant id, consumed by
    /// the `TenantShare` eviction policy (tenants beyond the slice weigh 1;
    /// empty = equal shares).
    pub fn cache_shares(mut self, shares: Vec<u64>) -> Self {
        self.spec.config.cache_shares = shares;
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
            spec: HostSpec::new(GpuConfig::rtx_5000_ada(), config),
        }
    }

    /// Simulated GPU to run on (default: the paper's RTX 5000 Ada).
    pub fn gpu(mut self, gpu: GpuConfig) -> Self {
        self.spec.gpu = gpu;
        self
    }

    /// Add `count` SSDs of `pages` 4 KiB pages each with default in-memory
    /// backings. May be called repeatedly; devices accumulate.
    pub fn devices(mut self, count: usize, pages: u64) -> Self {
        self.spec.devices.extend(std::iter::repeat_n(pages, count));
        self
    }

    /// Install a trace sink across the whole stack before the first kernel
    /// runs, so capture covers every event from time zero.
    pub fn trace_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.spec.trace_sink = Some(sink);
        self
    }

    /// Install a QoS policy ([`agile_core::qos::QosPolicy`]) arbitrating
    /// tenant-attributed SQ admission, before the first kernel runs. Without
    /// this call the stack schedules FIFO (pre-QoS behaviour, bit-for-bit).
    pub fn qos(mut self, policy: Arc<dyn QosPolicy>) -> Self {
        self.spec.qos = Some(policy);
        self
    }

    /// Instrument the whole stack with a metrics registry
    /// ([`agile_metrics::MetricsRegistry`]): submit-path and engine counters
    /// plus snapshot-time collectors over the cache, topology, devices and
    /// (on AGILE) the service. Without this call every metrics hook
    /// is a no-op and replay output is byte-identical to an uninstrumented
    /// build.
    pub fn metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.spec.metrics = Some(registry);
        self
    }

    /// Attach a windowed sampler ([`agile_metrics::WindowedSampler`]) driven
    /// by the simulated clock; pair with [`HostBuilder::metrics`] over the
    /// same registry to get per-window time series out of a run.
    pub fn metrics_sampler(mut self, sampler: Arc<WindowedSampler>) -> Self {
        self.spec.sampler = Some(sampler);
        self
    }

    /// Enable the closed-loop control plane ([`agile_control::Controller`])
    /// under `policy`. Implies metrics: when no registry / sampler was
    /// supplied, a registry and a
    /// [`DEFAULT_WINDOW_CYCLES`](agile_metrics::DEFAULT_WINDOW_CYCLES)-cycle
    /// sampler are created at build time. Pair with [`HostBuilder::slos`]
    /// to enforce per-tenant objectives.
    pub fn control(mut self, policy: ControlPolicy) -> Self {
        self.spec.control = Some(policy);
        self
    }

    /// Declare per-tenant SLOs ([`agile_control::SloSpec`]) for the control
    /// plane's AIMD loop. Only meaningful with [`HostBuilder::control`].
    pub fn slos(mut self, slos: Vec<SloSpec>) -> Self {
        self.spec.slos = slos;
        self
    }

    /// Construct, initialise and start the host ([`Host::build`]): devices +
    /// queues built, controller created, trace sink / QoS / metrics /
    /// control plane installed, engine ready and (on AGILE) the service
    /// launched. Panics without devices.
    pub fn build(self) -> Host<S> {
        Host::build(self.spec)
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
        assert_eq!(host.topology().device_count(), 2);
        // The host is started: the engine exists and reports time.
        assert_eq!(host.now().raw(), 0);
    }

    #[test]
    fn builds_a_bam_host_with_sink() {
        let sink = Arc::new(SubmitCounter::default());
        let mut host = HostBuilder::bam(BamConfig::small_test())
            .gpu(GpuConfig::tiny(2))
            .devices(4, 1 << 12)
            .trace_sink(sink.clone() as Arc<_>)
            .build();
        assert_eq!(host.topology().device_count(), 4);
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
    fn devices_accumulate_in_order() {
        let host = HostBuilder::agile(AgileConfig::small_test())
            .gpu(GpuConfig::tiny(1))
            .devices(1, 1 << 12)
            .devices(1, 1 << 13)
            .build();
        let topology = host.topology();
        assert_eq!(topology.device_count(), 2);
        let pages: Vec<u64> = (0..2)
            .map(|d| topology.device(d).config().namespace_pages)
            .collect();
        assert_eq!(pages, [1 << 12, 1 << 13]);
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
