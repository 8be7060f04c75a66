//! Host-side setup, execution and teardown — the Listing 1 flow.
//!
//! One generic [`Host`] owns the whole bring-up sequence for every system
//! built on the shared substrates: the device list, the storage topology,
//! queue registration, trace-sink fan-out, metrics / sampler / control
//! bridging and the GPU engine. What differs between systems — how the
//! controller is built, which control knobs it exposes and what background
//! work is launched — is the [`HostSystem`] trait. [`AgileHost`] is
//! `Host<AgileSystem>`; the BaM baseline's `BamHost` is the same struct over
//! its own marker, so AGILE-vs-BaM comparisons share every line of wiring.
//!
//! A [`Host`] exists only started: [`Host::build`] takes everything the
//! bring-up needs as one [`HostSpec`] and runs Listing 1's order-sensitive
//! `addNvmeDev` → `initNvme` → `startAgile` sequence in the only valid order.
//! `bam_baseline::HostBuilder` fills the spec for either system:
//!
//! | Listing 1 call | here |
//! |---|---|
//! | `AGILE_HOST host(...)` | [`HostSpec::new`] (`HostBuilder::agile`) |
//! | `host.setGPUCache(...)` | fields of [`crate::config::AgileConfig`] |
//! | `host.addNvmeDev(...)` | [`HostSpec::devices`] (`HostBuilder::devices`) |
//! | `host.initNvme()` / `initializeAgile(...)` / `startAgile()` | [`Host::build`] |
//! | `host.configKernelParallelism(...)` / `queryOccupancy(...)` | [`Host::query_occupancy`] |
//! | `host.runKernel(kernel, args...)` | [`Host::run_kernel`] |
//! | `host.stopAgile()` | [`Host::stop_agile`] |
//! | `host.closeNvme()` | [`Host::close_nvme`] |
//!
//! The surface a started host exposes to harness code is the
//! [`GpuStorageHost`] trait.
//!
//! The host also owns the co-simulation plumbing: it builds the one
//! [`StorageTopology`] (the devices, with a modeled submit lock per
//! registered queue pair) and bridges it into the GPU engine as one
//! [`gpu_sim::ExternalDevice`].

use crate::config::AgileConfig;
use crate::control::{knob_set, QosWeights};
use crate::ctrl::AgileCtrl;
use crate::io_path::IoPath;
use crate::qos::QosPolicy;
use crate::service::{AgileService, AgileServiceKernel};
use crate::telemetry::{
    CacheCollector, MetricsBridge, ServiceCollector, SubmitCollector, TopologyCollector,
};
use agile_control::{ControlBridge, ControlPolicy, Controller, KnobSet, SloSpec, TenantWeights};
use agile_metrics::{MetricsRegistry, WindowedSampler, DEFAULT_WINDOW_CYCLES};
use agile_sim::costs::SsdCosts;
use agile_sim::trace::TraceSink;
use agile_sim::Cycles;
use gpu_sim::registers::agile_footprints;
use gpu_sim::{
    occupancy, Engine, ExecutionReport, ExternalDevice, GpuConfig, KernelFactory, LaunchConfig,
};
use nvme_sim::{MemBacking, QueuePair, SsdConfig, StorageTopology};
use std::sync::Arc;

/// The surface a started host exposes to harness code: controller access,
/// kernel execution and storage introspection. Benchmarks, experiments and
/// replay written against this trait run unchanged on either system.
pub trait GpuStorageHost {
    /// The system's controller type (`AgileCtrl` / `BamCtrl`).
    type Ctrl;

    /// The controller warp kernels hold an `Arc` to.
    fn ctrl(&self) -> Arc<Self::Ctrl>;

    /// Install a QoS policy arbitrating tenant-attributed SQ admission on the
    /// controller. The first policy installed wins; returns `false` if one
    /// was already present. Without a policy the stack behaves as FIFO.
    fn set_qos_policy(&self, policy: Arc<dyn QosPolicy>) -> bool;

    /// The storage topology (striping map, device statistics, per-SQ
    /// submit-lock model).
    fn topology(&self) -> Arc<StorageTopology>;

    /// Maximum resident blocks per SM for a launch (`queryOccupancy`).
    fn query_occupancy(&self, launch: &LaunchConfig) -> u32;

    /// Launch a user kernel and run the co-simulation until it completes.
    fn run_kernel(
        &mut self,
        launch: LaunchConfig,
        factory: Box<dyn KernelFactory>,
    ) -> ExecutionReport;

    /// Current simulated time.
    fn now(&self) -> Cycles;

    /// Stop any background service the system runs (no-op for BaM).
    fn stop(&mut self);
}

/// Bridges the whole storage topology into the engine as its one storage
/// device. [`StorageTopology::advance_to`] visits the devices in device
/// order, the golden-gated order, and the engine wakes the sleepers they
/// notified only after all of them — as it did with one bridge per device.
struct TopologyBridge {
    topology: Arc<StorageTopology>,
    /// The time of the last advance: the engine asks for the next event
    /// after it, device by device.
    now: Cycles,
}

impl ExternalDevice for TopologyBridge {
    fn advance_to(&mut self, now: Cycles) {
        self.now = now;
        self.topology.advance_to(now);
    }
    fn next_event_time(&mut self) -> Option<Cycles> {
        self.topology.next_event_after(self.now)
    }
}

/// What [`Host`] needs from a system's controller: its [`IoPath`], which
/// carries the install-once trace, QoS and metrics hooks and the software
/// cache behind [`CacheCollector`].
pub trait StorageCtrl: Send + Sync + 'static {
    /// The I/O path the controller stands on.
    fn io(&self) -> &IoPath;
}

/// The parts of host bring-up that differ between systems. Implemented by
/// [`AgileSystem`] and the BaM baseline's marker; everything else is
/// [`Host`].
pub trait HostSystem: Sized {
    /// The system's configuration type.
    type Config: Clone;
    /// The system's controller type.
    type Ctrl: StorageCtrl;
    /// What [`HostSystem::launch_services`] leaves running (AGILE's
    /// [`AgileService`]; `()` for a system without background work).
    type Services;

    /// Reject configurations the system cannot run (panics).
    fn validate(_config: &Self::Config) {}

    /// The SSD cost model, queue pairs per SSD and queue depth of `config`.
    fn storage_params(config: &Self::Config) -> (&SsdCosts, usize, u32);

    /// Construct the controller over the registered queue pairs.
    fn new_ctrl(
        config: Self::Config,
        queues: Vec<Vec<Arc<QueuePair>>>,
        topology: Arc<StorageTopology>,
    ) -> Self::Ctrl;

    /// The knobs a control plane may actuate on `ctrl`. The default wires
    /// only the WFQ weight table (when a QoS policy is installed), which
    /// every controller has; the other loops stay dormant.
    fn knobs(ctrl: &Arc<Self::Ctrl>) -> KnobSet {
        KnobSet {
            wfq: ctrl
                .io()
                .qos_policy()
                .map(|p| QosWeights::new(Arc::clone(p)) as Arc<dyn TenantWeights>),
            ..KnobSet::none()
        }
    }

    /// Launch the system's background kernels on the freshly built `engine`
    /// (called last in [`Host::build`]), registering their collectors with
    /// `metrics` when the host is instrumented.
    fn launch_services(
        ctrl: &Arc<Self::Ctrl>,
        config: &Self::Config,
        metrics: Option<&Arc<MetricsRegistry>>,
        engine: &mut Engine,
    ) -> Self::Services;

    /// Ask the background kernels to wind down.
    fn stop_services(_ctrl: &Self::Ctrl) {}
}

/// Marker selecting AGILE: asynchronous device API plus the persistent
/// service kernel of §3.2.
pub struct AgileSystem;

impl HostSystem for AgileSystem {
    type Config = AgileConfig;
    type Ctrl = AgileCtrl;
    type Services = Arc<AgileService>;

    fn validate(config: &AgileConfig) {
        assert!(
            config.queue_depth.is_power_of_two() && config.queue_depth >= 32,
            "queue depth must be a power of two ≥ 32 (warp-window polling)"
        );
    }

    fn storage_params(config: &AgileConfig) -> (&SsdCosts, usize, u32) {
        (
            &config.costs.ssd,
            config.queue_pairs_per_ssd,
            config.queue_depth,
        )
    }

    fn new_ctrl(
        config: AgileConfig,
        queues: Vec<Vec<Arc<QueuePair>>>,
        topology: Arc<StorageTopology>,
    ) -> AgileCtrl {
        AgileCtrl::with_topology(config, queues, topology)
    }

    /// Prefetch depth, idle backoff, WFQ weights and cache shares.
    fn knobs(ctrl: &Arc<AgileCtrl>) -> KnobSet {
        knob_set(ctrl)
    }

    /// The one persistent service kernel, in the configured
    /// `service_blocks` × `service_warps` geometry.
    fn launch_services(
        ctrl: &Arc<AgileCtrl>,
        config: &AgileConfig,
        metrics: Option<&Arc<MetricsRegistry>>,
        engine: &mut Engine,
    ) -> Arc<AgileService> {
        ctrl.reset_service_stop();
        let service = AgileService::new(Arc::clone(ctrl));
        if let Some(registry) = metrics {
            registry.register_collector(Box::new(ServiceCollector::new(Arc::clone(&service))));
        }
        let blocks = config.service_blocks.max(1);
        let warps_per_block = config.service_warps.max(1).div_ceil(blocks);
        let launch = LaunchConfig::new(blocks, warps_per_block * engine.gpu().warp_size)
            .with_registers(agile_footprints::SERVICE_KERNEL_REGISTERS)
            .persistent();
        engine.launch(
            launch,
            Box::new(AgileServiceKernel::new(
                Arc::clone(&service),
                warps_per_block,
                warps_per_block * blocks,
            )),
        );
        service
    }

    fn stop_services(ctrl: &AgileCtrl) {
        ctrl.request_service_stop();
    }
}

/// The AGILE host: [`Host`] with the Listing-1 method names.
pub type AgileHost = Host<AgileSystem>;

/// Everything [`Host::build`] brings a host up from: the GPU, the system
/// configuration, the devices and the optional trace, QoS, metrics and
/// control wiring. `bam_baseline::HostBuilder` fills one declaratively.
pub struct HostSpec<S: HostSystem> {
    /// The simulated GPU.
    pub gpu: GpuConfig,
    /// The system configuration.
    pub config: S::Config,
    /// The SSDs in add order (device `i` is the `i`-th entry): namespace
    /// size in 4 KiB pages. Each device gets an empty [`MemBacking`].
    pub devices: Vec<u64>,
    /// One trace sink across the whole stack: the controller's submit /
    /// doorbell path, the software cache's lookup path, every SSD's
    /// completion path and the control plane's decisions.
    pub trace_sink: Option<Arc<dyn TraceSink>>,
    /// QoS policy arbitrating tenant-attributed SQ admission (FIFO without).
    pub qos: Option<Arc<dyn QosPolicy>>,
    /// Metrics registry instrumenting the whole stack (every hook a no-op
    /// without).
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Windowed sampler, bridged into the engine as a passive device.
    pub sampler: Option<Arc<WindowedSampler>>,
    /// Closed-loop control plane under this policy.
    pub control: Option<ControlPolicy>,
    /// Per-tenant objectives for the control plane's SLO loop.
    pub slos: Vec<SloSpec>,
}

impl<S: HostSystem> HostSpec<S> {
    /// A spec with no devices and nothing optional installed.
    pub fn new(gpu: GpuConfig, config: S::Config) -> Self {
        HostSpec {
            gpu,
            config,
            devices: Vec::new(),
            trace_sink: None,
            qos: None,
            metrics: None,
            sampler: None,
            control: None,
            slos: Vec::new(),
        }
    }
}

/// Owns the GPU engine, the storage topology and the controller of one
/// started system under test.
pub struct Host<S: HostSystem> {
    gpu: GpuConfig,
    config: S::Config,
    topology: Arc<StorageTopology>,
    ctrl: Arc<S::Ctrl>,
    services: S::Services,
    engine: Engine,
    /// The metrics registry instrumenting the whole stack, if any.
    metrics: Option<Arc<MetricsRegistry>>,
    /// The live controller, when the host was built with a control plane.
    controller: Option<Arc<Controller>>,
}

impl<S: HostSystem> Host<S> {
    /// Bring a host up from `spec` and return it started — Listing 1's
    /// `addNvmeDev` → `initNvme` / `initializeAgile` → `startAgile`.
    ///
    /// The order is part of the determinism contract:
    /// 1. the devices, in add order;
    /// 2. the storage topology and its queue pairs (pinned GPU memory);
    /// 3. the controller;
    /// 4. the trace sink on the controller's path;
    /// 5. the QoS policy;
    /// 6. the metrics binding, then the cache and topology collectors;
    /// 7. the sampler — when control was requested without a registry and
    ///    sampler, a registry and a [`DEFAULT_WINDOW_CYCLES`]-cycle sampler
    ///    are created;
    /// 8. the engine: wake hub, topology sink, storage bridge,
    ///    engine metrics, sampler bridge, then the control bridge;
    /// 9. the system's services (AGILE's persistent service kernel; nothing
    ///    for BaM) and their collector.
    ///
    /// Panics on a spec without devices and on a configuration the system
    /// rejects (AGILE: a queue depth that is not a power of two ≥ 32).
    pub fn build(spec: HostSpec<S>) -> Self {
        let HostSpec {
            gpu,
            config,
            devices,
            trace_sink,
            qos,
            mut metrics,
            mut sampler,
            control,
            slos,
        } = spec;
        assert!(
            !devices.is_empty(),
            "a host needs at least one device — HostBuilder::devices(n, pages)"
        );
        S::validate(&config);
        let (costs, queue_pairs, queue_depth) = S::storage_params(&config);
        let configs = devices
            .into_iter()
            .enumerate()
            .map(|(id, namespace_pages)| SsdConfig {
                id: id as u32,
                costs: costs.clone(),
                namespace_pages,
                clock_ghz: gpu.clock_ghz,
            })
            .collect();
        let topology = Arc::new(StorageTopology::from_configs(configs));
        let queues = topology.register_queues(queue_pairs, queue_depth);
        let ctrl = Arc::new(S::new_ctrl(config.clone(), queues, Arc::clone(&topology)));

        if let Some(sink) = trace_sink {
            ctrl.io().set_trace_sink(sink);
        }
        if let Some(qos) = qos {
            ctrl.io().set_qos_policy(qos);
        }
        // The control plane consumes sampler windows.
        if control.is_some() {
            let registry = metrics.get_or_insert_with(Default::default);
            sampler.get_or_insert_with(|| {
                WindowedSampler::new(Arc::clone(registry), DEFAULT_WINDOW_CYCLES)
            });
        }
        if let Some(registry) = &metrics {
            registry.register_collector(Box::new(SubmitCollector::new(ctrl.clone())));
            registry.register_collector(Box::new(CacheCollector::new(ctrl.clone())));
            registry.register_collector(Box::new(TopologyCollector::new(Arc::clone(&topology))));
        }

        let mut engine = Engine::new(gpu.clone());
        // Warps waiting on this stack sleep in its hub; the engine wakes them.
        engine.set_wake_hub(Arc::clone(ctrl.io().wake_hub()));
        let sink = ctrl.io().trace_sink();
        if let Some(sink) = sink {
            topology.set_trace_sink(sink);
        }
        engine.add_storage_device(Box::new(TopologyBridge {
            topology: Arc::clone(&topology),
            now: Cycles::ZERO,
        }));
        if let Some(registry) = &metrics {
            engine.set_metrics(gpu_sim::EngineMetrics::bind(registry));
        }
        if let Some(sampler) = &sampler {
            engine.add_device(Box::new(MetricsBridge::new(Arc::clone(sampler))));
        }
        // `sampler` is present whenever `control` is (created above).
        let controller = control.zip(sampler).map(|(policy, sampler)| {
            let controller = Controller::new(
                policy,
                slos,
                S::knobs(&ctrl),
                sampler,
                gpu.clock_ghz,
                metrics.as_ref(),
            );
            if let Some(sink) = sink {
                controller.set_trace_sink(Arc::clone(sink));
            }
            engine.add_device(Box::new(ControlBridge::new(Arc::clone(&controller))));
            controller
        });
        let services = S::launch_services(&ctrl, &config, metrics.as_ref(), &mut engine);
        Host {
            gpu,
            config,
            topology,
            ctrl,
            services,
            engine,
            metrics,
            controller,
        }
    }

    /// The GPU configuration.
    pub fn gpu(&self) -> &GpuConfig {
        &self.gpu
    }

    /// The system configuration.
    pub fn config(&self) -> &S::Config {
        &self.config
    }

    /// The controller.
    pub fn ctrl(&self) -> Arc<S::Ctrl> {
        Arc::clone(&self.ctrl)
    }

    /// Install a QoS policy on the controller's tenant-attributed submission
    /// path; the first policy installed wins (returns `false` otherwise).
    /// See [`crate::qos`].
    pub fn set_qos_policy(&self, policy: Arc<dyn QosPolicy>) -> bool {
        self.ctrl.io().set_qos_policy(policy)
    }

    /// The installed metrics registry, if any: the controller's submit path
    /// counts directly, and the cache / topology / device / service
    /// statistics are exported through snapshot-time collectors (zero
    /// hot-path cost — see [`crate::telemetry`]).
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.metrics.as_ref()
    }

    /// The live controller, when the host was built with a control plane: a
    /// deterministic [`Controller`] over the sampler's window stream,
    /// actuating the system's [`HostSystem::knobs`] for the declared SLOs.
    /// AGILE wires prefetch depth, idle backoff, WFQ weights and cache
    /// shares; BaM has no prefetch pipeline, no service and a fixed clock
    /// cache, so only its WFQ loop runs.
    pub fn controller(&self) -> Option<&Arc<Controller>> {
        self.controller.as_ref()
    }

    /// The shared storage topology (for workload setup and statistics).
    pub fn topology(&self) -> Arc<StorageTopology> {
        Arc::clone(&self.topology)
    }

    /// The page backing of device `dev` (for pre-populating datasets).
    pub fn backing(&self, dev: usize) -> Arc<MemBacking> {
        self.topology.backing(dev)
    }

    /// `queryOccupancy`: maximum resident blocks per SM for a launch.
    pub fn query_occupancy(&self, launch: &LaunchConfig) -> u32 {
        occupancy(&self.gpu, launch)
    }

    /// Access the engine (advanced use: launching extra kernels directly,
    /// switching the scheduling loop with [`Engine::set_scheduler`] between
    /// runs, deadlock-window tuning in tests).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Launch a user kernel and run the co-simulation until it (and any other
    /// non-persistent kernel) completes — `runKernel()`. Returns the
    /// execution report, whose `elapsed` field is the measured end-to-end
    /// time of this run.
    pub fn run_kernel(
        &mut self,
        launch: LaunchConfig,
        factory: Box<dyn KernelFactory>,
    ) -> ExecutionReport {
        self.engine.launch(launch, factory);
        self.engine.run()
    }

    /// Ask the system's background services to stop (no-op for BaM).
    pub fn stop(&mut self) {
        S::stop_services(&self.ctrl);
    }

    /// Current simulated time of the engine.
    pub fn now(&self) -> Cycles {
        self.engine.now()
    }
}

/// The Listing-1 names and the service accessor only AGILE has.
impl Host<AgileSystem> {
    /// `stopAgile()` — [`Host::stop`].
    pub fn stop_agile(&mut self) {
        self.stop();
    }

    /// Tear down the NVMe state — `closeNvme()`: stop the service and drop
    /// the engine, queues and devices (the simulated equivalent of unbinding
    /// the driver).
    pub fn close_nvme(mut self) {
        self.stop();
    }

    /// The AGILE service.
    pub fn service(&self) -> Arc<AgileService> {
        Arc::clone(&self.services)
    }
}

impl<S: HostSystem> GpuStorageHost for Host<S> {
    type Ctrl = S::Ctrl;

    fn ctrl(&self) -> Arc<S::Ctrl> {
        Host::ctrl(self)
    }
    fn set_qos_policy(&self, policy: Arc<dyn QosPolicy>) -> bool {
        Host::set_qos_policy(self, policy)
    }
    fn topology(&self) -> Arc<StorageTopology> {
        Host::topology(self)
    }
    fn query_occupancy(&self, launch: &LaunchConfig) -> u32 {
        Host::query_occupancy(self, launch)
    }
    fn run_kernel(
        &mut self,
        launch: LaunchConfig,
        factory: Box<dyn KernelFactory>,
    ) -> ExecutionReport {
        Host::run_kernel(self, launch, factory)
    }
    fn now(&self) -> Cycles {
        Host::now(self)
    }
    fn stop(&mut self) {
        Host::stop(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::PrefetchComputeKernel;

    /// A started AGILE host on `gpu` over `devices` SSDs of `pages` pages.
    fn agile_host(gpu: GpuConfig, devices: usize, pages: u64) -> AgileHost {
        let mut spec = HostSpec::new(gpu, AgileConfig::small_test());
        spec.devices = vec![pages; devices];
        AgileHost::build(spec)
    }

    #[test]
    fn full_listing1_flow_runs_a_kernel() {
        let mut host = agile_host(GpuConfig::tiny(4), 2, 1 << 16);
        assert_eq!(host.ctrl().io().device_count(), 2);
        let ctrl = host.ctrl();
        let launch = LaunchConfig::new(2, 64).with_registers(32);
        assert!(host.query_occupancy(&launch) >= 1);
        let report = host.run_kernel(
            launch,
            Box::new(PrefetchComputeKernel::new(ctrl.clone(), 4, 3_000)),
        );
        assert!(!report.deadlocked, "AGILE flow must not deadlock");
        assert!(report.elapsed.raw() > 0);
        // The user kernel really moved data: cache has content and the SSDs
        // processed reads.
        assert!(ctrl.stats().io.cache_misses > 0);
        assert!(host.topology().total_bytes_read() > 0);
        host.stop_agile();
        host.close_nvme();
    }

    #[test]
    fn dropping_a_metered_host_frees_the_registry() {
        // The registry's collectors hold the controller and the controller's
        // instruments come from the registry; that loop must not be made of
        // strong references, or every metered host is leaked whole.
        let registry = MetricsRegistry::new();
        let mut spec = HostSpec::new(GpuConfig::tiny(4), AgileConfig::small_test());
        spec.devices = vec![1 << 16];
        spec.metrics = Some(Arc::clone(&registry));
        let mut host = AgileHost::build(spec);
        let ctrl = host.ctrl();
        let report = host.run_kernel(
            LaunchConfig::new(2, 64).with_registers(32),
            Box::new(PrefetchComputeKernel::new(ctrl.clone(), 4, 3_000)),
        );
        assert!(!report.deadlocked);
        let (registry_alive, ctrl_alive) = (Arc::downgrade(&registry), Arc::downgrade(&ctrl));
        drop((host, registry, ctrl));
        assert!(registry_alive.upgrade().is_none(), "registry leaked");
        assert!(ctrl_alive.upgrade().is_none(), "controller leaked");
    }

    #[test]
    fn a_warp_asleep_on_a_barrier_nobody_completes_is_reported_with_its_reason() {
        use crate::transaction::Barrier;
        use agile_sim::wake::{SleeperId, WaitReason};
        use gpu_sim::{WarpCtx, WarpKernel, WarpStep};

        /// Waits on a barrier no command was ever issued for.
        struct Orphan(Arc<AgileCtrl>);
        struct OrphanWarp(Arc<AgileCtrl>, Barrier, Option<SleeperId>);
        impl KernelFactory for Orphan {
            fn create_warp(&self, _b: u32, _w: u32) -> Box<dyn WarpKernel> {
                Box::new(OrphanWarp(Arc::clone(&self.0), Barrier::new(), None))
            }
            fn name(&self) -> &str {
                "orphan"
            }
        }
        impl WarpKernel for OrphanWarp {
            fn step(&mut self, _ctx: &WarpCtx) -> WarpStep {
                WarpStep::Stall {
                    retry_after: Cycles(2_000),
                    wait: self
                        .0
                        .io()
                        .park_on_barriers(&mut self.2, std::iter::once(&self.1)),
                }
            }
        }

        // The default `EventQueue`: `FullScan` never parks, so it would wait
        // out the window instead.
        let mut host = agile_host(GpuConfig::tiny(4), 1, 1 << 16);
        let ctrl = host.ctrl();
        let report = host.run_kernel(
            LaunchConfig::new(1, 32).with_registers(32),
            Box::new(Orphan(Arc::clone(&ctrl))),
        );
        // The warp and both service warps are asleep and the SSD has nothing
        // in flight: flagged on the spot, not a window later.
        assert!(report.deadlocked);
        assert!(report.elapsed < Cycles(10_000));
        let reasons: Vec<WaitReason> = report.stalled.iter().map(|&(_, why)| why).collect();
        assert_eq!(
            reasons,
            [
                WaitReason::ServiceIdle,
                WaitReason::ServiceIdle,
                WaitReason::Barrier
            ],
            "{:?}",
            report.stalled
        );
    }

    /// A spec of `config` over one small SSD.
    fn one_device(config: AgileConfig) -> HostSpec<AgileSystem> {
        let mut spec = HostSpec::new(GpuConfig::tiny(1), config);
        spec.devices = vec![1024];
        spec
    }

    #[test]
    #[should_panic(expected = "queue depth")]
    fn rejects_non_power_of_two_queue_depth() {
        let _ = AgileHost::build(one_device(AgileConfig::small_test().with_queue_depth(48)));
    }

    #[test]
    #[should_panic(expected = "queue depth")]
    fn rejects_a_power_of_two_queue_depth_below_32() {
        let _ = AgileHost::build(one_device(AgileConfig::small_test().with_queue_depth(16)));
    }

    #[test]
    fn occupancy_query_matches_gpu_sim() {
        let host = agile_host(GpuConfig::rtx_5000_ada(), 1, 1024);
        let launch = LaunchConfig::new(1, 1024).with_registers(32);
        assert_eq!(host.query_occupancy(&launch), 1);
    }
}
