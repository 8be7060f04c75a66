//! Host-side setup, execution and teardown — the Listing 1 flow.
//!
//! One generic [`Host`] owns the whole bring-up sequence for every system
//! built on the shared substrates: the device list, the storage topology,
//! queue registration, trace-sink fan-out, metrics / sampler / control
//! bridging and the GPU engine. What differs between systems — how the
//! controller is built, which control knobs it exposes and what background
//! work `start` launches — is the [`HostSystem`] trait. [`AgileHost`] is
//! `Host<AgileSystem>`; the BaM baseline's `BamHost` is the same struct over
//! its own marker, so AGILE-vs-BaM comparisons share every line of wiring.
//!
//! [`AgileHost`] mirrors the paper's host API:
//!
//! | Listing 1 call | `AgileHost` method |
//! |---|---|
//! | `AGILE_HOST host(...)` | [`Host::new`] |
//! | `host.setGPUCache(...)` / `setShareTable(...)` | fields of [`crate::config::AgileConfig`] |
//! | `host.addNvmeDev(...)` | [`Host::add_nvme_dev`] / [`Host::add_nvme_dev_with_backing`] |
//! | `host.initNvme()` | [`Host::init_nvme`] |
//! | `host.initializeAgile(...)` | part of [`Host::init_nvme`] (controller construction) |
//! | `host.configKernelParallelism(...)` / `queryOccupancy(...)` | [`Host::query_occupancy`] |
//! | `host.startAgile()` | [`Host::start_agile`] |
//! | `host.runKernel(kernel, args...)` | [`Host::run_kernel`] |
//! | `host.stopAgile()` | [`Host::stop_agile`] |
//! | `host.closeNvme()` | [`Host::close_nvme`] |
//!
//! New code should not drive this order-sensitive sequence by hand: build
//! hosts through `bam_baseline::HostBuilder`, which runs the flow in the
//! only valid order and returns a started host. The surface a started host
//! exposes to harness code is the [`GpuStorageHost`] trait.
//!
//! The host also owns the co-simulation plumbing: it builds the one
//! [`StorageTopology`] (every device behind one modeled array lock) and
//! bridges it into the GPU engine as one [`gpu_sim::ExternalDevice`].

use crate::config::AgileConfig;
use crate::control::{knob_set, QosWeights};
use crate::ctrl::AgileCtrl;
use crate::io_path::IoPath;
use crate::qos::QosPolicy;
use crate::service::{AgileService, AgileServiceKernel};
use crate::telemetry::{CacheCollector, MetricsBridge, ServiceCollector, TopologyCollector};
use agile_control::{ControlBridge, ControlPolicy, Controller, KnobSet, SloSpec, TenantWeights};
use agile_metrics::{MetricsRegistry, WindowedSampler};
use agile_sim::costs::SsdCosts;
use agile_sim::trace::TraceSink;
use agile_sim::Cycles;
use gpu_sim::registers::agile_footprints;
use gpu_sim::{
    occupancy, Engine, EngineSched, ExecutionReport, ExternalDevice, GpuConfig, KernelFactory,
    LaunchConfig,
};
use nvme_sim::{MemBacking, PageBacking, QueuePair, SsdConfig, StorageTopology};
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

    /// The storage topology (striping map, device statistics, lock model).
    fn topology(&self) -> Arc<StorageTopology>;

    /// The page backing of device `dev` (for pre-populating datasets).
    fn backing(&self, dev: usize) -> Arc<dyn PageBacking> {
        self.topology().backing(dev)
    }

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

/// Bridges the whole storage topology into the engine as its one shard
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
    /// (called last in [`Host::start`]).
    fn launch_services(host: &Host<Self>, engine: &mut Engine) -> Self::Services;

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
    fn launch_services(host: &AgileHost, engine: &mut Engine) -> Arc<AgileService> {
        let ctrl = host.ctrl();
        ctrl.reset_service_stop();
        let service = AgileService::new(ctrl);
        if let Some(registry) = &host.metrics {
            registry.register_collector(Box::new(ServiceCollector::new(Arc::clone(&service))));
        }
        let blocks = host.config.service_blocks.max(1);
        let warps_per_block = host.config.service_warps.max(1).div_ceil(blocks);
        let launch = LaunchConfig::new(blocks, warps_per_block * host.gpu.warp_size)
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

/// Owns the GPU engine, the storage topology and the controller of one
/// system under test.
pub struct Host<S: HostSystem> {
    gpu: GpuConfig,
    config: S::Config,
    pending_devices: Vec<(SsdConfig, Arc<dyn PageBacking>)>,
    /// Scheduling loop of the engine (event-driven ready-queue by default).
    engine_sched: EngineSched,
    topology: Option<Arc<StorageTopology>>,
    ctrl: Option<Arc<S::Ctrl>>,
    services: Option<S::Services>,
    /// Present from [`Host::start`] on.
    engine: Option<Engine>,
    /// Optional metrics registry instrumenting the whole stack.
    metrics: Option<Arc<MetricsRegistry>>,
    /// Optional windowed sampler, bridged into the engine at start.
    sampler: Option<Arc<WindowedSampler>>,
    /// Pending control-plane request, consumed at [`Host::start`].
    control: Option<(ControlPolicy, Vec<SloSpec>)>,
    /// The live controller, once started with a control plane.
    controller: Option<Arc<Controller>>,
}

impl<S: HostSystem> Host<S> {
    /// Create a host for the given GPU and system configuration.
    pub fn new(gpu: GpuConfig, config: S::Config) -> Self {
        S::validate(&config);
        Host {
            gpu,
            config,
            pending_devices: Vec::new(),
            engine_sched: EngineSched::default(),
            topology: None,
            ctrl: None,
            services: None,
            engine: None,
            metrics: None,
            sampler: None,
            control: None,
            controller: None,
        }
    }

    /// Panic unless `setter` is being called before [`Host::init_nvme`].
    fn assert_before_init(&self, setter: &str) {
        assert!(
            self.topology.is_none(),
            "{setter} must be called before init_nvme"
        );
    }

    /// Panic unless `setter` is being called before [`Host::start`].
    fn assert_before_start(&self, setter: &str) {
        assert!(
            self.engine.is_none(),
            "{setter} must be called before start"
        );
    }

    /// The GPU configuration.
    pub fn gpu(&self) -> &GpuConfig {
        &self.gpu
    }

    /// The system configuration.
    pub fn config(&self) -> &S::Config {
        &self.config
    }

    /// Select the engine's scheduling loop (default: the event-driven
    /// ready-queue). Must be called before [`Host::start`].
    pub fn set_engine_sched(&mut self, sched: EngineSched) {
        self.assert_before_start("set_engine_sched");
        self.engine_sched = sched;
    }

    /// Register an SSD with `namespace_pages` 4 KiB pages and a default
    /// in-memory backing. Returns the device index.
    pub fn add_nvme_dev(&mut self, namespace_pages: u64) -> usize {
        let id = self.pending_devices.len() as u32;
        self.add_nvme_dev_with_backing(namespace_pages, Arc::new(MemBacking::new(id)))
    }

    /// Register an SSD with a caller-supplied backing (synthetic content,
    /// payload-carrying, …). Returns the device index.
    pub fn add_nvme_dev_with_backing(
        &mut self,
        namespace_pages: u64,
        backing: Arc<dyn PageBacking>,
    ) -> usize {
        self.assert_before_init("add_nvme_dev");
        let id = self.pending_devices.len() as u32;
        let cfg = SsdConfig {
            id,
            costs: S::storage_params(&self.config).0.clone(),
            namespace_pages,
            clock_ghz: self.gpu.clock_ghz,
        };
        self.pending_devices.push((cfg, backing));
        id as usize
    }

    /// Build the storage topology, create and register the I/O queue pairs
    /// in (simulated) pinned GPU memory, and construct the controller —
    /// `initNvme()` + `initializeAgile()` of Listing 1.
    pub fn init_nvme(&mut self) {
        assert!(!self.pending_devices.is_empty(), "no NVMe devices added");
        assert!(self.topology.is_none(), "init_nvme called twice");
        let parts = std::mem::take(&mut self.pending_devices);
        let topology = Arc::new(StorageTopology::from_parts(parts));
        let (_, queue_pairs, queue_depth) = S::storage_params(&self.config);
        let queues = topology.register_queues(queue_pairs, queue_depth);
        self.ctrl = Some(Arc::new(S::new_ctrl(
            self.config.clone(),
            queues,
            Arc::clone(&topology),
        )));
        self.topology = Some(topology);
    }

    /// The controller (available after [`Host::init_nvme`]).
    pub fn ctrl(&self) -> Arc<S::Ctrl> {
        Arc::clone(self.ctrl.as_ref().expect("init_nvme not called"))
    }

    /// Install one trace sink across the whole stack: the controller's
    /// submit/doorbell path and the software cache's lookup path now, every
    /// SSD's completion path at [`Host::start`]. Call after
    /// [`Host::init_nvme`] and before `start`; the first sink installed wins
    /// (returns `false` if one was already present). Recording costs one
    /// atomic load per hook when enabled-but-absent.
    pub fn set_trace_sink(&self, sink: Arc<dyn TraceSink>) -> bool {
        self.assert_before_start("set_trace_sink");
        self.ctrl().io().set_trace_sink(sink)
    }

    /// Install a QoS policy on the controller's tenant-attributed submission
    /// path. Call after [`Host::init_nvme`]; the first policy installed
    /// wins (returns `false` otherwise). See [`crate::qos`].
    pub fn set_qos_policy(&self, policy: Arc<dyn QosPolicy>) -> bool {
        self.ctrl().io().set_qos_policy(policy)
    }

    /// Instrument the stack with `registry`: the controller's submit path
    /// gains direct counters, and the cache / topology / device statistics
    /// are exported through snapshot-time collectors (zero hot-path cost —
    /// see [`crate::telemetry`]). Call after [`Host::init_nvme`] and before
    /// [`Host::start`] (the engine and services bind at start). Without a
    /// registry every metrics hook is a no-op.
    pub fn set_metrics(&mut self, registry: Arc<MetricsRegistry>) {
        assert!(
            self.ctrl.is_some(),
            "set_metrics must be called after init_nvme"
        );
        self.assert_before_start("set_metrics");
        let ctrl = self.ctrl();
        ctrl.io().bind_metrics(&registry);
        registry.register_collector(Box::new(CacheCollector::new(ctrl)));
        registry.register_collector(Box::new(TopologyCollector::new(self.topology())));
        self.metrics = Some(registry);
    }

    /// Attach a windowed sampler, bridged into the engine as a passive
    /// device at [`Host::start`]: the engine visits every window boundary
    /// and the window closes exactly there (the extra rounds step no warp).
    /// Call before `start`.
    pub fn set_metrics_sampler(&mut self, sampler: Arc<WindowedSampler>) {
        self.assert_before_start("set_metrics_sampler");
        self.sampler = Some(sampler);
    }

    /// The installed metrics registry, if any.
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.metrics.as_ref()
    }

    /// Request the closed-loop control plane: at [`Host::start`] a
    /// deterministic [`Controller`] is built over the installed sampler's
    /// window stream (a sampler is required — install one with
    /// [`Host::set_metrics_sampler`]), actuating the system's
    /// [`HostSystem::knobs`] for the declared `slos`, and bridged into the
    /// engine as a passive device. AGILE wires prefetch depth, idle backoff,
    /// WFQ weights and cache shares; BaM has no prefetch pipeline, no
    /// service and a fixed clock cache, so only its WFQ loop runs. Call
    /// after any [`Host::set_qos_policy`] so the WFQ knob is picked up.
    pub fn set_control(&mut self, policy: ControlPolicy, slos: Vec<SloSpec>) {
        self.assert_before_start("set_control");
        self.control = Some((policy, slos));
    }

    /// The live controller, when the host was started with a control plane.
    pub fn controller(&self) -> Option<&Arc<Controller>> {
        self.controller.as_ref()
    }

    /// The shared storage topology (for workload setup and statistics).
    pub fn topology(&self) -> Arc<StorageTopology> {
        Arc::clone(self.topology.as_ref().expect("init_nvme not called"))
    }

    /// The page backing of device `dev` (for pre-populating datasets).
    pub fn backing(&self, dev: usize) -> Arc<dyn PageBacking> {
        self.topology().backing(dev)
    }

    /// `queryOccupancy`: maximum resident blocks per SM for a launch.
    pub fn query_occupancy(&self, launch: &LaunchConfig) -> u32 {
        occupancy(&self.gpu, launch)
    }

    /// Create the GPU engine, bridge every storage device, the trace sink,
    /// the metrics sampler and the control plane into it, then launch the
    /// system's background services (AGILE's persistent service kernel;
    /// nothing for BaM).
    pub fn start(&mut self) {
        assert!(self.ctrl.is_some(), "init_nvme must run before start");
        assert!(self.engine.is_none(), "start called twice");
        let mut engine = Engine::new(self.gpu.clone());
        engine.set_scheduler(self.engine_sched);
        let topology = self.topology();
        let ctrl = self.ctrl();
        // Warps waiting on this stack sleep in its hub; the engine wakes them.
        engine.set_wake_hub(Arc::clone(ctrl.io().wake_hub()));
        let sink = ctrl.io().trace_sink();
        if let Some(sink) = sink {
            topology.set_trace_sink(sink);
        }
        engine.add_shard_device(Box::new(TopologyBridge {
            topology: Arc::clone(&topology),
            now: Cycles::ZERO,
        }));
        if let Some(registry) = &self.metrics {
            engine.set_metrics(gpu_sim::EngineMetrics::bind(registry));
        }
        if let Some(sampler) = &self.sampler {
            engine.add_device(Box::new(MetricsBridge::new(Arc::clone(sampler))));
        }
        if let Some((policy, slos)) = self.control.take() {
            let sampler = self
                .sampler
                .as_ref()
                .expect("set_control requires a windowed sampler (set_metrics_sampler)");
            let controller = Controller::new(
                policy,
                slos,
                S::knobs(&ctrl),
                Arc::clone(sampler),
                self.gpu.clock_ghz,
                self.metrics.as_ref(),
            );
            if let Some(sink) = sink {
                controller.set_trace_sink(Arc::clone(sink));
            }
            engine.add_device(Box::new(ControlBridge::new(Arc::clone(&controller))));
            self.controller = Some(controller);
        }
        self.services = Some(S::launch_services(self, &mut engine));
        self.engine = Some(engine);
    }

    /// Access the engine (advanced use: launching extra kernels directly,
    /// deadlock-window tuning in tests).
    pub fn engine_mut(&mut self) -> &mut Engine {
        self.engine.as_mut().expect("start not called")
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
        let engine = self.engine_mut();
        engine.launch(launch, factory);
        engine.run()
    }

    /// Ask the system's background services to stop (no-op for BaM).
    pub fn stop(&mut self) {
        if let Some(ctrl) = &self.ctrl {
            S::stop_services(ctrl);
        }
    }

    /// Current simulated time of the engine (zero before [`Host::start`]).
    pub fn now(&self) -> Cycles {
        self.engine
            .as_ref()
            .map(|e| e.now())
            .unwrap_or(Cycles::ZERO)
    }
}

/// The Listing-1 names and the service accessors only AGILE has.
impl Host<AgileSystem> {
    /// `startAgile()` — [`Host::start`].
    pub fn start_agile(&mut self) {
        self.start();
    }

    /// `stopAgile()` — [`Host::stop`].
    pub fn stop_agile(&mut self) {
        self.stop();
    }

    /// Tear down the NVMe state — `closeNvme()`. (The simulated equivalents
    /// of unbinding the driver: the queues and devices are dropped.)
    pub fn close_nvme(&mut self) {
        self.stop();
        self.engine = None;
        self.services = None;
        self.ctrl = None;
        self.topology = None;
    }

    /// The AGILE service (available after [`Host::start_agile`]).
    pub fn service(&self) -> Arc<AgileService> {
        Arc::clone(self.services.as_ref().expect("start_agile not called"))
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

    #[test]
    fn full_listing1_flow_runs_a_kernel() {
        let mut host = AgileHost::new(GpuConfig::tiny(4), AgileConfig::small_test());
        host.add_nvme_dev(1 << 16);
        host.add_nvme_dev(1 << 16);
        host.init_nvme();
        assert_eq!(host.ctrl().io().device_count(), 2);
        host.start_agile();
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
        assert!(ctrl.stats().cache_misses > 0);
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
        let mut host = AgileHost::new(GpuConfig::tiny(4), AgileConfig::small_test());
        host.add_nvme_dev(1 << 16);
        host.init_nvme();
        host.set_metrics(Arc::clone(&registry));
        host.start_agile();
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
        let mut host = AgileHost::new(GpuConfig::tiny(4), AgileConfig::small_test());
        host.add_nvme_dev(1 << 16);
        host.init_nvme();
        host.start_agile();
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

    #[test]
    #[should_panic(expected = "before init_nvme")]
    fn adding_devices_after_init_panics() {
        let mut host = AgileHost::new(GpuConfig::tiny(1), AgileConfig::small_test());
        host.add_nvme_dev(1024);
        host.init_nvme();
        host.add_nvme_dev(1024);
    }

    #[test]
    #[should_panic(expected = "queue depth")]
    fn rejects_non_power_of_two_queue_depth() {
        let _ = AgileHost::new(
            GpuConfig::tiny(1),
            AgileConfig::small_test().with_queue_depth(48),
        );
    }

    #[test]
    fn occupancy_query_matches_gpu_sim() {
        let host = AgileHost::new(GpuConfig::rtx_5000_ada(), AgileConfig::small_test());
        let launch = LaunchConfig::new(1, 1024).with_registers(32);
        assert_eq!(host.query_occupancy(&launch), 1);
    }
}
