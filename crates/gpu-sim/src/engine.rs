//! The co-simulation engine.
//!
//! [`Engine`] owns the GPU state (SMs with resident warps), the launched
//! kernels, and any external latency-bearing devices (the SSD array, wrapped
//! behind [`ExternalDevice`]). `run()` advances virtual time event by event:
//!
//! 1. all external devices are advanced to the current time so their
//!    completions (DMA writes, CQ entries) become visible to warps;
//! 2. every resident warp whose wake time has arrived is stepped once;
//! 3. finished blocks release their SM resources and pending blocks from the
//!    dispatch queue are placed (wave scheduling);
//! 4. the clock jumps to the next interesting time.
//!
//! Scheduling is **event-driven** ([`EngineSched::EventQueue`], the default):
//! warps live in a min-heap ready-queue keyed on `ready_at`, re-enqueued on
//! every `Busy` and every polled `Stall`, so a round costs O(ready warps ·
//! log W) instead of a scan over every resident warp, and rounds fire only
//! at warp wake times: storage-device events (`next_event_time`) do not force
//! empty rounds, because a discrete-event device advanced straight to the
//! next warp wake produces the same completions it would have produced
//! stepwise. (Passive devices — observers with a schedule of their own, such
//! as a metric window closing — are visited at their event times always.)
//! The pre-refactor scheduler is kept as [`EngineSched::FullScan`] for
//! equivalence tests and wall-time comparisons; both schedulers run every
//! warp that does something at the same simulated times in the same order,
//! so every simulated time is bit-identical — only `rounds`, the steps that
//! were executed and what those steps count (wall time, too) differ.
//!
//! # Polling vs waiting
//!
//! A stalled warp asks to be re-polled every `retry_after` cycles. Most of
//! those polls learn nothing, and with a wake hub attached
//! ([`Engine::set_wake_hub`]) the event-driven scheduler does not make them:
//! a warp whose [`WarpStep::Stall`] carries a parkable wait descriptor
//! (`Wait::parked` — the kernel vouches that its re-polls are *pure* until
//! its sleeper is notified, and has registered the sleeper with everything
//! that can end the wait) leaves the ready queue and **sleeps**. What wakes
//! it is the producer: `IoPath::retire` completing its barrier or its cache
//! fill, an aborted fill or reinstated victim, a completion posted to a CQ
//! an idle service warp watches, a write to the service's idle-backoff cell,
//! a stop request. The engine drains the notified sleepers after the device
//! phase and after every warp step — sorted by sleeper id, never in arrival
//! order, so the wake rule does not depend on which producer notified first —
//! and re-arms each at the **first point of its own retry grid at or after
//! the event**: the poll that would have been the first to notice. In the
//! event's own cycle that is "now" only if the warp sorts after the
//! notifying warp in `(sm, slot)` order (polling would have stepped it after
//! the event; it joins the round's walk in order); a device event
//! precedes every warp of its round. The rule is **times are simulated,
//! counts are executed**: the polls in between are never made, so they
//! count nowhere — not in `KernelReport::steps`, not in any counter or
//! trace record of the stack — but the time they stand for does, as
//! `k × retry_after` stall cycles on the engine's own books (for warps still
//! asleep at the end of a run, up to that end). Every wake time is therefore
//! what polling would have produced, and every poll count at most that;
//! `FullScan`, which never parks, is the reference the parking scheduler is
//! tested against (`tests/park_differential.rs`).
//!
//! A wait may also name a **counting queue** of the hub (`Wait::queued`: a
//! submission refused because every SQ of a device was full). Such a wait
//! ends when its sleeper is notified *or* when it is handed one unit the
//! producer granted to the queue (`WakeHub::grant`: SQ slots a release made
//! claimable). The engine keeps each queue's parked warps ordered by the
//! phase of their retry grid (`since mod every`, then `(sm, slot)`; a queue's
//! waiters share one interval, and a warp that would bring another one
//! polls instead), and hands each granted unit to the waiter whose wake
//! point by the rule above comes first — the warp a polling run would have
//! served. It wakes through the same code as a notified sleeper and goes
//! back to idle in the hub; a waiter woken by its own sleeper leaves the
//! queue first. The index is rebuilt where the sleepers' positions are (run
//! start, after compaction) and emptied when `FullScan` unparks everything.
//! A parked wait may also carry a **deadline** (`Wait::until`, a point of the
//! warp's grid): the engine keeps a ready-queue entry there and wakes the
//! warp at it with no producer, booking the stall of the polls before it. A
//! notification that ends the sleep first leaves that entry **stale** — the
//! warp is no longer parked, or parked with another deadline, and its
//! `ready_at` is elsewhere — and a stale entry is skipped without a round of
//! its own; a batch holding a deadline and a wake at the same point steps the
//! warp once. A stall may also start with a **busy prefix**
//! (`Wait::after_busy(t)`): the time up to `t` is booked as busy and the
//! grid starts at `t` itself, where it otherwise starts one interval after
//! the step; a polling scheduler steps the warp at `t`. A service warp uses
//! both: it reads off the devices' schedule which sweep will find a
//! completion and sleeps to it, also after a sweep that found some.
//!
//! Two things follow for the loop itself: while a warp sleeps on a wait only
//! a *device* can end (a service warp asleep until a post, with nothing in
//! flight for it), rounds also visit storage-device event times — its wake
//! point is the first of its grid after the completion, so the clock may not
//! jump past that (a deadline needs no such visits); and a warp placed in
//! mid-run steps at the next time a polling scheduler would have run a
//! round, sleepers' polls included.
//!
//! # Determinism contract: device order
//!
//! External devices come in two tiers. **Storage devices**
//! ([`Engine::add_storage_device`]) model the storage itself (the host
//! bridges its whole array in as one). **Passive devices**
//! ([`Engine::add_device`]) observe state the storage devices and warps
//! produce (metrics samplers, feedback controllers). Every scheduler
//! advances storage devices first, in the order they were added, then
//! passive devices in the order *they* were added. That combined order is
//! part of the determinism contract — reordering either list reorders device
//! side effects (trace records, metric windows, control decisions) and breaks
//! bit-identity with the golden traces. The two tiers are kept in separate
//! lists, so how `add_storage_device` and `add_device` calls interleave is
//! immaterial.
//!
//! The engine also watches for livelock: if no warp makes forward progress
//! (`Busy`, `Done`, or a sleeper being woken) for a configurable window while
//! kernels are still incomplete **and no device has work in flight** (a long
//! device latency is slow, not stuck), it stops and flags the run as
//! deadlocked — this is how the repository demonstrates the queue deadlock of
//! paper §2.3.1 on the synchronous baseline, and its absence under AGILE.
//! With sleepers there is a case that needs no window: every live warp is
//! asleep and no device has anything pending, so nothing can ever notify
//! anyone; that is flagged at once. Either way the report lists each stalled
//! warp with the reason its last wait descriptor gave
//! ([`ExecutionReport::stalled`]).

use crate::config::GpuConfig;
use crate::kernel::{occupancy, KernelFactory, KernelId, LaunchConfig, WarpCtx, WarpId, WarpStep};
use crate::queue_index::QueueWaiters;
use crate::sm::{Parked, ResidentWarp, SmState};
use agile_sim::wake::{QueueId, SleeperId, Wait, WaitReason, WakeHub};
use agile_sim::{Cycles, SimClock};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Which scheduling loop [`Engine::run`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineSched {
    /// Min-heap ready-queue on `ready_at`: rounds fire only at warp wake
    /// times and step only the warps that are due. The default.
    #[default]
    EventQueue,
    /// The pre-ready-queue scheduler: every round scans every resident warp
    /// and wakes at every device event, and every stall is polled — it never
    /// parks a warp. Kept as the reference for equivalence tests and
    /// wall-time comparisons; identical in simulated time, just
    /// O(warps)/round, and it makes every poll a parking run skips.
    FullScan,
}

/// The engine's totals as the registry sees them (the `agile_engine_*`
/// metric family): rounds, warp steps, stale wakes and the ready-queue high
/// water. The scheduling loops count in plain engine fields and store them
/// here only every `METRICS_FLUSH_ROUNDS` rounds (and at run end), so the
/// hot loop never touches an atomic — windowed series see engine counters
/// at that flush granularity.
#[derive(Clone)]
pub struct EngineMetrics(
    /// Rounds, warp steps, stale wakes, ready-queue high water.
    std::sync::Arc<[AtomicU64; 4]>,
);

impl EngineMetrics {
    /// Register the collector that reads the engine's totals in `registry`.
    pub fn bind(registry: &std::sync::Arc<agile_metrics::MetricsRegistry>) -> Self {
        let metrics = EngineMetrics(std::sync::Arc::default());
        registry.register_collector(Box::new(metrics.clone()));
        metrics
    }
}

impl agile_metrics::Collector for EngineMetrics {
    fn collect(&self, out: &mut Vec<agile_metrics::Sample>) {
        use agile_metrics::MetricValue::{Counter, Gauge};
        let [rounds, steps, stale, high_water] = self.0.each_ref().map(|v| v.load(Relaxed));
        for (name, value) in [
            ("agile_engine_rounds_total", Counter(rounds)),
            ("agile_engine_warp_steps_total", Counter(steps)),
            ("agile_engine_stale_wakes_total", Counter(stale)),
            ("agile_engine_ready_queue_high_water", Gauge(high_water)),
        ] {
            out.push(agile_metrics::Sample {
                name,
                labels: agile_metrics::Labels::NONE,
                value,
            });
        }
    }
}

/// An external device co-simulated with the GPU (in practice: the SSD array).
///
/// `Send` so an [`Engine`] — and the host that owns it — can be built on one
/// thread and run on another.
pub trait ExternalDevice: Send {
    /// Advance the device's internal state to time `now`.
    fn advance_to(&mut self, now: Cycles);
    /// Earliest pending internal event, if any.
    fn next_event_time(&mut self) -> Option<Cycles>;
}

/// Per-kernel execution summary.
#[derive(Debug, Clone)]
pub struct KernelReport {
    /// Kernel name (from the factory).
    pub name: String,
    /// Kernel id.
    pub id: u32,
    /// Total warps executed.
    pub warps: u64,
    /// Sum of busy cycles across warps (including the busy prefixes of
    /// stalls, [`Wait::after_busy`]).
    pub busy_cycles: u64,
    /// Sum of stall cycles across warps — simulated time, so the polls a
    /// sleeping warp skipped count as if they had been made, and both
    /// schedulers report the same value. The AGILE service's idle sweeps
    /// are stall time: a sweep that finds nothing and sleeps on stalls.
    pub stall_cycles: u64,
    /// `step` invocations executed: the polls a sleeping warp skipped are
    /// not among them, so this depends on the scheduler, as `rounds` does.
    pub steps: u64,
    /// Time the last (non-persistent) block of the kernel retired; zero for
    /// persistent kernels that were still running when the engine stopped.
    pub completed_at: u64,
    /// Whether the kernel was launched persistent.
    pub persistent: bool,
}

/// Result of an [`Engine::run`].
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// Simulated end-to-end time (cycles) from launch to completion of all
    /// non-persistent kernels.
    pub elapsed: Cycles,
    /// The same, in seconds at the configured clock.
    pub elapsed_secs: f64,
    /// Per-kernel summaries, in launch order.
    pub kernels: Vec<KernelReport>,
    /// True when the engine detected a lack of forward progress (deadlock /
    /// livelock) and aborted the run.
    pub deadlocked: bool,
    /// Number of engine scheduling rounds executed. A round the event loop
    /// runs only because a passive device asked for that time (a metric
    /// window closing) schedules nothing and is not counted, so an
    /// instrumented run reports the rounds of the bare one.
    pub rounds: u64,
    /// When `deadlocked`: every unfinished warp whose last step was a stall,
    /// with what it was waiting for, in `(sm, slot)` order. Empty otherwise.
    pub stalled: Vec<(WarpId, WaitReason)>,
}

impl ExecutionReport {
    /// Report for the kernel with the given name, if present.
    pub fn kernel(&self, name: &str) -> Option<&KernelReport> {
        self.kernels.iter().find(|k| k.name == name)
    }
}

struct KernelInstance {
    id: KernelId,
    name: String,
    launch: LaunchConfig,
    /// Warps per block of `launch`, handed to every step in its `WarpCtx`.
    block_warps: u32,
    factory: Box<dyn KernelFactory>,
    blocks_retired: u32,
    completed_at: Option<Cycles>,
    // accumulated stats
    warps: u64,
    busy: Cycles,
    stall: Cycles,
    steps: u64,
}

impl KernelInstance {
    fn complete(&self) -> bool {
        self.blocks_retired == self.launch.grid_dim
    }
}

/// Rounds between stores of the engine's plain counters into the bound
/// [`EngineMetrics`]; [`Engine::run`] always flushes the final partial
/// interval before it reports, so totals do not depend on it.
const METRICS_FLUSH_ROUNDS: u64 = 4096;

/// The per-round working sets of [`Engine::event_loop`], kept on the engine
/// so a scheduling round allocates nothing once they have grown to size.
#[derive(Default)]
struct RoundBufs {
    /// Due `(sm, slot)` warps of this round, in canonical order.
    batch: Vec<(usize, usize)>,
    /// `(sm, slot)` of the blocks that retired this round.
    retired_blocks: Vec<(usize, usize)>,
    /// Ready-queue entries of warps placed this round (still at ≤ now).
    placed_now: Vec<(u64, usize, usize)>,
}

/// The GPU + devices co-simulation engine.
pub struct Engine {
    gpu: GpuConfig,
    clock: SimClock,
    sms: Vec<SmState>,
    kernels: Vec<KernelInstance>,
    /// The storage devices, advanced first each round, in add order.
    storage_devices: Vec<Box<dyn ExternalDevice>>,
    /// Passive observers (metrics/control bridges), advanced after the storage
    /// devices.
    devices: Vec<Box<dyn ExternalDevice>>,
    /// Pending (kernel_idx, block_idx) waiting for SM space, FIFO.
    dispatch_queue: std::collections::VecDeque<(usize, u32)>,
    /// Window without forward progress after which the run is declared
    /// deadlocked.
    deadlock_window: Cycles,
    /// Hard wall on simulated time (safety net for tests).
    max_cycles: Cycles,
    rounds: u64,
    /// Scheduling loop selector.
    sched: EngineSched,
    /// The ready-queue: one `(ready_at, sm, warp-slot)` entry per live warp.
    /// Rebuilt at the start of every event-driven run (warp slots are stable
    /// within a run because the event loop never compacts the SM warp lists).
    ready: BinaryHeap<Reverse<(u64, usize, usize)>>,
    /// The totals the registry reads (`agile_engine_*`), when bound.
    metrics: Option<EngineMetrics>,
    /// Warp steps / stale wakes / ready-queue high water accumulated in
    /// plain fields; [`Engine::flush_metrics`] stores them, with `rounds`,
    /// into [`EngineMetrics`] on a coarse cadence.
    m_steps: u64,
    m_stale: u64,
    m_ready_hw: u64,
    /// Reused per-round buffers of the event loop.
    bufs: RoundBufs,
    /// The wake hub of the storage stack, when one is attached: warps whose
    /// stall names a sleeper of it are parked instead of polled.
    hub: Option<std::sync::Arc<WakeHub>>,
    /// True while the running loop parks (the event loop with a hub); the
    /// scan scheduler polls every stall.
    parking: bool,
    /// `(sm, slot)` of the warp each sleeper was last parked for, by id.
    sleeper_warp: Vec<(usize, usize)>,
    /// Warps currently parked, and how many of them wait on a device event
    /// ([`WaitReason::ends_on_device_event`]).
    parked: usize,
    parked_on_devices: usize,
    /// Reused buffers for [`WakeHub::drain`].
    fired: Vec<SleeperId>,
    grants: Vec<(QueueId, u32)>,
    /// The parked warps of each counting queue, by queue id (created when
    /// the first warp parks in it).
    queues: Vec<Option<QueueWaiters>>,
    /// A sleeper was woken since the loop last looked: something it waited
    /// for happened, which is forward progress as far as the no-progress
    /// window is concerned (a polled warp would have refreshed the window
    /// on the way, round by round, while the device was still working).
    woke: bool,
    /// Warps woken for the current cycle in the middle of its round's walk:
    /// stepped in `(sm, slot)` order with the rest of the batch.
    woken_now: BinaryHeap<Reverse<(usize, usize)>>,
}

impl Engine {
    /// Create an engine for the given GPU.
    pub fn new(gpu: GpuConfig) -> Self {
        let clock = SimClock::new(gpu.clock_ghz);
        let sms = (0..gpu.num_sms).map(SmState::new).collect();
        Engine {
            gpu,
            clock,
            sms,
            kernels: Vec::new(),
            storage_devices: Vec::new(),
            devices: Vec::new(),
            dispatch_queue: std::collections::VecDeque::new(),
            deadlock_window: Cycles(50_000_000),
            max_cycles: Cycles(u64::MAX / 4),
            rounds: 0,
            sched: EngineSched::default(),
            ready: BinaryHeap::new(),
            metrics: None,
            m_steps: 0,
            m_stale: 0,
            m_ready_hw: 0,
            bufs: RoundBufs::default(),
            hub: None,
            parking: false,
            sleeper_warp: Vec::new(),
            parked: 0,
            parked_on_devices: 0,
            fired: Vec::new(),
            grants: Vec::new(),
            queues: Vec::new(),
            woke: false,
            woken_now: BinaryHeap::new(),
        }
    }

    /// Store the engine's totals into the bound [`EngineMetrics`] (no-op
    /// without metrics). Called every [`METRICS_FLUSH_ROUNDS`] rounds and at
    /// run end — the scheduling hot loops never touch an atomic.
    fn flush_metrics(&self) {
        if let Some(m) = &self.metrics {
            let totals = [self.rounds, self.m_steps, self.m_stale, self.m_ready_hw];
            for (cell, v) in m.0.iter().zip(totals) {
                cell.store(v, Relaxed);
            }
        }
    }

    /// Bind the engine's metrics. Scheduling is unaffected — the loops only
    /// publish totals they already keep.
    pub fn set_metrics(&mut self, metrics: EngineMetrics) {
        self.metrics = Some(metrics);
    }

    /// Attach the wake hub of the storage stack this engine co-simulates.
    /// From then on the event-driven scheduler *parks* a warp whose stall
    /// names a sleeper of `hub` ([`agile_sim::wake::Wait::parked`]) instead
    /// of re-polling it: see [`WarpStep::Stall`] for the contract and the
    /// module docs for the wake rule. Without a hub (and always under
    /// [`EngineSched::FullScan`]) every stall is polled.
    pub fn set_wake_hub(&mut self, hub: std::sync::Arc<WakeHub>) {
        self.hub = Some(hub);
    }

    /// Select the scheduling loop (default: [`EngineSched::EventQueue`]).
    /// May be switched between runs; both schedulers produce bit-identical
    /// execution, only `rounds` and wall time differ.
    pub fn set_scheduler(&mut self, sched: EngineSched) {
        self.sched = sched;
    }

    /// The active scheduling loop.
    pub fn scheduler(&self) -> EngineSched {
        self.sched
    }

    /// The GPU configuration.
    pub fn gpu(&self) -> &GpuConfig {
        &self.gpu
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycles {
        self.clock.now()
    }

    /// Override the no-progress window used for deadlock detection.
    pub fn set_deadlock_window(&mut self, window: Cycles) {
        self.deadlock_window = window;
    }

    /// Override the hard limit on simulated cycles.
    pub fn set_max_cycles(&mut self, max: Cycles) {
        self.max_cycles = max;
    }

    /// Attach a passive external device (metrics/control bridges). Passive
    /// devices are advanced after the storage devices, in the order they were
    /// added — that order is part of the determinism contract (see the module
    /// docs).
    pub fn add_device(&mut self, dev: Box<dyn ExternalDevice>) {
        self.devices.push(dev);
    }

    /// Attach a storage device. Storage devices are advanced before every
    /// passive device, in the order they were added.
    pub fn add_storage_device(&mut self, dev: Box<dyn ExternalDevice>) {
        self.storage_devices.push(dev);
    }

    /// Launch a kernel; its blocks enter the dispatch queue immediately.
    pub fn launch(&mut self, launch: LaunchConfig, factory: Box<dyn KernelFactory>) -> KernelId {
        assert!(launch.grid_dim > 0, "grid must contain at least one block");
        assert!(
            launch.block_dim.is_multiple_of(self.gpu.warp_size) && launch.block_dim > 0,
            "block_dim must be a positive warp-size multiple"
        );
        // Validate the launch fits the device at all.
        let occ = occupancy(&self.gpu, &launch);
        assert!(occ > 0, "kernel footprint too large for one SM");
        let id = KernelId(self.kernels.len() as u32);
        let idx = self.kernels.len();
        self.kernels.push(KernelInstance {
            id,
            name: factory.name().to_string(),
            block_warps: launch.warps_per_block(&self.gpu),
            launch,
            factory,
            blocks_retired: 0,
            completed_at: None,
            warps: 0,
            busy: Cycles::ZERO,
            stall: Cycles::ZERO,
            steps: 0,
        });
        let grid = self.kernels[idx].launch.grid_dim;
        for b in 0..grid {
            self.dispatch_queue.push_back((idx, b));
        }
        self.fill_sms();
        id
    }

    /// Place as many pending blocks as the SMs can hold.
    fn fill_sms(&mut self) {
        // Round-robin over SMs for each pending block, preserving FIFO order
        // per the hardware's global block scheduler.
        let mut made_progress = true;
        while made_progress {
            made_progress = false;
            let Some(&(kidx, block_idx)) = self.dispatch_queue.front() else {
                break;
            };
            let (warps, regs, smem) = {
                let k = &self.kernels[kidx];
                (
                    k.launch.warps_per_block(&self.gpu),
                    k.launch.registers_per_thread * k.launch.block_dim,
                    k.launch.shared_mem_per_block,
                )
            };
            // Choose the least-loaded SM that can take the block.
            let candidate = self
                .sms
                .iter()
                .enumerate()
                .filter(|(_, sm)| sm.can_place(&self.gpu, warps, regs, smem))
                .min_by_key(|(_, sm)| sm.used_warps)
                .map(|(i, _)| i);
            if let Some(sm_idx) = candidate {
                self.dispatch_queue.pop_front();
                self.place_block(sm_idx, kidx, block_idx, warps, regs, smem);
                made_progress = true;
            }
        }
    }

    fn place_block(
        &mut self,
        sm_idx: usize,
        kidx: usize,
        block_idx: u32,
        warps: u32,
        regs: u32,
        smem: u32,
    ) {
        let slot = self.sms[sm_idx].place_block(kidx, block_idx, warps, regs, smem);
        let kernel_id = self.kernels[kidx].id;
        for w in 0..warps {
            let state = self.kernels[kidx].factory.create_warp(block_idx, w);
            self.kernels[kidx].warps += 1;
            self.sms[sm_idx].warps.push(ResidentWarp {
                id: WarpId {
                    kernel: kernel_id,
                    block: block_idx,
                    warp: w,
                },
                kernel_idx: kidx,
                block_slot: slot,
                state,
                ready_at: self.clock.now(),
                wait: None,
                parked: None,
                done: false,
            });
            // Enter the warp into the ready-queue (a placement mid-run wakes
            // at the next visited time point; run entry rebuilds the heap
            // anyway, so pre-run launches are covered either way).
            let widx = self.sms[sm_idx].warps.len() - 1;
            self.ready
                .push(Reverse((self.clock.now().raw(), sm_idx, widx)));
        }
    }

    fn all_user_kernels_complete(&self) -> bool {
        self.kernels
            .iter()
            .filter(|k| !k.launch.persistent)
            .all(|k| k.complete())
    }

    /// Run until every non-persistent kernel has completed (or until deadlock
    /// / the cycle limit is hit) and return the execution report.
    pub fn run(&mut self) -> ExecutionReport {
        match self.sched {
            EngineSched::EventQueue => self.event_loop(),
            EngineSched::FullScan => self.full_scan_loop(),
        }
    }

    /// The device phase of a round: storage devices to `now`, then the passive
    /// observers. Sleepers the devices notified (completions they posted) are
    /// woken before the observers run, sleepers an observer notified (a knob
    /// it wrote) last. All of them may still be stepped in this round:
    /// devices come before every warp.
    fn advance_devices(&mut self, now: Cycles) {
        for dev in &mut self.storage_devices {
            dev.advance_to(now);
        }
        self.wake_fired(now, None);
        for dev in &mut self.devices {
            dev.advance_to(now);
        }
        self.wake_fired(now, None);
    }

    /// Wake every sleeper notified since the last call. `notifier` is the
    /// `(sm, slot)` of the warp whose step did the notifying, `None` when it
    /// was a device (devices advance before any warp of the round steps).
    ///
    /// A woken warp is re-armed at the **first point of its own retry grid at
    /// or after `now`** — the poll that would have been the first to see the
    /// event. That point may be `now` itself only if polling would have
    /// stepped the warp *after* the event in this cycle: always for a device
    /// event, and for a warp's event only when the sleeper sorts after the
    /// notifier in `(sm, slot)` order; otherwise its poll at `now` came first
    /// and found nothing, and it wakes one interval later. The stall time of
    /// the polls before the wake point is booked here.
    ///
    /// Then the units granted to counting queues: each wakes, by the same
    /// rule, the waiter of that queue whose wake point would come first —
    /// ties in `(sm, slot)` order — which is the warp a polling run would
    /// have served the unit to. A waiter woken by its own sleeper leaves its
    /// queue first, so no unit is spent on a warp that is awake anyway.
    fn wake_fired(&mut self, now: Cycles, notifier: Option<(usize, usize)>) {
        let Some(hub) = self.hub.as_ref().filter(|hub| hub.has_fired()) else {
            return;
        };
        let mut fired = std::mem::take(&mut self.fired);
        let mut grants = std::mem::take(&mut self.grants);
        hub.drain(&mut fired, &mut grants);
        for &id in &fired {
            let Some(&(sm_idx, widx)) = self.sleeper_warp.get(id.0 as usize) else {
                continue;
            };
            // A sleeper fired between runs may belong to a warp that has
            // been woken (scheduler switch) or moved (compaction) since.
            let Some(p) = self
                .sms
                .get(sm_idx)
                .and_then(|sm| sm.warps.get(widx))
                .and_then(|w| w.parked)
                .filter(|p| p.sleeper == id)
            else {
                continue;
            };
            self.leave_queue(p, sm_idx, widx);
            self.wake(sm_idx, widx, p, now, notifier);
        }
        for &(queue, units) in &grants {
            for _ in 0..units {
                let waiters = self
                    .queues
                    .get_mut(queue.0 as usize)
                    .and_then(Option::as_mut);
                let Some((sm_idx, widx)) = waiters.and_then(|w| w.next(now, notifier)) else {
                    break;
                };
                let p = self.sms[sm_idx].warps[widx]
                    .parked
                    .expect("a queue waiter is parked");
                self.leave_queue(p, sm_idx, widx);
                if let Some(hub) = &self.hub {
                    hub.unpark(p.sleeper);
                }
                self.wake(sm_idx, widx, p, now, notifier);
            }
        }
        self.fired = fired;
        self.grants = grants;
    }

    /// Re-arm the parked warp `(sm_idx, widx)` at the first point of its
    /// retry grid at or after `now` that polling would have seen the event
    /// at (see [`Engine::wake_fired`]), booking the stall time before it.
    fn wake(
        &mut self,
        sm_idx: usize,
        widx: usize,
        p: Parked,
        now: Cycles,
        notifier: Option<(usize, usize)>,
    ) {
        let every = p.every.raw();
        let mut k = now.saturating_sub(p.next).raw().div_ceil(every);
        let on_grid = p.next.raw() + k * every == now.raw();
        if on_grid && notifier.is_some_and(|n| (sm_idx, widx) < n) {
            k += 1;
        }
        let at = p.next + p.every * k;
        self.unpark(sm_idx, widx, p, at);
        self.woke = true;
        if at == now && notifier.is_some() {
            self.woken_now.push(Reverse((sm_idx, widx)));
        } else {
            self.ready.push(Reverse((at.raw(), sm_idx, widx)));
        }
    }

    /// Take the parked warp `(sm_idx, widx)` off the books of the parked,
    /// due at `at`, a point of its grid: book the stall time of the polls
    /// before it.
    fn unpark(&mut self, sm_idx: usize, widx: usize, p: Parked, at: Cycles) {
        let w = &mut self.sms[sm_idx].warps[widx];
        let polls = at.saturating_sub(p.next).raw() / p.every.raw();
        self.kernels[w.kernel_idx].stall += p.every * polls;
        let on_devices = w.wait.is_some_and(|w| w.reason.ends_on_device_event());
        w.parked = None;
        w.ready_at = at;
        self.parked -= 1;
        self.parked_on_devices -= on_devices as usize;
    }

    /// True when the ready-queue entry `(at, sm_idx, widx)` still stands: the
    /// warp's own wake time, or the deadline ([`Wait::until`]) of the sleep
    /// it is in. The deadline of a sleep a notification ended early is
    /// stale.
    fn live_entry(&self, at: u64, sm_idx: usize, widx: usize) -> bool {
        let w = &self.sms[sm_idx].warps[widx];
        match w.parked {
            Some(p) => p.until == Some(Cycles(at)),
            None => w.done || w.ready_at.raw() == at,
        }
    }

    /// Take the parked warp `(sm_idx, widx)` out of the counting queue it
    /// waits in, if any.
    fn leave_queue(&mut self, p: Parked, sm_idx: usize, widx: usize) {
        let Some(queue) = p.queue else {
            return;
        };
        let waiters = self.queues[queue.0 as usize]
            .as_mut()
            .expect("a queue somebody waits in");
        waiters.remove(p.since(), sm_idx, widx);
        waiters.handle.leave();
    }

    /// The end of a run: a warp still asleep would have been polled at every
    /// point of its grid up to and including `now` (the last round steps
    /// every warp that is due). Book their stall time and move the grid on
    /// past the last point booked, so that a wake in a later run books only
    /// what follows it.
    fn book_sleeping_stall(&mut self, now: Cycles) {
        for sm in &mut self.sms {
            for w in &mut sm.warps {
                let Some(p) = &mut w.parked else {
                    continue;
                };
                if now < p.next {
                    continue;
                }
                let polls = (now - p.next).raw() / p.every.raw() + 1;
                self.kernels[w.kernel_idx].stall += p.every * polls;
                p.next += p.every * polls;
                // A run cut short (deadlock, cycle limit) may end past a
                // deadline it never reached: it falls on the next poll.
                p.until = p.until.map(|at| at.max(p.next));
            }
        }
    }

    /// The earliest retry-grid point after `now` of any parked warp: when a
    /// polling scheduler would next run a round on their account.
    fn next_parked_poll(&self, now: Cycles) -> Option<Cycles> {
        if self.parked == 0 {
            return None;
        }
        self.sms
            .iter()
            .flat_map(|sm| sm.warps.iter())
            .filter_map(|w| w.parked)
            .map(|p| {
                if now < p.next {
                    p.next
                } else {
                    p.next + p.every * ((now - p.next).raw() / p.every.raw() + 1)
                }
            })
            .min()
    }

    /// Put every parked warp back on its polling schedule (the scan
    /// scheduler does not park, and may be selected between runs).
    fn unpark_all(&mut self, now: Cycles) {
        for sm in &mut self.sms {
            for w in &mut sm.warps {
                let Some(p) = w.parked.take() else {
                    continue;
                };
                let k = now.saturating_sub(p.next).raw().div_ceil(p.every.raw());
                self.kernels[w.kernel_idx].stall += p.every * k;
                w.ready_at = p.next + p.every * k;
                if let Some(hub) = &self.hub {
                    hub.unpark(p.sleeper);
                }
            }
        }
        for waiters in self.queues.iter_mut().flatten() {
            for _ in 0..waiters.clear() {
                waiters.handle.leave();
            }
        }
        self.parked = 0;
        self.parked_on_devices = 0;
    }

    /// Earliest pending event strictly after `now` among `devices`.
    fn next_event_after(devices: &mut [Box<dyn ExternalDevice>], now: Cycles) -> Option<Cycles> {
        devices
            .iter_mut()
            .filter_map(|d| d.next_event_time())
            .filter(|&t| t > now)
            .min()
    }

    /// Earliest pending storage-device event strictly after `now`.
    fn next_storage_event(&mut self, now: Cycles) -> Option<Cycles> {
        Self::next_event_after(&mut self.storage_devices, now)
    }

    /// Earliest pending passive-device event strictly after `now`. Passive
    /// devices are observers with a schedule of their own (a metric window
    /// closing): the event loop visits these times on every round, so what
    /// they observe does not depend on when warps happen to wake.
    fn next_passive_event(&mut self, now: Cycles) -> Option<Cycles> {
        Self::next_event_after(&mut self.devices, now)
    }

    /// Earliest pending device event strictly after `now` across both tiers.
    fn next_device_event(&mut self, now: Cycles) -> Option<Cycles> {
        let storage = self.next_storage_event(now);
        let passive = self.next_passive_event(now);
        storage.into_iter().chain(passive).min()
    }

    /// Step one warp at `now`, updating warp/kernel accounting. Returns the
    /// warp's next wake time (`None` once it retired, or was parked) and
    /// whether the step counted as forward progress. Shared by both
    /// schedulers so they cannot drift behaviourally.
    fn step_warp(
        &mut self,
        sm_idx: usize,
        widx: usize,
        now: Cycles,
        retired_blocks: &mut Vec<(usize, usize)>,
    ) -> (Option<Cycles>, bool) {
        let sm = &mut self.sms[sm_idx];
        let w = &mut sm.warps[widx];
        let ctx = WarpCtx {
            now,
            warp: w.id,
            lanes: self.gpu.warp_size,
            block_warps: self.kernels[w.kernel_idx].block_warps,
            clock_ghz: self.gpu.clock_ghz,
        };
        self.kernels[w.kernel_idx].steps += 1;
        match w.state.step(&ctx) {
            WarpStep::Busy(c) => {
                let c = c.max(Cycles(1));
                w.ready_at = now + c;
                w.wait = None;
                self.kernels[w.kernel_idx].busy += c;
                (Some(w.ready_at), true)
            }
            WarpStep::Stall { retry_after, wait } => {
                let r = retry_after.max(Cycles(1));
                // The grid starts where a busy prefix ends, else one
                // interval on.
                let busy_until = wait.busy_until.filter(|&t| t > now);
                let next = match busy_until {
                    Some(t) => {
                        self.kernels[w.kernel_idx].busy += t - now;
                        t
                    }
                    None => {
                        self.kernels[w.kernel_idx].stall += r;
                        now + r
                    }
                };
                w.wait = Some(wait);
                w.ready_at = next;
                let progress = busy_until.is_some();
                if self.parking && self.park(sm_idx, widx, wait, next, r) {
                    (None, progress)
                } else {
                    (Some(next), progress)
                }
            }
            WarpStep::Done => {
                w.done = true;
                let slot = w.block_slot;
                let kidx = w.kernel_idx;
                if sm.warp_retired(slot) {
                    retired_blocks.push((sm_idx, slot));
                    self.kernels[kidx].blocks_retired += 1;
                    if self.kernels[kidx].complete() {
                        self.kernels[kidx].completed_at = Some(now);
                    }
                }
                (None, true)
            }
        }
    }

    /// Park the warp `(sm_idx, widx)`, whose stall with `wait` asks to be
    /// retried at `next`, `next + every`, …, if `wait` is parkable: off the
    /// ready queue until its sleeper is notified (or, for a queued wait, a
    /// unit of its queue is handed to it, or its deadline comes). False when
    /// it has to be polled instead — no sleeper, or a queue whose waiters
    /// retry on another interval (the queue's order of waiters holds for one
    /// interval only) or that it would join after a busy prefix.
    fn park(
        &mut self,
        sm_idx: usize,
        widx: usize,
        wait: Wait,
        next: Cycles,
        every: Cycles,
    ) -> bool {
        let (Some(id), Some(hub)) = (wait.sleeper, &self.hub) else {
            return false;
        };
        if let Some(queue) = wait.queue {
            let slot = queue.0 as usize;
            if self.queues.len() <= slot {
                self.queues.resize_with(slot + 1, || None);
            }
            let waiters =
                self.queues[slot].get_or_insert_with(|| QueueWaiters::new(hub.queue(queue)));
            if wait.busy_until.is_some() || !waiters.accepts(every.raw()) {
                return false;
            }
            waiters.insert(next - every, sm_idx, widx);
            waiters.handle.join();
        }
        // The deadline, on the grid: woken there through the ready queue.
        let until = wait.until.map(|at| {
            let polls = at.saturating_sub(next).raw().div_ceil(every.raw());
            next + every * polls
        });
        if let Some(at) = until {
            self.ready.push(Reverse((at.raw(), sm_idx, widx)));
        }
        // Pure retries: off the ready queue until notified.
        self.sms[sm_idx].warps[widx].parked = Some(Parked {
            next,
            every,
            sleeper: id,
            queue: wait.queue,
            until,
        });
        if self.sleeper_warp.len() <= id.0 as usize {
            self.sleeper_warp.resize(id.0 as usize + 1, (0, 0));
        }
        self.sleeper_warp[id.0 as usize] = (sm_idx, widx);
        self.parked += 1;
        self.parked_on_devices += wait.reason.ends_on_device_event() as usize;
        hub.park(id);
        true
    }

    /// The event-driven scheduler: warps wake out of the ready-queue, rounds
    /// fire only at warp wake times, and device state is pulled forward
    /// lazily — discrete-event devices produce identical completions whether
    /// advanced stepwise or straight to the next warp wake, so skipping the
    /// device-only rounds changes `rounds`/wall time but not behaviour.
    fn event_loop(&mut self) -> ExecutionReport {
        let start = self.clock.now();
        let mut last_progress = self.clock.now();
        let mut deadlocked = false;

        // Drop retired warps now, while it is safe: mid-run the event loop
        // never compacts (heap entries index into the warp lists), so
        // repeated runs on one engine would otherwise accumulate dead
        // entries from every block ever launched.
        for sm in &mut self.sms {
            sm.compact();
        }
        self.parking = self.hub.is_some();
        // Rebuild the queue from the live warps: `launch()` may have placed
        // blocks since the last run, the compaction above shifted slots, and
        // a previous `FullScan` run does not maintain the heap. Warps still
        // parked from an earlier run (persistent kernels) stay asleep; only
        // where their sleepers point, and their place in their queues, moved
        // with the compaction.
        self.ready.clear();
        for waiters in self.queues.iter_mut().flatten() {
            waiters.clear();
        }
        for (sm_idx, sm) in self.sms.iter().enumerate() {
            for (widx, w) in sm.warps.iter().enumerate() {
                match w.parked {
                    Some(p) => {
                        self.sleeper_warp[p.sleeper.0 as usize] = (sm_idx, widx);
                        if let Some(queue) = p.queue {
                            if let Some(waiters) = &mut self.queues[queue.0 as usize] {
                                waiters.insert(p.since(), sm_idx, widx);
                            }
                        }
                        if let Some(at) = p.until {
                            self.ready.push(Reverse((at.raw(), sm_idx, widx)));
                        }
                    }
                    None if !w.done => self.ready.push(Reverse((w.ready_at.raw(), sm_idx, widx))),
                    None => {}
                }
            }
        }

        let mut bufs = std::mem::take(&mut self.bufs);
        let RoundBufs {
            batch,
            retired_blocks,
            placed_now,
        } = &mut bufs;
        let mut complete = self.all_user_kernels_complete();
        // Set when the loop advances to a time only a passive device asked
        // for: that round lets an observer see its window boundary and
        // schedules nothing, so it is not counted — instrumenting a run does
        // not change how many rounds it reports.
        let mut observer_round = false;
        while !complete {
            self.rounds += !std::mem::take(&mut observer_round) as u64;
            let now = self.clock.now();
            let depth = self.ready.len() as u64;
            if depth > self.m_ready_hw {
                self.m_ready_hw = depth;
            }

            // 1. Let devices catch up so completions are visible to warps.
            self.advance_devices(now);

            // 2. Pop every warp that is due and step the batch in SM/slot
            //    order — the exact order the scan scheduler visits warps, so
            //    equal-time steps interleave identically.
            //    A warp whose sleep ends at its deadline wakes here; the
            //    deadline of a sleep that already ended is stale.
            batch.clear();
            let (mut steps, mut stale) = (0u64, 0u64);
            while let Some(&Reverse((t, sm_idx, widx))) = self.ready.peek() {
                if t > now.raw() {
                    break;
                }
                self.ready.pop();
                if !self.live_entry(t, sm_idx, widx) {
                    stale += 1;
                    continue;
                }
                if let Some(p) = self.sms[sm_idx].warps[widx].parked {
                    self.leave_queue(p, sm_idx, widx);
                    if let Some(hub) = &self.hub {
                        hub.unpark(p.sleeper);
                    }
                    self.unpark(sm_idx, widx, p, Cycles(t));
                }
                batch.push((sm_idx, widx));
            }
            batch.sort_unstable();
            // A deadline and a wake at the same point are one step.
            batch.dedup();

            let mut progressed = false;
            retired_blocks.clear();
            let mut due = batch.iter().copied().peekable();
            loop {
                // The next warp in (sm, slot) order: from the batch, or one a
                // step of this walk woke for this very cycle (it sorts after
                // its notifier, so the merged walk is still canonical).
                let woken = self.woken_now.peek().map(|&Reverse(at)| at);
                let (sm_idx, widx) = match (due.peek().copied(), woken) {
                    (Some(b), Some(w)) if w < b => {
                        self.woken_now.pop();
                        w
                    }
                    (Some(b), _) => {
                        due.next();
                        b
                    }
                    (None, Some(w)) => {
                        self.woken_now.pop();
                        w
                    }
                    (None, None) => break,
                };
                if self.sms[sm_idx].warps[widx].done {
                    stale += 1;
                    continue;
                }
                steps += 1;
                let (wake, progress) = self.step_warp(sm_idx, widx, now, retired_blocks);
                if let Some(at) = wake {
                    self.ready.push(Reverse((at.raw(), sm_idx, widx)));
                }
                progressed |= progress;
                // Sleepers this step notified (a retire completed their
                // fill or barrier).
                self.wake_fired(now, Some((sm_idx, widx)));
            }
            progressed |= std::mem::take(&mut self.woke);
            self.m_steps += steps;
            self.m_stale += stale;
            if self.rounds.is_multiple_of(METRICS_FLUSH_ROUNDS) {
                self.flush_metrics();
            }

            // 3. Place pending blocks freed capacity admits. The event loop
            //    never compacts the warp lists (heap entries index into
            //    them); `place_block` enqueues the new warps at `now`.
            if !retired_blocks.is_empty() {
                self.fill_sms();
            }

            if self.out_of_progress(progressed, now, &mut last_progress) {
                deadlocked = true;
                break;
            }

            complete = self.all_user_kernels_complete();
            if complete {
                break;
            }

            // 4. Advance to the next warp wake. Entries still at ≤ now are
            //    warps placed this round: like the scan scheduler, they step
            //    at the next *visited* time point, which then must also
            //    consider device events (the scan scheduler would have woken
            //    there). So must a round with a warp asleep on a device
            //    event: its wake point is the first of its grid at or after
            //    the completion, so the loop may not jump past that.
            placed_now.clear();
            while let Some(&Reverse(e)) = self.ready.peek() {
                if e.0 > now.raw() {
                    break;
                }
                self.ready.pop();
                placed_now.push(e);
            }
            // A stale deadline must not call a round of its own.
            let next_warp = loop {
                let Some(&Reverse((t, sm_idx, widx))) = self.ready.peek() else {
                    break None;
                };
                if self.live_entry(t, sm_idx, widx) {
                    break Some(Cycles(t));
                }
                self.ready.pop();
                self.m_stale += 1;
            };
            let nothing_scheduled = placed_now.is_empty() && next_warp.is_none();
            let need_dev_wake =
                !placed_now.is_empty() || next_warp.is_none() || self.parked_on_devices > 0;
            for &e in placed_now.iter() {
                self.ready.push(Reverse(e));
            }
            let next_storage = if need_dev_wake {
                self.next_storage_event(now)
            } else {
                None
            };
            if nothing_scheduled && self.parked > 0 && next_storage.is_none() {
                // Every live warp sleeps and the storage is quiet: nothing
                // will ever notify anyone. No need to wait out the window.
                deadlocked = true;
                break;
            }
            // Warps placed this round step at the next time a polling
            // scheduler would visit — which may be a poll of a warp that is
            // asleep here.
            let parked_poll = if placed_now.is_empty() {
                None
            } else {
                self.next_parked_poll(now)
            };
            let next_passive = self.next_passive_event(now);
            let scheduling = [next_warp, next_storage, parked_poll];
            let next = scheduling
                .into_iter()
                .chain([next_passive])
                .flatten()
                .min()
                .unwrap_or(now + Cycles(1));
            observer_round = placed_now.is_empty()
                && next_passive == Some(next)
                && !scheduling.contains(&Some(next));
            if !self.advance_clock(now, next) {
                deadlocked = true;
                break;
            }
        }

        self.bufs = bufs;
        self.finish_run(start, deadlocked)
    }

    /// Book one round against the no-progress window; true when the window
    /// has run out and that is a deadlock.
    fn out_of_progress(
        &mut self,
        progressed: bool,
        now: Cycles,
        last_progress: &mut Cycles,
    ) -> bool {
        if progressed {
            *last_progress = now;
        } else if now.saturating_sub(*last_progress) > self.deadlock_window {
            if self.no_progress_is_deadlock(now) {
                return true;
            }
            *last_progress = now;
        }
        false
    }

    /// The no-progress window has run out: is that a deadlock? Not while a
    /// device still has work in flight — a long device latency with every
    /// warp waiting on it (and the service asleep until the completion
    /// posts) is slow, not stuck.
    fn no_progress_is_deadlock(&mut self, now: Cycles) -> bool {
        self.next_storage_event(now).is_none()
    }

    /// Move the clock from `now` to `next`, by at least one cycle so the run
    /// always moves forward. False once that passes the `max_cycles` wall.
    fn advance_clock(&mut self, now: Cycles, next: Cycles) -> bool {
        if next <= now {
            self.clock.advance(Cycles(1));
        } else {
            self.clock.advance_to(next);
        }
        self.clock.now() <= self.max_cycles
    }

    /// The pre-ready-queue scheduler: every round scans every resident warp
    /// and the clock wakes at every device event. Behaviourally identical to
    /// [`Engine::event_loop`]; kept for equivalence tests and wall-time
    /// comparisons.
    fn full_scan_loop(&mut self) -> ExecutionReport {
        // The scan does not maintain the heap; drop stale entries so they do
        // not accumulate across runs.
        self.ready.clear();
        let start = self.clock.now();
        let mut last_progress = self.clock.now();
        let mut deadlocked = false;
        // The scan polls every stall: it is the reference the parking
        // scheduler is held to.
        self.parking = false;
        self.unpark_all(start);

        while !self.all_user_kernels_complete() {
            self.rounds += 1;
            let now = self.clock.now();

            // 1. Let devices catch up so completions are visible to warps.
            self.advance_devices(now);

            // 2. Step every ready warp once.
            let mut progressed = false;
            let mut retired_blocks: Vec<(usize, usize)> = Vec::new(); // (sm, slot)
            let mut steps = 0u64;
            for sm_idx in 0..self.sms.len() {
                for widx in 0..self.sms[sm_idx].warps.len() {
                    {
                        let w = &self.sms[sm_idx].warps[widx];
                        if w.done || w.ready_at > now {
                            continue;
                        }
                    }
                    steps += 1;
                    let (_, progress) = self.step_warp(sm_idx, widx, now, &mut retired_blocks);
                    progressed |= progress;
                }
            }
            self.m_steps += steps;
            if self.rounds.is_multiple_of(METRICS_FLUSH_ROUNDS) {
                self.flush_metrics();
            }

            // 3. Clean up retired blocks and place pending ones.
            if !retired_blocks.is_empty() {
                for sm in &mut self.sms {
                    sm.compact();
                }
                self.fill_sms();
                self.ready.clear();
            }

            if self.out_of_progress(progressed, now, &mut last_progress) {
                deadlocked = true;
                break;
            }

            if self.all_user_kernels_complete() {
                break;
            }

            // 4. Advance time to the next interesting moment.
            let next_warp = self
                .sms
                .iter()
                .flat_map(|sm| sm.warps.iter())
                .filter(|w| !w.done)
                .map(|w| w.ready_at)
                .filter(|&t| t > now)
                .min();
            // Nothing scheduled: either we are done (checked above) or every
            // warp is ready right now — re-run after a minimal time bump.
            let next = next_warp
                .into_iter()
                .chain(self.next_device_event(now))
                .min()
                .unwrap_or(now + Cycles(1));
            if !self.advance_clock(now, next) {
                deadlocked = true;
                break;
            }
        }

        self.finish_run(start, deadlocked)
    }

    /// The end of a run, shared by both schedulers: the stall time of the
    /// warps still asleep, then the final device sync, so statistics reflect
    /// everything visible at the end, then the final metric flush and the
    /// report.
    fn finish_run(&mut self, start: Cycles, deadlocked: bool) -> ExecutionReport {
        let now = self.clock.now();
        self.book_sleeping_stall(now);
        self.advance_devices(now);
        self.flush_metrics();

        let elapsed = self.clock.now() - start;
        ExecutionReport {
            elapsed,
            elapsed_secs: elapsed.to_secs(self.gpu.clock_ghz),
            kernels: self
                .kernels
                .iter()
                .map(|k| KernelReport {
                    name: k.name.clone(),
                    id: k.id.0,
                    warps: k.warps,
                    busy_cycles: k.busy.raw(),
                    stall_cycles: k.stall.raw(),
                    steps: k.steps,
                    completed_at: k.completed_at.map(|c| c.raw()).unwrap_or(0),
                    persistent: k.launch.persistent,
                })
                .collect(),
            deadlocked,
            rounds: self.rounds,
            stalled: if deadlocked {
                self.stall_report()
            } else {
                Vec::new()
            },
        }
    }

    /// Every unfinished warp whose last step was a stall, with its reason.
    fn stall_report(&self) -> Vec<(WarpId, WaitReason)> {
        self.sms
            .iter()
            .flat_map(|sm| sm.warps.iter())
            .filter(|w| !w.done)
            .filter_map(|w| Some((w.id, w.wait?.reason)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::ComputeOnlyKernel;
    use agile_sim::wake::Wait;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    #[test]
    fn compute_only_kernel_time_matches_work() {
        let mut eng = Engine::new(GpuConfig::tiny(2));
        // 4 blocks × 2 warps, each warp busy for 1000 cycles in 2 steps.
        eng.launch(
            LaunchConfig::new(4, 64).with_registers(16),
            Box::new(ComputeOnlyKernel {
                cycles_per_warp: Cycles(1000),
                steps: 2,
            }),
        );
        let report = eng.run();
        assert!(!report.deadlocked);
        // Everything fits concurrently, so elapsed ≈ 1000 cycles (+ rounding).
        assert!(
            report.elapsed.raw() >= 1000 && report.elapsed.raw() < 1100,
            "elapsed {}",
            report.elapsed
        );
        let k = &report.kernels[0];
        assert_eq!(k.warps, 8);
        assert_eq!(k.busy_cycles, 8 * 1000);
    }

    #[test]
    fn waves_serialize_when_grid_exceeds_capacity() {
        // tiny(1): at most 4 resident blocks per SM. Launch 16 single-warp
        // blocks of 1000 cycles: needs four waves ⇒ elapsed ≈ 4000 cycles.
        let mut eng = Engine::new(GpuConfig::tiny(1));
        eng.launch(
            LaunchConfig::new(16, 32).with_registers(16),
            Box::new(ComputeOnlyKernel {
                cycles_per_warp: Cycles(1000),
                steps: 1,
            }),
        );
        let report = eng.run();
        assert!(!report.deadlocked);
        assert!(
            report.elapsed.raw() >= 4000 && report.elapsed.raw() < 4400,
            "elapsed {}",
            report.elapsed
        );
    }

    /// A kernel whose warps wait for an external "device" to flip a flag.
    struct WaitingKernel {
        flag: Arc<AtomicU64>,
    }
    struct WaitingWarp {
        flag: Arc<AtomicU64>,
        issued: bool,
    }
    impl crate::kernel::WarpKernel for WaitingWarp {
        fn step(&mut self, _ctx: &WarpCtx) -> WarpStep {
            if !self.issued {
                self.issued = true;
                return WarpStep::Busy(Cycles(10));
            }
            if self.flag.load(Ordering::Acquire) == 1 {
                WarpStep::Done
            } else {
                WarpStep::Stall {
                    retry_after: Cycles(100),
                    wait: Wait::default(),
                }
            }
        }
    }
    impl KernelFactory for WaitingKernel {
        fn create_warp(&self, _b: u32, _w: u32) -> Box<dyn crate::kernel::WarpKernel> {
            Box::new(WaitingWarp {
                flag: Arc::clone(&self.flag),
                issued: false,
            })
        }
        fn name(&self) -> &str {
            "waiting"
        }
    }

    /// Device that flips the flag at a fixed time.
    struct FlagDevice {
        flag: Arc<AtomicU64>,
        at: Cycles,
        fired: bool,
    }
    impl ExternalDevice for FlagDevice {
        fn advance_to(&mut self, now: Cycles) {
            if !self.fired && now >= self.at {
                self.flag.store(1, Ordering::Release);
                self.fired = true;
            }
        }
        fn next_event_time(&mut self) -> Option<Cycles> {
            (!self.fired).then_some(self.at)
        }
    }

    #[test]
    fn warps_wake_when_device_event_fires() {
        let flag = Arc::new(AtomicU64::new(0));
        let mut eng = Engine::new(GpuConfig::tiny(1));
        eng.add_device(Box::new(FlagDevice {
            flag: Arc::clone(&flag),
            at: Cycles(50_000),
            fired: false,
        }));
        eng.launch(
            LaunchConfig::new(2, 32).with_registers(16),
            Box::new(WaitingKernel { flag }),
        );
        let report = eng.run();
        assert!(!report.deadlocked);
        // Completion should land shortly after the device event.
        assert!(
            report.elapsed.raw() >= 50_000 && report.elapsed.raw() < 51_000,
            "elapsed {}",
            report.elapsed
        );
        let k = &report.kernels[0];
        assert!(k.stall_cycles > 0, "warps should have recorded stall time");
    }

    #[test]
    fn deadlock_is_detected_when_no_progress_is_possible() {
        // Flag never flips and there is no device: warps stall forever.
        let flag = Arc::new(AtomicU64::new(0));
        let mut eng = Engine::new(GpuConfig::tiny(1));
        eng.set_deadlock_window(Cycles(100_000));
        eng.launch(
            LaunchConfig::new(1, 32).with_registers(16),
            Box::new(WaitingKernel { flag }),
        );
        let report = eng.run();
        assert!(report.deadlocked);
    }

    #[test]
    fn persistent_kernel_does_not_gate_completion() {
        struct Forever;
        struct ForeverWarp;
        impl crate::kernel::WarpKernel for ForeverWarp {
            fn step(&mut self, _ctx: &WarpCtx) -> WarpStep {
                WarpStep::Busy(Cycles(500))
            }
        }
        impl KernelFactory for Forever {
            fn create_warp(&self, _b: u32, _w: u32) -> Box<dyn crate::kernel::WarpKernel> {
                Box::new(ForeverWarp)
            }
            fn name(&self) -> &str {
                "service"
            }
        }
        let mut eng = Engine::new(GpuConfig::tiny(2));
        eng.launch(
            LaunchConfig::new(1, 32).with_registers(16).persistent(),
            Box::new(Forever),
        );
        eng.launch(
            LaunchConfig::new(2, 32).with_registers(16),
            Box::new(ComputeOnlyKernel {
                cycles_per_warp: Cycles(2000),
                steps: 2,
            }),
        );
        let report = eng.run();
        assert!(!report.deadlocked);
        assert!(report.elapsed.raw() < 3000);
        let service = report.kernel("service").unwrap();
        assert!(service.persistent);
        assert_eq!(service.completed_at, 0);
        assert!(service.busy_cycles > 0);
    }

    #[test]
    #[should_panic(expected = "footprint too large")]
    fn launch_rejects_impossible_footprint() {
        let mut eng = Engine::new(GpuConfig::tiny(1));
        eng.launch(
            LaunchConfig::new(1, 256).with_registers(255),
            Box::new(ComputeOnlyKernel {
                cycles_per_warp: Cycles(10),
                steps: 1,
            }),
        );
    }

    /// A periodically-firing device; flips `flag` once it has fired
    /// `fires` times.
    struct Ticker {
        flag: Arc<AtomicU64>,
        at: Cycles,
        period: Cycles,
        fires: u32,
        fired: u32,
    }
    impl Ticker {
        fn new(flag: Arc<AtomicU64>, start: u64, period: u64, fires: u32) -> Self {
            Ticker {
                flag,
                at: Cycles(start),
                period: Cycles(period),
                fires,
                fired: 0,
            }
        }
    }
    impl ExternalDevice for Ticker {
        fn advance_to(&mut self, now: Cycles) {
            while self.fired < self.fires && now >= self.at {
                self.fired += 1;
                self.at += self.period;
                if self.fired == self.fires {
                    self.flag.fetch_add(1, Ordering::Release);
                }
            }
        }
        fn next_event_time(&mut self) -> Option<Cycles> {
            (self.fired < self.fires).then_some(self.at)
        }
    }

    #[test]
    fn schedulers_are_equivalent_and_event_queue_visits_fewer_rounds() {
        // A stalling kernel plus a periodically-firing device: the scan
        // wakes at every device event, the event queue only at warp wakes —
        // identical execution, fewer rounds.
        let run = |sched: EngineSched| {
            let flag = Arc::new(AtomicU64::new(0));
            let mut eng = Engine::new(GpuConfig::tiny(2));
            eng.set_scheduler(sched);
            eng.add_storage_device(Box::new(Ticker::new(Arc::clone(&flag), 100, 313, 100)));
            eng.launch(
                LaunchConfig::new(2, 64).with_registers(16),
                Box::new(WaitingKernel { flag }),
            );
            eng.run()
        };
        let event = run(EngineSched::EventQueue);
        let scan = run(EngineSched::FullScan);
        assert!(!event.deadlocked && !scan.deadlocked);
        assert_eq!(event.elapsed, scan.elapsed, "bit-identical timing");
        assert_eq!(event.kernels[0].steps, scan.kernels[0].steps);
        assert_eq!(event.kernels[0].busy_cycles, scan.kernels[0].busy_cycles);
        assert_eq!(event.kernels[0].stall_cycles, scan.kernels[0].stall_cycles);
        assert!(
            event.rounds < scan.rounds,
            "the event queue must skip device-only rounds ({} vs {})",
            event.rounds,
            scan.rounds
        );
    }

    #[test]
    fn a_passive_observer_is_visited_on_time_without_adding_rounds() {
        // A passive device with a schedule of its own (a metric window) is
        // advanced at exactly its event times, yet the run reports the
        // rounds — and everything else — of the run without it.
        struct Observer {
            every: u64,
            next: u64,
            seen: Arc<Mutex<Vec<u64>>>,
        }
        impl ExternalDevice for Observer {
            fn advance_to(&mut self, now: Cycles) {
                if now.raw() >= self.next {
                    self.seen.lock().unwrap().push(now.raw());
                    self.next += self.every;
                }
            }
            fn next_event_time(&mut self) -> Option<Cycles> {
                Some(Cycles(self.next))
            }
        }
        let run = |observe: bool| {
            let seen = Arc::new(Mutex::new(Vec::new()));
            let flag = Arc::new(AtomicU64::new(0));
            let mut eng = Engine::new(GpuConfig::tiny(1));
            eng.add_storage_device(Box::new(FlagDevice {
                flag: Arc::clone(&flag),
                at: Cycles(1_030),
                fired: false,
            }));
            if observe {
                eng.add_device(Box::new(Observer {
                    every: 250,
                    next: 250,
                    seen: Arc::clone(&seen),
                }));
            }
            eng.launch(
                LaunchConfig::new(1, 32).with_registers(16),
                Box::new(WaitingKernel { flag }),
            );
            let report = eng.run();
            let seen = seen.lock().unwrap().clone();
            (report.elapsed, report.rounds, report.kernels[0].steps, seen)
        };
        let (bare, observed) = (run(false), run(true));
        assert_eq!(observed.3, [250, 500, 750, 1_000], "each boundary, on time");
        assert_eq!(
            (bare.0, bare.1, bare.2),
            (observed.0, observed.1, observed.2)
        );
    }

    /// Appends its id to a shared log on every `advance_to` with a fresh
    /// timestamp — a probe for the device advance order.
    struct OrderProbe {
        id: u32,
        log: Arc<Mutex<Vec<u32>>>,
        last: Option<Cycles>,
    }
    impl ExternalDevice for OrderProbe {
        fn advance_to(&mut self, now: Cycles) {
            if self.last != Some(now) {
                self.last = Some(now);
                self.log.lock().unwrap().push(self.id);
            }
        }
        fn next_event_time(&mut self) -> Option<Cycles> {
            None
        }
    }

    #[test]
    fn device_advance_order_is_shard_then_passive() {
        // The determinism contract: storage devices in add order, then passive
        // devices in add order — every round.
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut eng = Engine::new(GpuConfig::tiny(1));
        for id in [0u32, 1] {
            eng.add_storage_device(Box::new(OrderProbe {
                id,
                log: Arc::clone(&log),
                last: None,
            }));
        }
        for id in [10u32, 11] {
            eng.add_device(Box::new(OrderProbe {
                id,
                log: Arc::clone(&log),
                last: None,
            }));
        }
        eng.launch(
            LaunchConfig::new(1, 32).with_registers(16),
            Box::new(ComputeOnlyKernel {
                cycles_per_warp: Cycles(10),
                steps: 1,
            }),
        );
        eng.run();
        let log = log.lock().unwrap();
        assert!(log.len() >= 4, "probe log too short: {log:?}");
        assert_eq!(
            &log[..4],
            &[0, 1, 10, 11],
            "advance order must be storage devices, then passive devices"
        );
    }

    #[test]
    fn registration_interleaving_does_not_reorder_advancement() {
        // Storage and passive devices live in separate lists: registering
        // passive, then storage, then passive still advances storage devices
        // first, then passive devices.
        let log = Arc::new(Mutex::new(Vec::new()));
        let probe = |id: u32| {
            Box::new(OrderProbe {
                id,
                log: Arc::clone(&log),
                last: None,
            })
        };
        let mut eng = Engine::new(GpuConfig::tiny(1));
        eng.add_device(probe(10));
        eng.add_storage_device(probe(0));
        eng.add_storage_device(probe(1));
        eng.add_device(probe(11));
        eng.launch(
            LaunchConfig::new(1, 32).with_registers(16),
            Box::new(ComputeOnlyKernel {
                cycles_per_warp: Cycles(10),
                steps: 1,
            }),
        );
        eng.run();
        let log = log.lock().unwrap();
        assert!(log.len() >= 4, "probe log too short: {log:?}");
        assert_eq!(&log[..4], &[0, 1, 10, 11]);
    }

    #[test]
    fn final_metrics_flush_is_never_lost() {
        // Far fewer rounds than the flush cadence: the only flush is the
        // final one in `finish_run`, and it must still land the exact totals
        // in the registry.
        let registry = std::sync::Arc::new(agile_metrics::MetricsRegistry::new());
        let mut eng = Engine::new(GpuConfig::tiny(2));
        eng.set_metrics(EngineMetrics::bind(&registry));
        eng.launch(
            LaunchConfig::new(4, 64).with_registers(16),
            Box::new(ComputeOnlyKernel {
                cycles_per_warp: Cycles(1000),
                steps: 3,
            }),
        );
        let report = eng.run();
        assert!(!report.deadlocked);
        assert!(report.rounds < METRICS_FLUSH_ROUNDS);
        use agile_metrics::Labels;
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("agile_engine_rounds_total", Labels::NONE),
            report.rounds,
            "final partial flush must deliver every round"
        );
        let steps: u64 = report.kernels.iter().map(|k| k.steps).sum();
        assert_eq!(
            snap.counter("agile_engine_warp_steps_total", Labels::NONE),
            steps,
            "final partial flush must deliver every warp step"
        );
        assert!(snap.gauge("agile_engine_ready_queue_high_water", Labels::NONE) > 0);
    }

    #[test]
    fn full_scan_handles_waves_like_the_event_queue() {
        for sched in [EngineSched::EventQueue, EngineSched::FullScan] {
            let mut eng = Engine::new(GpuConfig::tiny(1));
            eng.set_scheduler(sched);
            eng.launch(
                LaunchConfig::new(16, 32).with_registers(16),
                Box::new(ComputeOnlyKernel {
                    cycles_per_warp: Cycles(1000),
                    steps: 1,
                }),
            );
            let report = eng.run();
            assert!(!report.deadlocked);
            assert!(
                report.elapsed.raw() >= 4000 && report.elapsed.raw() < 4400,
                "{sched:?} elapsed {}",
                report.elapsed
            );
        }
    }

    // ------------------------------------------------------------------
    // Parking: the wake rule, the books, the deadlock rule
    // ------------------------------------------------------------------

    use agile_sim::wake::WatchList;

    /// A flag warps wait on, what watches it, and when each wait ended.
    #[derive(Default)]
    struct Rig {
        flag: AtomicU64,
        watchers: WatchList,
        woke: Mutex<Vec<(u32, u64)>>,
    }

    /// Waits for `rig.flag`, re-polling every `every`, asleep meanwhile.
    struct Sleeper {
        rig: Arc<Rig>,
        hub: Arc<WakeHub>,
        id: SleeperId,
        every: u64,
        reason: WaitReason,
    }

    impl crate::kernel::WarpKernel for Sleeper {
        fn step(&mut self, ctx: &WarpCtx) -> WarpStep {
            if self.rig.flag.load(Ordering::SeqCst) != 0 {
                self.rig
                    .woke
                    .lock()
                    .unwrap()
                    .push((self.id.0, ctx.now.raw()));
                return WarpStep::Done;
            }
            self.rig.watchers.watch(&self.hub, self.id);
            WarpStep::Stall {
                retry_after: Cycles(self.every),
                wait: Wait::parked(self.reason, self.id),
            }
        }
    }

    /// One block per entry of `every`; registers a sleeper per warp.
    struct Sleepers {
        rig: Arc<Rig>,
        hub: Arc<WakeHub>,
        every: Vec<u64>,
        reason: WaitReason,
    }

    impl KernelFactory for Sleepers {
        fn create_warp(&self, block: u32, _w: u32) -> Box<dyn crate::kernel::WarpKernel> {
            Box::new(Sleeper {
                rig: Arc::clone(&self.rig),
                hub: Arc::clone(&self.hub),
                id: self.hub.register(),
                every: self.every[block as usize],
                reason: self.reason,
            })
        }
        fn name(&self) -> &str {
            "sleepers"
        }
    }

    /// Busy for `after` cycles, then raises the flag and notifies.
    struct Raiser {
        rig: Arc<Rig>,
        after: u64,
    }
    struct RaiserWarp {
        rig: Arc<Rig>,
        after: u64,
        waited: bool,
    }
    impl crate::kernel::WarpKernel for RaiserWarp {
        fn step(&mut self, _ctx: &WarpCtx) -> WarpStep {
            if !self.waited {
                self.waited = true;
                return WarpStep::Busy(Cycles(self.after));
            }
            self.rig.flag.store(1, Ordering::SeqCst);
            self.rig.watchers.notify_all();
            WarpStep::Done
        }
    }
    impl KernelFactory for Raiser {
        fn create_warp(&self, _b: u32, _w: u32) -> Box<dyn crate::kernel::WarpKernel> {
            Box::new(RaiserWarp {
                rig: Arc::clone(&self.rig),
                after: self.after,
                waited: false,
            })
        }
        fn name(&self) -> &str {
            "raiser"
        }
    }

    /// One sleeper (grid 100, 200, …) and one raiser firing at `raise_at`,
    /// the sleeper on the SM before (`sleeper_first`) or after the raiser's.
    /// Returns when the sleeper saw the flag, and the sleeper kernel's
    /// `(stall_cycles, steps)` and the rounds of the run.
    fn wake_case(sched: EngineSched, sleeper_first: bool, raise_at: u64) -> (u64, (u64, u64), u64) {
        let rig = Arc::new(Rig::default());
        let hub = WakeHub::new();
        let mut eng = Engine::new(GpuConfig::tiny(2));
        eng.set_scheduler(sched);
        eng.set_wake_hub(Arc::clone(&hub));
        let one_block = LaunchConfig::new(1, 32).with_registers(16);
        let sleepers = Box::new(Sleepers {
            rig: Arc::clone(&rig),
            hub,
            every: vec![100],
            reason: WaitReason::Barrier,
        });
        let raiser = Box::new(Raiser {
            rig: Arc::clone(&rig),
            after: raise_at,
        });
        // The first block launched lands on SM 0, the second on SM 1.
        if sleeper_first {
            eng.launch(one_block.clone(), sleepers);
            eng.launch(one_block, raiser);
        } else {
            eng.launch(one_block.clone(), raiser);
            eng.launch(one_block, sleepers);
        }
        let report = eng.run();
        assert!(!report.deadlocked && report.stalled.is_empty());
        let woke = rig.woke.lock().unwrap()[0].1;
        let k = report.kernel("sleepers").unwrap();
        (woke, (k.stall_cycles, k.steps), report.rounds)
    }

    #[test]
    fn an_event_between_grid_points_wakes_at_the_next_one() {
        for sleeper_first in [false, true] {
            let (woke, books, rounds) = wake_case(EngineSched::EventQueue, sleeper_first, 250);
            assert_eq!(woke, 300, "first grid point at or after 250");
            // The polls at 100 and 200 were not made; their time was spent.
            assert_eq!(books, (300, 2), "stalled 0..300, stepped at 0 and 300");
            assert_eq!(rounds, 3, "t = 0, the event, the wake");
            let polled = wake_case(EngineSched::FullScan, sleeper_first, 250);
            assert_eq!((polled.0, polled.1), (300, (300, 4)), "the scan polls");
        }
    }

    #[test]
    fn an_event_on_a_grid_point_wakes_that_cycle_only_after_the_notifier() {
        // The raiser fires at 300, exactly a grid point of the sleeper.
        // Sleeper on the later SM: polling would step it after the raiser
        // in that round, so it sees the flag at 300 …
        let (woke, books, _) = wake_case(EngineSched::EventQueue, false, 300);
        assert_eq!((woke, books), (300, (300, 2)));
        // … sleeper on the earlier SM: its poll at 300 came first and found
        // nothing (it is one of the skipped ones); it sees the flag at 400.
        let (woke, books, _) = wake_case(EngineSched::EventQueue, true, 300);
        assert_eq!((woke, books), (400, (400, 2)));
        // Exactly what the scan does by polling, at every grid point.
        let polled = |first| wake_case(EngineSched::FullScan, first, 300);
        assert_eq!((polled(false).0, polled(false).1), (300, (300, 4)));
        assert_eq!((polled(true).0, polled(true).1), (400, (400, 5)));
    }

    #[test]
    fn parked_warps_keep_the_books_a_polled_run_keeps() {
        let run = |sched| {
            let rig = Arc::new(Rig::default());
            let hub = WakeHub::new();
            let mut eng = Engine::new(GpuConfig::tiny(2));
            eng.set_scheduler(sched);
            eng.set_wake_hub(Arc::clone(&hub));
            eng.launch(
                LaunchConfig::new(3, 32).with_registers(16),
                Box::new(Sleepers {
                    rig: Arc::clone(&rig),
                    hub,
                    every: vec![70, 110, 130],
                    reason: WaitReason::Barrier,
                }),
            );
            eng.launch(
                LaunchConfig::new(1, 32).with_registers(16),
                Box::new(Raiser {
                    rig: Arc::clone(&rig),
                    after: 1_000,
                }),
            );
            let report = eng.run();
            let mut woke = rig.woke.lock().unwrap().clone();
            woke.sort_unstable();
            let k = &report.kernels[0];
            (report.elapsed, k.steps, k.stall_cycles, woke, report.rounds)
        };
        let parked = run(EngineSched::EventQueue);
        let polled = run(EngineSched::FullScan);
        assert_eq!(parked.3, [(0, 1_050), (1, 1_100), (2, 1_040)]);
        assert_eq!(
            (parked.0, parked.2, &parked.3),
            (polled.0, polled.2, &polled.3),
            "elapsed, stall cycles and wake times include the skipped polls"
        );
        // Steps count what ran: per sleeper, the poll that parked it and the
        // wake — against every grid point up to the wake when polled.
        assert_eq!((parked.1, polled.1), (3 * 2, 16 + 11 + 9));
        assert!(parked.4 * 4 < polled.4, "{} vs {}", parked.4, polled.4);
    }

    #[test]
    fn all_warps_asleep_and_nothing_pending_is_a_deadlock_with_reasons() {
        let rig = Arc::new(Rig::default());
        let hub = WakeHub::new();
        let mut eng = Engine::new(GpuConfig::tiny(2));
        eng.set_wake_hub(Arc::clone(&hub));
        eng.launch(
            LaunchConfig::new(2, 32).with_registers(16),
            Box::new(Sleepers {
                rig,
                hub,
                every: vec![500, 700],
                reason: WaitReason::Barrier,
            }),
        );
        let report = eng.run();
        assert!(report.deadlocked);
        // Nobody will ever raise the flag: flagged at once, not after the
        // 50 M-cycle window.
        assert_eq!(report.elapsed, Cycles::ZERO);
        let warp = |block| WarpId {
            kernel: KernelId(0),
            block,
            warp: 0,
        };
        assert_eq!(
            report.stalled,
            [
                (warp(0), WaitReason::Barrier),
                (warp(1), WaitReason::Barrier)
            ]
        );
    }

    /// A device whose one completion, at `at`, raises the flag.
    struct SlowDevice {
        rig: Arc<Rig>,
        at: Cycles,
        done: bool,
    }
    impl ExternalDevice for SlowDevice {
        fn advance_to(&mut self, now: Cycles) {
            if !self.done && now >= self.at {
                self.done = true;
                self.rig.flag.store(1, Ordering::SeqCst);
                self.rig.watchers.notify_all();
            }
        }
        fn next_event_time(&mut self) -> Option<Cycles> {
            (!self.done).then_some(self.at)
        }
    }

    #[test]
    fn a_device_slower_than_the_deadlock_window_is_not_a_deadlock() {
        // Every warp sleeps on a completion ten windows away: slow, not
        // stuck — under either scheduler, parked or polled.
        for sched in [EngineSched::EventQueue, EngineSched::FullScan] {
            let rig = Arc::new(Rig::default());
            let hub = WakeHub::new();
            let mut eng = Engine::new(GpuConfig::tiny(2));
            eng.set_scheduler(sched);
            eng.set_wake_hub(Arc::clone(&hub));
            eng.set_deadlock_window(Cycles(10_000));
            eng.add_storage_device(Box::new(SlowDevice {
                rig: Arc::clone(&rig),
                at: Cycles(100_050),
                done: false,
            }));
            eng.launch(
                LaunchConfig::new(1, 32).with_registers(16),
                Box::new(Sleepers {
                    rig: Arc::clone(&rig),
                    hub,
                    every: vec![1_000],
                    reason: WaitReason::ServiceIdle,
                }),
            );
            let report = eng.run();
            assert!(!report.deadlocked, "{sched:?}");
            assert!(report.stalled.is_empty());
            // Woken on its own grid, at the first point after the event.
            assert_eq!(*rig.woke.lock().unwrap(), [(0, 101_000)], "{sched:?}");
            if sched != EngineSched::FullScan {
                assert_eq!(report.rounds, 3, "t = 0, the event, the wake");
            }
        }
    }

    #[test]
    fn sleepers_survive_from_one_run_to_the_next() {
        // A persistent kernel's warp falls asleep in one run and is woken,
        // on the grid it started then, by an event in a later one — and its
        // stall time is booked once, whichever run it falls in.
        for sched in [EngineSched::EventQueue, EngineSched::FullScan] {
            let rig = Arc::new(Rig::default());
            let hub = WakeHub::new();
            let mut eng = Engine::new(GpuConfig::tiny(2));
            eng.set_scheduler(sched);
            eng.set_wake_hub(Arc::clone(&hub));
            eng.launch(
                LaunchConfig::new(1, 32).with_registers(16).persistent(),
                Box::new(Sleepers {
                    rig: Arc::clone(&rig),
                    hub,
                    every: vec![300],
                    reason: WaitReason::Barrier,
                }),
            );
            let compute = |cycles| {
                Box::new(ComputeOnlyKernel {
                    cycles_per_warp: Cycles(cycles),
                    steps: 1,
                })
            };
            let one_block = LaunchConfig::new(1, 32).with_registers(16);
            eng.launch(one_block.clone(), compute(1_000));
            let first = eng.run();
            assert_eq!(first.elapsed, Cycles(1_000));
            // The run ended at 1 000: polled at 0, 300, 600 and 900.
            assert_eq!(first.kernels[0].stall_cycles, 1_200, "{sched:?}");
            eng.launch(
                one_block.clone(),
                Box::new(Raiser {
                    rig: Arc::clone(&rig),
                    after: 400,
                }),
            );
            eng.launch(one_block, compute(2_000));
            let second = eng.run();
            // Raised at 1 400: the sleeper's grid (…, 1 200, 1 500) says 1 500.
            assert_eq!(*rig.woke.lock().unwrap(), [(0, 1_500)], "{sched:?}");
            assert_eq!(second.kernels[0].stall_cycles, 1_500, "{sched:?}");
        }
    }

    // ------------------------------------------------------------------
    // Deadlines and busy prefixes
    // ------------------------------------------------------------------

    /// Parks on its first step with a deadline `polls` grid points on — its
    /// grid `every` apart, from the end of a `busy` prefix when that is
    /// non-zero — re-polls purely until the flag is up or the deadline has
    /// come, then logs `(sleeper, now)` to `rig.woke`, is busy for 1 000
    /// cycles and ends.
    struct Napper {
        rig: Arc<Rig>,
        hub: Arc<WakeHub>,
        id: SleeperId,
        every: u64,
        busy: u64,
        polls: u64,
        deadline: Option<u64>,
        woke: bool,
    }

    impl crate::kernel::WarpKernel for Napper {
        fn step(&mut self, ctx: &WarpCtx) -> WarpStep {
            let now = ctx.now.raw();
            if self.woke {
                return WarpStep::Done;
            }
            let deadline = match self.deadline {
                Some(at) if now >= at || self.rig.flag.load(Ordering::SeqCst) != 0 => {
                    self.woke = true;
                    self.rig.woke.lock().unwrap().push((self.id.0, now));
                    return WarpStep::Busy(Cycles(1_000));
                }
                Some(at) => at,
                None => {
                    self.rig.watchers.watch(&self.hub, self.id);
                    let first = now + if self.busy > 0 { self.busy } else { self.every };
                    *self.deadline.insert(first + self.polls * self.every)
                }
            };
            let mut wait = Wait::parked(WaitReason::ServiceAhead, self.id).until(Cycles(deadline));
            if self.busy > 0 && now + self.busy < deadline {
                wait = wait.after_busy(ctx.now + Cycles(self.busy));
                self.busy = 0; // only the parking step is busy first
            }
            WarpStep::Stall {
                retry_after: Cycles(self.every),
                wait,
            }
        }
    }

    struct Nappers {
        rig: Arc<Rig>,
        hub: Arc<WakeHub>,
        every: u64,
        busy: u64,
        polls: u64,
    }

    impl KernelFactory for Nappers {
        fn create_warp(&self, _b: u32, _w: u32) -> Box<dyn crate::kernel::WarpKernel> {
            Box::new(Napper {
                rig: Arc::clone(&self.rig),
                hub: Arc::clone(&self.hub),
                id: self.hub.register(),
                every: self.every,
                busy: self.busy,
                polls: self.polls,
                deadline: None,
                woke: false,
            })
        }
        fn name(&self) -> &str {
            "nappers"
        }
    }

    /// One napper (grid 100 from the end of a 30-cycle busy prefix, deadline
    /// at 330) and, when `raise_at` is set, a raiser on the next SM. Returns
    /// the wake times, the napper kernel's `(busy, stall, steps)`, the end
    /// of the run and its rounds.
    fn nap_case(
        sched: EngineSched,
        raise_at: Option<u64>,
    ) -> (Vec<(u32, u64)>, [u64; 3], u64, u64) {
        let rig = Arc::new(Rig::default());
        let hub = WakeHub::new();
        let mut eng = Engine::new(GpuConfig::tiny(2));
        eng.set_scheduler(sched);
        eng.set_wake_hub(Arc::clone(&hub));
        let one_block = LaunchConfig::new(1, 32).with_registers(16);
        eng.launch(
            one_block.clone(),
            Box::new(Nappers {
                rig: Arc::clone(&rig),
                hub,
                every: 100,
                busy: 30,
                polls: 3,
            }),
        );
        if let Some(after) = raise_at {
            eng.launch(
                one_block,
                Box::new(Raiser {
                    rig: Arc::clone(&rig),
                    after,
                }),
            );
        }
        let report = eng.run();
        assert!(!report.deadlocked);
        let k = report.kernel("nappers").unwrap();
        let woke = rig.woke.lock().unwrap().clone();
        let books = [k.busy_cycles, k.stall_cycles, k.steps];
        (woke, books, report.elapsed.raw(), report.rounds)
    }

    #[test]
    fn a_parked_warp_wakes_at_its_deadline_with_no_notification() {
        let (woke, [busy, stall, steps], end, rounds) = nap_case(EngineSched::EventQueue, None);
        assert_eq!((&woke[..], end), (&[(0, 330)][..], 1_330), "the deadline");
        // Busy 0..30 (the prefix) and 330..1 330; stalled 30..330, the polls
        // at 30, 130 and 230 never made.
        assert_eq!((busy, stall, steps), (1_030, 300, 3));
        assert_eq!(rounds, 3, "t = 0, the deadline, the end");
        // The scan polls at every grid point and books the same time.
        let (polled, [p_busy, p_stall, p_steps], p_end, _) = nap_case(EngineSched::FullScan, None);
        assert_eq!((polled, p_busy, p_stall, p_end), (woke, busy, stall, end));
        assert_eq!(p_steps, 3 + 3);
    }

    #[test]
    fn a_notification_before_the_deadline_wakes_on_the_grid_and_the_deadline_goes_stale() {
        // Raised at 150: the grid from 30 says 230. The deadline entry at
        // 330 is stale by then; the warp, busy until 1 230, is not stepped
        // there, and no round is spent on it.
        let (woke, books, end, rounds) = nap_case(EngineSched::EventQueue, Some(150));
        assert_eq!((&woke[..], end), (&[(0, 230)][..], 1_230));
        assert_eq!(books, [1_030, 200, 3]);
        assert_eq!(rounds, 4, "t = 0, the raise, the wake, the end");
        let (polled, p_books, p_end, _) = nap_case(EngineSched::FullScan, Some(150));
        assert_eq!((polled, &p_books[..2], p_end), (woke, &books[..2], end));
    }

    #[test]
    fn a_deadline_survives_a_run_boundary() {
        // A persistent napper (grid 300 from 300, deadline 1 800) sleeps
        // through the end of a run at 1 000 and wakes at its deadline in
        // the next one, its stall booked once.
        for sched in [EngineSched::EventQueue, EngineSched::FullScan] {
            let rig = Arc::new(Rig::default());
            let hub = WakeHub::new();
            let mut eng = Engine::new(GpuConfig::tiny(2));
            eng.set_scheduler(sched);
            eng.set_wake_hub(Arc::clone(&hub));
            eng.launch(
                LaunchConfig::new(1, 32).with_registers(16).persistent(),
                Box::new(Nappers {
                    rig: Arc::clone(&rig),
                    hub,
                    every: 300,
                    busy: 0,
                    polls: 5,
                }),
            );
            let compute = |cycles| {
                Box::new(ComputeOnlyKernel {
                    cycles_per_warp: Cycles(cycles),
                    steps: 1,
                })
            };
            let one_block = LaunchConfig::new(1, 32).with_registers(16);
            eng.launch(one_block.clone(), compute(1_000));
            let first = eng.run();
            assert_eq!(first.kernels[0].stall_cycles, 1_200, "{sched:?}");
            eng.launch(one_block, compute(2_000));
            let second = eng.run();
            assert_eq!(*rig.woke.lock().unwrap(), [(0, 1_800)], "{sched:?}");
            assert_eq!(second.kernels[0].stall_cycles, 1_800, "{sched:?}");
            assert_eq!(second.kernels[0].busy_cycles, 1_000, "{sched:?}");
        }
    }

    // ------------------------------------------------------------------
    // Counting queues: which waiter a granted unit wakes
    // ------------------------------------------------------------------

    use agile_sim::wake::WaitQueue;

    /// Busy for `delay` (which sets its grid's phase), then parks in `queue`
    /// once, retrying every `retry`; its next step logs `(sleeper, now)` to `rig.woke`, whether the hub
    /// still had it asleep, and ends. Also wakes on `rig.watchers`.
    struct QueueWaiter {
        rig: Arc<Rig>,
        hub: Arc<WakeHub>,
        queue: QueueId,
        id: SleeperId,
        delay: u64,
        retry: u64,
        asleep_when_woken: Arc<Mutex<Vec<bool>>>,
        state: u8,
    }

    impl crate::kernel::WarpKernel for QueueWaiter {
        fn step(&mut self, ctx: &WarpCtx) -> WarpStep {
            self.state += 1;
            match self.state {
                1 => WarpStep::Busy(Cycles(self.delay)),
                2 => {
                    self.rig.watchers.watch(&self.hub, self.id);
                    WarpStep::Stall {
                        retry_after: Cycles(self.retry),
                        wait: Wait::parked(WaitReason::Submit, self.id).queued(self.queue),
                    }
                }
                _ => {
                    let asleep = self.hub.is_asleep(self.id);
                    self.asleep_when_woken.lock().unwrap().push(asleep);
                    let woke = (self.id.0, ctx.now.raw());
                    self.rig.woke.lock().unwrap().push(woke);
                    WarpStep::Done
                }
            }
        }
    }

    /// One `QueueWaiter` block per entry of `delays` (sleeper ids in block
    /// order), plus whether each was asleep in the hub when it stepped again.
    struct QueueWaiters {
        rig: Arc<Rig>,
        hub: Arc<WakeHub>,
        queue: QueueId,
        delays: Vec<u64>,
        retry: u64,
        asleep_when_woken: Arc<Mutex<Vec<bool>>>,
    }

    impl KernelFactory for QueueWaiters {
        fn create_warp(&self, block: u32, _w: u32) -> Box<dyn crate::kernel::WarpKernel> {
            Box::new(QueueWaiter {
                rig: Arc::clone(&self.rig),
                hub: Arc::clone(&self.hub),
                queue: self.queue,
                id: self.hub.register(),
                delay: self.delays[block as usize],
                retry: self.retry,
                asleep_when_woken: Arc::clone(&self.asleep_when_woken),
                state: 0,
            })
        }
        fn name(&self) -> &str {
            "queue-waiters"
        }
    }

    /// Grants `units` to the queue at each `(time, units)` of its script.
    struct Granter {
        hub: Arc<WakeHub>,
        queue: WaitQueue,
        script: Vec<(u64, u32)>,
    }
    struct GranterWarp(Arc<WakeHub>, WaitQueue, Vec<(u64, u32)>, usize);

    impl crate::kernel::WarpKernel for GranterWarp {
        fn step(&mut self, ctx: &WarpCtx) -> WarpStep {
            let GranterWarp(hub, queue, script, next) = self;
            if let Some(&(at, units)) = script.get(*next) {
                if ctx.now.raw() >= at {
                    hub.grant(queue, units);
                    *next += 1;
                }
            }
            match script.get(*next) {
                Some(&(at, _)) => WarpStep::Busy(Cycles(at - ctx.now.raw())),
                None => WarpStep::Done,
            }
        }
    }

    impl KernelFactory for Granter {
        fn create_warp(&self, _b: u32, _w: u32) -> Box<dyn crate::kernel::WarpKernel> {
            Box::new(GranterWarp(
                Arc::clone(&self.hub),
                self.queue.clone(),
                self.script.clone(),
                0,
            ))
        }
        fn name(&self) -> &str {
            "granter"
        }
    }

    /// A queue world: an engine with a hub, one counting queue, waiters on
    /// the SMs before the granter's (`waiters_first`) or after it.
    struct QueueRig {
        eng: Engine,
        rig: Arc<Rig>,
        hub: Arc<WakeHub>,
        queue: WaitQueue,
        asleep_when_woken: Arc<Mutex<Vec<bool>>>,
    }

    impl QueueRig {
        fn new(sched: EngineSched) -> Self {
            let hub = WakeHub::new();
            let mut eng = Engine::new(GpuConfig::tiny(8));
            eng.set_scheduler(sched);
            eng.set_wake_hub(Arc::clone(&hub));
            QueueRig {
                eng,
                rig: Arc::new(Rig::default()),
                queue: hub.register_queue(),
                hub,
                asleep_when_woken: Arc::default(),
            }
        }

        fn waiters(&mut self, delays: &[u64], retry: u64, persistent: bool) {
            let launch = LaunchConfig::new(delays.len() as u32, 32).with_registers(16);
            self.eng.launch(
                if persistent {
                    launch.persistent()
                } else {
                    launch
                },
                Box::new(QueueWaiters {
                    rig: Arc::clone(&self.rig),
                    hub: Arc::clone(&self.hub),
                    queue: self.queue.id(),
                    delays: delays.to_vec(),
                    retry,
                    asleep_when_woken: Arc::clone(&self.asleep_when_woken),
                }),
            );
        }

        fn granter(&mut self, script: &[(u64, u32)]) {
            self.eng.launch(
                LaunchConfig::new(1, 32).with_registers(16),
                Box::new(Granter {
                    hub: Arc::clone(&self.hub),
                    queue: self.queue.clone(),
                    script: script.to_vec(),
                }),
            );
        }

        /// `(sleeper, time)` of every wake so far, in wake order.
        fn woke(&self) -> Vec<(u32, u64)> {
            self.rig.woke.lock().unwrap().clone()
        }
    }

    #[test]
    fn a_grant_of_n_wakes_the_n_waiters_whose_grids_come_first() {
        let mut q = QueueRig::new(EngineSched::EventQueue);
        // Grids 100 + 1 000 k, 300 + …, 500 + …, 700 + ….
        q.waiters(&[100, 300, 500, 700], 1_000, false);
        // Two units at 1 400: polls at 1 500 and 1 700 come first; the rest
        // at 4 400 (polls at 5 100 and 5 300).
        q.granter(&[(1_400, 2), (4_400, 10)]);
        let report = q.eng.run();
        assert!(!report.deadlocked);
        assert_eq!(q.woke(), [(2, 1_500), (3, 1_700), (0, 5_100), (1, 5_300)]);
        assert_eq!(q.queue.waiters(), 0);
        // Every waiter was back to idle in the hub when it stepped.
        assert_eq!(*q.asleep_when_woken.lock().unwrap(), [false; 4]);
        // Steps: the busy one, the parking one and the woken one each.
        assert_eq!(report.kernel("queue-waiters").unwrap().steps, 4 * 3);
    }

    #[test]
    fn a_grant_on_a_grid_point_serves_that_waiter_only_after_the_notifier() {
        // Waiter 0 polls on 1 300 (exactly the grant), waiter 1 on 1 350.
        for waiters_first in [true, false] {
            let mut q = QueueRig::new(EngineSched::EventQueue);
            if waiters_first {
                q.waiters(&[300, 350], 1_000, false);
                q.granter(&[(1_300, 1), (5_000, 1)]);
            } else {
                q.granter(&[(1_300, 1), (5_000, 1)]);
                q.waiters(&[300, 350], 1_000, false);
            }
            assert!(!q.eng.run().deadlocked);
            let woke = q.woke();
            if waiters_first {
                // Waiter 0 polled at 1 300 before the grant: the unit is
                // waiter 1's at 1 350; waiter 0's at 5 300.
                assert_eq!(woke, [(1, 1_350), (0, 5_300)]);
            } else {
                // Waiter 0 polls at 1 300 after the granter: it takes it.
                assert_eq!(woke, [(0, 1_300), (1, 5_350)]);
            }
        }
    }

    #[test]
    fn a_waiter_woken_by_its_sleeper_leaves_the_queue() {
        let mut q = QueueRig::new(EngineSched::EventQueue);
        q.waiters(&[100, 300], 1_000, false);
        q.eng.launch(
            LaunchConfig::new(1, 32).with_registers(16),
            Box::new(Raiser {
                rig: Arc::clone(&q.rig),
                after: 1_050,
            }),
        );
        // The raise at 1 050 wakes both at their grids (1 100, 1 300); the
        // grant at 1 200 finds only waiter 1, already awake: nobody in the
        // queue, so it is dropped.
        q.granter(&[(1_200, 1)]);
        assert!(!q.eng.run().deadlocked);
        assert_eq!(q.woke(), [(0, 1_100), (1, 1_300)]);
        assert_eq!(q.queue.waiters(), 0);
    }

    #[test]
    fn a_grant_before_anybody_waits_is_dropped() {
        let mut q = QueueRig::new(EngineSched::EventQueue);
        q.waiters(&[100], 1_000, false);
        // The grant at 50 comes before the waiter parks at 100.
        q.granter(&[(50, 3), (2_500, 1)]);
        assert!(!q.eng.run().deadlocked);
        assert_eq!(q.woke(), [(0, 3_100)]);
    }

    #[test]
    fn queue_waiters_survive_a_second_run_and_leave_for_a_full_scan() {
        let compute = |cycles| {
            Box::new(ComputeOnlyKernel {
                cycles_per_warp: Cycles(cycles),
                steps: 1,
            })
        };
        let one_block = LaunchConfig::new(1, 32).with_registers(16);
        let mut q = QueueRig::new(EngineSched::EventQueue);
        q.waiters(&[100, 200], 1_000, true);
        q.eng.launch(one_block.clone(), compute(1_000));
        assert_eq!(q.eng.run().elapsed, Cycles(1_000));
        assert_eq!(q.queue.waiters(), 2, "both asleep in the queue");
        // The next run grants one unit at 1 650: waiter 0 (grid …, 2 100)
        // before waiter 1 (…, 2 200).
        q.granter(&[(1_650, 1)]);
        q.eng.launch(one_block.clone(), compute(2_000));
        q.eng.run();
        assert_eq!(q.woke(), [(0, 2_100)]);
        assert_eq!(q.queue.waiters(), 1);
        // A full scan polls waiter 1 on its grid instead, out of the queue
        // and idle in the hub.
        q.eng.set_scheduler(EngineSched::FullScan);
        q.eng.launch(one_block, compute(1_000));
        q.eng.run();
        assert_eq!(q.queue.waiters(), 0);
        assert_eq!(q.woke(), [(0, 2_100), (1, 3_200)]);
        assert_eq!(*q.asleep_when_woken.lock().unwrap(), [false, false]);
    }

    #[test]
    fn engine_stays_send() {
        // Hosts own an engine and may be built on one thread and run on
        // another; the reused round buffers must not cost that.
        fn assert_send<T: Send>() {}
        assert_send::<Engine>();
    }

    #[test]
    fn report_lookup_by_name() {
        let mut eng = Engine::new(GpuConfig::tiny(1));
        eng.launch(
            LaunchConfig::new(1, 32).with_registers(16),
            Box::new(ComputeOnlyKernel {
                cycles_per_warp: Cycles(10),
                steps: 1,
            }),
        );
        let report = eng.run();
        assert!(report.kernel("compute-only").is_some());
        assert!(report.kernel("missing").is_none());
    }
}
