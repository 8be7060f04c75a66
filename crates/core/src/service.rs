//! The AGILE service: warp-centric completion-queue polling (§3.2).
//!
//! A small persistent kernel runs in the background on the GPU. Its warps
//! rotate over the registered CQs in round-robin order; on each visit a warp
//! examines a 32-entry window of the CQ — one CQE per lane — exactly as
//! Algorithm 1 describes:
//!
//! 1. load the window offset, the expected phase and the 32-bit mask of
//!    already-seen completions;
//! 2. every lane whose mask bit is clear probes its CQE's phase tag and sets
//!    the bit if a new completion is present — and the service *processes*
//!    that completion: it maps the `(SQ, CID)` back to its transaction,
//!    releases the SQE lock (so the submission slot can be reused), completes
//!    cache fills, clears user barriers and marks Share-Table entries ready;
//! 3. when the whole window is processed the warp writes the CQ head doorbell
//!    (consuming the 32 entries) and resets the mask for the next window.
//!
//! Because the *service* — not the issuing thread — releases SQ entries, a
//! thread that finds every SQ full can simply retry later: the entries it is
//! waiting for will be freed regardless of what any user thread is doing,
//! which eliminates the deadlock of Figure 1.
//!
//! As in the paper there is one service kernel, and its warps share the
//! sweep over *every* CQ of every device, in `(device, queue-pair)` order.
//!
//! ## Idle sweeps sleep
//!
//! A sweep that finds nothing backs off for `idle_backoff` cycles and looks
//! at the next CQ of its rotation. Once **every** CQ of a warp's rotation
//! holds nothing new (posted = retired) those sweeps are pure — each would
//! count one idle round, advance the rotation and back off again — so the
//! warp returns a parkable stall instead: its sleeper watches those CQs, the
//! idle-backoff cell and the stop flag, and the engine wakes it at the first
//! point of its backoff grid at or after a completion is posted (or the cell
//! written). The sweeps it slept through move its rotation on in bulk — the
//! rotation decides which CQ it polls next, so that is simulated behaviour —
//! but are not counted: `idle_rounds` counts the idle sweeps executed.

use crate::ctrl::AgileCtrl;
use agile_sim::wake::{SleeperId, Wait, WaitReason, WatchedU64};
use agile_sim::Cycles;
use gpu_sim::{KernelFactory, WarpCtx, WarpKernel, WarpStep};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Poll cursor of one CQ (owned by the service).
struct CqPollState {
    /// Ring index of the first entry of the current 32-entry window.
    window_start: u32,
    /// Expected phase tag for entries in the current pass of the ring.
    phase: bool,
    /// Bit `i` set ⇒ entry `window_start + i` has been observed and processed.
    mask: u32,
}

/// One CQ's poll cursor, and how many CQEs it has retired in total
/// (free-running, wraps like [`nvme_sim::CompletionQueue::total_posted`]) —
/// readable without the cursor's lock, so a sweep of a CQ that holds nothing
/// new takes no lock.
struct CqCursor {
    state: Mutex<CqPollState>,
    retired: AtomicU32,
}

impl CqCursor {
    fn new() -> Self {
        CqCursor {
            state: Mutex::new(CqPollState {
                window_start: 0,
                phase: true,
                mask: 0,
            }),
            retired: AtomicU32::new(0),
        }
    }

    /// True when every CQE posted to `cq` has been retired.
    fn caught_up(&self, cq: &nvme_sim::CompletionQueue) -> bool {
        cq.total_posted() == self.retired.load(Ordering::Acquire)
    }
}

/// Statistics of the service kernel.
///
/// Note: the unified registry exports these as `agile_service_*` (labelled
/// `partition=0`); this struct stays for direct programmatic access.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Completions processed.
    pub completions: u64,
    /// CQ head-doorbell updates (windows consumed).
    pub cq_doorbells: u64,
    /// Poll rounds executed that found no new completion (the sweeps of a
    /// sleeping service warp are not made, so not counted).
    pub idle_rounds: u64,
    /// Poll rounds that found at least one completion.
    pub busy_rounds: u64,
}

#[derive(Default)]
struct ServiceStatCells {
    completions: AtomicU64,
    cq_doorbells: AtomicU64,
    idle_rounds: AtomicU64,
    busy_rounds: AtomicU64,
}

/// The AGILE service: a poll cursor per CQ plus the completion-processing
/// logic of Algorithm 1.
pub struct AgileService {
    ctrl: Arc<AgileCtrl>,
    /// `(device, queue-pair)` flattened list of the CQs the service polls.
    targets: Vec<(usize, usize)>,
    cursors: Vec<CqCursor>,
    stats: ServiceStatCells,
    /// Cycles a poll round costs when it found completions.
    poll_round_cost: u64,
    /// Cycles a warp backs off when its round found nothing (keeps the
    /// simulation cheap without changing behaviour: an idle poll loop).
    /// Seeded from `costs.api.agile_service_idle_backoff`; the cell is
    /// shared with the controller so a control plane can retune it online —
    /// the service loads it once per idle round.
    idle_backoff: Arc<WatchedU64>,
}

impl AgileService {
    /// Build the service over every CQ registered with the controller, in
    /// `(device asc, queue asc)` order.
    pub fn new(ctrl: Arc<AgileCtrl>) -> Arc<Self> {
        let targets: Vec<(usize, usize)> = ctrl
            .io()
            .queues_per_device()
            .into_iter()
            .enumerate()
            .flat_map(|(dev, queues)| (0..queues).map(move |q| (dev, q)))
            .collect();
        let cursors = targets.iter().map(|_| CqCursor::new()).collect();
        let poll_round_cost = ctrl.config().costs.api.agile_service_poll_round;
        let idle_backoff = ctrl.idle_backoff_cell();
        Arc::new(AgileService {
            ctrl,
            targets,
            cursors,
            stats: ServiceStatCells::default(),
            poll_round_cost,
            idle_backoff,
        })
    }

    /// Number of CQs the service is responsible for.
    pub fn target_count(&self) -> usize {
        self.targets.len()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            completions: self.stats.completions.load(Ordering::Relaxed),
            cq_doorbells: self.stats.cq_doorbells.load(Ordering::Relaxed),
            idle_rounds: self.stats.idle_rounds.load(Ordering::Relaxed),
            busy_rounds: self.stats.busy_rounds.load(Ordering::Relaxed),
        }
    }

    /// Execute one warp-centric polling round on CQ `target_idx`
    /// (Algorithm 1) at sim time `now`. Returns the number of completions
    /// processed.
    pub fn poll_cq(&self, target_idx: usize, now: Cycles) -> u32 {
        let (dev, _) = self.targets[target_idx];
        let cq = self.cq(target_idx);
        let depth = cq.depth();
        // The device posts CQEs in ring order and this cursor is the CQ's
        // only consumer, so "posted == retired" proves the window holds
        // nothing new: skip the 32 slot probes an idle visit would spend
        // rediscovering that. `posted` counts the CQEs not retired yet.
        let retired = &self.cursors[target_idx].retired;
        let posted = cq
            .total_posted()
            .wrapping_sub(retired.load(Ordering::Acquire));
        if posted == 0 {
            return 0;
        }
        let mut cursor = self.cursors[target_idx].state.lock();
        let mut processed = 0u32;

        // Each of the 32 "lanes" probes one entry of the window. The entries
        // not retired yet follow the retired ones in ring order, so once
        // all `posted` of them are found the remaining lanes would find
        // nothing.
        let window = 32.min(depth);
        for lane in 0..window {
            if processed == posted {
                break;
            }
            let bit = 1u32 << lane;
            if cursor.mask & bit != 0 {
                continue;
            }
            let idx = (cursor.window_start + lane) % depth;
            if let Some(cqe) = cq.poll_slot(idx, cursor.phase) {
                // Release the SQE and finish the transaction (no poller
                // identity: the service is not a tenant).
                self.ctrl
                    .io()
                    .retire(dev, cqe.sq_id as usize, cqe.cid, None, now);
                self.stats.completions.fetch_add(1, Ordering::Relaxed);
                cursor.mask |= bit;
                processed += 1;
            }
        }
        retired.fetch_add(processed, Ordering::AcqRel);

        // Window fully processed: ring the CQ head doorbell and move on.
        let full_mask = if window == 32 {
            u32::MAX
        } else {
            (1u32 << window) - 1
        };
        if cursor.mask == full_mask {
            cq.consume(window);
            self.stats.cq_doorbells.fetch_add(1, Ordering::Relaxed);
            cursor.mask = 0;
            let next = (cursor.window_start + window) % depth;
            if next <= cursor.window_start {
                cursor.phase = !cursor.phase;
            }
            cursor.window_start = next;
        }
        processed
    }

    /// One scheduling step of a service warp at sim time `now`: poll the next
    /// CQ in this warp's rotation. Returns the cycle cost of the step.
    pub fn service_step(
        &self,
        rotation: &mut usize,
        stride: usize,
        offset: usize,
        now: Cycles,
    ) -> Cycles {
        self.sweep(rotation, stride, offset, now).0
    }

    /// [`AgileService::service_step`], also saying whether the sweep was
    /// idle (polled a CQ and found nothing).
    fn sweep(
        &self,
        rotation: &mut usize,
        stride: usize,
        offset: usize,
        now: Cycles,
    ) -> (Cycles, bool) {
        if self.targets.is_empty() {
            return (Cycles(self.idle_backoff.load().max(1)), false);
        }
        let idx = (offset + *rotation * stride) % self.targets.len();
        *rotation += 1;
        let processed = self.poll_cq(idx, now);
        if processed > 0 {
            self.stats.busy_rounds.fetch_add(1, Ordering::Relaxed);
            (Cycles(self.poll_round_cost), false)
        } else {
            self.stats.idle_rounds.fetch_add(1, Ordering::Relaxed);
            let backoff = self.idle_backoff.load().max(1);
            (Cycles(self.poll_round_cost.max(backoff)), true)
        }
    }

    /// True when none of the CQs `rotation` (target indices) holds a
    /// completion its cursor has not retired: every sweep over them is idle
    /// until the device posts to one.
    fn all_retired(&self, rotation: &[usize]) -> bool {
        rotation
            .iter()
            .all(|&idx| self.cursors[idx].caught_up(self.cq(idx)))
    }

    /// The CQ behind target `idx`.
    fn cq(&self, idx: usize) -> &nvme_sim::CompletionQueue {
        let (dev, qidx) = self.targets[idx];
        &self.ctrl.io().device_queues(dev)[qidx].queue_pair().cq
    }

    /// Register a sleeper for a warp sweeping `rotation`: notified by a post
    /// to any of those CQs, a store to the idle-backoff cell (its grid
    /// changes) and a stop request.
    fn sleeper_for(&self, rotation: &[usize]) -> SleeperId {
        let hub = self.ctrl.io().wake_hub();
        let sleeper = hub.register();
        for &idx in rotation {
            self.cq(idx).watchers().watch(hub, sleeper);
        }
        self.idle_backoff.watchers().watch(hub, sleeper);
        self.ctrl.stop_watchers().watch(hub, sleeper);
        sleeper
    }

    /// The controller this service works for.
    pub fn ctrl(&self) -> &Arc<AgileCtrl> {
        &self.ctrl
    }
}

/// Kernel factory for the persistent AGILE service kernel.
pub struct AgileServiceKernel {
    service: Arc<AgileService>,
    warps_per_block: u32,
    total_warps: u32,
}

impl AgileServiceKernel {
    /// Create the factory; `warps_per_block`/`total_warps` must match the
    /// launch configuration used for the service kernel.
    pub fn new(service: Arc<AgileService>, warps_per_block: u32, total_warps: u32) -> Self {
        AgileServiceKernel {
            service,
            warps_per_block,
            total_warps: total_warps.max(1),
        }
    }
}

struct ServiceWarp {
    service: Arc<AgileService>,
    rotation: usize,
    stride: usize,
    offset: usize,
    /// The distinct target indices this warp's rotation visits.
    visits: Vec<usize>,
    /// Registered the first time the warp has nothing to sweep for.
    sleeper: Option<SleeperId>,
    /// `(when, backoff)` of the idle sweep after which the warp offered to
    /// sleep: the sweeps between then and its next step were skipped.
    dozed: Option<(Cycles, Cycles)>,
}

impl WarpKernel for ServiceWarp {
    fn step(&mut self, ctx: &WarpCtx) -> WarpStep {
        if self.service.ctrl().service_stop_requested() {
            return WarpStep::Done;
        }
        if let Some((since, every)) = self.dozed.take() {
            // Woken on its own grid, `k` intervals on: each of the `k − 1`
            // sweeps in between would have moved the rotation on by one.
            let intervals = (ctx.now - since).raw() / every.raw();
            self.rotation += intervals.saturating_sub(1) as usize;
        }
        let (cost, idle) =
            self.service
                .sweep(&mut self.rotation, self.stride, self.offset, ctx.now);
        if !(idle && self.service.all_retired(&self.visits)) {
            return WarpStep::Busy(cost);
        }
        let sleeper = *self
            .sleeper
            .get_or_insert_with(|| self.service.sleeper_for(&self.visits));
        self.dozed = Some((ctx.now, cost));
        WarpStep::Stall {
            retry_after: cost,
            wait: Wait::parked(WaitReason::ServiceIdle, sleeper),
        }
    }
}

impl KernelFactory for AgileServiceKernel {
    fn create_warp(&self, block: u32, warp: u32) -> Box<dyn WarpKernel> {
        let flat = block * self.warps_per_block + warp;
        let (stride, offset) = (self.total_warps as usize, flat as usize);
        // The rotation `offset + r · stride (mod targets)` is periodic: it
        // comes back to its first target after at most `targets` sweeps.
        let targets = self.service.target_count();
        let mut visits: Vec<usize> = (0..targets)
            .map(|r| (offset + r * stride) % targets)
            .collect();
        visits.sort_unstable();
        visits.dedup();
        Box::new(ServiceWarp {
            service: Arc::clone(&self.service),
            rotation: 0,
            stride,
            offset,
            visits,
            sleeper: None,
            dozed: None,
        })
    }
    fn name(&self) -> &str {
        "agile-service"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AgileConfig;
    use crate::transaction::{AgileBuf, Barrier};
    use nvme_sim::{DmaHandle, MemBacking, PageToken, QueuePair, SsdConfig, SsdDevice};

    /// Build a ctrl + device pair wired through real queue pairs.
    fn rig(qps: usize, depth: u32) -> (Arc<AgileCtrl>, SsdDevice) {
        let cfg = AgileConfig::small_test()
            .with_queue_pairs(qps)
            .with_queue_depth(depth);
        let mut dev = SsdDevice::new(
            SsdConfig::new(0).with_capacity_pages(1 << 20),
            Arc::new(MemBacking::new(0)),
        );
        let queues: Vec<Arc<QueuePair>> = (0..qps)
            .map(|q| {
                let qp = QueuePair::new(q as u16, depth);
                dev.register_queue_pair(Arc::clone(&qp));
                qp
            })
            .collect();
        let ctrl = Arc::new(AgileCtrl::new(cfg, vec![queues]));
        (ctrl, dev)
    }

    /// Drive device + service from `start` until the predicate holds (or panic).
    fn drive_until_from(
        dev: &mut SsdDevice,
        service: &AgileService,
        start: Cycles,
        mut pred: impl FnMut() -> bool,
    ) -> Cycles {
        let mut now = start;
        let mut rotation = 0usize;
        for _ in 0..200_000 {
            now += Cycles(2_000);
            dev.advance_to(now);
            // One service warp sweeping all CQs.
            let _ = service.service_step(&mut rotation, 1, 0, now);
            if pred() {
                return now;
            }
        }
        panic!("condition never became true");
    }

    /// Drive device + service from time zero until the predicate holds.
    fn drive_until(
        dev: &mut SsdDevice,
        service: &AgileService,
        pred: impl FnMut() -> bool,
    ) -> Cycles {
        drive_until_from(dev, service, Cycles(0), pred)
    }

    #[test]
    fn service_completes_cache_fills_end_to_end() {
        let (ctrl, mut dev) = rig(2, 64);
        let service = AgileService::new(Arc::clone(&ctrl));
        assert_eq!(service.target_count(), 2);
        let (_, retry) = ctrl.prefetch_warp(0, &[(0, 11), (0, 12), (0, 13)], Cycles(0));
        assert!(retry.is_empty());
        let c = Arc::clone(&ctrl);
        drive_until(&mut dev, &service, move || {
            c.cache().peek(0, 11).is_some()
                && c.cache().peek(0, 12).is_some()
                && c.cache().peek(0, 13).is_some()
        });
        // Tokens are the device's pristine content.
        assert_eq!(ctrl.cache().peek(0, 11), Some(PageToken::pristine(0, 11)));
        assert_eq!(service.stats().completions, 3);
        // All SQ entries were recycled and no pins leaked.
        assert_eq!(ctrl.cache().total_pins(), 0);
        let free: u32 = ctrl
            .io()
            .device_queues(0)
            .iter()
            .map(|q| q.free_slots())
            .sum();
        assert_eq!(free, 2 * 64);
    }

    #[test]
    fn service_clears_user_read_barriers() {
        let (ctrl, mut dev) = rig(1, 64);
        let service = AgileService::new(Arc::clone(&ctrl));
        let buf = AgileBuf::new();
        let (_, outcome) = ctrl.async_read(3, 0, 500, &buf, Cycles(0));
        assert_eq!(outcome, crate::ctrl::IssueOutcome::Issued);
        let b = buf.clone();
        drive_until(&mut dev, &service, move || b.is_ready());
        assert_eq!(buf.token(), PageToken::pristine(0, 500));
        // The Share Table entry is ready for other threads.
        let other = AgileBuf::new();
        let (_, o2) = ctrl.async_read(4, 0, 500, &other, Cycles(0));
        assert_eq!(o2, crate::ctrl::IssueOutcome::AlreadyAvailable);
    }

    #[test]
    fn service_recycles_sq_entries_under_pressure() {
        // SQ depth 4, one queue pair: issue 32 raw reads, which only works if
        // the service keeps freeing entries — the Figure 1 scenario resolved.
        let (ctrl, mut dev) = rig(1, 4);
        let service = AgileService::new(Arc::clone(&ctrl));
        let barriers: Vec<Barrier> = (0..32).map(|_| Barrier::new()).collect();
        let mut issued = 0usize;
        let mut now = Cycles(0);
        let mut rotation = 0usize;
        let mut guard = 0;
        while issued < 32 {
            guard += 1;
            assert!(guard < 100_000, "made no progress issuing under pressure");
            let (_, o) = ctrl.raw_read(
                0,
                0,
                1000 + issued as u64,
                DmaHandle::new(),
                barriers[issued].clone(),
                now,
            );
            if o == crate::ctrl::IssueOutcome::Issued {
                issued += 1;
            }
            now += Cycles(5_000);
            dev.advance_to(now);
            let _ = service.service_step(&mut rotation, 1, 0, now);
        }
        // Drain the rest.
        let done = barriers.clone();
        drive_until_from(&mut dev, &service, now, move || {
            done.iter().all(|b| b.is_complete())
        });
        assert_eq!(service.stats().completions, 32);
        assert!(
            ctrl.stats().sq_full_retries > 0,
            "pressure should have been observed"
        );
    }

    #[test]
    fn cq_windows_wrap_and_flip_phase() {
        // Depth 64 CQ: drive > 64 completions through one queue and make sure
        // polling keeps working across the wrap (phase flip).
        let (ctrl, mut dev) = rig(1, 64);
        let service = AgileService::new(Arc::clone(&ctrl));
        let barriers: Vec<Barrier> = (0..96).map(|_| Barrier::new()).collect();
        let mut now = Cycles(0);
        let mut rotation = 0usize;
        let mut issued = 0;
        let mut guard = 0;
        while issued < 96 {
            guard += 1;
            assert!(guard < 200_000);
            let (_, o) = ctrl.raw_read(
                0,
                0,
                issued as u64,
                DmaHandle::new(),
                barriers[issued].clone(),
                now,
            );
            if o == crate::ctrl::IssueOutcome::Issued {
                issued += 1;
            }
            now += Cycles(3_000);
            dev.advance_to(now);
            let _ = service.service_step(&mut rotation, 1, 0, now);
        }
        let done = barriers.clone();
        drive_until_from(&mut dev, &service, now, move || {
            done.iter().all(|b| b.is_complete())
        });
        assert_eq!(service.stats().completions, 96);
        assert!(
            service.stats().cq_doorbells >= 2,
            "at least two windows consumed"
        );
    }

    #[test]
    fn completions_posted_beyond_the_window_are_still_found_in_order() {
        // 40 CQEs land before the service looks once: 32 fill the current
        // window, 8 lie beyond it. The posted-vs-retired shortcut must not
        // hide those 8 once the first window is consumed.
        let (ctrl, mut dev) = rig(1, 64);
        let service = AgileService::new(Arc::clone(&ctrl));
        assert_eq!(service.poll_cq(0, Cycles(0)), 0, "nothing posted yet");
        let barriers: Vec<Barrier> = (0..40).map(|_| Barrier::new()).collect();
        for (i, barrier) in barriers.iter().enumerate() {
            let (_, o) =
                ctrl.raw_read(0, 0, i as u64, DmaHandle::new(), barrier.clone(), Cycles(0));
            assert_eq!(o, crate::ctrl::IssueOutcome::Issued);
        }
        let cq = Arc::clone(&ctrl.io().device_queues(0)[0].queue_pair().cq);
        let mut now = Cycles(0);
        while cq.total_posted() < 40 {
            now += Cycles(10_000);
            assert!(now.raw() < 50_000_000, "reads never completed");
            dev.advance_to(now);
        }
        assert_eq!(service.stats().completions, 0);

        assert_eq!(service.poll_cq(0, now), 32, "the whole first window");
        assert_eq!(
            (cq.head(), cq.occupancy()),
            (32, 8),
            "consumed in ring order"
        );
        assert_eq!(service.poll_cq(0, now), 8, "the entries beyond it");
        assert_eq!(cq.head(), 32, "second window still open");
        assert!(barriers.iter().all(Barrier::is_complete));
        assert_eq!(service.poll_cq(0, now), 0, "posted == retired again");
        let stats = service.stats();
        assert_eq!((stats.completions, stats.cq_doorbells), (40, 1));
    }

    fn ctx_at(now: u64) -> WarpCtx {
        WarpCtx {
            now: Cycles(now),
            warp: gpu_sim::WarpId {
                kernel: gpu_sim::KernelId(0),
                block: 0,
                warp: 0,
            },
            lanes: 32,
            clock_ghz: 2.5,
        }
    }

    #[test]
    fn an_idle_service_warp_sleeps_until_a_post_the_backoff_cell_or_a_stop() {
        let (ctrl, mut dev) = rig(4, 64);
        let service = AgileService::new(Arc::clone(&ctrl));
        let hub = Arc::clone(ctrl.io().wake_hub());
        // One warp of two: its rotation visits CQs 0 and 2.
        let factory = AgileServiceKernel::new(Arc::clone(&service), 2, 2);
        let mut warp = factory.create_warp(0, 0);
        let backoff = ctrl.idle_backoff_cell().load();
        let (retry_after, sleeper) = match warp.step(&ctx_at(0)) {
            WarpStep::Stall { retry_after, wait } => {
                assert_eq!(wait.reason, WaitReason::ServiceIdle);
                (retry_after, wait.sleeper.expect("every CQ is empty"))
            }
            other => panic!("expected an idle stall, got {other:?}"),
        };
        assert_eq!(retry_after, Cycles(backoff), "the grid is the backoff");
        let mut fired = Vec::new();

        // 1. A write to the backoff cell: the grid changes, so the warp is
        //    woken to pick the new interval up at its next grid point.
        hub.park(sleeper);
        ctrl.idle_backoff_cell().store(4 * backoff);
        hub.drain(&mut fired, &mut Vec::new());
        assert_eq!(fired, [sleeper]);
        // The engine steps it on its grid, four intervals on; the rotation
        // moves with the three sweeps it slept through, which count nowhere.
        match warp.step(&ctx_at(4 * backoff)) {
            WarpStep::Stall { retry_after, wait } => {
                assert_eq!(retry_after, Cycles(4 * backoff), "the new interval");
                assert_eq!(wait.sleeper, Some(sleeper));
            }
            other => panic!("expected an idle stall, got {other:?}"),
        }
        assert_eq!(service.stats().idle_rounds, 2, "the sweeps made");

        // 2. A completion posted to a CQ of its rotation (queue 2: warp 2
        //    homes there), not to one of the other warp's (queue 1).
        hub.park(sleeper);
        let issue = |warp: u64| {
            let (_, o) = ctrl.raw_read(warp, 0, 7, DmaHandle::new(), Barrier::new(), Cycles(0));
            assert_eq!(o, crate::ctrl::IssueOutcome::Issued);
        };
        issue(1);
        let mut now = Cycles(0);
        let posted = |q: usize| ctrl.io().device_queues(0)[q].queue_pair().cq.total_posted();
        while posted(1) == 0 {
            now += Cycles(10_000);
            dev.advance_to(now);
        }
        assert!(!hub.has_fired(), "queue 1 is the other warp's");
        issue(2);
        while posted(2) == 0 {
            now += Cycles(10_000);
            dev.advance_to(now);
        }
        hub.drain(&mut fired, &mut Vec::new());
        assert_eq!(fired, [sleeper]);
        // With a completion waiting in its rotation the warp keeps sweeping.
        let woke_at = (now.raw() / (4 * backoff) + 1) * 4 * backoff;
        assert!(matches!(warp.step(&ctx_at(woke_at)), WarpStep::Busy(_)));

        // 3. A stop request.
        hub.park(sleeper);
        ctrl.request_service_stop();
        hub.drain(&mut fired, &mut Vec::new());
        assert_eq!(fired, [sleeper]);
        assert!(matches!(
            warp.step(&ctx_at(woke_at + 4 * backoff)),
            WarpStep::Done
        ));
    }

    #[test]
    fn service_kernel_factory_stops_on_request() {
        let (ctrl, _dev) = rig(1, 16);
        let service = AgileService::new(Arc::clone(&ctrl));
        let factory = AgileServiceKernel::new(Arc::clone(&service), 1, 2);
        let mut warp = factory.create_warp(0, 0);
        let ctx = ctx_at(0);
        assert!(
            matches!(warp.step(&ctx), WarpStep::Stall { .. }),
            "empty CQs"
        );
        ctrl.request_service_stop();
        assert!(matches!(warp.step(&ctx), WarpStep::Done));
        assert_eq!(factory.name(), "agile-service");
    }
}
