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
//! at the next CQ of its rotation. Such a sweep is pure — it counts one idle
//! round, advances the rotation and backs off again — and a warp can tell in
//! advance which of its next sweeps will be: the devices publish, per CQ, the
//! earliest completion they have scheduled
//! ([`nvme_sim::CompletionQueue::next_post`]), and a command they have not
//! fetched yet posts no sooner than
//! [`nvme_sim::StorageTopology::min_post_latency`] from now (the lookahead
//! of Chandy & Misra's conservative simulation). So after every sweep the
//! warp walks its future sweep times up to that horizon and
//!
//! * sleeps to the first one whose CQ holds a completion not retired yet or
//!   one due by then (`WaitReason::ServiceAhead`: a deadline, on a sleeper
//!   that watches only the idle-backoff cell and the stop flag, so the
//!   engine need not visit device events for it);
//! * finding none, with completions to retire further round its rotation,
//!   sleeps up to the last sweep within the horizon and looks again there;
//! * finding none and nothing to retire, sleeps until a completion is posted
//!   to one of its CQs (`ServiceIdle`, on a second sleeper that also watches
//!   those CQs: watch entries are for good).
//!
//! The engine wakes it at its deadline or at the first point of its grid at
//! or after the event, so a sweep that found completions stalls with a busy
//! prefix: busy for the sweep's cost, the grid starting after it. The sweeps
//! it slept through move its rotation on in bulk — the rotation decides
//! which CQ it polls next, so that is simulated behaviour — but are not
//! counted: `idle_rounds` counts the idle sweeps executed, and the time they
//! stand for is stall time in the service kernel's `KernelReport`.

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
    /// The CQ of each target.
    cqs: Vec<Arc<nvme_sim::CompletionQueue>>,
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
    /// How far ahead the devices' schedule is complete
    /// ([`nvme_sim::StorageTopology::min_post_latency`]; zero without a
    /// topology, which leaves nothing to look ahead by).
    lookahead: Cycles,
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
        let cqs = targets
            .iter()
            .map(|&(dev, q)| Arc::clone(&ctrl.io().device_queues(dev)[q].queue_pair().cq))
            .collect();
        let cursors = targets.iter().map(|_| CqCursor::new()).collect();
        let poll_round_cost = ctrl.config().costs.api.agile_service_poll_round;
        let idle_backoff = ctrl.idle_backoff_cell();
        let lookahead = ctrl
            .io()
            .topology()
            .map_or(Cycles::ZERO, |topology| topology.min_post_latency());
        Arc::new(AgileService {
            ctrl,
            targets,
            cqs,
            cursors,
            stats: ServiceStatCells::default(),
            poll_round_cost,
            idle_backoff,
            lookahead,
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
            (self.idle_cost(), true)
        }
    }

    /// What an idle sweep costs: the spacing of a service warp's sweeps
    /// while they find nothing.
    fn idle_cost(&self) -> Cycles {
        Cycles(self.poll_round_cost.max(self.idle_backoff.load().max(1)))
    }

    /// The sweeps at `first`, `first + every`, … of a warp whose rotation
    /// (`offset + r · stride`) is at `rotation`, read off the devices'
    /// schedule as of `now`: `Ok` with the first of them that will find a
    /// completion, if it comes before `now + lookahead`, and otherwise `Err`
    /// with the last of them before that (all idle), if any.
    ///
    /// Exact because a completion the devices have not scheduled by `now`
    /// posts at `now + lookahead` at the earliest, and one they have is
    /// announced by its CQ's `next_post`. A CQ that holds completions not
    /// retired yet is found by its next sweep.
    fn first_busy_sweep(
        &self,
        (rotation, stride, offset): (usize, usize, usize),
        first: Cycles,
        every: Cycles,
        now: Cycles,
    ) -> Result<Cycles, Option<Cycles>> {
        let horizon = now + self.lookahead;
        let mut last = None;
        let mut at = first;
        let mut r = rotation;
        while at < horizon {
            let idx = (offset + r * stride) % self.targets.len();
            let cq = self.cq(idx);
            if !self.cursors[idx].caught_up(cq) || cq.next_post() <= at.raw() {
                return Ok(at);
            }
            last = Some(at);
            at += every;
            r += 1;
        }
        Err(last)
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
        &self.cqs[idx]
    }

    /// Register a sleeper notified by a store to the idle-backoff cell (the
    /// grid changes) and a stop request, and — for a warp that sleeps until
    /// a post — by a post to any CQ of `rotation`. Watch entries are for
    /// good, so the two kinds of sleep need a sleeper each.
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
    /// The sleeper of a sleep to a deadline (watches the idle-backoff cell
    /// and the stop flag), registered the first time it is needed.
    ahead: Option<SleeperId>,
    /// The sleeper of a sleep until a post (watches the rotation's CQs too).
    idle: Option<SleeperId>,
    /// `(first, every)` of the grid the warp offered to sleep on: the
    /// sweeps from `first` up to its next step were skipped.
    dozed: Option<(Cycles, Cycles)>,
}

impl WarpKernel for ServiceWarp {
    fn step(&mut self, ctx: &WarpCtx) -> WarpStep {
        if self.service.ctrl().service_stop_requested() {
            return WarpStep::Done;
        }
        if let Some((first, every)) = self.dozed.take() {
            // Woken on its own grid: each sweep it slept through would have
            // moved the rotation on by one.
            self.rotation += ((ctx.now - first).raw() / every.raw()) as usize;
        }
        let (cost, idle) =
            self.service
                .sweep(&mut self.rotation, self.stride, self.offset, ctx.now);
        if self.visits.is_empty() {
            return WarpStep::Busy(cost);
        }
        // The sweeps to come: the next one when this one's cost is spent,
        // then one every idle interval while they find nothing.
        let (next, every) = (ctx.now + cost, self.service.idle_cost());
        let rotation = (self.rotation, self.stride, self.offset);
        let (reason, until) = match self
            .service
            .first_busy_sweep(rotation, next, every, ctx.now)
        {
            Ok(at) if at > next => (WaitReason::ServiceAhead, Some(at)),
            // Nothing to retire and nothing due within the lookahead: sleep
            // until a post.
            Err(_) if self.service.all_retired(&self.visits) => (WaitReason::ServiceIdle, None),
            // Completions to retire further on: sleep up to the last sweep
            // known to be idle, and look again from there.
            Err(Some(at)) if at > next => (WaitReason::ServiceAhead, Some(at)),
            // The next sweep is the one to make. An idle sweep is stall
            // time, as it is for the sweeps a sleeping warp skips.
            _ if idle => {
                return WarpStep::Stall {
                    retry_after: cost,
                    wait: Wait::polling(WaitReason::ServiceAhead),
                }
            }
            _ => return WarpStep::Busy(cost),
        };
        let sleeper = match reason {
            WaitReason::ServiceIdle => *self
                .idle
                .get_or_insert_with(|| self.service.sleeper_for(&self.visits)),
            _ => *self
                .ahead
                .get_or_insert_with(|| self.service.sleeper_for(&[])),
        };
        let mut wait = Wait::parked(reason, sleeper);
        if let Some(at) = until {
            wait = wait.until(at);
        }
        if !idle {
            // It found completions: busy until the next sweep, whose grid
            // this is.
            wait = wait.after_busy(next);
        }
        self.dozed = Some((next, every));
        WarpStep::Stall {
            retry_after: every,
            wait,
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
            ahead: None,
            idle: None,
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
    use crate::io_path::WarpWait;
    use crate::transaction::{AgileBuf, Barrier};
    use nvme_sim::{DmaHandle, PageToken, QueuePair, SsdConfig, SsdDevice, StorageTopology};

    /// Build a ctrl + device pair wired through real queue pairs.
    fn rig(qps: usize, depth: u32) -> (Arc<AgileCtrl>, SsdDevice) {
        let cfg = AgileConfig::small_test()
            .with_queue_pairs(qps)
            .with_queue_depth(depth);
        let mut dev = SsdDevice::new(SsdConfig::new(0).with_capacity_pages(1 << 20));
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
        let mut scratch = WarpWait::new();
        ctrl.prefetch_warp(0, &[(0, 11), (0, 12), (0, 13)], Cycles(0), &mut scratch);
        assert_eq!(scratch.not_started().count(), 0);
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
            ctrl.stats().io.sq_full_retries > 0,
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
            block_warps: 1,
            clock_ghz: 2.5,
        }
    }

    /// The stall of `step`, or a panic.
    fn stall(step: WarpStep) -> (Cycles, Wait) {
        match step {
            WarpStep::Stall { retry_after, wait } => (retry_after, wait),
            other => panic!("expected a stall, got {other:?}"),
        }
    }

    /// Step `warp` from `now` on, sweep by sweep, until the service has
    /// made `completions`; returns that step and when it was made.
    fn step_until(
        warp: &mut dyn WarpKernel,
        service: &AgileService,
        completions: u64,
        mut now: u64,
    ) -> (WarpStep, u64) {
        loop {
            let step = warp.step(&ctx_at(now));
            if service.stats().completions == completions {
                return (step, now);
            }
            match step {
                WarpStep::Busy(cost) => now += cost.raw(),
                WarpStep::Stall { retry_after, wait } if wait.sleeper.is_none() => {
                    now += retry_after.raw()
                }
                other => panic!("expected a sweep towards it, got {other:?}"),
            }
        }
    }

    #[test]
    fn an_idle_service_warp_sleeps_until_a_post_the_backoff_cell_or_a_stop() {
        // A ctrl over a storage topology, so the service looks ahead by the
        // devices' `min_post_latency`.
        let cfg = AgileConfig::small_test()
            .with_queue_pairs(4)
            .with_queue_depth(64);
        let topology = Arc::new(StorageTopology::new(1));
        let queues = topology.register_queues(4, 64);
        let ctrl = Arc::new(AgileCtrl::with_topology(cfg, queues, Arc::clone(&topology)));
        let service = AgileService::new(Arc::clone(&ctrl));
        let hub = Arc::clone(ctrl.io().wake_hub());
        let lookahead = topology.min_post_latency().raw();
        let cq = |q: usize| Arc::clone(&ctrl.io().device_queues(0)[q].queue_pair().cq);
        let issue = |warp: u64, now: u64| {
            let read = ctrl.raw_read(warp, 0, 7, DmaHandle::new(), Barrier::new(), Cycles(now));
            assert_eq!(read.1, crate::ctrl::IssueOutcome::Issued);
        };
        // One warp of two: its rotation visits CQs 0 and 2.
        let factory = AgileServiceKernel::new(Arc::clone(&service), 2, 2);
        let mut warp = factory.create_warp(0, 0);
        let backoff = ctrl.idle_backoff_cell().load();
        let mut fired = Vec::new();

        // 1. Nothing in flight: it sleeps until a post, with no deadline.
        let (retry_after, wait) = stall(warp.step(&ctx_at(0)));
        assert_eq!(
            (wait.reason, wait.until, retry_after),
            (WaitReason::ServiceIdle, None, Cycles(backoff)),
            "the grid is the backoff"
        );
        let idle = wait.sleeper.expect("every CQ is empty");

        // A write to the backoff cell: the grid changes, so the warp is
        // woken to pick the new interval up at its next grid point.
        hub.park(idle);
        ctrl.idle_backoff_cell().store(4 * backoff);
        hub.drain(&mut fired, &mut Vec::new());
        assert_eq!(fired, [idle]);
        // The engine steps it on its grid, four intervals on; the rotation
        // moves with the three sweeps it slept through, which count nowhere.
        let (retry_after, wait) = stall(warp.step(&ctx_at(4 * backoff)));
        assert_eq!(
            (retry_after, wait.sleeper),
            (Cycles(4 * backoff), Some(idle))
        );
        assert_eq!(service.stats().idle_rounds, 2, "the sweeps made");

        // A completion posted to a CQ of its rotation (queue 2: warp 2 homes
        // there) wakes it, one posted to the other warp's (queue 1) does not.
        hub.park(idle);
        let mut now = 4 * backoff;
        issue(1, now);
        while cq(1).total_posted() == 0 {
            now += 10_000;
            topology.advance_to(Cycles(now));
        }
        assert!(!hub.has_fired(), "queue 1 is the other warp's");
        issue(2, now);
        while cq(2).total_posted() == 0 {
            now += 10_000;
            topology.advance_to(Cycles(now));
        }
        hub.drain(&mut fired, &mut Vec::new());
        assert_eq!(fired, [idle]);
        // Woken on its grid (multiples of the interval), it sweeps to the
        // completion. The sweep that retires it was busy, and the rotation
        // holds nothing more: it sleeps until a post again, its grid
        // starting where that sweep's cost is spent.
        let woke_at = (now / (4 * backoff) + 1) * 4 * backoff;
        let (step, at) = step_until(&mut *warp, &service, 1, woke_at);
        let (retry_after, wait) = stall(step);
        assert_eq!(
            (wait.reason, wait.sleeper),
            (WaitReason::ServiceIdle, Some(idle))
        );
        assert_eq!(retry_after, Cycles(4 * backoff));
        let poll_round = ctrl.config().costs.api.agile_service_poll_round;
        assert_eq!(wait.busy_until, Some(Cycles(at + poll_round)));
        let grid = at + poll_round;

        // 2. A completion the device has scheduled within the lookahead: the
        //    warp reads when it posts off its CQ and sleeps, on a second
        //    sleeper, to the first sweep that will find it.
        issue(0, grid);
        now = grid;
        while cq(0).next_post() == u64::MAX {
            now += 1_000;
            topology.advance_to(Cycles(now));
        }
        let post = cq(0).next_post();
        let every = 4 * backoff;
        // Polled on its grid more than the lookahead before the post: a
        // command not fetched yet could post before it, so the warp does
        // not sleep to it but until a post.
        let early = grid + (post - lookahead - 1 - grid) / every * every;
        assert!(early + 2 * lookahead > post, "within twice the lookahead");
        topology.advance_to(Cycles(early));
        let (_, wait) = stall(warp.step(&ctx_at(early)));
        assert_eq!((wait.reason, wait.until), (WaitReason::ServiceIdle, None));
        // Polled on its grid a little before the post: the sweep there finds
        // nothing, and so would the next; the one after the post visiting
        // CQ 0 will find it.
        let poll = grid + (post - every - grid) / every * every - every;
        topology.advance_to(Cycles(poll));
        assert_eq!(cq(0).total_posted(), 0);
        let (retry_after, wait) = stall(warp.step(&ctx_at(poll)));
        assert_eq!(
            (wait.reason, retry_after),
            (WaitReason::ServiceAhead, Cycles(every))
        );
        let ahead = wait.sleeper.expect("parkable");
        assert_ne!(ahead, idle, "a sleeper that no post wakes");
        let until = wait.until.expect("a deadline").raw();
        assert!(
            until >= post && until < poll + lookahead,
            "{poll} {post} {until}"
        );
        assert!([poll + 3 * every, poll + 4 * every].contains(&until));
        assert_eq!(wait.busy_until, None, "an idle sweep");
        // The post itself does not wake it …
        hub.park(ahead);
        topology.advance_to(Cycles(until));
        assert_eq!(cq(0).total_posted(), 1);
        assert!(!hub.has_fired(), "the deadline is the wake");
        hub.unpark(ahead);
        // … its deadline does, and the sweep there retires the completion.
        let (step, at) = step_until(&mut *warp, &service, 2, until);
        assert_eq!(at, until, "the sweep at the deadline finds it");
        assert_eq!(stall(step).1.reason, WaitReason::ServiceIdle);

        // 3. The backoff cell and a stop request wake either sleeper.
        hub.park(ahead);
        ctrl.idle_backoff_cell().store(backoff);
        hub.drain(&mut fired, &mut Vec::new());
        assert_eq!(fired, [ahead]);
        hub.park(idle);
        ctrl.request_service_stop();
        hub.drain(&mut fired, &mut Vec::new());
        assert_eq!(fired, [idle]);
        assert!(matches!(warp.step(&ctx_at(until + every)), WarpStep::Done));
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
