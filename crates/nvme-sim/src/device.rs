//! The SSD device model.
//!
//! One [`SsdDevice`] owns a set of registered I/O queue pairs (shared with the
//! GPU-side libraries), a [`MemBacking`], and a channel-parallel flash
//! back-end. Its behaviour follows the NVMe flow the paper describes in §2.1:
//!
//! 1. software writes commands into SQ slots and rings the SQ tail doorbell;
//! 2. after a command-fetch latency the device pulls entries in ring order,
//!    assigns each to the least-loaded flash channel and schedules its
//!    completion at `max(fetch_done, channel_free) + service +`
//!    [`SsdCosts::post_delay`] (the formula is in [`SsdCosts`]), publishing
//!    each CQ's earliest scheduled completion
//!    ([`crate::CompletionQueue::next_post`]);
//! 3. at completion time the device performs the DMA (page token transfer)
//!    and posts a CQE — with the correct phase tag — into the paired CQ,
//!    *unless* the CQ is full, in which case the completion is parked until
//!    software frees CQ entries by ringing the CQ head doorbell (consuming
//!    entries). This models the "SSDs will stall while waiting for available
//!    CQEs" behaviour that motivates AGILE's dedicated polling service.
//!
//! The device is advanced by the co-simulation engine via
//! [`SsdDevice::advance_to`]; it never runs ahead of the GPU clock.
//!
//! The engine advances every device every round, and most of those advances
//! find nothing to do. An advance has work only if a doorbell was rung since
//! the last one, a completion is parked behind a full CQ, or a scheduled
//! event has come due; the device keeps exactly that in its [`IdleGate`], so
//! an idle advance is two atomic loads and changes no state.

use crate::backing::MemBacking;
use crate::queue::QueuePair;
use crate::spec::{CmdStatus, NvmeCommand, NvmeCompletion, Opcode, PageToken, QueueId};
use agile_sim::costs::SsdCosts;
use agile_sim::trace::{TraceEvent, TraceEventKind, TraceSink};
use agile_sim::{Cycles, EventWheel};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Static configuration of one simulated SSD.
#[derive(Debug, Clone)]
pub struct SsdConfig {
    /// Device index (also used to derive pristine page tokens).
    pub id: u32,
    /// Timing model.
    pub costs: SsdCosts,
    /// Namespace capacity in 4 KiB pages.
    pub namespace_pages: u64,
    /// GPU core clock in GHz, used to convert nanosecond latencies to cycles.
    pub clock_ghz: f64,
}

impl SsdConfig {
    /// A 1.6 TB-class device (≈400 M pages) with default timing.
    pub fn new(id: u32) -> Self {
        SsdConfig {
            id,
            costs: SsdCosts::default(),
            namespace_pages: 400_000_000,
            clock_ghz: agile_sim::DEFAULT_GPU_CLOCK_GHZ,
        }
    }

    /// Override the namespace capacity (pages).
    pub fn with_capacity_pages(mut self, pages: u64) -> Self {
        self.namespace_pages = pages;
        self
    }
}

/// Aggregate statistics kept by the device.
///
/// Note: the unified registry exports these as `agile_device_*` labelled by
/// device index; this struct stays for direct programmatic access.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Read commands completed.
    pub reads_completed: u64,
    /// Write commands completed.
    pub writes_completed: u64,
    /// Flush commands completed.
    pub flushes_completed: u64,
    /// Commands that completed with a non-success status.
    pub errors: u64,
    /// Total bytes read from flash.
    pub bytes_read: u64,
    /// Total bytes written to flash.
    pub bytes_written: u64,
    /// Completions that had to be parked because the CQ was full.
    pub cq_stalls: u64,
    /// Doorbell ring events observed.
    pub doorbells: u64,
    /// Time of the last completion posted (cycles).
    pub last_completion: u64,
}

/// Whether advancing one device can do anything, readable without the
/// device itself: shared by the [`SsdDevice`] (which maintains `next_due`),
/// its registered doorbells (which count rings) and whoever advances the
/// device (who reads [`IdleGate::idle_at`] before touching it).
pub struct IdleGate {
    /// Doorbell rings logged but not yet drained by the device.
    pending_rings: AtomicU64,
    /// Time of the earliest ring logged since the device last began
    /// draining (`u64::MAX`: none) — meaningful while `pending_rings > 0`.
    /// The device acts on a ring one command-fetch latency later, whenever
    /// it is drained before that; this is what lets
    /// [`SsdDevice::next_event_time`] announce that moment.
    first_ring: AtomicU64,
    /// Earliest time an advance has work absent new rings: the head of the
    /// event heap, `0` ("always") while a completion is parked behind a full
    /// CQ — only software consuming CQEs unparks it, and that rings nothing
    /// the device can see — and `u64::MAX` when neither exists. Refreshed at
    /// the end of every advance that got past the gate, the only place
    /// events are scheduled, fired or parked.
    next_due: AtomicU64,
    /// The head of the event heap (`u64::MAX`: empty), refreshed with
    /// `next_due`.
    heap_head: AtomicU64,
    /// The device's command-fetch latency in cycles: how long after a ring
    /// it acts on it.
    fetch_delay: u64,
}

impl Default for IdleGate {
    fn default() -> Self {
        IdleGate::with_fetch_delay(Cycles::ZERO)
    }
}

impl IdleGate {
    /// The gate of a device that fetches a rung command `fetch_delay` after
    /// the ring.
    pub fn with_fetch_delay(fetch_delay: Cycles) -> Self {
        IdleGate {
            pending_rings: AtomicU64::new(0),
            first_ring: AtomicU64::new(u64::MAX),
            next_due: AtomicU64::new(u64::MAX),
            heap_head: AtomicU64::new(u64::MAX),
            fetch_delay: fetch_delay.raw(),
        }
    }

    /// [`SsdDevice::next_event_time`], read without the device: the head of
    /// the event heap, or the fetch of a ring the device has not looked at
    /// yet, whichever comes first. Equal to the device's own answer between
    /// advances (property-tested in `tests/idle_gate.rs`).
    pub fn next_event_time(&self) -> Option<Cycles> {
        let heap = self.heap_head.load(Ordering::Acquire);
        let fetch = self
            .first_pending_ring()
            .map_or(u64::MAX, |ring| ring.raw() + self.fetch_delay);
        let next = heap.min(fetch);
        (next != u64::MAX).then_some(Cycles(next))
    }

    /// True when advancing the device to `now` would be a no-op.
    pub fn idle_at(&self, now: Cycles) -> bool {
        // Acquire pairs with the Release in `add_pending_rings` /
        // `set_next_due`: whoever sees a count or watermark also sees the
        // ring log entry or heap state it stands for.
        now.raw() < self.next_due.load(Ordering::Acquire)
            && self.pending_rings.load(Ordering::Acquire) == 0
    }

    /// Doorbell rings logged but not yet drained.
    pub fn pending_rings(&self) -> u64 {
        self.pending_rings.load(Ordering::Acquire)
    }

    /// Count `n` rings, the earliest made at `at`.
    pub(crate) fn add_pending_rings(&self, n: u64, at: Cycles) {
        self.first_ring.fetch_min(at.raw(), Ordering::Release);
        self.pending_rings.fetch_add(n, Ordering::Release);
    }

    /// Time of the earliest undrained ring, if there is one.
    fn first_pending_ring(&self) -> Option<Cycles> {
        (self.pending_rings() > 0).then(|| Cycles(self.first_ring.load(Ordering::Acquire)))
    }

    pub(crate) fn sub_pending_rings(&self, n: u64) {
        let before = self.pending_rings.fetch_sub(n, Ordering::Release);
        debug_assert!(before >= n, "drained more rings than were counted");
    }

    /// End of an advance: record the heap head (`u64::MAX`: empty) and
    /// whether a completion is parked behind a full CQ.
    fn refresh(&self, heap_head: u64, parked: bool) {
        self.heap_head.store(heap_head, Ordering::Release);
        self.next_due
            .store(if parked { 0 } else { heap_head }, Ordering::Release);
    }
}

/// Per-SQ fetch cursor.
#[derive(Debug, Default)]
struct SqCursor {
    /// Next ring index the device will fetch from.
    fetch_head: u32,
    /// Last tail value observed via the doorbell.
    tail: u32,
}

/// Per-CQ posting state.
#[derive(Debug)]
struct CqCursor {
    /// Ring index the device will post the next CQE into.
    tail: u32,
    /// Current phase tag for entries posted on this pass of the ring.
    phase: bool,
    /// Completions waiting for CQ space.
    parked: VecDeque<PendingCompletion>,
    /// Completion times scheduled for this CQ and not yet fired, in order
    /// (they come nearly in order, so inserting from the back and firing
    /// from the front are cheap).
    scheduled: VecDeque<u64>,
}

impl Default for CqCursor {
    fn default() -> Self {
        CqCursor {
            tail: 0,
            // NVMe starts with phase = 1 on the first pass so that zeroed
            // (phase 0) entries are never mistaken for valid completions.
            phase: true,
            parked: VecDeque::new(),
            scheduled: VecDeque::new(),
        }
    }
}

impl CqCursor {
    /// What [`crate::CompletionQueue::next_post`] publishes for this CQ.
    fn next_post(&self) -> u64 {
        if self.parked.is_empty() {
            self.scheduled.front().copied().unwrap_or(u64::MAX)
        } else {
            0
        }
    }
}

/// A completion that has finished flash service and is ready to be posted.
#[derive(Debug, Clone)]
struct PendingCompletion {
    qid: QueueId,
    cid: u16,
    sq_head: u16,
    status: CmdStatus,
    /// For reads: token to DMA into the command's destination before posting.
    dma_token: Option<(crate::spec::DmaHandle, PageToken)>,
    /// Target page, kept for trace records.
    lba: u64,
    /// True when the command was a write (trace records).
    write: bool,
    /// When the device finishes the command (the time of its completion
    /// event; what the `DeviceCompletion` record is stamped with).
    done_at: Cycles,
}

/// Internal device events.
enum DeviceEvent {
    /// A doorbell ring becomes visible to the controller; fetch new commands.
    FetchCommands { qid: QueueId, tail: u32 },
    /// A command finishes flash service.
    Complete(PendingCompletion),
}

/// One simulated NVMe SSD.
pub struct SsdDevice {
    cfg: SsdConfig,
    qps: Vec<Arc<QueuePair>>,
    sq_cursors: Vec<SqCursor>,
    cq_cursors: Vec<CqCursor>,
    backing: Arc<MemBacking>,
    /// Busy-until time per flash channel.
    channels: Vec<Cycles>,
    events: EventWheel<DeviceEvent>,
    /// Reused buffer for the events one advance fires.
    due: Vec<(Cycles, DeviceEvent)>,
    /// Completions parked across all CQs (Σ `cq_cursors[..].parked.len()`).
    parked_total: usize,
    gate: Arc<IdleGate>,
    stats: DeviceStats,
    /// Time of the last advance that got past the gate.
    now: Cycles,
    /// Optional trace recorder for the completion path.
    trace: OnceLock<Arc<dyn TraceSink>>,
}

impl SsdDevice {
    /// Create a device over an empty in-memory backing keyed by `cfg.id`.
    pub fn new(cfg: SsdConfig) -> Self {
        let channels = vec![Cycles::ZERO; cfg.costs.channels as usize];
        let fetch_delay = cfg.costs.command_fetch.to_cycles(cfg.clock_ghz);
        let backing = Arc::new(MemBacking::new(cfg.id));
        SsdDevice {
            cfg,
            qps: Vec::new(),
            sq_cursors: Vec::new(),
            cq_cursors: Vec::new(),
            backing,
            channels,
            events: EventWheel::new(),
            due: Vec::new(),
            parked_total: 0,
            gate: Arc::new(IdleGate::with_fetch_delay(fetch_delay)),
            stats: DeviceStats::default(),
            now: Cycles::ZERO,
            trace: OnceLock::new(),
        }
    }

    /// Install a trace sink recording every posted completion. Returns
    /// `false` if a sink was already installed (the first one wins).
    pub fn set_trace_sink(&self, sink: Arc<dyn TraceSink>) -> bool {
        self.trace.set(sink).is_ok()
    }

    /// Device configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.cfg
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// The gate telling whether advancing this device can do anything; hold
    /// a clone to ask without locking the device.
    pub fn gate(&self) -> &Arc<IdleGate> {
        &self.gate
    }

    /// The page backing (shared with workload setup code).
    pub fn backing(&self) -> &Arc<MemBacking> {
        &self.backing
    }

    /// Register an I/O queue pair (admin-queue `Create I/O SQ/CQ` analogue).
    /// Queue pairs must be registered before the simulation starts.
    pub fn register_queue_pair(&mut self, qp: Arc<QueuePair>) -> QueueId {
        let qid = self.qps.len() as QueueId;
        assert_eq!(
            qp.id(),
            qid,
            "queue pair id must match its registration order"
        );
        assert!(
            qp.sq_doorbell.attach(&self.gate),
            "queue pair is already registered with a device"
        );
        self.qps.push(qp);
        self.sq_cursors.push(SqCursor::default());
        self.cq_cursors.push(CqCursor::default());
        qid
    }

    /// Number of registered queue pairs.
    pub fn queue_pair_count(&self) -> usize {
        self.qps.len()
    }

    /// The registered queue pairs (shared with the GPU-side libraries).
    pub fn queue_pairs(&self) -> &[Arc<QueuePair>] {
        &self.qps
    }

    /// Earliest pending internal event, if any (used by the engine to skip
    /// idle time): the head of the event heap, or — for a doorbell ring the
    /// device has not looked at yet — the moment it will fetch the command.
    /// An engine that advances the device at each of these times sees it
    /// behave exactly as one that advances it every few hundred cycles.
    pub fn next_event_time(&self) -> Option<Cycles> {
        let fetch = self
            .gate
            .first_pending_ring()
            .map(|ring| ring + self.ns_to_cycles(self.cfg.costs.command_fetch));
        match (self.events.peek_time(), fetch) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        }
    }

    /// True when no commands are in flight and no completions are parked.
    pub fn quiescent(&self) -> bool {
        self.events.is_empty() && self.parked_total == 0
    }

    /// Commands currently in flight: scheduled completions plus completions
    /// parked behind a full CQ (the `agile_device_inflight` gauge).
    pub fn inflight(&self) -> u64 {
        (self.events.len() + self.parked_total) as u64
    }

    fn ns_to_cycles(&self, ns: agile_sim::Nanos) -> Cycles {
        ns.to_cycles(self.cfg.clock_ghz)
    }

    /// Advance the device to time `now`: observe doorbells, fetch commands,
    /// retire flash work and post completions. Returns at once, having
    /// changed nothing, when the [`IdleGate`] says there is nothing to do.
    pub fn advance_to(&mut self, now: Cycles) {
        debug_assert!(now >= self.now, "device clock moved backwards");
        if self.gate.idle_at(now) {
            return;
        }
        self.now = now;

        // 1. Observe doorbell rings (SQ tails). The GPU side records the ring
        //    time; the controller notices after `command_fetch`.
        if self.gate.pending_rings() > 0 {
            // Rings logged from here on are the next drain's; one that slips
            // into this drain leaves a stale (too early) time behind, which
            // costs one advance and is then overwritten.
            self.gate.first_ring.store(u64::MAX, Ordering::Release);
            let fetch_delay = self.ns_to_cycles(self.cfg.costs.command_fetch);
            let (events, stats) = (&mut self.events, &mut self.stats);
            for (qid, qp) in self.qps.iter().enumerate() {
                qp.sq_doorbell.drain(|ring_time, tail| {
                    stats.doorbells += 1;
                    events.schedule(
                        ring_time + fetch_delay,
                        DeviceEvent::FetchCommands {
                            qid: qid as QueueId,
                            tail,
                        },
                    );
                });
            }
        }

        // 2. Retry parked completions first — CQ space may have been freed.
        self.drain_parked();

        // 3. Fire due events. Events these schedule wait for the next
        //    advance even when already due, hence the buffer.
        let mut due = std::mem::take(&mut self.due);
        self.events.pop_ready_into(now, &mut due);
        for (at, ev) in due.drain(..) {
            match ev {
                DeviceEvent::FetchCommands { qid, tail } => self.fetch_commands(qid, tail, at),
                DeviceEvent::Complete(pending) => self.complete(pending, at),
            }
        }
        self.due = due;

        self.gate.refresh(
            self.events.peek_time().map_or(u64::MAX, Cycles::raw),
            self.parked_total > 0,
        );
    }

    /// Fetch commands from SQ `qid` up to ring index `tail`.
    fn fetch_commands(&mut self, qid: QueueId, tail: u32, at: Cycles) {
        let q = qid as usize;
        let depth = self.qps[q].sq.depth();
        // Record the newest tail; fetch from our cursor to that tail.
        self.sq_cursors[q].tail = tail % depth;
        loop {
            let SqCursor { fetch_head, tail } = self.sq_cursors[q];
            if fetch_head == tail {
                break;
            }
            let sq = &self.qps[q].sq;
            let Some(cmd) = sq.take_slot(fetch_head) else {
                // The doorbell ran ahead of the command becoming visible.
                // Real hardware would read whatever bytes are there; AGILE's
                // serialization protocol (Algorithm 2) exists precisely to
                // prevent this. Treat it as "nothing to fetch yet".
                break;
            };
            sq.advance_head();
            self.sq_cursors[q].fetch_head = (fetch_head + 1) % depth;
            self.schedule_command(qid, cmd, at);
        }
    }

    /// Assign a fetched command to a flash channel and schedule completion.
    fn schedule_command(&mut self, qid: QueueId, cmd: NvmeCommand, at: Cycles) {
        let costs = &self.cfg.costs;
        let pages = cmd.page_count();
        let (status, service_ns, dma_token) = match cmd.opcode {
            Opcode::Read => {
                if cmd.slba + pages > self.cfg.namespace_pages {
                    (CmdStatus::LbaOutOfRange, agile_sim::Nanos::ZERO, None)
                } else {
                    let token = self.backing.read(cmd.slba);
                    (
                        CmdStatus::Success,
                        agile_sim::Nanos::new(costs.read_page_service.raw() * pages),
                        Some((cmd.dma.clone(), token)),
                    )
                }
            }
            Opcode::Write => {
                if cmd.slba + pages > self.cfg.namespace_pages {
                    (CmdStatus::LbaOutOfRange, agile_sim::Nanos::ZERO, None)
                } else {
                    // The device DMAs the payload out of the host buffer at
                    // fetch time; users must not reuse the buffer until the
                    // completion arrives (AGILE's Share Table enforces this).
                    let token = cmd.dma.load();
                    self.backing.write(cmd.slba, token);
                    (
                        CmdStatus::Success,
                        agile_sim::Nanos::new(costs.write_page_service.raw() * pages),
                        None,
                    )
                }
            }
            Opcode::Flush => (CmdStatus::Success, agile_sim::Nanos::ZERO, None),
        };

        // Pick the channel that frees up first (the FTL stripes pages across
        // channels; for single-page commands least-loaded assignment is
        // equivalent).
        let (ch_idx, ch_free) = self
            .channels
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|(_, busy)| *busy)
            .expect("device has at least one channel");
        let service = self.ns_to_cycles(service_ns);
        let start = at.max(ch_free);
        let flash_done = start + service;
        self.channels[ch_idx] = flash_done;
        let completion_at = flash_done + costs.post_delay(self.cfg.clock_ghz);

        let cursor = &mut self.cq_cursors[qid as usize];
        let at = completion_at.raw();
        let after = cursor.scheduled.iter().rposition(|&t| t <= at);
        cursor.scheduled.insert(after.map_or(0, |i| i + 1), at);
        self.publish_next_post(qid as usize);
        let sq_head = self.qps[qid as usize].sq.head() as u16;
        self.events.schedule(
            completion_at,
            DeviceEvent::Complete(PendingCompletion {
                qid,
                cid: cmd.cid,
                sq_head,
                status,
                dma_token: if status.is_ok() { dma_token } else { None },
                lba: cmd.slba,
                write: cmd.opcode == Opcode::Write,
                done_at: completion_at,
            }),
        );

        match (cmd.opcode, status.is_ok()) {
            (Opcode::Read, true) => {
                self.stats.reads_completed += 1;
                self.stats.bytes_read += pages * agile_sim::units::SSD_PAGE_SIZE;
            }
            (Opcode::Write, true) => {
                self.stats.writes_completed += 1;
                self.stats.bytes_written += pages * agile_sim::units::SSD_PAGE_SIZE;
            }
            (Opcode::Flush, true) => self.stats.flushes_completed += 1,
            _ => self.stats.errors += 1,
        }
    }

    /// A command finished flash service: DMA its data and post the CQE.
    fn complete(&mut self, pending: PendingCompletion, at: Cycles) {
        self.stats.last_completion = at.raw();
        let qid = pending.qid as usize;
        // The first entry, unless a fetch fired in this same advance (the
        // advance came that late) scheduled an earlier one, which waits for
        // the next advance.
        let scheduled = &mut self.cq_cursors[qid].scheduled;
        let idx = scheduled.iter().position(|&t| t == at.raw());
        scheduled.remove(idx.expect("a fired completion was scheduled"));
        self.try_post(pending);
        self.publish_next_post(qid);
    }

    /// Tell CQ `qid`'s pollers its earliest scheduled completion (its
    /// schedule just changed).
    fn publish_next_post(&self, qid: usize) {
        self.qps[qid]
            .cq
            .set_next_post(self.cq_cursors[qid].next_post());
    }

    /// Post `pending`, or park it behind a full CQ.
    fn try_post(&mut self, pending: PendingCompletion) {
        let qid = pending.qid as usize;
        if self.qps[qid].cq.is_full() {
            self.stats.cq_stalls += 1;
            self.cq_cursors[qid].parked.push_back(pending);
            self.parked_total += 1;
            return;
        }
        self.post(pending);
    }

    /// Post `pending` into its CQ, which the caller checked has room. The
    /// `DeviceCompletion` record carries the time the device finished the
    /// command (`pending.done_at`), not the time of the advance that got to
    /// post it, so a capture does not depend on how often the engine looks
    /// at the device.
    fn post(&mut self, pending: PendingCompletion) {
        let qid = pending.qid as usize;
        let cq = &self.qps[qid].cq;
        // Perform the "DMA" before the completion becomes visible, matching
        // hardware ordering guarantees.
        if let Some((dma, token)) = &pending.dma_token {
            dma.store(*token);
        }
        let cursor = &mut self.cq_cursors[qid];
        let cqe = NvmeCompletion {
            cid: pending.cid,
            sq_id: pending.qid,
            sq_head: pending.sq_head,
            status: pending.status,
            phase: cursor.phase,
        };
        cq.post(cursor.tail, cqe);
        cursor.tail += 1;
        if cursor.tail == cq.depth() {
            cursor.tail = 0;
            cursor.phase = !cursor.phase;
        }
        if let Some(sink) = self.trace.get() {
            sink.record(
                TraceEvent::new(TraceEventKind::DeviceCompletion, pending.done_at.raw())
                    .target(self.cfg.id, pending.lba)
                    .queue(pending.qid, pending.cid)
                    .write(pending.write),
            );
        }
    }

    fn drain_parked(&mut self) {
        if self.parked_total == 0 {
            return;
        }
        for qid in 0..self.qps.len() {
            if self.cq_cursors[qid].parked.is_empty() {
                continue;
            }
            while !self.qps[qid].cq.is_full() {
                let Some(pending) = self.cq_cursors[qid].parked.pop_front() else {
                    break;
                };
                self.parked_total -= 1;
                self.post(pending);
            }
            self.publish_next_post(qid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DmaHandle;

    fn make_device(qp_depth: u32) -> (SsdDevice, Arc<QueuePair>) {
        let mut dev = SsdDevice::new(SsdConfig::new(0).with_capacity_pages(1 << 20));
        let qp = QueuePair::new(0, qp_depth);
        dev.register_queue_pair(Arc::clone(&qp));
        (dev, qp)
    }

    /// Submit a command through the raw protocol (slot write + doorbell).
    fn submit(qp: &QueuePair, slot: u32, cmd: NvmeCommand, now: Cycles) {
        assert!(qp.sq.write_slot(slot, cmd));
        qp.sq_doorbell.ring((slot + 1) % qp.depth(), now);
    }

    #[test]
    fn advancing_only_at_announced_event_times_is_advancing_all_the_time() {
        // An engine whose warps all sleep advances the device only at the
        // times `next_event_time` announces. That has to include the moment
        // a doorbell ring it has not looked at yet turns into a fetch, or
        // the command would sit unseen until some later advance.
        let run = |event_driven: bool| {
            let (mut dev, qp) = make_device(16);
            submit(
                &qp,
                0,
                NvmeCommand::read(0, 5, DmaHandle::new()),
                Cycles(1_000),
            );
            submit(
                &qp,
                1,
                NvmeCommand::read(1, 6, DmaHandle::new()),
                Cycles(1_700),
            );
            let mut now = Cycles(1_700);
            let mut advances = 0;
            while qp.cq.total_posted() < 2 {
                now = if event_driven {
                    dev.next_event_time().expect("work is pending")
                } else {
                    now + Cycles(100)
                };
                dev.advance_to(now);
                advances += 1;
                assert!(advances < 1_000_000);
            }
            (dev.stats().last_completion, advances)
        };
        let (at, advances) = run(true);
        assert_eq!(at, run(false).0, "same completion time");
        assert!(advances <= 4, "two fetches, two completions: {advances}");
    }

    /// Poll until a completion with the expected phase shows up at `idx`.
    fn wait_completion(
        dev: &mut SsdDevice,
        qp: &QueuePair,
        idx: u32,
        phase: bool,
        mut now: Cycles,
    ) -> (NvmeCompletion, Cycles) {
        for _ in 0..10_000 {
            dev.advance_to(now);
            if let Some(cqe) = qp.cq.poll_slot(idx, phase) {
                return (cqe, now);
            }
            now += Cycles(1_000);
        }
        panic!("completion never arrived");
    }

    #[test]
    fn read_completes_with_data_and_latency() {
        let (mut dev, qp) = make_device(16);
        let dma = DmaHandle::new();
        submit(&qp, 0, NvmeCommand::read(42, 7, dma.clone()), Cycles(0));
        let (cqe, when) = wait_completion(&mut dev, &qp, 0, true, Cycles(0));
        assert_eq!(cqe.cid, 42);
        assert!(cqe.status.is_ok());
        assert_eq!(dma.load(), PageToken::pristine(0, 7));
        // Latency should be in the tens of microseconds (≥ 20 µs at 2.5 GHz
        // = 50k cycles) and well under a millisecond.
        assert!(when.raw() > 50_000, "completed suspiciously fast: {when}");
        assert!(when.raw() < 2_500_000, "completed too slowly: {when}");
        assert_eq!(dev.stats().reads_completed, 1);
        assert_eq!(dev.stats().bytes_read, 4096);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let (mut dev, qp) = make_device(16);
        let wdma = DmaHandle::with_token(PageToken(0xFEED));
        submit(&qp, 0, NvmeCommand::write(1, 99, wdma), Cycles(0));
        let (wc, t) = wait_completion(&mut dev, &qp, 0, true, Cycles(0));
        assert!(wc.status.is_ok());
        qp.cq.consume(1);

        let rdma = DmaHandle::new();
        submit(&qp, 1, NvmeCommand::read(2, 99, rdma.clone()), t);
        let (rc, _) = wait_completion(&mut dev, &qp, 1, true, t);
        assert!(rc.status.is_ok());
        assert_eq!(rdma.load(), PageToken(0xFEED));
        assert_eq!(dev.stats().writes_completed, 1);
        assert_eq!(dev.stats().reads_completed, 1);
    }

    #[test]
    fn out_of_range_read_errors() {
        let (mut dev, qp) = make_device(8);
        let dma = DmaHandle::new();
        submit(
            &qp,
            0,
            NvmeCommand::read(3, u64::MAX / 8192, dma.clone()),
            Cycles(0),
        );
        let (cqe, _) = wait_completion(&mut dev, &qp, 0, true, Cycles(0));
        assert_eq!(cqe.status, CmdStatus::LbaOutOfRange);
        assert_eq!(dma.load(), PageToken(0), "no DMA on failed read");
        assert_eq!(dev.stats().errors, 1);
    }

    #[test]
    fn cq_full_parks_completions_until_consumed() {
        let (mut dev, qp) = make_device(4);
        // Submit 4 commands; CQ depth is 4 so nothing needs to park yet, but
        // we don't consume, then submit 2 more after tail wraps.
        for i in 0..4u32 {
            submit(
                &qp,
                i,
                NvmeCommand::read(i as u16, i as u64, DmaHandle::new()),
                Cycles(0),
            );
        }
        let mut now = Cycles(0);
        for _ in 0..10_000 {
            dev.advance_to(now);
            if qp.cq.occupancy() == 4 {
                break;
            }
            now += Cycles(1_000);
        }
        assert_eq!(qp.cq.occupancy(), 4);
        assert!(qp.cq.is_full());

        // Two more commands; their completions must park.
        // SQ slots 0..3 were consumed by the device, so reuse slot 0 and 1;
        // the tail doorbell keeps increasing in ring order.
        assert!(qp
            .sq
            .write_slot(0, NvmeCommand::read(10, 100, DmaHandle::new())));
        assert!(qp
            .sq
            .write_slot(1, NvmeCommand::read(11, 101, DmaHandle::new())));
        qp.sq_doorbell.ring(2, now);
        for _ in 0..200 {
            now += Cycles(10_000);
            dev.advance_to(now);
        }
        assert!(dev.stats().cq_stalls > 0, "expected CQ stalls");
        assert!(!dev.quiescent());

        // Consume the first pass of completions; parked ones should now land
        // with the flipped phase.
        qp.cq.consume(4);
        for _ in 0..200 {
            now += Cycles(10_000);
            dev.advance_to(now);
            if qp.cq.occupancy() == 2 {
                break;
            }
        }
        assert_eq!(qp.cq.occupancy(), 2);
        // Second pass ⇒ phase flipped to false.
        assert!(qp.cq.poll_slot(0, false).is_some());
        assert!(qp.cq.poll_slot(1, false).is_some());
        assert!(dev.quiescent());
    }

    #[test]
    fn parked_completion_posts_on_the_first_advance_after_consume() {
        // The one state in which nothing the device can see changes and yet
        // an advance has work: a completion parked behind a full CQ, with no
        // event scheduled and no ring pending.
        let (mut dev, qp) = make_device(2);
        for i in 0..2u32 {
            submit(
                &qp,
                i,
                NvmeCommand::read(i as u16, i as u64, DmaHandle::new()),
                Cycles(0),
            );
        }
        let mut now = Cycles(0);
        while !qp.cq.is_full() {
            now += Cycles(1_000);
            dev.advance_to(now);
            assert!(now.raw() < 10_000_000, "reads never completed");
        }
        submit(&qp, 0, NvmeCommand::read(9, 9, DmaHandle::new()), now);
        while dev.stats().cq_stalls == 0 {
            now += Cycles(1_000);
            dev.advance_to(now);
            assert!(now.raw() < 20_000_000, "third read never parked");
        }
        assert_eq!(dev.next_event_time(), None, "heap is empty");
        assert_eq!(dev.gate().pending_rings(), 0);
        assert!(!dev.quiescent());
        assert!(
            !dev.gate().idle_at(now),
            "a parked completion keeps the gate open"
        );
        // Advancing while the CQ stays full changes nothing.
        for _ in 0..3 {
            now += Cycles(1_000);
            dev.advance_to(now);
        }
        assert_eq!(qp.cq.total_posted(), 2);
        assert_eq!(dev.stats().cq_stalls, 1, "retries are not new stalls");

        qp.cq.consume(1);
        dev.advance_to(now);
        assert_eq!(qp.cq.total_posted(), 3);
        assert_eq!(qp.cq.poll_slot(0, false).map(|c| c.cid), Some(9));
        assert!(dev.quiescent());
        assert!(dev.gate().idle_at(now + Cycles(1 << 40)));
    }

    #[test]
    fn ring_between_two_advances_at_the_same_time_is_fetched_by_the_second() {
        let (mut dev, qp) = make_device(8);
        let now = Cycles(1_000_000);
        dev.advance_to(now);
        assert!(dev.gate().idle_at(now));
        // Rung long enough ago that the fetch is already due at `now`.
        submit(&qp, 0, NvmeCommand::read(1, 5, DmaHandle::new()), Cycles(0));
        assert!(!dev.gate().idle_at(now));
        dev.advance_to(now);
        assert_eq!(dev.stats().doorbells, 1);
        assert!(!qp.sq.slot_occupied(0), "command was fetched");
        assert_eq!(dev.stats().reads_completed, 1);
        // The completion it scheduled is due too, and waits one more advance.
        assert!(dev.next_event_time().is_some_and(|t| t <= now));
        assert!(!dev.gate().idle_at(now));
        dev.advance_to(now);
        assert_eq!(qp.cq.poll_slot(0, true).map(|c| c.cid), Some(1));
        assert!(dev.quiescent());
    }

    #[test]
    fn throughput_saturates_near_configured_bandwidth() {
        let (mut dev, qp) = make_device(256);
        // Keep the device saturated with 4 KiB reads for a simulated stretch
        // and check the aggregate bandwidth approaches ~3.7 GB/s.
        let mut now = Cycles(0);
        let mut next_slot = 0u32;
        let mut issued = 0u64;
        let mut consumed_total = 0u64;
        let mut phase = true;
        let mut poll_idx = 0u32;
        let total: u64 = 4096;
        while consumed_total < total {
            // Issue as many as the SQ allows (slots freed when device fetches).
            let mut batch = 0;
            while issued < total && batch < 64 && !qp.sq.slot_occupied(next_slot) {
                assert!(qp.sq.write_slot(
                    next_slot,
                    NvmeCommand::read(
                        (issued % 65_536) as u16,
                        issued % 1_000_000,
                        DmaHandle::new()
                    )
                ));
                next_slot = (next_slot + 1) % qp.depth();
                issued += 1;
                batch += 1;
            }
            if batch > 0 {
                qp.sq_doorbell.ring(next_slot, now);
            }
            dev.advance_to(now);
            // Consume whatever completed.
            let mut got = 0;
            while qp.cq.poll_slot(poll_idx, phase).is_some() {
                poll_idx += 1;
                if poll_idx == qp.cq.depth() {
                    poll_idx = 0;
                    phase = !phase;
                }
                got += 1;
            }
            if got > 0 {
                qp.cq.consume(got);
                consumed_total += got as u64;
            }
            now += Cycles(5_000);
        }
        let secs = now.to_secs(dev.config().clock_ghz);
        let gbps = agile_sim::units::gb_per_sec(total * 4096, secs);
        assert!(
            gbps > 2.8 && gbps < 4.2,
            "saturated read bandwidth {gbps:.2} GB/s out of expected range"
        );
    }
}
