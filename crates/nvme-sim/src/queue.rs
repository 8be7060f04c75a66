//! NVMe I/O queue pairs: submission and completion rings.
//!
//! The rings live — conceptually — in GPU HBM: both the GPU-side libraries
//! and the SSD device model hold `Arc`s to the same [`QueuePair`], mirroring
//! how the physical queues are allocated in pinned GPU memory and registered
//! with the SSD over the admin queue (paper §3.1).
//!
//! Submission slots are protected with per-slot `parking_lot::Mutex`es, each
//! completion slot is one atomic word holding a packed CQE, and the ring
//! pointers are atomics, so the structures are safe to drive from real host
//! threads in the stress tests as well as from the single-threaded
//! discrete-event engine.

use crate::doorbell::DoorbellRegister;
use crate::spec::{CmdStatus, NvmeCommand, NvmeCompletion, QueueId};
use agile_sim::wake::WatchList;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// A submission queue ring.
///
/// Software writes commands into slots and advances the tail via the SQ
/// doorbell; the device fetches entries in ring order from its head up to the
/// last doorbelled tail.
pub struct SubmissionQueue {
    id: QueueId,
    depth: u32,
    slots: Vec<Mutex<Option<NvmeCommand>>>,
    /// Device-side head: how far the device has fetched (ring index).
    head: AtomicU32,
}

impl SubmissionQueue {
    /// Create a ring with `depth` entries (2 ≤ depth ≤ 65536).
    pub fn new(id: QueueId, depth: u32) -> Self {
        assert!((2..=65_536).contains(&depth), "invalid SQ depth {depth}");
        SubmissionQueue {
            id,
            depth,
            slots: (0..depth).map(|_| Mutex::new(None)).collect(),
            head: AtomicU32::new(0),
        }
    }

    /// Queue identifier.
    pub fn id(&self) -> QueueId {
        self.id
    }

    /// Ring depth in entries.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Write a command into slot `idx` (ring index). Returns false if the
    /// slot is already occupied — callers are expected to manage slot
    /// ownership (AGILE does so with its SQE lock words).
    pub fn write_slot(&self, idx: u32, cmd: NvmeCommand) -> bool {
        let mut slot = self.slots[(idx % self.depth) as usize].lock();
        if slot.is_some() {
            return false;
        }
        *slot = Some(cmd);
        true
    }

    /// Device side: take the command out of slot `idx`. Returns `None` when
    /// the slot is empty (which indicates a protocol bug — the doorbell said
    /// there was a command there).
    pub fn take_slot(&self, idx: u32) -> Option<NvmeCommand> {
        self.slots[(idx % self.depth) as usize].lock().take()
    }

    /// Peek whether slot `idx` currently holds a command.
    pub fn slot_occupied(&self, idx: u32) -> bool {
        self.slots[(idx % self.depth) as usize].lock().is_some()
    }

    /// Device-side head (ring index of the next entry to fetch).
    pub fn head(&self) -> u32 {
        self.head.load(Ordering::Acquire)
    }

    /// Advance the device-side head by one entry, wrapping at the depth.
    pub(crate) fn advance_head(&self) -> u32 {
        let mut cur = self.head.load(Ordering::Relaxed);
        loop {
            let next = (cur + 1) % self.depth;
            match self
                .head
                .compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => return next,
                Err(v) => cur = v,
            }
        }
    }
}

/// A completion slot with no CQE in it.
const EMPTY_SLOT: u64 = 0;
/// Set in every slot that holds a CQE (so a posted CQE is never
/// [`EMPTY_SLOT`]).
const VALID_BIT: u64 = 1 << 51;
const PHASE_BIT: u64 = 1 << 50;
const STATUS_SHIFT: u32 = 48;

/// A CQE as one slot word: `cid` in bits 0–15, `sq_id` in 16–31, `sq_head`
/// in 32–47, the status in 48–49, the phase in 50 and [`VALID_BIT`].
fn pack(cqe: NvmeCompletion) -> u64 {
    let status: u64 = match cqe.status {
        CmdStatus::Success => 0,
        CmdStatus::LbaOutOfRange => 1,
        CmdStatus::InvalidOpcode => 2,
        CmdStatus::InternalError => 3,
    };
    VALID_BIT
        | if cqe.phase { PHASE_BIT } else { 0 }
        | status << STATUS_SHIFT
        | (cqe.sq_head as u64) << 32
        | (cqe.sq_id as u64) << 16
        | cqe.cid as u64
}

/// The CQE a slot word holds, if any.
fn unpack(word: u64) -> Option<NvmeCompletion> {
    if word & VALID_BIT == 0 {
        return None;
    }
    let status = match (word >> STATUS_SHIFT) & 3 {
        0 => CmdStatus::Success,
        1 => CmdStatus::LbaOutOfRange,
        2 => CmdStatus::InvalidOpcode,
        _ => CmdStatus::InternalError,
    };
    Some(NvmeCompletion {
        cid: word as u16,
        sq_id: (word >> 16) as u16,
        sq_head: (word >> 32) as u16,
        status,
        phase: word & PHASE_BIT != 0,
    })
}

/// A completion queue ring.
///
/// The device posts entries with an alternating phase tag; software polls
/// slots, compares the phase against its expected value, and acknowledges
/// consumption by advancing the head (CQ doorbell), which frees the slots for
/// the device to reuse.
pub struct CompletionQueue {
    id: QueueId,
    depth: u32,
    /// Packed CQEs (see [`pack`]); [`EMPTY_SLOT`] where none is posted.
    /// `post` stores with Release and `poll_slot` loads with Acquire, so a
    /// poller that sees a CQE also sees the data the device wrote before
    /// posting it; `consume` clears with Release, which the device's next
    /// `post` to the slot acquires.
    slots: Box<[AtomicU64]>,
    /// Software-side head (ring index of the next entry software will consume),
    /// as communicated to the device through the CQ doorbell.
    head: AtomicU32,
    /// Number of entries the device has posted in total (free-running), used
    /// to compute occupancy together with `consumed`.
    posted: AtomicU32,
    /// Number of entries software has consumed in total (free-running).
    consumed: AtomicU32,
    /// Pollers asleep until something is posted here (a service warp that
    /// found every CQ of its rotation empty).
    watchers: WatchList,
    /// See [`CompletionQueue::next_post`]; written by the device.
    next_post: AtomicU64,
}

impl CompletionQueue {
    /// Create a ring with `depth` entries.
    pub fn new(id: QueueId, depth: u32) -> Self {
        assert!((2..=65_536).contains(&depth), "invalid CQ depth {depth}");
        CompletionQueue {
            id,
            depth,
            slots: (0..depth).map(|_| AtomicU64::new(EMPTY_SLOT)).collect(),
            head: AtomicU32::new(0),
            posted: AtomicU32::new(0),
            consumed: AtomicU32::new(0),
            watchers: WatchList::new(),
            next_post: AtomicU64::new(u64::MAX),
        }
    }

    /// The earliest completion time the device has scheduled for this
    /// queue, as of its last advance: `0` while a completion is parked
    /// behind the full queue (it posts once software consumes entries),
    /// `u64::MAX` when none is scheduled. A command the device has not
    /// fetched yet is not counted; it posts no sooner than
    /// [`agile_sim::costs::SsdCosts::post_delay`] after its fetch.
    pub fn next_post(&self) -> u64 {
        self.next_post.load(Ordering::Acquire)
    }

    /// Device side: publish [`CompletionQueue::next_post`].
    pub(crate) fn set_next_post(&self, at: u64) {
        self.next_post.store(at, Ordering::Release);
    }

    /// The sleepers notified by every CQE the device posts. A poller
    /// that registers here may stop polling while the queue holds nothing
    /// new for it (`total_posted` equals what it has retired).
    pub fn watchers(&self) -> &WatchList {
        &self.watchers
    }

    /// Queue identifier.
    pub fn id(&self) -> QueueId {
        self.id
    }

    /// Ring depth in entries.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Number of posted-but-unconsumed entries.
    pub fn occupancy(&self) -> u32 {
        self.posted
            .load(Ordering::Acquire)
            .wrapping_sub(self.consumed.load(Ordering::Acquire))
    }

    /// True when the device has no free slot to post into.
    pub fn is_full(&self) -> bool {
        self.occupancy() >= self.depth
    }

    /// Device side: post a completion into slot `idx`. Panics if the slot is
    /// still occupied — the device must check [`CompletionQueue::is_full`]
    /// first (the real device stalls instead).
    pub(crate) fn post(&self, idx: u32, cqe: NvmeCompletion) {
        let posted = self.slots[(idx % self.depth) as usize].compare_exchange(
            EMPTY_SLOT,
            pack(cqe),
            Ordering::AcqRel,
            Ordering::Relaxed,
        );
        assert!(
            posted.is_ok(),
            "device overwrote an unconsumed CQE in CQ {} slot {}",
            self.id,
            idx
        );
        self.posted.fetch_add(1, Ordering::AcqRel);
        self.watchers.notify_all();
    }

    /// Poller side: read the completion in slot `idx` if its phase matches
    /// `expected_phase`. Does not consume the entry.
    pub fn poll_slot(&self, idx: u32, expected_phase: bool) -> Option<NvmeCompletion> {
        unpack(self.slots[(idx % self.depth) as usize].load(Ordering::Acquire))
            .filter(|cqe| cqe.phase == expected_phase)
    }

    /// Poller side: consume `count` entries starting at the current head and
    /// advance the head (this models writing the CQ head doorbell). The
    /// consumed slots are cleared so the device can reuse them.
    pub fn consume(&self, count: u32) {
        let mut head = self.head.load(Ordering::Acquire);
        for _ in 0..count {
            let slot = &self.slots[(head % self.depth) as usize];
            debug_assert!(
                slot.load(Ordering::Relaxed) != EMPTY_SLOT,
                "consuming an empty CQE slot"
            );
            slot.store(EMPTY_SLOT, Ordering::Release);
            head = (head + 1) % self.depth;
        }
        self.head.store(head, Ordering::Release);
        self.consumed.fetch_add(count, Ordering::AcqRel);
    }

    /// The software-side head ring index (what the CQ doorbell last told the
    /// device).
    pub fn head(&self) -> u32 {
        self.head.load(Ordering::Acquire)
    }

    /// Total completions posted by the device (free-running counter).
    pub fn total_posted(&self) -> u32 {
        self.posted.load(Ordering::Acquire)
    }
}

/// A bound (submission queue, completion queue, SQ doorbell) triple.
///
/// The paper uses a 1:1 SQ:CQ mapping per I/O queue pair, which is what the
/// model provides.
pub struct QueuePair {
    /// Submission ring.
    pub sq: Arc<SubmissionQueue>,
    /// Completion ring.
    pub cq: Arc<CompletionQueue>,
    /// The SQ tail doorbell register (in the device's BAR).
    pub sq_doorbell: Arc<DoorbellRegister>,
}

impl QueuePair {
    /// Create a queue pair with both rings of the same `depth`.
    pub fn new(id: QueueId, depth: u32) -> Arc<Self> {
        Arc::new(QueuePair {
            sq: Arc::new(SubmissionQueue::new(id, depth)),
            cq: Arc::new(CompletionQueue::new(id, depth)),
            sq_doorbell: Arc::new(DoorbellRegister::new()),
        })
    }

    /// Identifier shared by both rings.
    pub fn id(&self) -> QueueId {
        self.sq.id()
    }

    /// Ring depth.
    pub fn depth(&self) -> u32 {
        self.sq.depth()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DmaHandle, NvmeCommand};

    fn cmd(cid: u16) -> NvmeCommand {
        NvmeCommand::read(cid, cid as u64, DmaHandle::new())
    }

    fn cqe(cid: u16, phase: bool) -> NvmeCompletion {
        NvmeCompletion {
            cid,
            sq_id: 0,
            sq_head: 0,
            status: CmdStatus::Success,
            phase,
        }
    }

    #[test]
    fn sq_slot_write_take() {
        let sq = SubmissionQueue::new(0, 8);
        assert!(sq.write_slot(3, cmd(3)));
        assert!(!sq.write_slot(3, cmd(4)), "occupied slot must reject");
        assert!(sq.slot_occupied(3));
        let taken = sq.take_slot(3).unwrap();
        assert_eq!(taken.cid, 3);
        assert!(!sq.slot_occupied(3));
        assert!(sq.take_slot(3).is_none());
    }

    #[test]
    fn sq_head_wraps() {
        let sq = SubmissionQueue::new(0, 4);
        assert_eq!(sq.head(), 0);
        for expected in [1, 2, 3, 0, 1] {
            assert_eq!(sq.advance_head(), expected);
        }
    }

    #[test]
    #[should_panic(expected = "invalid SQ depth")]
    fn sq_rejects_tiny_depth() {
        SubmissionQueue::new(0, 1);
    }

    #[test]
    fn cq_post_poll_consume() {
        let cq = CompletionQueue::new(0, 4);
        assert!(!cq.is_full());
        cq.post(0, cqe(10, true));
        cq.post(1, cqe(11, true));
        assert_eq!(cq.occupancy(), 2);
        // Phase must match to observe entries.
        assert!(cq.poll_slot(0, false).is_none());
        assert_eq!(cq.poll_slot(0, true).unwrap().cid, 10);
        assert_eq!(cq.poll_slot(1, true).unwrap().cid, 11);
        assert!(cq.poll_slot(2, true).is_none());
        cq.consume(2);
        assert_eq!(cq.occupancy(), 0);
        assert_eq!(cq.head(), 2);
        assert_eq!(cq.total_posted(), 2);
    }

    #[test]
    fn a_cqe_round_trips_through_its_slot_word() {
        let statuses = [
            CmdStatus::Success,
            CmdStatus::LbaOutOfRange,
            CmdStatus::InvalidOpcode,
            CmdStatus::InternalError,
        ];
        let extremes = [0, 1, 0x7FFF, 0x8000, u16::MAX];
        for status in statuses {
            for phase in [false, true] {
                for (cid, sq_id, sq_head) in extremes
                    .iter()
                    .flat_map(|&a| extremes.iter().map(move |&b| (a, b)))
                    .flat_map(|(a, b)| extremes.iter().map(move |&c| (a, b, c)))
                {
                    let cqe = NvmeCompletion {
                        cid,
                        sq_id,
                        sq_head,
                        status,
                        phase,
                    };
                    let word = pack(cqe);
                    assert_ne!(word, EMPTY_SLOT);
                    assert_eq!(unpack(word), Some(cqe));
                }
            }
        }
        assert_eq!(unpack(EMPTY_SLOT), None);
    }

    #[test]
    fn a_post_notifies_the_watchers_of_that_cq_only() {
        use agile_sim::wake::WakeHub;
        let hub = WakeHub::new();
        let (a, b) = (hub.register(), hub.register());
        let (watched, other) = (CompletionQueue::new(0, 4), CompletionQueue::new(1, 4));
        watched.watchers().watch(&hub, a);
        other.watchers().watch(&hub, b);
        hub.park(a);
        hub.park(b);
        watched.post(0, cqe(1, true));
        let mut fired = Vec::new();
        hub.drain(&mut fired, &mut Vec::new());
        assert_eq!(fired, [a]);
    }

    #[test]
    fn cq_full_detection() {
        let cq = CompletionQueue::new(0, 2);
        cq.post(0, cqe(0, true));
        cq.post(1, cqe(1, true));
        assert!(cq.is_full());
        cq.consume(1);
        assert!(!cq.is_full());
    }

    #[test]
    #[should_panic(expected = "unconsumed CQE")]
    fn cq_overwrite_panics() {
        let cq = CompletionQueue::new(0, 2);
        cq.post(0, cqe(0, true));
        cq.post(0, cqe(1, true));
    }

    #[test]
    fn queue_pair_bundles() {
        let qp = QueuePair::new(5, 16);
        assert_eq!(qp.id(), 5);
        assert_eq!(qp.depth(), 16);
        assert_eq!(qp.sq.depth(), qp.cq.depth());
    }

    #[test]
    fn concurrent_slot_access_is_safe() {
        use std::thread;
        let sq = Arc::new(SubmissionQueue::new(0, 64));
        let mut handles = Vec::new();
        for t in 0..8u16 {
            let sq = Arc::clone(&sq);
            handles.push(thread::spawn(move || {
                let mut written = 0;
                for i in 0..64u32 {
                    if sq.write_slot(i, cmd(t * 100 + i as u16)) {
                        written += 1;
                    }
                }
                written
            }));
        }
        let total: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        // Exactly 64 slots exist; each accepts exactly one writer.
        assert_eq!(total, 64);
    }
}
