//! The SQE lock protocol and serialized doorbell updates (Algorithm 2).
//!
//! Every SQ entry carries a small state machine:
//!
//! ```text
//!   EMPTY ──claim──▶ CLAIMED ──command written──▶ UPDATED ──doorbell scan──▶ ISSUED ──completion──▶ EMPTY
//! ```
//!
//! * A thread that wants to issue a command claims the next slot at the
//!   allocation cursor **only if it is `EMPTY`** — allocation stays contiguous
//!   at the ring tail, which the NVMe protocol requires.
//! * After writing the command into the ring the thread flips its slot to
//!   `UPDATED`: the command is now visible in (simulated) global memory and
//!   safe to announce to the SSD.
//! * All threads then race to acquire the doorbell lock. The winner scans
//!   forward from the software tail, promoting consecutive `UPDATED` entries
//!   to `ISSUED`, stops at the first entry that is not `UPDATED` (either
//!   `EMPTY`, or claimed-but-not-yet-visible), rings the SQ doorbell once for
//!   the whole batch and releases the lock. Every thread — winner or not —
//!   simply re-checks its own slot until it reads `ISSUED` (Algorithm 2,
//!   lines 8–17).
//! * The **AGILE service** (not the issuing thread) later resets the slot to
//!   `EMPTY` when it processes the matching completion, which is exactly why
//!   issuing threads never hold a queue resource while waiting and the
//!   deadlock of Figure 1 cannot form.
//!
//! CIDs are the slot indices, so completions map back to slots (and to their
//! [`crate::transaction::Transaction`]s) without any search.
//!
//! **QoS ordering.** When a [`crate::qos::QosPolicy`] is installed, tenant
//! admission is arbitrated *before* `Attempt_Enqueue` — a deferred thread
//! never reaches the allocation cursor, so the slot-claim critical section
//! below stays policy-free and a deferral can never hold (or even observe) a
//! queue resource. The protocol itself is unchanged under any policy.

use crate::transaction::{Transaction, TransactionTable};
use agile_sim::Cycles;
use nvme_sim::{NvmeCommand, QueuePair};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// SQE lock states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum SqeState {
    /// Free for a new command.
    Empty = 0,
    /// Claimed by a thread; command not yet visible.
    Claimed = 1,
    /// Command written and visible; safe to announce to the SSD.
    Updated = 2,
    /// Announced to the SSD; waiting for its completion.
    Issued = 3,
}

impl SqeState {
    fn from_u32(v: u32) -> SqeState {
        match v {
            0 => SqeState::Empty,
            1 => SqeState::Claimed,
            2 => SqeState::Updated,
            3 => SqeState::Issued,
            _ => unreachable!("invalid SQE state {v}"),
        }
    }
}

/// Receipt returned by a successful issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueReceipt {
    /// The CID (= SQE slot index) of the issued command.
    pub cid: u16,
    /// Whether this thread's doorbell attempt actually rang the register
    /// (false when another thread's batch covered it).
    pub rang_doorbell: bool,
    /// Number of doorbell-attempt iterations before the command was observed
    /// `ISSUED` (1 for the uncontended fast path).
    pub attempts: u32,
}

/// One AGILE-managed submission queue: the raw ring plus the lock words,
/// software tail, doorbell lock and transaction table.
pub struct AgileSq {
    qp: Arc<QueuePair>,
    states: Vec<AtomicU32>,
    /// Free-running allocation cursor (not wrapped).
    alloc_cursor: AtomicU64,
    /// Free-running software tail (entries announced to the device).
    sw_tail: AtomicU64,
    doorbell_lock: AtomicBool,
    transactions: TransactionTable,
    depth: u32,
}

impl AgileSq {
    /// Wrap a queue pair.
    pub fn new(qp: Arc<QueuePair>) -> Self {
        let depth = qp.depth();
        AgileSq {
            states: (0..depth)
                .map(|_| AtomicU32::new(SqeState::Empty as u32))
                .collect(),
            alloc_cursor: AtomicU64::new(0),
            sw_tail: AtomicU64::new(0),
            doorbell_lock: AtomicBool::new(false),
            transactions: TransactionTable::new(depth),
            depth,
            qp,
        }
    }

    /// The underlying queue pair.
    pub fn queue_pair(&self) -> &Arc<QueuePair> {
        &self.qp
    }

    /// Queue depth.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Commands issued on this SQ so far (the free-running allocation
    /// cursor): its count of admissions.
    pub fn issued(&self) -> u64 {
        self.alloc_cursor.load(Ordering::Acquire)
    }

    /// The transaction table for this SQ.
    pub fn transactions(&self) -> &TransactionTable {
        &self.transactions
    }

    /// State of slot `idx` (diagnostics, tests).
    pub fn slot_state(&self, idx: u32) -> SqeState {
        SqeState::from_u32(self.states[idx as usize].load(Ordering::Acquire))
    }

    /// Number of `EMPTY` slots.
    pub fn free_slots(&self) -> u32 {
        self.states
            .iter()
            .filter(|s| s.load(Ordering::Acquire) == SqeState::Empty as u32)
            .count() as u32
    }

    /// True when no command can be issued: the entry at the allocation
    /// cursor has not been recycled yet (`check_full()` of
    /// [`AgileSq::try_issue`], without trying).
    #[inline]
    pub fn is_full(&self) -> bool {
        let cur = self.alloc_cursor.load(Ordering::Acquire);
        self.states[(cur % self.depth as u64) as usize].load(Ordering::Acquire)
            != SqeState::Empty as u32
    }

    /// How many more commands [`AgileSq::try_issue`] can take in a row now
    /// than before slot `cid` was [`release`](AgileSq::release)d: the
    /// growth of the run of `EMPTY` entries starting at the allocation
    /// cursor. Zero when `cid` is not on that run — a release out of ring
    /// order frees an entry nobody can claim until the entries before it
    /// are released too.
    pub fn tail_gain(&self, cid: u16) -> u32 {
        let depth = self.depth as u64;
        let cursor = self.alloc_cursor.load(Ordering::Acquire);
        // Ring distance from the cursor to the released entry: the run it
        // extends, if any, was exactly that long before the release, and
        // now goes on through `cid` and the empty entries after it.
        let before = (cid as u64 + depth - cursor % depth) % depth;
        let empty = |t: &u64| {
            self.states[((cursor + t) % depth) as usize].load(Ordering::Acquire)
                == SqeState::Empty as u32
        };
        if !(0..before).all(|t| empty(&t)) {
            return 0;
        }
        (before..depth).take_while(empty).count() as u32
    }

    /// Attempt to issue one command (Algorithm 2).
    ///
    /// `build` receives the CID and produces the command; `txn` describes what
    /// its completion means. Returns `None` when the SQ has no free entry —
    /// the caller tries another SQ or retries later; it never blocks.
    pub fn try_issue(
        &self,
        build: impl FnOnce(u16) -> NvmeCommand,
        txn: Transaction,
        now: Cycles,
    ) -> Option<IssueReceipt> {
        // --- Attempt_Enqueue: claim the slot at the allocation cursor. ---
        let slot = loop {
            let cur = self.alloc_cursor.load(Ordering::Acquire);
            let slot = (cur % self.depth as u64) as u32;
            if self.states[slot as usize].load(Ordering::Acquire) != SqeState::Empty as u32 {
                // An issuer that claimed this slot after our cursor read has
                // already moved the cursor: retry at the new one.
                if self.alloc_cursor.load(Ordering::Acquire) != cur {
                    continue;
                }
                // check_full(): the entry at the tail has not been recycled yet.
                return None;
            }
            if self
                .alloc_cursor
                .compare_exchange(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // We own this slot index exclusively; mark it claimed.
                self.states[slot as usize].store(SqeState::Claimed as u32, Ordering::Release);
                break slot;
            }
            // Lost the cursor race; retry with the new cursor.
        };

        let cid = slot as u16;
        // Record the transaction before the command can possibly complete.
        self.transactions.put(cid, txn);
        // enqueue_cmd(): write the SQE into the ring.
        let wrote = self.qp.sq.write_slot(slot, build(cid));
        debug_assert!(wrote, "claimed SQE slot was occupied in the ring");
        // update_SQE(..., UPDATED): command now visible.
        self.states[slot as usize].store(SqeState::Updated as u32, Ordering::Release);

        // --- Attempt_SQDB loop: serialize the doorbell update. ---
        let mut rang = false;
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            if self
                .doorbell_lock
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // move_SQ_tail(): promote consecutive UPDATED entries.
                let start = self.sw_tail.load(Ordering::Acquire);
                let mut t = start;
                loop {
                    let s = (t % self.depth as u64) as usize;
                    if self.states[s]
                        .compare_exchange(
                            SqeState::Updated as u32,
                            SqeState::Issued as u32,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        t += 1;
                    } else {
                        break;
                    }
                }
                if t != start {
                    self.qp
                        .sq_doorbell
                        .ring((t % self.depth as u64) as u32, now);
                    self.sw_tail.store(t, Ordering::Release);
                    rang = true;
                }
                self.doorbell_lock.store(false, Ordering::Release);
            }
            // check_SQE(): has *our* command been issued (by us or by whoever
            // held the doorbell lock)?
            if self.states[slot as usize].load(Ordering::Acquire) == SqeState::Issued as u32 {
                break;
            }
            assert!(
                attempts < 1_000_000,
                "doorbell serialization did not converge; protocol bug"
            );
            std::hint::spin_loop();
        }

        Some(IssueReceipt {
            cid,
            rang_doorbell: rang,
            attempts,
        })
    }

    /// Release a slot whose completion the service has processed:
    /// `ISSUED → EMPTY`, making it available for reuse.
    pub fn release(&self, cid: u16) {
        let prev = self.states[cid as usize].swap(SqeState::Empty as u32, Ordering::AcqRel);
        debug_assert_eq!(
            SqeState::from_u32(prev),
            SqeState::Issued,
            "released an SQE that was not ISSUED"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::Transaction;
    use nvme_sim::DmaHandle;

    fn sq(depth: u32) -> AgileSq {
        AgileSq::new(QueuePair::new(0, depth))
    }

    fn read_cmd(cid: u16) -> NvmeCommand {
        NvmeCommand::read(cid, cid as u64, DmaHandle::new())
    }

    #[test]
    fn issue_fast_path_rings_doorbell() {
        let q = sq(8);
        let r = q
            .try_issue(read_cmd, Transaction::WriteBack, Cycles(10))
            .unwrap();
        assert_eq!(r.cid, 0);
        assert!(r.rang_doorbell);
        assert_eq!(q.slot_state(0), SqeState::Issued);
        assert_eq!(q.queue_pair().sq_doorbell.value(), 1);
        assert_eq!(q.transactions().in_flight(), 1);
        assert_eq!(q.free_slots(), 7);
    }

    #[test]
    fn queue_full_returns_none_without_blocking() {
        let q = sq(4);
        for i in 0..4 {
            let r = q
                .try_issue(read_cmd, Transaction::WriteBack, Cycles(0))
                .unwrap();
            assert_eq!(r.cid, i as u16);
        }
        assert_eq!(q.free_slots(), 0);
        assert!(q
            .try_issue(read_cmd, Transaction::WriteBack, Cycles(0))
            .is_none());
        // Completion of the command in slot 0 (the device fetched the entry,
        // the service takes the transaction and releases the SQE) makes
        // exactly one new issue possible; the allocation cursor wraps onto
        // the freed slot.
        let _ = q.queue_pair().sq.take_slot(0); // device-side fetch
        let _ = q.transactions().take(0);
        q.release(0);
        let r = q
            .try_issue(read_cmd, Transaction::WriteBack, Cycles(0))
            .unwrap();
        assert_eq!(r.cid, 0, "cursor wrapped to the first freed slot");
        // The ring is full again (slot 1 is still ISSUED), so the next issue
        // is rejected without blocking.
        assert!(q
            .try_issue(read_cmd, Transaction::WriteBack, Cycles(0))
            .is_none());
        assert_eq!(q.issued(), 5, "refused attempts are not issues");
    }

    #[test]
    fn doorbell_batches_consecutive_updates() {
        let q = sq(16);
        // Issue three commands; each issue call promotes everything pending,
        // so the doorbell value always reflects the full batch.
        for _ in 0..3 {
            q.try_issue(read_cmd, Transaction::WriteBack, Cycles(0))
                .unwrap();
        }
        assert_eq!(q.queue_pair().sq_doorbell.value(), 3);
        // Ring values are monotonically increasing ring indices.
        let mut values = Vec::new();
        q.queue_pair().sq_doorbell.drain(|_, v| values.push(v));
        assert_eq!(values, vec![1, 2, 3]);
    }

    #[test]
    fn release_resets_state_for_reuse() {
        let q = sq(2);
        let a = q
            .try_issue(read_cmd, Transaction::WriteBack, Cycles(0))
            .unwrap();
        let b = q
            .try_issue(read_cmd, Transaction::WriteBack, Cycles(0))
            .unwrap();
        assert_ne!(a.cid, b.cid);
        assert!(q
            .try_issue(read_cmd, Transaction::WriteBack, Cycles(0))
            .is_none());
        // Simulate the device fetching both entries, then their completions.
        let _ = q.queue_pair().sq.take_slot(a.cid as u32);
        let _ = q.queue_pair().sq.take_slot(b.cid as u32);
        q.release(a.cid);
        q.release(b.cid);
        let _ = q.transactions().take(a.cid);
        let _ = q.transactions().take(b.cid);
        assert_eq!(q.free_slots(), 2);
        assert!(q
            .try_issue(read_cmd, Transaction::WriteBack, Cycles(0))
            .is_some());
    }

    /// A queue of `depth` with every slot issued and fetched by the device.
    fn full_sq(depth: u32) -> AgileSq {
        let q = sq(depth);
        for _ in 0..depth {
            q.try_issue(read_cmd, Transaction::WriteBack, Cycles(0))
                .unwrap();
        }
        for slot in 0..depth {
            let _ = q.queue_pair().sq.take_slot(slot);
            let _ = q.transactions().take(slot as u16);
        }
        assert!(q.is_full());
        q
    }

    /// Release `cid` and report its tail gain.
    fn release(q: &AgileSq, cid: u16) -> u32 {
        q.release(cid);
        q.tail_gain(cid)
    }

    #[test]
    fn tail_gain_counts_what_a_release_makes_claimable() {
        // Out of ring order: nothing is claimable until the cursor's entry
        // is back, and then the whole run is — a full run of `depth`.
        let q = full_sq(4);
        assert_eq!(release(&q, 2), 0);
        assert_eq!(release(&q, 1), 0);
        assert!(q.is_full());
        assert_eq!(release(&q, 0), 3, "0, 1 and 2");
        assert_eq!(release(&q, 3), 1);
        assert_eq!(q.free_slots(), 4);
        for _ in 0..4 {
            assert!(!q.is_full());
            q.try_issue(read_cmd, Transaction::WriteBack, Cycles(0))
                .unwrap();
        }
        assert!(q.is_full());

        // A release that extends the run at its end, one beyond a gap, and
        // the one closing the gap.
        let q = full_sq(8);
        assert_eq!(release(&q, 0), 1);
        assert_eq!(release(&q, 1), 1, "extends the run");
        assert_eq!(release(&q, 3), 0, "beyond the run: 2 is still issued");
        assert_eq!(release(&q, 2), 2, "2 and 3");
    }

    #[test]
    fn tail_gain_follows_the_cursor_around_the_ring() {
        let q = full_sq(4);
        assert_eq!(release(&q, 0), 1);
        assert_eq!(release(&q, 1), 1);
        // Re-issue into 0 and 1: the cursor wraps to slot 2.
        for cid in [0u16, 1] {
            let r = q
                .try_issue(read_cmd, Transaction::WriteBack, Cycles(0))
                .unwrap();
            assert_eq!(r.cid, cid);
            let _ = q.queue_pair().sq.take_slot(cid as u32);
            let _ = q.transactions().take(cid);
        }
        assert_eq!(release(&q, 3), 0);
        assert_eq!(release(&q, 2), 2, "2 and 3, from the wrapped cursor");
        assert_eq!(release(&q, 0), 1, "past the end of the ring");
        assert_eq!(release(&q, 1), 1);
        assert_eq!(q.free_slots(), 4);
    }

    #[test]
    fn concurrent_issues_use_distinct_slots() {
        use std::thread;
        let q = Arc::new(sq(64));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut cids = Vec::new();
                    for _ in 0..8 {
                        if let Some(r) = q.try_issue(read_cmd, Transaction::WriteBack, Cycles(0)) {
                            cids.push(r.cid);
                        }
                    }
                    cids
                })
            })
            .collect();
        let mut all: Vec<u16> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        let before = all.len();
        all.dedup();
        assert_eq!(before, all.len(), "no CID may be handed to two threads");
        assert_eq!(before, 64, "all 64 slots should be claimable exactly once");
        // Every issued slot is in the ISSUED state and the doorbell covers all.
        assert_eq!(q.free_slots(), 0);
        assert_eq!(q.queue_pair().sq_doorbell.value() % 64, 0);
    }

    #[test]
    fn device_interoperation_end_to_end() {
        // The AgileSq protocol must produce command streams a real device
        // model can consume.
        use nvme_sim::{SsdConfig, SsdDevice};
        let qp = QueuePair::new(0, 32);
        let mut dev = SsdDevice::new(SsdConfig::new(0).with_capacity_pages(1 << 20));
        dev.register_queue_pair(Arc::clone(&qp));
        let q = AgileSq::new(qp);
        let dmas: Vec<DmaHandle> = (0..8).map(|_| DmaHandle::new()).collect();
        for (i, dma) in dmas.iter().enumerate() {
            let dma = dma.clone();
            q.try_issue(
                move |cid| NvmeCommand::read(cid, 1000 + i as u64, dma),
                Transaction::WriteBack,
                Cycles(0),
            )
            .unwrap();
        }
        // Let the device run long enough to complete everything.
        let mut now = Cycles(0);
        for _ in 0..500 {
            now += Cycles(10_000);
            dev.advance_to(now);
        }
        assert_eq!(dev.stats().reads_completed, 8);
        for (i, dma) in dmas.iter().enumerate() {
            assert_eq!(
                dma.load(),
                nvme_sim::PageToken::pristine(0, 1000 + i as u64)
            );
        }
    }
}
