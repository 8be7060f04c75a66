//! Transaction barriers and the per-SQ transaction tables.
//!
//! When a user thread hands a command off to the NVMe queues it receives back
//! a *barrier* (the `lock a` of Figure 3): a one-shot flag the AGILE service
//! clears when the corresponding completion is processed. The thread never
//! holds a queue lock while waiting — it only polls its private barrier,
//! which is what removes the deadlock window of §2.3.1.
//!
//! The service needs to know, for each completion `(SQ, CID)`, what finishing
//! that command means: completing a software-cache fill, releasing a
//! user-buffer read, acknowledging a write-back, … That mapping is the
//! [`TransactionTable`]: one slot per SQE, indexed by CID (AGILE uses the SQE
//! slot index as the CID so the mapping is trivial and collision-free within
//! a queue).

use agile_cache::LineId;
use agile_cache::SharedBuf;
use agile_sim::wake::{SleeperId, WakeHub};
use nvme_sim::{DmaHandle, Lba, PageToken};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// A one-shot completion flag shared between a user thread and the service.
///
/// The barrier starts *armed* (pending). The AGILE service clears it when the
/// transaction's completion has been processed; the user thread polls
/// [`Barrier::is_complete`] — or, when polling it is all the thread would do,
/// registers a sleeper with [`Barrier::watch`] and is woken by the
/// completion instead.
#[derive(Debug, Clone, Default)]
pub struct Barrier {
    cell: Arc<BarrierCell>,
}

#[derive(Debug, Default)]
struct BarrierCell {
    flag: AtomicU32,
    /// The sleeper to notify on completion, as `id + 1` (0: nobody). One
    /// slot is enough: a barrier belongs to the one warp that issued it.
    waiter: AtomicU32,
}

impl Barrier {
    /// A new, armed barrier.
    pub fn new() -> Self {
        Barrier::default()
    }

    /// True once the transaction completed.
    pub fn is_complete(&self) -> bool {
        self.cell.flag.load(Ordering::SeqCst) == 1
    }

    /// Mark the transaction complete (service side) and notify, through
    /// `hub`, the sleeper watching the barrier, if any.
    pub fn complete(&self, hub: &WakeHub) {
        self.cell.flag.store(1, Ordering::SeqCst);
        // Flag first, then the waiter — the mirror of `watch`, so either
        // this sees the sleeper or `watch` sees the barrier complete.
        match self.cell.waiter.swap(0, Ordering::SeqCst) {
            0 => {}
            id => hub.notify(SleeperId(id - 1)),
        }
    }

    /// Have [`Barrier::complete`] notify `sleeper`. Returns `false` when the
    /// barrier is complete already: the caller must not sleep on it.
    pub fn watch(&self, sleeper: SleeperId) -> bool {
        // A warp re-parking on the barriers it watched last time finds
        // itself in the slot already: only a store can be saved, never the
        // check.
        if self.cell.waiter.load(Ordering::SeqCst) != sleeper.0 + 1 {
            self.cell.waiter.store(sleeper.0 + 1, Ordering::SeqCst);
        }
        !self.is_complete()
    }

    /// Re-arm the barrier for reuse (buffers are commonly reused across
    /// epochs; real AGILE reuses the `AgileBufPtr` the same way).
    pub fn reset(&self) {
        self.cell.waiter.store(0, Ordering::SeqCst);
        self.cell.flag.store(0, Ordering::SeqCst);
    }
}

/// A user-registered buffer for `async_issue(src, dst)`: a page-sized slot in
/// GPU global memory plus the barrier that tracks the in-flight transfer.
///
/// This is the reproduction's `AgileBufPtr` (Listing 1, line 12).
#[derive(Debug, Clone, Default)]
pub struct AgileBuf {
    /// The data slot (what the NVMe DMA engine reads/writes).
    pub dma: DmaHandle,
    /// Completion barrier for the most recent asynchronous operation.
    pub barrier: Barrier,
}

impl AgileBuf {
    /// A fresh buffer with no pending transfer.
    pub fn new() -> Self {
        AgileBuf {
            dma: DmaHandle::new(),
            barrier: Barrier::new(),
        }
    }

    /// A buffer pre-filled with `token` (for writes).
    pub fn with_token(token: PageToken) -> Self {
        AgileBuf {
            dma: DmaHandle::with_token(token),
            barrier: Barrier::new(),
        }
    }

    /// True when the last asynchronous operation on this buffer finished
    /// (`buf.wait()` in Listing 1 polls this).
    pub fn is_ready(&self) -> bool {
        self.barrier.is_complete()
    }

    /// The token currently held by the buffer.
    pub fn token(&self) -> PageToken {
        self.dma.load()
    }

    /// Store a token into the buffer (host-side fill before a write).
    pub fn store(&self, token: PageToken) {
        self.dma.store(token);
    }
}

/// What completing a command means to the rest of the system.
#[derive(Debug, Clone)]
pub enum Transaction {
    /// A software-cache fill: transition the line `BUSY → READY` and release
    /// the reservation pin taken at miss time.
    CacheFill {
        /// The reserved line.
        line: LineId,
    },
    /// A write-back of an evicted dirty line (or of a dirty shared buffer);
    /// nothing to release beyond the SQE itself.
    WriteBack,
    /// An `asyncRead` into a user buffer: clear the barrier and, when the
    /// Share Table tracks the buffer, mark it ready for other threads.
    UserRead {
        /// Barrier to clear.
        barrier: Barrier,
        /// Share-Table entry to mark ready (if sharing is enabled).
        shared: Option<Arc<SharedBuf>>,
    },
    /// An `asyncWrite` from a user buffer: clear the barrier (the buffer was
    /// already free to reuse the moment the command was issued, because the
    /// data was snapshotted — the barrier reports durability).
    UserWrite {
        /// Barrier to clear.
        barrier: Barrier,
    },
    /// A raw request issued by a benchmark kernel (4 KiB random read/write
    /// experiments): clear the barrier.
    Raw {
        /// Barrier to clear.
        barrier: Barrier,
        /// Source/destination page, kept for diagnostics.
        lba: Lba,
        /// Tenant whose QoS admission this command consumed, when a
        /// [`crate::qos::QosPolicy`] arbitrated it: the completion processor
        /// returns the in-flight credit via `QosPolicy::on_complete`.
        /// `None` when no policy was installed at issue time.
        qos_tenant: Option<u32>,
    },
}

/// One slot per SQE; indexed by CID.
pub struct TransactionTable {
    slots: Vec<Mutex<Option<Transaction>>>,
}

impl TransactionTable {
    /// Table for an SQ of `depth` entries.
    pub fn new(depth: u32) -> Self {
        TransactionTable {
            slots: (0..depth).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Number of slots.
    pub fn depth(&self) -> usize {
        self.slots.len()
    }

    /// Record the transaction behind CID `cid`. Panics if the slot is already
    /// occupied (that would mean a CID was reused while in flight).
    pub fn put(&self, cid: u16, t: Transaction) {
        let mut slot = self.slots[cid as usize].lock();
        assert!(
            slot.is_none(),
            "transaction slot {cid} reused while still in flight"
        );
        *slot = Some(t);
    }

    /// Take the transaction behind CID `cid` (service side, on completion).
    pub fn take(&self, cid: u16) -> Option<Transaction> {
        self.slots[cid as usize].lock().take()
    }

    /// Number of in-flight transactions (diagnostic).
    pub fn in_flight(&self) -> usize {
        self.slots.iter().filter(|s| s.lock().is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_lifecycle() {
        let b = Barrier::new();
        assert!(!b.is_complete());
        let alias = b.clone();
        alias.complete(&WakeHub::default());
        assert!(b.is_complete());
        b.reset();
        assert!(!b.is_complete());
    }

    #[test]
    fn completing_a_watched_barrier_notifies_its_sleeper_once() {
        let hub = WakeHub::new();
        let sleeper = hub.register();
        let b = Barrier::new();
        assert!(b.watch(sleeper), "armed: may sleep on it");
        hub.park(sleeper);
        b.complete(&hub);
        b.complete(&hub);
        let mut fired = Vec::new();
        hub.drain(&mut fired, &mut Vec::new());
        assert_eq!(fired, [sleeper]);
        assert!(!b.watch(sleeper), "complete: nothing to sleep on");
    }

    #[test]
    fn agile_buf_roundtrip() {
        let buf = AgileBuf::with_token(PageToken(5));
        assert_eq!(buf.token(), PageToken(5));
        assert!(!buf.is_ready());
        buf.barrier.complete(&WakeHub::default());
        assert!(buf.is_ready());
        buf.store(PageToken(6));
        assert_eq!(buf.token(), PageToken(6));
    }

    #[test]
    fn transaction_table_put_take() {
        let t = TransactionTable::new(8);
        assert_eq!(t.depth(), 8);
        assert_eq!(t.in_flight(), 0);
        t.put(3, Transaction::WriteBack);
        t.put(5, Transaction::CacheFill { line: LineId(7) });
        assert_eq!(t.in_flight(), 2);
        match t.take(5) {
            Some(Transaction::CacheFill { line }) => assert_eq!(line, LineId(7)),
            other => panic!("unexpected {other:?}"),
        }
        assert!(t.take(5).is_none());
        assert_eq!(t.in_flight(), 1);
    }

    #[test]
    #[should_panic(expected = "reused while still in flight")]
    fn transaction_table_rejects_cid_reuse() {
        let t = TransactionTable::new(4);
        t.put(0, Transaction::WriteBack);
        t.put(0, Transaction::WriteBack);
    }

    #[test]
    fn barrier_is_shared_not_copied() {
        let buf = AgileBuf::new();
        let t = Transaction::UserRead {
            barrier: buf.barrier.clone(),
            shared: None,
        };
        // Completing through the transaction's clone is visible via the buffer.
        if let Transaction::UserRead { barrier, .. } = &t {
            barrier.complete(&WakeHub::default());
        }
        assert!(buf.is_ready());
    }
}
