//! The Share Table: MOESI-inspired coherency for user-specified buffers.
//!
//! `async_issue(src, dst)` lets a thread pull SSD data straight into a buffer
//! it owns, bypassing the software cache. That flexibility can create
//! read-after-write / write-after-read / write-after-write hazards when other
//! threads access the same SSD page through the cache (paper §3.4.1). AGILE's
//! answer is a hash-table keyed by the data's source `(device, LBA)` that
//! records which user buffer currently holds that page and in what state,
//! with the states reinterpreted from MOESI:
//!
//! * `Exclusive` — one thread owns the only copy, clean;
//! * `Shared` — several threads hold references to the *same* buffer (AGILE
//!   shares the pointer instead of duplicating data);
//! * `Modified` — the owner has written the buffer; it must propagate the
//!   update to the L2 tier (the software cache / SSD) once the other
//!   references drain;
//! * `Owned` — modified *and* shared: dirty data visible to several readers,
//!   with exactly one responsible owner.
//!
//! When the Share Table is enabled it is consulted *before* the software
//! cache (it "has the highest priority in the AGILE software cache
//! hierarchy").

use nvme_sim::{DmaHandle, Lba, PageToken};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Coherency state of a registered buffer (MOESI minus Invalid — invalid
/// entries are simply removed from the table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BufState {
    /// Single clean owner.
    Exclusive,
    /// Multiple readers of one clean buffer.
    Shared,
    /// Single dirty owner.
    Modified,
    /// Dirty buffer with multiple readers; the owner must write back.
    Owned,
}

/// A user buffer registered with the Share Table.
#[derive(Debug)]
pub struct SharedBuf {
    /// The source of the data held by the buffer.
    pub dev: u32,
    /// The source LBA of the data held by the buffer.
    pub lba: Lba,
    /// The buffer's storage slot (shared with the NVMe DMA path).
    pub dma: DmaHandle,
    state: AtomicU32,
    refs: AtomicU32,
    /// Set once the data transfer into the buffer has completed.
    ready: AtomicU32,
    /// Owning thread (flat warp/thread id) — the thread responsible for
    /// write-back when the buffer is Modified/Owned.
    owner: AtomicU64,
}

impl SharedBuf {
    fn encode(s: BufState) -> u32 {
        match s {
            BufState::Exclusive => 0,
            BufState::Shared => 1,
            BufState::Modified => 2,
            BufState::Owned => 3,
        }
    }
    fn decode(v: u32) -> BufState {
        match v {
            0 => BufState::Exclusive,
            1 => BufState::Shared,
            2 => BufState::Modified,
            3 => BufState::Owned,
            _ => unreachable!("invalid BufState encoding {v}"),
        }
    }

    /// Current coherency state.
    pub fn state(&self) -> BufState {
        Self::decode(self.state.load(Ordering::Acquire))
    }

    /// Number of threads currently referencing this buffer.
    pub fn refs(&self) -> u32 {
        self.refs.load(Ordering::Acquire)
    }

    /// The thread responsible for the buffer.
    pub fn owner(&self) -> u64 {
        self.owner.load(Ordering::Acquire)
    }

    /// True once the data transfer into the buffer completed.
    pub fn is_ready(&self) -> bool {
        self.ready.load(Ordering::Acquire) == 1
    }

    /// Mark the data transfer complete (called when the read completion is
    /// processed).
    pub fn mark_ready(&self) {
        self.ready.store(1, Ordering::Release);
    }

    /// Current token held by the buffer.
    pub fn token(&self) -> PageToken {
        self.dma.load()
    }
}

/// Counters maintained by the Share Table.
#[derive(Debug, Default, Clone)]
pub struct ShareTableStats {
    /// Buffers registered (distinct sources claimed).
    pub registrations: u64,
    /// Lookups that found an existing buffer and shared its pointer.
    pub shared_hits: u64,
    /// Lookups that found nothing (fall back to the software cache).
    pub misses: u64,
    /// Buffers upgraded to Modified/Owned.
    pub modifications: u64,
    /// Write-backs signalled to owners on release.
    pub writebacks: u64,
    /// Entries removed.
    pub unregistrations: u64,
}

#[derive(Default)]
struct StatCells {
    registrations: AtomicU64,
    shared_hits: AtomicU64,
    misses: AtomicU64,
    modifications: AtomicU64,
    writebacks: AtomicU64,
    unregistrations: AtomicU64,
}

/// Result of releasing a reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReleaseOutcome {
    /// References remain; nothing to do.
    StillShared,
    /// Last reference dropped on a clean buffer; entry removed.
    Dropped,
    /// Last reference dropped on a dirty buffer: the caller (the owner) must
    /// propagate `token` back to the software cache / SSD for `(dev, lba)`.
    WritebackRequired {
        /// Device holding the page.
        dev: u32,
        /// Page address.
        lba: Lba,
        /// The dirty data to propagate.
        token: PageToken,
    },
}

/// The Share Table.
pub struct ShareTable {
    map: Mutex<HashMap<(u32, Lba), Arc<SharedBuf>>>,
    stats: StatCells,
}

impl ShareTable {
    /// An empty, unbounded Share Table.
    pub fn new() -> Self {
        ShareTable {
            map: Mutex::new(HashMap::new()),
            stats: StatCells::default(),
        }
    }

    /// Number of tracked buffers.
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// True when no buffers are tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ShareTableStats {
        ShareTableStats {
            registrations: self.stats.registrations.load(Ordering::Relaxed),
            shared_hits: self.stats.shared_hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            modifications: self.stats.modifications.load(Ordering::Relaxed),
            writebacks: self.stats.writebacks.load(Ordering::Relaxed),
            unregistrations: self.stats.unregistrations.load(Ordering::Relaxed),
        }
    }

    /// Register `owner`'s buffer (`dma`) as holding the data of `(dev, lba)`.
    ///
    /// Returns the tracked entry (state `Exclusive`, one reference). If the
    /// source is already tracked, the existing buffer is returned instead —
    /// the caller should use that pointer rather than its own copy (pointer
    /// sharing instead of duplication). The table is unbounded, so this is
    /// always `Some`; the `Option` stays because the benchmark package
    /// spells it.
    pub fn register(
        &self,
        dev: u32,
        lba: Lba,
        dma: DmaHandle,
        owner: u64,
    ) -> Option<Arc<SharedBuf>> {
        let mut map = self.map.lock();
        if let Some(existing) = map.get(&(dev, lba)) {
            existing.refs.fetch_add(1, Ordering::AcqRel);
            let _ = existing.state.compare_exchange(
                SharedBuf::encode(BufState::Exclusive),
                SharedBuf::encode(BufState::Shared),
                Ordering::AcqRel,
                Ordering::Relaxed,
            );
            let _ = existing.state.compare_exchange(
                SharedBuf::encode(BufState::Modified),
                SharedBuf::encode(BufState::Owned),
                Ordering::AcqRel,
                Ordering::Relaxed,
            );
            self.stats.shared_hits.fetch_add(1, Ordering::Relaxed);
            return Some(Arc::clone(existing));
        }
        let buf = Arc::new(SharedBuf {
            dev,
            lba,
            dma,
            state: AtomicU32::new(SharedBuf::encode(BufState::Exclusive)),
            refs: AtomicU32::new(1),
            ready: AtomicU32::new(0),
            owner: AtomicU64::new(owner),
        });
        map.insert((dev, lba), Arc::clone(&buf));
        self.stats.registrations.fetch_add(1, Ordering::Relaxed);
        Some(buf)
    }

    /// Look up the buffer holding `(dev, lba)`, taking a reference if found.
    /// Misses fall back to the software cache (and are counted).
    pub fn acquire(&self, dev: u32, lba: Lba) -> Option<Arc<SharedBuf>> {
        let map = self.map.lock();
        match map.get(&(dev, lba)) {
            Some(buf) => {
                buf.refs.fetch_add(1, Ordering::AcqRel);
                let _ = buf.state.compare_exchange(
                    SharedBuf::encode(BufState::Exclusive),
                    SharedBuf::encode(BufState::Shared),
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                );
                let _ = buf.state.compare_exchange(
                    SharedBuf::encode(BufState::Modified),
                    SharedBuf::encode(BufState::Owned),
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                );
                self.stats.shared_hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(buf))
            }
            None => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Record that `writer` modified the buffer holding `(dev, lba)` with
    /// `token`. The writer becomes the responsible owner and the state moves
    /// to `Modified` (sole reference) or `Owned` (shared).
    pub fn mark_modified(&self, dev: u32, lba: Lba, token: PageToken, writer: u64) -> bool {
        let map = self.map.lock();
        let Some(buf) = map.get(&(dev, lba)) else {
            return false;
        };
        buf.dma.store(token);
        buf.owner.store(writer, Ordering::Release);
        let new = if buf.refs() > 1 {
            BufState::Owned
        } else {
            BufState::Modified
        };
        buf.state.store(SharedBuf::encode(new), Ordering::Release);
        self.stats.modifications.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Drop one reference to `(dev, lba)`. When the last reference goes away
    /// the entry is removed; dirty buffers report the write-back obligation
    /// to the caller.
    pub fn release(&self, dev: u32, lba: Lba) -> ReleaseOutcome {
        let mut map = self.map.lock();
        let Some(buf) = map.get(&(dev, lba)) else {
            return ReleaseOutcome::Dropped;
        };
        let prev = buf.refs.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "release without a matching acquire/register");
        if prev > 1 {
            // Downgrade Shared→Exclusive / Owned→Modified when one ref remains.
            if prev == 2 {
                let _ = buf.state.compare_exchange(
                    SharedBuf::encode(BufState::Shared),
                    SharedBuf::encode(BufState::Exclusive),
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                );
                let _ = buf.state.compare_exchange(
                    SharedBuf::encode(BufState::Owned),
                    SharedBuf::encode(BufState::Modified),
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                );
            }
            return ReleaseOutcome::StillShared;
        }
        let dirty = matches!(buf.state(), BufState::Modified | BufState::Owned);
        let token = buf.dma.load();
        map.remove(&(dev, lba));
        self.stats.unregistrations.fetch_add(1, Ordering::Relaxed);
        if dirty {
            self.stats.writebacks.fetch_add(1, Ordering::Relaxed);
            ReleaseOutcome::WritebackRequired { dev, lba, token }
        } else {
            ReleaseOutcome::Dropped
        }
    }
}

impl Default for ShareTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_then_share_then_release() {
        let st = ShareTable::new();
        let dma = DmaHandle::with_token(PageToken(1));
        let a = st.register(0, 10, dma, 100).unwrap();
        assert_eq!(a.state(), BufState::Exclusive);
        assert_eq!(a.refs(), 1);
        assert_eq!(a.owner(), 100);

        // A second thread asks for the same source: it gets the SAME buffer.
        let b = st.acquire(0, 10).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.state(), BufState::Shared);
        assert_eq!(a.refs(), 2);

        assert_eq!(st.release(0, 10), ReleaseOutcome::StillShared);
        assert_eq!(
            a.state(),
            BufState::Exclusive,
            "downgrades when one ref remains"
        );
        assert_eq!(st.release(0, 10), ReleaseOutcome::Dropped);
        assert!(st.is_empty());
        let s = st.stats();
        assert_eq!(s.registrations, 1);
        assert_eq!(s.shared_hits, 1);
        assert_eq!(s.unregistrations, 1);
        assert_eq!(s.writebacks, 0);
    }

    #[test]
    fn modification_requires_writeback_on_last_release() {
        let st = ShareTable::new();
        st.register(0, 5, DmaHandle::new(), 7).unwrap();
        assert!(st.mark_modified(0, 5, PageToken(0xAB), 7));
        let entry = st.acquire(0, 5).unwrap();
        assert_eq!(entry.state(), BufState::Owned, "dirty + shared = Owned");
        assert_eq!(st.release(0, 5), ReleaseOutcome::StillShared);
        match st.release(0, 5) {
            ReleaseOutcome::WritebackRequired { dev, lba, token } => {
                assert_eq!((dev, lba, token), (0, 5, PageToken(0xAB)));
            }
            other => panic!("expected writeback, got {other:?}"),
        }
        assert_eq!(st.stats().writebacks, 1);
    }

    #[test]
    fn duplicate_registration_shares_the_pointer() {
        let st = ShareTable::new();
        let a = st
            .register(1, 3, DmaHandle::with_token(PageToken(9)), 1)
            .unwrap();
        let b = st
            .register(1, 3, DmaHandle::with_token(PageToken(10)), 2)
            .unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "second registration must not duplicate data"
        );
        // The original buffer's data wins; the second thread's private copy is unused.
        assert_eq!(a.token(), PageToken(9));
        assert_eq!(a.refs(), 2);
    }

    #[test]
    fn acquire_miss_counts() {
        let st = ShareTable::new();
        assert!(st.acquire(0, 99).is_none());
        assert_eq!(st.stats().misses, 1);
    }

    #[test]
    fn ready_flag_tracks_transfer_completion() {
        let st = ShareTable::new();
        let buf = st.register(0, 8, DmaHandle::new(), 3).unwrap();
        assert!(!buf.is_ready());
        buf.mark_ready();
        assert!(buf.is_ready());
    }

    #[test]
    fn concurrent_register_same_source_single_entry() {
        use std::thread;
        let st = Arc::new(ShareTable::new());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let st = Arc::clone(&st);
                thread::spawn(move || st.register(0, 77, DmaHandle::new(), t).is_some())
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap());
        }
        assert_eq!(st.len(), 1);
        let buf = st.acquire(0, 77).unwrap();
        assert_eq!(buf.refs(), 9, "8 registrations + this acquire");
        assert_eq!(st.stats().registrations, 1);
        assert_eq!(st.stats().shared_hits, 8);
    }
}
