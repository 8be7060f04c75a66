//! Regression test for the (fixed) ROADMAP "Known issue": **dirty-victim
//! loss under SQ pressure**.
//!
//! When a dirty eviction's write-back cannot be issued (every SQ full), the
//! cached access paths used to `abort_fill` the reserved line and drop the
//! write-back snapshot — at that point the victim's modified token existed
//! **nowhere** and a later read refilled stale data from the backing.
//!
//! The fix: `SoftwareCache::reinstate_victim` re-installs the victim's
//! tag + token (MODIFIED) when the write-back issue fails, so the
//! modification survives in the cache and the evicting request simply
//! retries. Both controllers run the one miss-service routine of `IoPath`;
//! this test drives the original deterministic repro through **every**
//! entry point that can evict, on both systems, and asserts the fixed
//! behaviour end to end: no dirty token is lost, nothing is left BUSY, and
//! the access succeeds once SQ pressure lifts.

use agile_repro::agile::transaction::Transaction;
use agile_repro::agile::{
    AgileConfig, AgileCtrl, IoPath, LineWait, ReadOutcome, StorageCtrl, WarpWait,
};
use agile_repro::bam::{BamConfig, BamCtrl};
use agile_repro::cache::{LineId, LineState, NO_TENANT};
use agile_repro::nvme::{DmaHandle, PageToken, QueuePair};
use agile_repro::sim::Cycles;
use std::sync::Arc;

/// One queue pair of the minimum depth, a one-set cache (8 ways), no device
/// behind the queues — issued commands stay in flight forever, which is the
/// tiny-SQ write-heavy pressure distilled to its deterministic core.
fn queues() -> Vec<Vec<Arc<QueuePair>>> {
    vec![vec![QueuePair::new(0, 32)]]
}

fn pressured_agile() -> Arc<AgileCtrl> {
    let cfg = AgileConfig::small_test()
        .with_queue_pairs(1)
        .with_queue_depth(32)
        .with_cache_bytes(8 * 4096);
    Arc::new(AgileCtrl::new(cfg, queues()))
}

fn pressured_bam() -> Arc<BamCtrl> {
    let cfg = BamConfig::small_test()
        .with_queue_pairs(1)
        .with_queue_depth(32)
        .with_cache_bytes(8 * 4096);
    Arc::new(BamCtrl::new(cfg, queues()))
}

/// The page every row's access targets: not resident, so it must evict.
const NEW: (u32, u64) = (0, 100);

/// One entry point: the controller it belongs to and its access to [`NEW`],
/// returning whether the access was *started* (fill issued / store landed).
struct Row {
    name: &'static str,
    ctrl: Arc<dyn StorageCtrl>,
    access: Box<dyn Fn(Cycles) -> bool>,
}

/// A read of a non-resident page reports `Pending` whether or not its fill
/// could be issued; "started" is that `read` met no all-SQs-full failure.
fn fill_went_out(io: &IoPath, read: impl FnOnce()) -> bool {
    let before = io.stats().sq_full_retries;
    read();
    io.stats().sq_full_retries == before
}

fn rows() -> Vec<Row> {
    let row = |name, ctrl: Arc<dyn StorageCtrl>, access| Row { name, ctrl, access };
    let (a1, a2, a3) = (pressured_agile(), pressured_agile(), pressured_agile());
    let (b1, b2) = (pressured_bam(), pressured_bam());
    vec![
        row("AGILE prefetch_warp", a1.clone(), {
            Box::new(move |now| a1.prefetch_warp(0, &[NEW], now).1.is_empty())
        }),
        row("AGILE read_warp", a2.clone(), {
            Box::new(move |now| {
                fill_went_out(a2.io(), || {
                    assert_eq!(
                        a2.read_warp(0, &[NEW], now, &mut WarpWait::new()).1,
                        ReadOutcome::Pending
                    );
                })
            })
        }),
        row("AGILE write_warp", a3.clone(), {
            Box::new(move |now| {
                a3.write_warp(
                    0,
                    NEW.0,
                    NEW.1,
                    PageToken(0xBEEF),
                    now,
                    &mut LineWait::default(),
                )
                .1
            })
        }),
        row("BaM read_warp_sync", b1.clone(), {
            Box::new(move |now| {
                fill_went_out(b1.io(), || {
                    assert_eq!(
                        b1.read_warp_sync(0, &[NEW], now, &mut WarpWait::new()).1,
                        ReadOutcome::Pending
                    );
                })
            })
        }),
        // The tenant-attributed store (formerly `write_warp_sync_as`).
        row("BaM io().write_warp as tenant 3", b2.clone(), {
            Box::new(move |now| {
                b2.io()
                    .write_warp(
                        0,
                        3,
                        NEW.0,
                        NEW.1,
                        PageToken(0xBEEF),
                        now,
                        &mut LineWait::default(),
                    )
                    .1
            })
        }),
    ]
}

fn dirty_token(lba: u64) -> PageToken {
    PageToken(0xD0_0000 + lba)
}

#[test]
fn dirty_victim_survives_write_back_issue_failure() {
    for Row { name, ctrl, access } in rows() {
        let io = ctrl.io();
        let cache = io.cache();

        // Dirty all 8 ways of the single set with distinct tokens.
        for lba in 1..=8u64 {
            let (_, ok) = io.write_warp(
                0,
                NO_TENANT,
                0,
                lba,
                dirty_token(lba),
                Cycles(0),
                &mut LineWait::default(),
            );
            assert!(ok, "{name}: priming store to lba {lba} must land");
            assert_eq!(cache.peek(0, lba), Some(dirty_token(lba)));
        }

        // Saturate the only SQ: 32 raw reads that never complete (no device).
        for i in 0..32u64 {
            let barrier = Default::default();
            let (_, issued) = io.raw_read(0, 0, 0, 1_000 + i, DmaHandle::new(), barrier, Cycles(0));
            assert!(issued);
        }
        let sq = &io.device_queues(0)[0];
        assert_eq!(sq.free_slots(), 0, "{name}: every SQ slot is in flight");

        // The access must evict a dirty victim; its write-back cannot issue.
        assert!(!access(Cycles(0)), "{name}: the access is asked to retry");
        assert_eq!(
            cache.stats().writebacks,
            1,
            "{name}: a write-back was attempted"
        );
        assert_eq!(
            io.stats().sq_full_retries,
            1,
            "{name}: and found every SQ full"
        );

        // THE FIX: the victim's dirty token was reinstated — every one of
        // the eight modified pages is still served from the cache.
        for lba in 1..=8u64 {
            assert_eq!(
                cache.peek(0, lba),
                Some(dirty_token(lba)),
                "{name}: dirty lba {lba} must survive the failed eviction"
            );
        }
        // The in-flight set is still exactly our 32 raw reads (no phantom
        // write-back), the new tag was never installed, no pin leaked and no
        // line is stuck BUSY.
        assert_eq!(sq.transactions().in_flight(), 32, "{name}");
        assert!(cache.peek(NEW.0, NEW.1).is_none(), "{name}: nothing landed");
        assert_eq!(cache.total_pins(), 0, "{name}");
        for line in 0..cache.num_lines() {
            assert_ne!(cache.state(LineId(line as u32)), LineState::Busy, "{name}");
        }

        // Reads of every reinstated page hit the cache — no stale refill is
        // issued (the SQ is still full, so a refill would be observable as
        // a retry, not a Ready).
        for lba in 1..=8u64 {
            let (_, outcome) =
                io.read_warp(0, NO_TENANT, &[(0, lba)], Cycles(0), &mut WarpWait::new());
            assert_eq!(
                outcome,
                ReadOutcome::Ready(vec![dirty_token(lba)]),
                "{name}: reinstated lba {lba} must read back its modified token"
            );
        }

        // Once SQ pressure lifts (two slots: the write-back, and the fill of
        // the read-type rows), the retried access evicts the victim properly.
        for cid in 0..2u16 {
            let _ = sq.queue_pair().sq.take_slot(cid as u32);
            let _ = sq.transactions().take(cid);
            sq.release(cid);
        }
        assert!(
            access(Cycles(1)),
            "{name}: the retry starts once slots free"
        );
        assert_eq!(cache.stats().writebacks, 2, "{name}: the write-back re-ran");
        // The evicted victim's modification is now in flight as a write-back
        // command, not lost: exactly one of the 8 pages left the cache, and
        // a WriteBack transaction occupies the first freed slot.
        let evicted = (1..=8).filter(|&l| cache.peek(0, l).is_none()).count();
        assert_eq!(evicted, 1, "{name}: exactly one dirty line was evicted");
        assert!(
            matches!(sq.transactions().take(0), Some(Transaction::WriteBack)),
            "{name}: the victim's modification is in flight as a write-back"
        );
    }
}
