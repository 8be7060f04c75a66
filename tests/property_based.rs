//! Property-based tests (proptest) over the core data structures' invariants
//! (the software cache, the Share Table and the SQE lock protocol) and over
//! the decoders of the trace and metrics formats, which must reject damaged
//! input with an error rather than panic.

use agile_repro::agile::sq_protocol::{AgileSq, SqeState};
use agile_repro::agile::transaction::Transaction;
use agile_repro::cache::{
    CacheConfig, CacheLookup, ClockPolicy, ShareTable, SoftwareCache, TenantShare, NO_TENANT,
};
use agile_repro::metrics::{Labels, MetricsRegistry, MetricsSnapshot};
use agile_repro::nvme::{DmaHandle, NvmeCommand, PageToken, QueuePair};
use agile_repro::sim::Cycles;
use agile_repro::trace::{
    decode_events, encode_events, Trace, TraceEvent, TraceEventKind, TraceMeta, TraceOp,
};
use proptest::prelude::*;

/// Drive an arbitrary sequence of lookups/fills/unpins against a small cache
/// and check the structural invariants after every step. With
/// `tenant_share` the cache evicts by 1:2 tenant shares and every lookup is
/// made for tenant `lba % 2`, so victims are chosen while other tenants'
/// reservations are still open (`BUSY`, pinned).
fn cache_invariants(ops: Vec<(u8, u64)>, tenant_share: bool) {
    let policy: Box<dyn agile_repro::cache::CachePolicy> = if tenant_share {
        Box::new(TenantShare::from_weights(&[1, 2]))
    } else {
        Box::new(ClockPolicy::new())
    };
    let cache = SoftwareCache::new(
        CacheConfig {
            capacity_bytes: 32 * 4096,
            associativity: 4,
        },
        policy,
    );
    let tenant_of = |lba: u64| {
        if tenant_share {
            (lba % 2) as u32
        } else {
            NO_TENANT
        }
    };
    let mut reserved: Vec<agile_repro::cache::LineId> = Vec::new();
    for (op, lba) in ops {
        let lba = lba % 64;
        match op % 3 {
            0 => match cache.lookup_or_reserve_as(0, lba, tenant_of(lba)) {
                CacheLookup::Hit { line, .. } => cache.unpin(line),
                CacheLookup::Miss { line, dma, .. } => {
                    dma.store(PageToken(lba));
                    reserved.push(line);
                }
                CacheLookup::Busy { .. } | CacheLookup::NoLineAvailable => {}
            },
            1 => {
                if let Some(line) = reserved.pop() {
                    cache.complete_fill(line);
                    cache.unpin(line);
                }
            }
            _ => {
                // peek never disturbs state
                let _ = cache.peek(0, lba);
            }
        }
        // Invariant: pins never exceed reservations we still hold (each
        // outstanding reservation holds exactly one pin).
        assert!(cache.total_pins() as usize >= reserved.len());
        // Invariant: tenants own no more lines than the cache has.
        let owned: u64 = cache.tenant_stats().iter().map(|t| t.occupancy).sum();
        assert!(owned <= cache.num_lines() as u64, "{owned} lines owned");
    }
    // Finish every outstanding fill; afterwards no pins may remain.
    for line in reserved.drain(..) {
        cache.complete_fill(line);
        cache.unpin(line);
    }
    assert_eq!(cache.total_pins(), 0, "pins must balance");
    let s = cache.stats();
    assert!(s.hits + s.misses + s.busy_hits + s.no_line > 0 || s.writebacks == 0);
}

/// Valid encodings of every decoded format: an event log, a replayable
/// trace, and one metrics snapshot as JSON and as Prometheus text.
fn valid_encodings() -> [Vec<u8>; 4] {
    let events: Vec<TraceEvent> = (0..4u64)
        .map(|i| {
            TraceEvent::new(TraceEventKind::ALL[i as usize], 100 * i)
                .target(i as u32, 7 * i)
                .queue(1, i as u16)
                .tenant(2)
                .write(i % 2 == 1)
        })
        .collect();
    let trace = Trace {
        meta: TraceMeta {
            name: "robustness".into(),
            seed: 9,
            lba_space: 1 << 20,
            devices: 2,
            tenants: 3,
        },
        ops: (0..4u64)
            .map(|i| TraceOp {
                lba: 1000 * i,
                gap: 17 * i as u32,
                tenant: i as u32 % 3,
                dev: i as u32 % 2,
                write: i == 3,
            })
            .collect(),
    };
    let reg = MetricsRegistry::new();
    reg.counter("agile_submit_admissions_total", Labels::NONE)
        .add(42);
    reg.gauge("agile_engine_ready_queue_high_water", Labels::NONE)
        .set(17);
    let h = reg.histo("agile_replay_latency_cycles", Labels::tenant(1));
    for v in [5u64, 70, 4_000, 1 << 22] {
        h.record(v);
    }
    let snap = reg.snapshot();
    [
        encode_events(&events),
        trace.to_bytes(),
        snap.to_json().into_bytes(),
        snap.to_prometheus().into_bytes(),
    ]
}

/// Feed `bytes` to every decoder; each returns `Ok` or `Err`, and a panic
/// fails the test.
fn decode_all(bytes: &[u8]) {
    let _ = decode_events(bytes);
    let _ = Trace::from_bytes(bytes);
    let text = String::from_utf8_lossy(bytes);
    let _ = MetricsSnapshot::from_json(&text);
    let _ = MetricsSnapshot::from_prometheus(&text);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes, and single-byte edits of valid encodings, make every
    /// decoder return an error or a value, never panic.
    #[test]
    fn decoders_never_panic_on_damaged_input(
        noise in proptest::collection::vec(any::<u8>(), 0..256),
        edits in proptest::collection::vec((any::<u32>(), any::<u8>()), 64..65),
    ) {
        decode_all(&noise);
        let valid = valid_encodings();
        prop_assert!(decode_events(&valid[0]).is_ok());
        prop_assert!(Trace::from_bytes(&valid[1]).is_ok());
        prop_assert!(MetricsSnapshot::from_json(std::str::from_utf8(&valid[2]).unwrap()).is_ok());
        prop_assert!(
            MetricsSnapshot::from_prometheus(std::str::from_utf8(&valid[3]).unwrap()).is_ok()
        );
        for encoding in &valid {
            for &(at, byte) in &edits {
                let mut damaged = encoding.clone();
                damaged[at as usize % encoding.len()] = byte;
                decode_all(&damaged);
            }
        }
    }

    #[test]
    fn cache_never_leaks_pins_clock(ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..200)) {
        cache_invariants(ops, false);
    }

    #[test]
    fn cache_never_leaks_pins_tenant_share(ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..200)) {
        cache_invariants(ops, true);
    }

    /// The cache must never return two different owners for the same page's
    /// fill, and a completed fill must serve subsequent hits with the token
    /// that was DMA'd in.
    #[test]
    fn cache_read_after_fill_returns_written_token(lbas in proptest::collection::vec(0u64..32, 1..40)) {
        let cache = SoftwareCache::new(CacheConfig::with_capacity(256 * 4096), Box::new(ClockPolicy::new()));
        for lba in lbas {
            match cache.lookup_or_reserve(0, lba) {
                CacheLookup::Miss { line, dma, .. } => {
                    dma.store(PageToken(0xF00 + lba));
                    cache.complete_fill(line);
                    cache.unpin(line);
                }
                CacheLookup::Hit { line, token } => {
                    prop_assert_eq!(token, PageToken(0xF00 + lba));
                    cache.unpin(line);
                }
                CacheLookup::Busy { .. } | CacheLookup::NoLineAvailable => {}
            }
        }
    }

    /// Share-Table registrations and releases always balance and never lose a
    /// write-back obligation.
    #[test]
    fn share_table_refcounts_balance(ops in proptest::collection::vec((0u8..4, 0u64..16), 1..200)) {
        let st = ShareTable::new();
        let mut live: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
        let mut dirty: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for (op, lba) in ops {
            match op {
                0 => {
                    if st.register(0, lba, DmaHandle::new(), 7).is_some() {
                        *live.entry(lba).or_insert(0) += 1;
                    }
                }
                1 => {
                    if st.acquire(0, lba).is_some() {
                        *live.entry(lba).or_insert(0) += 1;
                    }
                }
                2 => {
                    if live.get(&lba).copied().unwrap_or(0) > 0
                        && st.mark_modified(0, lba, PageToken(lba), 7) {
                        dirty.insert(lba);
                    }
                }
                _ => {
                    if live.get(&lba).copied().unwrap_or(0) > 0 {
                        let outcome = st.release(0, lba);
                        let count = live.get_mut(&lba).unwrap();
                        *count -= 1;
                        if *count == 0 {
                            // Last release: dirty buffers must demand a write-back.
                            use agile_repro::cache::share_table::ReleaseOutcome;
                            let was_writeback =
                                matches!(outcome, ReleaseOutcome::WritebackRequired { .. });
                            let was_dropped = matches!(outcome, ReleaseOutcome::Dropped);
                            if dirty.remove(&lba) {
                                prop_assert!(was_writeback, "dirty buffer must demand write-back");
                            } else {
                                prop_assert!(was_dropped, "clean buffer must simply drop");
                            }
                        }
                    }
                }
            }
        }
        // Entries remain only for sources we still hold references to.
        let with_refs = live.values().filter(|&&c| c > 0).count();
        prop_assert_eq!(st.len(), with_refs);
    }

    /// The SQE protocol never hands the same slot to two commands, never
    /// exceeds the ring depth, and always recycles released slots.
    #[test]
    fn sq_protocol_slot_discipline(releases in proptest::collection::vec(any::<bool>(), 1..120)) {
        let sq = AgileSq::new(QueuePair::new(0, 16));
        let mut outstanding: Vec<u16> = Vec::new();
        for release_first in releases {
            if release_first && !outstanding.is_empty() {
                let cid = outstanding.remove(0);
                // Device fetch + service completion.
                let _ = sq.queue_pair().sq.take_slot(cid as u32);
                let _ = sq.transactions().take(cid);
                sq.release(cid);
                prop_assert_eq!(sq.slot_state(cid as u32), SqeState::Empty);
            }
            let dma = DmaHandle::new();
            if let Some(receipt) = sq.try_issue(
                move |cid| NvmeCommand::read(cid, 1, dma.clone()),
                Transaction::WriteBack,
                Cycles(0),
            ) {
                prop_assert!(!outstanding.contains(&receipt.cid), "CID handed out twice");
                outstanding.push(receipt.cid);
            } else {
                prop_assert_eq!(outstanding.len(), 16, "issue may only fail when the ring is full");
            }
            prop_assert!(outstanding.len() <= 16);
            prop_assert_eq!(sq.free_slots() as usize, 16 - outstanding.len());
        }
    }
}
