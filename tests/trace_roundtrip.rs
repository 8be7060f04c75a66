//! Property-based tests over the trace wire formats: arbitrary events and
//! ops must survive record → serialize → parse byte-exactly, and corrupted
//! buffers must be rejected rather than misread.

use agile_repro::trace::{
    decode_events, encode_events, events_to_json_lines, Trace, TraceEvent, TraceEventKind,
    TraceFormatError, TraceMeta, TraceOp, TraceSpec,
};
use proptest::prelude::*;

/// Build a valid event from arbitrary raw fields.
fn event_from_raw(raw: (u64, u64, u32, u32, u16, u16, u8, bool)) -> TraceEvent {
    let (at, lba, dev, tenant, queue, cid, kind, write) = raw;
    let kind = TraceEventKind::ALL[kind as usize % TraceEventKind::ALL.len()];
    TraceEvent::new(kind, at)
        .target(dev, lba)
        .queue(queue, cid)
        .tenant(tenant)
        .write(write)
}

fn op_from_raw(raw: (u64, u32, u32, u32, bool)) -> TraceOp {
    let (lba, gap, tenant, dev, write) = raw;
    TraceOp {
        lba,
        gap,
        tenant,
        dev,
        write,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Event logs round-trip exactly through the binary format.
    #[test]
    fn event_log_roundtrips(raw in collection::vec(
        (any::<u64>(), any::<u64>(), any::<u32>(), any::<u32>(), any::<u16>(), any::<u16>(), any::<u8>(), any::<bool>()),
        1..300,
    )) {
        let events: Vec<TraceEvent> = raw.into_iter().map(event_from_raw).collect();
        let bytes = encode_events(&events);
        let decoded = decode_events(&bytes).expect("self-encoded log must parse");
        prop_assert_eq!(decoded, events.clone());
        // JSON debug dump is one line per event.
        prop_assert_eq!(events_to_json_lines(&events).lines().count(), events.len());
    }

    /// Replayable traces round-trip exactly, including metadata.
    #[test]
    fn trace_roundtrips(
        raw in collection::vec((any::<u64>(), any::<u32>(), any::<u32>(), any::<u32>(), any::<bool>()), 1..300),
        seed in any::<u64>(),
        devices in 1u32..8,
        name_tag in any::<u32>(),
    ) {
        let trace = Trace {
            meta: TraceMeta {
                name: format!("prop-{name_tag}"),
                seed,
                lba_space: 1 << 20,
                devices,
                tenants: 3,
            },
            ops: raw.into_iter().map(op_from_raw).collect(),
        };
        let bytes = trace.to_bytes();
        let back = Trace::from_bytes(&bytes).expect("self-encoded trace must parse");
        prop_assert_eq!(back, trace);
    }

    /// Truncating a serialized log anywhere inside the payload must produce
    /// `Truncated`, never a silently short parse.
    #[test]
    fn truncation_is_detected(cut_seed in any::<u64>()) {
        let events: Vec<TraceEvent> = (0..50u64)
            .map(|i| TraceEvent::new(TraceEventKind::Submit, i).target(0, i))
            .collect();
        let bytes = encode_events(&events);
        // Cut somewhere strictly inside the record region.
        let cut = 17 + (cut_seed as usize % (bytes.len() - 17));
        let result = decode_events(&bytes[..cut]);
        prop_assert!(
            matches!(result, Err(TraceFormatError::Truncated) | Err(TraceFormatError::BadMagic)),
            "truncated buffer parsed as {:?}", result
        );
    }

    /// Generation is a pure function of the spec: byte-identical traces for
    /// equal seeds, different op streams for different seeds.
    #[test]
    fn generation_determinism(seed in any::<u64>(), ops in 64u64..512) {
        let a = TraceSpec::multi_tenant("prop-mt", seed, 2, 1 << 14, ops).generate();
        let b = TraceSpec::multi_tenant("prop-mt", seed, 2, 1 << 14, ops).generate();
        prop_assert_eq!(a.to_bytes(), b.to_bytes());
        let c = TraceSpec::multi_tenant("prop-mt", seed ^ 1, 2, 1 << 14, ops).generate();
        prop_assert_ne!(a.ops, c.ops);
    }
}

#[test]
fn bad_magic_and_version_are_rejected() {
    let trace = TraceSpec::uniform("t", 1, 1, 1024, 16).generate();
    let mut bytes = trace.to_bytes();
    let mut wrong_magic = bytes.clone();
    wrong_magic[0] = b'Z';
    assert_eq!(
        Trace::from_bytes(&wrong_magic),
        Err(TraceFormatError::BadMagic)
    );
    bytes[4] = 0xFF;
    assert!(matches!(
        Trace::from_bytes(&bytes),
        Err(TraceFormatError::UnsupportedVersion(_))
    ));
}

#[test]
fn shared_timestamp_submits_order_by_tenant_then_sequence() {
    // Two tenants submit at the same instant. Multi-producer captures only
    // guarantee per-producer ordering, so the interleave at a shared
    // timestamp is a race; `from_events` must canonicalise on
    // (time, tenant, capture sequence) instead of silently inheriting it.
    let tie = |tenant: u32, lba: u64| {
        TraceEvent::new(TraceEventKind::Submit, 500)
            .target(0, lba)
            .tenant(tenant)
    };
    let one_order = vec![
        TraceEvent::new(TraceEventKind::Submit, 100)
            .target(0, 1)
            .tenant(0),
        tie(3, 30),
        tie(0, 10),
        tie(3, 31),
    ];
    let other_order = vec![
        TraceEvent::new(TraceEventKind::Submit, 100)
            .target(0, 1)
            .tenant(0),
        tie(0, 10),
        tie(3, 30),
        tie(3, 31),
    ];
    let a = Trace::from_events("race-a", &one_order);
    let b = Trace::from_events("race-b", &other_order);
    // Same ops in the same canonical order, whatever the capture interleave.
    assert_eq!(a.ops, b.ops);
    let order: Vec<(u32, u64)> = a.ops.iter().map(|o| (o.tenant, o.lba)).collect();
    assert_eq!(
        order,
        vec![(0, 1), (0, 10), (3, 30), (3, 31)],
        "ties order by tenant, same-tenant ties by capture sequence"
    );
    // Gaps reconstructed per tenant on the canonical order.
    assert_eq!(a.ops[1].gap, 400, "tenant 0: 500 - 100");
    assert_eq!(a.ops[2].gap, 500, "tenant 3's first submit");
    assert_eq!(a.ops[3].gap, 0, "tenant 3's same-instant follow-up");
    // And the derived trace round-trips exactly through the wire format.
    assert_eq!(Trace::from_bytes(&a.to_bytes()).unwrap(), a);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `from_events` is insensitive to how a capture interleaved different
    /// tenants at equal timestamps: any permutation that preserves each
    /// tenant's own order yields the identical replayable trace, and the
    /// result round-trips through the binary format.
    #[test]
    fn from_events_is_capture_race_insensitive(
        raw in collection::vec((0u64..50, 0u32..4, any::<u64>(), any::<bool>()), 1..120),
        rotate in any::<usize>(),
    ) {
        let events: Vec<TraceEvent> = raw
            .iter()
            .map(|&(at, tenant, lba, write)| {
                TraceEvent::new(TraceEventKind::Submit, at)
                    .target(0, lba)
                    .tenant(tenant)
                    .write(write)
            })
            .collect();
        // A per-tenant-order-preserving shuffle: stable-sort by timestamp
        // with the tenant ids rotated, which permutes cross-tenant ties
        // without reordering any single tenant's stream.
        let mut shuffled = events.clone();
        shuffled.sort_by_key(|e| (e.at, (e.tenant as usize + rotate) % 4));
        let a = Trace::from_events("orig", &events);
        let b = Trace::from_events("shuf", &shuffled);
        prop_assert_eq!(&a.ops, &b.ops);
        prop_assert_eq!(Trace::from_bytes(&a.to_bytes()).expect("parses"), a);
    }
}

#[test]
fn captured_events_become_replayable_ops() {
    let events = vec![
        TraceEvent::new(TraceEventKind::Submit, 1_000)
            .target(0, 10)
            .tenant(1),
        TraceEvent::new(TraceEventKind::DeviceCompletion, 90_000).target(0, 10),
        TraceEvent::new(TraceEventKind::Submit, 5_000)
            .target(1, 20)
            .tenant(2)
            .write(true),
    ];
    let trace = Trace::from_events("cap", &events);
    assert_eq!(trace.ops.len(), 2, "only submits become ops");
    assert_eq!(trace.ops[0].gap, 1_000);
    // Gaps are reconstructed per tenant: tenant 2's first submit is paced
    // from capture start, not from tenant 1's submit.
    assert_eq!(trace.ops[1].gap, 5_000);
    assert_eq!(trace.meta.devices, 2);
    assert!(trace.ops[1].write);
}

/// Format v5: the cache path records untenanted lookups with the
/// `NO_TENANT` sentinel (`u32::MAX`) in the event's `tenant` field, while a
/// genuine tenant 0 keeps recording as 0 — the two are distinguishable in a
/// capture, and the sentinel survives the binary round trip unchanged.
#[test]
fn untenanted_cache_lookups_carry_the_sentinel_not_tenant_zero() {
    use agile_repro::cache::{CacheConfig, ClockPolicy, SoftwareCache, NO_TENANT};
    use agile_repro::trace::MemorySink;
    use std::sync::Arc;

    assert_eq!(NO_TENANT, u32::MAX);
    let cache = SoftwareCache::new(
        CacheConfig::with_capacity(64 * 4096),
        Box::new(ClockPolicy::new()),
    );
    let sink = Arc::new(MemorySink::new());
    assert!(cache.set_trace_sink(Arc::clone(&sink) as Arc<_>));
    // One lookup attributed to tenant 0, one untenanted.
    let _ = cache.lookup_or_reserve_as(0, 10, 0);
    let _ = cache.lookup_or_reserve(0, 20);
    let events = sink.events();
    let tenant_of = |lba: u64| {
        events
            .iter()
            .find(|e| e.lba == lba)
            .expect("lookup was recorded")
            .tenant
    };
    assert_eq!(tenant_of(10), 0, "an explicit tenant 0 stays 0");
    assert_eq!(
        tenant_of(20),
        NO_TENANT,
        "untenanted lookups must not masquerade as tenant 0"
    );
    // The sentinel is an ordinary u32 on the wire: encode → decode keeps the
    // distinction byte-exactly.
    let decoded = decode_events(&encode_events(&events)).expect("self-encoded log parses");
    assert_eq!(decoded, events);
}
