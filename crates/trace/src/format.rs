//! Versioned, serializable trace formats.
//!
//! Two record families share the same design: a fixed header (magic, format
//! version, record count) followed by fixed-width little-endian records, so
//! readers can validate, size and iterate without an allocation per record.
//!
//! * **Event logs** — raw [`TraceEvent`] telemetry captured from the
//!   simulators ([`encode_events`] / [`decode_events`]).
//!   Magic `AGEV`, 32-byte records.
//! * **Replayable traces** — a [`Trace`]: metadata plus an ordered list of
//!   [`TraceOp`] requests ([`Trace::to_bytes`] / [`Trace::from_bytes`] /
//!   [`TraceOpReader`]). Magic `AGTR`, 24-byte records.
//!
//! Both come with a human-readable JSON debug dump
//! ([`events_to_json_lines`], [`Trace::to_json`]); JSON is write-only, the
//! binary form is the interchange format.

use agile_sim::trace::{TraceEvent, TraceEventKind};
use std::fmt;

/// Magic for serialized event logs.
pub const EVENT_LOG_MAGIC: [u8; 4] = *b"AGEV";
/// Magic for serialized replayable traces.
pub const TRACE_MAGIC: [u8; 4] = *b"AGTR";
/// Current version of both wire formats, written by the encoders. Version
/// history: 1 = initial; 2 = the `QosDefer` event kind joined the event-kind
/// space (record layouts unchanged); 3 = cache-path events (`CacheHit`/
/// `CacheMiss`/`CacheBusy`/`CacheNoLine`/`Writeback`) carry the requesting
/// tenant in the already-present `tenant` field instead of zero (record
/// layouts again unchanged — the bump marks the semantic change so readers
/// comparing cache events across captures know which convention a log used);
/// 4 = the `CtrlDecision` event kind joined the event-kind space (the control
/// plane's knob changes: `dev` = knob kind, `lba` = new value, `tenant` = the
/// affected tenant or `u32::MAX` for global knobs; record layouts unchanged);
/// 5 = **untenanted** cache-path events carry the `u32::MAX` sentinel in the
/// `tenant` field instead of 0, so they can no longer be conflated with the
/// real tenant 0 in multi-tenant captures (record layouts unchanged — the
/// field was always a full u32).
/// Readers accept any version up to the current one — an old reader handed a
/// newer log fails with the explicit
/// [`TraceFormatError::UnsupportedVersion`] rather than a confusing
/// misreading of the record stream.
pub const FORMAT_VERSION: u16 = 5;

const EVENT_RECORD_BYTES: usize = 32;
const OP_RECORD_BYTES: usize = 24;
const HEADER_BYTES: usize = 16; // magic(4) + version(2) + reserved(2) + count(8)

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceFormatError {
    /// The buffer does not start with the expected magic bytes.
    BadMagic,
    /// The format version is newer than this reader understands.
    UnsupportedVersion(u16),
    /// The buffer ended before the declared record count was read.
    Truncated,
    /// An event record carried an unknown kind byte.
    BadKind(u8),
    /// A metadata string was not valid UTF-8.
    BadString,
}

impl fmt::Display for TraceFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFormatError::BadMagic => write!(f, "bad magic bytes"),
            TraceFormatError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            TraceFormatError::Truncated => write!(f, "buffer truncated"),
            TraceFormatError::BadKind(k) => write!(f, "unknown event kind {k}"),
            TraceFormatError::BadString => write!(f, "invalid UTF-8 in metadata string"),
        }
    }
}

impl std::error::Error for TraceFormatError {}

fn write_header(out: &mut Vec<u8>, magic: [u8; 4], count: u64) {
    out.extend_from_slice(&magic);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&[0u8; 2]);
    out.extend_from_slice(&count.to_le_bytes());
}

fn read_header(buf: &[u8], magic: [u8; 4]) -> Result<(u64, &[u8]), TraceFormatError> {
    if buf.len() < HEADER_BYTES {
        return Err(if buf.get(..4).map(|m| m == magic) == Some(true) {
            TraceFormatError::Truncated
        } else {
            TraceFormatError::BadMagic
        });
    }
    if buf[..4] != magic {
        return Err(TraceFormatError::BadMagic);
    }
    let version = u16::from_le_bytes([buf[4], buf[5]]);
    if version == 0 || version > FORMAT_VERSION {
        return Err(TraceFormatError::UnsupportedVersion(version));
    }
    let count = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
    Ok((count, &buf[HEADER_BYTES..]))
}

// ---------------------------------------------------------------------------
// Event logs
// ---------------------------------------------------------------------------

/// Serialize an event log to the compact binary form.
pub fn encode_events(events: &[TraceEvent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + events.len() * EVENT_RECORD_BYTES);
    write_header(&mut out, EVENT_LOG_MAGIC, events.len() as u64);
    for ev in events {
        out.extend_from_slice(&ev.at.to_le_bytes());
        out.extend_from_slice(&ev.lba.to_le_bytes());
        out.extend_from_slice(&ev.dev.to_le_bytes());
        out.extend_from_slice(&ev.tenant.to_le_bytes());
        out.extend_from_slice(&ev.queue.to_le_bytes());
        out.extend_from_slice(&ev.cid.to_le_bytes());
        out.push(ev.kind.as_u8());
        out.push(ev.write as u8);
        out.extend_from_slice(&[0u8; 2]);
    }
    out
}

/// Iterator-based reader over a serialized event log.
struct EventReader<'a> {
    body: &'a [u8],
    remaining: u64,
}

impl<'a> EventReader<'a> {
    /// Validate the header and position the reader at the first record.
    fn new(buf: &'a [u8]) -> Result<Self, TraceFormatError> {
        let (count, body) = read_header(buf, EVENT_LOG_MAGIC)?;
        Ok(EventReader {
            body,
            remaining: count,
        })
    }
}

impl Iterator for EventReader<'_> {
    type Item = Result<TraceEvent, TraceFormatError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        if self.body.len() < EVENT_RECORD_BYTES {
            self.remaining = 0;
            return Some(Err(TraceFormatError::Truncated));
        }
        let r = &self.body[..EVENT_RECORD_BYTES];
        self.body = &self.body[EVENT_RECORD_BYTES..];
        self.remaining -= 1;
        let kind = match TraceEventKind::from_u8(r[28]) {
            Some(k) => k,
            None => {
                self.remaining = 0;
                return Some(Err(TraceFormatError::BadKind(r[28])));
            }
        };
        Some(Ok(TraceEvent {
            at: u64::from_le_bytes(r[0..8].try_into().expect("8 bytes")),
            lba: u64::from_le_bytes(r[8..16].try_into().expect("8 bytes")),
            dev: u32::from_le_bytes(r[16..20].try_into().expect("4 bytes")),
            tenant: u32::from_le_bytes(r[20..24].try_into().expect("4 bytes")),
            queue: u16::from_le_bytes([r[24], r[25]]),
            cid: u16::from_le_bytes([r[26], r[27]]),
            kind,
            write: r[29] != 0,
        }))
    }
}

/// Decode a whole event log at once.
pub fn decode_events(buf: &[u8]) -> Result<Vec<TraceEvent>, TraceFormatError> {
    EventReader::new(buf)?.collect()
}

/// Render an event log as JSON lines (one object per event) for debugging.
pub fn events_to_json_lines(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&format!(
            "{{\"at\":{},\"kind\":\"{}\",\"dev\":{},\"lba\":{},\"queue\":{},\"cid\":{},\"tenant\":{},\"write\":{}}}\n",
            ev.at, ev.kind.label(), ev.dev, ev.lba, ev.queue, ev.cid, ev.tenant, ev.write
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Replayable traces
// ---------------------------------------------------------------------------

/// One replayable I/O request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceOp {
    /// 4 KiB page index within the device.
    pub lba: u64,
    /// Think-time in GPU cycles between the previous op (trace order) and
    /// this one becoming eligible to issue.
    pub gap: u32,
    /// Issuing tenant id (used for per-tenant attribution and fairness work).
    pub tenant: u32,
    /// Target device index.
    pub dev: u32,
    /// True for a write, false for a read.
    pub write: bool,
}

/// Metadata describing a replayable trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// Human-readable trace name (workload + parameters).
    pub name: String,
    /// Seed the trace was generated with (zero for captured traces).
    pub seed: u64,
    /// LBA space the ops were drawn from (pages per device).
    pub lba_space: u64,
    /// Number of devices the ops target.
    pub devices: u32,
    /// Number of distinct tenants.
    pub tenants: u32,
}

/// A replayable trace: metadata plus ordered requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Descriptive metadata.
    pub meta: TraceMeta,
    /// The requests, in issue order.
    pub ops: Vec<TraceOp>,
}

impl Trace {
    /// Total read ops.
    pub fn reads(&self) -> u64 {
        self.ops.iter().filter(|o| !o.write).count() as u64
    }

    /// Total write ops.
    pub fn writes(&self) -> u64 {
        self.ops.iter().filter(|o| o.write).count() as u64
    }

    /// Serialize to the compact binary form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let name = self.meta.name.as_bytes();
        assert!(name.len() <= u16::MAX as usize, "trace name too long");
        let mut out = Vec::with_capacity(
            HEADER_BYTES + 2 + name.len() + 24 + self.ops.len() * OP_RECORD_BYTES,
        );
        write_header(&mut out, TRACE_MAGIC, self.ops.len() as u64);
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name);
        out.extend_from_slice(&self.meta.seed.to_le_bytes());
        out.extend_from_slice(&self.meta.lba_space.to_le_bytes());
        out.extend_from_slice(&self.meta.devices.to_le_bytes());
        out.extend_from_slice(&self.meta.tenants.to_le_bytes());
        for op in &self.ops {
            out.extend_from_slice(&op.lba.to_le_bytes());
            out.extend_from_slice(&op.gap.to_le_bytes());
            out.extend_from_slice(&op.tenant.to_le_bytes());
            out.extend_from_slice(&op.dev.to_le_bytes());
            out.push(op.write as u8);
            out.extend_from_slice(&[0u8; 3]);
        }
        out
    }

    /// Deserialize from the compact binary form.
    pub fn from_bytes(buf: &[u8]) -> Result<Trace, TraceFormatError> {
        let (count, body) = read_header(buf, TRACE_MAGIC)?;
        if body.len() < 2 {
            return Err(TraceFormatError::Truncated);
        }
        let name_len = u16::from_le_bytes([body[0], body[1]]) as usize;
        let body = &body[2..];
        if body.len() < name_len + 24 {
            return Err(TraceFormatError::Truncated);
        }
        let name = std::str::from_utf8(&body[..name_len])
            .map_err(|_| TraceFormatError::BadString)?
            .to_string();
        let m = &body[name_len..name_len + 24];
        let meta = TraceMeta {
            name,
            seed: u64::from_le_bytes(m[0..8].try_into().expect("8 bytes")),
            lba_space: u64::from_le_bytes(m[8..16].try_into().expect("8 bytes")),
            devices: u32::from_le_bytes(m[16..20].try_into().expect("4 bytes")),
            tenants: u32::from_le_bytes(m[20..24].try_into().expect("4 bytes")),
        };
        let reader = TraceOpReader {
            body: &body[name_len + 24..],
            remaining: count,
        };
        let ops = reader.collect::<Result<Vec<_>, _>>()?;
        Ok(Trace { meta, ops })
    }

    /// JSON debug dump: one metadata object, then one line per op.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"name\":\"{}\",\"seed\":{},\"lba_space\":{},\"devices\":{},\"tenants\":{},\"ops\":{}}}\n",
            self.meta.name.replace('"', "'"),
            self.meta.seed,
            self.meta.lba_space,
            self.meta.devices,
            self.meta.tenants,
            self.ops.len()
        );
        for op in &self.ops {
            out.push_str(&format!(
                "{{\"gap\":{},\"tenant\":{},\"dev\":{},\"lba\":{},\"write\":{}}}\n",
                op.gap, op.tenant, op.dev, op.lba, op.write
            ));
        }
        out
    }

    /// Derive a replayable trace from a captured event log: every
    /// [`TraceEventKind::Submit`] becomes one op, with gaps reconstructed
    /// **per tenant** — each op's think time is the distance to *that
    /// tenant's* previous submit, not to whichever tenant happened to submit
    /// last globally. Replay charges gaps to the issuing warp, so per-tenant
    /// reconstruction preserves each tenant's original pacing even when the
    /// capture interleaved many tenants.
    ///
    /// Submits are ordered by the key `(time, tenant, capture sequence)`
    /// before reconstruction. Multi-producer captures only guarantee
    /// per-producer ordering, so two tenants sharing a timestamp can arrive
    /// interleaved either way; without the canonical sort the resulting op
    /// order (and thus the replay) silently depended on that race, while
    /// same-tenant ties keep their capture sequence.
    pub fn from_events(name: &str, events: &[TraceEvent]) -> Trace {
        let mut ops = Vec::new();
        let mut last_at_by_tenant: std::collections::HashMap<u32, u64> =
            std::collections::HashMap::new();
        let mut max_dev = 0u32;
        let mut max_lba = 0u64;
        let mut max_tenant = 0u32;
        let mut submits: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| e.kind == TraceEventKind::Submit)
            .collect();
        // Stable sort ⇒ effective key (at, tenant, capture sequence).
        submits.sort_by_key(|e| (e.at, e.tenant));
        for ev in submits {
            let last_at = last_at_by_tenant.entry(ev.tenant).or_insert(0);
            let gap = ev.at.saturating_sub(*last_at).min(u32::MAX as u64) as u32;
            *last_at = ev.at;
            max_dev = max_dev.max(ev.dev);
            max_lba = max_lba.max(ev.lba);
            max_tenant = max_tenant.max(ev.tenant);
            ops.push(TraceOp {
                lba: ev.lba,
                gap,
                tenant: ev.tenant,
                dev: ev.dev,
                write: ev.write,
            });
        }
        Trace {
            meta: TraceMeta {
                name: name.to_string(),
                seed: 0,
                lba_space: max_lba + 1,
                devices: max_dev + 1,
                tenants: max_tenant + 1,
            },
            ops,
        }
    }
}

/// Iterator-based reader over serialized trace ops.
pub struct TraceOpReader<'a> {
    body: &'a [u8],
    remaining: u64,
}

impl<'a> TraceOpReader<'a> {
    /// Records left to read.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }
}

impl Iterator for TraceOpReader<'_> {
    type Item = Result<TraceOp, TraceFormatError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        if self.body.len() < OP_RECORD_BYTES {
            self.remaining = 0;
            return Some(Err(TraceFormatError::Truncated));
        }
        let r = &self.body[..OP_RECORD_BYTES];
        self.body = &self.body[OP_RECORD_BYTES..];
        self.remaining -= 1;
        Some(Ok(TraceOp {
            lba: u64::from_le_bytes(r[0..8].try_into().expect("8 bytes")),
            gap: u32::from_le_bytes(r[8..12].try_into().expect("4 bytes")),
            tenant: u32::from_le_bytes(r[12..16].try_into().expect("4 bytes")),
            dev: u32::from_le_bytes(r[16..20].try_into().expect("4 bytes")),
            write: r[20] != 0,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::new(TraceEventKind::Submit, 100)
                .target(0, 7)
                .queue(1, 3)
                .tenant(2),
            TraceEvent::new(TraceEventKind::Doorbell, 110).queue(1, 3),
            TraceEvent::new(TraceEventKind::DeviceCompletion, 90_000)
                .target(0, 7)
                .queue(1, 3)
                .write(true),
            TraceEvent::new(TraceEventKind::CacheMiss, 95).target(1, u64::MAX),
        ]
    }

    #[test]
    fn event_log_roundtrip() {
        let events = sample_events();
        let bytes = encode_events(&events);
        assert_eq!(decode_events(&bytes).unwrap(), events);
    }

    #[test]
    fn event_log_rejects_corruption() {
        let events = sample_events();
        let mut bytes = encode_events(&events);
        assert_eq!(
            decode_events(&bytes[..bytes.len() - 1]),
            Err(TraceFormatError::Truncated)
        );
        bytes[0] = b'X';
        assert_eq!(decode_events(&bytes), Err(TraceFormatError::BadMagic));
        let mut vers = encode_events(&events);
        vers[4] = 99;
        assert_eq!(
            decode_events(&vers),
            Err(TraceFormatError::UnsupportedVersion(99))
        );
        let mut kinds = encode_events(&events);
        kinds[HEADER_BYTES + 28] = 250;
        assert_eq!(decode_events(&kinds), Err(TraceFormatError::BadKind(250)));
    }

    #[test]
    fn older_format_versions_still_parse() {
        // The checked-in golden traces were written at versions 1 through 4;
        // the v5 reader must keep accepting them (record layouts are
        // unchanged), while versions from the future stay rejected.
        let events = sample_events();
        for old in [1u16, 2, 3, 4] {
            let mut bytes = encode_events(&events);
            bytes[4..6].copy_from_slice(&old.to_le_bytes());
            assert_eq!(decode_events(&bytes).unwrap(), events, "version {old}");
        }
        let mut v6 = encode_events(&events);
        v6[4..6].copy_from_slice(&6u16.to_le_bytes());
        assert_eq!(
            decode_events(&v6),
            Err(TraceFormatError::UnsupportedVersion(6))
        );
        let mut v0 = encode_events(&events);
        v0[4..6].copy_from_slice(&0u16.to_le_bytes());
        assert_eq!(
            decode_events(&v0),
            Err(TraceFormatError::UnsupportedVersion(0))
        );
    }

    #[test]
    fn trace_roundtrip() {
        let trace = Trace {
            meta: TraceMeta {
                name: "unit-test".to_string(),
                seed: 9,
                lba_space: 1 << 20,
                devices: 2,
                tenants: 3,
            },
            ops: vec![
                TraceOp {
                    lba: 5,
                    gap: 0,
                    tenant: 0,
                    dev: 0,
                    write: false,
                },
                TraceOp {
                    lba: u64::MAX,
                    gap: u32::MAX,
                    tenant: 2,
                    dev: 1,
                    write: true,
                },
            ],
        };
        let bytes = trace.to_bytes();
        assert_eq!(Trace::from_bytes(&bytes).unwrap(), trace);
        assert_eq!(trace.reads(), 1);
        assert_eq!(trace.writes(), 1);
    }

    #[test]
    fn trace_from_events_reconstructs_gaps_per_tenant() {
        let events = vec![
            TraceEvent::new(TraceEventKind::Submit, 100)
                .target(0, 1)
                .tenant(0),
            TraceEvent::new(TraceEventKind::CacheHit, 150).target(0, 1),
            // A different tenant submits in between: tenant 0's next gap must
            // still be measured against its *own* previous submit.
            TraceEvent::new(TraceEventKind::Submit, 400)
                .target(1, 9)
                .tenant(3)
                .write(true),
            TraceEvent::new(TraceEventKind::Submit, 450)
                .target(0, 2)
                .tenant(0),
            TraceEvent::new(TraceEventKind::Submit, 460)
                .target(1, 3)
                .tenant(3),
        ];
        let trace = Trace::from_events("captured", &events);
        assert_eq!(trace.ops.len(), 4);
        // First submit of each tenant: distance from capture start.
        assert_eq!(trace.ops[0].gap, 100);
        assert_eq!(trace.ops[1].gap, 400);
        assert!(trace.ops[1].write);
        // Subsequent submits: distance from the same tenant's previous one
        // (not from the globally-previous submit).
        assert_eq!(trace.ops[2].gap, 350, "tenant 0: 450 - 100");
        assert_eq!(trace.ops[3].gap, 60, "tenant 3: 460 - 400");
        assert_eq!(trace.meta.devices, 2);
        assert_eq!(trace.meta.tenants, 4);
    }

    #[test]
    fn json_dumps_are_line_per_record() {
        let events = sample_events();
        let dump = events_to_json_lines(&events);
        assert_eq!(dump.lines().count(), events.len());
        assert!(dump.contains("\"kind\":\"device_completion\""));
        let trace = Trace::from_events("t", &events);
        let tj = trace.to_json();
        assert_eq!(tj.lines().count(), 1 + trace.ops.len());
    }
}
