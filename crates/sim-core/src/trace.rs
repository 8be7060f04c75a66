//! The trace hook: a lightweight event type and sink trait the simulators
//! record into.
//!
//! Every layer of the stack (the AGILE controller and service, the NVMe
//! device completion path, the software cache) carries an optional
//! `Arc<dyn TraceSink>` installed via a `set_trace_sink` method. The hook is
//! designed so recording is effectively free when disabled:
//!
//! * the sink lives in a [`std::sync::OnceLock`], so the disabled fast path
//!   is a single relaxed-ish atomic load and branch;
//! * [`TraceEvent`] is a small `Copy` struct, built only after the sink
//!   presence check passes;
//! * sinks are `&self` recorders, so producers never serialize on a lock the
//!   hook owns (richer sinks such as `agile-trace`'s `MemorySink` manage
//!   their own interior mutability).
//!
//! The rich machinery — serializable formats, synthetic generators, replay —
//! lives in the `agile-trace` crate; this module only defines the vocabulary
//! the producers need, keeping the dependency arrow pointing upward.

use std::fmt;

/// What happened, at one point of the I/O stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum TraceEventKind {
    /// An NVMe command was written into an SQ slot (GPU side).
    Submit = 0,
    /// An SQ tail doorbell was rung (GPU side).
    Doorbell = 1,
    /// The device posted a CQE for a command (SSD side).
    DeviceCompletion = 2,
    /// The AGILE service (or a BaM user thread) processed a completion.
    ServiceCompletion = 3,
    /// Software-cache lookup hit valid data.
    CacheHit = 4,
    /// Software-cache lookup missed and reserved a line.
    CacheMiss = 5,
    /// Software-cache lookup coalesced onto an in-flight fill (BUSY).
    CacheBusy = 6,
    /// Software-cache lookup found no usable way (all pinned/busy).
    CacheNoLine = 7,
    /// A dirty victim line was written back.
    Writeback = 8,
    /// The QoS scheduler deferred a tenant's submission (the admission gate
    /// said no before the SQ-slot claim; a later `Submit` for the same target
    /// means the retry was admitted).
    QosDefer = 9,
    /// The control plane changed a knob: `dev` carries the knob kind,
    /// `lba` the new value, `tenant` the affected tenant (or `u32::MAX`
    /// for global knobs such as the prefetch depth).
    CtrlDecision = 10,
}

impl TraceEventKind {
    /// All kinds, in wire order.
    pub const ALL: [TraceEventKind; 11] = [
        TraceEventKind::Submit,
        TraceEventKind::Doorbell,
        TraceEventKind::DeviceCompletion,
        TraceEventKind::ServiceCompletion,
        TraceEventKind::CacheHit,
        TraceEventKind::CacheMiss,
        TraceEventKind::CacheBusy,
        TraceEventKind::CacheNoLine,
        TraceEventKind::Writeback,
        TraceEventKind::QosDefer,
        TraceEventKind::CtrlDecision,
    ];

    /// Wire encoding of the kind.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Decode a wire value.
    pub fn from_u8(v: u8) -> Option<TraceEventKind> {
        TraceEventKind::ALL.get(v as usize).copied()
    }

    /// Short lowercase label (used by the JSON debug dump).
    pub fn label(self) -> &'static str {
        match self {
            TraceEventKind::Submit => "submit",
            TraceEventKind::Doorbell => "doorbell",
            TraceEventKind::DeviceCompletion => "device_completion",
            TraceEventKind::ServiceCompletion => "service_completion",
            TraceEventKind::CacheHit => "cache_hit",
            TraceEventKind::CacheMiss => "cache_miss",
            TraceEventKind::CacheBusy => "cache_busy",
            TraceEventKind::CacheNoLine => "cache_no_line",
            TraceEventKind::Writeback => "writeback",
            TraceEventKind::QosDefer => "qos_defer",
            TraceEventKind::CtrlDecision => "ctrl_decision",
        }
    }
}

impl fmt::Display for TraceEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One fixed-width trace record.
///
/// Fields that do not apply to a kind are zero (e.g. `cid` for cache events).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceEvent {
    /// Sim-clock timestamp in GPU cycles.
    pub at: u64,
    /// Logical block address (4 KiB page index) the event concerns.
    pub lba: u64,
    /// Device index.
    pub dev: u32,
    /// Issuing tenant / flat warp index, where known.
    pub tenant: u32,
    /// Queue-pair index within the device.
    pub queue: u16,
    /// NVMe command identifier, where one exists.
    pub cid: u16,
    /// Event kind.
    pub kind: TraceEventKind,
    /// True for writes, false for reads (meaningful for I/O kinds).
    pub write: bool,
}

impl TraceEvent {
    /// A zeroed event of the given kind at time `at` (builder-style helpers
    /// fill the rest).
    pub fn new(kind: TraceEventKind, at: u64) -> Self {
        TraceEvent {
            at,
            lba: 0,
            dev: 0,
            tenant: 0,
            queue: 0,
            cid: 0,
            kind,
            write: false,
        }
    }

    /// Set the `(device, lba)` target.
    pub fn target(mut self, dev: u32, lba: u64) -> Self {
        self.dev = dev;
        self.lba = lba;
        self
    }

    /// Set the queue-pair index and command id.
    pub fn queue(mut self, queue: u16, cid: u16) -> Self {
        self.queue = queue;
        self.cid = cid;
        self
    }

    /// Set the issuing tenant / warp.
    pub fn tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }

    /// Mark the event as a write.
    pub fn write(mut self, write: bool) -> Self {
        self.write = write;
        self
    }
}

/// A consumer of trace events. Implementations must be cheap and `&self`
/// (producers record from hot paths, potentially from several threads).
pub trait TraceSink: Send + Sync {
    /// Record one event.
    fn record(&self, ev: TraceEvent);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_wire_roundtrip() {
        for kind in TraceEventKind::ALL {
            assert_eq!(TraceEventKind::from_u8(kind.as_u8()), Some(kind));
            assert!(!kind.label().is_empty());
        }
        assert_eq!(TraceEventKind::from_u8(200), None);
    }

    #[test]
    fn builder_fills_fields() {
        let ev = TraceEvent::new(TraceEventKind::Submit, 42)
            .target(3, 77)
            .queue(1, 9)
            .tenant(5)
            .write(true);
        assert_eq!(ev.at, 42);
        assert_eq!((ev.dev, ev.lba), (3, 77));
        assert_eq!((ev.queue, ev.cid), (1, 9));
        assert_eq!(ev.tenant, 5);
        assert!(ev.write);
        assert_eq!(ev.kind, TraceEventKind::Submit);
    }
}
