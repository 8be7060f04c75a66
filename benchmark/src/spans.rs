//! Simulated-time spans, joined from the captured event log — and, because a
//! join that fails is a lost or duplicated I/O, the conservation check behind
//! the traced run's `failed` count.
//!
//! One NVMe command is the chain `Submit → Doorbell → DeviceCompletion →
//! ServiceCompletion`, identified by `(dev, queue, cid)`. Command ids are
//! recycled once the service releases the SQE, so the join is a state machine
//! per key over the log in record order. A `Doorbell` event is only recorded
//! by the submit that actually rang it; it covers every earlier submit on the
//! same queue that is still waiting for one.

use agile_repro::trace::{LatencyHistogram, TraceEvent, TraceEventKind};
use std::collections::HashMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    dev: u32,
    queue: u16,
    cid: u16,
}

struct Open {
    write: bool,
    submit_at: u64,
    doorbell_at: Option<u64>,
    device_at: Option<u64>,
}

/// What the join found.
#[derive(Debug, Default, Clone)]
pub struct JoinReport {
    /// `Submit` events seen.
    pub submits: u64,
    /// Submits that were reads / writes.
    pub reads: u64,
    pub writes: u64,
    /// Commands with exactly one device and one service completion.
    pub joined: u64,
    /// Submits whose key was submitted again while still open, that were
    /// picked up without a device completion, or — reads only — that were
    /// still open when the log ended.
    pub orphan_submits: u64,
    /// Writes still in flight when the log ended: dirty write-backs the run
    /// does not wait for. Reported, not a violation.
    pub writes_in_flight_at_end: u64,
    /// Completions with no open submit, or a second one for the same command.
    pub stray_completions: u64,
    /// Submit → the doorbell that published it (cycles).
    pub submit_to_doorbell: LatencyHistogram,
    /// Doorbell → device CQE (cycles): queueing + flash service in the device.
    pub device_service: LatencyHistogram,
    /// Device CQE → service completion (cycles): how long a finished command
    /// waited for the AGILE service (or a BaM polling thread) to pick it up.
    pub service_pickup: LatencyHistogram,
}

impl JoinReport {
    /// Commands the log does not conserve: each is a failed operation.
    pub fn violations(&self) -> u64 {
        self.orphan_submits + self.stray_completions
    }
}

/// Join an event log (in record order) into per-command stage spans.
pub fn join(events: &[TraceEvent]) -> JoinReport {
    let mut report = JoinReport::default();
    let mut open: HashMap<Key, Open> = HashMap::new();
    // Submits per (dev, queue) still waiting for the doorbell that covers them.
    let mut undoorbelled: HashMap<(u32, u16), Vec<u16>> = HashMap::new();
    for ev in events {
        let key = Key {
            dev: ev.dev,
            queue: ev.queue,
            cid: ev.cid,
        };
        match ev.kind {
            TraceEventKind::Submit => {
                report.submits += 1;
                if ev.write {
                    report.writes += 1;
                } else {
                    report.reads += 1;
                }
                let fresh = Open {
                    write: ev.write,
                    submit_at: ev.at,
                    doorbell_at: None,
                    device_at: None,
                };
                if open.insert(key, fresh).is_some() {
                    report.orphan_submits += 1;
                }
                undoorbelled
                    .entry((ev.dev, ev.queue))
                    .or_default()
                    .push(ev.cid);
            }
            TraceEventKind::Doorbell => {
                for cid in undoorbelled.remove(&(ev.dev, ev.queue)).unwrap_or_default() {
                    if let Some(cmd) = open.get_mut(&Key { cid, ..key }) {
                        cmd.doorbell_at.get_or_insert(ev.at);
                    }
                }
            }
            TraceEventKind::DeviceCompletion => match open.get_mut(&key) {
                Some(cmd) if cmd.device_at.is_none() => cmd.device_at = Some(ev.at),
                _ => report.stray_completions += 1,
            },
            TraceEventKind::ServiceCompletion => match open.remove(&key) {
                Some(Open {
                    submit_at,
                    doorbell_at,
                    device_at: Some(device_at),
                    ..
                }) => {
                    report.joined += 1;
                    let doorbell_at = doorbell_at.unwrap_or(submit_at);
                    report
                        .submit_to_doorbell
                        .record(doorbell_at.saturating_sub(submit_at));
                    report
                        .device_service
                        .record(device_at.saturating_sub(doorbell_at));
                    report
                        .service_pickup
                        .record(ev.at.saturating_sub(device_at));
                }
                // Picked up without a device completion, or never submitted.
                Some(_) => report.orphan_submits += 1,
                None => report.stray_completions += 1,
            },
            _ => {}
        }
    }
    for cmd in open.values() {
        if cmd.write {
            report.writes_in_flight_at_end += 1;
        } else {
            report.orphan_submits += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: TraceEventKind, at: u64, queue: u16, cid: u16) -> TraceEvent {
        TraceEvent::new(kind, at).target(0, 9).queue(queue, cid)
    }

    #[test]
    fn joins_a_chain_and_flags_an_orphan_submit() {
        use TraceEventKind::*;
        let log = vec![
            // Command (q0, cid 1): submitted without ringing; the doorbell of
            // cid 2 publishes both.
            ev(Submit, 100, 0, 1),
            ev(Submit, 110, 0, 2).write(true),
            ev(Doorbell, 110, 0, 2),
            ev(DeviceCompletion, 500, 0, 1),
            ev(DeviceCompletion, 520, 0, 2),
            ev(ServiceCompletion, 600, 0, 1),
            ev(ServiceCompletion, 600, 0, 2),
            // cid 1 is recycled and completes again: still one chain each.
            ev(Submit, 700, 0, 1),
            ev(Doorbell, 700, 0, 1),
            ev(DeviceCompletion, 900, 0, 1),
            ev(ServiceCompletion, 950, 0, 1),
            // Orphan: a read submitted on queue 3, never completed.
            ev(Submit, 1_000, 3, 7),
            // A write-back still in flight when the run ends is not one.
            ev(Submit, 1_010, 3, 8).write(true),
        ];
        let r = join(&log);
        assert_eq!(r.submits, 5);
        assert_eq!((r.reads, r.writes), (3, 2));
        assert_eq!(r.joined, 3);
        assert_eq!(r.orphan_submits, 1);
        assert_eq!(r.writes_in_flight_at_end, 1);
        assert_eq!(r.stray_completions, 0);
        assert_eq!(r.violations(), 1);
        assert_eq!(r.submit_to_doorbell.count(), 3);
        // cid 1 waited 10 cycles for cid 2's doorbell; the others rang at once.
        assert_eq!(r.submit_to_doorbell.max(), Some(10));
        assert_eq!(r.service_pickup.max(), Some(100));
    }

    #[test]
    fn flags_stray_and_duplicate_completions() {
        use TraceEventKind::*;
        let log = vec![
            ev(ServiceCompletion, 10, 0, 1),
            ev(Submit, 20, 0, 2),
            ev(Doorbell, 20, 0, 2),
            ev(DeviceCompletion, 30, 0, 2),
            ev(DeviceCompletion, 31, 0, 2),
            ev(ServiceCompletion, 40, 0, 2),
            // cid 3 is submitted twice without completing in between.
            ev(Submit, 50, 0, 3),
            ev(Submit, 60, 0, 3),
            ev(Doorbell, 60, 0, 3),
            ev(DeviceCompletion, 70, 0, 3),
            ev(ServiceCompletion, 80, 0, 3),
        ];
        let r = join(&log);
        assert_eq!(r.joined, 2);
        assert_eq!(r.stray_completions, 2);
        assert_eq!(r.orphan_submits, 1);
    }
}
