//! Doorbell registers.
//!
//! In the real system the SQ tail doorbells live in the SSD's PCIe BAR, which
//! AGILE maps into the GPU's address space with `cudaHostRegister(...,
//! cudaHostRegisterIoMemory)` so device threads can ring them directly
//! (paper §3.1). Here a doorbell is an atomic register plus a timestamped
//! event queue the device model drains when the engine advances it: the value
//! is visible immediately (like a posted MMIO write) but the device only acts
//! on it after its command-fetch latency.
//!
//! Once its queue pair is registered, a doorbell also counts every ring into
//! its device's [`IdleGate`], so the device learns that *some* doorbell has
//! an unobserved ring from one atomic load instead of polling each register.

use crate::device::IdleGate;
use agile_sim::Cycles;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

/// A single 32-bit doorbell register with a ring log.
pub struct DoorbellRegister {
    value: AtomicU32,
    rings: Mutex<VecDeque<(Cycles, u32)>>,
    ring_count: AtomicU32,
    /// Rings logged and not drained yet (counted before logging, like the
    /// gate's count), so draining a register nobody rang takes no lock.
    pending: AtomicU32,
    /// The owning device's gate, attached when the queue pair is registered.
    gate: OnceLock<Arc<IdleGate>>,
}

impl Default for DoorbellRegister {
    fn default() -> Self {
        Self::new()
    }
}

impl DoorbellRegister {
    /// A doorbell initialised to zero.
    pub fn new() -> Self {
        DoorbellRegister {
            value: AtomicU32::new(0),
            rings: Mutex::new(VecDeque::new()),
            ring_count: AtomicU32::new(0),
            pending: AtomicU32::new(0),
            gate: OnceLock::new(),
        }
    }

    /// Count this doorbell's rings into `gate` from now on (rings already
    /// logged are carried over). Called once, when the owning device
    /// registers the queue pair, before the simulation rings anything.
    /// Returns `false` if a gate was already attached.
    pub(crate) fn attach(&self, gate: &Arc<IdleGate>) -> bool {
        let fresh = self.gate.set(Arc::clone(gate)).is_ok();
        let logged = self.rings.lock().len() as u64;
        if fresh && logged > 0 {
            // Their times are in the log, not here: "as early as possible".
            gate.add_pending_rings(logged, Cycles(0));
        }
        fresh
    }

    /// Ring the doorbell: store `value` at simulated time `now`.
    pub fn ring(&self, value: u32, now: Cycles) {
        self.value.store(value, Ordering::Release);
        // Counted *before* it is logged: the gate's count may briefly run
        // ahead of the log (one wasted device advance) but never behind it,
        // so a logged ring is never invisible and the drain never underflows.
        if let Some(gate) = self.gate.get() {
            gate.add_pending_rings(1, now);
        }
        self.pending.fetch_add(1, Ordering::AcqRel);
        self.rings.lock().push_back((now, value));
        self.ring_count.fetch_add(1, Ordering::Relaxed);
    }

    /// The last value written (what the register currently reads).
    pub fn value(&self) -> u32 {
        self.value.load(Ordering::Acquire)
    }

    /// Device side: hand every pending `(ring time, value)` to `sink` in
    /// FIFO order. The log stays locked while `sink` runs, so `sink` must not
    /// ring this doorbell.
    pub fn drain(&self, mut sink: impl FnMut(Cycles, u32)) {
        if self.pending.load(Ordering::Acquire) == 0 {
            return;
        }
        let mut rings = self.rings.lock();
        let drained = rings.len() as u64;
        for (at, value) in rings.drain(..) {
            sink(at, value);
        }
        drop(rings);
        if drained > 0 {
            self.pending.fetch_sub(drained as u32, Ordering::AcqRel);
            if let Some(gate) = self.gate.get() {
                gate.sub_pending_rings(drained);
            }
        }
    }

    /// Total number of times the doorbell has been rung.
    pub fn ring_count(&self) -> u32 {
        self.ring_count.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(db: &DoorbellRegister) -> Vec<(Cycles, u32)> {
        let mut out = Vec::new();
        db.drain(|at, value| out.push((at, value)));
        out
    }

    #[test]
    fn ring_and_drain() {
        let db = DoorbellRegister::new();
        assert_eq!(db.value(), 0);
        db.ring(3, Cycles(100));
        db.ring(7, Cycles(200));
        assert_eq!(db.value(), 7);
        assert_eq!(db.ring_count(), 2);
        assert_eq!(drain_all(&db), vec![(Cycles(100), 3), (Cycles(200), 7)]);
        assert!(drain_all(&db).is_empty());
        // Value persists after drain.
        assert_eq!(db.value(), 7);
    }

    #[test]
    fn attach_carries_over_rings_logged_before_registration() {
        let db = DoorbellRegister::new();
        db.ring(1, Cycles(5));
        let gate = Arc::new(IdleGate::default());
        assert!(db.attach(&gate));
        assert!(!db.attach(&gate), "the first gate wins");
        assert_eq!(gate.pending_rings(), 1);
        db.ring(2, Cycles(6));
        assert_eq!(gate.pending_rings(), 2);
        assert_eq!(drain_all(&db).len(), 2);
        assert_eq!(gate.pending_rings(), 0);
    }

    #[test]
    fn concurrent_rings_are_all_observed() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;
        use std::thread;
        const RINGERS: u32 = 4;
        const RINGS_EACH: u32 = 1_000;
        let db = DoorbellRegister::new();
        let gate = Arc::new(IdleGate::default());
        db.attach(&gate);
        let start = Barrier::new(RINGERS as usize + 1);
        let ringing_done = AtomicBool::new(false);
        // Four ringers race one drainer; the barrier releases all five at
        // once so the drainer pops while rings are still being counted.
        let drained = thread::scope(|scope| {
            let ringers: Vec<_> = (0..RINGERS)
                .map(|t| {
                    let (db, start) = (&db, &start);
                    scope.spawn(move || {
                        start.wait();
                        for i in 0..RINGS_EACH {
                            db.ring(t * RINGS_EACH + i, Cycles(i as u64));
                        }
                    })
                })
                .collect();
            let drainer = scope.spawn(|| {
                start.wait();
                let mut seen = Vec::new();
                loop {
                    // Read the flag first: a drain that starts after the
                    // last ring returned finds everything still logged.
                    let last_pass = ringing_done.load(Ordering::Acquire);
                    db.drain(|_, value| seen.push(value));
                    // An underflow would wrap to a huge count.
                    assert!(gate.pending_rings() <= (RINGERS * RINGS_EACH) as u64);
                    if last_pass {
                        return seen;
                    }
                }
            });
            for r in ringers {
                r.join().expect("ringer panicked");
            }
            ringing_done.store(true, Ordering::Release);
            drainer.join().expect("drainer panicked")
        });
        assert_eq!(db.ring_count(), RINGERS * RINGS_EACH);
        // Every ring was drained exactly once.
        let mut values = drained;
        values.sort_unstable();
        assert_eq!(values, (0..RINGERS * RINGS_EACH).collect::<Vec<_>>());
        assert_eq!(gate.pending_rings(), 0);
        assert!(drain_all(&db).is_empty());
    }
}
