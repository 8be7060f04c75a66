//! A deterministic event wheel.
//!
//! The SSD model (and any other latency-bearing device) schedules future work
//! as events: "command 17 completes at cycle 1_234_567". The co-simulation
//! engine pops all events whose timestamp is ≤ the current GPU clock before
//! letting warps make progress, so device completions become visible to GPU
//! threads exactly when they would on real hardware.
//!
//! Ties are broken by insertion order (a monotonically increasing sequence
//! number), which keeps runs deterministic regardless of heap internals.

use crate::clock::Cycles;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Scheduled<E> {
    at: Cycles,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event is popped first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A min-heap of timestamped events with deterministic tie-breaking.
pub struct EventWheel<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> Default for EventWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventWheel<E> {
    /// Create an empty wheel.
    pub fn new() -> Self {
        EventWheel {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Number of pending (not yet popped) events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `payload` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: Cycles, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, payload });
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<Cycles> {
        self.heap.peek().map(|s| s.at)
    }

    /// Pop every event with timestamp ≤ `now` onto the end of `out`, in
    /// timestamp order. Events scheduled while the caller works through
    /// `out` stay queued until the next call, even when already due.
    pub fn pop_ready_into(&mut self, now: Cycles, out: &mut Vec<(Cycles, E)>) {
        while self.heap.peek().is_some_and(|s| s.at <= now) {
            let s = self.heap.pop().expect("peeked");
            out.push((s.at, s.payload));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut w = EventWheel::new();
        w.schedule(Cycles(30), "c");
        w.schedule(Cycles(10), "a");
        w.schedule(Cycles(20), "b");
        assert_eq!(w.len(), 3);
        let mut ready = Vec::new();
        w.pop_ready_into(Cycles::MAX, &mut ready);
        assert_eq!(
            ready,
            vec![(Cycles(10), "a"), (Cycles(20), "b"), (Cycles(30), "c")]
        );
        assert!(w.is_empty());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut w = EventWheel::new();
        w.schedule(Cycles(5), 1u32);
        w.schedule(Cycles(5), 2u32);
        w.schedule(Cycles(5), 3u32);
        let mut ready = Vec::new();
        w.pop_ready_into(Cycles(5), &mut ready);
        let popped: Vec<u32> = ready.into_iter().map(|(_, p)| p).collect();
        assert_eq!(popped, vec![1, 2, 3]);
    }

    #[test]
    fn pop_ready_only_returns_due_events() {
        let mut w = EventWheel::new();
        w.schedule(Cycles(10), "early");
        w.schedule(Cycles(100), "late");
        let mut ready = Vec::new();
        w.pop_ready_into(Cycles(50), &mut ready);
        assert_eq!(ready, vec![(Cycles(10), "early")]);
        assert_eq!(w.len(), 1);
        assert_eq!(w.peek_time(), Some(Cycles(100)));
        w.pop_ready_into(Cycles(100), &mut ready);
        assert_eq!(ready, vec![(Cycles(10), "early"), (Cycles(100), "late")]);
        assert!(w.is_empty());
        assert_eq!(w.peek_time(), None);
    }

    #[test]
    fn large_volume_is_ordered() {
        let mut w = EventWheel::new();
        // Schedule in a scrambled but deterministic order.
        for i in 0..10_000u64 {
            let t = (i * 7919) % 10_007;
            w.schedule(Cycles(t), t);
        }
        let mut ready = Vec::new();
        w.pop_ready_into(Cycles::MAX, &mut ready);
        assert_eq!(ready.len(), 10_000);
        let mut last = 0;
        for (t, p) in ready {
            assert_eq!(t.raw(), p);
            assert!(t.raw() >= last);
            last = t.raw();
        }
    }
}
