//! Cache line state.
//!
//! Each software-cache line mirrors the paper's four states (§3.4):
//!
//! * `INVALID` — the line holds no data;
//! * `BUSY` — an NVMe read (fill) or write-back for the line is in flight;
//! * `READY` — the line holds clean data;
//! * `MODIFIED` — the line holds dirty data that must be written back on
//!   eviction.
//!
//! A [`Way`] is that state word and nothing else: the line's tag, owner,
//! pin count and DMA slot live in the cache's flat per-line arrays, and all
//! but the DMA slot are plain values under the cache lock.
//!
//! The state shares its word with a **reservation generation**: the state
//! sits in the low two bits and the generation above them, bumped on every
//! entry into `BUSY`. The word is written only under the cache lock but read
//! without it: a BUSY line can be neither evicted nor re-tagged, so a
//! waiter that remembers the generation it saw can tell from one load of the
//! word that the fill it is waiting on is still the one in flight
//! ([`Way::busy_in`]) — without the lock or a tag scan.

use std::sync::atomic::{AtomicU32, Ordering};

/// The four line states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum LineState {
    /// No valid data.
    Invalid = 0,
    /// A fill or write-back is in flight.
    Busy = 1,
    /// Clean, valid data.
    Ready = 2,
    /// Dirty data; must be written back before reuse.
    Modified = 3,
}

impl LineState {
    fn from_u32(v: u32) -> LineState {
        match v {
            0 => LineState::Invalid,
            1 => LineState::Busy,
            2 => LineState::Ready,
            3 => LineState::Modified,
            _ => unreachable!("invalid line state encoding {v}"),
        }
    }

    /// True when the line holds data that can be served to readers.
    pub fn is_valid_data(self) -> bool {
        matches!(self, LineState::Ready | LineState::Modified)
    }
}

/// Bits of the state word holding the [`LineState`]; the rest is the
/// reservation generation.
const STATE_BITS: u32 = 2;
const STATE_MASK: u32 = (1 << STATE_BITS) - 1;

/// `word` moved to state `to`: entering `BUSY` starts the next generation
/// (wrapping at 30 bits), any other state keeps the current one.
fn with_state(word: u32, to: LineState) -> u32 {
    let generation = word & !STATE_MASK;
    match to {
        LineState::Busy => generation.wrapping_add(1 << STATE_BITS) | to as u32,
        _ => generation | to as u32,
    }
}

/// One cache way (line): its state word.
#[derive(Debug)]
pub struct Way {
    /// [`LineState`] in the low [`STATE_BITS`], reservation generation above.
    state: AtomicU32,
}

impl Default for Way {
    fn default() -> Self {
        Self::new()
    }
}

impl Way {
    /// A fresh, invalid line.
    pub fn new() -> Self {
        Way {
            state: AtomicU32::new(LineState::Invalid as u32),
        }
    }

    /// Current state.
    pub fn state(&self) -> LineState {
        LineState::from_u32(self.state.load(Ordering::Acquire) & STATE_MASK)
    }

    /// Unconditionally set the state (the caller holds the cache lock).
    /// Returns the line's reservation generation, which setting `BUSY` has
    /// just advanced.
    pub fn set_state(&self, s: LineState) -> u32 {
        let word = with_state(self.state.load(Ordering::Relaxed), s);
        self.state.store(word, Ordering::Release);
        word >> STATE_BITS
    }

    /// Transition `from → to` (the caller holds the cache lock, so nothing
    /// writes the word in between). Returns false, changing nothing, if the
    /// current state was not `from`.
    pub fn transition(&self, from: LineState, to: LineState) -> bool {
        let word = self.state.load(Ordering::Relaxed);
        let ok = word & STATE_MASK == from as u32;
        if ok {
            self.state.store(with_state(word, to), Ordering::Release);
        }
        ok
    }

    /// The current reservation generation: how many times the line has
    /// entered `BUSY` (modulo 2³⁰).
    pub fn generation(&self) -> u32 {
        self.state.load(Ordering::Acquire) >> STATE_BITS
    }

    /// True while the line is still `BUSY` in reservation `generation` —
    /// the fill (or write-back) that started then has neither completed nor
    /// been abandoned, so the line still holds the same tag. One load.
    pub fn busy_in(&self, generation: u32) -> bool {
        self.state.load(Ordering::Acquire) == generation << STATE_BITS | LineState::Busy as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_roundtrip() {
        for s in [
            LineState::Invalid,
            LineState::Busy,
            LineState::Ready,
            LineState::Modified,
        ] {
            assert_eq!(LineState::from_u32(s as u32), s);
        }
        assert!(LineState::Ready.is_valid_data());
        assert!(LineState::Modified.is_valid_data());
        assert!(!LineState::Busy.is_valid_data());
        assert!(!LineState::Invalid.is_valid_data());
    }

    #[test]
    fn transitions_are_atomic_and_checked() {
        let w = Way::new();
        assert_eq!(w.state(), LineState::Invalid);
        assert!(w.transition(LineState::Invalid, LineState::Busy));
        assert!(!w.transition(LineState::Invalid, LineState::Busy));
        assert!(w.transition(LineState::Busy, LineState::Ready));
        w.set_state(LineState::Modified);
        assert_eq!(w.state(), LineState::Modified);
    }

    #[test]
    fn every_entry_into_busy_starts_a_new_generation() {
        let w = Way::new();
        assert_eq!(w.generation(), 0);
        assert_eq!(w.set_state(LineState::Busy), 1);
        assert!(w.busy_in(1));
        // Leaving BUSY keeps the generation but ends the reservation.
        assert!(w.transition(LineState::Busy, LineState::Ready));
        assert_eq!((w.state(), w.generation()), (LineState::Ready, 1));
        assert!(!w.busy_in(1));
        assert_eq!(w.set_state(LineState::Modified), 1);
        // Re-reserved: BUSY again, but not the reservation ticket 1 names.
        assert!(w.transition(LineState::Modified, LineState::Busy));
        assert_eq!(w.state(), LineState::Busy);
        assert!(!w.busy_in(1));
        assert!(w.busy_in(2));
        // A failed transition changes nothing.
        assert!(!w.transition(LineState::Ready, LineState::Busy));
        assert!(w.busy_in(2));
    }

    #[test]
    fn generation_wraps_without_touching_the_state() {
        let w = Way::new();
        w.state.store(!STATE_MASK, Ordering::Relaxed); // the last generation, INVALID
        assert_eq!(w.state(), LineState::Invalid);
        assert_eq!(w.set_state(LineState::Busy), 0);
        assert_eq!(w.state(), LineState::Busy);
        assert!(w.busy_in(0));
    }
}
