//! The sleepers waiting for `BUSY` lines to leave that state.

use crate::cache::{BusyTicket, LineId};
use crate::line::Way;
use agile_sim::wake::{SleeperId, WakeHub};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// `(ticket, sleeper)` entries chained by line into a fixed set of buckets,
/// each entry removed — and its sleeper notified — by the first
/// [`SoftwareCache::complete_fill`](crate::SoftwareCache::complete_fill) /
/// [`abort_fill`](crate::SoftwareCache::abort_fill) /
/// [`reinstate_victim`](crate::SoftwareCache::reinstate_victim) of its line.
/// Several warps may wait on one line; an entry whose sleeper was woken by
/// something else in the meantime just notifies nobody.
pub(crate) struct LineWatchers {
    hub: Arc<WakeHub>,
    /// Live entries, so the fill path of a cache nobody sleeps on pays one
    /// load. Raised *before* a watcher checks its ticket and read *after* a
    /// fill changes the state word (both `SeqCst`): either the fill sees
    /// the entry or the watcher sees the dead ticket.
    len: AtomicUsize,
    table: Mutex<WatchTable>,
}

impl LineWatchers {
    pub(crate) fn new(hub: Arc<WakeHub>) -> Self {
        LineWatchers {
            hub,
            len: AtomicUsize::new(0),
            table: Mutex::new(WatchTable::new()),
        }
    }

    /// Register `(ticket, sleeper)` if `way`, the ticket's line, is still
    /// `BUSY` in the ticket's reservation; returns whether it is.
    pub(crate) fn watch(&self, ticket: BusyTicket, sleeper: SleeperId, way: &Way) -> bool {
        self.len.fetch_add(1, Ordering::SeqCst);
        let mut table = self.table.lock();
        let live = way.busy_in(ticket.generation);
        if !(live && table.insert(ticket, sleeper)) {
            self.len.fetch_sub(1, Ordering::SeqCst);
        }
        live
    }

    /// `line` just left `BUSY`: wake whoever waited for that.
    pub(crate) fn settled(&self, line: LineId) {
        if self.len.load(Ordering::SeqCst) == 0 {
            return;
        }
        let taken = self
            .table
            .lock()
            .take_line(line, |sleeper| self.hub.notify(sleeper));
        self.len.fetch_sub(taken, Ordering::SeqCst);
    }
}

/// The entries themselves: one slab, chained into buckets by index, freed
/// slots recycled — two allocations however many lines are waited on (a
/// `Vec` per bucket scattered hundreds of small ones through the heap and
/// showed as peak RSS on the 5 MB replays).
struct WatchTable {
    /// First entry of each bucket ([`WatchTable::NIL`]: empty).
    heads: Box<[u32]>,
    entries: Vec<WatchEntry>,
    /// First recycled slot.
    free: u32,
}

struct WatchEntry {
    ticket: BusyTicket,
    sleeper: SleeperId,
    next: u32,
}

impl WatchTable {
    const NIL: u32 = u32::MAX;
    /// Enough buckets that the lines a thousand warps wait on spread thin.
    const BUCKETS: usize = 512;

    fn new() -> Self {
        WatchTable {
            heads: vec![Self::NIL; Self::BUCKETS].into_boxed_slice(),
            // Room for what a cached replay's warps wait on at once (64 warps
            // × a warp-width of pages), taken in one piece: grown by doubling
            // in mid-run the slab left a trail of holes in the heap.
            entries: Vec::with_capacity(2048),
            free: Self::NIL,
        }
    }

    fn bucket(line: LineId) -> usize {
        line.0 as usize % Self::BUCKETS
    }

    /// Add `(ticket, sleeper)`; `false` if it was there already.
    fn insert(&mut self, ticket: BusyTicket, sleeper: SleeperId) -> bool {
        let bucket = Self::bucket(ticket.line);
        let mut at = self.heads[bucket];
        while at != Self::NIL {
            let entry = &self.entries[at as usize];
            if entry.ticket == ticket && entry.sleeper == sleeper {
                return false;
            }
            at = entry.next;
        }
        let entry = WatchEntry {
            ticket,
            sleeper,
            next: self.heads[bucket],
        };
        let slot = self.free;
        if slot == Self::NIL {
            self.entries.push(entry);
            self.heads[bucket] = self.entries.len() as u32 - 1;
        } else {
            self.free = self.entries[slot as usize].next;
            self.entries[slot as usize] = entry;
            self.heads[bucket] = slot;
        }
        true
    }

    /// Remove every entry of `line`, handing its sleeper to `woken`;
    /// returns how many there were.
    fn take_line(&mut self, line: LineId, mut woken: impl FnMut(SleeperId)) -> usize {
        let bucket = Self::bucket(line);
        let (mut taken, mut prev, mut at) = (0, Self::NIL, self.heads[bucket]);
        while at != Self::NIL {
            let WatchEntry {
                ticket,
                sleeper,
                next,
            } = self.entries[at as usize];
            if ticket.line == line {
                woken(sleeper);
                taken += 1;
                match prev {
                    Self::NIL => self.heads[bucket] = next,
                    prev => self.entries[prev as usize].next = next,
                }
                self.entries[at as usize].next = self.free;
                self.free = at;
            } else {
                prev = at;
            }
            at = next;
        }
        taken
    }
}
