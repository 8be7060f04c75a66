//! The sleepers waiting for `BUSY` lines to leave that state.

use crate::cache::{BusyTicket, LineId};
use crate::line::Way;
use agile_sim::wake::{SleeperId, WakeHub};
use std::sync::Arc;

/// `(ticket, sleeper)` entries chained by line into a fixed set of buckets,
/// each entry removed — and its sleeper notified — by the first
/// [`CacheGuard::complete_fill`](crate::CacheGuard::complete_fill) /
/// [`abort_fill`](crate::CacheGuard::abort_fill) /
/// [`reinstate_victim`](crate::CacheGuard::reinstate_victim) of its line.
/// Several warps may wait on one line; an entry whose sleeper was woken by
/// something else in the meantime just notifies nobody.
///
/// Plain state under the cache lock, like the line states it watches: a
/// registration checks its ticket and a fill changes the state word under
/// that one lock, so either the fill finds the entry or the watcher finds
/// the dead ticket.
pub(crate) struct LineWatchers {
    hub: Arc<WakeHub>,
    table: WatchTable,
}

impl LineWatchers {
    pub(crate) fn new(hub: Arc<WakeHub>) -> Self {
        LineWatchers {
            hub,
            table: WatchTable::new(),
        }
    }

    /// Register `(ticket, sleeper)` if `way`, the ticket's line, is still
    /// `BUSY` in the ticket's reservation; returns whether it is.
    pub(crate) fn watch(&mut self, ticket: BusyTicket, sleeper: SleeperId, way: &Way) -> bool {
        let live = way.busy_in(ticket.generation);
        if live {
            self.table.insert(ticket, sleeper);
        }
        live
    }

    /// `line` just left `BUSY`: wake whoever waited for that.
    pub(crate) fn settled(&mut self, line: LineId) {
        let hub = &self.hub;
        self.table.take_line(line, |sleeper| hub.notify(sleeper));
    }

    /// Live entries.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        let mut free = 0;
        let mut at = self.table.free;
        while at != WatchTable::NIL {
            free += 1;
            at = self.table.entries[at as usize].next;
        }
        self.table.entries.len() - free
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

    /// Add `(ticket, sleeper)` unless it is there already.
    fn insert(&mut self, ticket: BusyTicket, sleeper: SleeperId) {
        let bucket = Self::bucket(ticket.line);
        let mut at = self.heads[bucket];
        while at != Self::NIL {
            let entry = &self.entries[at as usize];
            if entry.ticket == ticket && entry.sleeper == sleeper {
                return;
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
    }

    /// Remove every entry of `line`, handing its sleeper to `woken`.
    fn take_line(&mut self, line: LineId, mut woken: impl FnMut(SleeperId)) {
        let bucket = Self::bucket(line);
        let (mut prev, mut at) = (Self::NIL, self.heads[bucket]);
        while at != Self::NIL {
            let WatchEntry {
                ticket,
                sleeper,
                next,
            } = self.entries[at as usize];
            if ticket.line == line {
                woken(sleeper);
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
    }
}
