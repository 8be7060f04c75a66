//! The engine's index of the warps parked in one counting wait queue of the
//! wake hub (`Wait::queued`): which of them a granted unit goes to.
//!
//! A unit goes to the waiter whose next poll comes first — the warp a
//! polling run would have served. The waiters of a queue share one grid
//! interval `every`, and a waiter parked at `since` polls at
//! `since + k · every`, `k ≥ 1`, so ordering them by
//! `(since mod every, sm, slot)` puts them in the order of their next poll
//! after any time `t`: from `t mod every` up, then wrapping around. That
//! order is kept as a bitset over the phases of one interval plus, per
//! phase, the waiters in `(sm, slot)` order: finding the next waiter is a
//! scan for the next set bit.

use agile_sim::wake::WaitQueue;
use agile_sim::Cycles;

/// The longest grid interval the phase bitset takes: a queued wait on a
/// longer one is polled instead.
pub(crate) const MAX_INTERVAL: u64 = 1 << 16;

/// No node (end of a phase's list, or an empty phase).
const NIL: u32 = u32::MAX;

/// One waiter filed under its phase.
#[derive(Clone, Copy)]
struct Node {
    sm: u32,
    slot: u32,
    /// The origin of its grid: a waiter that parked at the very time of a
    /// grant on its phase polls a whole interval later.
    since: u64,
    /// The next waiter of the same phase.
    link: u32,
}

impl Node {
    fn at(&self) -> (usize, usize) {
        (self.sm as usize, self.slot as usize)
    }
}

/// The parked warps of one counting queue (see the module docs).
pub(crate) struct QueueWaiters {
    /// The hub's queue, whose waiter count producers read.
    pub(crate) handle: WaitQueue,
    /// The grid interval of every waiter (meaningful while there is one).
    every: u64,
    /// Bit `p` set: some waiter's grid has phase `p`.
    bits: Vec<u64>,
    /// Per phase, its first waiter in `(sm, slot)` order.
    heads: Vec<u32>,
    /// The waiters filed by phase (a slab; `free` lists the vacant nodes).
    nodes: Vec<Node>,
    free: Vec<u32>,
}

impl QueueWaiters {
    /// An empty index of the waiters of `handle`'s queue.
    pub(crate) fn new(handle: WaitQueue) -> Self {
        QueueWaiters {
            handle,
            every: 0,
            bits: Vec::new(),
            heads: Vec::new(),
            nodes: Vec::new(),
            free: Vec::new(),
        }
    }

    /// How many waiters are filed.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Whether a waiter on grid interval `every` may be filed: the first one
    /// sets the queue's interval (at most [`MAX_INTERVAL`]), the others must
    /// share it.
    pub(crate) fn accepts(&mut self, every: u64) -> bool {
        if self.len() > 0 {
            return every == self.every;
        }
        if every > MAX_INTERVAL {
            return false;
        }
        if every != self.every {
            self.every = every;
            self.bits = vec![0; every.div_ceil(64) as usize];
            self.heads = vec![NIL; every as usize];
            self.nodes.clear();
            self.free.clear();
        }
        true
    }

    /// File the waiter `(sm, slot)` whose grid starts at `since`.
    pub(crate) fn insert(&mut self, since: Cycles, sm: usize, slot: usize) {
        let phase = (since.raw() % self.every) as usize;
        let node = Node {
            sm: sm as u32,
            slot: slot as u32,
            since: since.raw(),
            link: NIL,
        };
        let id = match self.free.pop() {
            Some(id) => {
                self.nodes[id as usize] = node;
                id
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() as u32 - 1
            }
        };
        // Keep the phase's list in `(sm, slot)` order.
        let (mut prev, mut cur) = (NIL, self.heads[phase]);
        while cur != NIL && self.nodes[cur as usize].at() < (sm, slot) {
            (prev, cur) = (cur, self.nodes[cur as usize].link);
        }
        self.nodes[id as usize].link = cur;
        self.link(phase, prev, id);
        self.bits[phase / 64] |= 1 << (phase % 64);
    }

    /// Point `prev`'s link (the head of `phase` when `prev` is `NIL`) at
    /// `to`.
    fn link(&mut self, phase: usize, prev: u32, to: u32) {
        match prev {
            NIL => self.heads[phase] = to,
            prev => self.nodes[prev as usize].link = to,
        }
    }

    /// Take the waiter `(sm, slot)` whose grid starts at `since` out.
    pub(crate) fn remove(&mut self, since: Cycles, sm: usize, slot: usize) {
        let phase = (since.raw() % self.every) as usize;
        let (mut prev, mut cur) = (NIL, self.heads[phase]);
        while cur != NIL {
            let node = self.nodes[cur as usize];
            if node.at() == (sm, slot) {
                self.link(phase, prev, node.link);
                self.free.push(cur);
                if self.heads[phase] == NIL {
                    self.bits[phase / 64] &= !(1 << (phase % 64));
                }
                return;
            }
            (prev, cur) = (cur, node.link);
        }
    }

    /// Empty the index; returns how many waiters were filed.
    pub(crate) fn clear(&mut self) -> usize {
        let filed = self.len();
        self.bits.fill(0);
        self.heads.fill(NIL);
        self.nodes.clear();
        self.free.clear();
        filed
    }

    /// The waiter a unit granted at `now` by the warp `notifier` (`None`: a
    /// device) goes to: the one polling would serve first, ties in
    /// `(sm, slot)` order. It stays filed.
    pub(crate) fn next(
        &mut self,
        now: Cycles,
        notifier: Option<(usize, usize)>,
    ) -> Option<(usize, usize)> {
        let now = now.raw();
        let phase = (now % self.every) as usize;
        // A poll in this very cycle: after the grant only behind the
        // notifier, and not by a warp that parked in this cycle (its first
        // poll is a whole interval on).
        let mut id = self.heads[phase];
        while id != NIL {
            let node = self.nodes[id as usize];
            if notifier.is_none_or(|n| node.at() > n) && node.since < now {
                return Some(node.at());
            }
            id = node.link;
        }
        // Then the rest of this interval, and the next one up to and
        // including `now`'s phase (whose waiters poll one interval on).
        let first_of = |p: usize| self.nodes[self.heads[p] as usize].at();
        self.next_phase(phase + 1, self.every as usize)
            .or_else(|| self.next_phase(0, phase + 1))
            .map(first_of)
    }

    /// The first phase in `from..to` with a waiter.
    fn next_phase(&self, from: usize, to: usize) -> Option<usize> {
        if from >= to {
            return None;
        }
        let mut w = from / 64;
        let mut word = self.bits[w] & (!0u64 << (from % 64));
        loop {
            if word != 0 {
                let p = w * 64 + word.trailing_zeros() as usize;
                return (p < to).then_some(p);
            }
            w += 1;
            if w * 64 >= to {
                return None;
            }
            word = self.bits[w];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agile_sim::wake::WakeHub;

    fn index(every: u64) -> QueueWaiters {
        let mut q = QueueWaiters::new(WakeHub::new().register_queue());
        assert!(q.accepts(every));
        q
    }

    #[test]
    fn waiters_come_in_the_order_of_their_next_poll() {
        let mut q = index(100);
        // Parked at 170, 110, 140 and 140 again (on a later SM): next polls
        // 270, 210, 240 and 240.
        let since = [170, 110, 140, 140];
        for (sm, &at) in since.iter().enumerate() {
            q.insert(Cycles(at), sm, 0);
        }
        assert_eq!(q.len(), 4);
        // At 250 (phase 50): 270, then 310, then 340 (SM 2 before SM 3).
        let mut order = Vec::new();
        while let Some(at) = q.next(Cycles(250), None) {
            order.push(at);
            q.remove(Cycles(since[at.0]), at.0, at.1);
        }
        assert_eq!(order, [(0, 0), (1, 0), (2, 0), (3, 0)]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn a_poll_in_the_granting_cycle_counts_only_behind_the_notifier() {
        let mut q = index(100);
        // Polls at 100, 200, …: at 300 after a notifier at (1, 3) or a
        // device; before a notifier at (1, 5) it found nothing.
        q.insert(Cycles(0), 1, 4);
        assert_eq!(q.next(Cycles(300), Some((1, 3))), Some((1, 4)));
        assert_eq!(q.next(Cycles(300), None), Some((1, 4)));
        assert_eq!(q.next(Cycles(300), Some((1, 5))), Some((1, 4)), "at 400");
        // A waiter that parks at the grant's own time polls an interval on.
        q.insert(Cycles(330), 2, 0);
        assert_eq!(q.next(Cycles(330), None), Some((1, 4)), "400 before 430");
        // At 400 behind (1, 5): (1, 4) polls at 500, (2, 0) at 430.
        assert_eq!(q.next(Cycles(400), Some((1, 5))), Some((2, 0)));
        // Of two waiters on the grant's phase, the one parked before it.
        q.remove(Cycles(0), 1, 4);
        q.remove(Cycles(330), 2, 0);
        q.insert(Cycles(300), 0, 0);
        q.insert(Cycles(200), 0, 1);
        assert_eq!(q.next(Cycles(300), None), Some((0, 1)));
    }

    #[test]
    fn one_interval_per_queue_and_not_too_long() {
        let mut q = index(100);
        q.insert(Cycles(0), 0, 0);
        assert!(!q.accepts(200) && q.accepts(100));
        assert_eq!(q.clear(), 1);
        assert!(q.accepts(200), "an empty queue takes a new interval");
        assert!(!index(1).accepts(MAX_INTERVAL + 1));
    }
}
