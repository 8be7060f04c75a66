//! Waiting without polling: wait descriptors and the producer-notified wake
//! hub.
//!
//! A simulated warp that cannot make progress returns a stall and asks to be
//! re-polled after an interval. Most such re-polls learn nothing: the fill is
//! still in flight, the barrier still armed, the completion queue still
//! empty. When a re-poll is *pure* — it changes nothing but its own poll
//! counters and trace records — the warp can instead **park**: it
//! registers a [`SleeperId`] with whatever will end its wait, names it in the
//! [`Wait`] descriptor of its stall, and the engine keeps it off the ready
//! queue until the producer calls [`WakeHub::notify`]. The engine then wakes
//! it at the first point of its own retry grid at or after the event, which
//! is when polling would first have noticed — so a parked run and a polled
//! run produce the same simulated times. The polls it skipped are simply not
//! made: **times are simulated, counts are executed**, so a poll counter or
//! trace record of a parked run counts only the polls that ran.
//!
//! The pieces:
//!
//! * [`Wait`] / [`WaitReason`] — the `Copy` descriptor a stall carries: why
//!   the warp waits (also what a stall report prints) and, when it may be
//!   parked, its sleeper;
//! * [`WakeHub`] — one per simulated host: sleeper registration, the
//!   parked/fired state machine and the fired list the engine drains;
//! * [`WatchList`] — the waiter list an object embeds when several sleepers
//!   may watch it for good (a completion queue, a knob cell);
//! * [`WatchedU64`] — an atomic cell that notifies its watchers on a store.
//!
//! Producers notify from inside a device advance or a warp step; the engine
//! parks and drains between them. It drains fired sleepers sorted by id,
//! never in arrival order, so which producer notified first cannot reorder
//! wake-ups.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Why a warp stalled. Carried by every stall so a stall report can say what
/// each stuck warp was waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum WaitReason {
    /// The kernel did not say.
    #[default]
    Unspecified,
    /// Cache lines it needs are `BUSY`: their fills are in flight.
    CacheFill,
    /// A cache access could not even start (no evictable line, or the fill
    /// or write-back found every SQ full).
    CacheLine,
    /// I/O barriers of its own requests (window full, or draining).
    Barrier,
    /// A submission was refused: every SQ full, or deferred by the QoS gate.
    Submit,
    /// It polls a completion queue itself and found nothing.
    Completion,
    /// A service warp whose completion queues are all empty.
    ServiceIdle,
}

impl WaitReason {
    /// True when what ends the wait is a device posting a completion, with
    /// no warp step in between. While a warp sleeps on such a wait the
    /// engine has to visit device event times; every other wait ends inside
    /// some warp's step, which the engine visits anyway.
    pub const fn ends_on_device_event(self) -> bool {
        matches!(self, WaitReason::ServiceIdle | WaitReason::Completion)
    }
}

/// Handle of one registered sleeper of a [`WakeHub`] (one per warp that may
/// park).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SleeperId(pub u32);

/// The wait descriptor of a stall: the reason, and the sleeper to park when
/// the re-polls this stall asks for are pure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Wait {
    /// Why the warp cannot make progress.
    pub reason: WaitReason,
    /// Set when the warp registered this sleeper with everything that can
    /// end the wait **and** re-polling before that changes nothing but its
    /// own poll counters and trace records. The engine may then leave the
    /// warp off the ready queue until the sleeper is notified, and those
    /// polls are never made. `None`: the warp must really be re-polled.
    pub sleeper: Option<SleeperId>,
}

impl Wait {
    /// A stall that must be re-polled.
    pub const fn polling(reason: WaitReason) -> Self {
        Wait {
            reason,
            sleeper: None,
        }
    }

    /// A stall whose re-polls are pure: the warp may sleep until `sleeper`
    /// is notified.
    pub const fn parked(reason: WaitReason, sleeper: SleeperId) -> Self {
        Wait {
            reason,
            sleeper: Some(sleeper),
        }
    }

    /// This wait when `on_grid`, otherwise the same reason as a stall that
    /// must be polled. For a kernel whose retry interval depends on what the
    /// attempt cost: it may only sleep from an attempt after which it would
    /// be re-polled at the interval every *later* re-poll asks for, or its
    /// retry grid is not the one the engine wakes it on.
    pub const fn only_if(self, on_grid: bool) -> Self {
        if on_grid {
            self
        } else {
            Wait::polling(self.reason)
        }
    }
}

const IDLE: u8 = 0;
const PARKED: u8 = 1;
const FIRED: u8 = 2;

/// Sleeper registry and fired list of one simulated host.
///
/// A sleeper is `IDLE` until the engine [`park`](WakeHub::park)s it; a
/// [`notify`](WakeHub::notify) moves a `PARKED` sleeper to `FIRED` and onto
/// the fired list exactly once (notifications of idle or already fired
/// sleepers are dropped, so a stale watcher entry cannot wake anyone twice);
/// [`drain_fired`](WakeHub::drain_fired) hands the list to the engine and
/// returns those sleepers to `IDLE`.
pub struct WakeHub {
    /// Each sleeper's state, by id.
    slots: RwLock<Vec<AtomicU8>>,
    fired: Mutex<Vec<SleeperId>>,
    /// Length of `fired`, so the engine's per-step check is one load.
    pending: AtomicUsize,
}

impl std::fmt::Debug for WakeHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WakeHub")
            .field("pending", &self.pending.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Default for WakeHub {
    fn default() -> Self {
        WakeHub {
            slots: RwLock::new(Vec::new()),
            fired: Mutex::new(Vec::new()),
            pending: AtomicUsize::new(0),
        }
    }
}

impl WakeHub {
    /// An empty hub.
    pub fn new() -> Arc<Self> {
        Arc::new(WakeHub::default())
    }

    /// Register a sleeper. Done once per warp, not per wait.
    pub fn register(&self) -> SleeperId {
        let mut slots = self.slots.write().expect("wake hub poisoned");
        if slots.capacity() == 0 {
            // Sleepers register one by one in mid-run; take room for a
            // kernel's worth at once instead of doubling through the heap.
            slots.reserve(128);
        }
        slots.push(AtomicU8::new(IDLE));
        SleeperId(slots.len() as u32 - 1)
    }

    /// Engine side: `sleeper`'s warp has left the ready queue.
    pub fn park(&self, sleeper: SleeperId) {
        let slots = self.slots.read().expect("wake hub poisoned");
        slots[sleeper.0 as usize].store(PARKED, Ordering::SeqCst);
    }

    /// True while `sleeper`'s warp is off the ready queue (parked, or
    /// notified and not yet drained). A sleeper belongs to one warp: whoever
    /// hands out parkable waits must not offer one that is asleep already
    /// to a second warp.
    pub fn is_asleep(&self, sleeper: SleeperId) -> bool {
        let slots = self.slots.read().expect("wake hub poisoned");
        slots[sleeper.0 as usize].load(Ordering::SeqCst) != IDLE
    }

    /// Producer side: something `sleeper` watches happened. Fires it if it
    /// is parked; otherwise does nothing.
    pub fn notify(&self, sleeper: SleeperId) {
        let fired = {
            let slots = self.slots.read().expect("wake hub poisoned");
            slots[sleeper.0 as usize]
                .compare_exchange(PARKED, FIRED, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        };
        if fired {
            let mut list = self.fired.lock().expect("wake hub poisoned");
            list.push(sleeper);
            self.pending.store(list.len(), Ordering::Release);
        }
    }

    /// True when [`drain_fired`](WakeHub::drain_fired) would return
    /// something. One atomic load.
    #[inline]
    pub fn has_fired(&self) -> bool {
        self.pending.load(Ordering::Acquire) != 0
    }

    /// Engine side: move the fired sleepers into `into` (cleared first),
    /// **sorted by id** — the order they are woken in must not depend on
    /// which producer notified first — and return them to idle.
    pub fn drain_fired(&self, into: &mut Vec<SleeperId>) {
        into.clear();
        {
            let mut list = self.fired.lock().expect("wake hub poisoned");
            into.append(&mut list);
            self.pending.store(0, Ordering::Release);
        }
        into.sort_unstable();
        let slots = self.slots.read().expect("wake hub poisoned");
        for id in into.iter() {
            slots[id.0 as usize].store(IDLE, Ordering::SeqCst);
        }
    }
}

/// The sleepers watching one long-lived object (a completion queue, a knob
/// cell). Entries stay for good: a sleeper registers once and is notified on
/// every event from then on, which costs nothing while it is not parked.
#[derive(Default)]
pub struct WatchList {
    /// Length of `entries`, so an unwatched object pays one load per event.
    len: AtomicUsize,
    entries: Mutex<Vec<(Arc<WakeHub>, SleeperId)>>,
}

impl WatchList {
    /// An empty list.
    pub fn new() -> Self {
        WatchList::default()
    }

    /// Notify `sleeper` (of `hub`) on every later event. Idempotent.
    pub fn watch(&self, hub: &Arc<WakeHub>, sleeper: SleeperId) {
        let mut entries = self.entries.lock().expect("watch list poisoned");
        let known = entries
            .iter()
            .any(|(h, s)| *s == sleeper && Arc::ptr_eq(h, hub));
        if !known {
            entries.push((Arc::clone(hub), sleeper));
            self.len.store(entries.len(), Ordering::SeqCst);
        }
    }

    /// An event happened: notify every watcher.
    #[inline]
    pub fn notify_all(&self) {
        if self.len.load(Ordering::SeqCst) == 0 {
            return;
        }
        for (hub, sleeper) in self.entries.lock().expect("watch list poisoned").iter() {
            hub.notify(*sleeper);
        }
    }
}

/// A `u64` knob cell whose readers may be asleep: a store notifies every
/// watcher, so a parked warp that would have picked the new value up at its
/// next poll is woken to do exactly that.
#[derive(Default)]
pub struct WatchedU64 {
    value: AtomicU64,
    watchers: WatchList,
}

impl WatchedU64 {
    /// A cell holding `value`.
    pub fn new(value: u64) -> Self {
        WatchedU64 {
            value: AtomicU64::new(value),
            watchers: WatchList::new(),
        }
    }

    /// The current value.
    #[inline]
    pub fn load(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Replace the value and notify the watchers.
    pub fn store(&self, value: u64) {
        self.value.store(value, Ordering::Relaxed);
        self.watchers.notify_all();
    }

    /// The sleepers to notify on a store.
    pub fn watchers(&self) -> &WatchList {
        &self.watchers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier as ThreadBarrier;

    fn hub_with(n: usize) -> (Arc<WakeHub>, Vec<SleeperId>) {
        let hub = WakeHub::new();
        let ids = (0..n).map(|_| hub.register()).collect();
        (hub, ids)
    }

    #[test]
    fn only_a_parked_sleeper_fires_and_only_once() {
        let (hub, ids) = hub_with(2);
        let mut fired = Vec::new();
        hub.notify(ids[0]);
        assert!(!hub.has_fired(), "an idle sleeper ignores notifications");
        hub.park(ids[0]);
        hub.notify(ids[0]);
        hub.notify(ids[0]);
        assert!(hub.has_fired() && hub.is_asleep(ids[0]));
        hub.drain_fired(&mut fired);
        assert_eq!(fired, [ids[0]], "the second notification was dropped");
        assert!(!hub.is_asleep(ids[0]));
        assert!(!hub.has_fired());
        // Back to idle: a stale watcher entry firing later wakes nobody.
        hub.notify(ids[0]);
        hub.drain_fired(&mut fired);
        assert!(fired.is_empty());
    }

    #[test]
    fn fired_sleepers_drain_in_id_order_not_arrival_order() {
        let (hub, ids) = hub_with(4);
        for &id in &ids {
            hub.park(id);
        }
        for &i in &[3usize, 0, 2, 1] {
            hub.notify(ids[i]);
        }
        let mut fired = Vec::new();
        hub.drain_fired(&mut fired);
        assert_eq!(fired, ids);
    }

    #[test]
    fn watched_cell_notifies_its_watchers_on_store() {
        let (hub, ids) = hub_with(2);
        let cell = WatchedU64::new(1_000);
        cell.watchers().watch(&hub, ids[1]);
        cell.watchers().watch(&hub, ids[1]);
        hub.park(ids[0]);
        hub.park(ids[1]);
        cell.store(2_000);
        assert_eq!(cell.load(), 2_000);
        let mut fired = Vec::new();
        hub.drain_fired(&mut fired);
        assert_eq!(fired, [ids[1]], "only the watcher, and only once");
    }

    /// Four notifier threads against one drainer: every park is answered by
    /// exactly one wake-up, none is lost and none is seen twice.
    #[test]
    fn concurrent_notifications_are_each_observed_once() {
        const NOTIFIERS: usize = 4;
        const SLEEPERS: usize = 64;
        const ROUNDS: usize = 200;
        let (hub, ids) = hub_with(SLEEPERS);
        let start = Arc::new(ThreadBarrier::new(NOTIFIERS + 1));
        let round = Arc::new(AtomicUsize::new(0));
        let woken = std::thread::scope(|scope| {
            for t in 0..NOTIFIERS {
                let (hub, ids, start, round) = (&hub, &ids, Arc::clone(&start), Arc::clone(&round));
                scope.spawn(move || {
                    start.wait();
                    // Each notifier hammers its own quarter of the sleepers
                    // plus everyone else's (duplicates must be dropped).
                    while round.load(Ordering::Acquire) < ROUNDS {
                        for (i, &id) in ids.iter().enumerate() {
                            if i % NOTIFIERS == t || i % 7 == 0 {
                                hub.notify(id);
                            }
                        }
                        std::thread::yield_now();
                    }
                });
            }
            start.wait();
            let mut woken = vec![0usize; SLEEPERS];
            let mut fired = Vec::new();
            for r in 0..ROUNDS {
                for &id in &ids {
                    hub.park(id);
                }
                let mut seen = 0;
                while seen < SLEEPERS {
                    hub.drain_fired(&mut fired);
                    assert!(fired.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
                    for id in &fired {
                        woken[id.0 as usize] += 1;
                    }
                    seen += fired.len();
                    std::thread::yield_now();
                }
                assert_eq!(seen, SLEEPERS, "round {r}: a sleeper fired twice");
            }
            round.store(ROUNDS, Ordering::Release);
            woken
        });
        assert!(woken.iter().all(|&n| n == ROUNDS), "every park woke once");
        let mut fired = Vec::new();
        hub.drain_fired(&mut fired);
        assert!(fired.is_empty(), "late notifications of idle sleepers drop");
    }
}
