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
//!   parked, its sleeper — and a deadline on its grid that ends the sleep
//!   with no producer ([`Wait::until`]);
//! * [`WakeHub`] — one per simulated host: sleeper registration, the
//!   parked/fired state machine and the fired list the engine drains;
//! * [`WaitQueue`] — a *counting* wait queue of a hub, for waits that end
//!   when units of a shared resource free up (a slot of a full submission
//!   queue): the producer [`grant`](WakeHub::grant)s units instead of
//!   notifying sleepers, and the engine hands each unit to the one parked
//!   warp polling would have served first;
//! * [`WatchList`] — the waiter list an object embeds when several sleepers
//!   may watch it for good (a completion queue, a knob cell);
//! * [`WatchedU64`] — an atomic cell that notifies its watchers on a store.
//!
//! Producers notify from inside a device advance or a warp step; the engine
//! parks and drains between them. It drains fired sleepers sorted by id,
//! never in arrival order, so which producer notified first cannot reorder
//! wake-ups.
//!
//! **Counting queues.** Notifying every sleeper of a queue each time a unit
//! frees up would be polling again: a few hundred warps may wait for one
//! submission queue, and a slot frees up about once per retry interval. A
//! grant of `n` units instead wakes the `n` waiters whose retry grids reach
//! a poll first — in the granting cycle only those that sort after the
//! granting warp in `(sm, slot)` order, as for a notification. Each of them
//! would have found a unit; any waiter after them would have found the
//! units taken, unless one of the woken warps finds less than it wanted, and
//! then it simply parks again. Waking a superset of the warps polling would
//! serve is always safe; waking fewer would not be.

use crate::clock::Cycles;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Why a warp stalled. Carried by every stall so a stall report can say what
/// each stuck warp was waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
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
    /// It waits at its block's barrier for the block's other warps (a
    /// `__syncthreads`): another warp's arrival ends the wait.
    BlockSync,
    /// A submission was refused: every SQ full, or deferred by the QoS gate.
    Submit,
    /// It polls a completion queue itself and found nothing.
    Completion,
    /// A service warp whose completion queues are all empty and that sleeps
    /// until a completion is posted to one of them.
    ServiceIdle,
    /// A service warp that knows, from the completions the devices have
    /// scheduled, that its next sweeps find nothing: it sleeps to a
    /// deadline ([`Wait::until`]), not on a device event.
    ServiceAhead,
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

/// Handle of one counting [`WaitQueue`] of a [`WakeHub`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueueId(pub u32);

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
    /// Set on a parked wait that a unit granted to this counting queue also
    /// ends (see [`Wait::queued`]).
    pub queue: Option<QueueId>,
    /// Set on a parked wait that also ends at this point of its retry grid
    /// (see [`Wait::until`]).
    pub until: Option<Cycles>,
    /// Set when the stalling step was busy until this time first: its cost
    /// is busy time and its retry grid starts here (see [`Wait::after_busy`]).
    pub busy_until: Option<Cycles>,
}

impl Wait {
    /// A stall that must be re-polled.
    pub const fn polling(reason: WaitReason) -> Self {
        Wait {
            reason,
            sleeper: None,
            queue: None,
            until: None,
            busy_until: None,
        }
    }

    /// A stall whose re-polls are pure: the warp may sleep until `sleeper`
    /// is notified.
    pub const fn parked(reason: WaitReason, sleeper: SleeperId) -> Self {
        Wait {
            sleeper: Some(sleeper),
            ..Wait::polling(reason)
        }
    }

    /// This parked wait, also ended at `at`, which must be a point of the
    /// warp's retry grid: the re-polls are pure up to but not including the
    /// one at `at` (unless the sleeper is notified first), so the engine
    /// wakes the warp there without any producer. A deadline needs no
    /// notification, so the warp may watch fewer producers — a service warp
    /// that read off the devices' schedule when a completion will be there
    /// for it.
    pub const fn until(self, at: Cycles) -> Self {
        Wait {
            until: Some(at),
            ..self
        }
    }

    /// This wait, after a step that was busy until `at` (past the step's own
    /// time): the engine books the time up to `at` as busy and starts the
    /// retry grid there — `at`, `at + retry_after`, … — where a stall's grid
    /// otherwise starts one interval after the step. A polling scheduler
    /// steps the warp again at `at`, as after a busy step. Not for a queued
    /// wait.
    pub const fn after_busy(self, at: Cycles) -> Self {
        Wait {
            busy_until: Some(at),
            ..self
        }
    }

    /// This parked wait, also ended by one unit granted to `queue`: the warp
    /// waits for a unit of the resource the queue counts, and its re-polls
    /// are pure until one is granted (or its sleeper is notified). The engine
    /// hands each granted unit to one waiter; see the module docs.
    pub const fn queued(self, queue: QueueId) -> Self {
        Wait {
            queue: Some(queue),
            ..self
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

/// Length of the first chunk of sleeper slots (each next one is twice as
/// long), and how many chunks there are: room for about 2^31 sleepers.
const FIRST_CHUNK: u32 = 128;
const CHUNKS: usize = 24;

/// The chunk holding the slot of sleeper `id`, and where in it.
#[inline]
fn chunk_of(id: u32) -> (usize, usize) {
    let q = id / FIRST_CHUNK + 1;
    let chunk = (u32::BITS - 1 - q.leading_zeros()) as usize;
    (chunk, (id - FIRST_CHUNK * ((1 << chunk) - 1)) as usize)
}

const IDLE: u8 = 0;
const PARKED: u8 = 1;
const FIRED: u8 = 2;

/// A counting wait queue of a [`WakeHub`]: the producer's handle (it asks
/// [`WaitQueue::waiters`] before computing a grant, and passes it to
/// [`WakeHub::grant`]) and the engine's (it counts the warps it parks in the
/// queue). Cloning shares the queue.
#[derive(Debug, Clone)]
pub struct WaitQueue {
    id: QueueId,
    waiters: Arc<AtomicUsize>,
}

impl WaitQueue {
    /// The id a [`Wait::queued`] names this queue by.
    pub fn id(&self) -> QueueId {
        self.id
    }

    /// How many warps are parked in the queue. One load: producers skip the
    /// grant of a queue nobody waits on.
    #[inline]
    pub fn waiters(&self) -> usize {
        self.waiters.load(Ordering::Acquire)
    }

    /// Engine side: a warp was parked in the queue.
    pub fn join(&self) {
        self.waiters.fetch_add(1, Ordering::AcqRel);
    }

    /// Engine side: a warp parked in the queue was woken.
    pub fn leave(&self) {
        let before = self.waiters.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(before > 0, "left a wait queue nobody waited in");
    }
}

/// Sleeper registry and fired list of one simulated host.
///
/// A sleeper is `IDLE` until the engine [`park`](WakeHub::park)s it; a
/// [`notify`](WakeHub::notify) moves a `PARKED` sleeper to `FIRED` and onto
/// the fired list exactly once (notifications of idle or already fired
/// sleepers are dropped, so a stale watcher entry cannot wake anyone twice);
/// [`drain`](WakeHub::drain) hands the list to the engine and returns
/// those sleepers to `IDLE`. A sleeper the engine wakes for a unit granted
/// to its queue goes back to `IDLE` through [`unpark`](WakeHub::unpark).
pub struct WakeHub {
    /// Each sleeper's state, by id, in chunks of doubling length: chunk `k`
    /// holds the ids from `FIRST_CHUNK · (2^k − 1)` on. A slot never moves,
    /// so it is read without a lock.
    slots: [OnceLock<Box<[AtomicU8]>>; CHUNKS],
    /// Sleepers registered.
    registered: AtomicU32,
    /// The fired list and the grants not yet drained.
    pending_wakes: Mutex<PendingWakes>,
    /// Entries of `pending_wakes`, so the engine's per-step check is one
    /// load.
    pending: AtomicUsize,
    /// Every registered counting queue, by id.
    queues: Mutex<Vec<WaitQueue>>,
}

#[derive(Default)]
struct PendingWakes {
    fired: Vec<SleeperId>,
    grants: Vec<(QueueId, u32)>,
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
            slots: std::array::from_fn(|_| OnceLock::new()),
            registered: AtomicU32::new(0),
            pending_wakes: Mutex::new(PendingWakes::default()),
            pending: AtomicUsize::new(0),
            queues: Mutex::new(Vec::new()),
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
        let id = self.registered.fetch_add(1, Ordering::Relaxed);
        let (chunk, _) = chunk_of(id);
        self.slots[chunk].get_or_init(|| {
            (0..FIRST_CHUNK << chunk)
                .map(|_| AtomicU8::new(IDLE))
                .collect()
        });
        SleeperId(id)
    }

    /// The state cell of `sleeper`.
    #[inline]
    fn slot(&self, sleeper: SleeperId) -> &AtomicU8 {
        let (chunk, at) = chunk_of(sleeper.0);
        &self.slots[chunk]
            .get()
            .expect("sleeper was never registered")[at]
    }

    /// Engine side: `sleeper`'s warp has left the ready queue.
    pub fn park(&self, sleeper: SleeperId) {
        self.slot(sleeper).store(PARKED, Ordering::SeqCst);
    }

    /// True while `sleeper`'s warp is off the ready queue (parked, or
    /// notified and not yet drained). A sleeper belongs to one warp: whoever
    /// hands out parkable waits must not offer one that is asleep already
    /// to a second warp.
    pub fn is_asleep(&self, sleeper: SleeperId) -> bool {
        self.slot(sleeper).load(Ordering::SeqCst) != IDLE
    }

    /// Producer side: something `sleeper` watches happened. Fires it if it
    /// is parked; otherwise does nothing.
    pub fn notify(&self, sleeper: SleeperId) {
        let fired = self
            .slot(sleeper)
            .compare_exchange(PARKED, FIRED, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        if fired {
            let mut pending = self.pending_wakes.lock().expect("wake hub poisoned");
            pending.fired.push(sleeper);
            self.pending.fetch_add(1, Ordering::Release);
        }
    }

    /// Engine side: `sleeper`, parked in a counting queue, is woken for a
    /// unit granted to that queue — back to `IDLE`. (A sleeper fired in the
    /// meantime is the fired list's, and stays as it is.)
    pub fn unpark(&self, sleeper: SleeperId) {
        let _ =
            self.slot(sleeper)
                .compare_exchange(PARKED, IDLE, Ordering::SeqCst, Ordering::SeqCst);
    }

    /// True when [`drain`](WakeHub::drain) would return something. One
    /// atomic load.
    #[inline]
    pub fn has_fired(&self) -> bool {
        self.pending.load(Ordering::Acquire) != 0
    }

    /// Engine side: move the fired sleepers into `fired` (cleared first),
    /// **sorted by id** — the order they are woken in must not depend on
    /// which producer notified first — and return them to idle; move the
    /// grants made since the last drain into `grants` (cleared first), in
    /// the order they were made.
    pub fn drain(&self, fired: &mut Vec<SleeperId>, grants: &mut Vec<(QueueId, u32)>) {
        fired.clear();
        grants.clear();
        {
            let mut pending = self.pending_wakes.lock().expect("wake hub poisoned");
            fired.append(&mut pending.fired);
            grants.append(&mut pending.grants);
            self.pending
                .fetch_sub(fired.len() + grants.len(), Ordering::Release);
        }
        fired.sort_unstable();
        for &id in fired.iter() {
            self.slot(id).store(IDLE, Ordering::SeqCst);
        }
    }

    /// Register a counting wait queue. Done once per resource (one per
    /// device's submission queues), before any warp waits in it.
    pub fn register_queue(&self) -> WaitQueue {
        let mut queues = self.queues.lock().expect("wake hub poisoned");
        let queue = WaitQueue {
            id: QueueId(queues.len() as u32),
            waiters: Arc::new(AtomicUsize::new(0)),
        };
        queues.push(queue.clone());
        queue
    }

    /// Engine side: the queue `id` names.
    pub fn queue(&self, id: QueueId) -> WaitQueue {
        self.queues.lock().expect("wake hub poisoned")[id.0 as usize].clone()
    }

    /// Producer side: `units` of what `queue` counts were freed. The engine
    /// wakes one waiter per unit (see the module docs); units nobody waits
    /// for are dropped — a warp that comes to the resource later finds them
    /// free without waiting.
    pub fn grant(&self, queue: &WaitQueue, units: u32) {
        if units == 0 || queue.waiters() == 0 {
            return;
        }
        let mut pending = self.pending_wakes.lock().expect("wake hub poisoned");
        pending.grants.push((queue.id, units));
        self.pending.fetch_add(1, Ordering::Release);
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
        hub.drain(&mut fired, &mut Vec::new());
        assert_eq!(fired, [ids[0]], "the second notification was dropped");
        assert!(!hub.is_asleep(ids[0]));
        assert!(!hub.has_fired());
        // Back to idle: a stale watcher entry firing later wakes nobody.
        hub.notify(ids[0]);
        hub.drain(&mut fired, &mut Vec::new());
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
        hub.drain(&mut fired, &mut Vec::new());
        assert_eq!(fired, ids);
    }

    #[test]
    fn sleepers_across_slot_chunks_keep_their_own_state() {
        // Chunks of 128, 256, 512, … slots: ids on both sides of each seam.
        let (hub, ids) = hub_with(1_000);
        assert_eq!(chunk_of(127), (0, 127));
        assert_eq!(chunk_of(128), (1, 0));
        assert_eq!(chunk_of(383), (1, 255));
        assert_eq!(chunk_of(384), (2, 0));
        let seams = [0usize, 127, 128, 383, 384, 895, 896, 999];
        for &i in &seams {
            hub.park(ids[i]);
        }
        for &i in seams.iter().rev() {
            hub.notify(ids[i]);
        }
        let mut fired = Vec::new();
        hub.drain(&mut fired, &mut Vec::new());
        assert_eq!(fired, seams.map(|i| ids[i]));
        assert!(ids.iter().all(|&id| !hub.is_asleep(id)));
    }

    #[test]
    fn grants_reach_only_queues_somebody_waits_in() {
        let (hub, ids) = hub_with(1);
        let (a, b) = (hub.register_queue(), hub.register_queue());
        assert_eq!((a.id(), b.id()), (QueueId(0), QueueId(1)));
        let mut grants = Vec::new();
        hub.grant(&a, 3);
        assert!(!hub.has_fired(), "nobody waits in the queue: dropped");
        // The engine's handle is the producer's queue.
        hub.queue(b.id()).join();
        assert_eq!(b.waiters(), 1);
        hub.grant(&b, 0);
        hub.grant(&b, 2);
        hub.grant(&b, 1);
        assert!(hub.has_fired());
        hub.drain(&mut Vec::new(), &mut grants);
        assert_eq!(grants, [(b.id(), 2), (b.id(), 1)], "in grant order");
        assert!(!hub.has_fired());
        // A sleeper woken for a grant goes back to idle; one fired by a
        // notification in the meantime stays the fired list's.
        hub.park(ids[0]);
        hub.unpark(ids[0]);
        assert!(!hub.is_asleep(ids[0]));
        hub.park(ids[0]);
        hub.notify(ids[0]);
        hub.unpark(ids[0]);
        let mut fired = Vec::new();
        hub.drain(&mut fired, &mut Vec::new());
        assert_eq!(fired, [ids[0]]);
        hub.queue(b.id()).leave();
        assert_eq!(b.waiters(), 0);
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
        hub.drain(&mut fired, &mut Vec::new());
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
                    hub.drain(&mut fired, &mut Vec::new());
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
        hub.drain(&mut fired, &mut Vec::new());
        assert!(fired.is_empty(), "late notifications of idle sleepers drop");
    }
}
