//! The wait-state contract of the cached I/O path, from outside the crate.
//!
//! * **Carrying wait state is invisible.** `IoPath::{read_warp, write_warp}`
//!   take what the warp remembers from its previous attempt; a ticket that is
//!   still live stands in for the cache lookup it would repeat. Passing fresh
//!   state on every call *is* the plain path — no ticket, every page looked
//!   up — so the property below runs one random script on two identical
//!   rigs, one carrying and one not, and demands the same costs, outcomes,
//!   counters and trace records from both. That includes reads that retire
//!   their resident lanes (`IoPath::retire_resident`): the carried state is
//!   narrowed to the lanes left and keeps their tickets, the fresh one is
//!   not used again. Every such retirement also checks that the per-lane
//!   residency it goes by is what `cache.peek` says and that narrowing
//!   allocates nothing.
//! * **Waiting costs nothing.** A retry whose pages are all still in flight
//!   allocates nothing and takes no set lock.

use agile_cache::{CacheConfig, CacheStats, NO_TENANT};
use agile_core::{
    AgileConfig, AgileCtrl, AgileService, Barrier, IoPath, IoStats, LineWait, PageState,
    ReadOutcome, WarpWait,
};
use agile_sim::trace::{TraceEvent, TraceSink};
use agile_sim::units::SSD_PAGE_SIZE;
use agile_sim::wake::{SleeperId, Wait, WaitReason};
use agile_sim::Cycles;
use nvme_sim::{DmaHandle, Lba, PageToken, QueuePair, SsdConfig, SsdDevice};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Carried vs fresh wait state
// ---------------------------------------------------------------------------

const DEVICES: usize = 2;
const QUEUES: usize = 2;
/// Shallow on purpose: eight SQ slots in all, recycled only at `Service`
/// steps, so fills and write-backs meet full SQs in most generated scripts —
/// the abort and dirty-victim reinstate paths.
const DEPTH: u32 = 4;
const WARPS: usize = 3;
/// Pages per device the scripts touch: 48 in all over a 16-line cache.
const PAGES: u64 = 24;

/// One action `dt` cycles after the previous one: `(dt, action, warp, arg)`.
type Step = (u64, u8, u8, u8);

#[derive(Default)]
struct TraceLog(Mutex<Vec<TraceEvent>>);

impl TraceSink for TraceLog {
    fn record(&self, ev: TraceEvent) {
        self.0.lock().unwrap().push(ev);
    }
}

/// Everything a caller or a trace consumer can observe of one run.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Cost and result of every call, in script order.
    calls: Vec<(u64, String)>,
    io: IoStats,
    cache: CacheStats,
    pins: u64,
    trace: Vec<TraceEvent>,
    /// Retirements that left a page in flight in the narrowed wait state.
    narrowed_in_flight: u64,
}

/// The request set `arg` names: 1–6 lanes over both devices, with repeats.
fn request_set(arg: u8) -> Vec<(u32, Lba)> {
    let arg = arg as u64 % 12;
    (0..1 + arg % 6)
        .map(|lane| {
            (
                ((arg + lane) % 2) as u32,
                (arg * 7 + lane * lane * 3) % PAGES,
            )
        })
        .collect()
}

fn tenant_of(arg: u8) -> u32 {
    match arg % 4 {
        3 => NO_TENANT,
        t => t as u32,
    }
}

struct Rig {
    ctrl: Arc<AgileCtrl>,
    service: Arc<AgileService>,
    devices: Vec<SsdDevice>,
    log: Arc<TraceLog>,
    /// Carry wait state from one attempt to the next (else: fresh each call).
    carry: bool,
    /// Per warp: the request it last read and what it remembers of it (when
    /// not carrying: what its last attempt found, and nothing older).
    reads: Vec<(Vec<(u32, Lba)>, WarpWait)>,
    /// Per pending store `(warp, dev, lba)`.
    stores: HashMap<(usize, u32, Lba), LineWait>,
    /// What `IoPath::retire_resident` told about each lane, with room for
    /// the widest request so that recording it allocates nothing.
    lanes_seen: Vec<bool>,
    narrowed_in_flight: u64,
}

impl Rig {
    fn new(carry: bool) -> Self {
        // 16 lines, 2-way: eight sets.
        Rig::with_cache(
            carry,
            CacheConfig {
                capacity_bytes: 16 * SSD_PAGE_SIZE,
                associativity: 2,
            },
        )
    }

    fn with_cache(carry: bool, cache: CacheConfig) -> Self {
        let mut cfg = AgileConfig::small_test()
            .with_queue_pairs(QUEUES)
            .with_queue_depth(DEPTH);
        cfg.cache = cache;
        let mut devices = Vec::new();
        let mut queues = Vec::new();
        for id in 0..DEVICES {
            let mut dev = SsdDevice::new(SsdConfig::new(id as u32).with_capacity_pages(PAGES));
            let qps: Vec<Arc<QueuePair>> = (0..QUEUES)
                .map(|q| {
                    let qp = QueuePair::new(q as u16, DEPTH);
                    dev.register_queue_pair(Arc::clone(&qp));
                    qp
                })
                .collect();
            devices.push(dev);
            queues.push(qps);
        }
        let ctrl = Arc::new(AgileCtrl::new(cfg, queues));
        let log = Arc::new(TraceLog::default());
        assert!(ctrl
            .io()
            .set_trace_sink(Arc::clone(&log) as Arc<dyn TraceSink>));
        Rig {
            service: AgileService::new(Arc::clone(&ctrl)),
            ctrl,
            devices,
            log,
            carry,
            reads: (0..WARPS).map(|_| (Vec::new(), WarpWait::new())).collect(),
            stores: HashMap::new(),
            lanes_seen: Vec::with_capacity(8),
            narrowed_in_flight: 0,
        }
    }

    fn read(&mut self, warp: usize, tenant: u32, now: Cycles) -> (u64, String) {
        let (requests, wait) = &mut self.reads[warp];
        if !self.carry {
            *wait = WarpWait::new();
        }
        let (cost, outcome) = self
            .ctrl
            .io()
            .read_warp(warp as u64, tenant, requests, now, wait);
        // What the cached replay decides from: whether any lane can retire.
        let result = match outcome {
            ReadOutcome::Ready(tokens) => format!("ready {tokens:?}"),
            ReadOutcome::Pending => format!("pending, any ready: {}", wait.any_ready()),
        };
        (cost.raw(), result)
    }

    /// Retire the lanes of `warp`'s last read that it left resident, as a
    /// cached replay warp does right after the read.
    fn retire(&mut self, warp: usize) -> String {
        let (requests, wait) = &mut self.reads[warp];
        let io = self.ctrl.io();
        let peeked: Vec<bool> = requests
            .iter()
            .map(|&(dev, lba)| io.cache().peek(dev, lba).is_some())
            .collect();
        let (lanes, any_ready) = (requests.len(), wait.any_ready());
        let seen = &mut self.lanes_seen;
        seen.clear();
        let before = allocations();
        let retired = io.retire_resident(wait, requests, |lane, resident| {
            assert_eq!(lane, seen.len());
            seen.push(resident);
        });
        assert_eq!(allocations() - before, 0, "narrowing allocated");
        if any_ready {
            assert_eq!(*seen, peeked, "per-lane residency");
        } else {
            assert!(
                seen.is_empty(),
                "an attempt that hit nothing is not looked at"
            );
            assert!(!peeked.contains(&true), "a lane it missed is resident");
        }
        assert_eq!(retired, peeked.iter().filter(|&&r| r).count());
        assert_eq!(wait.unique().len(), wait.pages().len());
        if retired > 0
            && wait
                .pages()
                .iter()
                .any(|p| matches!(p, PageState::InFlight(_)))
        {
            self.narrowed_in_flight += 1;
        }
        format!("retired {retired} of {lanes}, left {requests:?}")
    }

    fn write(&mut self, warp: usize, arg: u8, now: Cycles) -> (u64, String) {
        let (dev, lba) = request_set(arg)[0];
        let token = PageToken(0xD000 + arg as u64);
        let carried = self.stores.entry((warp, dev, lba)).or_default();
        let mut fresh = LineWait::default();
        let wait = if self.carry { carried } else { &mut fresh };
        let (cost, stored) =
            self.ctrl
                .io()
                .write_warp(warp as u64, tenant_of(arg), dev, lba, token, now, wait);
        if stored {
            // The store is done; the next one to this page starts over.
            self.stores.remove(&(warp, dev, lba));
        }
        (cost.raw(), format!("stored: {stored}"))
    }

    fn step(&mut self, (_, action, warp, arg): Step, now: Cycles) -> (u64, String) {
        let warp = warp as usize % WARPS;
        match action % 8 {
            // A new array-like read …
            0 => {
                self.reads[warp].0 = request_set(arg);
                self.read(warp, tenant_of(arg), now)
            }
            // … and, as in a stalled warp, mostly retries of the last one …
            1 | 2 => self.read(warp, tenant_of(arg), now),
            // … some of which retire the lanes they found resident.
            3 => {
                let (cost, result) = self.read(warp, tenant_of(arg), now);
                (cost, format!("{result}; {}", self.retire(warp)))
            }
            4 => self.write(warp, arg, now),
            5 => {
                let (cost, retry) =
                    self.ctrl
                        .prefetch_warp_as(warp as u64, tenant_of(arg), &request_set(arg), now);
                (cost.raw(), format!("prefetch, retry {retry:?}"))
            }
            // The AGILE service: retire what the devices have posted.
            _ => {
                let retired: u32 = (0..DEVICES * QUEUES)
                    .map(|target| self.service.poll_cq(target, now))
                    .sum();
                (0, format!("retired {retired}"))
            }
        }
    }
}

fn run(script: &[Step], carry: bool) -> Observed {
    let mut rig = Rig::new(carry);
    let mut now = Cycles(0);
    let mut calls = Vec::new();
    for &step in script {
        now += Cycles(step.0);
        for dev in &mut rig.devices {
            dev.advance_to(now);
        }
        calls.push(rig.step(step, now));
        for dev in &mut rig.devices {
            dev.advance_to(now);
        }
    }
    let cache = rig.ctrl.cache();
    let trace = rig.log.0.lock().unwrap().clone();
    Observed {
        calls,
        io: rig.ctrl.io().stats(),
        cache: cache.stats(),
        pins: cache.total_pins(),
        trace,
        narrowed_in_flight: rig.narrowed_in_flight,
    }
}

proptest! {
    // The release-mode CI step runs the larger count.
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 48 } else { 384 }))]

    #[test]
    fn carried_wait_state_changes_nothing_observable(
        script in collection::vec((0u64..40_000, any::<u8>(), any::<u8>(), any::<u8>()), 1..160),
    ) {
        prop_assert_eq!(run(&script, true), run(&script, false));
    }
}

#[test]
fn generated_scripts_do_reach_the_hard_paths() {
    // Guard the property's coverage claim with one fixed script: BUSY waits,
    // SQ-full aborts, dirty evictions with their write-backs and
    // `NoLineAvailable` all occur, and the two rigs still agree.
    let script: Vec<Step> = (0..900u32)
        .map(|i| {
            // The service runs once in 23 steps, so the 16 SQ slots fill up
            // in between.
            let action = match (i % 23, i % 7) {
                (22, _) => 6,
                (_, 0) => 0,
                (_, 1) => 1,
                (_, 2) if i % 3 > 0 => 1,
                (_, 2) => 3,
                (_, 3 | 4) => 4,
                _ => 5,
            };
            (
                1_500 + (i as u64 % 5) * 900,
                action,
                (i % 3) as u8,
                (i * 5 % 251) as u8,
            )
        })
        .collect();
    let carried = run(&script, true);
    let io = &carried.io;
    assert!(io.cache_coalesced > 50, "BUSY waits: {io:?}");
    assert!(io.sq_full_retries > 0, "SQ-full aborts: {io:?}");
    assert!(carried.cache.writebacks > 0, "dirty evictions");
    assert!(carried.cache.no_line > 0, "NoLineAvailable");
    assert!(carried.cache.hits > 0, "hits");
    assert!(
        carried.narrowed_in_flight > 0,
        "retirements that kept tickets"
    );
    assert_eq!(carried, run(&script, false));
}

// ---------------------------------------------------------------------------
// Residency after a miss that took a line the attempt hit
// ---------------------------------------------------------------------------

/// A rig whose cache is one direct-mapped line: every page shares it.
fn one_line_rig() -> Rig {
    Rig::with_cache(
        true,
        CacheConfig {
            capacity_bytes: SSD_PAGE_SIZE,
            associativity: 1,
        },
    )
}

const HIT: (u32, Lba) = (0, 1);
const MISS: (u32, Lba) = (0, 2);

#[test]
fn a_page_hit_then_evicted_by_a_later_miss_is_not_resident() {
    let rig = one_line_rig();
    let io = rig.ctrl.io();
    assert!(io.cache().preload(HIT.0, HIT.1, PageToken(5)));
    let mut requests = vec![HIT, MISS, HIT];
    let mut wait = WarpWait::new();
    let (_, outcome) = io.read_warp(0, NO_TENANT, &requests, Cycles(0), &mut wait);
    assert_eq!(outcome, ReadOutcome::Pending);
    // The attempt hit the first page, then the second one's miss took its
    // line and issued the fill.
    assert_eq!(wait.pages()[0], PageState::Ready(PageToken(5)));
    assert!(matches!(wait.pages()[1], PageState::InFlight(_)));
    assert_eq!(io.cache().peek(HIT.0, HIT.1), None);
    let mut resident = Vec::new();
    let retired = io.retire_resident(&mut wait, &mut requests, |_, r| resident.push(r));
    assert_eq!(resident, [false; 3]);
    assert_eq!((retired, requests.len()), (0, 3));
    assert_eq!(wait.unique(), [HIT, MISS]);
}

#[test]
fn a_page_hit_then_reinstated_by_a_refused_write_back_is_resident() {
    let rig = one_line_rig();
    let io = rig.ctrl.io();
    // The line holds the first page, dirty.
    let (_, stored) = io.write_warp(
        0,
        NO_TENANT,
        HIT.0,
        HIT.1,
        PageToken(5),
        Cycles(0),
        &mut LineWait::default(),
    );
    assert!(stored);
    // Every SQ of its device full: the victim's write-back will be refused.
    let full = || {
        let (_, issued) = io.raw_read(
            1,
            NO_TENANT,
            HIT.0,
            9,
            DmaHandle::new(),
            Barrier::new(),
            Cycles(0),
        );
        !issued
    };
    while !full() {}
    // The attempt hits the first page, then the second one's miss evicts it
    // and puts it back when the write-back is refused.
    let mut requests = vec![HIT, MISS, HIT];
    let mut wait = WarpWait::new();
    io.read_warp(0, NO_TENANT, &requests, Cycles(0), &mut wait);
    assert_eq!(wait.pages()[0], PageState::Ready(PageToken(5)));
    assert_eq!(wait.pages()[1], PageState::NotStarted, "write-back refused");
    assert_eq!(io.cache().peek(HIT.0, HIT.1), Some(PageToken(5)));
    let mut resident = Vec::new();
    let retired = io.retire_resident(&mut wait, &mut requests, |_, r| resident.push(r));
    assert_eq!(resident, [true, false, true]);
    assert_eq!(retired, 2);
    assert_eq!(requests, [MISS]);
    assert_eq!(wait.unique(), [MISS]);
    assert_eq!(wait.pages(), [PageState::NotStarted]);
}

// ---------------------------------------------------------------------------
// Waiting costs nothing
// ---------------------------------------------------------------------------

/// Counts this thread's allocations (other tests run on other threads).
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers every operation to `System` unchanged; the only addition is
// a thread-local counter bump, which neither allocates (const-initialised
// `Cell`) nor unwinds (`try_with` during thread teardown is ignored).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

const STALLED_READ: [(u32, Lba); 4] = [(0, 3), (1, 3), (0, 3), (0, 9)];
const STALLED_STORE: (u32, Lba) = (1, 3);
const POLLS: u64 = 1_000;

/// A warp stalled the way a cached replay warp is: its read's fills are in
/// flight (no device ever completes them) and its store is blocked behind
/// one of them. Returns the rig and the wait state of both.
fn stalled_warp() -> (Rig, WarpWait, LineWait) {
    let rig = Rig::new(true);
    let io = rig.ctrl.io();
    let mut read_wait = WarpWait::new();
    let (_, outcome) = io.read_warp(0, 1, &STALLED_READ, Cycles(0), &mut read_wait);
    assert_eq!(outcome, ReadOutcome::Pending);
    let in_flight = |p: &PageState| matches!(p, PageState::InFlight(_));
    assert!(
        read_wait.pages().iter().all(in_flight),
        "every fill went out"
    );
    let mut store_wait = LineWait::default();
    let (dev, lba) = STALLED_STORE;
    let (_, stored) = io.write_warp(0, 1, dev, lba, PageToken(7), Cycles(0), &mut store_wait);
    assert!(!stored, "the page's fill is in flight");
    (rig, read_wait, store_wait)
}

/// `POLLS` retries of the stalled read and the stalled store.
fn poll_stalled(io: &IoPath, read_wait: &mut WarpWait, store_wait: &mut LineWait) {
    let (dev, lba) = STALLED_STORE;
    for poll in 1..=POLLS {
        let now = Cycles(poll * 2_000);
        let (_, outcome) = io.read_warp(0, 1, &STALLED_READ, now, read_wait);
        assert_eq!(outcome, ReadOutcome::Pending);
        assert!(!read_wait.any_ready());
        let (_, stored) = io.write_warp(0, 1, dev, lba, PageToken(7), now, store_wait);
        assert!(!stored);
    }
}

#[test]
fn a_ticketed_stalled_poll_allocates_nothing() {
    let (rig, mut read_wait, mut store_wait) = stalled_warp();
    let (io_before, cache_before) = (rig.ctrl.io().stats(), rig.ctrl.cache().stats());
    let events_before = rig.log.0.lock().unwrap().len();
    // The recording sink allocates as its log grows; give it room first.
    rig.log.0.lock().unwrap().reserve(8 * POLLS as usize);

    let before = allocations();
    poll_stalled(rig.ctrl.io(), &mut read_wait, &mut store_wait);
    assert_eq!(allocations() - before, 0);

    // Not vacuous: the counter sees this thread's allocations, and every
    // poll was accounted like the lookups it stood in for — three unique
    // pages and one store found BUSY, one lane coalesced away.
    let boxed = std::hint::black_box(Box::new(before));
    assert_eq!(allocations() - before, 1);
    drop(boxed);
    let (io, cache) = (rig.ctrl.io().stats(), rig.ctrl.cache().stats());
    assert_eq!(io.read_calls - io_before.read_calls, POLLS);
    assert_eq!(io.cache_coalesced - io_before.cache_coalesced, 3 * POLLS);
    assert_eq!(io.warp_coalesced - io_before.warp_coalesced, POLLS);
    assert_eq!(cache.busy_hits - cache_before.busy_hits, 4 * POLLS);
    assert_eq!(cache.misses, cache_before.misses);
    {
        let log = rig.log.0.lock().unwrap();
        assert_eq!(log.len() - events_before, 4 * POLLS as usize);
        assert_eq!(log.last().map(|ev| ev.at), Some(POLLS * 2_000));
    }

    // What a sleeping reader's retry interval is judged by is what one more
    // read costs.
    let io = rig.ctrl.io();
    let cycles = io.stats().cache_cycles;
    let now = Cycles((POLLS + 1) * 2_000);
    io.read_warp(0, 1, &STALLED_READ, now, &mut read_wait);
    assert_eq!(
        io.stats().cache_cycles - cycles,
        io.repoll_cost(&read_wait).raw()
    );
}

#[test]
fn a_ticketed_stalled_poll_takes_no_set_lock() {
    let (rig, mut read_wait, mut store_wait) = stalled_warp();
    // Hold every set lock while another thread polls: a
    // ticketed poll returns without ever wanting one.
    let (tx, rx) = std::sync::mpsc::channel();
    let io = rig.ctrl.io();
    let polled = std::thread::scope(|scope| {
        let guards = io.cache().lock_all_sets();
        scope.spawn(|| {
            poll_stalled(io, &mut read_wait, &mut store_wait);
            tx.send(()).unwrap();
        });
        let polled = rx.recv_timeout(std::time::Duration::from_secs(20));
        drop(guards);
        polled
    });
    assert_eq!(polled, Ok(()), "a ticketed poll blocked on a set lock");

    // Fresh wait state is the plain path, and that one does look the pages
    // up — with the locks released it finds them BUSY like the tickets did.
    let before = rig.ctrl.cache().stats().busy_hits;
    let mut fresh = WarpWait::new();
    let (_, outcome) = rig
        .ctrl
        .io()
        .read_warp(0, 1, &STALLED_READ, Cycles(0), &mut fresh);
    assert_eq!(outcome, ReadOutcome::Pending);
    assert_eq!(rig.ctrl.cache().stats().busy_hits - before, 3);
}

// ---------------------------------------------------------------------------
// Sleeping on fills
// ---------------------------------------------------------------------------

#[test]
fn a_wait_with_anything_but_fills_in_flight_is_polled() {
    let (rig, read_wait, store_wait) = stalled_warp();
    let io = rig.ctrl.io();
    let mut sleeper = None;
    // A store with nothing to wait on (fresh, or its write-back refused) has
    // to be retried for real.
    let unblocked = LineWait::default();
    let wait = io.park_on_fills(
        &mut sleeper,
        Some(&read_wait),
        [&store_wait, &unblocked].into_iter(),
    );
    assert_eq!(wait, Wait::polling(WaitReason::CacheLine));
    // So has a read one of whose pages is resident (the lookup of a
    // resident page touches the replacement policy).
    let mut mixed = WarpWait::new();
    assert!(rig.ctrl.cache().preload(1, 11, PageToken(3)));
    io.read_warp(0, 1, &[(0, 3), (1, 11)], Cycles(0), &mut mixed);
    let wait = io.park_on_fills(&mut sleeper, Some(&mixed), std::iter::empty());
    assert_eq!(wait, Wait::polling(WaitReason::CacheFill));
}

#[test]
fn a_batch_waiting_on_fills_and_full_sets_parks_for_a_line() {
    // Sixteen pages over the sixteen lines, eight per device (as many as its
    // SQs hold, so no fill is refused): every fill goes out but some set gets
    // more than its two ways, and the pages left over find no line in a set
    // whose every way is being filled.
    let rig = Rig::new(true);
    let io = rig.ctrl.io();
    let pages: Vec<(u32, Lba)> = (0..16).map(|i| (i % 2, i as Lba / 2)).collect();
    let mut read_wait = WarpWait::new();
    let (cost, outcome) = io.read_warp(0, NO_TENANT, &pages, Cycles(0), &mut read_wait);
    assert_eq!(outcome, ReadOutcome::Pending);
    assert_eq!(io.stats().sq_full_retries, 0, "no fill was refused");
    let not_started: Vec<(u32, Lba)> = read_wait
        .unique()
        .iter()
        .zip(read_wait.pages())
        .filter(|&(_, page)| *page == PageState::NotStarted)
        .map(|(&target, _)| target)
        .collect();
    let started = read_wait.pages().len() - not_started.len();
    assert!(!not_started.is_empty() && started > 0);

    // A lookup that found no line costs a miss, one that found the fill in
    // flight a hit; the next attempt costs the same, because it finds the
    // same.
    let costs = AgileConfig::small_test().costs;
    let repoll = io.repoll_cost(&read_wait);
    assert_eq!(
        repoll.raw(),
        costs.gpu.warp_primitive
            + costs.api.agile_cache_miss * not_started.len() as u64
            + costs.api.agile_cache_hit * started as u64
    );
    assert!(repoll < cost, "the first attempt issued the fills");
    let cycles = io.stats().cache_cycles;
    io.read_warp(0, NO_TENANT, &pages, Cycles(2_000), &mut read_wait);
    assert_eq!(io.stats().cache_cycles - cycles, repoll.raw());

    // A store to a page of a full set finds no line either.
    let (dev, lba) = not_started[0];
    let mut store_wait = LineWait::default();
    let (_, stored) = io.write_warp(
        0,
        NO_TENANT,
        dev,
        lba,
        PageToken(1),
        Cycles(2_000),
        &mut store_wait,
    );
    assert!(!stored);

    let mut sleeper = None;
    let wait = io.park_on_fills(&mut sleeper, Some(&read_wait), std::iter::once(&store_wait));
    assert_eq!(wait.reason, WaitReason::CacheLine);
    assert!(
        wait.sleeper.is_some(),
        "fills and full sets alike are slept on"
    );
    assert_eq!(wait.sleeper, sleeper);
}

#[test]
fn two_warps_asleep_on_one_line_are_both_woken_by_its_fill() {
    let mut rig = Rig::new(true);
    let (mut first, mut second) = (WarpWait::new(), WarpWait::new());
    let page = [(0u32, 5u64)];
    let hub = Arc::clone(rig.ctrl.io().wake_hub());
    let sleepers: Vec<SleeperId> = [(0u64, &mut first), (1, &mut second)]
        .into_iter()
        .map(|(warp, wait)| {
            let io = rig.ctrl.io();
            let (_, outcome) = io.read_warp(warp, NO_TENANT, &page, Cycles(0), wait);
            assert_eq!(outcome, ReadOutcome::Pending);
            let mut sleeper = None;
            let parked = io.park_on_fills(&mut sleeper, Some(wait), std::iter::empty());
            assert!(
                parked.sleeper.is_some(),
                "one issued the fill, one found it BUSY"
            );
            hub.park(sleeper.unwrap());
            sleeper.unwrap()
        })
        .collect();
    assert!(!hub.has_fired());
    // The device completes the read; the service retires it.
    let mut now = Cycles(0);
    while rig.service.stats().completions == 0 {
        now += Cycles(2_000);
        assert!(now.raw() < 10_000_000, "the fill never completed");
        for dev in &mut rig.devices {
            dev.advance_to(now);
        }
        for target in 0..rig.service.target_count() {
            rig.service.poll_cq(target, now);
        }
    }
    let mut fired = Vec::new();
    hub.drain(&mut fired, &mut Vec::new());
    assert_eq!(fired, sleepers, "both, in id order, once each");
    // The line's waiter entries are gone with the fill: nothing fires twice.
    for &sleeper in &sleepers {
        hub.park(sleeper);
    }
    rig.ctrl.cache().preload(0, 6, PageToken(1));
    assert!(!hub.has_fired());
}

#[test]
fn park_notify_wake_allocates_nothing_in_steady_state() {
    let (rig, read_wait, store_wait) = stalled_warp();
    let io = rig.ctrl.io();
    let hub = Arc::clone(io.wake_hub());
    rig.log.0.lock().unwrap().reserve(8 * POLLS as usize);
    let mut fired = Vec::with_capacity(4);
    let mut sleeper = None;
    let mut cycle = || {
        // The kernel parks, the engine parks it, a producer notifies, the
        // engine drains.
        let wait = io.park_on_fills(&mut sleeper, Some(&read_wait), std::iter::once(&store_wait));
        let id = wait.sleeper.expect("parkable");
        hub.park(id);
        hub.notify(id);
        assert!(hub.has_fired());
        hub.drain(&mut fired, &mut Vec::new());
        assert_eq!(fired, [id]);
    };
    // Warm-up: the sleeper is registered and the watcher buckets get their
    // capacity.
    cycle();
    let before = allocations();
    for _ in 0..200 {
        cycle();
    }
    // The real producer path too: the fill of one watched line ends.
    let PageState::InFlight(ticket) = read_wait.pages()[0] else {
        panic!("in flight");
    };
    hub.park(sleeper.unwrap());
    io.cache().abort_fill(ticket.line);
    assert!(hub.has_fired(), "the watcher on that line was notified");
    assert_eq!(allocations() - before, 0);
    let boxed = std::hint::black_box(Box::new(before));
    assert_eq!(allocations() - before, 1, "the counter is live");
    drop(boxed);
}

#[test]
fn a_sleeper_that_is_asleep_is_not_offered_to_a_second_warp() {
    // Two warps sharing one wait slot (an accessor table keyed by a warp
    // index that a rounded-up launch aliases): the first sleeps on it, the
    // second is told to poll, and gets it once the first has been woken.
    let (rig, read_wait, store_wait) = stalled_warp();
    let io = rig.ctrl.io();
    let hub = Arc::clone(io.wake_hub());
    let mut slot = None;
    let offer = |slot: &mut Option<SleeperId>| {
        io.park_on_fills(slot, Some(&read_wait), std::iter::once(&store_wait))
    };
    let first = offer(&mut slot);
    hub.park(first.sleeper.expect("parkable"));
    assert_eq!(offer(&mut slot), Wait::polling(WaitReason::CacheFill));
    hub.notify(slot.unwrap());
    let mut fired = Vec::new();
    hub.drain(&mut fired, &mut Vec::new());
    assert_eq!(offer(&mut slot), first);
}
