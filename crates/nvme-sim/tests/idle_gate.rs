//! The idle gate's contract, from outside the crate.
//!
//! * **Lazy advance is invisible.** The engine advances devices only at warp
//!   wake times and relies on a discrete-event device producing the same
//!   completions whether it is advanced often or rarely. The property below
//!   pins that: as long as every scheduled event time is visited and the
//!   device is advanced after each software action (ring, CQ consume), any
//!   number of *extra* advances in between — the idle ones the gate now
//!   short-circuits — changes nothing observable.
//! * **Idle costs nothing.** An idle `advance_device_to` takes no lock and
//!   allocates nothing.

use agile_sim::trace::{TraceEvent, TraceSink};
use agile_sim::Cycles;
use nvme_sim::{
    DeviceStats, DmaHandle, NvmeCommand, NvmeCompletion, PageToken, QueuePair, SsdConfig,
    SsdDevice, StorageTopology,
};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Lazy-advance equivalence
// ---------------------------------------------------------------------------

const QUEUES: usize = 2;
/// Shallow on purpose: software consumes CQEs only at `Consume` steps, so
/// completions park behind a full CQ in most generated scripts.
const DEPTH: u32 = 4;

/// One software action `dt` cycles after the previous one. `extras` are
/// offsets of additional advances squeezed in before it.
type Step = (u64, u8, u8, Vec<u64>);

#[derive(Default)]
struct TraceLog(Mutex<Vec<TraceEvent>>);

impl TraceSink for TraceLog {
    fn record(&self, ev: TraceEvent) {
        self.0.lock().unwrap().push(ev);
    }
}

/// Everything software or a trace consumer can observe of one run.
#[derive(Debug, PartialEq)]
struct Observed {
    /// `(consume time, CQE)` in the order software reaped them.
    cqes: Vec<(u64, NvmeCompletion)>,
    /// Final content of every read's DMA target, in submission order.
    dma_tokens: Vec<PageToken>,
    /// `next_event_time` after the advance following each action.
    next_events: Vec<Option<Cycles>>,
    stats: DeviceStats,
    trace: Vec<TraceEvent>,
}

/// The software side of one queue pair.
struct Software {
    qp: Arc<QueuePair>,
    sq_tail: u32,
    next_cid: u16,
    cq_idx: u32,
    cq_phase: bool,
}

impl Software {
    fn submit(&mut self, build: impl FnOnce(u16) -> NvmeCommand, now: Cycles) -> bool {
        if self.qp.sq.slot_occupied(self.sq_tail) {
            return false; // the device has not fetched this slot yet
        }
        assert!(self.qp.sq.write_slot(self.sq_tail, build(self.next_cid)));
        self.next_cid = self.next_cid.wrapping_add(1);
        self.sq_tail = (self.sq_tail + 1) % DEPTH;
        self.qp.sq_doorbell.ring(self.sq_tail, now);
        true
    }

    fn reap(&mut self, now: Cycles, out: &mut Vec<(u64, NvmeCompletion)>) {
        while let Some(cqe) = self.qp.cq.poll_slot(self.cq_idx, self.cq_phase) {
            out.push((now.raw(), cqe));
            self.qp.cq.consume(1);
            self.cq_idx += 1;
            if self.cq_idx == DEPTH {
                self.cq_idx = 0;
                self.cq_phase = !self.cq_phase;
            }
        }
    }
}

/// Advance `dev` at every scheduled event time in `(from, to)` — the points a
/// stepwise scheduler would visit — merged with the `extra` points.
fn advance_between(dev: &mut SsdDevice, from: Cycles, to: Cycles, extra: &[Cycles]) {
    let mut extra = extra.iter().copied().peekable();
    let mut at = from;
    loop {
        let event = dev.next_event_time().map(|t| t.max(at)).filter(|&t| t < to);
        let next = match (event, extra.peek().copied()) {
            (Some(e), Some(x)) => e.min(x),
            (Some(e), None) => e,
            (None, Some(x)) => x,
            (None, None) => return,
        };
        if extra.peek() == Some(&next) {
            extra.next();
        }
        at = next;
        dev.advance_to(at);
    }
}

fn run(script: &[Step], with_extras: bool) -> Observed {
    let mut dev = SsdDevice::new(SsdConfig::new(0).with_capacity_pages(64));
    let log = Arc::new(TraceLog::default());
    assert!(dev.set_trace_sink(Arc::clone(&log) as Arc<dyn TraceSink>));
    let mut sw: Vec<Software> = (0..QUEUES)
        .map(|q| {
            let qp = QueuePair::new(q as u16, DEPTH);
            dev.register_queue_pair(Arc::clone(&qp));
            Software {
                qp,
                sq_tail: 0,
                next_cid: 0,
                cq_idx: 0,
                cq_phase: true,
            }
        })
        .collect();

    let mut cqes = Vec::new();
    let mut reads: Vec<DmaHandle> = Vec::new();
    let mut next_events = Vec::new();
    let mut submitted = 0usize;
    let mut now = Cycles(0);
    for (dt, action, arg, extras) in script {
        let t = now + Cycles(*dt);
        let mut extra: Vec<Cycles> = if with_extras && *dt > 0 {
            extras.iter().map(|o| now + Cycles(o % dt)).collect()
        } else {
            Vec::new()
        };
        extra.sort_unstable();
        advance_between(&mut dev, now, t, &extra);
        now = t;

        let q = &mut sw[*arg as usize % QUEUES];
        // Out-of-range LBAs (≥ 64) exercise the error completion path.
        let lba = *arg as u64 % 80;
        submitted += match action % 6 {
            0 | 1 => {
                let dma = DmaHandle::new();
                let ok = q.submit(|cid| NvmeCommand::read(cid, lba, dma.clone()), now);
                if ok {
                    reads.push(dma);
                }
                ok as usize
            }
            2 => {
                let dma = DmaHandle::with_token(PageToken(0xD000 + submitted as u64));
                q.submit(|cid| NvmeCommand::write(cid, lba, dma), now) as usize
            }
            3 => q.submit(NvmeCommand::flush, now) as usize,
            4 => {
                q.reap(now, &mut cqes);
                0
            }
            _ => 0, // a bare advance
        };
        dev.advance_to(now);
        if with_extras {
            // Same-time repeats right after a real advance are idle too.
            for _ in 0..extras.len() {
                dev.advance_to(now);
            }
        }
        assert_eq!(dev.gate().pending_rings(), 0, "every ring was drained");
        assert!(
            dev.next_event_time().is_none_or(|e| e > now),
            "no due event survives an advance"
        );
        next_events.push(dev.next_event_time());
    }

    // Reap until the device drains; a lost completion never gets here.
    for _ in 0..10_000 {
        for q in &mut sw {
            q.reap(now, &mut cqes);
        }
        dev.advance_to(now);
        if dev.quiescent() && cqes.len() == submitted {
            break;
        }
        now = dev
            .next_event_time()
            .map_or(now + Cycles(1_000), |t| t.max(now));
    }
    assert!(dev.quiescent(), "device never drained");
    assert_eq!(cqes.len(), submitted, "one completion per command");
    assert!(dev.gate().idle_at(now + Cycles(1 << 40)));

    let trace = log.0.lock().unwrap().clone();
    Observed {
        cqes,
        dma_tokens: reads.iter().map(DmaHandle::load).collect(),
        next_events,
        stats: dev.stats().clone(),
        trace,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn extra_advances_change_nothing_observable(
        script in collection::vec(
            (0u64..60_000, any::<u8>(), any::<u8>(), collection::vec(any::<u64>(), 0..5)),
            1..120,
        ),
    ) {
        let sparse = run(&script, false);
        let dense = run(&script, true);
        prop_assert_eq!(&sparse, &dense);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The gate's lock-free `next_event_time` — what `StorageTopology`
    /// reports to the engine — is the device's own, after every software
    /// action and every advance, including rings the device has not drained
    /// yet and advances that leave events due.
    #[test]
    fn the_gate_reads_the_devices_next_event_time(
        script in collection::vec((0u64..20_000, any::<u8>(), any::<u8>()), 1..150),
    ) {
        let mut dev = SsdDevice::new(SsdConfig::new(0).with_capacity_pages(64));
        let mut sw: Vec<Software> = (0..QUEUES)
            .map(|q| {
                let qp = QueuePair::new(q as u16, DEPTH);
                dev.register_queue_pair(Arc::clone(&qp));
                Software { qp, sq_tail: 0, next_cid: 0, cq_idx: 0, cq_phase: true }
            })
            .collect();
        let (mut now, mut cqes) = (Cycles(0), Vec::new());
        for (dt, action, arg) in script {
            now += Cycles(dt);
            let q = &mut sw[arg as usize % QUEUES];
            match action % 4 {
                0 | 1 => {
                    q.submit(|cid| NvmeCommand::read(cid, arg as u64 % 64, DmaHandle::new()), now);
                }
                2 => q.reap(now, &mut cqes),
                _ => {}
            }
            prop_assert_eq!(dev.gate().next_event_time(), dev.next_event_time());
            // Sometimes the device is not looked at before the next action.
            if action & 0x10 == 0 {
                dev.advance_to(now);
                prop_assert_eq!(dev.gate().next_event_time(), dev.next_event_time());
            }
        }
    }
}

#[test]
fn generated_scripts_do_reach_the_parked_path() {
    // Guard the property's coverage claim: with a 4-deep CQ reaped only now
    // and then, completions do park (no benchmark workload gets there).
    let script: Vec<Step> = (0..200u32)
        .map(|i| {
            let action = if i % 23 == 22 { 4 } else { 0 };
            (3_000, action, (i % 2) as u8, vec![1, 2])
        })
        .collect();
    let observed = run(&script, true);
    assert!(observed.stats.cq_stalls > 0);
    assert_eq!(observed, run(&script, false));
}

// ---------------------------------------------------------------------------
// Idle costs nothing
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

/// One read through device 0 of `topology`, advanced until it has posted;
/// returns the time reached. Leaves every device idle.
fn one_read_to_completion(topology: &StorageTopology, qp: &QueuePair) -> Cycles {
    assert!(qp
        .sq
        .write_slot(0, NvmeCommand::read(1, 3, DmaHandle::new())));
    qp.sq_doorbell.ring(1, Cycles(0));
    let mut now = Cycles(0);
    while qp.cq.total_posted() == 0 {
        now = topology.next_event_time().unwrap_or(now).max(now);
        topology.advance_to(now);
        now += Cycles(1);
        assert!(now.raw() < 10_000_000, "read never completed");
    }
    now
}

#[test]
fn idle_advance_allocates_nothing() {
    let topology = StorageTopology::new(3);
    let queues = topology.register_queues(8, 64);
    let mut now = one_read_to_completion(&topology, &queues[0][0]);

    let before = allocations();
    for _ in 0..10_000 {
        now += Cycles(1_000);
        topology.advance_to(now);
        (0..3).for_each(|dev| topology.advance_device_to(dev, now));
    }
    assert_eq!(allocations() - before, 0);

    // Not vacuous: the counter sees this thread's allocations, and a ring
    // reopens the gate.
    let boxed = std::hint::black_box(Box::new(now));
    assert_eq!(allocations() - before, 1);
    drop(boxed);
    queues[2][5].sq_doorbell.ring(0, now);
    topology.advance_to(now);
    assert_eq!(topology.device_stats(2).doorbells, 1);
}

#[test]
fn idle_advance_takes_no_device_lock() {
    let topology = StorageTopology::new(2);
    let queues = topology.register_queues(2, 16);
    let now = Cycles(5_000);
    topology.advance_to(now);

    // Hold device 0's lock while another thread advances it: an idle advance
    // returns without ever wanting the lock.
    let (tx, rx) = std::sync::mpsc::channel();
    let idle_returned = std::thread::scope(|scope| {
        let guard = topology.device(0);
        scope.spawn(|| {
            topology.advance_device_to(0, now);
            tx.send(()).unwrap();
        });
        let returned = rx.recv_timeout(std::time::Duration::from_secs(20));
        drop(guard);
        returned
    });
    assert_eq!(
        idle_returned,
        Ok(()),
        "idle advance blocked on the device lock"
    );

    // A ring reopens the gate, and the next advance does the work.
    queues[0][1].sq_doorbell.ring(0, now);
    topology.advance_device_to(0, now);
    assert_eq!(topology.device(0).stats().doorbells, 1);
}
