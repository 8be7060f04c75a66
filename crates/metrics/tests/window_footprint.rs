//! What the windowed series costs on the host.
//!
//! A sampler keeps every window of a run, so a window must hold only what
//! changed in it: the counters that moved, the histograms that recorded and
//! every gauge, each sample at most [`SAMPLE_BYTES`] with no heap of its own
//! (names are `&'static str`, a histogram is boxed and owns its buckets). For
//! a window in which `k` of `N` counters moved, beside `G` gauges and `H`
//! histograms with `b` buckets in all, the budget is
//!
//! - held: [`SAMPLE_BYTES`] × (k + G + H) + `H` boxed histogram headers +
//!   16 B × b, plus [`WINDOW_OVERHEAD`] in the series;
//! - and a registry snapshot makes no allocation per sample.
//!
//! `cargo test --release -p agile-metrics --test window_footprint -- --nocapture`
//! prints the measured bytes and allocation counts.

use agile_metrics::{
    HistoSnapshot, LabelDim, Labels, MetricsRegistry, Sample, WindowSample, WindowedSampler,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;
use std::sync::Arc;

/// Heap bytes one stored sample may cost (inline, no heap of its own).
const SAMPLE_BYTES: u64 = 64;
/// Series bytes per window beside its samples: its `WindowSample`, twice
/// over for the series vector's doubling.
const WINDOW_OVERHEAD: u64 = 2 * size_of::<WindowSample>() as u64;
/// Allocations a snapshot may make, whatever its size: the sample vector
/// and the sort's scratch buffer, with room for one regrowth.
const SNAPSHOT_ALLOCS: u64 = 4;

/// Tracks this thread's live heap bytes and allocation calls (other tests
/// run on other threads).
struct CountingAlloc;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: i64, allocs: u64) {
    let _ = LIVE.try_with(|live| live.set(live.get() + bytes));
    let _ = ALLOCS.try_with(|n| n.set(n.get() + allocs));
}

// SAFETY: defers every operation to `System` unchanged; the only addition is
// thread-local counter updates, which neither allocate (const-initialised
// `Cell`s) nor unwind (`try_with` during thread teardown is ignored).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64, 1);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64, 1);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64), 0);
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64, 1);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f` and return its value with `(heap bytes it left live, allocation
/// calls it made)`.
fn measure<T>(f: impl FnOnce() -> T) -> (T, i64, u64) {
    let (live, allocs) = (LIVE.with(Cell::get), ALLOCS.with(Cell::get));
    let value = f();
    (
        value,
        LIVE.with(Cell::get) - live,
        ALLOCS.with(Cell::get) - allocs,
    )
}

const COUNTERS: u32 = 256;
const MOVED: u32 = 16;
const GAUGES: u32 = 4;
/// Latencies recorded into the one histogram in every window: three buckets.
const LATENCIES: [u64; 3] = [100, 1_000, 10_000];

/// A registry of [`COUNTERS`] counters, [`GAUGES`] gauges and one histogram.
struct Rig {
    reg: Arc<MetricsRegistry>,
    counters: Vec<agile_metrics::Counter>,
    histo: agile_metrics::Histo,
}

impl Rig {
    fn new() -> Self {
        let reg = MetricsRegistry::new();
        let family = reg.counter_family("agile_test_ops_total", LabelDim::Tenant);
        let counters = (0..COUNTERS).map(|t| family.with(t)).collect();
        let gauges = reg.gauge_family("agile_test_occupancy", LabelDim::Tenant);
        for t in 0..GAUGES {
            gauges.with(t).set(u64::from(t) + 1);
        }
        let histo = reg.histo("agile_test_latency_cycles", Labels::NONE);
        Rig {
            reg,
            counters,
            histo,
        }
    }

    /// One window's activity: the first `moved` counters and the histogram.
    fn step(&self, moved: u32) {
        for c in &self.counters[..moved as usize] {
            c.add(3);
        }
        for v in LATENCIES {
            self.histo.record(v);
        }
    }
}

/// Budget for the samples of a window in which `MOVED` counters moved.
fn window_budget() -> u64 {
    SAMPLE_BYTES * u64::from(MOVED + GAUGES + 1)
        + size_of::<HistoSnapshot>() as u64
        + 16 * LATENCIES.len() as u64
}

#[test]
fn a_sample_is_64_bytes() {
    println!("Sample: {} B", size_of::<Sample>());
    assert!(size_of::<Sample>() as u64 <= SAMPLE_BYTES);
}

#[test]
fn a_snapshot_makes_no_allocation_per_sample() {
    for n in [64u32, 4_096] {
        let reg = MetricsRegistry::new();
        let family = reg.counter_family("agile_test_ops_total", LabelDim::Tenant);
        for t in 0..n {
            family.add(t, 1);
        }
        let _warm = reg.snapshot();
        let (snap, _, allocs) = measure(|| reg.snapshot());
        println!("snapshot of {n} counters: {allocs} allocations");
        assert_eq!(snap.samples.len(), n as usize);
        assert!(
            allocs <= SNAPSHOT_ALLOCS,
            "a snapshot of {n} counters made {allocs} allocations, over {SNAPSHOT_ALLOCS}"
        );
    }
}

#[test]
fn a_stored_window_holds_only_what_moved() {
    const WINDOWS: u64 = 200;
    let rig = Rig::new();
    let sampler = WindowedSampler::new(Arc::clone(&rig.reg), 1_000);
    // Window 0 moves everything, so the sampler's previous snapshot is
    // full-sized before the measured windows start.
    rig.step(COUNTERS);
    sampler.observe(1_000);
    let ((), held, _) = measure(|| {
        for w in 2..=WINDOWS + 1 {
            rig.step(MOVED);
            sampler.observe(w * 1_000);
        }
    });
    let per_window = held as f64 / WINDOWS as f64;
    let budget = window_budget() + WINDOW_OVERHEAD;
    println!(
        "{WINDOWS} windows with {MOVED} of {COUNTERS} counters moved: {held} B held, \
         {per_window:.1} B per window (budget {budget})"
    );
    assert_eq!(sampler.window_count() as u64, WINDOWS + 1);
    for w in sampler.windows_from(1) {
        assert_eq!(
            w.deltas.samples.len() as u32,
            MOVED + GAUGES + 1,
            "window {}: only the moved counters, the gauges and the histogram",
            w.index
        );
    }
    assert!(
        held as u64 <= WINDOWS * budget,
        "{WINDOWS} windows hold {held} B, over their budget of {budget} B each"
    );
}
