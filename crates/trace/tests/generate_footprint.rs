//! What generating a synthetic trace costs on the host, held and while it
//! is generated.
//!
//! A trace holds one [`TraceOp`] per op (24 bytes). Generation merges the
//! tenants' streams straight into that vector, sized up front, and keeps
//! nothing else per op. So for `N` ops the budgets are
//!
//! - held: [`PER_OP`] bytes an op, and the trace's name;
//! - peak live heap during `generate`: [`PER_OP`] bytes an op + [`PEAK_SLACK`].
//!
//! Checked on the benchmark's `replay_raw_large` spec (131 072 ops, three
//! tenants). A generator that builds a timeline and sorts it peaks near
//! 80 bytes an op and fails here.
//!
//! `cargo test --release -p agile-trace --test generate_footprint -- --nocapture`
//! prints the measured bytes per op.

use agile_trace::{Trace, TraceOp, TraceSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Heap bytes an op of a trace may cost, held and at generation's peak.
const PER_OP: u64 = std::mem::size_of::<TraceOp>() as u64;
/// Room for the per-tenant state (Zipf tables) and the trace's name.
const PEAK_SLACK: u64 = 64 << 10;

/// Tracks this thread's live heap bytes and their high-water mark (other
/// tests run on other threads).
struct CountingAlloc;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn count(bytes: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: defers every operation to `System` unchanged; the only addition is
// thread-local counter updates, which neither allocate (const-initialised
// `Cell`s) nor unwind (`try_with` during thread teardown is ignored).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn generating_the_raw_large_trace_holds_and_peaks_at_24_bytes_an_op() {
    let spec = TraceSpec::multi_tenant("raw-large", 42_526, 4, 1 << 16, 131_072);
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let trace: Trace = spec.generate();
    let held = (LIVE.with(Cell::get) - before) as u64;
    let peak = (PEAK.with(Cell::get) - before) as u64;
    let n = trace.ops.len() as u64;
    assert_eq!(n, 131_072);
    let per_op = |bytes: u64| bytes as f64 / n as f64;
    println!(
        "raw-large: {n} ops; holds {held} B ({:.2} B per op), peaks at {peak} B ({:.2} B per op)",
        per_op(held),
        per_op(peak)
    );
    assert!(
        held <= PER_OP * n + spec.name.len() as u64,
        "the trace holds {held} heap bytes, over its budget of {PER_OP} B per op and its name"
    );
    assert!(
        peak <= PER_OP * n + PEAK_SLACK,
        "generation peaked at {peak} heap bytes, over its budget of {PER_OP} B per op + \
         {PEAK_SLACK} B"
    );
}
