//! What a generated graph costs on the host, held and while it is built.
//!
//! A graph holds its neighbour indices (4 bytes an edge) and its row offsets;
//! edge weights are computed, not stored. Building it holds the generator's
//! edge list (8 bytes an edge) beside the finished CSR, and nothing more: the
//! offsets double as the scatter's cursors. So for `E` edges over `V`
//! vertices the budgets are
//!
//! - held: [`HELD_PER_EDGE`] bytes an edge + 8 B × (V + 2);
//! - peak live heap during the call: [`PEAK_PER_EDGE`] bytes an edge +
//!   8 B × (V + 2) + [`PEAK_SLACK`].
//!
//! At the paper's graph sizes (hundreds of millions of edges) these decide
//! whether a graph fits in host memory at all.
//!
//! `cargo test --release -p agile-workloads --test graph_footprint -- --nocapture`
//! prints the measured bytes per edge.

use agile_workloads::graph::{generate_kronecker, generate_uniform, CsrGraph};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Heap bytes an edge of a finished graph may cost.
const HELD_PER_EDGE: u64 = 4;
/// Heap bytes an edge may cost at the build's high-water mark.
const PEAK_PER_EDGE: u64 = 12;
/// Room for the generator's small fixed allocations.
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

/// Build a graph with `build` and return it with `(heap bytes it holds,
/// peak live heap bytes during the call)`, both counted from the call's start.
fn measure(build: impl FnOnce() -> CsrGraph) -> (CsrGraph, u64, u64) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let graph = build();
    let held = LIVE.with(Cell::get) - before;
    let peak = PEAK.with(Cell::get) - before;
    (graph, held as u64, peak as u64)
}

fn check(name: &str, build: impl FnOnce() -> CsrGraph) {
    let (graph, held, peak) = measure(build);
    let (v, e) = (graph.num_vertices() as u64, graph.num_edges() as u64);
    let offsets = 8 * (v + 2);
    let per_edge = |bytes: u64| bytes.saturating_sub(offsets) as f64 / e as f64;
    println!(
        "{name}: {v} vertices, {e} edges; holds {held} B ({:.2} B per edge beyond the \
         offsets), peaks at {peak} B ({:.2} B per edge beyond the offsets)",
        per_edge(held),
        per_edge(peak)
    );
    assert!(
        held <= HELD_PER_EDGE * e + offsets,
        "{name}: the graph holds {held} heap bytes, over its budget of \
         {HELD_PER_EDGE} B per edge + 8 B per offset"
    );
    assert!(
        peak <= PEAK_PER_EDGE * e + offsets + PEAK_SLACK,
        "{name}: building the graph peaked at {peak} heap bytes, over its budget of \
         {PEAK_PER_EDGE} B per edge + 8 B per offset + {PEAK_SLACK} B"
    );
}

#[test]
fn a_kronecker_graph_holds_4_bytes_an_edge_and_peaks_at_12() {
    check("kronecker(16, 16, 0xA61E)", || {
        generate_kronecker(16, 16, 0xA61E)
    });
}

#[test]
fn a_uniform_graph_holds_4_bytes_an_edge_and_peaks_at_12() {
    check("uniform(2^16, 16, 1)", || generate_uniform(1 << 16, 16, 1));
}
