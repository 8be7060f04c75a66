//! What a software-cache line costs on the host, and what a lookup
//! allocates.
//!
//! A 2 GiB cache has 524 288 lines, so the per-line layout decides the
//! simulator's memory: the budget is [`BYTES_PER_LINE`] heap bytes a line for
//! a clock cache, and building a cache must make the same number of
//! allocations whatever its size (no allocation a line or a set). A lookup —
//! hit, coalesced, refused, or a miss that evicts a clean or a dirty victim,
//! under the clock or the tenant-share policy — allocates nothing.
//!
//! `cargo test --release -p agile-cache --test footprint -- --nocapture`
//! prints the measured bytes per line.

use agile_cache::{CacheConfig, CacheLookup, ClockPolicy, SoftwareCache, TenantShare, NO_TENANT};
use nvme_sim::PageToken;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Heap bytes a clock-cache line may cost.
const BYTES_PER_LINE: f64 = 32.0;

/// Counts this thread's allocation calls and live bytes (other tests run on
/// other threads).
struct CountingAlloc;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn count(calls: u64, bytes: i64) {
    let _ = CALLS.try_with(|n| n.set(n.get() + calls));
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: defers every operation to `System` unchanged; the only addition is
// thread-local counter bumps, which neither allocate (const-initialised
// `Cell`s) nor unwind (`try_with` during thread teardown is ignored).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as i64));
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size as i64 - layout.size() as i64);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(allocation calls, live heap bytes)` so far on this thread.
fn counters() -> (u64, i64) {
    (CALLS.with(Cell::get), LIVE.with(Cell::get))
}

/// A cache of `lines` 4 KiB lines, 8-way, under `policy`.
fn cache(lines: u64, policy: impl FnOnce() -> Box<dyn agile_cache::CachePolicy>) -> SoftwareCache {
    SoftwareCache::new(CacheConfig::with_capacity(lines * 4096), policy())
}

/// `(allocation calls, heap bytes held)` of a clock cache of `lines` lines.
fn build_cost(lines: u64) -> (u64, i64) {
    let (calls, live) = counters();
    let cache = cache(lines, || Box::new(ClockPolicy::new()));
    let (after_calls, after_live) = counters();
    assert_eq!(cache.num_lines() as u64, lines);
    (after_calls - calls, after_live - live)
}

#[test]
fn a_clock_line_costs_at_most_its_budget_and_no_allocation_of_its_own() {
    let (small_calls, small_bytes) = build_cost(1 << 12);
    let (large_calls, large_bytes) = build_cost(1 << 16);
    let per_line = large_bytes as f64 / (1 << 16) as f64;
    println!(
        "clock cache: {per_line:.2} heap bytes per line at 2^16 lines \
         ({:.2} at 2^12); {large_calls} allocations at 2^16, {small_calls} at 2^12",
        small_bytes as f64 / (1 << 12) as f64
    );
    assert_eq!(
        small_calls, large_calls,
        "building a cache must not allocate per line or per set"
    );
    assert!(
        per_line <= BYTES_PER_LINE,
        "a clock-cache line costs {per_line:.2} heap bytes, over its {BYTES_PER_LINE} budget"
    );
}

/// Allocation calls `f` makes.
fn allocations_in<R>(f: impl FnOnce() -> R) -> u64 {
    let (calls, _) = counters();
    let result = f();
    let (after, _) = counters();
    drop(result);
    after - calls
}

/// One set of eight ways (every page maps to it), each holding a page filled
/// and unpinned on behalf of `tenant(lba)`, dirty if `dirty`.
fn full_set(
    policy: impl FnOnce() -> Box<dyn agile_cache::CachePolicy>,
    dirty: bool,
    tenant: impl Fn(u64) -> u32,
) -> SoftwareCache {
    let cache = cache(8, policy);
    for lba in 0..8 {
        let CacheLookup::Miss { line, dma, .. } = cache.lookup_or_reserve_as(0, lba, tenant(lba))
        else {
            panic!("page {lba} must miss into a free way");
        };
        dma.store(PageToken(lba));
        cache.complete_fill(line);
        if dirty {
            cache.store(line, PageToken(1_000 + lba));
        }
        cache.unpin(line);
    }
    cache
}

/// Look up a new page as `tenant`: the lookup must evict, as `dirty`
/// predicts, and allocate nothing.
fn evict_without_allocating(cache: &SoftwareCache, lba: u64, tenant: u32, dirty: bool, what: &str) {
    let mut lookup = None;
    let calls = allocations_in(|| lookup = Some(cache.lookup_or_reserve_as(0, lba, tenant)));
    let Some(CacheLookup::Miss {
        line, writeback, ..
    }) = lookup
    else {
        panic!("{what}: expected an evicting miss, got {lookup:?}");
    };
    assert_eq!(writeback.is_some(), dirty, "{what}: write-back");
    assert_eq!(calls, 0, "{what}: an evicting lookup allocated");
    cache.complete_fill(line);
    cache.unpin(line);
}

#[test]
fn an_evicting_lookup_allocates_nothing() {
    let clean = full_set(|| Box::new(ClockPolicy::new()), false, |_| NO_TENANT);
    evict_without_allocating(&clean, 100, NO_TENANT, false, "clean victim");

    let dirty = full_set(|| Box::new(ClockPolicy::new()), true, |_| NO_TENANT);
    evict_without_allocating(&dirty, 100, NO_TENANT, true, "dirty victim");

    // Tenant 0 holds six of the eight lines, over its half share, so the
    // victim comes from the over-quota filter rather than the fallback.
    let shared = full_set(
        || Box::new(TenantShare::new()),
        false,
        |lba| (lba >= 6) as u32,
    );
    assert_eq!(shared.tenant_stats()[0].occupancy, 6);
    evict_without_allocating(&shared, 100, 1, false, "tenant share");
    assert_eq!(
        shared.tenant_stats()[0].evictions,
        1,
        "an over-quota line went"
    );
}

#[test]
fn no_other_lookup_allocates_either() {
    let cache = full_set(|| Box::new(ClockPolicy::new()), false, |_| NO_TENANT);
    let calls = allocations_in(|| match cache.lookup_or_reserve(0, 3) {
        CacheLookup::Hit { line, .. } => cache.unpin(line),
        other => panic!("expected a hit, got {other:?}"),
    });
    assert_eq!(calls, 0, "a hit allocated");

    let CacheLookup::Miss { line, .. } = cache.lookup_or_reserve(0, 100) else {
        panic!("expected an evicting miss");
    };
    let calls = allocations_in(|| cache.lookup_or_reserve(0, 100));
    assert_eq!(calls, 0, "a lookup coalesced onto a fill allocated");
    cache.complete_fill(line);
    cache.unpin(line);

    // Pin every way: the next new page finds no line.
    let pinned: Vec<_> = (0..8)
        .filter_map(|lba| match cache.lookup_or_reserve(0, lba) {
            CacheLookup::Hit { line, .. } => Some(line),
            _ => None,
        })
        .chain([line])
        .collect();
    for &line in &pinned {
        cache.pin(line);
    }
    let mut lookup = None;
    let calls = allocations_in(|| lookup = Some(cache.lookup_or_reserve(0, 200)));
    assert!(matches!(lookup, Some(CacheLookup::NoLineAvailable)));
    assert_eq!(calls, 0, "a refused lookup allocated");
}
