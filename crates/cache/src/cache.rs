//! The set-associative software cache.
//!
//! The cache maps `(device, LBA)` pairs to 4 KiB lines in GPU HBM. All SSD
//! data accesses in AGILE are routed through it "to ensure coherency and to
//! coalesce the redundant SSD requests" (§3.4). Its lookup is **non-blocking**
//! and mirrors the four cases the paper enumerates:
//!
//! | paper case | [`CacheLookup`] variant |
//! |---|---|
//! | (a) hit, data valid (`READY`/`MODIFIED`) | [`CacheLookup::Hit`] |
//! | (b) miss, no eviction required (`INVALID` way available) | [`CacheLookup::Miss`] |
//! | (c) hit, data not ready (`BUSY` — someone else is fetching) | [`CacheLookup::Busy`] |
//! | (d) miss, eviction required | [`CacheLookup::Miss`] with `writeback` set, or [`CacheLookup::NoLineAvailable`] when every way is pinned/busy |
//!
//! The caller never blocks inside the cache: on `Busy`/`NoLineAvailable` the
//! warp state machine retries later, which is what eliminates the
//! cache-eviction deadlock of §2.3.2. A successful `Hit`/`Miss` pins the line
//! for the caller; the caller unpins when it has consumed the data.
//!
//! A waiter that would only find its page `BUSY` again can sleep instead:
//! [`SoftwareCache::watch_line`] registers it on the line, and the first
//! fill, abort or reinstatement of that reservation wakes it. One that would
//! only find no line again — every way of its set `BUSY` —
//! sleeps on all of them ([`SoftwareCache::watch_full_set`]). Because such
//! waiters make fewer lookups than pollers, the pressure signal a controller
//! reads is [`SoftwareCache::full_sets`], which counts a full set once until
//! one of its ways settles, not [`CacheStats::no_line`], which counts lookups.
//!
//! The lines are laid out flat: a [`Way`] is its state word and pin count
//! (8 bytes), and the tag and the owner are one array each, written under
//! the set lock. A tag is one 8-byte key, `(dev + 1) << 48 | lba`, so an
//! untagged line reads 0 and the array starts as zeroed memory. The owner a
//! dirty victim is evicted from travels with its [`Writeback`], so a line
//! keeps no record of it. Every line's page-token slot lives in one
//! [`DmaSlab`]; a reservation hands out a handle that names the line's slot
//! in it. A line costs 30.25 heap bytes with the clock policy (41.6 with a
//! split tag, a displaced-owner array and 32-bit clock state; 86.6 with a
//! `Vec` of tags and owners per set and an `Arc` slot per line), and
//! building a cache makes the same number of allocations whatever its size.

use crate::line::{LineState, Way};
use crate::policy::{CachePolicy, MAX_ASSOCIATIVITY};
use crate::tenant::{TenantCacheStats, TenantTable, NO_TENANT};
use crate::watch::LineWatchers;
use agile_sim::trace::{TraceEvent, TraceEventKind, TraceSink};
use agile_sim::units::SSD_PAGE_SIZE;
use agile_sim::wake::{SleeperId, WakeHub};
use nvme_sim::{DmaHandle, DmaSlab, Lba, PageToken};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Identifies one cache line (global way index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LineId(pub u32);

/// A waiter's claim on an in-flight reservation: `line` was `BUSY` in
/// reservation `generation` when a lookup of some page found it
/// ([`CacheLookup::Busy`]) or started it ([`CacheLookup::Miss`]).
///
/// A BUSY line is neither evictable nor re-taggable, so for as long as the
/// line's state word still reads "BUSY, this generation" a lookup of that
/// page would take the `Busy` arm again — which is what
/// [`SoftwareCache::lookup_busy`] checks, with one load, in place of the
/// lookup. Once the fill completes or is abandoned the ticket is dead for
/// good: a later reservation of the same line carries a later generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusyTicket {
    /// The reserved line.
    pub line: LineId,
    /// The line's reservation generation at the lookup.
    pub generation: u32,
}

/// Cache geometry and sizing.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Total capacity in bytes, rounded down to whole lines. A line is one
    /// SSD page (`SSD_PAGE_SIZE`, §2.3.3).
    pub capacity_bytes: u64,
    /// Ways per set.
    pub associativity: u32,
}

impl CacheConfig {
    /// A cache of `capacity_bytes` with the default 4 KiB lines and 8-way
    /// associativity.
    pub fn with_capacity(capacity_bytes: u64) -> Self {
        CacheConfig {
            capacity_bytes,
            associativity: 8,
        }
    }

    /// Number of lines, in whole-set units: `capacity_bytes / SSD_PAGE_SIZE`
    /// rounded **down** to a multiple of the associativity, with a one-set
    /// floor — exactly what [`SoftwareCache::new`] allocates. (A capacity of
    /// 12 lines at 8-way is one set of 8 ways, not 12.)
    pub fn num_lines(&self) -> usize {
        self.num_sets() * self.associativity as usize
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        ((self.capacity_bytes / SSD_PAGE_SIZE) as usize / self.associativity as usize).max(1)
    }
}

/// Counters the cache maintains (all monotone, readable at any time).
///
/// Note: for cross-layer observability prefer the unified registry, which
/// exports these as `agile_cache_*` (snapshot-time collector, exporters,
/// windowed series); this struct stays for direct programmatic access.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CacheStats {
    /// Hits on valid data.
    pub hits: u64,
    /// Lookups that found the line BUSY (request coalesced onto an in-flight
    /// fill — the second-level coalescing of §3.3.2). Counts the lookups
    /// executed: a waiter asleep on the fill makes none.
    pub busy_hits: u64,
    /// Misses where a line was reserved.
    pub misses: u64,
    /// Misses that also required evicting valid data.
    pub evictions: u64,
    /// Evictions of MODIFIED lines that required a write-back.
    pub writebacks: u64,
    /// Lookups that could not reserve any line (all ways pinned/busy).
    /// Counts the lookups executed: a waiter asleep on a full set makes
    /// none.
    pub no_line: u64,
}

#[derive(Default)]
struct StatsCells {
    hits: AtomicU64,
    busy_hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    writebacks: AtomicU64,
    no_line: AtomicU64,
    full_sets: AtomicU64,
}

/// Result of a non-blocking cache lookup.
#[derive(Debug, Clone)]
pub enum CacheLookup {
    /// The data is resident and valid. The line has been pinned for the
    /// caller, which must call [`SoftwareCache::unpin`] when done.
    Hit {
        /// The line holding the data.
        line: LineId,
        /// The page token currently stored in the line.
        token: PageToken,
    },
    /// Another thread already reserved the line and its fill is in flight;
    /// retry later (or chain onto the fill).
    Busy {
        /// The line being filled.
        line: LineId,
        /// The reservation generation of the fill in flight (see
        /// [`BusyTicket`]).
        generation: u32,
    },
    /// The caller now owns a BUSY, pinned line and must issue the NVMe read
    /// that fills it (then call [`SoftwareCache::complete_fill`]).
    Miss {
        /// The reserved line.
        line: LineId,
        /// DMA slot to hand to the NVMe read command.
        dma: DmaHandle,
        /// If the victim held dirty data, the caller must also write it
        /// back to the SSD.
        writeback: Option<Writeback>,
        /// The reservation generation this lookup started (see
        /// [`BusyTicket`]).
        generation: u32,
    },
    /// Every way of the target set is pinned or busy; retry later.
    NoLineAvailable,
}

/// Bits of a tag key holding the LBA; the device sits above them.
const LBA_BITS: u32 = 48;

/// Tag key of `(dev, lba)`: `(dev + 1) << 48 | lba`, so key 0 is an untagged
/// line. Devices run below `0xFFFF` and LBAs below 2^48.
fn tag_key(dev: u32, lba: Lba) -> u64 {
    assert!(
        dev < 0xFFFF,
        "device {dev} does not fit a tag (at most 0xFFFE)"
    );
    assert!(
        lba >> LBA_BITS == 0,
        "lba {lba:#x} does not fit a tag (below 2^{LBA_BITS})"
    );
    (dev as u64 + 1) << LBA_BITS | lba
}

/// A dirty victim's write-back, handed out by the lookup that evicted it
/// ([`CacheLookup::Miss`]). Until it is issued it is the only copy of the
/// modification; if it cannot be issued it goes back into the line through
/// [`SoftwareCache::reinstate_victim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Writeback {
    /// Device of the victim's page.
    pub dev: u32,
    /// LBA of the victim's page.
    pub lba: Lba,
    /// The victim's dirty data.
    pub token: PageToken,
    /// Tenant that owned the victim ([`NO_TENANT`] when unowned), to whom a
    /// reinstated line returns.
    pub owner: u32,
}

/// The per-line metadata beside the [`Way`]s, one flat array per field,
/// indexed by [`LineId`]. Read and written only under the line's set lock,
/// which is what makes each field's `Relaxed` atomics a plain value.
struct LineMeta {
    /// Tag key ([`tag_key`]) of the page each line holds; 0 until the line
    /// first holds a page.
    key: Box<[AtomicU64]>,
    /// Owner tenant per line ([`NO_TENANT`] when unowned): the tenant whose
    /// lookup most recently filled it. Accounting only — ownership never
    /// gates a fill or a write-back.
    owner: Box<[AtomicU32]>,
}

/// `n` values made by `new`, in one allocation.
fn filled<T>(n: usize, new: impl Fn() -> T) -> Box<[T]> {
    (0..n).map(|_| new()).collect()
}

impl LineMeta {
    fn new(lines: usize) -> Self {
        LineMeta {
            key: filled(lines, || AtomicU64::new(0)),
            owner: filled(lines, || AtomicU32::new(NO_TENANT)),
        }
    }

    fn holds(&self, line: usize, key: u64) -> bool {
        self.key[line].load(Ordering::Relaxed) == key
    }

    fn is_untagged(&self, line: usize) -> bool {
        self.holds(line, 0)
    }

    fn tag(&self, line: usize) -> (u32, Lba) {
        let key = self.key[line].load(Ordering::Relaxed);
        (((key >> LBA_BITS) - 1) as u32, key & ((1 << LBA_BITS) - 1))
    }

    fn retag(&self, line: usize, key: u64) {
        self.key[line].store(key, Ordering::Relaxed);
    }

    fn owner(&self, line: usize) -> u32 {
        self.owner[line].load(Ordering::Relaxed)
    }

    fn set_owner(&self, line: usize, tenant: u32) {
        self.owner[line].store(tenant, Ordering::Relaxed);
    }
}

/// The software cache: one set-associative cache with a lock per set, one
/// replacement policy and one per-tenant accounting table.
pub struct SoftwareCache {
    cfg: CacheConfig,
    /// One lock per set, guarding its lines' [`LineMeta`] and the
    /// transitions a lookup makes.
    sets: Box<[Mutex<()>]>,
    /// Per set: a lookup found it full since one of its ways last left
    /// `BUSY` (see [`SoftwareCache::full_sets`]).
    found_full: Box<[AtomicBool]>,
    ways: Box<[Way]>,
    meta: LineMeta,
    /// Every line's page-token slot, slot `i` for line `i`.
    slab: DmaSlab,
    assoc: usize,
    policy: Box<dyn CachePolicy>,
    stats: StatsCells,
    /// Per-tenant accounting (hits/misses/fills/evictions + live occupancy),
    /// shared with tenant-aware policies via `CachePolicy::bind_tenants`.
    tenants: Arc<TenantTable>,
    /// Optional trace recorder; one atomic load when disabled.
    trace: OnceLock<Arc<dyn TraceSink>>,
    /// Latest sim time reported by a caller (the cache's lookup API carries
    /// no clock, so controllers publish it before lookups — see
    /// [`SoftwareCache::set_time_hint`]).
    trace_now: AtomicU64,
    /// Installed by [`SoftwareCache::set_wake_hub`]; built on it by the first
    /// watch of a line or a full set, so a cache nobody sleeps on (the BaM
    /// side, whose warps poll their own CQs) carries no table.
    wake_hub: OnceLock<Arc<WakeHub>>,
    watchers: OnceLock<LineWatchers>,
}

impl SoftwareCache {
    /// Build a cache with the given geometry and replacement policy. At most
    /// [`MAX_ASSOCIATIVITY`] ways a set.
    pub fn new(cfg: CacheConfig, mut policy: Box<dyn CachePolicy>) -> Self {
        assert!(cfg.associativity > 0, "associativity must be positive");
        let (num_sets, assoc) = (cfg.num_sets(), cfg.associativity as usize);
        assert!(
            assoc <= MAX_ASSOCIATIVITY,
            "at most {MAX_ASSOCIATIVITY} ways a set"
        );
        let lines = num_sets * assoc;
        let tenants = Arc::new(TenantTable::new());
        policy.configure(num_sets, assoc);
        policy.bind_tenants(Arc::clone(&tenants));
        SoftwareCache {
            sets: filled(num_sets, || Mutex::new(())),
            found_full: filled(num_sets, || AtomicBool::new(false)),
            ways: filled(lines, Way::new),
            meta: LineMeta::new(lines),
            slab: DmaSlab::new(lines),
            assoc,
            policy,
            stats: StatsCells::default(),
            tenants,
            cfg,
            trace: OnceLock::new(),
            trace_now: AtomicU64::new(0),
            wake_hub: OnceLock::new(),
            watchers: OnceLock::new(),
        }
    }

    /// Install a trace sink recording every lookup outcome. Returns `false`
    /// if a sink was already installed (the first one wins). Recording is
    /// effectively free when no sink is installed.
    pub fn set_trace_sink(&self, sink: Arc<dyn TraceSink>) -> bool {
        self.trace.set(sink).is_ok()
    }

    /// Hold every set lock until the returned guards drop. Test seam: lets a
    /// test show that a code path never wants a set lock.
    #[doc(hidden)]
    pub fn lock_all_sets(&self) -> impl Sized + '_ {
        self.sets.iter().map(|set| set.lock()).collect::<Vec<_>>()
    }

    /// True once a trace sink is installed — the only time anything reads
    /// the time hint.
    pub fn has_trace_sink(&self) -> bool {
        self.trace.get().is_some()
    }

    /// Publish the current sim time for trace timestamps. Controllers call
    /// this at API entry so cache events carry meaningful clocks. Only trace
    /// records read it, so without a sink nothing is stored; a sink installed
    /// later sees the hint of the first call after it.
    #[inline]
    pub fn set_time_hint(&self, now: u64) {
        if self.has_trace_sink() {
            self.trace_now.store(now, Ordering::Relaxed);
        }
    }

    #[inline]
    fn trace_lookup(&self, kind: TraceEventKind, dev: u32, lba: Lba, tenant: u32) {
        if let Some(sink) = self.trace.get() {
            let at = self.trace_now.load(Ordering::Relaxed);
            // Untenanted lookups carry [`NO_TENANT`] (`u32::MAX`) on the wire
            // (format v5) so they can never be conflated with the real tenant
            // 0; older logs that recorded 0 still parse.
            sink.record(TraceEvent::new(kind, at).target(dev, lba).tenant(tenant));
        }
    }

    /// Cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Online share-weight update for `tenant`, forwarded to the replacement
    /// policy (the control plane's cache actuator). Tenant-oblivious
    /// policies return [`crate::policy::ShareError::Unsupported`].
    pub fn set_tenant_share(
        &self,
        tenant: u32,
        weight: u64,
    ) -> Result<u64, crate::policy::ShareError> {
        self.policy.set_share(tenant, weight)
    }

    /// Current share weight of `tenant`, where the policy keeps one.
    pub fn tenant_share(&self, tenant: u32) -> Option<u64> {
        self.policy.share(tenant)
    }

    /// Number of lines.
    pub fn num_lines(&self) -> usize {
        self.ways.len()
    }

    /// Per-tenant counter snapshot, ordered by tenant id (empty until a
    /// tenant-attributed lookup arrives).
    pub fn tenant_stats(&self) -> Vec<TenantCacheStats> {
        self.tenants.snapshot()
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.stats.hits.load(Ordering::Relaxed),
            busy_hits: self.stats.busy_hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            writebacks: self.stats.writebacks.load(Ordering::Relaxed),
            no_line: self.stats.no_line.load(Ordering::Relaxed),
        }
    }

    /// Times a lookup found its set full ([`CacheLookup::NoLineAvailable`]),
    /// counting each set once until one of its ways next leaves `BUSY`.
    /// Retrying against a set no way has settled in since adds nothing, so a
    /// waiter asleep on a full set and one polling it count the same — unlike
    /// [`CacheStats::no_line`], which counts every lookup that ran.
    pub fn full_sets(&self) -> u64 {
        self.stats.full_sets.load(Ordering::Relaxed)
    }

    /// Set index of `(dev, lba)`. Mixes device and LBA so multi-SSD striping
    /// spreads across sets.
    fn set_of(&self, dev: u32, lba: Lba) -> usize {
        let mut z = (dev as u64) << 56 ^ lba ^ 0x9E37_79B9_7F4A_7C15;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as usize % self.sets.len()
    }

    /// The way behind a line id.
    pub fn way(&self, line: LineId) -> &Way {
        &self.ways[line.0 as usize]
    }

    /// Non-blocking lookup without tenant attribution (the pre-threading
    /// entry point, kept for preloads and bare rigs); see the module docs
    /// for the case mapping.
    pub fn lookup_or_reserve(&self, dev: u32, lba: Lba) -> CacheLookup {
        self.lookup_or_reserve_as(dev, lba, NO_TENANT)
    }

    /// [`SoftwareCache::lookup_or_reserve`] with an explicit requesting
    /// tenant. Attribution is **accounting only**: hits/misses are counted
    /// against `tenant`, a reserved line becomes owned by `tenant` (fills
    /// are attributed to the requester), and an evicted line's previous
    /// owner is charged the eviction — but the lookup outcome, the victim
    /// choice under a tenant-oblivious policy, and the fill/write-back I/O
    /// are bit-identical to the untenanted path.
    pub fn lookup_or_reserve_as(&self, dev: u32, lba: Lba, tenant: u32) -> CacheLookup {
        let key = tag_key(dev, lba);
        let set_idx = self.set_of(dev, lba);
        let _set = self.sets[set_idx].lock();
        let base = set_idx * self.assoc;
        let ways = &self.ways[base..][..self.assoc];

        // 1. Tag scan.
        if let Some(way_idx) = (0..self.assoc).find(|&w| self.meta.holds(base + w, key)) {
            let (line, way) = (base + way_idx, &ways[way_idx]);
            return match way.state() {
                LineState::Ready | LineState::Modified => {
                    way.pin();
                    self.policy.on_access(set_idx, way_idx);
                    self.stats.hits.fetch_add(1, Ordering::Relaxed);
                    self.tenants.record_hit(tenant);
                    self.trace_lookup(TraceEventKind::CacheHit, dev, lba, tenant);
                    CacheLookup::Hit {
                        line: LineId(line as u32),
                        token: self.slab.load(line as u32),
                    }
                }
                LineState::Busy => {
                    self.count_busy_hit(dev, lba, tenant);
                    CacheLookup::Busy {
                        line: LineId(line as u32),
                        generation: way.generation(),
                    }
                }
                LineState::Invalid => {
                    // Tag present but invalid (fill failed): re-reserve
                    // it, transferring ownership to the new requester.
                    let generation = way.set_state(LineState::Busy);
                    way.pin();
                    self.transfer_owner(line, tenant);
                    self.policy.on_fill(set_idx, way_idx);
                    self.stats.misses.fetch_add(1, Ordering::Relaxed);
                    self.tenants.record_miss_fill(tenant);
                    self.trace_lookup(TraceEventKind::CacheMiss, dev, lba, tenant);
                    self.reserved(line, None, generation)
                }
            };
        }

        // 2. Miss: prefer an empty (tag-less) way.
        if let Some(way_idx) = (0..self.assoc).find(|&w| self.meta.is_untagged(base + w)) {
            let line = base + way_idx;
            self.meta.retag(line, key);
            self.meta.set_owner(line, tenant);
            let generation = ways[way_idx].set_state(LineState::Busy);
            ways[way_idx].pin();
            self.policy.on_fill(set_idx, way_idx);
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
            self.tenants.record_miss_fill_occupy(tenant);
            self.trace_lookup(TraceEventKind::CacheMiss, dev, lba, tenant);
            return self.reserved(line, None, generation);
        }

        // 3. Miss with eviction: ask the policy for a victim among evictable
        //    ways, handing it the set's owners (tenant-aware policies use
        //    them to bound each tenant's occupancy to its share).
        let evictable = ways
            .iter()
            .enumerate()
            .filter(|(_, way)| way.evictable())
            .fold(0u64, |mask, (way_idx, _)| mask | 1 << way_idx);
        let owners = &self.meta.owner[base..][..self.assoc];
        let Some(victim) = self.policy.choose_victim(set_idx, evictable, owners) else {
            // A transient resource stall (every way pinned/busy), not a data
            // miss: the caller retries and the retry is what gets counted.
            // Charging it per tenant would let retry churn drown the
            // hit-rate signal the per-tenant stats exist for; the aggregate
            // `no_line` counter still records every occurrence.
            self.stats.no_line.fetch_add(1, Ordering::Relaxed);
            if !self.found_full[set_idx].swap(true, Ordering::Relaxed) {
                self.stats.full_sets.fetch_add(1, Ordering::Relaxed);
            }
            self.trace_lookup(TraceEventKind::CacheNoLine, dev, lba, tenant);
            return CacheLookup::NoLineAvailable;
        };
        debug_assert!(
            evictable >> victim & 1 == 1,
            "policy chose a non-evictable way"
        );
        let (line, way) = (base + victim, &ways[victim]);
        let old_owner = self.meta.owner(line);
        let writeback = match way.state() {
            LineState::Modified => {
                self.stats.writebacks.fetch_add(1, Ordering::Relaxed);
                let (d, l) = self.meta.tag(line);
                self.trace_lookup(TraceEventKind::Writeback, d, l, old_owner);
                Some(Writeback {
                    dev: d,
                    lba: l,
                    token: self.slab.load(line as u32),
                    owner: old_owner,
                })
            }
            _ => None,
        };
        self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        self.tenants.record_miss_fill_occupy(tenant);
        self.tenants.record_eviction(old_owner);
        self.meta.set_owner(line, tenant);
        self.trace_lookup(TraceEventKind::CacheMiss, dev, lba, tenant);
        self.meta.retag(line, key);
        let generation = way.set_state(LineState::Busy);
        way.pin();
        self.policy.on_fill(set_idx, victim);
        self.reserved(line, writeback, generation)
    }

    /// The [`CacheLookup::Miss`] for a reservation of `line`.
    fn reserved(&self, line: usize, writeback: Option<Writeback>, generation: u32) -> CacheLookup {
        CacheLookup::Miss {
            line: LineId(line as u32),
            dma: self.slab.handle(line as u32),
            writeback,
            generation,
        }
    }

    /// Everything a lookup that finds its page `BUSY` does: count the
    /// coalesced request and trace it.
    fn count_busy_hit(&self, dev: u32, lba: Lba, tenant: u32) {
        self.stats.busy_hits.fetch_add(1, Ordering::Relaxed);
        self.trace_lookup(TraceEventKind::CacheBusy, dev, lba, tenant);
    }

    /// [`SoftwareCache::lookup_or_reserve_as`] for a waiter that holds a
    /// ticket for `(dev, lba)`: if the ticketed reservation is still in
    /// flight the lookup would find the page `BUSY` again, so account exactly
    /// that — same counter, same trace record — and return `true`, from one
    /// load of the line's state word: no set lock, no tag scan. Returns
    /// `false`, having done nothing, once the ticket is dead; the caller then
    /// makes the real lookup.
    pub fn lookup_busy(&self, ticket: BusyTicket, dev: u32, lba: Lba, tenant: u32) -> bool {
        let waiting = self.way(ticket.line).busy_in(ticket.generation);
        if waiting {
            self.count_busy_hit(dev, lba, tenant);
        }
        waiting
    }

    /// Let waiters sleep on `BUSY` lines: from now on
    /// [`SoftwareCache::watch_line`] and [`SoftwareCache::watch_full_set`]
    /// register sleepers of `hub`. Returns
    /// `false` if a hub was already installed (the first one wins).
    pub fn set_wake_hub(&self, hub: Arc<WakeHub>) -> bool {
        self.wake_hub.set(hub).is_ok()
    }

    /// Notify `sleeper` when the reservation `ticket` names ends — its fill
    /// completes or is aborted, or the dirty victim is reinstated. Returns
    /// `false`, having registered nothing, when it already has ended (or no
    /// hub is installed): the caller must then look the page up, not sleep.
    /// Registering the same `(ticket, sleeper)` again is a no-op.
    pub fn watch_line(&self, ticket: BusyTicket, sleeper: SleeperId) -> bool {
        self.watchers()
            .is_some_and(|watchers| watchers.watch(ticket, sleeper, self.way(ticket.line)))
    }

    /// Notify `sleeper` when any way of `(dev, lba)`'s set leaves `BUSY`, for
    /// a waiter whose lookup of that page found no line. While every way of
    /// the set is `BUSY` and none holds the page, a lookup of it finds
    /// [`CacheLookup::NoLineAvailable`] again: a `BUSY` way is neither
    /// evictable nor re-tagged, and it leaves `BUSY` only through
    /// [`SoftwareCache::complete_fill`], [`SoftwareCache::abort_fill`] or
    /// [`SoftwareCache::reinstate_victim`], which wake its watchers.
    ///
    /// Returns `false`, having registered nothing, when the page is tagged,
    /// when some way is not `BUSY` (a pinned `READY` way frees up on an
    /// unpin that notifies nobody, and a policy that refused an evictable
    /// way may accept it later), or when no hub is installed: the caller
    /// must then look the page up, not sleep.
    pub fn watch_full_set(&self, dev: u32, lba: Lba, sleeper: SleeperId) -> bool {
        let Some(watchers) = self.watchers() else {
            return false;
        };
        let key = tag_key(dev, lba);
        let set_idx = self.set_of(dev, lba);
        let _set = self.sets[set_idx].lock();
        let lines = set_idx * self.assoc..(set_idx + 1) * self.assoc;
        if lines.clone().any(|line| self.meta.holds(line, key))
            || self.ways[lines.clone()]
                .iter()
                .any(|way| way.state() != LineState::Busy)
        {
            return false;
        }
        lines.into_iter().all(|line| {
            let way = &self.ways[line];
            let ticket = BusyTicket {
                line: LineId(line as u32),
                generation: way.generation(),
            };
            watchers.watch(ticket, sleeper, way)
        })
    }

    /// The watcher table, built on the installed hub the first time anybody
    /// sleeps; `None` without a hub.
    fn watchers(&self) -> Option<&LineWatchers> {
        let hub = self.wake_hub.get()?;
        Some(
            self.watchers
                .get_or_init(|| LineWatchers::new(Arc::clone(hub))),
        )
    }

    /// `line` just left `BUSY`: wake whoever waited for that, and let the
    /// next lookup that finds its set full count again.
    fn line_settled(&self, line: LineId) {
        self.found_full[line.0 as usize / self.assoc].store(false, Ordering::Relaxed);
        if let Some(watchers) = self.watchers.get() {
            watchers.settled(line);
        }
    }

    /// Move ownership of `line` (whose set lock the caller holds) to
    /// `tenant`, keeping the occupancy gauges balanced.
    fn transfer_owner(&self, line: usize, tenant: u32) {
        let old = self.meta.owner(line);
        if old != tenant {
            self.tenants.vacate(old);
            self.tenants.occupy(tenant);
            self.meta.set_owner(line, tenant);
        }
    }

    /// Probe without reserving: returns the token if the line is resident and
    /// valid. Does not pin, does not update policy metadata.
    pub fn peek(&self, dev: u32, lba: Lba) -> Option<PageToken> {
        let key = tag_key(dev, lba);
        let set_idx = self.set_of(dev, lba);
        let _set = self.sets[set_idx].lock();
        let base = set_idx * self.assoc;
        let line = (base..base + self.assoc).find(|&line| self.meta.holds(line, key))?;
        self.ways[line]
            .state()
            .is_valid_data()
            .then(|| self.slab.load(line as u32))
    }

    /// Mark a reserved (BUSY) line as filled: the NVMe read completed and the
    /// DMA slot now holds the page token. `BUSY → READY`. Sleepers watching
    /// the line ([`SoftwareCache::watch_line`], or its whole set through
    /// [`SoftwareCache::watch_full_set`]) are notified — here and in the two
    /// ways a reservation can be abandoned.
    pub fn complete_fill(&self, line: LineId) {
        let way = self.way(line);
        let ok = way.transition(LineState::Busy, LineState::Ready);
        debug_assert!(ok, "complete_fill on a line that was not BUSY");
        self.line_settled(line);
    }

    /// Abandon a reservation made by [`SoftwareCache::lookup_or_reserve`]
    /// when the NVMe command could not be issued (every SQ full): the line
    /// returns to `INVALID` and the reservation pin is dropped, so other
    /// threads are not blocked behind a fill that will never happen.
    ///
    /// When the reservation evicted a **dirty** victim whose write-back then
    /// failed to issue, use [`SoftwareCache::reinstate_victim`] instead —
    /// plain `abort_fill` would drop the only copy of the victim's modified
    /// data.
    pub fn abort_fill(&self, line: LineId) {
        let way = self.way(line);
        let ok = way.transition(LineState::Busy, LineState::Invalid);
        debug_assert!(ok, "abort_fill on a line that was not BUSY");
        way.unpin();
        self.line_settled(line);
    }

    /// Abandon a reservation whose dirty victim's write-back could not be
    /// issued (every SQ full), re-installing the victim's tag and token in
    /// the line instead of dropping them.
    ///
    /// `lookup_or_reserve` reclaims a dirty way by handing the caller a
    /// [`Writeback`] snapshot and re-tagging the line for the new request;
    /// until the write-back is issued, that snapshot is the **only** copy of
    /// the modification. If the issue fails, the snapshot must go back into
    /// the cache — otherwise a later read of the victim page refills stale
    /// data from the backing (the ROADMAP's dirty-victim lost-update). The line returns to `MODIFIED` under the victim's tag
    /// and to the victim's owner, the reservation pin is dropped, and the
    /// caller's own request simply misses again on its retry.
    pub fn reinstate_victim(&self, line: LineId, victim: Writeback) {
        let idx = line.0 as usize;
        let set = self.sets[idx / self.assoc].lock();
        let way = &self.ways[idx];
        debug_assert_eq!(
            way.state(),
            LineState::Busy,
            "reinstate_victim on a line that was not reserved"
        );
        self.meta.retag(idx, tag_key(victim.dev, victim.lba));
        // Ownership (and its occupancy accounting) returns to the displaced
        // tenant; the requester's fill never happened. The victim's eviction
        // counter stays advanced — the displacement was real, it just could
        // not complete.
        self.transfer_owner(idx, victim.owner);
        self.slab.store(line.0, victim.token);
        way.set_state(LineState::Modified);
        way.unpin();
        drop(set);
        self.line_settled(line);
    }

    /// Store `token` into the line and mark it dirty (`MODIFIED`).
    pub fn store(&self, line: LineId, token: PageToken) {
        self.slab.store(line.0, token);
        self.way(line).set_state(LineState::Modified);
    }

    /// Read the token currently held by a line.
    pub fn read(&self, line: LineId) -> PageToken {
        self.slab.load(line.0)
    }

    /// The handle an NVMe read DMAs `line`'s fill into — the one
    /// [`CacheLookup::Miss`] hands out for it.
    pub fn dma(&self, line: LineId) -> DmaHandle {
        self.slab.handle(line.0)
    }

    /// Current state of a line.
    pub fn state(&self, line: LineId) -> LineState {
        self.way(line).state()
    }

    /// Pin a line (additional reader).
    pub fn pin(&self, line: LineId) {
        self.way(line).pin();
    }

    /// Release a pin taken by [`SoftwareCache::lookup_or_reserve`] /
    /// [`SoftwareCache::pin`].
    pub fn unpin(&self, line: LineId) {
        self.way(line).unpin();
    }

    /// Preload `(dev, lba) → token` as clean data, bypassing the NVMe path.
    /// Used by tests and by the graph experiments' "Cache API time" step,
    /// which measures cache overhead with all data preloaded (§4.5 step 3).
    /// Returns false when no line could be reserved.
    pub fn preload(&self, dev: u32, lba: Lba, token: PageToken) -> bool {
        match self.lookup_or_reserve(dev, lba) {
            CacheLookup::Hit { line, .. } => {
                self.slab.store(line.0, token);
                self.unpin(line);
                true
            }
            CacheLookup::Miss { line, dma, .. } => {
                dma.store(token);
                self.complete_fill(line);
                self.unpin(line);
                true
            }
            CacheLookup::Busy { .. } | CacheLookup::NoLineAvailable => false,
        }
    }

    /// Total pinned lines (diagnostic; should return to zero after a kernel).
    pub fn total_pins(&self) -> u64 {
        self.ways.iter().map(|w| w.pins() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ClockPolicy;

    fn small_cache() -> SoftwareCache {
        // 16 lines, 4-way ⇒ 4 sets.
        SoftwareCache::new(
            CacheConfig {
                capacity_bytes: 16 * SSD_PAGE_SIZE,
                associativity: 4,
            },
            Box::new(ClockPolicy::new()),
        )
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let c = small_cache();
        let CacheLookup::Miss {
            line,
            dma,
            writeback,
            ..
        } = c.lookup_or_reserve(0, 42)
        else {
            panic!("expected miss");
        };
        assert!(writeback.is_none());
        assert_eq!(c.state(line), LineState::Busy);
        // Second requester while the fill is in flight coalesces.
        assert!(matches!(
            c.lookup_or_reserve(0, 42),
            CacheLookup::Busy { .. }
        ));
        // SSD DMA lands, fill completes.
        dma.store(PageToken(777));
        c.complete_fill(line);
        c.unpin(line);
        let CacheLookup::Hit {
            line: hit_line,
            token,
        } = c.lookup_or_reserve(0, 42)
        else {
            panic!("expected hit");
        };
        assert_eq!(hit_line, line);
        assert_eq!(token, PageToken(777));
        c.unpin(hit_line);
        let s = c.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.busy_hits, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(c.total_pins(), 0);
    }

    /// A one-line cache: every page maps to the same way, so a second page
    /// can only come in by evicting the first.
    fn one_line_cache() -> SoftwareCache {
        SoftwareCache::new(
            CacheConfig {
                capacity_bytes: SSD_PAGE_SIZE,
                associativity: 1,
            },
            Box::new(ClockPolicy::new()),
        )
    }

    #[test]
    fn a_live_ticket_stands_in_for_the_busy_lookup() {
        let c = one_line_cache();
        let CacheLookup::Miss {
            line, generation, ..
        } = c.lookup_or_reserve(0, 1)
        else {
            panic!("expected miss");
        };
        let ticket = BusyTicket { line, generation };
        // A second requester finds the same reservation.
        let CacheLookup::Busy {
            line: busy_line,
            generation: busy_generation,
        } = c.lookup_or_reserve(0, 1)
        else {
            panic!("expected busy");
        };
        assert_eq!((busy_line, busy_generation), (line, generation));
        assert_eq!(c.stats().busy_hits, 1);
        // While the fill is in flight the ticket accounts like the lookup.
        assert!(c.lookup_busy(ticket, 0, 1, NO_TENANT));
        assert_eq!(c.stats().busy_hits, 2);
        // Once it lands the ticket is dead and costs nothing.
        c.complete_fill(line);
        c.unpin(line);
        assert!(!c.lookup_busy(ticket, 0, 1, NO_TENANT));
        assert_eq!(c.stats().busy_hits, 2);
        // An abandoned reservation kills its ticket too.
        let CacheLookup::Miss {
            line, generation, ..
        } = c.lookup_or_reserve(0, 2)
        else {
            panic!("expected eviction miss");
        };
        c.abort_fill(line);
        assert!(!c.lookup_busy(BusyTicket { line, generation }, 0, 2, NO_TENANT));
    }

    #[test]
    fn a_reinstated_victim_returns_to_its_tenant() {
        // Tenant 1 dirties the only line; tenant 2's lookup evicts it, and
        // the victim's write-back cannot issue.
        let c = one_line_cache();
        let CacheLookup::Miss { line, dma, .. } = c.lookup_or_reserve_as(0, 1, 1) else {
            panic!("expected miss");
        };
        dma.store(PageToken(1));
        c.complete_fill(line);
        c.store(line, PageToken(11));
        c.unpin(line);
        let CacheLookup::Miss {
            line: reserved,
            writeback: Some(writeback),
            ..
        } = c.lookup_or_reserve_as(0, 2, 2)
        else {
            panic!("expected a dirty eviction");
        };
        assert_eq!(reserved, line, "the only line there is");
        assert_eq!(
            writeback.owner, 1,
            "the write-back carries the victim's owner"
        );
        c.reinstate_victim(line, writeback);
        let stats = c.tenant_stats();
        let occupancy: Vec<_> = stats.iter().map(|t| (t.tenant, t.occupancy)).collect();
        assert_eq!(occupancy, [(1, 1), (2, 0)], "the line is tenant 1's again");
        assert_eq!(stats[0].evictions, 1, "the displacement still counts");
        let CacheLookup::Hit { line: hit, token } = c.lookup_or_reserve_as(0, 1, 1) else {
            panic!("expected the victim's page to hit");
        };
        assert_eq!((hit, token), (line, PageToken(11)), "dirty data kept");
        assert_eq!(c.state(line), LineState::Modified);
    }

    #[test]
    fn tags_round_trip_at_the_corners_of_their_range() {
        const MAX_LBA: Lba = (1 << 48) - 1;
        let c = one_line_cache();
        // Each page evicts the dirty one before it, whose write-back must
        // name it exactly.
        let mut previous = None;
        let pages = [(0, 0), (0, MAX_LBA), (0xFFFE, 0), (0xFFFE, MAX_LBA), (1, 1)];
        for (tenant, (dev, lba)) in (0u32..).zip(pages) {
            let CacheLookup::Miss {
                line,
                dma,
                writeback,
                ..
            } = c.lookup_or_reserve_as(dev, lba, tenant)
            else {
                panic!("expected a miss for ({dev:#x}, {lba:#x})");
            };
            assert_eq!(writeback, previous, "victim of ({dev:#x}, {lba:#x})");
            let token = PageToken(100 + tenant as u64);
            dma.store(PageToken(0));
            c.complete_fill(line);
            c.store(line, token);
            c.unpin(line);
            assert_eq!(c.peek(dev, lba), Some(token), "({dev:#x}, {lba:#x})");
            previous = Some(Writeback {
                dev,
                lba,
                token,
                owner: tenant,
            });
        }
    }

    #[test]
    #[should_panic(expected = "device 65535 does not fit a tag")]
    fn a_device_beyond_the_tag_panics() {
        one_line_cache().lookup_or_reserve(0xFFFF, 0);
    }

    #[test]
    #[should_panic(expected = "lba 0x1000000000000 does not fit a tag")]
    fn an_lba_beyond_the_tag_panics() {
        one_line_cache().lookup_or_reserve(0, 1 << 48);
    }

    #[test]
    fn a_ticket_misses_once_its_line_is_reserved_for_another_page() {
        // ABA: between two polls of a waiter the fill lands, the line is
        // evicted and reserved again — BUSY again, but for another page.
        let c = one_line_cache();
        let CacheLookup::Miss {
            line, generation, ..
        } = c.lookup_or_reserve(0, 1)
        else {
            panic!("expected miss");
        };
        let stale = BusyTicket { line, generation };
        c.complete_fill(line);
        c.unpin(line);
        let CacheLookup::Miss {
            line: reused,
            generation: next,
            ..
        } = c.lookup_or_reserve(0, 2)
        else {
            panic!("expected eviction miss");
        };
        assert_eq!(reused, line, "the only line there is");
        assert_eq!(c.state(line), LineState::Busy);
        assert_ne!(next, generation);
        assert!(!c.lookup_busy(stale, 0, 1, NO_TENANT), "stale ticket hit");
        assert_eq!(c.stats().busy_hits, 0);
        // The real lookup of the old page finds no line it could take.
        assert!(matches!(
            c.lookup_or_reserve(0, 1),
            CacheLookup::NoLineAvailable
        ));
        // The new reservation's own ticket is live.
        let live = BusyTicket {
            line,
            generation: next,
        };
        assert!(c.lookup_busy(live, 0, 2, NO_TENANT));
        assert_eq!(c.stats().busy_hits, 1);
    }

    #[test]
    fn eviction_of_modified_line_requests_writeback() {
        // Direct-mapped-like behaviour: 4 sets × 4 ways = 16 lines; fill one
        // set completely with dirty lines, then force an eviction.
        let c = SoftwareCache::new(
            CacheConfig {
                capacity_bytes: 4 * SSD_PAGE_SIZE,
                associativity: 4,
            },
            Box::new(ClockPolicy::new()),
        );
        assert_eq!(c.num_lines(), 4);
        // All LBAs map to the single set.
        let mut filled = Vec::new();
        for lba in 0..4u64 {
            let CacheLookup::Miss { line, dma, .. } = c.lookup_or_reserve(0, lba) else {
                panic!("expected miss for {lba}");
            };
            dma.store(PageToken(lba));
            c.complete_fill(line);
            c.store(line, PageToken(1000 + lba)); // dirty it
            c.unpin(line);
            filled.push(line);
        }
        // Fifth distinct LBA forces an eviction of a MODIFIED line.
        let CacheLookup::Miss { writeback, .. } = c.lookup_or_reserve(0, 100) else {
            panic!("expected miss with eviction");
        };
        let Writeback {
            dev,
            lba,
            token,
            owner,
        } = writeback.expect("dirty victim must be written back");
        assert_eq!(dev, 0);
        assert!(lba < 4);
        assert_eq!(token, PageToken(1000 + lba));
        assert_eq!(owner, NO_TENANT);
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.writebacks, 1);
    }

    #[test]
    fn pinned_lines_are_never_evicted() {
        let c = SoftwareCache::new(
            CacheConfig {
                capacity_bytes: 2 * SSD_PAGE_SIZE,
                associativity: 2,
            },
            Box::new(ClockPolicy::new()),
        );
        // Fill both ways and keep them pinned.
        for lba in 0..2u64 {
            let CacheLookup::Miss { line, dma, .. } = c.lookup_or_reserve(0, lba) else {
                panic!();
            };
            dma.store(PageToken(lba));
            c.complete_fill(line);
            // intentionally not unpinned
            let _ = line;
        }
        // No way is evictable ⇒ NoLineAvailable, and the caller would retry.
        assert!(matches!(
            c.lookup_or_reserve(0, 50),
            CacheLookup::NoLineAvailable
        ));
        assert_eq!(c.stats().no_line, 1);
    }

    #[test]
    fn preload_and_peek() {
        let c = small_cache();
        assert!(c.peek(0, 9).is_none());
        assert!(c.preload(0, 9, PageToken(555)));
        assert_eq!(c.peek(0, 9), Some(PageToken(555)));
        // Preload is idempotent-ish: second preload overwrites via the hit path.
        assert!(c.preload(0, 9, PageToken(556)));
        assert_eq!(c.peek(0, 9), Some(PageToken(556)));
        assert_eq!(c.total_pins(), 0);
    }

    #[test]
    fn distinct_devices_do_not_collide() {
        let c = small_cache();
        assert!(c.preload(0, 7, PageToken(1)));
        assert!(c.preload(1, 7, PageToken(2)));
        assert_eq!(c.peek(0, 7), Some(PageToken(1)));
        assert_eq!(c.peek(1, 7), Some(PageToken(2)));
    }

    #[test]
    fn concurrent_lookups_single_fill_owner() {
        use std::sync::Arc;
        use std::thread;
        let c = Arc::new(small_cache());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(thread::spawn(move || match c.lookup_or_reserve(0, 123) {
                CacheLookup::Miss { .. } => 1u32,
                _ => 0u32,
            }));
        }
        let owners: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(owners, 1, "exactly one thread owns the fill");
        let s = c.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.busy_hits, 7);
    }

    #[test]
    fn tenant_attribution_tracks_ownership_and_eviction() {
        // One set of 4 ways: tenant 0 fills 3 lines, tenant 1 fills 1, then
        // tenant 1's fourth fill evicts one of tenant 0's lines.
        let c = SoftwareCache::new(
            CacheConfig {
                capacity_bytes: 4 * SSD_PAGE_SIZE,
                associativity: 4,
            },
            Box::new(ClockPolicy::new()),
        );
        for lba in 0..3u64 {
            let CacheLookup::Miss { line, dma, .. } = c.lookup_or_reserve_as(0, lba, 0) else {
                panic!("expected miss");
            };
            dma.store(PageToken(lba));
            c.complete_fill(line);
            c.unpin(line);
        }
        let CacheLookup::Miss { line, dma, .. } = c.lookup_or_reserve_as(0, 3, 1) else {
            panic!("expected miss");
        };
        dma.store(PageToken(3));
        c.complete_fill(line);
        c.unpin(line);
        // A hit is attributed to the requesting tenant, not the owner.
        let CacheLookup::Hit { line, .. } = c.lookup_or_reserve_as(0, 0, 1) else {
            panic!("expected hit");
        };
        c.unpin(line);
        let stats = c.tenant_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!((stats[0].fills, stats[0].occupancy), (3, 3));
        assert_eq!(
            (stats[1].fills, stats[1].hits, stats[1].occupancy),
            (1, 1, 1)
        );
        // Fifth distinct LBA from tenant 1 evicts one of tenant 0's lines
        // (clock: every reference bit is set, so the hand clears them all
        // and comes back to way 0, tenant 0's lba 0).
        let CacheLookup::Miss { line, .. } = c.lookup_or_reserve_as(0, 100, 1) else {
            panic!("expected eviction miss");
        };
        c.complete_fill(line);
        c.unpin(line);
        let stats = c.tenant_stats();
        assert_eq!(stats[0].evictions, 1, "tenant 0 lost a line");
        assert_eq!(stats[0].occupancy, 2);
        assert_eq!(stats[1].occupancy, 2, "tenant 1 gained the way");
        assert_eq!(c.tenants.total_occupancy(), 4);
    }

    #[test]
    fn untenanted_lookups_keep_the_table_empty() {
        let c = small_cache();
        assert!(c.preload(0, 1, PageToken(9)));
        let CacheLookup::Hit { line, .. } = c.lookup_or_reserve(0, 1) else {
            panic!("expected hit");
        };
        c.unpin(line);
        assert!(c.tenant_stats().is_empty());
    }

    #[test]
    fn tenant_share_protects_the_victim_hot_set_end_to_end() {
        use crate::policy::TenantShare;
        // 16 lines, 4-way. Tenant 0 floods with always-new addresses while
        // tenant 1 re-reads a 4-page hot set. Under the clock policy the
        // flood keeps evicting the hot set; under TenantShare the flood's
        // over-quota lines are evicted in preference, so the hot set
        // survives and the victim's hit count jumps.
        let run = |policy: Box<dyn CachePolicy>| -> Vec<CacheStats> {
            let c = SoftwareCache::new(
                CacheConfig {
                    capacity_bytes: 16 * SSD_PAGE_SIZE,
                    associativity: 4,
                },
                policy,
            );
            let fill =
                |dev: u32, lba: u64, tenant: u32| match c.lookup_or_reserve_as(dev, lba, tenant) {
                    CacheLookup::Hit { line, .. } => c.unpin(line),
                    CacheLookup::Miss { line, dma, .. } => {
                        dma.store(PageToken(lba));
                        c.complete_fill(line);
                        c.unpin(line);
                    }
                    CacheLookup::Busy { .. } | CacheLookup::NoLineAvailable => {}
                };
            for round in 0..200u64 {
                fill(0, 1_000 + round, 0);
                fill(0, round % 4, 1);
            }
            c.tenant_stats()
                .into_iter()
                .map(|t| CacheStats {
                    hits: t.hits,
                    misses: t.misses,
                    ..CacheStats::default()
                })
                .collect()
        };
        let clock = run(Box::<ClockPolicy>::default());
        let shared = run(Box::<TenantShare>::default());
        assert!(
            shared[1].hits > clock[1].hits,
            "TenantShare must lift the victim's hits over clock ({} vs {})",
            shared[1].hits,
            clock[1].hits
        );
        assert!(
            shared[1].hits > 150,
            "the 4-page hot set must be near-always resident under \
             TenantShare (hits={})",
            shared[1].hits
        );
    }

    #[test]
    fn config_geometry_matches_allocation_for_non_aligned_capacities() {
        // E.g. 12 lines at 8-way is one whole set of 8 ways: the config must
        // report the allocated whole-set geometry, not the raw division.
        for (lines, assoc) in [
            (12u64, 8u32),
            (7, 8),
            (9, 4),
            (17, 8),
            (3, 4),
            (8, 8),
            (65, 8),
        ] {
            let cfg = CacheConfig {
                capacity_bytes: lines * SSD_PAGE_SIZE,
                associativity: assoc,
            };
            let c = SoftwareCache::new(cfg.clone(), Box::new(ClockPolicy::new()));
            assert_eq!(
                cfg.num_lines(),
                c.num_lines(),
                "configured and allocated line counts must agree \
                 ({lines} lines, {assoc}-way)"
            );
            assert_eq!(cfg.num_lines(), cfg.num_sets() * assoc as usize);
            assert!(cfg.num_sets() >= 1, "one-set floor");
        }
    }

    fn cfg(lines: u64, assoc: u32) -> CacheConfig {
        CacheConfig {
            capacity_bytes: lines * SSD_PAGE_SIZE,
            associativity: assoc,
        }
    }

    fn clock(lines: u64, assoc: u32) -> SoftwareCache {
        SoftwareCache::new(cfg(lines, assoc), Box::new(ClockPolicy::new()))
    }

    #[test]
    fn time_hint_is_published_only_to_a_sink_and_a_late_sink_sees_it() {
        use agile_sim::trace::{TraceEvent, TraceSink};
        #[derive(Default)]
        struct Log(Mutex<Vec<TraceEvent>>);
        impl TraceSink for Log {
            fn record(&self, ev: TraceEvent) {
                self.0.lock().push(ev);
            }
        }
        let c = clock(64, 4);
        let lookup = |lba| {
            if let CacheLookup::Hit { line, .. } = c.lookup_or_reserve(0, lba) {
                c.unpin(line);
            }
        };
        // No sink: the hint goes nowhere, lookups work as ever.
        c.set_time_hint(1_000);
        assert!(c.preload(0, 1, PageToken(1)));
        // A sink installed mid-run has seen no hint yet …
        let log = Arc::new(Log::default());
        assert!(c.set_trace_sink(log.clone()));
        lookup(1);
        // … and from then on stamps with the hint of each call.
        for (now, lba) in [(2_000u64, 1u64), (3_000, 2), (4_000, 40)] {
            c.set_time_hint(now);
            lookup(lba);
        }
        let stamps: Vec<u64> = log.0.lock().iter().map(|ev| ev.at).collect();
        assert_eq!(stamps, [0, 2_000, 3_000, 4_000]);
    }

    #[test]
    fn line_ids_round_trip_through_every_accessor() {
        let c = clock(64, 4);
        assert!(c.preload(0, 42, PageToken(7)));
        let CacheLookup::Hit { line, token } = c.lookup_or_reserve(0, 42) else {
            panic!("expected hit");
        };
        assert_eq!(token, PageToken(7));
        assert_eq!(c.read(line), PageToken(7));
        assert_eq!(c.state(line), LineState::Ready);
        c.store(line, PageToken(8));
        assert_eq!(c.state(line), LineState::Modified);
        c.unpin(line);
        assert_eq!(c.total_pins(), 0);
        assert_eq!(c.peek(0, 42), Some(PageToken(8)));
    }

    #[test]
    fn tenant_accounting_and_share_updates_use_one_table() {
        use crate::policy::TenantShare;
        let c = SoftwareCache::new(cfg(64, 4), Box::new(TenantShare::new()));
        // Fill lines from many addresses (landing in different sets) as two
        // tenants; the table must aggregate across sets.
        for lba in 0..24u64 {
            let tenant = (lba % 2) as u32;
            match c.lookup_or_reserve_as(0, lba, tenant) {
                CacheLookup::Miss { line, dma, .. } => {
                    dma.store(PageToken(lba));
                    c.complete_fill(line);
                    c.unpin(line);
                }
                CacheLookup::Hit { line, .. } => c.unpin(line),
                _ => {}
            }
        }
        let stats = c.tenant_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(
            stats.iter().map(|t| t.occupancy).sum::<u64>(),
            c.tenants.total_occupancy()
        );
        assert_eq!(stats[0].fills + stats[1].fills, 24);
        // A share update reaches the policy and reads back.
        assert_eq!(c.set_tenant_share(0, 3), Ok(3));
        assert_eq!(c.tenant_share(0), Some(3));
    }

    #[test]
    fn share_updates_on_oblivious_policies_are_unsupported() {
        let c = clock(64, 4);
        assert_eq!(
            c.set_tenant_share(0, 2),
            Err(crate::policy::ShareError::Unsupported)
        );
    }

    /// A 4-line cache with a hub and `n` parked-able sleepers.
    fn watched_cache(n: usize) -> (SoftwareCache, Arc<WakeHub>, Vec<SleeperId>) {
        let cache = clock(4, 2);
        let hub = WakeHub::new();
        assert!(cache.set_wake_hub(Arc::clone(&hub)));
        let sleepers = (0..n).map(|_| hub.register()).collect();
        (cache, hub, sleepers)
    }

    fn reserve(cache: &SoftwareCache, lba: Lba) -> BusyTicket {
        match cache.lookup_or_reserve(0, lba) {
            CacheLookup::Miss {
                line, generation, ..
            } => BusyTicket { line, generation },
            other => panic!("expected a miss, got {other:?}"),
        }
    }

    /// An unowned dirty page `lba` of device 0, to reinstate.
    fn victim(lba: Lba) -> Writeback {
        Writeback {
            dev: 0,
            lba,
            token: PageToken(lba),
            owner: NO_TENANT,
        }
    }

    fn fired(hub: &WakeHub) -> Vec<SleeperId> {
        let mut out = Vec::new();
        hub.drain(&mut out, &mut Vec::new());
        out
    }

    #[test]
    fn every_way_out_of_busy_notifies_the_lines_watchers_once() {
        let (cache, hub, s) = watched_cache(3);
        let tickets = [reserve(&cache, 1), reserve(&cache, 2), reserve(&cache, 3)];
        for (ticket, &sleeper) in tickets.iter().zip(&s) {
            assert!(cache.watch_line(*ticket, sleeper));
            assert!(cache.watch_line(*ticket, sleeper), "idempotent");
            hub.park(sleeper);
        }
        cache.complete_fill(tickets[0].line);
        assert_eq!(fired(&hub), [s[0]]);
        cache.abort_fill(tickets[1].line);
        assert_eq!(fired(&hub), [s[1]]);
        cache.reinstate_victim(tickets[2].line, victim(9));
        assert_eq!(fired(&hub), [s[2]]);
        // A reservation that has ended cannot be slept on.
        assert!(!cache.watch_line(tickets[0], s[0]));
    }

    #[test]
    fn a_line_reserved_again_does_not_wake_the_old_tickets_sleeper_twice() {
        // ABA: the watched fill lands (one wake), the line is evicted and
        // reserved for another page at a later generation, and that fill
        // lands too. The first ticket's sleeper — asleep again, on something
        // else — must not hear about the second.
        let cache = clock(1, 1);
        let hub = WakeHub::new();
        cache.set_wake_hub(Arc::clone(&hub));
        let (old, new) = (hub.register(), hub.register());
        let first = reserve(&cache, 1);
        assert!(cache.watch_line(first, old));
        hub.park(old);
        cache.complete_fill(first.line);
        cache.unpin(first.line);
        assert_eq!(fired(&hub), [old]);

        let second = reserve(&cache, 2);
        assert_eq!(second.line, first.line, "the one line, re-reserved");
        assert_ne!(second.generation, first.generation);
        assert!(!cache.watch_line(first, old), "the old ticket is dead");
        assert!(cache.watch_line(second, new));
        hub.park(old);
        hub.park(new);
        cache.complete_fill(second.line);
        assert_eq!(fired(&hub), [new], "only the second ticket's sleeper");
    }

    /// One set of four ways, each reserved for a fill in flight (pages 1–4),
    /// so a lookup of page 9 finds no line; a hub and one sleeper.
    fn full_set() -> (SoftwareCache, Arc<WakeHub>, SleeperId, [BusyTicket; 4]) {
        let cache = clock(4, 4);
        let hub = WakeHub::new();
        assert!(cache.set_wake_hub(Arc::clone(&hub)));
        let sleeper = hub.register();
        let tickets = [1, 2, 3, 4].map(|lba| reserve(&cache, lba));
        assert!(matches!(
            cache.lookup_or_reserve(0, 9),
            CacheLookup::NoLineAvailable
        ));
        (cache, hub, sleeper, tickets)
    }

    fn watcher_count(cache: &SoftwareCache) -> usize {
        cache.watchers.get().map_or(0, LineWatchers::len)
    }

    #[test]
    fn a_set_is_slept_on_only_while_every_way_is_busy_and_none_holds_the_page() {
        // No hub: nobody could wake the sleeper.
        let bare = clock(4, 4);
        for lba in 1..=4 {
            reserve(&bare, lba);
        }
        assert!(!bare.watch_full_set(0, 9, SleeperId(0)));

        let (cache, _hub, s, tickets) = full_set();
        // The page is tagged: its lookup finds its own fill, not a full set.
        assert!(!cache.watch_full_set(0, 1, s));
        // A way is READY but still pinned by its filler: still no line for
        // page 9, but the unpin that frees the way notifies nobody.
        cache.complete_fill(tickets[0].line);
        assert!(matches!(
            cache.lookup_or_reserve(0, 9),
            CacheLookup::NoLineAvailable
        ));
        assert!(!cache.watch_full_set(0, 9, s));
        // Unpinned, the way is evictable.
        cache.unpin(tickets[0].line);
        assert!(!cache.watch_full_set(0, 9, s));
        assert_eq!(watcher_count(&cache), 0, "nothing was registered");
    }

    /// A policy that never picks a victim, evictable ways or not.
    struct Refuse;

    impl CachePolicy for Refuse {
        fn configure(&mut self, _num_sets: usize, _associativity: usize) {}
        fn on_access(&self, _set: usize, _way: usize) {}
        fn on_fill(&self, _set: usize, _way: usize) {}
        fn choose_victim(
            &self,
            _set: usize,
            _evictable: u64,
            _owners: &[AtomicU32],
        ) -> Option<usize> {
            None
        }
    }

    #[test]
    fn a_policy_refusal_that_leaves_ways_evictable_is_not_slept_on() {
        let cache = SoftwareCache::new(cfg(4, 4), Box::new(Refuse));
        let hub = WakeHub::new();
        assert!(cache.set_wake_hub(Arc::clone(&hub)));
        let sleeper = hub.register();
        for lba in 1..=4 {
            assert!(cache.preload(0, lba, PageToken(lba)));
        }
        assert!(matches!(
            cache.lookup_or_reserve(0, 9),
            CacheLookup::NoLineAvailable
        ));
        // Policy state, not a way leaving BUSY, decides the next lookup.
        assert!(!cache.watch_full_set(0, 9, sleeper));
        assert_eq!(watcher_count(&cache), 0);
    }

    #[test]
    fn every_way_out_of_busy_on_any_way_wakes_a_full_set_sleeper() {
        for way in 0..4 {
            for exit in ["complete", "abort", "reinstate"] {
                let (cache, hub, s, tickets) = full_set();
                assert!(cache.watch_full_set(0, 9, s));
                assert!(cache.watch_full_set(0, 9, s), "idempotent");
                assert_eq!(watcher_count(&cache), 4, "one entry per way");
                hub.park(s);
                let line = tickets[way].line;
                match exit {
                    "complete" => cache.complete_fill(line),
                    "abort" => cache.abort_fill(line),
                    _ => cache.reinstate_victim(line, victim(50)),
                }
                assert_eq!(fired(&hub), [s], "way {way}, {exit}");
                // The other ways' entries leave with their own fills, which
                // find the sleeper awake.
                for other in tickets.iter().filter(|t| t.line != line) {
                    cache.complete_fill(other.line);
                }
                assert_eq!(watcher_count(&cache), 0, "way {way}, {exit}");
                assert!(fired(&hub).is_empty(), "woken once");
            }
        }
    }

    #[test]
    fn a_full_set_counts_once_until_one_of_its_ways_settles() {
        let no_line = |cache: &SoftwareCache, lba| {
            assert!(matches!(
                cache.lookup_or_reserve(0, lba),
                CacheLookup::NoLineAvailable
            ));
        };
        for exit in ["complete", "abort", "reinstate"] {
            let (cache, _hub, _s, tickets) = full_set();
            // Retries, of that page or another, find the same full set.
            for lba in [9, 10, 9] {
                no_line(&cache, lba);
            }
            assert_eq!((cache.stats().no_line, cache.full_sets()), (4, 1));
            let line = tickets[0].line;
            match exit {
                "complete" => {
                    cache.complete_fill(line);
                    cache.unpin(line);
                }
                "abort" => cache.abort_fill(line),
                _ => cache.reinstate_victim(line, victim(50)),
            }
            // The freed way is taken, and the set found full counts anew.
            reserve(&cache, 9);
            no_line(&cache, 10);
            no_line(&cache, 10);
            assert_eq!((cache.stats().no_line, cache.full_sets()), (6, 2), "{exit}");
        }
    }
}
