//! Set-range sharding of the software cache.
//!
//! After lock sharding (nvme-sim's `ShardedArray`) and service scale-out,
//! the software cache is the last global serial structure on the hot path:
//! every warp on every service partition funnels through one
//! [`SoftwareCache`]. [`ShardedCache`] applies the same playbook to it: the
//! logical set space is split into N contiguous ranges (set index → shard by
//! high bits), each owned by an independent `SoftwareCache`, so lookups to
//! different ranges touch disjoint tag locks and disjoint policy state.
//!
//! Two properties make the split safe:
//!
//! * **Structural transparency.** The address hash is computed over the
//!   *logical* set count and only then rebased into a shard, so the
//!   `(dev, lba) → set → way` mapping — and with it every hit/miss/victim
//!   decision of a deterministic policy — is bit-identical at any shard
//!   count. `cache_shards=1` is the exact pre-sharding cache and stays
//!   golden-gated.
//! * **One logical cache for tenants.** All shards share a single
//!   [`TenantTable`], and quota policies are rebased onto the logical line
//!   count ([`crate::CachePolicy::bind_global_lines`]), so `TenantShare`
//!   occupancy bounds and the control plane's `set_share` actuator (which
//!   fans out to every shard) see one cache, not N small ones — per-shard
//!   quota rounding cannot strand lines.
//!
//! Contention is modeled the same way as the NVMe doorbell path: each shard
//! has an **access port** that serializes lookups at a configurable hold
//! cost ([`ShardedCache::port_acquire`]). The default hold is 0 — sharding
//! is then purely structural and free — and cost-model studies (the
//! cache-shard scaling gate, the bench sweep) opt into a nonzero hold to
//! measure how splitting the port queue scales aggregate throughput.

use crate::cache::{
    global_set_of, BusyTicket, CacheConfig, CacheLookup, CacheStats, LineId, SoftwareCache,
};
use crate::line::{LineState, Way};
use crate::policy::{CachePolicy, ShareError};
use crate::tenant::{TenantCacheStats, TenantTable};
use agile_sim::trace::TraceSink;
use agile_sim::wake::{SleeperId, WakeHub};
use nvme_sim::{Lba, PageToken};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// FIFO occupancy of one shard's access port (see
/// [`ShardedCache::port_acquire`]).
#[derive(Default)]
struct PortState {
    /// Sim time at which the port frees up.
    busy_until: u64,
    /// Total cycles spent queued behind earlier acquires.
    wait_cycles: u64,
    /// Total acquisitions.
    acquires: u64,
}

/// The sleepers waiting for `BUSY` lines to leave that state: `(ticket,
/// sleeper)` entries chained by line into a fixed set of buckets, each entry
/// removed — and its sleeper notified — by the first
/// [`ShardedCache::complete_fill`] / [`abort_fill`](ShardedCache::abort_fill)
/// / [`reinstate_victim`](ShardedCache::reinstate_victim) of its line.
/// Several warps may wait on one line; an entry whose sleeper was woken by
/// something else in the meantime just notifies nobody.
struct LineWatchers {
    hub: Arc<WakeHub>,
    /// Live entries, so the fill path of a cache nobody sleeps on pays one
    /// load. Raised *before* a watcher checks its ticket and read *after* a
    /// fill changes the state word (both `SeqCst`): either the fill sees
    /// the entry or the watcher sees the dead ticket.
    len: AtomicUsize,
    table: Mutex<WatchTable>,
}

/// The entries themselves: one slab, chained into buckets by index, freed
/// slots recycled — two allocations however many lines are waited on (a
/// `Vec` per bucket scattered hundreds of small ones through the heap and
/// showed as peak RSS on the 5 MB replays).
struct WatchTable {
    /// First entry of each bucket ([`WatchTable::NIL`]: empty).
    heads: Box<[u32]>,
    entries: Vec<WatchEntry>,
    /// First recycled slot.
    free: u32,
}

struct WatchEntry {
    ticket: BusyTicket,
    sleeper: SleeperId,
    next: u32,
}

impl WatchTable {
    const NIL: u32 = u32::MAX;
    /// Enough buckets that the lines a thousand warps wait on spread thin.
    const BUCKETS: usize = 512;

    fn new() -> Self {
        WatchTable {
            heads: vec![Self::NIL; Self::BUCKETS].into_boxed_slice(),
            // Room for what a cached replay's warps wait on at once (64 warps
            // × a warp-width of pages), taken in one piece: grown by doubling
            // in mid-run the slab left a trail of holes in the heap.
            entries: Vec::with_capacity(2048),
            free: Self::NIL,
        }
    }

    fn bucket(line: LineId) -> usize {
        line.0 as usize % Self::BUCKETS
    }

    /// Add `(ticket, sleeper)`; `false` if it was there already.
    fn insert(&mut self, ticket: BusyTicket, sleeper: SleeperId) -> bool {
        let bucket = Self::bucket(ticket.line);
        let mut at = self.heads[bucket];
        while at != Self::NIL {
            let entry = &self.entries[at as usize];
            if entry.ticket == ticket && entry.sleeper == sleeper {
                return false;
            }
            at = entry.next;
        }
        let entry = WatchEntry {
            ticket,
            sleeper,
            next: self.heads[bucket],
        };
        let slot = self.free;
        if slot == Self::NIL {
            self.entries.push(entry);
            self.heads[bucket] = self.entries.len() as u32 - 1;
        } else {
            self.free = self.entries[slot as usize].next;
            self.entries[slot as usize] = entry;
            self.heads[bucket] = slot;
        }
        true
    }

    /// Remove every entry of `line`, handing its sleeper to `woken`;
    /// returns how many there were.
    fn take_line(&mut self, line: LineId, mut woken: impl FnMut(SleeperId)) -> usize {
        let bucket = Self::bucket(line);
        let (mut taken, mut prev, mut at) = (0, Self::NIL, self.heads[bucket]);
        while at != Self::NIL {
            let WatchEntry {
                ticket,
                sleeper,
                next,
            } = self.entries[at as usize];
            if ticket.line == line {
                woken(sleeper);
                taken += 1;
                match prev {
                    Self::NIL => self.heads[bucket] = next,
                    prev => self.entries[prev as usize].next = next,
                }
                self.entries[at as usize].next = self.free;
                self.free = at;
            } else {
                prev = at;
            }
            at = next;
        }
        taken
    }
}

/// N independent [`SoftwareCache`] shards presenting one logical cache.
///
/// The public surface mirrors `SoftwareCache` method-for-method; line ids
/// are globalized (`shard × lines_per_shard + local`) so callers hold opaque
/// handles that survive routing. See the module docs for the invariants.
pub struct ShardedCache {
    shards: Vec<SoftwareCache>,
    /// Logical geometry (the whole cache, not one shard).
    cfg: CacheConfig,
    /// Logical set count (`cfg.num_sets()`).
    total_sets: usize,
    /// Sets per shard (every shard but possibly the last).
    sets_per_shard: usize,
    /// Lines per shard slot in the global line-id space.
    lines_per_shard: usize,
    /// Per-tenant accounting shared by every shard.
    tenants: Arc<TenantTable>,
    /// One access port per shard; only charged when `port_hold > 0`.
    ports: Vec<Mutex<PortState>>,
    port_hold: u64,
    /// Installed by [`ShardedCache::set_wake_hub`]; built on it by the first
    /// [`ShardedCache::watch_line`], so a cache nobody sleeps on (the BaM
    /// side, whose warps poll their own CQs) carries no table.
    wake_hub: OnceLock<Arc<WakeHub>>,
    watchers: OnceLock<LineWatchers>,
}

impl ShardedCache {
    /// Build a logical cache of `cfg` split into (at most) `shards` set
    /// ranges, each with its own policy instance from `policy_factory`.
    /// `shards` is clamped so every shard owns at least one set.
    ///
    /// `port_hold` is the modeled cycles one lookup holds its shard's access
    /// port ([`ShardedCache::port_acquire`]); 0 (the default everywhere but
    /// contention studies) disables the port model entirely.
    pub fn new(
        cfg: CacheConfig,
        shards: usize,
        port_hold: u64,
        mut policy_factory: impl FnMut() -> Box<dyn CachePolicy>,
    ) -> Self {
        assert!(shards > 0, "at least one cache shard");
        let total_sets = cfg.num_sets();
        let assoc = cfg.associativity as usize;
        let sets_per_shard = total_sets.div_ceil(shards.min(total_sets));
        // The number of non-empty ranges (the last range may be short).
        let n = total_sets.div_ceil(sets_per_shard);
        let tenants = Arc::new(TenantTable::new());
        let shards: Vec<SoftwareCache> = (0..n)
            .map(|i| {
                let base = i * sets_per_shard;
                let local_sets = sets_per_shard.min(total_sets - base);
                SoftwareCache::for_shard(
                    cfg.clone(),
                    policy_factory(),
                    Arc::clone(&tenants),
                    total_sets,
                    base,
                    local_sets,
                )
            })
            .collect();
        ShardedCache {
            ports: (0..n).map(|_| Mutex::new(PortState::default())).collect(),
            shards,
            cfg,
            total_sets,
            sets_per_shard,
            lines_per_shard: sets_per_shard * assoc,
            tenants,
            port_hold,
            wake_hub: OnceLock::new(),
            watchers: OnceLock::new(),
        }
    }

    /// Number of shards actually built (≤ the requested count).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The modeled per-lookup port hold in cycles (0 = port model off).
    pub fn port_hold(&self) -> u64 {
        self.port_hold
    }

    /// Shard owning `(dev, lba)` — the high bits of the logical set index.
    fn shard_of(&self, dev: u32, lba: Lba) -> usize {
        global_set_of(dev, lba, self.total_sets) / self.sets_per_shard
    }

    /// Shard and shard-local line behind a global line id.
    fn locate(&self, line: LineId) -> (usize, LineId) {
        let shard = line.0 as usize / self.lines_per_shard;
        (shard, LineId(line.0 % self.lines_per_shard as u32))
    }

    /// Globalize a shard-local line id.
    fn globalize(&self, shard: usize, line: LineId) -> LineId {
        LineId((shard * self.lines_per_shard) as u32 + line.0)
    }

    fn map_lookup(&self, shard: usize, lookup: CacheLookup) -> CacheLookup {
        match lookup {
            CacheLookup::Hit { line, token } => CacheLookup::Hit {
                line: self.globalize(shard, line),
                token,
            },
            CacheLookup::Busy { line, generation } => CacheLookup::Busy {
                line: self.globalize(shard, line),
                generation,
            },
            CacheLookup::Miss {
                line,
                dma,
                writeback,
                generation,
            } => CacheLookup::Miss {
                line: self.globalize(shard, line),
                dma,
                writeback,
                generation,
            },
            CacheLookup::NoLineAvailable => CacheLookup::NoLineAvailable,
        }
    }

    /// Charge one lookup's occupancy of its shard's access port and return
    /// the modeled cycles (queue wait + hold). The port is a FIFO server:
    /// an acquire at `now` waits until the port frees, then holds it for
    /// `port_hold` cycles — the cache-side analogue of the NVMe topology
    /// lock's doorbell serialization. Free (returns 0, takes no lock) when
    /// the hold is 0, so the default stack pays nothing.
    pub fn port_acquire(&self, dev: u32, lba: Lba, now: u64) -> u64 {
        if self.port_hold == 0 {
            return 0;
        }
        let mut port = self.ports[self.shard_of(dev, lba)].lock();
        port.acquires += 1;
        let wait = port.busy_until.saturating_sub(now);
        port.busy_until = port.busy_until.max(now) + self.port_hold;
        port.wait_cycles += wait;
        wait + self.port_hold
    }

    /// Cycles spent queued on each shard's access port.
    pub fn port_wait_by_shard(&self) -> Vec<u64> {
        self.ports.iter().map(|p| p.lock().wait_cycles).collect()
    }

    /// Acquisitions of each shard's access port.
    pub fn port_acquires_by_shard(&self) -> Vec<u64> {
        self.ports.iter().map(|p| p.lock().acquires).collect()
    }

    /// Install a trace sink on every shard (the first sink wins, as on
    /// [`SoftwareCache::set_trace_sink`]). Returns `false` if any shard
    /// already had one.
    pub fn set_trace_sink(&self, sink: Arc<dyn TraceSink>) -> bool {
        let mut all = true;
        for shard in &self.shards {
            all &= shard.set_trace_sink(Arc::clone(&sink));
        }
        all
    }

    /// Hold every set lock of every shard; see
    /// [`SoftwareCache::lock_all_sets`].
    #[doc(hidden)]
    pub fn lock_all_sets(&self) -> impl Sized + '_ {
        self.shards
            .iter()
            .map(SoftwareCache::lock_all_sets)
            .collect::<Vec<_>>()
    }

    /// Publish the current sim time to every shard for trace timestamps.
    /// Only trace records read it, so without a sink (installed on every
    /// shard or on none) nothing is stored; a sink installed later sees the
    /// hint of the first call after it.
    #[inline]
    pub fn set_time_hint(&self, now: u64) {
        if self.shards[0].has_trace_sink() {
            for shard in &self.shards {
                shard.set_time_hint(now);
            }
        }
    }

    /// Logical cache geometry (the whole cache, not one shard).
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Replacement policy name (every shard runs the same policy).
    pub fn policy_name(&self) -> &str {
        self.shards[0].policy_name()
    }

    /// Online share-weight update for `tenant`, fanned out to **every**
    /// shard's policy so the control plane's single actuation keeps all
    /// quota views coherent. Returns the installed weight (identical across
    /// shards) or the first error.
    pub fn set_tenant_share(&self, tenant: u32, weight: u64) -> Result<u64, ShareError> {
        let mut installed = Err(ShareError::Unsupported);
        for shard in &self.shards {
            installed = Ok(shard.set_tenant_share(tenant, weight)?);
        }
        installed
    }

    /// Current share weight of `tenant` (shards agree; shard 0 is asked).
    pub fn tenant_share(&self, tenant: u32) -> Option<u64> {
        self.shards[0].tenant_share(tenant)
    }

    /// Total lines across all shards (equals `config().num_lines()`).
    pub fn num_lines(&self) -> usize {
        self.shards.iter().map(|s| s.num_lines()).sum()
    }

    /// Per-tenant counter snapshot over the whole logical cache (the table
    /// is shared by every shard).
    pub fn tenant_stats(&self) -> Vec<TenantCacheStats> {
        self.tenants.snapshot()
    }

    /// The shared per-tenant accounting table (live occupancy gauges).
    pub fn tenant_table(&self) -> &Arc<TenantTable> {
        &self.tenants
    }

    /// Aggregate counters over all shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in self.shards.iter().map(|s| s.stats()) {
            total.hits += s.hits;
            total.busy_hits += s.busy_hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.writebacks += s.writebacks;
            total.no_line += s.no_line;
        }
        total
    }

    /// Per-shard counter snapshots, indexed by shard.
    pub fn stats_by_shard(&self) -> Vec<CacheStats> {
        self.shards.iter().map(|s| s.stats()).collect()
    }

    /// The way behind a (global) line id.
    pub fn way(&self, line: LineId) -> &Way {
        let (shard, local) = self.locate(line);
        self.shards[shard].way(local)
    }

    /// Non-blocking lookup without tenant attribution; see
    /// [`SoftwareCache::lookup_or_reserve`].
    pub fn lookup_or_reserve(&self, dev: u32, lba: Lba) -> CacheLookup {
        let shard = self.shard_of(dev, lba);
        let lookup = self.shards[shard].lookup_or_reserve(dev, lba);
        self.map_lookup(shard, lookup)
    }

    /// Non-blocking lookup attributed to `tenant`; see
    /// [`SoftwareCache::lookup_or_reserve_as`].
    pub fn lookup_or_reserve_as(&self, dev: u32, lba: Lba, tenant: u32) -> CacheLookup {
        let shard = self.shard_of(dev, lba);
        let lookup = self.shards[shard].lookup_or_reserve_as(dev, lba, tenant);
        self.map_lookup(shard, lookup)
    }

    /// Re-account a lookup whose ticketed fill is still in flight, from one
    /// load of the line's state word; see [`SoftwareCache::lookup_busy`].
    pub fn lookup_busy(&self, ticket: BusyTicket, dev: u32, lba: Lba, tenant: u32) -> bool {
        let (shard, line) = self.locate(ticket.line);
        let local = BusyTicket { line, ..ticket };
        self.shards[shard].lookup_busy(local, dev, lba, tenant)
    }

    /// Let waiters sleep on `BUSY` lines: from now on
    /// [`ShardedCache::watch_line`] registers sleepers of `hub`. Returns
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
        let Some(hub) = self.wake_hub.get() else {
            return false;
        };
        let watchers = self.watchers.get_or_init(|| LineWatchers {
            hub: Arc::clone(hub),
            len: AtomicUsize::new(0),
            table: Mutex::new(WatchTable::new()),
        });
        watchers.len.fetch_add(1, Ordering::SeqCst);
        let mut table = watchers.table.lock();
        let live = self.way(ticket.line).busy_in(ticket.generation);
        if !(live && table.insert(ticket, sleeper)) {
            watchers.len.fetch_sub(1, Ordering::SeqCst);
        }
        live
    }

    /// `line` just left `BUSY`: wake whoever waited for that.
    fn line_settled(&self, line: LineId) {
        let Some(watchers) = self.watchers.get() else {
            return;
        };
        if watchers.len.load(Ordering::SeqCst) == 0 {
            return;
        }
        let taken = watchers
            .table
            .lock()
            .take_line(line, |sleeper| watchers.hub.notify(sleeper));
        watchers.len.fetch_sub(taken, Ordering::SeqCst);
    }

    /// Probe without reserving; see [`SoftwareCache::peek`].
    pub fn peek(&self, dev: u32, lba: Lba) -> Option<PageToken> {
        self.shards[self.shard_of(dev, lba)].peek(dev, lba)
    }

    /// Mark a reserved line filled; see [`SoftwareCache::complete_fill`].
    /// Sleepers watching the line ([`ShardedCache::watch_line`]) are
    /// notified — here and in the two ways a reservation can be abandoned.
    pub fn complete_fill(&self, line: LineId) {
        let (shard, local) = self.locate(line);
        self.shards[shard].complete_fill(local);
        self.line_settled(line);
    }

    /// Abandon a reservation; see [`SoftwareCache::abort_fill`].
    pub fn abort_fill(&self, line: LineId) {
        let (shard, local) = self.locate(line);
        self.shards[shard].abort_fill(local);
        self.line_settled(line);
    }

    /// Re-install a dirty victim whose write-back could not issue; see
    /// [`SoftwareCache::reinstate_victim`].
    pub fn reinstate_victim(&self, line: LineId, dev: u32, lba: Lba, token: PageToken) {
        let (shard, local) = self.locate(line);
        self.shards[shard].reinstate_victim(local, dev, lba, token);
        self.line_settled(line);
    }

    /// Store `token` into the line and mark it dirty.
    pub fn store(&self, line: LineId, token: PageToken) {
        let (shard, local) = self.locate(line);
        self.shards[shard].store(local, token);
    }

    /// Read the token currently held by a line.
    pub fn read(&self, line: LineId) -> PageToken {
        let (shard, local) = self.locate(line);
        self.shards[shard].read(local)
    }

    /// Current state of a line.
    pub fn state(&self, line: LineId) -> LineState {
        let (shard, local) = self.locate(line);
        self.shards[shard].state(local)
    }

    /// Pin a line (additional reader).
    pub fn pin(&self, line: LineId) {
        let (shard, local) = self.locate(line);
        self.shards[shard].pin(local);
    }

    /// Release a pin.
    pub fn unpin(&self, line: LineId) {
        let (shard, local) = self.locate(line);
        self.shards[shard].unpin(local);
    }

    /// Preload `(dev, lba) → token` as clean data; see
    /// [`SoftwareCache::preload`].
    pub fn preload(&self, dev: u32, lba: Lba, token: PageToken) -> bool {
        self.shards[self.shard_of(dev, lba)].preload(dev, lba, token)
    }

    /// Total pinned lines across all shards.
    pub fn total_pins(&self) -> u64 {
        self.shards.iter().map(|s| s.total_pins()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ClockPolicy, TenantShare};
    use agile_sim::units::SSD_PAGE_SIZE;

    fn cfg(lines: u64, assoc: u32) -> CacheConfig {
        CacheConfig {
            capacity_bytes: lines * SSD_PAGE_SIZE,
            line_size: SSD_PAGE_SIZE,
            associativity: assoc,
        }
    }

    fn sharded(lines: u64, assoc: u32, shards: usize) -> ShardedCache {
        ShardedCache::new(
            cfg(lines, assoc),
            shards,
            0,
            || Box::new(ClockPolicy::new()),
        )
    }

    /// Drive the same access sequence against a flat cache and against N
    /// shards; with the deterministic clock policy the two must agree on
    /// every outcome kind and on the aggregate counters.
    #[test]
    fn structural_sharding_is_outcome_identical_to_flat() {
        for shards in [2usize, 4, 8] {
            let flat = SoftwareCache::new(cfg(64, 4), Box::new(ClockPolicy::new()));
            let split = sharded(64, 4, shards);
            assert_eq!(split.num_shards(), shards);
            assert_eq!(split.num_lines(), flat.num_lines());
            for round in 0..400u64 {
                // A mix of reuse and fresh addresses across two devices.
                let dev = (round % 2) as u32;
                let lba = if round % 3 == 0 {
                    round % 7
                } else {
                    1_000 + round
                };
                let a = flat.lookup_or_reserve(dev, lba);
                let b = split.lookup_or_reserve(dev, lba);
                let kind = |l: &CacheLookup| match l {
                    CacheLookup::Hit { .. } => 0,
                    CacheLookup::Busy { .. } => 1,
                    CacheLookup::Miss { .. } => 2,
                    CacheLookup::NoLineAvailable => 3,
                };
                assert_eq!(kind(&a), kind(&b), "round {round} diverged");
                for (c, l) in [(&flat as &dyn Fill, &a), (&split as &dyn Fill, &b)] {
                    c.finish(l);
                }
            }
            let (f, s) = (flat.stats(), split.stats());
            assert_eq!(f.hits, s.hits);
            assert_eq!(f.misses, s.misses);
            assert_eq!(f.evictions, s.evictions);
            assert_eq!(flat.total_pins(), 0);
            assert_eq!(split.total_pins(), 0);
        }
    }

    /// Minimal fill-completion shim so the flat and sharded caches can be
    /// driven identically in tests.
    trait Fill {
        fn finish(&self, lookup: &CacheLookup);
    }
    impl Fill for SoftwareCache {
        fn finish(&self, lookup: &CacheLookup) {
            match lookup {
                CacheLookup::Hit { line, .. } => self.unpin(*line),
                CacheLookup::Miss { line, dma, .. } => {
                    dma.store(PageToken(line.0 as u64));
                    self.complete_fill(*line);
                    self.unpin(*line);
                }
                _ => {}
            }
        }
    }
    impl Fill for ShardedCache {
        fn finish(&self, lookup: &CacheLookup) {
            match lookup {
                CacheLookup::Hit { line, .. } => self.unpin(*line),
                CacheLookup::Miss { line, dma, .. } => {
                    dma.store(PageToken(line.0 as u64));
                    self.complete_fill(*line);
                    self.unpin(*line);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn tickets_route_to_the_shard_that_owns_the_line() {
        let c = sharded(64, 4, 4);
        // Reserve pages until some reservation lands outside shard 0, so the
        // ticket's line id really is a global one.
        let (lba, ticket) = (0..64u64)
            .find_map(|lba| match c.lookup_or_reserve(0, lba) {
                CacheLookup::Miss {
                    line, generation, ..
                } if line.0 as usize >= c.lines_per_shard => {
                    Some((lba, BusyTicket { line, generation }))
                }
                _ => None,
            })
            .expect("64 pages over 4 shards reach a shard other than 0");
        let before = c.stats_by_shard();
        assert!(c.lookup_busy(ticket, 0, lba, crate::NO_TENANT));
        let after = c.stats_by_shard();
        let shard = ticket.line.0 as usize / c.lines_per_shard;
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            assert_eq!(a.busy_hits - b.busy_hits, (i == shard) as u64);
        }
        c.complete_fill(ticket.line);
        assert!(!c.lookup_busy(ticket, 0, lba, crate::NO_TENANT));
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
        let c = sharded(64, 4, 4);
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
        // … and from then on stamps with the hint of each call, on whichever
        // shard the lookup lands.
        for (now, lba) in [(2_000u64, 1u64), (3_000, 2), (4_000, 40)] {
            c.set_time_hint(now);
            lookup(lba);
        }
        let stamps: Vec<u64> = log.0.lock().iter().map(|ev| ev.at).collect();
        assert_eq!(stamps, [0, 2_000, 3_000, 4_000]);
    }

    #[test]
    fn line_ids_round_trip_through_the_global_space() {
        let c = sharded(64, 4, 4);
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
    fn tenant_accounting_is_global_across_shards() {
        let c = ShardedCache::new(cfg(64, 4), 4, 0, || Box::new(TenantShare::new()));
        // Fill lines from many addresses (landing on different shards) as
        // two tenants; the shared table must aggregate across shards.
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
            c.tenant_table().total_occupancy()
        );
        assert_eq!(stats[0].fills + stats[1].fills, 24);
        // Share updates fan out: both the queryable weight and every shard's
        // policy observe the new value.
        assert_eq!(c.set_tenant_share(0, 3), Ok(3));
        assert_eq!(c.tenant_share(0), Some(3));
    }

    #[test]
    fn share_updates_on_oblivious_policies_are_unsupported() {
        let c = sharded(64, 4, 2);
        assert_eq!(c.set_tenant_share(0, 2), Err(ShareError::Unsupported));
    }

    #[test]
    fn port_model_charges_queue_wait_only_when_enabled() {
        let free = sharded(64, 4, 2);
        assert_eq!(free.port_acquire(0, 1, 0), 0, "hold 0 ⇒ no cost");
        assert_eq!(free.port_wait_by_shard(), vec![0, 0]);

        let held = ShardedCache::new(cfg(64, 4), 1, 100, || Box::new(ClockPolicy::new()));
        // Three back-to-back acquires at the same instant: FIFO queueing.
        assert_eq!(held.port_acquire(0, 1, 0), 100);
        assert_eq!(held.port_acquire(0, 2, 0), 200);
        assert_eq!(held.port_acquire(0, 3, 0), 300);
        assert_eq!(held.port_wait_by_shard(), vec![300]);
        assert_eq!(held.port_acquires_by_shard(), vec![3]);
        // After the queue drains, an acquire pays only the hold.
        assert_eq!(held.port_acquire(0, 4, 1_000), 100);
    }

    #[test]
    fn shard_count_is_clamped_to_whole_sets() {
        // 4 sets cannot support 16 shards: clamp to one set per shard.
        let c = sharded(16, 4, 16);
        assert_eq!(c.num_shards(), 4);
        assert_eq!(c.num_lines(), 16);
    }

    /// A 4-line cache in two shards with a hub and `n` parked-able sleepers.
    fn watched_cache(n: usize) -> (ShardedCache, Arc<WakeHub>, Vec<SleeperId>) {
        let cache = ShardedCache::new(cfg(4, 2), 2, 0, || Box::new(ClockPolicy::new()));
        let hub = WakeHub::new();
        assert!(cache.set_wake_hub(Arc::clone(&hub)));
        let sleepers = (0..n).map(|_| hub.register()).collect();
        (cache, hub, sleepers)
    }

    fn reserve(cache: &ShardedCache, lba: Lba) -> BusyTicket {
        match cache.lookup_or_reserve(0, lba) {
            CacheLookup::Miss {
                line, generation, ..
            } => BusyTicket { line, generation },
            other => panic!("expected a miss, got {other:?}"),
        }
    }

    fn fired(hub: &WakeHub) -> Vec<SleeperId> {
        let mut out = Vec::new();
        hub.drain_fired(&mut out);
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
        cache.reinstate_victim(tickets[2].line, 0, 9, PageToken(9));
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
        let cache = ShardedCache::new(cfg(1, 1), 1, 0, || Box::new(ClockPolicy::new()));
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
}
