//! Per-tenant cache accounting: the [`TenantTable`].
//!
//! PR 3/4 made the *raw* path tenant-aware (QoS-gated SQ admission); the HBM
//! software cache remained a free-for-all — one tenant could monopolise the
//! lines exactly the way it used to monopolise SQ slots. The first step to
//! fixing that is attribution: every line carries an owner tenant, and the
//! cache maintains per-tenant hit/miss/fill/eviction counters plus a **live
//! occupancy** gauge (lines currently owned) updated at fill and eviction
//! time. Tenant-aware eviction policies
//! ([`crate::policy::TenantShare`]) read the occupancy gauge through
//! [`CachePolicy::bind_tenants`](crate::policy::CachePolicy::bind_tenants)
//! to bound each tenant's footprint to a weighted share.
//!
//! Attribution is **accounting only**: fills and dirty-victim write-backs
//! keep bypassing the QoS admission gate (deferring a write-back would force
//! `abort_fill` and drop the only copy of the dirty data), so system traffic
//! never waits behind tenant arbitration — the invariant the raw-path QoS
//! work established.
//!
//! The table mirrors the interior-sharding discipline of
//! `agile_core::qos::WeightedFair`: per-tenant all-atomic cells behind an
//! append-only `RwLock` registry. That layout was built for N service
//! partitions updating it concurrently; the service scale-out is deleted and
//! the engine runs on one thread, so the roadmap's "collapse the per-tenant
//! atomics" decision queues turning them into plain cells.

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sentinel for "no owning tenant": unowned ways, and lookups arriving
/// through the untenanted legacy entry points (`preload`, bare-queue rigs).
/// The table never creates a cell for it.
pub const NO_TENANT: u32 = u32::MAX;

/// Snapshot of one tenant's cache accounting.
///
/// Note: the unified registry exports these as `agile_cache_tenant_*`
/// labelled by tenant; this struct stays for direct programmatic access.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantCacheStats {
    /// Tenant id.
    pub tenant: u32,
    /// Lookups served from a valid resident line.
    pub hits: u64,
    /// Lookups that had to reserve (or failed to reserve) a line.
    pub misses: u64,
    /// Lines reserved for a fill on this tenant's behalf.
    pub fills: u64,
    /// This tenant's lines evicted to make room for someone's fill.
    pub evictions: u64,
    /// Lines currently owned (live gauge, not monotone).
    pub occupancy: u64,
}

impl TenantCacheStats {
    /// Hit fraction over this tenant's lookups (0 when it made none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Default)]
struct TenantCells {
    hits: AtomicU64,
    misses: AtomicU64,
    fills: AtomicU64,
    evictions: AtomicU64,
    occupancy: AtomicU64,
}

/// Per-tenant cache counters, keyed by tenant id. Owned by the
/// [`crate::cache::SoftwareCache`] and shared (as an `Arc`) with any
/// tenant-aware replacement policy bound to it.
#[derive(Debug, Default)]
pub struct TenantTable {
    tenants: RwLock<BTreeMap<u32, Arc<TenantCells>>>,
}

impl TenantTable {
    /// An empty table.
    pub fn new() -> Self {
        TenantTable::default()
    }

    /// The cell of `tenant`, inserting it on first sight (the only
    /// write-lock acquisition on the hot paths). Callers must filter
    /// [`NO_TENANT`] before calling.
    fn cell(&self, tenant: u32) -> Arc<TenantCells> {
        debug_assert_ne!(tenant, NO_TENANT);
        if let Some(cell) = self.tenants.read().get(&tenant) {
            return Arc::clone(cell);
        }
        let mut tenants = self.tenants.write();
        Arc::clone(tenants.entry(tenant).or_default())
    }

    /// A lookup by `tenant` hit valid data.
    pub fn record_hit(&self, tenant: u32) {
        if tenant != NO_TENANT {
            self.cell(tenant).hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A lookup by `tenant` missed and reserved a line for a fill
    /// (miss + fill in one cell resolution — the set mutex is held across
    /// this call, so every map search saved matters).
    pub fn record_miss_fill(&self, tenant: u32) {
        if tenant != NO_TENANT {
            let cell = self.cell(tenant);
            cell.misses.fetch_add(1, Ordering::Relaxed);
            cell.fills.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A lookup by `tenant` missed, reserved a line, and acquired ownership
    /// of a previously-unowned way (miss + fill + occupancy in one cell
    /// resolution).
    pub fn record_miss_fill_occupy(&self, tenant: u32) {
        if tenant != NO_TENANT {
            let cell = self.cell(tenant);
            cell.misses.fetch_add(1, Ordering::Relaxed);
            cell.fills.fetch_add(1, Ordering::Relaxed);
            cell.occupancy.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `tenant` acquired ownership of one line.
    pub fn occupy(&self, tenant: u32) {
        if tenant != NO_TENANT {
            self.cell(tenant).occupancy.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `tenant` released ownership of one line (ownership transfer or
    /// reinstatement; saturating, so racy release orders cannot wrap).
    pub fn vacate(&self, tenant: u32) {
        if tenant != NO_TENANT {
            let _ = self.cell(tenant).occupancy.fetch_update(
                Ordering::AcqRel,
                Ordering::Acquire,
                |v| Some(v.saturating_sub(1)),
            );
        }
    }

    /// One of `tenant`'s lines was evicted: occupancy drops and the
    /// (monotone) eviction counter advances (one cell resolution).
    pub fn record_eviction(&self, tenant: u32) {
        if tenant != NO_TENANT {
            let cell = self.cell(tenant);
            cell.evictions.fetch_add(1, Ordering::Relaxed);
            let _ = cell
                .occupancy
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| {
                    Some(v.saturating_sub(1))
                });
        }
    }

    /// Current occupancy of `tenant` (0 when never seen).
    pub fn occupancy(&self, tenant: u32) -> u64 {
        if tenant == NO_TENANT {
            return 0;
        }
        self.tenants
            .read()
            .get(&tenant)
            .map(|c| c.occupancy.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Call `f` with a view of the live occupancies under one read lock, so
    /// a victim choice reads them without collecting anything.
    pub(crate) fn with_occupancies<R>(&self, f: impl FnOnce(&Occupancies<'_>) -> R) -> R {
        f(&Occupancies(&self.tenants.read()))
    }

    /// Snapshot of every tenant's counters, ordered by tenant id.
    pub fn snapshot(&self) -> Vec<TenantCacheStats> {
        self.tenants
            .read()
            .iter()
            .map(|(&tenant, c)| TenantCacheStats {
                tenant,
                hits: c.hits.load(Ordering::Relaxed),
                misses: c.misses.load(Ordering::Relaxed),
                fills: c.fills.load(Ordering::Relaxed),
                evictions: c.evictions.load(Ordering::Relaxed),
                occupancy: c.occupancy.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Sum of all tenants' occupancies (owned lines; unowned lines are not
    /// counted anywhere).
    pub fn total_occupancy(&self) -> u64 {
        self.tenants
            .read()
            .values()
            .map(|c| c.occupancy.load(Ordering::Relaxed))
            .sum()
    }
}

/// The tenants' live occupancies, read without allocating; see
/// [`TenantTable::with_occupancies`].
pub(crate) struct Occupancies<'a>(&'a BTreeMap<u32, Arc<TenantCells>>);

impl Occupancies<'_> {
    /// `(tenant, occupancy)` of every tenant holding lines, by tenant id.
    pub(crate) fn active(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.0.iter().filter_map(|(&t, c)| {
            let occ = c.occupancy.load(Ordering::Relaxed);
            (occ > 0).then_some((t, occ))
        })
    }

    /// Current occupancy of `tenant` (0 when never seen).
    pub(crate) fn of(&self, tenant: u32) -> u64 {
        self.0
            .get(&tenant)
            .map_or(0, |c| c.occupancy.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_tenant() {
        let t = TenantTable::new();
        t.record_hit(0);
        t.record_miss_fill_occupy(0);
        t.record_miss_fill_occupy(3);
        t.record_eviction(3);
        let snap = t.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(
            snap[0],
            TenantCacheStats {
                tenant: 0,
                hits: 1,
                misses: 1,
                fills: 1,
                evictions: 0,
                occupancy: 1,
            }
        );
        assert_eq!(snap[1].tenant, 3);
        assert_eq!(snap[1].evictions, 1);
        assert_eq!(snap[1].occupancy, 0, "eviction returns the line");
        assert_eq!(t.total_occupancy(), 1);
        assert!((snap[0].hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn miss_fill_skips_occupancy_for_ownership_transfers() {
        // The re-reserve path accounts occupancy through transfer_owner;
        // record_miss_fill must leave the gauge alone.
        let t = TenantTable::new();
        t.record_miss_fill(2);
        let snap = t.snapshot();
        assert_eq!(
            (snap[0].misses, snap[0].fills, snap[0].occupancy),
            (1, 1, 0)
        );
    }

    #[test]
    fn no_tenant_sentinel_is_never_tracked() {
        let t = TenantTable::new();
        t.record_hit(NO_TENANT);
        t.record_miss_fill(NO_TENANT);
        t.record_miss_fill_occupy(NO_TENANT);
        t.occupy(NO_TENANT);
        t.vacate(NO_TENANT);
        t.record_eviction(NO_TENANT);
        assert!(t.snapshot().is_empty());
        assert_eq!(t.occupancy(NO_TENANT), 0);
    }

    #[test]
    fn active_occupancies_skip_empty_tenants() {
        let t = TenantTable::new();
        t.occupy(1);
        t.occupy(1);
        t.occupy(2);
        t.vacate(2);
        let active: Vec<(u32, u64)> = t.with_occupancies(|view| view.active().collect());
        assert_eq!(active, vec![(1, 2)]);
    }

    #[test]
    fn vacate_saturates_at_zero() {
        let t = TenantTable::new();
        t.vacate(5);
        t.vacate(5);
        assert_eq!(t.occupancy(5), 0);
    }
}
