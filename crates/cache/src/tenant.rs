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
//! The table keeps plain per-tenant records under one lock. The engine drives
//! the cache from one host thread, so the lock is never contended; it is
//! there because the cache and a tenant-aware policy share the table through
//! an `Arc` and update it through `&self`.

use parking_lot::Mutex;
use std::collections::BTreeMap;

/// Sentinel for "no owning tenant": unowned ways, and lookups arriving
/// through the untenanted legacy entry points (`preload`, bare-queue rigs).
/// The table never creates a record for it.
pub const NO_TENANT: u32 = u32::MAX;

/// A tenant's weighted share of `capacity` units (SQ slots, cache lines):
/// `max(1, capacity × weight / active_weight)`, the product taken in u128,
/// where `active_weight` (nonzero) sums the weights of the tenants currently
/// competing. The one share rule of `agile_core::qos::WeightedFair` and
/// [`TenantShare`](crate::policy::TenantShare).
pub fn weighted_share(capacity: u64, weight: u64, active_weight: u64) -> u64 {
    ((capacity as u128 * weight as u128) / active_weight as u128).max(1) as u64
}

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

/// Per-tenant cache counters, keyed by tenant id. Owned by the
/// [`crate::cache::SoftwareCache`] and shared (as an `Arc`) with any
/// tenant-aware replacement policy bound to it.
#[derive(Debug, Default)]
pub struct TenantTable {
    tenants: Mutex<BTreeMap<u32, TenantCacheStats>>,
}

impl TenantTable {
    /// An empty table.
    pub fn new() -> Self {
        TenantTable::default()
    }

    /// Apply `f` to `tenant`'s record, inserting it on first sight; nothing
    /// is recorded for [`NO_TENANT`].
    fn update(&self, tenant: u32, f: impl FnOnce(&mut TenantCacheStats)) {
        if tenant != NO_TENANT {
            f(self
                .tenants
                .lock()
                .entry(tenant)
                .or_insert_with(|| TenantCacheStats {
                    tenant,
                    ..TenantCacheStats::default()
                }));
        }
    }

    /// A lookup by `tenant` hit valid data.
    pub fn record_hit(&self, tenant: u32) {
        self.update(tenant, |c| c.hits += 1);
    }

    /// A lookup by `tenant` missed and reserved a line for a fill.
    pub fn record_miss_fill(&self, tenant: u32) {
        self.update(tenant, |c| {
            c.misses += 1;
            c.fills += 1;
        });
    }

    /// A lookup by `tenant` missed, reserved a line, and acquired ownership
    /// of a previously-unowned way.
    pub fn record_miss_fill_occupy(&self, tenant: u32) {
        self.update(tenant, |c| {
            c.misses += 1;
            c.fills += 1;
            c.occupancy += 1;
        });
    }

    /// `tenant` acquired ownership of one line.
    pub fn occupy(&self, tenant: u32) {
        self.update(tenant, |c| c.occupancy += 1);
    }

    /// `tenant` released ownership of one line (ownership transfer or
    /// reinstatement; saturating at zero).
    pub fn vacate(&self, tenant: u32) {
        self.update(tenant, |c| c.occupancy = c.occupancy.saturating_sub(1));
    }

    /// One of `tenant`'s lines was evicted: occupancy drops (saturating at
    /// zero) and the monotone eviction counter advances.
    pub fn record_eviction(&self, tenant: u32) {
        self.update(tenant, |c| {
            c.evictions += 1;
            c.occupancy = c.occupancy.saturating_sub(1);
        });
    }

    /// Current occupancy of `tenant` (0 when never seen).
    pub fn occupancy(&self, tenant: u32) -> u64 {
        self.tenants.lock().get(&tenant).map_or(0, |c| c.occupancy)
    }

    /// Call `f` with a view of the live occupancies under the table's lock,
    /// so a victim choice reads them without collecting anything. `f` must
    /// not call back into the table: the lock is not re-entrant.
    pub(crate) fn with_occupancies<R>(&self, f: impl FnOnce(&Occupancies<'_>) -> R) -> R {
        f(&Occupancies(&self.tenants.lock()))
    }

    /// Snapshot of every tenant's counters, ordered by tenant id.
    pub fn snapshot(&self) -> Vec<TenantCacheStats> {
        self.tenants.lock().values().cloned().collect()
    }

    /// Sum of all tenants' occupancies (owned lines; unowned lines are not
    /// counted anywhere).
    pub fn total_occupancy(&self) -> u64 {
        self.tenants.lock().values().map(|c| c.occupancy).sum()
    }
}

/// The tenants' live occupancies, read without allocating; see
/// [`TenantTable::with_occupancies`].
pub(crate) struct Occupancies<'a>(&'a BTreeMap<u32, TenantCacheStats>);

impl Occupancies<'_> {
    /// `(tenant, occupancy)` of every tenant holding lines, by tenant id.
    pub(crate) fn active(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.0
            .iter()
            .filter(|(_, c)| c.occupancy > 0)
            .map(|(&t, c)| (t, c.occupancy))
    }

    /// Current occupancy of `tenant` (0 when never seen).
    pub(crate) fn of(&self, tenant: u32) -> u64 {
        self.0.get(&tenant).map_or(0, |c| c.occupancy)
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

    /// A scripted sequence whose snapshot was recorded on the atomic-cell
    /// implementation this one replaced: every call inserts its tenant on
    /// first sight, and occupancy never wraps below zero.
    #[test]
    fn scripted_sequence_keeps_its_pinned_snapshot() {
        let t = TenantTable::new();
        t.record_hit(0);
        for _ in 0..3 {
            t.record_miss_fill_occupy(0);
        }
        t.record_miss_fill(1);
        t.occupy(1);
        t.vacate(2);
        t.record_eviction(3);
        t.record_eviction(0);
        t.vacate(1);
        t.vacate(1);
        t.record_eviction(1);
        t.occupy(4);
        t.occupy(4);
        t.record_hit(NO_TENANT);
        t.record_eviction(NO_TENANT);
        let row = |tenant, hits, misses, fills, evictions, occupancy| TenantCacheStats {
            tenant,
            hits,
            misses,
            fills,
            evictions,
            occupancy,
        };
        assert_eq!(
            t.snapshot(),
            vec![
                row(0, 1, 3, 3, 1, 2),
                row(1, 0, 1, 1, 1, 0),
                row(2, 0, 0, 0, 0, 0),
                row(3, 0, 0, 0, 1, 0),
                row(4, 0, 0, 0, 0, 2),
            ]
        );
        assert_eq!(t.total_occupancy(), 4);
        let active: Vec<(u32, u64)> = t.with_occupancies(|view| view.active().collect());
        assert_eq!(active, vec![(0, 2), (4, 2)]);
    }

    #[test]
    fn vacate_saturates_at_zero() {
        let t = TenantTable::new();
        t.vacate(5);
        t.vacate(5);
        assert_eq!(t.occupancy(5), 0);
    }
}
