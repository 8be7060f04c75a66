//! Replacement policies.
//!
//! The paper makes cache-policy flexibility a headline feature: BaM hard-codes
//! one policy, AGILE lets applications plug in their own (§3.4, §3.5 use the
//! clock policy for the DLRM evaluation). The [`CachePolicy`] trait is the
//! Rust analogue of the paper's CRTP-based `GPUCacheBase<Impl>` hook: the
//! cache calls the policy on every access/fill and asks it to pick a victim
//! among the evictable ways of a set.
//!
//! Two built-in policies are provided: [`ClockPolicy`] (the paper's default,
//! second-chance) and the tenant-aware [`TenantShare`], a choice BaM's
//! hard-coded clock cannot express. The clock keeps a reference byte per way
//! and, after a set's ways, the set's hand byte, moved under the cache's set
//! lock (a victim choice reads one run of bytes). It ignores the per-way
//! owner view entirely, so its victim choices are bit-identical to the
//! pre-tenant-threading stack (asserted by the golden-trace suite).
//!
//! A victim choice allocates nothing: the evictable ways arrive as a bitmask
//! (a set has at most [`MAX_ASSOCIATIVITY`] ways) and the owners as the set's
//! slice of the cache's per-line owner array.

use crate::tenant::{weighted_share, TenantTable, NO_TENANT};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU8, Ordering};
use std::sync::Arc;

/// Most ways a set may have: [`CachePolicy::choose_victim`] takes the
/// evictable ways as the bits of a `u64`.
pub const MAX_ASSOCIATIVITY: usize = 64;

/// The ways named by the set bits of `mask`, lowest first.
fn ways(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let way = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            way
        })
    })
}

/// Largest share weight an online update may install — the same bound the
/// QoS layer's online weights use, keeping the `lines × weight` product
/// (computed in u128 on the victim path) far from overflow.
pub const MAX_ONLINE_SHARE: u64 = 1 << 32;

/// Why an online share-weight update was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShareError {
    /// A zero weight was requested. Constructors clamp zero to 1, but an
    /// *online* update to zero is a controller bug — it could zero the
    /// active-weight denominator — so the update path refuses it.
    Zero,
    /// The policy keeps no per-tenant shares (clock).
    Unsupported,
}

impl std::fmt::Display for ShareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShareError::Zero => write!(f, "zero share weight rejected"),
            ShareError::Unsupported => write!(f, "policy does not support online shares"),
        }
    }
}

impl std::error::Error for ShareError {}

/// A pluggable replacement policy.
///
/// `set` and `way` identify the slot: the cache guarantees `way <
/// associativity` and `set < num_sets` (both fixed at construction through
/// [`CachePolicy::configure`]).
pub trait CachePolicy: Send + Sync {
    /// Called once by the cache with its geometry before use.
    fn configure(&mut self, num_sets: usize, associativity: usize);

    /// Called once by the cache after [`CachePolicy::configure`] with the
    /// shared per-tenant accounting table. Tenant-aware policies keep the
    /// `Arc` and read live occupancies from it; the default implementation
    /// drops it (tenant-oblivious policies need no view).
    fn bind_tenants(&mut self, tenants: Arc<TenantTable>) {
        let _ = tenants;
    }

    /// A hit on `(set, way)` was served.
    fn on_access(&self, set: usize, way: usize);

    /// `(set, way)` was (re)filled with new contents.
    fn on_fill(&self, set: usize, way: usize);

    /// Choose a victim among the ways of `set` whose bit is set in
    /// `evictable` (bit `w` for way `w`). `owners[way]` is the tenant
    /// currently owning the way's line ([`NO_TENANT`] for unowned ways),
    /// read under the set lock the cache holds; tenant-oblivious policies
    /// ignore it. Returns `None` when no way is evictable (all pinned or
    /// busy); the cache then reports `NoLineAvailable` and the caller
    /// retries, which is AGILE's answer to the eviction-deadlock scenario of
    /// §2.3.2.
    fn choose_victim(&self, set: usize, evictable: u64, owners: &[AtomicU32]) -> Option<usize>;

    /// Online share-weight update for `tenant` (the control plane's
    /// actuator). Returns the weight actually installed — values above
    /// [`MAX_ONLINE_SHARE`] are clamped to it — or [`ShareError::Zero`] for
    /// zero weights and [`ShareError::Unsupported`] (the default) for
    /// tenant-oblivious policies.
    fn set_share(&self, _tenant: u32, _weight: u64) -> Result<u64, ShareError> {
        Err(ShareError::Unsupported)
    }

    /// Current share weight of `tenant`; `None` when the policy keeps no
    /// shares or uses its default weight for the tenant.
    fn share(&self, _tenant: u32) -> Option<u64> {
        None
    }
}

/// The clock (second-chance) policy used by the paper's DLRM evaluation.
pub struct ClockPolicy {
    assoc: usize,
    /// `assoc + 1` bytes per set: a reference bit per way, a byte each, then
    /// the set's hand — the way it points at next (below
    /// [`MAX_ASSOCIATIVITY`], so a byte holds it).
    state: Box<[AtomicU8]>,
}

impl ClockPolicy {
    /// An unconfigured clock policy (the cache will call `configure`).
    pub fn new() -> Self {
        ClockPolicy {
            assoc: 0,
            state: Box::default(),
        }
    }

    /// The reference bits of `set`'s ways and its hand.
    fn set_state(&self, set: usize) -> (&[AtomicU8], &AtomicU8) {
        let start = set * (self.assoc + 1);
        let (bits, hand) = self.state[start..=start + self.assoc].split_at(self.assoc);
        (bits, &hand[0])
    }
}

impl Default for ClockPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl CachePolicy for ClockPolicy {
    fn configure(&mut self, num_sets: usize, associativity: usize) {
        self.assoc = associativity;
        self.state = (0..num_sets * (associativity + 1))
            .map(|_| AtomicU8::new(0))
            .collect();
    }
    fn on_access(&self, set: usize, way: usize) {
        self.set_state(set).0[way].store(1, Ordering::Relaxed);
    }
    fn on_fill(&self, set: usize, way: usize) {
        self.set_state(set).0[way].store(1, Ordering::Relaxed);
    }
    fn choose_victim(&self, set: usize, evictable: u64, _owners: &[AtomicU32]) -> Option<usize> {
        if evictable == 0 {
            return None;
        }
        let (bits, hand) = self.set_state(set);
        // Two sweeps: the first clears reference bits, the second is
        // guaranteed to find an evictable way with a cleared bit. The cache
        // calls under the set lock, so reading the hand and moving it on
        // need not be one atomic step.
        for _ in 0..(2 * self.assoc) {
            let pos = hand.load(Ordering::Relaxed) as usize;
            hand.store(((pos + 1) % self.assoc) as u8, Ordering::Relaxed);
            if evictable >> pos & 1 == 0 {
                continue;
            }
            if bits[pos].swap(0, Ordering::Relaxed) == 0 {
                return Some(pos);
            }
        }
        // Fall back to the first evictable way (all bits were set repeatedly
        // by concurrent hits).
        ways(evictable).next()
    }
}

/// Tenant-aware eviction: bound each tenant's occupancy to a weighted share
/// of the cache, preferring to evict lines of tenants that are **over**
/// their quota.
///
/// A tenant's quota is its weighted fraction of the total line count,
/// computed over the tenants *currently holding lines* by
/// [`weighted_share`].
/// On eviction the policy first restricts the candidate ways to those owned
/// by over-quota tenants and picks among them with an interior clock
/// (second-chance) order; when no over-quota line is evictable it falls back
/// to the plain clock choice over every evictable way — so a tenant alone in
/// the cache (or sharing it with idle tenants) still uses the whole
/// capacity: the policy is **work-conserving**, exactly like the raw-path
/// `WeightedFair` SQ scheduler it mirrors.
///
/// Among the over-quota candidates, lines read since their fill go before
/// lines filled and not read yet (a prefetch, or a fill whose reader has not
/// polled since it landed). An over-quota tenant mostly reclaims its own
/// lines, and evicting one it has not read yet wastes that line's fetch: the
/// read that follows fetches it again. Only when every over-quota candidate
/// is unread does the policy take one of those.
///
/// The live occupancy gauge comes from the cache's [`TenantTable`], bound at
/// construction through [`CachePolicy::bind_tenants`]. Quota enforcement is
/// eviction-side only: fills are never blocked (a fill is system traffic —
/// deferring it would violate the QoS-exemption invariant), so a burst can
/// transiently exceed its share and is then preferentially reclaimed.
pub struct TenantShare {
    /// Interior recency order (second-chance) shared by the filtered and the
    /// fallback victim choice.
    inner: ClockPolicy,
    /// Explicit per-tenant weights; tenants not listed get weight 1. Behind
    /// a lock because the control plane retunes them through `&self`
    /// ([`CachePolicy::set_share`]).
    weights: Mutex<BTreeMap<u32, u64>>,
    /// Total lines quotas are computed over: the cache's sets ×
    /// associativity, from `configure`.
    total_lines: u64,
    /// Live per-tenant occupancy view, bound by the owning cache.
    tenants: Option<Arc<TenantTable>>,
    /// Per line (`set × associativity + way`): filled and not accessed
    /// since. Set by `on_fill`, cleared by `on_access`, under the set lock.
    unread: Box<[AtomicBool]>,
}

impl TenantShare {
    /// Equal-weight shares.
    pub fn new() -> Self {
        TenantShare {
            inner: ClockPolicy::new(),
            weights: Mutex::new(BTreeMap::new()),
            total_lines: 0,
            tenants: None,
            unread: Box::default(),
        }
    }

    /// Shares from explicit weights indexed by tenant id (tenants beyond the
    /// slice fall back to weight 1; zero weights are clamped to 1).
    pub fn from_weights(weights: &[u64]) -> Self {
        let mut policy = TenantShare::new();
        for (tenant, &w) in weights.iter().enumerate() {
            policy = policy.with_weight(tenant as u32, w);
        }
        policy
    }

    /// Override one tenant's weight (builder-style).
    pub fn with_weight(mut self, tenant: u32, weight: u64) -> Self {
        self.weights.get_mut().insert(tenant, weight.max(1));
        self
    }
}

impl Default for TenantShare {
    fn default() -> Self {
        TenantShare::new()
    }
}

impl CachePolicy for TenantShare {
    fn configure(&mut self, num_sets: usize, associativity: usize) {
        self.inner.configure(num_sets, associativity);
        self.total_lines = (num_sets * associativity) as u64;
        self.unread = (0..num_sets * associativity)
            .map(|_| AtomicBool::new(false))
            .collect();
    }
    fn bind_tenants(&mut self, tenants: Arc<TenantTable>) {
        self.tenants = Some(tenants);
    }
    fn on_access(&self, set: usize, way: usize) {
        self.inner.on_access(set, way);
        self.unread[set * self.inner.assoc + way].store(false, Ordering::Relaxed);
    }
    fn on_fill(&self, set: usize, way: usize) {
        self.inner.on_fill(set, way);
        self.unread[set * self.inner.assoc + way].store(true, Ordering::Relaxed);
    }
    fn choose_victim(&self, set: usize, evictable: u64, owners: &[AtomicU32]) -> Option<usize> {
        let Some(table) = &self.tenants else {
            // No occupancy view bound (bare policy rigs): plain clock.
            return self.inner.choose_victim(set, evictable, owners);
        };
        // Candidate ways owned by a tenant over its weighted share.
        let over_quota = table.with_occupancies(|occupancies| {
            let weights = self.weights.lock();
            let weight_of = |tenant| weights.get(&tenant).copied().unwrap_or(1);
            let active_weight: u64 = occupancies.active().map(|(t, _)| weight_of(t)).sum();
            if active_weight == 0 {
                return 0;
            }
            let over = |tenant: u32| {
                tenant != NO_TENANT
                    && occupancies.of(tenant)
                        > weighted_share(self.total_lines, weight_of(tenant), active_weight)
            };
            ways(evictable)
                .filter(|&way| over(owners[way].load(Ordering::Relaxed)))
                .fold(0u64, |mask, way| mask | 1 << way)
        });
        // Of those, the lines read since their fill first.
        let assoc = self.inner.assoc;
        let unread = &self.unread[set * assoc..(set + 1) * assoc];
        let read = ways(over_quota)
            .filter(|&way| !unread[way].load(Ordering::Relaxed))
            .fold(0u64, |mask, way| mask | 1 << way);
        for candidates in [read, over_quota] {
            if candidates != 0 {
                if let Some(victim) = self.inner.choose_victim(set, candidates, owners) {
                    return Some(victim);
                }
            }
        }
        // Work-conserving fallback: nobody (evictable) is over quota.
        self.inner.choose_victim(set, evictable, owners)
    }

    /// Rebind `tenant`'s occupancy share online; the next victim choice
    /// sees it.
    fn set_share(&self, tenant: u32, weight: u64) -> Result<u64, ShareError> {
        if weight == 0 {
            return Err(ShareError::Zero);
        }
        let applied = weight.min(MAX_ONLINE_SHARE);
        self.weights.lock().insert(tenant, applied);
        Ok(applied)
    }

    fn share(&self, tenant: u32) -> Option<u64> {
        self.weights.lock().get(&tenant).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn configured<P: CachePolicy>(mut p: P) -> P {
        p.configure(4, 4);
        p
    }

    /// Owner view of a set whose way `w` is owned by `tenants[w]`.
    fn owned(tenants: &[u32]) -> Vec<AtomicU32> {
        tenants.iter().map(|&t| AtomicU32::new(t)).collect()
    }

    /// Owner view of an all-unowned set.
    fn unowned(n: usize) -> Vec<AtomicU32> {
        owned(&vec![NO_TENANT; n])
    }

    #[test]
    fn clock_gives_second_chances() {
        let p = configured(ClockPolicy::new());
        for w in 0..4 {
            p.on_fill(0, w);
        }
        // Way 1 is hot (recently accessed every time); others decay.
        p.on_access(0, 1);
        let evictable = 0b1111;
        let v1 = p.choose_victim(0, evictable, &unowned(4)).unwrap();
        assert_ne!(v1, 1, "hot way should survive the first sweep");
    }

    #[test]
    fn the_clock_hand_keeps_a_counters_order_past_256_steps() {
        // The hand is a position, not a free-running counter: a byte-wide
        // counter would wrap at 256 and skew the order of an associativity
        // that does not divide 256. The reference is the clock over a u32
        // counter taken modulo the associativity.
        for assoc in [3, 5, 8, 64] {
            let mut p = ClockPolicy::new();
            p.configure(1, assoc);
            let owners = unowned(assoc);
            let (mut counter, mut bits) = (0u32, vec![false; assoc]);
            for step in 0..2_000usize {
                let hot = step * 7 % assoc;
                p.on_access(0, hot);
                bits[hot] = true;
                let evictable = u64::MAX >> (64 - assoc) & !(1 << (step % assoc));
                let mut expected = None;
                for _ in 0..2 * assoc {
                    let pos = counter as usize % assoc;
                    counter += 1;
                    if evictable >> pos & 1 == 1 && !std::mem::take(&mut bits[pos]) {
                        expected = Some(pos);
                        break;
                    }
                }
                let expected = expected.or(ways(evictable).next());
                assert_eq!(
                    p.choose_victim(0, evictable, &owners),
                    expected,
                    "{assoc}-way, step {step}"
                );
            }
        }
    }

    #[test]
    fn ways_lists_the_set_bits_lowest_first() {
        assert_eq!(ways(0).count(), 0);
        assert_eq!(ways(0b1010_0110).collect::<Vec<_>>(), [1, 2, 5, 7]);
        assert_eq!(ways(1 << 63).collect::<Vec<_>>(), [63]);
    }

    #[test]
    fn all_policies_return_none_when_nothing_evictable() {
        let none = 0;
        let owners = unowned(4);
        assert_eq!(
            configured(ClockPolicy::new()).choose_victim(0, none, &owners),
            None
        );
        assert_eq!(
            configured(TenantShare::new()).choose_victim(0, none, &owners),
            None
        );
    }

    #[test]
    fn policies_respect_partial_evictability() {
        let p = configured(ClockPolicy::new());
        for w in 0..4 {
            p.on_fill(1, w);
        }
        // The hand starts at way 0, which is not evictable: the first sweep
        // skips it and clears 1..3, the second takes way 1.
        let evictable = 0b1110;
        assert_eq!(p.choose_victim(1, evictable, &unowned(4)), Some(1));
        for _ in 0..8 {
            assert_ne!(p.choose_victim(1, evictable, &unowned(4)), Some(0));
        }
    }

    /// A TenantShare over 16 lines with a bound occupancy table.
    fn tenant_share_with(table: &Arc<TenantTable>, weights: &[u64]) -> TenantShare {
        let mut p = TenantShare::from_weights(weights);
        p.configure(4, 4);
        p.bind_tenants(Arc::clone(table));
        p
    }

    #[test]
    fn tenant_share_prefers_over_quota_owners() {
        let table = Arc::new(TenantTable::new());
        // Tenant 0 hogs 12 of 16 lines; tenant 1 holds 4. Equal weights ⇒
        // shares of 8 each: tenant 0 is over quota, tenant 1 is not.
        for _ in 0..12 {
            table.occupy(0);
        }
        for _ in 0..4 {
            table.occupy(1);
        }
        let p = tenant_share_with(&table, &[1, 1]);
        let evictable = 0b1111;
        // Ways 0/2 owned by the hog, 1 by the victim, 3 unowned.
        let owners = owned(&[0, 1, 0, NO_TENANT]);
        for _ in 0..20 {
            let v = p.choose_victim(0, evictable, &owners).unwrap();
            assert!(
                v == 0 || v == 2,
                "victim must be one of the over-quota tenant's ways, got {v}"
            );
        }
    }

    #[test]
    fn tenant_share_reclaims_read_lines_before_unread_ones() {
        let table = Arc::new(TenantTable::new());
        // Tenant 0 holds 12 of 16 lines: over its share of 8.
        for _ in 0..12 {
            table.occupy(0);
        }
        for _ in 0..4 {
            table.occupy(1);
        }
        let p = tenant_share_with(&table, &[1, 1]);
        let owners = owned(&[0, 0, 0, 1]);
        for way in 0..4 {
            p.on_fill(0, way);
        }
        // Only way 1 of the hog's lines was read since its fill.
        p.on_access(0, 1);
        for _ in 0..4 {
            assert_eq!(p.choose_victim(0, 0b1111, &owners), Some(1));
        }
        // Once every over-quota line is unread, one of them goes anyway,
        // and never the protected tenant's.
        p.on_fill(0, 1);
        for _ in 0..8 {
            let v = p.choose_victim(0, 0b1111, &owners).unwrap();
            assert!(v < 3, "an over-quota line, got {v}");
        }
    }

    #[test]
    fn tenant_share_is_work_conserving_when_nobody_is_over_quota() {
        let table = Arc::new(TenantTable::new());
        // A lone tenant filling the whole cache is never over its share
        // (share = all 16 lines), so eviction falls back to plain clock.
        for _ in 0..16 {
            table.occupy(7);
        }
        let p = tenant_share_with(&table, &[]);
        let evictable = 0b1111;
        let owners = owned(&[7; 4]);
        assert!(p.choose_victim(0, evictable, &owners).is_some());
    }

    #[test]
    fn tenant_share_weights_skew_the_quota() {
        let table = Arc::new(TenantTable::new());
        // 3:1 weights over 16 lines ⇒ shares 12 and 4. Tenant 1 holding 6
        // is over quota even though tenant 0 holds more lines (10 < 12).
        for _ in 0..10 {
            table.occupy(0);
        }
        for _ in 0..6 {
            table.occupy(1);
        }
        let p = tenant_share_with(&table, &[3, 1]);
        let evictable = 0b1111;
        let owners = owned(&[0, 1, 0, 1]);
        for _ in 0..20 {
            let v = p.choose_victim(0, evictable, &owners).unwrap();
            assert!(v == 1 || v == 3, "only tenant 1 is over its share, got {v}");
        }
    }

    #[test]
    fn tenant_share_online_share_update_flips_the_quota() {
        let table = Arc::new(TenantTable::new());
        // 10 vs 6 lines under equal weights (shares 8/8): tenant 0 over.
        for _ in 0..10 {
            table.occupy(0);
        }
        for _ in 0..6 {
            table.occupy(1);
        }
        let p = tenant_share_with(&table, &[1, 1]);
        let evictable = 0b1111;
        let owners = owned(&[0, 1, 0, 1]);
        let v = p.choose_victim(0, evictable, &owners).unwrap();
        assert!(v == 0 || v == 2, "tenant 0 starts over quota");
        // Retune online to 3:1 (shares 12/4): now tenant 1 is the one over.
        assert_eq!(p.set_share(0, 3), Ok(3));
        assert_eq!(p.share(0), Some(3));
        for _ in 0..20 {
            let v = p.choose_victim(0, evictable, &owners).unwrap();
            assert!(v == 1 || v == 3, "after the retune only tenant 1 is over");
        }
    }

    #[test]
    fn share_updates_reject_zero_and_clamp_overflow() {
        let p = TenantShare::from_weights(&[2]);
        assert_eq!(p.set_share(0, 0), Err(ShareError::Zero));
        assert_eq!(p.share(0), Some(2), "rejected update must not apply");
        assert_eq!(p.set_share(0, u64::MAX), Ok(MAX_ONLINE_SHARE));
        assert_eq!(p.share(0), Some(MAX_ONLINE_SHARE));
        // Tenant-oblivious policies refuse online shares.
        assert_eq!(
            configured(ClockPolicy::new()).set_share(0, 2),
            Err(ShareError::Unsupported)
        );
        assert_eq!(configured(ClockPolicy::new()).share(0), None);
    }

    #[test]
    fn tenant_share_respects_evictability_within_the_preference() {
        let table = Arc::new(TenantTable::new());
        for _ in 0..16 {
            table.occupy(0);
        }
        table.occupy(1);
        let p = tenant_share_with(&table, &[1, 1]);
        // The over-quota tenant's only way is pinned: fall back to the
        // evictable rest instead of returning None.
        let evictable = 0b1110;
        let owners = owned(&[0, 1, 1, NO_TENANT]);
        let v = p.choose_victim(0, evictable, &owners).unwrap();
        assert_ne!(v, 0, "pinned way must never be chosen");
    }
}
