//! AGILE system configuration.
//!
//! Collects everything the host-side code of Listing 1 configures before
//! starting the service: NVMe queue topology, software-cache geometry and
//! policy, the number of service warps, and the cost model used by the
//! simulation substrate. The Share Table (§3.4.1) is always on and
//! unbounded.

use agile_cache::CacheConfig;
use agile_sim::costs::CostModel;
use agile_sim::units::{GIB, MIB};

/// Which built-in replacement policy the software cache uses.
///
/// The paper keeps the clock policy for its evaluation but makes the policy
/// pluggable; the tenant-aware share policy is the choice BaM's hard-coded
/// clock cannot make. Any other [`agile_cache::CachePolicy`] plugs in
/// through `SoftwareCache::new`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicyKind {
    /// Clock / second-chance (the paper's default).
    Clock,
    /// Tenant-aware weighted occupancy shares over an interior clock order
    /// ([`agile_cache::TenantShare`]); per-tenant weights come from
    /// [`AgileConfig::cache_shares`] (empty = equal shares).
    TenantShare,
}

/// Complete AGILE configuration.
#[derive(Debug, Clone)]
pub struct AgileConfig {
    /// I/O queue pairs created per SSD.
    pub queue_pairs_per_ssd: usize,
    /// Depth (entries) of each SQ/CQ.
    pub queue_depth: u32,
    /// Geometry of the software cache: one set-associative cache with a
    /// lock per set (§3.4).
    pub cache: CacheConfig,
    /// Replacement policy.
    pub cache_policy: CachePolicyKind,
    /// Per-tenant cache-occupancy weights, indexed by tenant id, consumed by
    /// [`CachePolicyKind::TenantShare`] (tenants beyond the slice weigh 1;
    /// empty = equal shares). Ignored by the clock.
    pub cache_shares: Vec<u64>,
    /// Warps dedicated to the AGILE service kernel.
    pub service_warps: u32,
    /// Thread blocks used by the service kernel (warps are split across them).
    pub service_blocks: u32,
    /// The cost model shared by all simulators.
    pub costs: CostModel,
}

impl AgileConfig {
    /// The paper's default evaluation configuration: 128 queue pairs of depth
    /// 256 per SSD and a 2 GiB clock-managed software cache (§4.4).
    pub fn paper_default() -> Self {
        AgileConfig {
            queue_pairs_per_ssd: 128,
            queue_depth: 256,
            cache: CacheConfig::with_capacity(2 * GIB),
            cache_policy: CachePolicyKind::Clock,
            cache_shares: Vec::new(),
            service_warps: 8,
            service_blocks: 2,
            costs: CostModel::default(),
        }
    }

    /// A small configuration for unit tests: 4 queue pairs of depth 64 per
    /// SSD and a 4 MiB cache.
    pub fn small_test() -> Self {
        AgileConfig {
            queue_pairs_per_ssd: 4,
            queue_depth: 64,
            cache: CacheConfig::with_capacity(4 * MIB),
            cache_policy: CachePolicyKind::Clock,
            cache_shares: Vec::new(),
            service_warps: 2,
            service_blocks: 1,
            costs: CostModel::default(),
        }
    }

    /// Override the number of queue pairs per SSD.
    pub fn with_queue_pairs(mut self, qps: usize) -> Self {
        self.queue_pairs_per_ssd = qps;
        self
    }

    /// Override the queue depth.
    pub fn with_queue_depth(mut self, depth: u32) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Override the software cache capacity in bytes.
    pub fn with_cache_bytes(mut self, bytes: u64) -> Self {
        self.cache = CacheConfig::with_capacity(bytes);
        self
    }

    /// Select a built-in cache policy.
    pub fn with_cache_policy(mut self, policy: CachePolicyKind) -> Self {
        self.cache_policy = policy;
        self
    }
}

impl Default for AgileConfig {
    fn default() -> Self {
        AgileConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_4_4() {
        let c = AgileConfig::paper_default();
        assert_eq!(c.queue_pairs_per_ssd, 128);
        assert_eq!(c.queue_depth, 256);
        assert_eq!(c.cache.capacity_bytes, 2 * GIB);
        assert_eq!(c.cache_policy, CachePolicyKind::Clock);
    }

    #[test]
    fn builders_compose() {
        let c = AgileConfig::small_test()
            .with_queue_pairs(2)
            .with_queue_depth(32)
            .with_cache_bytes(MIB)
            .with_cache_policy(CachePolicyKind::TenantShare);
        assert_eq!(c.queue_pairs_per_ssd, 2);
        assert_eq!(c.queue_depth, 32);
        assert_eq!(c.cache.capacity_bytes, MIB);
        assert_eq!(c.cache_policy, CachePolicyKind::TenantShare);
    }

    #[test]
    fn default_is_paper_default() {
        assert_eq!(
            AgileConfig::default().queue_pairs_per_ssd,
            AgileConfig::paper_default().queue_pairs_per_ssd
        );
    }
}
