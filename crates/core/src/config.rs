//! AGILE system configuration.
//!
//! Collects everything the host-side code of Listing 1 configures before
//! starting the service: NVMe queue topology, software-cache geometry and
//! policy, Share Table, the number of service warps, and the cost model used
//! by the simulation substrate.

use agile_cache::CacheConfig;
use agile_sim::costs::CostModel;
use agile_sim::units::{GIB, MIB};
use serde::{Deserialize, Serialize};

/// Which built-in replacement policy the software cache uses.
///
/// The paper keeps the clock policy for its evaluation but makes the policy
/// pluggable; custom policies can be supplied directly to
/// [`crate::host::AgileHost::set_gpu_cache_policy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CachePolicyKind {
    /// Clock / second-chance (the paper's default).
    Clock,
    /// Least recently used.
    Lru,
    /// First in, first out.
    Fifo,
    /// Uniform random.
    Random,
    /// Tenant-aware weighted occupancy shares over an interior clock order
    /// ([`agile_cache::TenantShare`]); per-tenant weights come from
    /// [`AgileConfig::cache_shares`] (empty = equal shares).
    TenantShare,
}

/// Complete AGILE configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
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
    /// empty = equal shares). Ignored by the tenant-oblivious policies.
    pub cache_shares: Vec<u64>,
    /// Enable the Share Table (coherent user buffers, §3.4.1).
    pub share_table_enabled: bool,
    /// Maximum entries the Share Table tracks (0 = unbounded).
    pub share_table_capacity: usize,
    /// Warps dedicated to the AGILE service kernel.
    pub service_warps: u32,
    /// Derive each service partition's warp count from its CQ target count
    /// ([`crate::service::auto_service_warps`]) instead of the fixed
    /// `service_warps` geometry. Off by default (the paper's fixed geometry,
    /// bit-identical).
    pub auto_service_warps: bool,
    /// Thread blocks used by the service kernel (warps are split across them).
    pub service_blocks: u32,
    /// Enable the lock-chain deadlock-debug option (§3.5).
    pub debug_lock_chain: bool,
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
            share_table_enabled: true,
            share_table_capacity: 0,
            service_warps: 8,
            auto_service_warps: false,
            service_blocks: 2,
            debug_lock_chain: false,
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
            share_table_enabled: true,
            share_table_capacity: 0,
            service_warps: 2,
            auto_service_warps: false,
            service_blocks: 1,
            debug_lock_chain: false,
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

    /// Set the per-tenant cache-occupancy weights for
    /// [`CachePolicyKind::TenantShare`] (indexed by tenant id).
    pub fn with_cache_shares(mut self, shares: Vec<u64>) -> Self {
        self.cache_shares = shares;
        self
    }

    /// Enable or disable the Share Table.
    pub fn with_share_table(mut self, enabled: bool) -> Self {
        self.share_table_enabled = enabled;
        self
    }

    /// Enable the lock-chain deadlock detector.
    pub fn with_lock_chain_debug(mut self, enabled: bool) -> Self {
        self.debug_lock_chain = enabled;
        self
    }

    /// Override the number of service warps.
    pub fn with_service_warps(mut self, warps: u32) -> Self {
        self.service_warps = warps.max(1);
        self
    }

    /// Auto-size each service partition's warps from its CQ target count
    /// (see [`crate::service::auto_service_warps`]).
    pub fn with_auto_service_warps(mut self) -> Self {
        self.auto_service_warps = true;
        self
    }

    /// Override the cost model.
    pub fn with_costs(mut self, costs: CostModel) -> Self {
        self.costs = costs;
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
            .with_cache_policy(CachePolicyKind::Lru)
            .with_share_table(false)
            .with_lock_chain_debug(true)
            .with_service_warps(0);
        assert_eq!(c.queue_pairs_per_ssd, 2);
        assert_eq!(c.queue_depth, 32);
        assert_eq!(c.cache.capacity_bytes, MIB);
        assert_eq!(c.cache_policy, CachePolicyKind::Lru);
        assert!(!c.share_table_enabled);
        assert!(c.debug_lock_chain);
        assert_eq!(c.service_warps, 1, "service warps are clamped to ≥ 1");
    }

    #[test]
    fn default_is_paper_default() {
        assert_eq!(
            AgileConfig::default().queue_pairs_per_ssd,
            AgileConfig::paper_default().queue_pairs_per_ssd
        );
    }
}
