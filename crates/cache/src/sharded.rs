//! [`ShardedCache`]: an old name for the one [`SoftwareCache`] a controller
//! owns.
//!
//! The cache is one set-associative cache with a lock per set (paper §3.4).
//! This newtype over it stays only because the benchmark package, which is
//! built against the public API and changed on its own schedule, still
//! spells the type — `ShardedCache::new(cfg, 1, 0, …)` and the
//! `&ShardedCache` that `ctrl.cache()` returns. The roadmap's coordinated
//! change to the benchmark's spelling of the frozen API renames it away. It derefs to the cache, so
//! every method is [`SoftwareCache`]'s.

use crate::cache::{CacheConfig, SoftwareCache};
use crate::policy::CachePolicy;
use std::ops::Deref;

/// One [`SoftwareCache`] under its old name; see the module docs.
pub struct ShardedCache(SoftwareCache);

impl ShardedCache {
    /// [`SoftwareCache::new`] with the policy from `policy`, in the old
    /// four-argument spelling: `shards` must be 1 and `port_hold` 0.
    pub fn new(
        cfg: CacheConfig,
        shards: usize,
        port_hold: u64,
        policy: impl FnOnce() -> Box<dyn CachePolicy>,
    ) -> Self {
        assert!(
            shards == 1 && port_hold == 0,
            "the software cache is one cache: ShardedCache::new takes (1, 0)"
        );
        ShardedCache(SoftwareCache::new(cfg, policy()))
    }
}

impl From<SoftwareCache> for ShardedCache {
    fn from(cache: SoftwareCache) -> Self {
        ShardedCache(cache)
    }
}

impl Deref for ShardedCache {
    type Target = SoftwareCache;

    fn deref(&self) -> &SoftwareCache {
        &self.0
    }
}
