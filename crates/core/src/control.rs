//! Adapters wiring the [`agile_control`] control plane onto this crate's
//! knobs.
//!
//! `agile-control` deliberately knows nothing about QoS policies or the
//! software cache: its controller actuates through the [`TenantWeights`]
//! trait and raw atomic cells. This module supplies the concrete adapters —
//! [`QosWeights`] over [`QosPolicy::set_weight`] and [`CacheShares`] over
//! the cache's tenant-share table — plus [`knob_set`], which assembles the
//! full AGILE [`KnobSet`] (prefetch depth, idle backoff, WFQ weights, cache
//! shares) from a controller.

use crate::ctrl::AgileCtrl;
use crate::qos::QosPolicy;
use agile_control::{KnobSet, TenantWeights};
use agile_sim::WeightError;
use std::sync::Arc;

/// A [`QosPolicy`]'s online weight surface as [`TenantWeights`].
pub struct QosWeights {
    policy: Arc<dyn QosPolicy>,
}

impl QosWeights {
    /// Adapt `policy` (typically the installed `WeightedFair`).
    pub fn new(policy: Arc<dyn QosPolicy>) -> Arc<Self> {
        Arc::new(QosWeights { policy })
    }
}

impl TenantWeights for QosWeights {
    fn set_weight(&self, tenant: u32, weight: u64) -> Result<u64, WeightError> {
        self.policy.set_weight(tenant, weight)
    }
    fn weight(&self, tenant: u32) -> Option<u64> {
        self.policy.weight(tenant)
    }
}

/// A controller's software-cache tenant shares as [`TenantWeights`].
pub struct CacheShares {
    ctrl: Arc<AgileCtrl>,
}

impl CacheShares {
    /// Adapt `ctrl`'s cache (online-mutable only under `TenantShare`).
    pub fn new(ctrl: Arc<AgileCtrl>) -> Arc<Self> {
        Arc::new(CacheShares { ctrl })
    }
}

impl TenantWeights for CacheShares {
    fn set_weight(&self, tenant: u32, weight: u64) -> Result<u64, WeightError> {
        self.ctrl.cache().set_tenant_share(tenant, weight)
    }
    fn weight(&self, tenant: u32) -> Option<u64> {
        self.ctrl.cache().tenant_share(tenant)
    }
}

/// The full AGILE knob set for `ctrl`: the prefetch-depth and idle-backoff
/// cells always, the WFQ weight table when a QoS policy is installed, and
/// the cache-share table always (updates simply return `Unsupported` under
/// non-share policies, which the controller treats as a dormant knob).
pub fn knob_set(ctrl: &Arc<AgileCtrl>) -> KnobSet {
    KnobSet {
        prefetch_depth: Some(ctrl.prefetch_depth_cell()),
        idle_backoff: Some(ctrl.idle_backoff_cell()),
        wfq: ctrl
            .io()
            .qos_policy()
            .map(|p| QosWeights::new(Arc::clone(p)) as Arc<dyn TenantWeights>),
        cache_shares: Some(CacheShares::new(Arc::clone(ctrl)) as Arc<dyn TenantWeights>),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AgileConfig;
    use crate::qos::WeightedFair;
    use nvme_sim::QueuePair;

    fn test_ctrl() -> Arc<AgileCtrl> {
        let cfg = AgileConfig::small_test();
        let qps = cfg.queue_pairs_per_ssd;
        let depth = cfg.queue_depth;
        let queues = vec![(0..qps)
            .map(|q| QueuePair::new(q as u16, depth))
            .collect::<Vec<_>>()];
        Arc::new(AgileCtrl::new(cfg, queues))
    }

    #[test]
    fn qos_weights_adapter_maps_errors() {
        let wfq: Arc<dyn QosPolicy> = Arc::new(WeightedFair::new().with_weight(1, 2));
        wfq.bind(64);
        let adapter = QosWeights::new(Arc::clone(&wfq));
        assert_eq!(adapter.set_weight(1, 0), Err(WeightError::Zero));
        assert_eq!(adapter.set_weight(1, 5), Ok(5));
        assert_eq!(adapter.weight(1), Some(5));
    }

    #[test]
    fn cache_shares_adapter_reports_unsupported_under_clock() {
        let ctrl = test_ctrl();
        let adapter = CacheShares::new(Arc::clone(&ctrl));
        // The default cache policy is plain clock: no tenant shares.
        assert_eq!(adapter.set_weight(1, 2), Err(WeightError::Unsupported));
        assert_eq!(adapter.weight(1), None);
    }

    #[test]
    fn knob_set_exposes_the_cells_and_omits_wfq_without_qos() {
        let ctrl = test_ctrl();
        let knobs = knob_set(&ctrl);
        assert!(knobs.prefetch_depth.is_some());
        assert!(knobs.idle_backoff.is_some());
        assert!(knobs.wfq.is_none());
        assert!(knobs.cache_shares.is_some());
    }
}
