//! The append-only registry: the collectors every layer reports through,
//! plus the plain counters the benchmark package spells.
//!
//! Each layer keeps its own statistics and registers a [`Collector`] that
//! reads them when a snapshot is taken; the registry itself owns no cell a
//! production layer writes into. [`Counter`] and [`CounterFamily`] stay only
//! because the benchmark package, which is built against the public API and
//! changed on its own schedule, still spells them
//! (`benchmark/src/drivers/metrics.rs` times one increment and one snapshot
//! of a registry of them).

use crate::snapshot::{MetricValue, MetricsSnapshot, Sample};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

// ---------------------------------------------------------------------------
// Labels
// ---------------------------------------------------------------------------

/// The static label set of the stack: every metric is identified by its name
/// plus at most one value per dimension. Dimensions are fixed — ad-hoc label
/// keys would defeat the "one queryable surface" goal — and `None` simply
/// omits the dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Labels {
    /// Tenant id (the cache/QoS tenant space).
    pub tenant: Option<u32>,
    /// Storage lock shard index.
    pub shard: Option<u32>,
    /// Global device index.
    pub device: Option<u32>,
    /// Service partition index.
    pub partition: Option<u32>,
}

impl Labels {
    /// The empty label set.
    pub const NONE: Labels = Labels {
        tenant: None,
        shard: None,
        device: None,
        partition: None,
    };

    /// Label set with only `tenant` set.
    pub fn tenant(tenant: u32) -> Self {
        Labels {
            tenant: Some(tenant),
            ..Labels::NONE
        }
    }

    /// Label set with only `shard` set.
    pub fn shard(shard: u32) -> Self {
        Labels {
            shard: Some(shard),
            ..Labels::NONE
        }
    }

    /// Label set with only `device` set.
    pub fn device(device: u32) -> Self {
        Labels {
            device: Some(device),
            ..Labels::NONE
        }
    }

    /// Label set with only `partition` set.
    pub fn partition(partition: u32) -> Self {
        Labels {
            partition: Some(partition),
            ..Labels::NONE
        }
    }

    /// `(key, value)` pairs of the set dimensions, in fixed order.
    pub fn pairs(&self) -> Vec<(&'static str, u32)> {
        let mut out = Vec::new();
        if let Some(t) = self.tenant {
            out.push(("tenant", t));
        }
        if let Some(s) = self.shard {
            out.push(("shard", s));
        }
        if let Some(d) = self.device {
            out.push(("device", d));
        }
        if let Some(p) = self.partition {
            out.push(("partition", p));
        }
        out
    }
}

/// One label dimension — the key of a *family* (a set of same-named samples
/// differing only in that dimension's value).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelDim {
    /// Keyed by tenant id.
    Tenant,
    /// Keyed by lock shard (the one array's per-SQ submit locks are summed
    /// under `shard=0`).
    Shard,
    /// Keyed by device index.
    Device,
    /// Keyed by service partition (the one service is `partition=0`).
    Partition,
}

impl LabelDim {
    fn labels(self, id: u32) -> Labels {
        match self {
            LabelDim::Tenant => Labels::tenant(id),
            LabelDim::Shard => Labels::shard(id),
            LabelDim::Device => Labels::device(id),
            LabelDim::Partition => Labels::partition(id),
        }
    }
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// A monotonically increasing counter registered in a [`MetricsRegistry`];
/// cloning shares the cell. Kept for the benchmark package's spelling: the
/// stack's own layers report through [`Collector`]s.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A set of same-named counters keyed by one label dimension, registered
/// lazily on first sight of each id. Kept, like [`Counter`], for the
/// benchmark package's spelling.
pub struct CounterFamily {
    name: &'static str,
    dim: LabelDim,
    /// Weak, so a family never keeps its registry alive.
    registry: Weak<MetricsRegistry>,
    cells: RwLock<BTreeMap<u32, Counter>>,
}

impl CounterFamily {
    /// The member counter for `id`, registering it on first sight.
    pub fn with(&self, id: u32) -> Counter {
        if let Some(c) = self.cells.read().get(&id) {
            return c.clone();
        }
        // Once the registry is gone nobody can read a new member; count
        // into a detached cell.
        let cell = match self.registry.upgrade() {
            Some(registry) => registry.counter(self.name, self.dim.labels(id)),
            None => Counter::default(),
        };
        self.cells.write().entry(id).or_insert(cell).clone()
    }

    /// Increment the member for `id`.
    #[inline]
    pub fn inc(&self, id: u32) {
        self.with(id).inc();
    }

    /// Add `n` to the member for `id`.
    #[inline]
    pub fn add(&self, id: u32, n: u64) {
        self.with(id).add(n);
    }
}

// ---------------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------------

/// A bridge polled at snapshot time: how every layer of the stack reports.
/// A layer that keeps its own stats (the cache's `TenantTable`, the
/// service's `ServiceStats`, the engine's round totals, the controller's
/// decision log) implements this instead of counting twice on the hot path:
/// registering a collector costs the layer nothing until someone takes a
/// snapshot. Register each source once: two collectors over the same cells
/// would emit every sample twice.
pub trait Collector: Send + Sync {
    /// Append this layer's samples (names follow the crate naming scheme).
    fn collect(&self, out: &mut Vec<Sample>);
}

/// The append-only registry of collectors (and of the benchmark's
/// counters).
///
/// Hosts install one registry across the stack (`HostBuilder::metrics`);
/// each layer registers a [`Collector`] over its own statistics at build
/// time, so without a registry nothing is read at all.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<(&'static str, Labels), Counter>>,
    collectors: RwLock<Vec<Box<dyn Collector>>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Arc<Self> {
        Arc::new(MetricsRegistry::default())
    }

    /// Get or register the counter `name{labels}`; re-registration returns
    /// the same cell. The benchmark's spelling: the stack's layers register
    /// collectors.
    pub fn counter(&self, name: &'static str, labels: Labels) -> Counter {
        if let Some(c) = self.counters.read().get(&(name, labels)) {
            return c.clone();
        }
        self.counters
            .write()
            .entry((name, labels))
            .or_default()
            .clone()
    }

    /// A counter family keyed by one label dimension (per-tenant, per-shard,
    /// …), whose members register on first sight of each id. The benchmark's
    /// spelling, like [`MetricsRegistry::counter`].
    pub fn counter_family(self: &Arc<Self>, name: &'static str, dim: LabelDim) -> CounterFamily {
        CounterFamily {
            name,
            dim,
            registry: Arc::downgrade(self),
            cells: RwLock::new(BTreeMap::new()),
        }
    }

    /// Register a snapshot-time bridge.
    pub fn register_collector(&self, collector: Box<dyn Collector>) {
        self.collectors.write().push(collector);
    }

    /// Point-in-time snapshot of every counter and collector, sorted by
    /// `(name, labels)` for deterministic export order. Names are
    /// `&'static str`s, so a counter or gauge sample allocates nothing.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut samples: Vec<Sample> = self
            .counters
            .read()
            .iter()
            .map(|(&(name, labels), c)| Sample {
                name,
                labels,
                value: MetricValue::Counter(c.get()),
            })
            .collect();
        for c in self.collectors.read().iter() {
            c.collect(&mut samples);
        }
        samples.sort_by(|a, b| (a.name, a.labels).cmp(&(b.name, b.labels)));
        MetricsSnapshot { samples }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HistoSnapshot;

    #[test]
    fn instruments_share_cells_and_reregister() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("agile_test_total", Labels::NONE);
        let b = reg.counter("agile_test_total", Labels::NONE);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
    }

    #[test]
    fn families_do_not_keep_the_registry_alive() {
        let reg = MetricsRegistry::new();
        let fam = reg.counter_family("agile_test_weak_total", LabelDim::Tenant);
        fam.inc(1);
        let weak = Arc::downgrade(&reg);
        drop(reg);
        assert!(
            weak.upgrade().is_none(),
            "a family must not own its registry"
        );
        // Known members keep counting; new ones count into detached cells.
        fam.inc(1);
        fam.inc(2);
        assert_eq!(fam.with(1).get(), 2);
        assert_eq!(fam.with(2).get(), 1);
    }

    #[test]
    fn families_register_lazily_per_id() {
        let reg = MetricsRegistry::new();
        let fam = reg.counter_family("agile_test_by_tenant_total", LabelDim::Tenant);
        fam.inc(0);
        fam.add(3, 5);
        fam.inc(0);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("agile_test_by_tenant_total", Labels::tenant(0)),
            2
        );
        assert_eq!(
            snap.counter("agile_test_by_tenant_total", Labels::tenant(3)),
            5
        );
        assert_eq!(
            snap.counter("agile_test_by_tenant_total", Labels::tenant(9)),
            0
        );
    }

    #[test]
    fn histo_quantiles_match_live_histogram() {
        let mut live = agile_trace::stats::LatencyHistogram::new();
        for v in 1..=10_000u64 {
            live.record(v * 3);
        }
        let snap = HistoSnapshot::of(&live);
        assert_eq!(snap.count, live.count());
        assert_eq!(snap.p50(), live.p50());
        assert_eq!(snap.p99(), live.p99());
        assert_eq!(snap.min_value(), live.min());
        assert_eq!(snap.max_value(), live.max());
    }
}
