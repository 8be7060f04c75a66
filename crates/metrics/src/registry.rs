//! The instrument types and the append-only registry.
//!
//! Instruments are `Arc`-shared atomic cells: recording is one (or, for
//! histograms, a handful of) `Ordering::Relaxed` atomic ops with no locks on
//! the hot path. The registry itself is an append-only map behind a
//! `parking_lot::RwLock`: lookups take the read lock, the write lock is only
//! ever taken the first time a (name, labels) pair is seen.

use crate::snapshot::{HistoSnapshot, MetricValue, MetricsSnapshot, Sample};
use agile_trace::stats::{bucket_count, bucket_index};
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

/// One label dimension — the key of an instrument *family* (a set of
/// same-named instruments differing only in that dimension's value).
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
// Instruments
// ---------------------------------------------------------------------------

/// A monotonically increasing counter. Cloning shares the cell.
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

/// A point-in-time value. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n`, saturating at zero.
    #[inline]
    pub fn sub(&self, n: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Raise the value to at least `v` (high-water marks).
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
pub(crate) struct HistoCells {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    /// Sum of samples. `u64` (not the live histogram's `u128`): latency
    /// sums over a replay stay far below 2^64.
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A lock-free log-linear histogram over `u64` samples, reusing
/// `agile_trace::stats::LatencyHistogram`'s bucketing (32 sub-buckets per
/// octave, relative quantile error ≤ 1/32 ≈ 3 %). Cloning shares the cells.
#[derive(Debug, Clone)]
pub struct Histo(Arc<HistoCells>);

impl Default for Histo {
    fn default() -> Self {
        Histo(Arc::new(HistoCells {
            buckets: (0..bucket_count()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }))
    }
}

impl Histo {
    /// Record one sample — five relaxed atomic ops, no locks.
    #[inline]
    pub fn record(&self, value: u64) {
        let c = &self.0;
        c.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(value, Ordering::Relaxed);
        c.min.fetch_min(value, Ordering::Relaxed);
        c.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Point-in-time snapshot (sparse buckets).
    pub fn snapshot(&self) -> HistoSnapshot {
        let c = &self.0;
        let count = c.count.load(Ordering::Relaxed);
        if count == 0 {
            return HistoSnapshot::default();
        }
        let min = c.min.load(Ordering::Relaxed);
        let max = c.max.load(Ordering::Relaxed);
        // The tracked extremes bound the populated range, so the scan visits
        // only the live buckets instead of all ~2k (snapshots happen on
        // every sampler window — this is the layer's hottest read path).
        let buckets = (bucket_index(min)..=bucket_index(max))
            .filter_map(|i| {
                let n = c.buckets[i].load(Ordering::Relaxed);
                (n > 0).then_some((i as u32, n))
            })
            .collect();
        HistoSnapshot {
            buckets,
            count,
            sum: c.sum.load(Ordering::Relaxed),
            min,
            max,
        }
    }
}

// ---------------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------------

#[derive(Clone)]
enum Cell {
    Counter(Counter),
    Gauge(Gauge),
    Histo(Histo),
}

struct Entry {
    name: &'static str,
    labels: Labels,
    cell: Cell,
}

#[derive(Default)]
struct Inner {
    entries: Vec<Entry>,
    index: BTreeMap<(&'static str, Labels), usize>,
}

/// A bridge polled at snapshot time. Layers that already keep atomic stats
/// (the cache's `TenantTable`, per-partition `ServiceStats`, `DeviceStats`)
/// implement this instead of double-counting on the hot path: registering a
/// collector costs those layers nothing until someone takes a snapshot.
/// Register each source once: two collectors over the same cells would emit
/// every sample twice.
pub trait Collector: Send + Sync {
    /// Append this layer's samples (names follow the crate naming scheme).
    fn collect(&self, out: &mut Vec<Sample>);
}

/// The append-only registry of instruments and collectors.
///
/// Hosts install one registry across the stack (`HostBuilder::metrics`);
/// components hold `OnceLock`-cached instrument handles, so an absent
/// registry costs a single atomic load per hot-path call site.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: RwLock<Inner>,
    collectors: RwLock<Vec<Box<dyn Collector>>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Arc<Self> {
        Arc::new(MetricsRegistry::default())
    }

    fn instrument(&self, name: &'static str, labels: Labels, make: impl FnOnce() -> Cell) -> Cell {
        if let Some(&i) = self.inner.read().index.get(&(name, labels)) {
            return self.inner.read().entries[i].cell.clone();
        }
        let mut inner = self.inner.write();
        if let Some(&i) = inner.index.get(&(name, labels)) {
            return inner.entries[i].cell.clone();
        }
        let cell = make();
        let i = inner.entries.len();
        inner.entries.push(Entry {
            name,
            labels,
            cell: cell.clone(),
        });
        inner.index.insert((name, labels), i);
        cell
    }

    /// Get or register the counter `name{labels}`. Re-registration returns
    /// the same cell; a kind mismatch on an existing name panics.
    pub fn counter(&self, name: &'static str, labels: Labels) -> Counter {
        match self.instrument(name, labels, || Cell::Counter(Counter::default())) {
            Cell::Counter(c) => c,
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Get or register the gauge `name{labels}`.
    pub fn gauge(&self, name: &'static str, labels: Labels) -> Gauge {
        match self.instrument(name, labels, || Cell::Gauge(Gauge::default())) {
            Cell::Gauge(g) => g,
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Get or register the histogram `name{labels}`.
    pub fn histo(&self, name: &'static str, labels: Labels) -> Histo {
        match self.instrument(name, labels, || Cell::Histo(Histo::default())) {
            Cell::Histo(h) => h,
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// A counter family keyed by one label dimension (per-tenant, per-shard,
    /// …): members are registered lazily on first sight of each id, exactly
    /// like `TenantTable` rows.
    pub fn counter_family(self: &Arc<Self>, name: &'static str, dim: LabelDim) -> CounterFamily {
        CounterFamily {
            name,
            dim,
            registry: Arc::downgrade(self),
            cells: RwLock::new(BTreeMap::new()),
        }
    }

    /// A gauge family keyed by one label dimension.
    pub fn gauge_family(self: &Arc<Self>, name: &'static str, dim: LabelDim) -> GaugeFamily {
        GaugeFamily {
            name,
            dim,
            registry: Arc::downgrade(self),
            cells: RwLock::new(BTreeMap::new()),
        }
    }

    /// A histogram family keyed by one label dimension.
    pub fn histo_family(self: &Arc<Self>, name: &'static str, dim: LabelDim) -> HistoFamily {
        HistoFamily {
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

    /// Point-in-time snapshot of every instrument and collector, sorted by
    /// `(name, labels)` for deterministic export order. Names are the
    /// registered `&'static str`s, so a counter or gauge sample allocates
    /// nothing.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut samples: Vec<Sample> = {
            let inner = self.inner.read();
            inner
                .entries
                .iter()
                .map(|e| Sample {
                    name: e.name,
                    labels: e.labels,
                    value: match &e.cell {
                        Cell::Counter(c) => MetricValue::Counter(c.get()),
                        Cell::Gauge(g) => MetricValue::Gauge(g.get()),
                        Cell::Histo(h) => MetricValue::Histo(Box::new(h.snapshot())),
                    },
                })
                .collect()
        };
        for c in self.collectors.read().iter() {
            c.collect(&mut samples);
        }
        samples.sort_by(|a, b| (a.name, a.labels).cmp(&(b.name, b.labels)));
        MetricsSnapshot { samples }
    }
}

macro_rules! family {
    ($Family:ident, $Instrument:ident, $register:ident, $doc:expr) => {
        #[doc = $doc]
        pub struct $Family {
            name: &'static str,
            dim: LabelDim,
            /// Weak: instrumented objects hold families, and the registry's
            /// collectors hold those objects — a strong edge back would
            /// leak the whole stack.
            registry: Weak<MetricsRegistry>,
            cells: RwLock<BTreeMap<u32, $Instrument>>,
        }

        impl $Family {
            /// The member instrument for `id`, registering it on first sight.
            /// The returned handle can be cached by the caller to skip the
            /// family's read-lock lookup entirely.
            pub fn with(&self, id: u32) -> $Instrument {
                if let Some(c) = self.cells.read().get(&id) {
                    return c.clone();
                }
                // Once the registry is gone nobody can read a new member;
                // count into a detached cell.
                let cell = match self.registry.upgrade() {
                    Some(registry) => registry.$register(self.name, self.dim.labels(id)),
                    None => $Instrument::default(),
                };
                self.cells.write().entry(id).or_insert(cell).clone()
            }
        }
    };
}

family!(
    CounterFamily,
    Counter,
    counter,
    "A set of same-named counters keyed by one label dimension."
);
family!(
    GaugeFamily,
    Gauge,
    gauge,
    "A set of same-named gauges keyed by one label dimension."
);
family!(
    HistoFamily,
    Histo,
    histo,
    "A set of same-named histograms keyed by one label dimension."
);

impl CounterFamily {
    /// Increment the member for `id` (read-lock lookup + one relaxed add).
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

impl HistoFamily {
    /// Record one sample into the member for `id`.
    #[inline]
    pub fn record(&self, id: u32, value: u64) {
        self.with(id).record(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruments_share_cells_and_reregister() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("agile_test_total", Labels::NONE);
        let b = reg.counter("agile_test_total", Labels::NONE);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let g = reg.gauge("agile_test_depth", Labels::shard(1));
        g.set(7);
        g.record_max(3);
        assert_eq!(g.get(), 7);
        g.sub(9);
        assert_eq!(g.get(), 0);
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
        let reg = MetricsRegistry::new();
        let h = reg.histo("agile_test_cycles", Labels::NONE);
        let mut live = agile_trace::stats::LatencyHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 3);
            live.record(v * 3);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, live.count());
        assert_eq!(snap.p50(), live.p50());
        assert_eq!(snap.p99(), live.p99());
        assert_eq!(snap.min_value(), live.min());
        assert_eq!(snap.max_value(), live.max());
        assert_eq!(HistoSnapshot::of(&live), snap, "the conversion is exact");
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("agile_test_total", Labels::NONE);
        let _ = reg.gauge("agile_test_total", Labels::NONE);
    }
}
