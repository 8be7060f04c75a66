//! Bridges between the AGILE stack's existing statistics and the
//! [`agile_metrics`] registry.
//!
//! Layers that already keep relaxed-atomic counters (the software cache, the
//! storage topology's lock and devices, the service partitions) are exported
//! through [`agile_metrics::Collector`]s polled only at snapshot time — the
//! hot paths are untouched, which is what keeps instrumented replays
//! byte-identical to uninstrumented ones. Only events with no existing
//! counter (SQ admissions, per-tenant QoS deferrals, engine rounds) carry
//! direct instruments, installed behind `OnceLock`s so the disabled path is
//! one atomic load.
//!
//! [`MetricsBridge`] connects a [`agile_metrics::WindowedSampler`] to the
//! engine as a **passive** external device whose one event is the sampler's
//! next window boundary: the engine runs a round exactly there and the
//! window closes on the boundary, not on whichever round happened to follow
//! it. The extra rounds step no warp and advance the SSDs to a time they
//! would have been advanced through anyway, so a metered replay still
//! simulates what an unmetered one does; what the bridge no longer does is
//! tie the window contents to the scheduler's round count.

use crate::host::StorageCtrl;
use crate::service::ServicePartition;
use agile_metrics::{Collector, Labels, MetricValue, Sample, WindowedSampler};
use agile_sim::Cycles;
use gpu_sim::ExternalDevice;
use nvme_sim::StorageTopology;
use std::sync::Arc;

fn counter(out: &mut Vec<Sample>, name: &str, labels: Labels, v: u64) {
    out.push(Sample {
        name: name.to_string(),
        labels,
        value: MetricValue::Counter(v),
    });
}

fn gauge(out: &mut Vec<Sample>, name: &str, labels: Labels, v: u64) {
    out.push(Sample {
        name: name.to_string(),
        labels,
        value: MetricValue::Gauge(v),
    });
}

/// Exports the software cache's global and per-tenant counters
/// (`agile_cache_*`) from the existing atomic cells of a controller's cache
/// (either system's: the cache is reached through [`StorageCtrl::io`]).
pub struct CacheCollector {
    ctrl: Arc<dyn StorageCtrl>,
}

impl CacheCollector {
    /// A collector over `ctrl`'s cache.
    pub fn new(ctrl: Arc<dyn StorageCtrl>) -> Self {
        CacheCollector { ctrl }
    }
}

impl Collector for CacheCollector {
    fn collect(&self, out: &mut Vec<Sample>) {
        let cache = self.ctrl.io().cache();
        let s = cache.stats();
        counter(out, "agile_cache_hits_total", Labels::NONE, s.hits);
        counter(
            out,
            "agile_cache_busy_hits_total",
            Labels::NONE,
            s.busy_hits,
        );
        counter(out, "agile_cache_misses_total", Labels::NONE, s.misses);
        counter(
            out,
            "agile_cache_evictions_total",
            Labels::NONE,
            s.evictions,
        );
        counter(
            out,
            "agile_cache_writebacks_total",
            Labels::NONE,
            s.writebacks,
        );
        counter(out, "agile_cache_no_line_total", Labels::NONE, s.no_line);
        for t in cache.tenant_stats() {
            let l = Labels::tenant(t.tenant);
            counter(out, "agile_cache_tenant_hits_total", l, t.hits);
            counter(out, "agile_cache_tenant_misses_total", l, t.misses);
            counter(out, "agile_cache_tenant_fills_total", l, t.fills);
            counter(out, "agile_cache_tenant_evictions_total", l, t.evictions);
            gauge(out, "agile_cache_tenant_occupancy", l, t.occupancy);
        }
    }
}

/// Exports the storage topology's lock-contention counters
/// (`agile_submit_lock_*` per shard) and per-device completion statistics
/// (`agile_device_*`).
pub struct TopologyCollector {
    topology: Arc<dyn StorageTopology>,
}

impl TopologyCollector {
    /// A collector over `topology`.
    pub fn new(topology: Arc<dyn StorageTopology>) -> Self {
        TopologyCollector { topology }
    }
}

impl Collector for TopologyCollector {
    fn collect(&self, out: &mut Vec<Sample>) {
        for (shard, wait) in self.topology.lock_wait_by_shard().into_iter().enumerate() {
            counter(
                out,
                "agile_submit_lock_wait_cycles_total",
                Labels::shard(shard as u32),
                wait,
            );
        }
        for (shard, n) in self
            .topology
            .lock_acquires_by_shard()
            .into_iter()
            .enumerate()
        {
            counter(
                out,
                "agile_submit_lock_acquires_total",
                Labels::shard(shard as u32),
                n,
            );
        }
        for dev in 0..self.topology.device_count() {
            let s = self.topology.device_stats(dev);
            let l = Labels::device(dev as u32);
            counter(
                out,
                "agile_device_reads_completed_total",
                l,
                s.reads_completed,
            );
            counter(
                out,
                "agile_device_writes_completed_total",
                l,
                s.writes_completed,
            );
            counter(out, "agile_device_errors_total", l, s.errors);
            counter(out, "agile_device_bytes_read_total", l, s.bytes_read);
            counter(out, "agile_device_bytes_written_total", l, s.bytes_written);
            counter(out, "agile_device_cq_stalls_total", l, s.cq_stalls);
            counter(out, "agile_device_doorbells_total", l, s.doorbells);
            gauge(
                out,
                "agile_device_inflight",
                l,
                self.topology.device_inflight(dev),
            );
        }
    }
}

/// Exports per-partition AGILE-service counters (`agile_service_*`).
pub struct ServiceCollector {
    partitions: Vec<Arc<ServicePartition>>,
}

impl ServiceCollector {
    /// A collector over the given service partitions.
    pub fn new(partitions: Vec<Arc<ServicePartition>>) -> Self {
        ServiceCollector { partitions }
    }
}

impl Collector for ServiceCollector {
    fn collect(&self, out: &mut Vec<Sample>) {
        for (idx, p) in self.partitions.iter().enumerate() {
            let s = p.stats();
            let l = Labels::partition(idx as u32);
            counter(out, "agile_service_completions_total", l, s.completions);
            counter(out, "agile_service_cq_doorbells_total", l, s.cq_doorbells);
            counter(out, "agile_service_busy_rounds_total", l, s.busy_rounds);
            counter(out, "agile_service_idle_rounds_total", l, s.idle_rounds);
        }
    }
}

/// A passive [`ExternalDevice`] that feeds the simulated clock to a
/// [`WindowedSampler`]. Its next event is the sampler's next window
/// boundary, so the engine visits every boundary and each window closes
/// exactly on it — the series does not depend on how many rounds the
/// scheduler runs.
pub struct MetricsBridge {
    sampler: Arc<WindowedSampler>,
}

impl MetricsBridge {
    /// A bridge driving `sampler`.
    pub fn new(sampler: Arc<WindowedSampler>) -> Self {
        MetricsBridge { sampler }
    }
}

impl ExternalDevice for MetricsBridge {
    fn advance_to(&mut self, now: Cycles) {
        // One relaxed load unless a boundary was reached.
        self.sampler.observe(now.raw());
    }
    fn next_event_time(&mut self) -> Option<Cycles> {
        Some(Cycles(self.sampler.next_boundary()))
    }
}
