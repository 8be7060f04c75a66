//! Bridges between the AGILE stack's existing statistics and the
//! [`agile_metrics`] registry.
//!
//! Each layer counts an event once, in its own relaxed-atomic cells (the
//! submit path's `IoStats` and QoS policy, the software cache, the storage
//! topology's submit locks and devices, the service), and is exported through an
//! [`agile_metrics::Collector`] polled only at snapshot time — the hot paths
//! are untouched, which is what keeps instrumented replays byte-identical to
//! uninstrumented ones.
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
use crate::service::AgileService;
use agile_metrics::{Collector, Labels, MetricValue, Sample, WindowedSampler};
use agile_sim::Cycles;
use gpu_sim::ExternalDevice;
use nvme_sim::StorageTopology;
use std::sync::Arc;

fn counter(out: &mut Vec<Sample>, name: &'static str, labels: Labels, v: u64) {
    out.push(Sample {
        name,
        labels,
        value: MetricValue::Counter(v),
    });
}

fn gauge(out: &mut Vec<Sample>, name: &'static str, labels: Labels, v: u64) {
    out.push(Sample {
        name,
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
        counter(
            out,
            "agile_cache_full_sets_total",
            Labels::NONE,
            cache.full_sets(),
        );
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

/// Exports the submit path's counters from the cells that count them:
/// `agile_submit_admissions_total` from the SQs' allocation cursors
/// ([`AgileSq::issued`](crate::sq_protocol::AgileSq::issued)),
/// `agile_submit_sq_full_retries_total` from the controller's `IoStats`, and
/// `agile_submit_qos_deferrals_total{tenant}` from the installed QoS
/// policy's per-tenant counts (a tenant once it was deferred).
pub struct SubmitCollector {
    ctrl: Arc<dyn StorageCtrl>,
}

impl SubmitCollector {
    /// A collector over `ctrl`'s I/O path.
    pub fn new(ctrl: Arc<dyn StorageCtrl>) -> Self {
        SubmitCollector { ctrl }
    }
}

impl Collector for SubmitCollector {
    fn collect(&self, out: &mut Vec<Sample>) {
        let io = self.ctrl.io();
        let admissions = (0..io.device_count())
            .flat_map(|dev| io.device_queues(dev))
            .map(|sq| sq.issued())
            .sum();
        counter(
            out,
            "agile_submit_admissions_total",
            Labels::NONE,
            admissions,
        );
        counter(
            out,
            "agile_submit_sq_full_retries_total",
            Labels::NONE,
            io.stats().sq_full_retries,
        );
        let policy = io.qos_policy();
        for t in policy.map(|q| q.tenant_stats()).unwrap_or_default() {
            if t.deferred > 0 {
                let l = Labels::tenant(t.tenant);
                counter(out, "agile_submit_qos_deferrals_total", l, t.deferred);
            }
        }
    }
}

/// Exports the storage topology's lock-contention counters, summed over
/// every SQ's submit lock (`agile_submit_lock_*`, labelled `shard=0`), and
/// per-device completion statistics (`agile_device_*`).
pub struct TopologyCollector {
    topology: Arc<StorageTopology>,
}

impl TopologyCollector {
    /// A collector over `topology`.
    pub fn new(topology: Arc<StorageTopology>) -> Self {
        TopologyCollector { topology }
    }
}

impl Collector for TopologyCollector {
    fn collect(&self, out: &mut Vec<Sample>) {
        counter(
            out,
            "agile_submit_lock_wait_cycles_total",
            Labels::shard(0),
            self.topology.lock_wait_cycles(),
        );
        counter(
            out,
            "agile_submit_lock_acquires_total",
            Labels::shard(0),
            self.topology.lock_acquires(),
        );
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

/// Exports the AGILE service's counters (`agile_service_*`, labelled
/// `partition=0`).
pub struct ServiceCollector {
    service: Arc<AgileService>,
}

impl ServiceCollector {
    /// A collector over `service`.
    pub fn new(service: Arc<AgileService>) -> Self {
        ServiceCollector { service }
    }
}

impl Collector for ServiceCollector {
    fn collect(&self, out: &mut Vec<Sample>) {
        let s = self.service.stats();
        let l = Labels::partition(0);
        counter(out, "agile_service_completions_total", l, s.completions);
        counter(out, "agile_service_cq_doorbells_total", l, s.cq_doorbells);
        counter(out, "agile_service_busy_rounds_total", l, s.busy_rounds);
        counter(out, "agile_service_idle_rounds_total", l, s.idle_rounds);
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
