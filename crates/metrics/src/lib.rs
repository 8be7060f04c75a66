//! Unified metrics and telemetry for the AGILE reproduction.
//!
//! Every layer of the stack counts its events once, in its own cells —
//! `IoStats` on the controllers' shared I/O path, `TenantTable` in the cache,
//! the service's `ServiceStats`, `DeviceStats` on the simulated SSDs. This
//! crate turns those scattered counters into one queryable surface:
//!
//! * [`MetricsRegistry`] — an append-only registry of [`Collector`]s, each
//!   a layer's bridge polled at snapshot time, so the layers that already
//!   keep their own stats (submit path, cache, service, devices, topology
//!   lock, engine, controller, replay) export them with **zero** extra
//!   hot-path cost, and a host without a registry reads nothing at all.
//!   Samples carry hierarchical names and a static label set ([`Labels`]:
//!   `tenant`, `shard`, `device`, `partition`). The registry's
//!   own [`Counter`] cells stay only for the benchmark package's spelling.
//! * [`MetricsSnapshot`] — a point-in-time copy with delta/merge semantics,
//!   exportable as JSON ([`MetricsSnapshot::to_json`]) and Prometheus text
//!   ([`MetricsSnapshot::to_prometheus`]).
//! * [`WindowedSampler`] — driven by the *simulated* clock, snapshots the
//!   registry every N cycles and emits per-window deltas: windowed IOPS,
//!   p50/p95/p99 via histogram deltas, occupancy gauges — time series
//!   instead of end-of-run aggregates. A window stores only what changed
//!   (counters that moved, histograms that recorded, every gauge).
//!
//! # Naming scheme
//!
//! One rule across the stack: `agile_<layer>_<what>` with a `_total` suffix
//! on monotonic counters, label dimensions carried by [`Labels`] rather than
//! encoded in names. Layers in use:
//!
//! | layer     | examples                                                          |
//! |-----------|-------------------------------------------------------------------|
//! | `submit`  | `agile_submit_admissions_total`, `agile_submit_qos_deferrals_total{tenant}`, `agile_submit_lock_wait_cycles_total{shard}` |
//! | `cache`   | `agile_cache_hits_total`, `agile_cache_no_line_total`, `agile_cache_tenant_occupancy{tenant}` |
//! | `service` | `agile_service_completions_total{partition}`, `agile_service_idle_rounds_total{partition}` |
//! | `engine`  | `agile_engine_rounds_total`, `agile_engine_ready_queue_high_water` |
//! | `device`  | `agile_device_reads_completed_total{device}`, `agile_device_inflight{device}` |
//! | `replay`  | `agile_replay_ops_total{tenant}`, `agile_replay_latency_cycles{tenant}` |
//!
//! Histograms carry their unit as the trailing noun (`_cycles`). A
//! [`HistoSnapshot`] is taken of an `agile_trace::stats::LatencyHistogram`
//! ([`HistoSnapshot::of`]) and keeps its log-linear bucketing (32
//! sub-buckets per octave, relative quantile error ≤ 1/32), so percentiles
//! computed from registry snapshots agree with the replay reports.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod export;
pub mod registry;
pub mod sampler;
pub mod snapshot;

pub use registry::{Collector, Counter, CounterFamily, LabelDim, Labels, MetricsRegistry};
pub use sampler::{windows_to_json, WindowSample, WindowedSampler, DEFAULT_WINDOW_CYCLES};
pub use snapshot::{HistoSnapshot, MetricValue, MetricsSnapshot, Sample};
