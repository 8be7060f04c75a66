//! # agile-trace — I/O trace capture, synthetic generation, and replay data
//!
//! The AGILE paper evaluates its asynchronous GPU-SSD integration on a fixed
//! set of figure workloads. This crate turns *any* access pattern into data
//! the benchmarks and tests can consume, in four pieces:
//!
//! 1. **Capture** ([`sink`]) — rich implementations of the lightweight
//!    [`agile_sim::trace::TraceSink`] hook the simulators record into:
//!    [`MemorySink`] buffers every event for later inspection/serialization,
//!    [`CountingSink`] keeps only per-kind totals. Recording is effectively
//!    free when no sink is installed (a single atomic load on the hot path).
//! 2. **Format** ([`mod@format`]) — a versioned, compact binary encoding for
//!    event logs and replayable traces ([`Trace`]), with an iterator-based
//!    op reader ([`TraceOpReader`]) and a JSON-lines debug dump. Round-trips are exact: `decode(encode(x)) == x`.
//! 3. **Synthesis** ([`synth`]) — deterministic generators driven by
//!    `agile-sim`'s seeded RNG: uniform, Zipf(θ), bursty on/off, and
//!    multi-tenant mixtures ([`TraceSpec`]). The same spec + seed always
//!    yields the byte-identical trace.
//! 4. **Telemetry** ([`stats`]) — [`LatencyHistogram`], a log-linear
//!    histogram (≤ ~3 % relative error) for p50/p95/p99 latency percentiles,
//!    the repo's first latency-distribution (rather than throughput-only)
//!    metric.
//!
//! The replay engine itself lives in `agile_workloads::trace_replay`, which
//! feeds a [`Trace`] through the AGILE stack or the BaM baseline; this crate
//! deliberately depends only on `agile-sim` so every simulator layer can sit
//! above it.
//!
//! ## Example: generate, serialize, round-trip
//!
//! ```
//! use agile_trace::{TraceSpec, Trace};
//!
//! let spec = TraceSpec::zipfian("hot-set", 42, 2, 1 << 16, 1_000, 0.99);
//! let trace = spec.generate();
//! assert_eq!(trace.ops.len(), 1_000);
//! let bytes = trace.to_bytes();
//! let back = Trace::from_bytes(&bytes).unwrap();
//! assert_eq!(back, trace);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod format;
pub mod sink;
pub mod stats;
pub mod synth;

pub use agile_sim::trace::{TraceEvent, TraceEventKind, TraceSink};
pub use format::{
    decode_events, encode_events, events_to_json_lines, Trace, TraceFormatError, TraceMeta,
    TraceOp, TraceOpReader,
};
pub use sink::{CountingSink, MemorySink};
pub use stats::LatencyHistogram;
pub use synth::{AddressPattern, BurstProfile, PhaseShift, TenantSpec, TraceSpec};
