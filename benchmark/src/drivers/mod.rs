//! Isolated per-layer drivers: each calls one layer's public functions in a
//! loop, away from the simulation, and reports host ns per call. They give
//! the `*_host_ns` layer metrics and, multiplied by the traced run's counts,
//! the `est_*_share` estimates. Std-only successors of
//! `crates/bench/benches/micro_ops.rs`.
//!
//! Inputs and results pass through `black_box`; every figure is the median of
//! [`REPEATS`] timed batches after one warm-up batch.

mod cache;
mod core;
mod engine;
mod metrics;
mod nvme;
mod trace;

use std::time::Instant;

/// Timed batches per driver.
pub const REPEATS: usize = 5;

/// One driver's result.
#[derive(Debug, Clone, Copy)]
pub struct DriverResult {
    /// Metric the figure is reported under.
    pub metric: &'static str,
    /// Median host ns per call (µs for `metrics.snapshot_host_us`).
    pub value: f64,
    /// Calls per timed batch.
    pub calls: u64,
}

/// Median host ns per call of `batch`, which performs `calls` calls.
fn ns_per_call(calls: u64, mut batch: impl FnMut()) -> f64 {
    batch();
    let mut samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            batch();
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[REPEATS / 2]
}

/// Run every driver. `calls` is the batch size of the per-call drivers
/// (1 M at full scale); the composite drivers scale theirs from it.
pub fn run_all(calls: u64) -> Vec<DriverResult> {
    let mut out = Vec::new();
    out.extend(cache::run(calls));
    out.extend(core::run(calls));
    out.extend(nvme::run(calls));
    out.extend(trace::run(calls));
    out.extend(metrics::run(calls));
    out.extend(engine::run(calls));
    out
}
