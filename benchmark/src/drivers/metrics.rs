//! `metrics` layer: one counter increment, and one snapshot of a registry the
//! size a full-stack run registers.

use super::{ns_per_call, DriverResult};
use agile_repro::metrics::{LabelDim, Labels, MetricsRegistry};
use std::hint::black_box;

/// Families × members ≈ the instruments of a full-stack replay.
const FAMILIES: [&str; 4] = [
    "bench_driver_a_total",
    "bench_driver_b_total",
    "bench_driver_c_total",
    "bench_driver_d_total",
];
const MEMBERS: u32 = 32;

pub fn run(calls: u64) -> Vec<DriverResult> {
    let registry = MetricsRegistry::new();
    let counter = registry.counter("bench_driver_total", Labels::NONE);
    let inc = ns_per_call(calls, || {
        for _ in 0..calls {
            black_box(&counter).inc();
        }
    });
    black_box(counter.get());

    for name in FAMILIES {
        let family = registry.counter_family(name, LabelDim::Tenant);
        for member in 0..MEMBERS {
            family.inc(member);
        }
    }
    let snapshots = (calls / 4096).max(1);
    let snapshot_ns = ns_per_call(snapshots, || {
        for _ in 0..snapshots {
            black_box(registry.snapshot());
        }
    });

    vec![
        DriverResult {
            metric: "metrics.counter_inc_host_ns",
            value: inc,
            calls,
        },
        DriverResult {
            metric: "metrics.snapshot_host_us",
            value: snapshot_ns / 1_000.0,
            calls: snapshots,
        },
    ]
}
