//! # agile-repro — reproduction of *AGILE: Lightweight and Efficient
//! Asynchronous GPU-SSD Integration* (SC '25)
//!
//! This umbrella crate re-exports the workspace's public API so examples,
//! integration tests and downstream users can depend on a single crate:
//!
//! * [`agile_core`] (re-exported as [`agile`]) — the AGILE library itself:
//!   [`agile::AgileHost`], [`agile::AgileCtrl`], the asynchronous device API,
//!   the AGILE service, the SQE/doorbell protocol and the common
//!   [`agile::GpuStorageHost`] host trait;
//! * [`bam`] — the synchronous GPU-centric baseline (BaM model) and the
//!   unified [`bam::HostBuilder`] that constructs either system's host;
//! * [`workloads`] — the paper's evaluation workloads and the per-figure
//!   experiment runners;
//! * [`trace`] — I/O trace capture, versioned serialization, synthetic
//!   generation (uniform / zipfian / bursty / multi-tenant) and the latency
//!   histogram behind the trace-replay workload;
//! * [`gpu`] / [`nvme`] / [`cache`] / [`sim`] — the simulation substrates
//!   (SIMT GPU model, NVMe SSD model, HBM software cache, discrete-event
//!   core).
//!
//! See `README.md` for a quickstart and the system inventory.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]
#![warn(missing_docs)]

pub use agile_cache as cache;
pub use agile_control as control;
pub use agile_core as agile;
pub use agile_metrics as metrics;
pub use agile_sim as sim;
pub use agile_trace as trace;
pub use agile_workloads as workloads;
pub use bam_baseline as bam;
pub use gpu_sim as gpu;
pub use nvme_sim as nvme;

/// Version of the reproduction.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_set() {
        assert!(!super::VERSION.is_empty());
    }
}
