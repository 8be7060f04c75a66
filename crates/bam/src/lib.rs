//! # bam-baseline — the synchronous GPU-centric baseline (BaM model)
//!
//! The AGILE paper compares against BaM, the first GPU-centric storage system
//! (Qureshi et al., ASPLOS '23): GPU threads issue NVMe commands directly,
//! but **synchronously** — the issuing thread polls the completion queue
//! itself and cannot start computing until its data has arrived; latency is
//! hidden only by warp-level scheduling across many concurrent threads.
//! BaM also hard-codes one software-cache policy (clock) and performs its
//! cache bookkeeping inside per-thread critical sections, which the paper
//! measures as higher cache-API and I/O-API overheads and higher per-thread
//! register pressure.
//!
//! This crate implements that model on the *same* substrates as AGILE (the
//! identical `nvme-sim` devices, the identical `agile-cache` cache structure)
//! so that the comparisons in the benchmark harness isolate exactly the
//! design differences the paper attributes its gains to:
//!
//! * a synchronous issue-then-poll device API ([`ctrl::BamCtrl`]);
//! * per-thread CQ polling (no background service) — polling work and its
//!   register footprint live in the application kernel;
//! * heavier per-call costs (the `bam_*` entries of
//!   [`agile_sim::costs::ApiCosts`]), reflecting lock-held critical sections;
//! * a fixed clock replacement policy.
//!
//! [`kernels::NaiveAsyncKernel`] additionally reproduces the *deadlock* of
//! paper §2.3.1 / Figure 1: threads that try to be asynchronous on top of a
//! synchronous queue protocol — enqueueing several commands before checking
//! any completion — wedge as soon as the submission queues fill, which the
//! GPU engine detects and reports. The integration tests show the identical
//! workload running to completion under AGILE.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod ctrl;
pub mod host;
pub mod kernels;

pub use agile_core::host::{AgileSystem, HostSystem};
pub use builder::HostBuilder;
pub use ctrl::{BamConfig, BamCtrl, BamStats};
pub use host::{BamHost, BamSystem};
pub use kernels::{NaiveAsyncKernel, SyncReadComputeKernel};
