//! # agile-workloads — the paper's evaluation workloads
//!
//! Everything §4 of the paper runs is implemented here, on top of the AGILE
//! library (`agile-core`), the BaM baseline (`bam-baseline`) and the shared
//! simulation substrates:
//!
//! * [`microbench`] — the computation-to-communication (CTC) micro-benchmark
//!   behind Figure 4, including the ideal-speedup model of Equation 1;
//! * [`randio`] — the 4 KiB random read/write scaling workload of
//!   Figures 5–6;
//! * [`dlrm`] — DLRM inference (embedding tables on SSD + MLP compute) used
//!   by Figures 7–10, with the three model configurations of §4.4;
//! * [`graph`] — CSR graphs (uniform and Kronecker generators), BFS and SpMV
//!   kernels, and the three-step API-overhead measurement of Figure 11;
//! * [`accessor`] — the [`accessor::PageAccessor`] abstraction that lets the
//!   same application kernels run over AGILE, BaM, or plain HBM (the
//!   "Kernel time" baseline of §4.5);
//! * [`registers`] — the per-kernel register models behind Figure 12;
//! * [`trace_replay`] — deterministic replay of captured or synthetic
//!   [`agile_trace::Trace`]s through AGILE and BaM, with per-request latency
//!   percentiles (p50/p95/p99);
//! * [`experiments`] — one callable experiment runner per figure (plus trace
//!   replay), used by the benchmark harness, the integration tests and the
//!   examples.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod accessor;
pub mod dlrm;
pub mod experiments;
pub mod graph;
pub mod microbench;
pub mod randio;
pub mod registers;
pub mod trace_replay;
