//! # agile-core — AGILE: asynchronous GPU-centric NVMe I/O
//!
//! This crate is the reproduction of the paper's primary contribution: a
//! lightweight library that lets (simulated) GPU warps issue NVMe commands
//! **asynchronously**, without holding locks across waits and therefore
//! without the deadlock risks of §2.3, while a dedicated background service
//! processes completions on their behalf.
//!
//! The crate is organised exactly along the paper's §3 structure:
//!
//! * [`config`] — system configuration (queue topology, cache geometry,
//!   policies, cost model), the analogue of the host-side configuration calls
//!   in Listing 1;
//! * [`transaction`] — transaction barriers ([`transaction::AgileBuf`],
//!   [`transaction::Barrier`]) and the per-SQ transaction tables that map
//!   completions (by CID) back to the work they finish (§3.2.1, Figure 3);
//! * [`sq_protocol`] — the three-state SQE locks (`EMPTY → UPDATED → ISSUED`)
//!   and the serialized doorbell update of Algorithm 2 (§3.3.1);
//! * [`coalesce`] — warp-level request coalescing (§3.3.2);
//! * [`service`] — the AGILE service with warp-centric CQ polling
//!   (Algorithm 1, §3.2): one persistent kernel over every CQ;
//! * [`io_path`] — the I/O path under both controllers: the one
//!   implementation of submit (QoS gate, SQ fail-over, trace stamping),
//!   retire and cache-miss service that [`ctrl::AgileCtrl`] and the BaM
//!   baseline's controller share, differing only in a per-call cost triple;
//! * [`ctrl`] — AGILE's device-side API (`prefetch`, `asyncRead`,
//!   `asyncWrite`, the array-like accessor wrappers, the Share Table and
//!   the service's knobs) exposed to warp kernels (§3.5);
//! * [`qos`] — QoS-aware submission scheduling across tenants: a pluggable
//!   [`qos::QosPolicy`] ([`qos::Fifo`] or deficit-round-robin
//!   [`qos::WeightedFair`]) that arbitrates SQ-slot admission ahead of the
//!   Algorithm 2 critical section;
//! * [`host`] — the generic [`host::Host`] (as [`host::AgileHost`], the
//!   host-side setup/run/teardown flow of Listing 1), plus the bridge that
//!   co-simulates the SSD array with the GPU engine.
//!
//! ## Example
//!
//! ```
//! use agile_core::host::{AgileHost, HostSpec};
//! use agile_core::config::AgileConfig;
//! use agile_core::kernels::PrefetchComputeKernel;
//! use gpu_sim::{GpuConfig, LaunchConfig};
//!
//! // Two small SSDs, a 4 MiB cache, 4 queue pairs of depth 64 per SSD.
//! let mut spec = HostSpec::new(GpuConfig::tiny(4), AgileConfig::small_test());
//! spec.devices = vec![1 << 16; 2]; // pages per SSD
//! let mut host = AgileHost::build(spec); // started
//! let ctrl = host.ctrl();
//! let report = host.run_kernel(
//!     LaunchConfig::new(2, 64).with_registers(32),
//!     Box::new(PrefetchComputeKernel::new(ctrl, 8, 2000)),
//! );
//! assert!(!report.deadlocked);
//! host.stop_agile();
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod coalesce;
pub mod config;
pub mod control;
pub mod ctrl;
pub mod host;
pub mod io_path;
pub mod kernels;
pub mod qos;
pub mod service;
pub mod sq_protocol;
pub mod telemetry;
pub mod transaction;

pub use config::AgileConfig;
pub use control::{knob_set, CacheShares, QosWeights};
pub use ctrl::{AgileCtrl, ApiStats, IssueOutcome};
pub use host::{AgileHost, AgileSystem, GpuStorageHost, Host, HostSpec, HostSystem, StorageCtrl};
pub use io_path::{
    IoPath, IoStats, LineWait, PageState, PathCosts, ReadOutcome, Traffic, WarpWait,
};
pub use qos::{
    Fifo, QosDecision, QosPolicy, QosTenantStats, WeightError, WeightedFair, MAX_ONLINE_WEIGHT,
};
pub use service::{AgileService, ServiceStats};
pub use telemetry::{
    CacheCollector, MetricsBridge, ServiceCollector, SubmitCollector, TopologyCollector,
};
pub use transaction::{AgileBuf, Barrier};
