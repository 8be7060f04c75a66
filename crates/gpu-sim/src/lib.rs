//! # gpu-sim — a SIMT GPU execution model
//!
//! The AGILE paper's behaviour rests on a handful of GPU architectural
//! mechanisms (paper §2.2): threads grouped into warps and thread blocks,
//! blocks statically resident on streaming multiprocessors (SMs) until they
//! finish, per-SM limits on resident warps / registers / shared memory that
//! bound how much latency warp scheduling can hide, and warp-level lockstep
//! execution. This crate models exactly those mechanisms as a deterministic,
//! discrete-event simulator:
//!
//! * [`config::GpuConfig`] — the device description (SM count, register file,
//!   warp limits, clock), with a preset for the RTX 5000 Ada used in the
//!   paper's testbed;
//! * [`kernel`] — the [`kernel::WarpKernel`] state-machine trait that device
//!   code implements, [`kernel::LaunchConfig`] and the occupancy calculator;
//! * [`registers`] — the static register-footprint model used to reproduce
//!   the paper's Figure 12;
//! * [`sm`] — resident-warp bookkeeping per SM;
//! * [`engine`] — the co-simulation engine that advances warps and external
//!   devices (SSDs) in virtual time.
//!
//! GPU "kernels" are written as warp-granular state machines: each call to
//! [`kernel::WarpKernel::step`] represents the next slice of work the warp
//! would execute, and returns either a busy time, a stall (with a retry
//! hint), or completion. The AGILE and BaM device-side libraries expose
//! non-blocking APIs that fit this model naturally.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod engine;
pub mod kernel;
mod queue_index;
pub mod registers;
pub mod sm;

pub use agile_sim::wake::{SleeperId, Wait, WaitReason, WakeHub};
pub use config::GpuConfig;
pub use engine::{
    Engine, EngineMetrics, EngineSched, ExecutionReport, ExternalDevice, KernelReport,
};
pub use kernel::{
    occupancy, KernelFactory, KernelId, LaunchConfig, WarpCtx, WarpId, WarpKernel, WarpStep,
};
pub use registers::{KernelRegisterModel, RegisterFootprint};
pub use sm::SmState;
