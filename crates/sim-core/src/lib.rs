//! # agile-sim — discrete-event simulation substrate
//!
//! This crate provides the foundational pieces every other crate in the AGILE
//! reproduction builds on:
//!
//! * a virtual clock measured in GPU [`Cycles`] with conversions to wall time
//!   ([`clock`]),
//! * a deterministic event wheel for scheduling future device activity
//!   ([`events`]),
//! * deterministic, seedable random number generation plus a Zipf sampler used
//!   by the synthetic workload generators ([`rng`]),
//! * the single, documented table of cost-model constants used by the GPU and
//!   SSD simulators ([`costs`]),
//! * size/time unit helpers ([`units`]),
//! * the wait descriptors and producer-notified wake hub that let a stalled
//!   warp sleep until the event that ends its wait ([`wake`]), and
//! * [`WeightError`], the one refusal of an online per-tenant weight update
//!   (QoS weights, cache shares, the control plane's knobs).
//!
//! Everything here is pure, `no_std`-friendly in spirit (though we use `std`),
//! and deterministic: two runs with the same seed and parameters produce
//! bit-identical results. That determinism is what makes the paper's figures
//! reproducible as tests.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod costs;
pub mod events;
pub mod rng;
pub mod trace;
pub mod units;
pub mod wake;

pub use clock::{Cycles, Nanos, SimClock, DEFAULT_GPU_CLOCK_GHZ};
pub use events::EventWheel;
pub use rng::{SimRng, ZipfSampler};
pub use trace::{TraceEvent, TraceEventKind, TraceSink};
pub use wake::{QueueId, SleeperId, Wait, WaitQueue, WaitReason, WakeHub, WatchList, WatchedU64};

/// Why an online per-tenant weight update (a QoS weight, a cache share) was
/// refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightError {
    /// A zero weight was requested. Constructors clamp zero to 1 (a declared
    /// config is best-effort), but an *online* update to zero is always a
    /// controller bug — it could zero the active-weight denominator — so the
    /// update path refuses it outright instead of guessing.
    Zero,
    /// The policy keeps no per-tenant weights (`Fifo`, the clock cache).
    Unsupported,
}

impl std::fmt::Display for WeightError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WeightError::Zero => write!(f, "zero weight rejected"),
            WeightError::Unsupported => write!(f, "policy does not support online weights"),
        }
    }
}

impl std::error::Error for WeightError {}
