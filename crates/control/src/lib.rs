//! # agile-control — the closed-loop SLO control plane
//!
//! AGILE's knobs — cached-path prefetch depth, WFQ tenant weights, cache
//! shares, the service kernel's idle backoff — are all set once at install
//! time, which means every deployment has to be hand-tuned per workload mix
//! (the PR-5 sweep showed prefetch depth 0 winning thrash-heavy mixes while
//! depth 1+ wins with cache headroom: no single static setting is right).
//! This crate closes the loop: a deterministic feedback [`Controller`] runs
//! on the *simulated* clock, consumes the per-window metric deltas the
//! [`agile_metrics::WindowedSampler`] already produces, and actuates the
//! knobs online through lock-free cells and online-mutable policy surfaces.
//!
//! Three loops, each independently enableable via [`ControlPolicy`]:
//!
//! 1. **Adaptive prefetch** — votes the cached-path prefetch depth down when
//!    the windowed *demand* hit-rate (`(hits − misses) / hits`, the fraction
//!    of accesses served without triggering any fetch — a signal prefetching
//!    cannot inflate) collapses or full-set pressure spikes (sets found with
//!    no line to reserve, per lookup: the cache is thrashing, speculation
//!    evicts useful lines), and back up when demand
//!    hits dominate and lines are plentiful. Hysteresis (consecutive
//!    agreeing windows) plus a cooldown keep it from flapping.
//! 2. **SLO enforcement** — per declared [`SloSpec`], AIMD on the tenant's
//!    WFQ weight (mirrored to its cache share): additive increase while the
//!    tenant misses its p99 / min-IOPS target, multiplicative decay back
//!    toward the installed base weight once the SLO has held for a settle
//!    window.
//! 3. **Idle backoff** — exponential growth of the service sweeps' idle
//!    backoff while completion traffic is zero, snapping back to base on the
//!    first completion burst.
//!
//! The controller is bridged into the engine exactly like the metrics
//! sampler: [`ControlBridge`] is a **passive** external device (no wakeups), so a run with the control plane *disabled* is
//! byte-identical to one without the crate present, and a run with it
//! *enabled* is deterministic — same seed, same decision log.
//!
//! Dependency shape: this crate knows only `agile-sim` (trace events),
//! `gpu-sim` (the engine's `ExternalDevice`) and `agile-metrics`. The
//! actuation targets live in higher layers and reach the controller through
//! the [`TenantWeights`] trait and raw atomic cells in a [`KnobSet`] —
//! `agile-core` supplies the adapters.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bridge;
pub mod controller;
pub mod knobs;
pub mod policy;
pub mod report;

pub use bridge::ControlBridge;
pub use controller::Controller;
pub use knobs::{Knob, KnobError, KnobSet, TenantWeights};
pub use policy::{ControlPolicy, SloSpec};
pub use report::{ControlReport, CtrlDecision, KnobValues};
