//! Declarative inputs to the control plane: which loops run, their
//! thresholds, and the per-tenant service-level objectives.

/// A declared per-tenant service-level objective. Targets set to zero are
/// "don't care" — a spec may constrain latency, throughput, or both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// The tenant the objective applies to.
    pub tenant: u32,
    /// Tail-latency target: windowed p99 of `agile_replay_latency_cycles`
    /// must stay at or below this many microseconds (0 = unconstrained).
    pub p99_target_us: f64,
    /// Throughput floor: windowed rate of `agile_replay_ops_total` must stay
    /// at or above this many ops per second (0 = unconstrained).
    pub min_iops: f64,
}

impl SloSpec {
    /// An objective constraining both tail latency and throughput.
    pub fn new(tenant: u32, p99_target_us: f64, min_iops: f64) -> Self {
        SloSpec {
            tenant,
            p99_target_us,
            min_iops,
        }
    }

    /// A latency-only objective.
    pub fn p99(tenant: u32, target_us: f64) -> Self {
        SloSpec::new(tenant, target_us, 0.0)
    }

    /// A throughput-only objective.
    pub fn min_iops(tenant: u32, iops: f64) -> Self {
        SloSpec::new(tenant, 0.0, iops)
    }
}

/// Which loops the controller runs and the thresholds they act on. The
/// defaults are the tuned values the convergence gate runs with; every field
/// is public so experiments can deviate. The prefetch loop's signal
/// thresholds and the backoff cap are constants in `controller.rs`.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlPolicy {
    /// Run the adaptive-prefetch loop (needs the prefetch-depth knob).
    pub prefetch: bool,
    /// Run the SLO/AIMD loop (needs declared SLOs and a weight table).
    pub slo: bool,
    /// Run the idle-backoff loop (needs the idle-backoff knob).
    pub backoff: bool,

    /// Consecutive agreeing windows required before a knob moves
    /// (hysteresis).
    pub vote_windows: u32,
    /// Windows to hold a knob still after moving it (cooldown).
    pub cooldown_windows: u32,
    /// Upper clamp on the adaptive prefetch depth.
    pub max_prefetch_depth: u32,

    /// Windows with fewer completed tenant ops than this carry no SLO
    /// signal for that tenant.
    pub min_ops_per_window: u64,
    /// Additive weight increase applied per AIMD step while a tenant misses
    /// its SLO.
    pub weight_step: u64,
    /// Consecutive in-SLO windows before a boosted weight decays
    /// (multiplicatively, by 3/4) back toward its base.
    pub settle_windows: u32,
}

impl Default for ControlPolicy {
    fn default() -> Self {
        ControlPolicy {
            prefetch: true,
            slo: true,
            backoff: true,
            vote_windows: 2,
            cooldown_windows: 2,
            max_prefetch_depth: 8,
            min_ops_per_window: 16,
            weight_step: 1,
            settle_windows: 4,
        }
    }
}

impl ControlPolicy {
    /// All three loops with default thresholds.
    pub fn all() -> Self {
        ControlPolicy::default()
    }

    /// Only the adaptive-prefetch loop.
    pub fn prefetch_only() -> Self {
        ControlPolicy {
            slo: false,
            backoff: false,
            ..ControlPolicy::default()
        }
    }

    /// Only the SLO/AIMD loop.
    pub fn slo_only() -> Self {
        ControlPolicy {
            prefetch: false,
            backoff: false,
            ..ControlPolicy::default()
        }
    }

    /// Only the idle-backoff loop.
    pub fn backoff_only() -> Self {
        ControlPolicy {
            prefetch: false,
            slo: false,
            ..ControlPolicy::default()
        }
    }
}
