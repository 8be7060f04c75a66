//! The actuation surface: what the controller can turn, expressed without
//! depending on the layers that own the knobs.

use agile_sim::wake::WatchedU64;
use std::fmt;
use std::sync::atomic::AtomicU32;
use std::sync::Arc;

/// Why an online knob update was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnobError {
    /// A zero weight/share was requested (would starve or divide by zero).
    Zero,
    /// The installed policy does not support online updates.
    Unsupported,
}

impl fmt::Display for KnobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KnobError::Zero => write!(f, "zero weight rejected"),
            KnobError::Unsupported => write!(f, "online weight updates unsupported"),
        }
    }
}

impl std::error::Error for KnobError {}

/// An online-mutable per-tenant weight table — the controller-facing shape
/// of both `WeightedFair::set_weight` and `TenantShare::set_share`.
/// Implementations clamp overflowing weights to their documented range and
/// refuse zero with [`KnobError::Zero`].
pub trait TenantWeights: Send + Sync {
    /// Set tenant `tenant`'s weight, returning the value actually applied
    /// (after clamping).
    fn set_weight(&self, tenant: u32, weight: u64) -> Result<u64, KnobError>;
    /// Tenant `tenant`'s current weight, if it is known to the table.
    fn weight(&self, tenant: u32) -> Option<u64>;
}

/// Which knob a control decision turned — the stable, wire-encodable
/// identity used in decision logs and `CtrlDecision` trace events (the
/// event's `dev` field carries [`Knob::code`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Knob {
    /// Cached-path prefetch depth (batches of lookahead per warp batch).
    PrefetchDepth,
    /// Service-sweep idle backoff in cycles.
    IdleBackoff,
    /// A tenant's WFQ submission weight.
    WfqWeight,
    /// A tenant's cache-share weight.
    CacheShare,
}

impl Knob {
    /// Wire code carried in the `dev` field of `CtrlDecision` trace events.
    pub fn code(self) -> u32 {
        match self {
            Knob::PrefetchDepth => 0,
            Knob::IdleBackoff => 1,
            Knob::WfqWeight => 2,
            Knob::CacheShare => 3,
        }
    }

    /// Short lowercase label used in decision logs.
    pub fn label(self) -> &'static str {
        match self {
            Knob::PrefetchDepth => "prefetch_depth",
            Knob::IdleBackoff => "idle_backoff",
            Knob::WfqWeight => "wfq_weight",
            Knob::CacheShare => "cache_share",
        }
    }
}

impl fmt::Display for Knob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The set of live knobs a [`crate::Controller`] may actuate. Every field is
/// optional: loops whose knob is absent simply stay dormant, so the same
/// controller wires into the full AGILE stack (all four) and the BaM
/// baseline (WFQ only).
#[derive(Clone, Default)]
pub struct KnobSet {
    /// The cached-path prefetch-depth cell warps read at each batch boundary.
    pub prefetch_depth: Option<Arc<AtomicU32>>,
    /// The idle-backoff cell the service reads at each idle round (a
    /// store also wakes the service warps sleeping on the old value).
    pub idle_backoff: Option<Arc<WatchedU64>>,
    /// The WFQ policy's online weight table.
    pub wfq: Option<Arc<dyn TenantWeights>>,
    /// The cache's tenant-share table (mirrors WFQ adjustments so a boosted
    /// tenant gains HBM lines along with SQ slots).
    pub cache_shares: Option<Arc<dyn TenantWeights>>,
}

impl KnobSet {
    /// A knob set with nothing wired (all loops dormant).
    pub fn none() -> Self {
        KnobSet::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_codes_are_stable() {
        assert_eq!(Knob::PrefetchDepth.code(), 0);
        assert_eq!(Knob::IdleBackoff.code(), 1);
        assert_eq!(Knob::WfqWeight.code(), 2);
        assert_eq!(Knob::CacheShare.code(), 3);
        assert_eq!(Knob::WfqWeight.label(), "wfq_weight");
    }
}
