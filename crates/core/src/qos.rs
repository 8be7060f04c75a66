//! QoS-aware submission scheduling across tenants.
//!
//! The AGILE design funnels every warp's I/O through the shared SQ slots of
//! §3.3.1, so one noisy tenant can stuff the rings and starve everyone else —
//! the per-tenant p99 columns of the replay reports make that visible; this
//! module is what acts on it. A [`QosPolicy`] sits **in front of** the
//! SQE-claim critical section ([`crate::sq_protocol::AgileSq::try_issue`]):
//! before a tenant-attributed submission may race for a slot, the policy
//! decides [`QosDecision::Admit`] or [`QosDecision::Defer`]. A deferred
//! submission behaves exactly like an SQ-full retry — the caller backs off and
//! retries later — so the non-blocking structure of the protocol (no lock held
//! across a wait, Figure 1 cannot form) is untouched.
//!
//! Two policies ship:
//!
//! * [`Fifo`] — admit everything; **bit-identical** to the pre-QoS stack
//!   (asserted by the golden-trace suite). This is the default when no policy
//!   is installed.
//! * [`WeightedFair`] — deficit round robin over per-tenant virtual queues,
//!   realised on the in-flight SQ slots: a tenant's round credit is its
//!   weighted share of the slot capacity, an admission spends one credit, and
//!   credits return when the command **completes** (via
//!   [`QosPolicy::on_complete`]) rather than on a timer. Spent-but-uncompleted
//!   credits are exactly the tenant's in-flight occupancy, so under
//!   saturation admitted-op shares converge to the weight ratio
//!   (property-tested in `tests/qos_fairness.rs`) while a tenant with no
//!   active competitors inherits the whole capacity — the gate stays
//!   work-conserving.
//!
//! Only **tenant-attributed** submissions are arbitrated (the `*_as` entry
//! points of [`crate::AgileCtrl`] / `bam_baseline::BamCtrl`). Cache-internal
//! traffic — dirty-victim write-backs and fills issued while a cache line is
//! held — bypasses the gate: deferring a write-back would force `abort_fill`
//! and drop the dirty snapshot (the known lost-update hazard), so system ops
//! must never wait behind tenant arbitration.

use agile_sim::trace::{TraceEvent, TraceEventKind, TraceSink};
use agile_sim::Cycles;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Run one admission check against `policy`, recording a
/// [`TraceEventKind::QosDefer`] event on deferral. Called by
/// [`crate::io_path::IoPath::submit`] — the one submission path of both the
/// AGILE and BaM controllers — which does the stats and cycle charging.
pub fn gate_admission(
    policy: &dyn QosPolicy,
    tenant: u32,
    dev: u32,
    now: Cycles,
    sink: Option<&Arc<dyn TraceSink>>,
) -> QosDecision {
    let decision = policy.admit(tenant, now);
    if decision == QosDecision::Defer {
        if let Some(sink) = sink {
            sink.record(
                TraceEvent::new(TraceEventKind::QosDefer, now.raw())
                    .target(dev, 0)
                    .tenant(tenant),
            );
        }
    }
    decision
}

/// Largest weight an online update may install. Keeps the
/// `capacity × weight` product (computed in u128 on the admit path) far from
/// overflow even with thousands of tenants at the maximum weight, and bounds
/// how hard a runaway controller can skew the schedule in one step.
pub const MAX_ONLINE_WEIGHT: u64 = 1 << 32;

/// Why an online weight/share update was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightError {
    /// A zero weight was requested. Constructors clamp zero to 1 (a declared
    /// config is best-effort), but an *online* update to zero is always a
    /// controller bug — it could zero the active-weight denominator — so the
    /// update path refuses it outright instead of guessing.
    Zero,
    /// The policy keeps no per-tenant weights (`Fifo`).
    Unsupported,
}

impl fmt::Display for WeightError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WeightError::Zero => write!(f, "zero weight rejected (would empty the active set)"),
            WeightError::Unsupported => write!(f, "policy does not support online weights"),
        }
    }
}

impl std::error::Error for WeightError {}

/// Verdict of a QoS admission check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QosDecision {
    /// The submission may proceed to the SQ-slot claim.
    Admit,
    /// The submission must back off and retry later (treated by callers
    /// exactly like an SQ-full outcome).
    Defer,
}

/// Per-tenant accounting snapshot of a policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QosTenantStats {
    /// Tenant id.
    pub tenant: u32,
    /// Configured weight (1 for policies without weights).
    pub weight: u64,
    /// Submissions admitted (net of refunds).
    pub admitted: u64,
    /// Submissions deferred (the one count; `IoStats::qos_deferrals` sums it).
    pub deferred: u64,
    /// Admissions not yet completed (occupancy-tracking policies only).
    pub in_flight: u64,
}

/// Arbitrates SQ-slot admission across tenants.
///
/// Implementations must be cheap and `&self` (the gate runs on the submission
/// hot path, potentially from several warps at once) and **deterministic**
/// given a deterministic sequence of `admit`/`refund`/`on_complete` calls —
/// replay determinism and the golden-trace suite depend on it.
pub trait QosPolicy: Send + Sync {
    /// Short lowercase policy name used in reports (`fifo`, `wfq`).
    fn name(&self) -> &'static str;

    /// May the submission from `tenant` proceed at sim time `now`?
    /// An `Admit` is accounted immediately (it consumes scheduling credit).
    fn admit(&self, tenant: u32, now: Cycles) -> QosDecision;

    /// Return the credit of an admitted submission that could not be issued
    /// after all (every SQ full), so the failed attempt does not count
    /// against the tenant's share.
    fn refund(&self, tenant: u32);

    /// True when [`admit`](QosPolicy::admit) admits every submission and
    /// keeps no state, nor does [`refund`](QosPolicy::refund) (`Fifo`):
    /// gating through the policy then changes nothing, so a submission
    /// refused for a full SQ is as pure a retry as with no policy at all.
    fn admits_all(&self) -> bool {
        false
    }

    /// Tell the policy how many SQ slots exist in total (devices × queue
    /// pairs × depth). Called once when the policy is installed on a
    /// controller; occupancy-tracking policies size their shares from it.
    fn bind(&self, _total_slots: u64) {}

    /// The completion of one of `tenant`'s admitted submissions was
    /// processed: its in-flight credit is free again. Called by the AGILE
    /// service (or BaM's user-thread poll path) for QoS-arbitrated commands.
    fn on_complete(&self, _tenant: u32) {}

    /// Online weight update for `tenant` (the control plane's actuator).
    /// Returns the weight actually installed — values above
    /// [`MAX_ONLINE_WEIGHT`] are clamped to it — or an error for zero
    /// weights ([`WeightError::Zero`]: an all-zero active set would zero the
    /// share denominator) and for policies without per-tenant weights
    /// ([`WeightError::Unsupported`], the default).
    fn set_weight(&self, _tenant: u32, _weight: u64) -> Result<u64, WeightError> {
        Err(WeightError::Unsupported)
    }

    /// Current weight of `tenant`, `None` when the policy keeps no weights
    /// or has never seen the tenant.
    fn weight(&self, _tenant: u32) -> Option<u64> {
        None
    }

    /// Per-tenant accounting, ordered by tenant id.
    fn tenant_stats(&self) -> Vec<QosTenantStats>;
}

// ---------------------------------------------------------------------------
// FIFO
// ---------------------------------------------------------------------------

/// The no-op policy: every submission is admitted immediately, preserving the
/// pre-QoS first-come-first-served slot race bit-for-bit. Keeps no state and
/// takes no lock on the admit path.
#[derive(Debug, Default)]
pub struct Fifo;

impl Fifo {
    /// A shared FIFO policy instance.
    pub fn shared() -> Arc<dyn QosPolicy> {
        Arc::new(Fifo)
    }
}

impl QosPolicy for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }
    fn admit(&self, _tenant: u32, _now: Cycles) -> QosDecision {
        QosDecision::Admit
    }
    fn refund(&self, _tenant: u32) {}
    fn admits_all(&self) -> bool {
        true
    }
    fn tenant_stats(&self) -> Vec<QosTenantStats> {
        Vec::new()
    }
}

// ---------------------------------------------------------------------------
// Weighted fair (deficit round robin over in-flight slot shares)
// ---------------------------------------------------------------------------

/// Book-keeping of one tenant's virtual queue — all-atomic, so the
/// completion hook can return credits without touching the tenant registry
/// lock. The atomics are left over from the deleted N-service design, whose
/// partitions called [`QosPolicy::on_complete`] concurrently; the engine now
/// runs one service on one thread (the roadmap's "collapse the per-tenant
/// atomics" decision queues their removal).
#[derive(Debug)]
struct WfTenant {
    weight: AtomicU64,
    /// Admitted-but-not-completed submissions (spent round credits). Bounded
    /// by the tenant's share through a CAS loop on the admit path, so credit
    /// accounting stays linearizable: occupancy can never exceed the share
    /// observed at admission time, no matter how admissions, refunds and
    /// completions interleave.
    in_flight: AtomicU64,
    /// Sim time of the tenant's last admission attempt **plus one**; 0 until
    /// the first attempt, so a pre-configured tenant that never shows up
    /// does not count as active (and shrink everyone's share) at time zero.
    last_seen: AtomicU64,
    admitted: AtomicU64,
    deferred: AtomicU64,
}

impl WfTenant {
    fn with_weight(weight: u64) -> Self {
        WfTenant {
            weight: AtomicU64::new(weight.max(1)),
            in_flight: AtomicU64::new(0),
            last_seen: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            deferred: AtomicU64::new(0),
        }
    }

    /// Active within the window ending at `horizon`?
    fn active_since(&self, horizon: u64) -> bool {
        let seen = self.last_seen.load(Ordering::Acquire);
        // `seen` is (last attempt time + 1), so `seen > horizon` is
        // "attempted at all, and no earlier than the horizon" (0 = never).
        seen > horizon
    }

    fn saturating_dec(counter: &AtomicU64) {
        let _ = counter.fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| {
            Some(v.saturating_sub(1))
        });
    }
}

/// How long a tenant counts toward [`WeightedFair`]'s share denominator after
/// its last admission attempt: 200 000 cycles ≈ 80 µs at 2.5 GHz, a few
/// flash-read latencies.
const IDLE_WINDOW_CYCLES: u64 = 200_000;

/// Deficit-round-robin weighted fair queueing over per-tenant virtual queues,
/// realised on the in-flight SQ slots.
///
/// The policy is told the total slot capacity at install time
/// ([`QosPolicy::bind`]). Each tenant's round credit is its weighted share of
/// that capacity, computed over the tenants *active* within the idle window
/// (`IDLE_WINDOW_CYCLES`): `share(t) = capacity × weight(t) / Σ active
/// weights` (at least 1).
/// An admission spends one credit, a completion returns it, so a tenant's
/// spent credits are exactly its in-flight occupancy and the device queues
/// can never fill beyond a tenant's entitlement while a competitor is active.
/// When the competitors go idle the active set shrinks and the survivor's
/// share grows back to the full capacity — the scheduler is work-conserving
/// and a noisy tenant loses nothing when it is alone.
///
/// ## Interior sharding
///
/// The interior state is sharded per tenant, a design left over from the
/// deleted N-service scale-out whose partitions fired the completion hook
/// concurrently (nothing calls it concurrently now; the roadmap's "collapse
/// the per-tenant atomics" decision queues turning it into plain cells). Every hot counter lives in its
/// tenant's `WfTenant` atomics, and the only lock is a registry `RwLock`
/// taken shared on the hot paths (exclusive only to insert a never-seen
/// tenant). Credit accounting stays linearizable — `in_flight` is spent
/// through a bounded CAS and returned with saturating decrements — so
/// concurrent `admit`/`on_complete`/`refund` interleavings can neither
/// overdraw a share nor leak a credit.
#[derive(Debug)]
pub struct WeightedFair {
    default_weight: u64,
    /// Total SQ slots; 0 = unbound (admit everything) until [`QosPolicy::bind`].
    capacity: AtomicU64,
    /// Tenant registry: append-only map of per-tenant atomic cells.
    tenants: RwLock<BTreeMap<u32, Arc<WfTenant>>>,
}

impl Default for WeightedFair {
    fn default() -> Self {
        WeightedFair::new()
    }
}

impl WeightedFair {
    /// Equal-weight WFQ.
    pub fn new() -> Self {
        WeightedFair {
            default_weight: 1,
            capacity: AtomicU64::new(0),
            tenants: RwLock::new(BTreeMap::new()),
        }
    }

    /// WFQ with explicit per-tenant weights, indexed by tenant id (tenants
    /// beyond the slice fall back to weight 1). Zero weights are clamped to 1.
    pub fn from_weights(weights: &[u64]) -> Self {
        let wf = WeightedFair::new();
        {
            let mut tenants = wf.tenants.write();
            for (tenant, &w) in weights.iter().enumerate() {
                tenants.insert(tenant as u32, Arc::new(WfTenant::with_weight(w)));
            }
        }
        wf
    }

    /// Override one tenant's weight (builder-style).
    pub fn with_weight(self, tenant: u32, weight: u64) -> Self {
        {
            let mut tenants = self.tenants.write();
            tenants
                .entry(tenant)
                .and_modify(|t| t.weight.store(weight.max(1), Ordering::Release))
                .or_insert_with(|| Arc::new(WfTenant::with_weight(weight)));
        }
        self
    }

    /// The cell of `tenant`, inserting it with the default weight on first
    /// sight (the only write-lock acquisition on the admit path).
    fn cell(&self, tenant: u32) -> Arc<WfTenant> {
        if let Some(cell) = self.tenants.read().get(&tenant) {
            return Arc::clone(cell);
        }
        let mut tenants = self.tenants.write();
        Arc::clone(
            tenants
                .entry(tenant)
                .or_insert_with(|| Arc::new(WfTenant::with_weight(self.default_weight))),
        )
    }
}

impl QosPolicy for WeightedFair {
    fn name(&self) -> &'static str {
        "wfq"
    }

    fn bind(&self, total_slots: u64) {
        self.capacity.store(total_slots, Ordering::Release);
    }

    fn admit(&self, tenant: u32, now: Cycles) -> QosDecision {
        let capacity = self.capacity.load(Ordering::Acquire);
        let entry = self.cell(tenant);
        entry.last_seen.store(now.raw() + 1, Ordering::Release);
        if capacity == 0 {
            // Unbound (no controller installed the policy yet): never defer.
            entry.in_flight.fetch_add(1, Ordering::AcqRel);
            entry.admitted.fetch_add(1, Ordering::AcqRel);
            return QosDecision::Admit;
        }
        let horizon = now.raw().saturating_sub(IDLE_WINDOW_CYCLES);
        let active_weight: u64 = self
            .tenants
            .read()
            .values()
            .filter(|s| s.active_since(horizon))
            .map(|s| s.weight.load(Ordering::Acquire))
            .sum();
        // The tenant's round credit: its weighted share of the slots,
        // computed over currently-active tenants (u128 guards the product).
        let weight = entry.weight.load(Ordering::Acquire);
        let share =
            ((capacity as u128 * weight as u128) / active_weight.max(1) as u128).max(1) as u64;
        // Spend one credit iff occupancy stays under the share — a bounded
        // CAS, so concurrent admissions cannot jointly overdraw it.
        let spent = entry
            .in_flight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                (cur < share).then_some(cur + 1)
            });
        if spent.is_ok() {
            entry.admitted.fetch_add(1, Ordering::AcqRel);
            QosDecision::Admit
        } else {
            entry.deferred.fetch_add(1, Ordering::AcqRel);
            QosDecision::Defer
        }
    }

    fn refund(&self, tenant: u32) {
        if let Some(s) = self.tenants.read().get(&tenant) {
            WfTenant::saturating_dec(&s.in_flight);
            WfTenant::saturating_dec(&s.admitted);
        }
    }

    fn on_complete(&self, tenant: u32) {
        if let Some(s) = self.tenants.read().get(&tenant) {
            WfTenant::saturating_dec(&s.in_flight);
        }
    }

    /// Rebind `tenant`'s credit share online: the per-tenant cells are
    /// all-atomic, so the update is one release store the next `admit` call
    /// observes — no admission is ever blocked behind a retune.
    fn set_weight(&self, tenant: u32, weight: u64) -> Result<u64, WeightError> {
        if weight == 0 {
            return Err(WeightError::Zero);
        }
        let applied = weight.min(MAX_ONLINE_WEIGHT);
        self.cell(tenant).weight.store(applied, Ordering::Release);
        Ok(applied)
    }

    fn weight(&self, tenant: u32) -> Option<u64> {
        self.tenants
            .read()
            .get(&tenant)
            .map(|s| s.weight.load(Ordering::Acquire))
    }

    fn tenant_stats(&self) -> Vec<QosTenantStats> {
        self.tenants
            .read()
            .iter()
            .map(|(&tenant, s)| QosTenantStats {
                tenant,
                weight: s.weight.load(Ordering::Acquire),
                admitted: s.admitted.load(Ordering::Acquire),
                deferred: s.deferred.load(Ordering::Acquire),
                in_flight: s.in_flight.load(Ordering::Acquire),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_admits_everything_statelessly() {
        let p = Fifo;
        for t in 0..16 {
            assert_eq!(p.admit(t, Cycles(t as u64)), QosDecision::Admit);
        }
        p.refund(3);
        p.on_complete(3);
        assert!(p.tenant_stats().is_empty());
        assert_eq!(p.name(), "fifo");
    }

    #[test]
    fn wfq_lone_tenant_owns_the_whole_capacity() {
        let p = WeightedFair::new();
        p.bind(64);
        for i in 0..64u64 {
            assert_eq!(p.admit(0, Cycles(i)), QosDecision::Admit);
        }
        // Capacity reached: the 65th in-flight submission defers …
        assert_eq!(p.admit(0, Cycles(64)), QosDecision::Defer);
        // … and a completion frees one credit again.
        p.on_complete(0);
        assert_eq!(p.admit(0, Cycles(65)), QosDecision::Admit);
        let stats = p.tenant_stats();
        assert_eq!(stats[0].admitted, 65);
        assert_eq!(stats[0].deferred, 1);
        assert_eq!(stats[0].in_flight, 64);
    }

    #[test]
    fn wfq_unbound_policy_never_defers() {
        let p = WeightedFair::new();
        for i in 0..1_000u64 {
            assert_eq!(p.admit(0, Cycles(i)), QosDecision::Admit);
        }
    }

    #[test]
    fn wfq_active_competitor_halves_the_share() {
        let p = WeightedFair::new();
        p.bind(64);
        // Tenant 1 shows up: both are active, so tenant 0's share is 32.
        assert_eq!(p.admit(1, Cycles(0)), QosDecision::Admit);
        let mut admitted = 0;
        for i in 1..=64u64 {
            if p.admit(0, Cycles(i)) == QosDecision::Admit {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 32, "equal weights ⇒ half the slots each");
    }

    #[test]
    fn wfq_shares_follow_weights_under_saturation() {
        // Both tenants always backlogged; a FIFO "device" completes the
        // oldest in-flight op each tick. Throughput shares must converge to
        // the 3:1 weight ratio.
        let p = WeightedFair::from_weights(&[3, 1]);
        p.bind(64);
        let mut in_service: std::collections::VecDeque<u32> = Default::default();
        let mut completed = [0u64; 2];
        for i in 0..20_000u64 {
            for t in 0..2u32 {
                if p.admit(t, Cycles(i)) == QosDecision::Admit {
                    in_service.push_back(t);
                }
            }
            if let Some(t) = in_service.pop_front() {
                completed[t as usize] += 1;
                p.on_complete(t);
            }
        }
        let ratio = completed[0] as f64 / completed[1] as f64;
        assert!(
            (2.6..=3.4).contains(&ratio),
            "3:1 weights must yield ≈3:1 completions, got {completed:?}"
        );
    }

    #[test]
    fn wfq_is_work_conserving_when_competitor_goes_idle() {
        let p = WeightedFair::new();
        p.bind(64);
        // Tenant 1 is active early, then disappears (its ops complete).
        for i in 0..8u64 {
            assert_eq!(p.admit(1, Cycles(i)), QosDecision::Admit);
        }
        for _ in 0..8 {
            p.on_complete(1);
        }
        // Long after tenant 1's window expired, tenant 0 owns all 64 slots.
        let mut admitted = 0;
        let late = IDLE_WINDOW_CYCLES + 1_000;
        for i in late..late + 100 {
            if p.admit(0, Cycles(i)) == QosDecision::Admit {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 64, "idle competitor must not shrink the share");
    }

    #[test]
    fn wfq_configured_but_silent_tenant_is_not_active() {
        // A tenant pre-registered via from_weights that never submits must
        // not count as an active competitor — not even at time zero, where
        // the idle-window horizon saturates to 0.
        let p = WeightedFair::from_weights(&[1, 1]);
        p.bind(64);
        for i in 0..64u64 {
            assert_eq!(
                p.admit(0, Cycles(i)),
                QosDecision::Admit,
                "silent tenant 1 must not shrink tenant 0's share"
            );
        }
    }

    #[test]
    fn wfq_refund_returns_credit_and_admission() {
        let p = WeightedFair::new();
        p.bind(1);
        assert_eq!(p.admit(0, Cycles(0)), QosDecision::Admit);
        p.refund(0);
        let stats = p.tenant_stats();
        assert_eq!(stats[0].admitted, 0, "refund nets the admission out");
        assert_eq!(stats[0].in_flight, 0);
        // The returned credit is immediately usable.
        assert_eq!(p.admit(0, Cycles(1)), QosDecision::Admit);
    }

    #[test]
    fn wfq_online_weight_update_rebinds_the_share() {
        let p = WeightedFair::from_weights(&[1, 1]);
        p.bind(64);
        // Both active: equal weights ⇒ 32 slots each.
        assert_eq!(p.admit(1, Cycles(0)), QosDecision::Admit);
        // Retune tenant 0 to 3:1 online.
        assert_eq!(p.set_weight(0, 3), Ok(3));
        assert_eq!(p.weight(0), Some(3));
        let mut admitted = 0;
        for i in 1..=64u64 {
            if p.admit(0, Cycles(i)) == QosDecision::Admit {
                admitted += 1;
            }
        }
        // share = 64 × 3 / 4 = 48.
        assert_eq!(admitted, 48, "online weight must rebind the credit share");
    }

    #[test]
    fn wfq_rejects_zero_and_clamps_overflow_weights() {
        let p = WeightedFair::from_weights(&[2]);
        assert_eq!(p.set_weight(0, 0), Err(WeightError::Zero));
        assert_eq!(p.weight(0), Some(2), "rejected update must not apply");
        assert_eq!(p.set_weight(0, u64::MAX), Ok(MAX_ONLINE_WEIGHT));
        assert_eq!(p.weight(0), Some(MAX_ONLINE_WEIGHT));
        // Unknown tenants are inserted (weights survive until first admit).
        assert_eq!(p.set_weight(9, 5), Ok(5));
        assert_eq!(p.weight(9), Some(5));
    }

    #[test]
    fn fifo_and_prio_report_weights_unsupported() {
        assert_eq!(Fifo.set_weight(0, 2), Err(WeightError::Unsupported));
        assert_eq!(Fifo.weight(0), None);
    }
}
