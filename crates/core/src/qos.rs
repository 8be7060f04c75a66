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

use agile_cache::tenant::weighted_share;
use agile_sim::trace::{TraceEvent, TraceEventKind, TraceSink};
use agile_sim::{Cycles, WeightError};
use parking_lot::Mutex;
use std::collections::BTreeMap;
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

/// Book-keeping of one tenant's virtual queue.
#[derive(Debug)]
struct WfTenant {
    weight: u64,
    /// Admitted-but-not-completed submissions (spent round credits).
    in_flight: u64,
    /// Sim time of the tenant's last admission attempt **plus one**; 0 until
    /// the first attempt, so a pre-configured tenant that never shows up
    /// does not count as active (and shrink everyone's share) at time zero.
    last_seen: u64,
    admitted: u64,
    deferred: u64,
}

impl Default for WfTenant {
    /// A tenant never seen before: weight 1, nothing spent.
    fn default() -> Self {
        WfTenant {
            weight: 1,
            in_flight: 0,
            last_seen: 0,
            admitted: 0,
            deferred: 0,
        }
    }
}

/// Everything [`WeightedFair`] keeps, under its one lock.
#[derive(Debug, Default)]
struct WfState {
    /// Total SQ slots; 0 = unbound (admit everything) until [`QosPolicy::bind`].
    capacity: u64,
    tenants: BTreeMap<u32, WfTenant>,
}

impl WfState {
    /// `tenant`'s record, inserted on first sight.
    fn tenant(&mut self, tenant: u32) -> &mut WfTenant {
        self.tenants.entry(tenant).or_default()
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
/// (`IDLE_WINDOW_CYCLES`) by [`weighted_share`].
/// An admission spends one credit, a completion returns it, so a tenant's
/// spent credits are exactly its in-flight occupancy and the device queues
/// can never fill beyond a tenant's entitlement while a competitor is active.
/// When the competitors go idle the active set shrinks and the survivor's
/// share grows back to the full capacity — the scheduler is work-conserving
/// and a noisy tenant loses nothing when it is alone.
///
/// The capacity and every tenant's record sit under one lock, which each
/// call takes once: the engine drives the policy from one host thread, so
/// the lock only keeps the policy `Sync` for its `Arc<dyn QosPolicy>` seam.
#[derive(Debug, Default)]
pub struct WeightedFair {
    state: Mutex<WfState>,
}

impl WeightedFair {
    /// Equal-weight WFQ.
    pub fn new() -> Self {
        WeightedFair::default()
    }

    /// WFQ with explicit per-tenant weights, indexed by tenant id (tenants
    /// beyond the slice fall back to weight 1). Zero weights are clamped to 1.
    pub fn from_weights(weights: &[u64]) -> Self {
        let mut wf = WeightedFair::new();
        for (tenant, &w) in weights.iter().enumerate() {
            wf = wf.with_weight(tenant as u32, w);
        }
        wf
    }

    /// Override one tenant's weight (builder-style).
    pub fn with_weight(mut self, tenant: u32, weight: u64) -> Self {
        self.state.get_mut().tenant(tenant).weight = weight.max(1);
        self
    }
}

impl QosPolicy for WeightedFair {
    fn name(&self) -> &'static str {
        "wfq"
    }

    fn bind(&self, total_slots: u64) {
        self.state.lock().capacity = total_slots;
    }

    fn admit(&self, tenant: u32, now: Cycles) -> QosDecision {
        let mut state = self.state.lock();
        state.tenant(tenant).last_seen = now.raw() + 1;
        // Unbound (no controller installed the policy yet): never defer.
        let share = (state.capacity != 0).then(|| {
            let horizon = now.raw().saturating_sub(IDLE_WINDOW_CYCLES);
            // `last_seen` is (last attempt time + 1), so `> horizon` is
            // "attempted at all, and no earlier than the horizon".
            let active_weight: u64 = state
                .tenants
                .values()
                .filter(|t| t.last_seen > horizon)
                .map(|t| t.weight)
                .sum();
            let weight = state.tenants[&tenant].weight;
            weighted_share(state.capacity, weight, active_weight.max(1))
        });
        let entry = state.tenant(tenant);
        if share.is_none_or(|share| entry.in_flight < share) {
            entry.in_flight += 1;
            entry.admitted += 1;
            QosDecision::Admit
        } else {
            entry.deferred += 1;
            QosDecision::Defer
        }
    }

    fn refund(&self, tenant: u32) {
        if let Some(t) = self.state.lock().tenants.get_mut(&tenant) {
            t.in_flight = t.in_flight.saturating_sub(1);
            t.admitted = t.admitted.saturating_sub(1);
        }
    }

    fn on_complete(&self, tenant: u32) {
        if let Some(t) = self.state.lock().tenants.get_mut(&tenant) {
            t.in_flight = t.in_flight.saturating_sub(1);
        }
    }

    /// Rebind `tenant`'s credit share online; the next `admit` sees it.
    fn set_weight(&self, tenant: u32, weight: u64) -> Result<u64, WeightError> {
        if weight == 0 {
            return Err(WeightError::Zero);
        }
        let applied = weight.min(MAX_ONLINE_WEIGHT);
        self.state.lock().tenant(tenant).weight = applied;
        Ok(applied)
    }

    fn weight(&self, tenant: u32) -> Option<u64> {
        self.state.lock().tenants.get(&tenant).map(|t| t.weight)
    }

    fn tenant_stats(&self) -> Vec<QosTenantStats> {
        self.state
            .lock()
            .tenants
            .iter()
            .map(|(&tenant, t)| QosTenantStats {
                tenant,
                weight: t.weight,
                admitted: t.admitted,
                deferred: t.deferred,
                in_flight: t.in_flight,
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

    /// A scripted sequence whose accounting was recorded on the atomic-cell
    /// implementation this one replaced. It states the policy's invariants
    /// as values: spent credits never exceed the share, no credit leaks
    /// (in flight = admitted − completed), and no count wraps below zero.
    #[test]
    fn wfq_scripted_sequence_keeps_its_pinned_accounting() {
        let p = WeightedFair::from_weights(&[2, 1]).with_weight(5, 3);
        let admits = |t: u32, times: std::ops::Range<u64>| {
            times
                .filter(|&i| p.admit(t, Cycles(i)) == QosDecision::Admit)
                .count()
        };
        let in_flight = |t: u32| {
            p.tenant_stats()
                .iter()
                .find(|s| s.tenant == t)
                .map(|s| s.in_flight)
        };
        // Unbound (capacity 0): everything is admitted.
        assert_eq!(admits(0, 0..5), 5);
        // A refund and a completion for a tenant never seen create nothing.
        p.refund(9);
        p.on_complete(9);
        assert_eq!((p.weight(9), in_flight(9)), (None, None));
        // 16 slots, tenants 0 (weight 2) and 1 (weight 1) active, tenant 5
        // configured but silent: shares 16·2/3 = 10 and 16·1/3 = 5.
        p.bind(16);
        let (mut got0, mut got1) = (0, 0);
        for i in 10..40 {
            got1 += admits(1, i..i + 1);
            got0 += admits(0, i..i + 1);
        }
        assert_eq!((got0, got1), (5, 5));
        assert_eq!((in_flight(0), in_flight(1)), (Some(10), Some(5)));
        // Online retune: zero refused, u64::MAX clamped, an unseen tenant
        // inserted (but inactive). Shares become ⌊16·2³²/(2³² + 2)⌋ = 15
        // and max(1, 0) = 1.
        assert_eq!(p.set_weight(1, 0), Err(WeightError::Zero));
        assert_eq!(p.set_weight(1, u64::MAX), Ok(MAX_ONLINE_WEIGHT));
        assert_eq!(p.set_weight(3, 4), Ok(4));
        assert_eq!(admits(1, 40..60), 10);
        assert_eq!(admits(0, 60..70), 0);
        // More completions than in flight saturate at zero; refunds net the
        // admission out.
        for _ in 0..12 {
            p.on_complete(0);
        }
        p.refund(1);
        p.refund(1);
        assert_eq!((in_flight(0), in_flight(1)), (Some(0), Some(13)));
        assert_eq!(admits(0, 70..75), 1);
        // Past tenant 0's idle window tenant 1 owns all 16 slots.
        let late = 100 + IDLE_WINDOW_CYCLES;
        assert_eq!(admits(1, late..late + 10), 3);
        let row = |tenant, weight, admitted, deferred, in_flight| QosTenantStats {
            tenant,
            weight,
            admitted,
            deferred,
            in_flight,
        };
        assert_eq!(
            p.tenant_stats(),
            vec![
                row(0, 2, 11, 39, 1),
                row(1, MAX_ONLINE_WEIGHT, 16, 42, 16),
                row(3, 4, 0, 0, 0),
                row(5, 3, 0, 0, 0),
            ]
        );
        let weights: Vec<_> = [0, 1, 3, 5, 7, 9].map(|t| p.weight(t)).into();
        assert_eq!(
            weights,
            [
                Some(2),
                Some(MAX_ONLINE_WEIGHT),
                Some(4),
                Some(3),
                None,
                None
            ]
        );
    }

    #[test]
    fn fifo_and_prio_report_weights_unsupported() {
        assert_eq!(Fifo.set_weight(0, 2), Err(WeightError::Unsupported));
        assert_eq!(Fifo.weight(0), None);
    }
}
