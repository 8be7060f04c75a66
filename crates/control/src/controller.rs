//! The feedback controller: deterministic window-driven loops over the
//! knob set.

use crate::knobs::{Knob, KnobSet};
use crate::policy::{ControlPolicy, SloSpec};
use crate::report::{ControlReport, CtrlDecision, KnobValues};
use agile_metrics::{
    Counter, CounterFamily, Gauge, GaugeFamily, LabelDim, Labels, MetricsRegistry, WindowSample,
    WindowedSampler,
};
use agile_sim::{TraceEvent, TraceEventKind, TraceSink};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};

/// Windows with fewer cache lookups than this carry no prefetch signal and
/// neither vote nor reset votes.
const MIN_LOOKUPS: u64 = 64;
/// Demand hit-rate (`(hits − misses) / hits`: the fraction of accesses
/// served without triggering any fetch — raw `hits / (hits + misses)` would
/// be inflated by the consuming re-read that every fill produces on the
/// cached path) below this votes the prefetch depth *down* (thrash).
const HIT_RATE_LOW: f64 = 0.35;
/// Demand hit-rate above this (with low pressure) votes the depth *up*.
const HIT_RATE_HIGH: f64 = 0.55;
/// Full sets per lookup (`agile_cache_full_sets_total`: a set found with no
/// line to reserve, counted once until one of its ways settles, so retries
/// do not inflate it) above this votes the depth *down* regardless of hit
/// rate (speculation is starving demand fills of lines).
const PRESSURE_HIGH: f64 = 0.10;
/// Full sets per lookup must be below this for an *up* vote.
const PRESSURE_LOW: f64 = 0.02;
/// Maximum number of idle-backoff doublings over the installed base.
const MAX_BACKOFF_DOUBLINGS: u32 = 4;

/// `agile_ctrl_*` instruments, present when a registry was supplied.
struct Instruments {
    decisions: Counter,
    prefetch_depth: Gauge,
    idle_backoff: Gauge,
    wfq_weight: GaugeFamily,
    cache_share: GaugeFamily,
    slo_violations: CounterFamily,
}

impl Instruments {
    fn bind(registry: &Arc<MetricsRegistry>) -> Self {
        Instruments {
            decisions: registry.counter("agile_ctrl_decisions_total", Labels::NONE),
            prefetch_depth: registry.gauge("agile_ctrl_prefetch_depth", Labels::NONE),
            idle_backoff: registry.gauge("agile_ctrl_idle_backoff_cycles", Labels::NONE),
            wfq_weight: registry.gauge_family("agile_ctrl_wfq_weight", LabelDim::Tenant),
            cache_share: registry.gauge_family("agile_ctrl_cache_share", LabelDim::Tenant),
            slo_violations: registry
                .counter_family("agile_ctrl_slo_violations_total", LabelDim::Tenant),
        }
    }
}

/// Per-SLO-tenant loop state.
struct TenantCtl {
    spec: SloSpec,
    /// The WFQ weight installed before the controller ever touched this
    /// tenant — the floor multiplicative decay returns to.
    base_weight: Option<u64>,
    base_share: Option<u64>,
    violate_votes: u32,
    ok_windows: u32,
    cooldown: u32,
}

struct CtrlState {
    /// Sampler windows consumed so far (incremental cursor).
    consumed: usize,
    /// Prefetch-loop hysteresis.
    up_votes: u32,
    down_votes: u32,
    prefetch_cooldown: u32,
    /// Idle-backoff loop.
    backoff_base: u64,
    idle_streak: u32,
    tenants: BTreeMap<u32, TenantCtl>,
    decisions: Vec<CtrlDecision>,
    windows_seen: u64,
}

/// The deterministic feedback controller. Construct with
/// [`Controller::new`], bridge into the engine with
/// [`crate::ControlBridge`], read the outcome with [`Controller::report`].
///
/// All state lives behind one mutex taken only when a metric window closes —
/// the hot paths never see the controller; they read the atomic knob cells
/// it writes.
pub struct Controller {
    policy: ControlPolicy,
    knobs: KnobSet,
    sampler: Arc<WindowedSampler>,
    clock_ghz: f64,
    trace: OnceLock<Arc<dyn TraceSink>>,
    instruments: Option<Instruments>,
    state: Mutex<CtrlState>,
}

impl Controller {
    /// A controller over `sampler`'s window stream, actuating `knobs` under
    /// `policy` for the declared `slos`. `clock_ghz` converts cycle windows
    /// to wall-clock rates (must match the replay's reporting clock).
    /// Passing the metrics registry exports `agile_ctrl_*` instruments;
    /// without one the controller still runs, just unobserved.
    pub fn new(
        policy: ControlPolicy,
        slos: Vec<SloSpec>,
        knobs: KnobSet,
        sampler: Arc<WindowedSampler>,
        clock_ghz: f64,
        registry: Option<&Arc<MetricsRegistry>>,
    ) -> Arc<Self> {
        let instruments = registry.map(Instruments::bind);
        let backoff_base = knobs
            .idle_backoff
            .as_ref()
            .map(|c| c.load().max(1))
            .unwrap_or(1);
        if let Some(i) = &instruments {
            if let Some(cell) = &knobs.prefetch_depth {
                i.prefetch_depth.set(cell.load(Ordering::Relaxed) as u64);
            }
            if knobs.idle_backoff.is_some() {
                i.idle_backoff.set(backoff_base);
            }
        }
        let tenants = slos
            .into_iter()
            .map(|spec| {
                (
                    spec.tenant,
                    TenantCtl {
                        spec,
                        base_weight: None,
                        base_share: None,
                        violate_votes: 0,
                        ok_windows: 0,
                        cooldown: 0,
                    },
                )
            })
            .collect();
        Arc::new(Controller {
            policy,
            knobs,
            sampler,
            clock_ghz,
            trace: OnceLock::new(),
            instruments,
            state: Mutex::new(CtrlState {
                consumed: 0,
                up_votes: 0,
                down_votes: 0,
                prefetch_cooldown: 0,
                backoff_base,
                idle_streak: 0,
                tenants,
                decisions: Vec::new(),
                windows_seen: 0,
            }),
        })
    }

    /// Install a trace sink so every decision is recorded as a
    /// `CtrlDecision` event. First installation wins.
    pub fn set_trace_sink(&self, sink: Arc<dyn TraceSink>) -> bool {
        self.trace.set(sink).is_ok()
    }

    /// Observe the simulated clock and run the loops over any metric
    /// windows that closed since the last poll. Called by the bridge;
    /// deterministic given a deterministic window stream.
    pub fn poll(&self, now: u64) {
        self.sampler.observe(now);
        self.drain();
    }

    /// When the window the controller acts on next closes (the sampler's
    /// next boundary): the bridge's only event.
    pub fn next_window_boundary(&self) -> u64 {
        self.sampler.next_boundary()
    }

    /// Consume windows already emitted by the sampler without advancing it
    /// (e.g. the trailing partial window flushed by `WindowedSampler::finish`).
    pub fn drain(&self) {
        let mut state = self.state.lock();
        let fresh = self.sampler.windows_from(state.consumed);
        state.consumed += fresh.len();
        for w in &fresh {
            state.windows_seen += 1;
            self.step_window(&mut state, w);
        }
    }

    /// The decision log and final knob values so far.
    pub fn report(&self) -> ControlReport {
        self.drain();
        let state = self.state.lock();
        let mut final_knobs = KnobValues {
            prefetch_depth: self
                .knobs
                .prefetch_depth
                .as_ref()
                .map(|c| c.load(Ordering::Relaxed)),
            idle_backoff: self.knobs.idle_backoff.as_ref().map(|c| c.load()),
            ..KnobValues::default()
        };
        for (&t, _) in state.tenants.iter() {
            if let Some(wfq) = &self.knobs.wfq {
                if let Some(w) = wfq.weight(t) {
                    final_knobs.wfq_weights.push((t, w));
                }
            }
            if let Some(shares) = &self.knobs.cache_shares {
                if let Some(s) = shares.weight(t) {
                    final_knobs.cache_shares.push((t, s));
                }
            }
        }
        ControlReport {
            decisions: state.decisions.clone(),
            windows_seen: state.windows_seen,
            final_knobs,
        }
    }

    fn step_window(&self, state: &mut CtrlState, w: &WindowSample) {
        if self.policy.prefetch && self.knobs.prefetch_depth.is_some() {
            self.prefetch_loop(state, w);
        }
        if self.policy.slo && (self.knobs.wfq.is_some() || self.knobs.cache_shares.is_some()) {
            self.slo_loop(state, w);
        }
        if self.policy.backoff && self.knobs.idle_backoff.is_some() {
            self.backoff_loop(state, w);
        }
    }

    // ---- loop 1: adaptive prefetch ------------------------------------

    fn prefetch_loop(&self, state: &mut CtrlState, w: &WindowSample) {
        if state.prefetch_cooldown > 0 {
            state.prefetch_cooldown -= 1;
            return;
        }
        let hits = w.deltas.counter("agile_cache_hits_total", Labels::NONE);
        let misses = w.deltas.counter("agile_cache_misses_total", Labels::NONE);
        // Full sets, not no-line lookups: the latter grow with how often
        // stalled warps retry, and a warp asleep on a full set retries
        // less than one polling it.
        let full_sets = w
            .deltas
            .counter("agile_cache_full_sets_total", Labels::NONE);
        let lookups = hits + misses;
        if lookups < MIN_LOOKUPS {
            return; // no signal this window; hold votes
        }
        // Demand coverage, not raw lookup ratio: a missed access still ends
        // in a hit once its fill lands (the consuming re-read), so raw
        // hits/(hits+misses) is inflated toward 0.5 by every miss and deep
        // prefetch inflates it further. `misses` counts exactly one fill
        // reservation per fetched page, so hits − misses is the number of
        // accesses served without any fetch — the residency signal a
        // prefetcher cannot game.
        let hit_rate = hits.saturating_sub(misses) as f64 / hits.max(1) as f64;
        let pressure = full_sets as f64 / lookups as f64;
        if hit_rate < HIT_RATE_LOW || pressure > PRESSURE_HIGH {
            state.down_votes += 1;
            state.up_votes = 0;
        } else if hit_rate > HIT_RATE_HIGH && pressure < PRESSURE_LOW {
            state.up_votes += 1;
            state.down_votes = 0;
        } else {
            state.up_votes = 0;
            state.down_votes = 0;
        }
        let cell = self.knobs.prefetch_depth.as_ref().unwrap();
        let depth = cell.load(Ordering::Relaxed);
        let (new, reason) = if state.down_votes >= self.policy.vote_windows {
            (
                depth / 2,
                format!("hit_rate {hit_rate:.3}, full-set pressure {pressure:.3}"),
            )
        } else if state.up_votes >= self.policy.vote_windows {
            (
                (depth + 1).min(self.policy.max_prefetch_depth),
                format!("hit_rate {hit_rate:.3}, full-set pressure {pressure:.3}"),
            )
        } else {
            return;
        };
        state.up_votes = 0;
        state.down_votes = 0;
        if new == depth {
            return; // already at the clamp
        }
        cell.store(new, Ordering::Relaxed);
        state.prefetch_cooldown = self.policy.cooldown_windows;
        if let Some(i) = &self.instruments {
            i.prefetch_depth.set(new as u64);
        }
        self.decide(
            state,
            w,
            Knob::PrefetchDepth,
            None,
            depth as u64,
            new as u64,
            reason,
        );
    }

    // ---- loop 2: SLO enforcement (AIMD on weights) ---------------------

    fn slo_loop(&self, state: &mut CtrlState, w: &WindowSample) {
        // Split borrow: move the tenant map out so `decide` can borrow state.
        let mut tenants = std::mem::take(&mut state.tenants);
        for (&t, tc) in tenants.iter_mut() {
            if tc.cooldown > 0 {
                tc.cooldown -= 1;
                continue;
            }
            let labels = Labels::tenant(t);
            let ops = w.deltas.counter("agile_replay_ops_total", labels);
            if ops < self.policy.min_ops_per_window {
                continue; // no signal this window; hold votes
            }
            let p99_us = w
                .deltas
                .histo("agile_replay_latency_cycles", labels)
                .and_then(|h| h.p99())
                .map(|cycles| cycles as f64 / (self.clock_ghz * 1000.0));
            let iops = w.rate("agile_replay_ops_total", labels, self.clock_ghz);
            let mut violated = false;
            let mut reason = String::new();
            if tc.spec.p99_target_us > 0.0 {
                if let Some(p99) = p99_us {
                    if p99 > tc.spec.p99_target_us {
                        violated = true;
                        reason = format!("p99 {p99:.1}us > target {:.1}us", tc.spec.p99_target_us);
                    }
                }
            }
            if !violated && tc.spec.min_iops > 0.0 && iops < tc.spec.min_iops {
                violated = true;
                reason = format!("iops {iops:.0} < floor {:.0}", tc.spec.min_iops);
            }
            if violated {
                tc.ok_windows = 0;
                tc.violate_votes += 1;
                if let Some(i) = &self.instruments {
                    i.slo_violations.inc(t);
                }
                if tc.violate_votes >= self.policy.vote_windows {
                    tc.violate_votes = 0;
                    tc.cooldown = self.policy.cooldown_windows;
                    self.boost_tenant(state, w, t, tc, &reason);
                }
            } else {
                tc.violate_votes = 0;
                tc.ok_windows += 1;
                if tc.ok_windows >= self.policy.settle_windows {
                    tc.ok_windows = 0;
                    self.decay_tenant(state, w, t, tc);
                }
            }
        }
        state.tenants = tenants;
    }

    /// Additive increase: one `weight_step` on the tenant's WFQ weight,
    /// mirrored onto its cache share.
    fn boost_tenant(
        &self,
        state: &mut CtrlState,
        w: &WindowSample,
        t: u32,
        tc: &mut TenantCtl,
        reason: &str,
    ) {
        if let Some(wfq) = &self.knobs.wfq {
            let old = wfq.weight(t).unwrap_or(1);
            tc.base_weight.get_or_insert(old);
            let wanted = old.saturating_add(self.policy.weight_step.max(1));
            if let Ok(new) = wfq.set_weight(t, wanted) {
                if new != old {
                    if let Some(i) = &self.instruments {
                        i.wfq_weight.with(t).set(new);
                    }
                    self.decide(state, w, Knob::WfqWeight, Some(t), old, new, reason.into());
                }
            }
        }
        if let Some(shares) = &self.knobs.cache_shares {
            let old = shares.weight(t).unwrap_or(1);
            tc.base_share.get_or_insert(old);
            let wanted = old.saturating_add(self.policy.weight_step.max(1));
            if let Ok(new) = shares.set_weight(t, wanted) {
                if new != old {
                    if let Some(i) = &self.instruments {
                        i.cache_share.with(t).set(new);
                    }
                    self.decide(state, w, Knob::CacheShare, Some(t), old, new, reason.into());
                }
            }
        }
    }

    /// Multiplicative decrease: decay a boosted weight by 3/4, never below
    /// the base captured before the first boost.
    fn decay_tenant(&self, state: &mut CtrlState, w: &WindowSample, t: u32, tc: &TenantCtl) {
        if let (Some(wfq), Some(base)) = (&self.knobs.wfq, tc.base_weight) {
            if let Some(old) = wfq.weight(t) {
                let new = (old * 3 / 4).max(base);
                if new != old && wfq.set_weight(t, new).is_ok() {
                    if let Some(i) = &self.instruments {
                        i.wfq_weight.with(t).set(new);
                    }
                    self.decide(
                        state,
                        w,
                        Knob::WfqWeight,
                        Some(t),
                        old,
                        new,
                        "slo held; decaying toward base".into(),
                    );
                }
            }
        }
        if let (Some(shares), Some(base)) = (&self.knobs.cache_shares, tc.base_share) {
            if let Some(old) = shares.weight(t) {
                let new = (old * 3 / 4).max(base);
                if new != old && shares.set_weight(t, new).is_ok() {
                    if let Some(i) = &self.instruments {
                        i.cache_share.with(t).set(new);
                    }
                    self.decide(
                        state,
                        w,
                        Knob::CacheShare,
                        Some(t),
                        old,
                        new,
                        "slo held; decaying toward base".into(),
                    );
                }
            }
        }
    }

    // ---- loop 3: idle backoff ------------------------------------------

    fn backoff_loop(&self, state: &mut CtrlState, w: &WindowSample) {
        let completions: u64 = w
            .deltas
            .family("agile_service_completions_total")
            .map(|s| s.value.as_u64())
            .sum();
        let cell = self.knobs.idle_backoff.as_ref().unwrap();
        let current = cell.load();
        let (new, reason) = if completions == 0 {
            if state.idle_streak < MAX_BACKOFF_DOUBLINGS {
                state.idle_streak += 1;
            }
            let scaled = state.backoff_base.saturating_shl(state.idle_streak);
            (scaled, format!("idle for {} windows", state.idle_streak))
        } else {
            state.idle_streak = 0;
            (
                state.backoff_base,
                format!("{completions} completions; snap to base"),
            )
        };
        if new == current {
            return;
        }
        cell.store(new);
        if let Some(i) = &self.instruments {
            i.idle_backoff.set(new);
        }
        self.decide(state, w, Knob::IdleBackoff, None, current, new, reason);
    }

    // ---- shared ---------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn decide(
        &self,
        state: &mut CtrlState,
        w: &WindowSample,
        knob: Knob,
        tenant: Option<u32>,
        old: u64,
        new: u64,
        reason: String,
    ) {
        if let Some(i) = &self.instruments {
            i.decisions.inc();
        }
        if let Some(sink) = self.trace.get() {
            sink.record(
                TraceEvent::new(TraceEventKind::CtrlDecision, w.end)
                    .target(knob.code(), new)
                    .tenant(tenant.unwrap_or(u32::MAX)),
            );
        }
        state.decisions.push(CtrlDecision {
            window: w.index,
            at: w.end,
            knob,
            tenant,
            old,
            new,
            reason,
        });
    }
}

/// `u64::checked_shl` that saturates instead of wrapping (backoff growth).
trait SaturatingShl {
    fn saturating_shl(self, n: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, n: u32) -> u64 {
        self.checked_shl(n).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knobs::{KnobError, TenantWeights};
    use agile_sim::wake::WatchedU64;
    use std::sync::atomic::AtomicU32;

    struct TestWeights(Mutex<BTreeMap<u32, u64>>);

    impl TestWeights {
        fn new(pairs: &[(u32, u64)]) -> Arc<Self> {
            Arc::new(TestWeights(Mutex::new(pairs.iter().copied().collect())))
        }
    }

    impl TenantWeights for TestWeights {
        fn set_weight(&self, tenant: u32, weight: u64) -> Result<u64, KnobError> {
            if weight == 0 {
                return Err(KnobError::Zero);
            }
            self.0.lock().insert(tenant, weight);
            Ok(weight)
        }
        fn weight(&self, tenant: u32) -> Option<u64> {
            self.0.lock().get(&tenant).copied()
        }
    }

    fn registry_with_cache_counters(
        hits: u64,
        misses: u64,
        full_sets: u64,
    ) -> Arc<MetricsRegistry> {
        let reg = MetricsRegistry::new();
        reg.counter("agile_cache_hits_total", Labels::NONE)
            .add(hits);
        reg.counter("agile_cache_misses_total", Labels::NONE)
            .add(misses);
        reg.counter("agile_cache_full_sets_total", Labels::NONE)
            .add(full_sets);
        reg
    }

    #[test]
    fn prefetch_loop_votes_down_under_thrash_with_hysteresis() {
        let reg = registry_with_cache_counters(0, 0, 0);
        let sampler = WindowedSampler::new(Arc::clone(&reg), 1000);
        let depth = Arc::new(AtomicU32::new(4));
        let knobs = KnobSet {
            prefetch_depth: Some(Arc::clone(&depth)),
            ..KnobSet::none()
        };
        let ctrl = Controller::new(
            ControlPolicy::prefetch_only(),
            Vec::new(),
            knobs,
            Arc::clone(&sampler),
            1.0,
            None,
        );
        let hits = reg.counter("agile_cache_hits_total", Labels::NONE);
        let misses = reg.counter("agile_cache_misses_total", Labels::NONE);
        // Window 1: 10% hit rate — one down vote, no action yet (hysteresis).
        hits.add(10);
        misses.add(90);
        ctrl.poll(1_000);
        assert_eq!(depth.load(Ordering::Relaxed), 4);
        // Window 2: still thrashing — second vote halves the depth.
        hits.add(10);
        misses.add(90);
        ctrl.poll(2_000);
        assert_eq!(depth.load(Ordering::Relaxed), 2);
        let report = ctrl.report();
        assert_eq!(report.decisions.len(), 1);
        assert_eq!(report.decisions[0].knob, Knob::PrefetchDepth);
        assert_eq!((report.decisions[0].old, report.decisions[0].new), (4, 2));
    }

    #[test]
    fn full_sets_not_no_line_retries_are_the_pressure() {
        let reg = registry_with_cache_counters(0, 0, 0);
        let sampler = WindowedSampler::new(Arc::clone(&reg), 1000);
        // At the clamp, so healthy windows move nothing.
        let depth = Arc::new(AtomicU32::new(8));
        let ctrl = Controller::new(
            ControlPolicy::prefetch_only(),
            Vec::new(),
            KnobSet {
                prefetch_depth: Some(Arc::clone(&depth)),
                ..KnobSet::none()
            },
            Arc::clone(&sampler),
            1.0,
            None,
        );
        let hits = reg.counter("agile_cache_hits_total", Labels::NONE);
        let misses = reg.counter("agile_cache_misses_total", Labels::NONE);
        let no_line = reg.counter("agile_cache_no_line_total", Labels::NONE);
        let full_sets = reg.counter("agile_cache_full_sets_total", Labels::NONE);
        // Warps retrying against a full set: many no-line lookups, one set.
        for i in 1..=2u64 {
            hits.add(95);
            misses.add(5);
            no_line.add(1_000);
            full_sets.add(1);
            ctrl.poll(i * 1_000);
        }
        assert_eq!(depth.load(Ordering::Relaxed), 8, "retries are not pressure");
        // A fifth of the lookups find a set full: two down votes.
        for i in 3..=4u64 {
            hits.add(95);
            misses.add(5);
            full_sets.add(20);
            ctrl.poll(i * 1_000);
        }
        assert_eq!(depth.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn prefetch_loop_raises_depth_on_healthy_windows_and_clamps() {
        let reg = registry_with_cache_counters(0, 0, 0);
        let sampler = WindowedSampler::new(Arc::clone(&reg), 1000);
        let depth = Arc::new(AtomicU32::new(7));
        let mut policy = ControlPolicy::prefetch_only();
        policy.cooldown_windows = 0;
        policy.max_prefetch_depth = 8;
        let ctrl = Controller::new(
            policy,
            Vec::new(),
            KnobSet {
                prefetch_depth: Some(Arc::clone(&depth)),
                ..KnobSet::none()
            },
            Arc::clone(&sampler),
            1.0,
            None,
        );
        let hits = reg.counter("agile_cache_hits_total", Labels::NONE);
        let misses = reg.counter("agile_cache_misses_total", Labels::NONE);
        for i in 1..=8u64 {
            hits.add(95);
            misses.add(5);
            ctrl.poll(i * 1_000);
        }
        // 8 healthy windows = 4 up-decisions, but the clamp stops at 8.
        assert_eq!(depth.load(Ordering::Relaxed), 8);
        let ups = ctrl.report().decisions_for(Knob::PrefetchDepth).len();
        assert_eq!(ups, 1, "only the 7->8 move fits under the clamp");
    }

    #[test]
    fn quiet_windows_hold_votes_instead_of_acting() {
        let reg = registry_with_cache_counters(0, 0, 0);
        let sampler = WindowedSampler::new(Arc::clone(&reg), 1000);
        let depth = Arc::new(AtomicU32::new(4));
        let ctrl = Controller::new(
            ControlPolicy::prefetch_only(),
            Vec::new(),
            KnobSet {
                prefetch_depth: Some(Arc::clone(&depth)),
                ..KnobSet::none()
            },
            Arc::clone(&sampler),
            1.0,
            None,
        );
        // Below MIN_LOOKUPS: windows close but carry no signal.
        for i in 1..=4u64 {
            reg.counter("agile_cache_misses_total", Labels::NONE).add(8);
            ctrl.poll(i * 1_000);
        }
        assert_eq!(depth.load(Ordering::Relaxed), 4);
        assert!(ctrl.report().decisions.is_empty());
    }

    #[test]
    fn slo_loop_boosts_on_violation_and_decays_after_settle() {
        let reg = MetricsRegistry::new();
        let ops = reg.counter("agile_replay_ops_total", Labels::tenant(1));
        let lat = reg.histo("agile_replay_latency_cycles", Labels::tenant(1));
        let sampler = WindowedSampler::new(Arc::clone(&reg), 1000);
        let wfq = TestWeights::new(&[(1, 4)]);
        let shares = TestWeights::new(&[(1, 4)]);
        let mut policy = ControlPolicy::slo_only();
        policy.vote_windows = 1;
        policy.cooldown_windows = 0;
        policy.settle_windows = 2;
        policy.min_ops_per_window = 1;
        policy.weight_step = 4;
        let ctrl = Controller::new(
            policy,
            vec![SloSpec::p99(1, 10.0)], // 10us at 1 GHz = 10_000 cycles
            KnobSet {
                wfq: Some(wfq.clone() as Arc<dyn TenantWeights>),
                cache_shares: Some(shares.clone() as Arc<dyn TenantWeights>),
                ..KnobSet::none()
            },
            Arc::clone(&sampler),
            1.0,
            None,
        );
        // Two violating windows: p99 = 50_000 cycles = 50us > 10us target.
        for i in 1..=2u64 {
            for _ in 0..32 {
                ops.inc();
                lat.record(50_000);
            }
            ctrl.poll(i * 1_000);
        }
        assert!(wfq.weight(1).unwrap() > 4, "weight boosted under violation");
        assert_eq!(wfq.weight(1), shares.weight(1), "share mirrors WFQ");
        let boosted = wfq.weight(1).unwrap();
        // Four healthy windows: two settle periods of multiplicative decay.
        for i in 3..=6u64 {
            for _ in 0..32 {
                ops.inc();
                lat.record(1_000); // 1us, well inside target
            }
            ctrl.poll(i * 1_000);
        }
        let decayed = wfq.weight(1).unwrap();
        assert!(decayed < boosted, "weight decays once the SLO holds");
        assert!(decayed >= 4, "never below the base weight");
    }

    #[test]
    fn backoff_loop_grows_exponentially_and_snaps_back() {
        let reg = MetricsRegistry::new();
        let comp = reg.counter("agile_service_completions_total", Labels::partition(0));
        let sampler = WindowedSampler::new(Arc::clone(&reg), 1000);
        let backoff = Arc::new(WatchedU64::new(500));
        let ctrl = Controller::new(
            ControlPolicy::backoff_only(),
            Vec::new(),
            KnobSet {
                idle_backoff: Some(Arc::clone(&backoff)),
                ..KnobSet::none()
            },
            Arc::clone(&sampler),
            1.0,
            None,
        );
        // Three idle windows: 500 -> 1000 -> 2000 -> 4000.
        for i in 1..=3u64 {
            ctrl.poll(i * 1_000);
        }
        assert_eq!(backoff.load(), 4_000);
        // A completion burst snaps straight back to base.
        comp.add(10);
        ctrl.poll(4_000);
        assert_eq!(backoff.load(), 500);
        let decisions = ctrl.report();
        let moves: Vec<(u64, u64)> = decisions
            .decisions_for(Knob::IdleBackoff)
            .iter()
            .map(|d| (d.old, d.new))
            .collect();
        assert_eq!(
            moves,
            vec![(500, 1_000), (1_000, 2_000), (2_000, 4_000), (4_000, 500)]
        );
    }

    #[test]
    fn report_captures_final_knob_values() {
        let reg = MetricsRegistry::new();
        let sampler = WindowedSampler::new(Arc::clone(&reg), 1000);
        let depth = Arc::new(AtomicU32::new(3));
        let backoff = Arc::new(WatchedU64::new(750));
        let wfq = TestWeights::new(&[(2, 9)]);
        let ctrl = Controller::new(
            ControlPolicy::all(),
            vec![SloSpec::min_iops(2, 100.0)],
            KnobSet {
                prefetch_depth: Some(depth),
                idle_backoff: Some(backoff),
                wfq: Some(wfq as Arc<dyn TenantWeights>),
                cache_shares: None,
            },
            sampler,
            1.0,
            None,
        );
        let report = ctrl.report();
        assert_eq!(report.final_knobs.prefetch_depth, Some(3));
        assert_eq!(report.final_knobs.idle_backoff, Some(750));
        assert_eq!(report.final_knobs.wfq_weights, vec![(2, 9)]);
        assert!(report.final_knobs.cache_shares.is_empty());
    }
}
