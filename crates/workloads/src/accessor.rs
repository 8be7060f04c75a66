//! The page-accessor abstraction.
//!
//! The graph and vector workloads are written once and executed over three
//! different data paths, exactly like the three-step measurement of §4.5:
//!
//! 1. [`HbmAccessor`] — the data is already resident in GPU HBM and accesses
//!    only pay the memory-system cost ("Kernel time");
//! 2. [`AgileAccessor`] — accesses go through the AGILE software cache and,
//!    on misses, the asynchronous NVMe path ("Cache API" / "I/O API" time
//!    depending on whether the cache was preloaded);
//! 3. [`BamAccessor`] — the same through the synchronous BaM baseline, where
//!    the calling warp also has to poll completions itself.
//!
//! An accessor call is warp-granular and non-blocking: it returns the cycle
//! cost of the attempt and whether every requested page is now resident. The
//! kernel retries (after `retry_hint`) until the access succeeds — or, when
//! the accessor says the retries would only find the same fills in flight
//! ([`AccessResult::wait`]), sleeps until one of them lands.

use agile_core::{AgileCtrl, ReadOutcome, WarpWait};
use agile_sim::wake::{SleeperId, Wait, WaitReason};
use agile_sim::Cycles;
use bam_baseline::BamCtrl;
use nvme_sim::Lba;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Result of one warp-granular access attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Cycles the attempt cost (charged to the warp as busy time).
    pub cost: Cycles,
    /// True when every requested page is resident and the data may be used.
    pub ready: bool,
    /// Suggested wait before retrying when `ready` is false.
    pub retry_hint: Cycles,
    /// When `ready` is false: what the warp waits for, for the kernel to
    /// pass on in its `WarpStep::Stall`. Parkable when every retry at
    /// `retry_hint` — or at `retry_hint.max(cost)`, the two spacings kernels
    /// use — would find the same fills still in flight at this same cost.
    pub wait: Wait,
}

/// A warp-granular page access path.
pub trait PageAccessor: Send + Sync {
    /// Try to make all `requests` resident for the calling warp.
    fn access(&self, warp: u64, requests: &[(u32, Lba)], now: Cycles) -> AccessResult;

    /// Issue asynchronous prefetches for `requests` (no-op on paths without a
    /// prefetch concept). Returns the cycle cost.
    fn prefetch(&self, _warp: u64, _requests: &[(u32, Lba)], _now: Cycles) -> Cycles {
        Cycles::ZERO
    }

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Data already in HBM: accesses pay only the global-memory cost.
pub struct HbmAccessor {
    /// Cycles per (coalesced) page touch.
    pub cycles_per_access: u64,
}

impl HbmAccessor {
    /// Accessor with the default global-memory cost from the cost model.
    pub fn new() -> Self {
        HbmAccessor {
            cycles_per_access: agile_sim::costs::GpuCosts::default().global_mem_access,
        }
    }
}

impl Default for HbmAccessor {
    fn default() -> Self {
        Self::new()
    }
}

impl PageAccessor for HbmAccessor {
    fn access(&self, _warp: u64, requests: &[(u32, Lba)], _now: Cycles) -> AccessResult {
        // One coalesced HBM transaction per distinct page touched by the warp.
        let unique = agile_core::coalesce::coalesce_warp(requests).unique.len() as u64;
        AccessResult {
            cost: Cycles(self.cycles_per_access * unique.max(1)),
            ready: true,
            retry_hint: Cycles(1),
            wait: Wait::default(),
        }
    }
    fn name(&self) -> &'static str {
        "hbm"
    }
}

/// What one warp carries from an attempt to its retry: the [`WarpWait`] of
/// its read and the sleeper it parks on — and the room its prefetches work
/// in.
#[derive(Default)]
struct WarpSlot {
    wait: WarpWait,
    sleeper: Option<SleeperId>,
    prefetch: WarpWait,
}

/// The [`WarpSlot`] of every warp behind one shared accessor.
/// [`PageAccessor::access`] is stateless and shared by all warps of a
/// kernel, so the accessor keeps each warp's state, keyed by warp id.
#[derive(Default)]
struct WaitTable(Mutex<HashMap<u64, WarpSlot>>);

impl WaitTable {
    /// Run one attempt of `warp` with its state.
    fn with<R>(&self, warp: u64, attempt: impl FnOnce(&mut WarpSlot) -> R) -> R {
        attempt(self.0.lock().entry(warp).or_default())
    }
}

/// Accesses served through the AGILE controller (asynchronous path).
pub struct AgileAccessor {
    ctrl: Arc<AgileCtrl>,
    waits: WaitTable,
}

impl AgileAccessor {
    /// Wrap an AGILE controller.
    pub fn new(ctrl: Arc<AgileCtrl>) -> Self {
        AgileAccessor {
            ctrl,
            waits: WaitTable::default(),
        }
    }

    /// The wrapped controller.
    pub fn ctrl(&self) -> &Arc<AgileCtrl> {
        &self.ctrl
    }
}

impl PageAccessor for AgileAccessor {
    fn access(&self, warp: u64, requests: &[(u32, Lba)], now: Cycles) -> AccessResult {
        self.waits.with(warp, |slot| {
            let (cost, outcome) = self.ctrl.read_warp(warp, requests, now, &mut slot.wait);
            if matches!(outcome, ReadOutcome::Ready(_)) {
                return AccessResult {
                    cost,
                    ready: true,
                    retry_hint: Cycles(1),
                    wait: Wait::default(),
                };
            }
            let io = self.ctrl.io();
            let retry_hint = Cycles(1_500);
            // Sleep only from an attempt that cost what the retries will:
            // one that issued fills is followed by a longer interval than
            // the ones after it under `retry_hint.max(cost)`.
            let repoll = io.repoll_cost(&slot.wait);
            let wait = io
                .park_on_fills(&mut slot.sleeper, Some(&slot.wait), std::iter::empty())
                .only_if(retry_hint.max(cost) == retry_hint.max(repoll));
            AccessResult {
                cost,
                ready: false,
                retry_hint,
                wait,
            }
        })
    }
    fn prefetch(&self, warp: u64, requests: &[(u32, Lba)], now: Cycles) -> Cycles {
        self.waits.with(warp, |slot| {
            self.ctrl
                .prefetch_warp(warp, requests, now, &mut slot.prefetch)
        })
    }
    fn name(&self) -> &'static str {
        "agile"
    }
}

/// Accesses served through the synchronous BaM baseline: the calling warp
/// polls completions itself while it waits.
pub struct BamAccessor {
    ctrl: Arc<BamCtrl>,
    waits: WaitTable,
}

impl BamAccessor {
    /// Wrap a BaM controller.
    pub fn new(ctrl: Arc<BamCtrl>) -> Self {
        BamAccessor {
            ctrl,
            waits: WaitTable::default(),
        }
    }

    /// The wrapped controller.
    pub fn ctrl(&self) -> &Arc<BamCtrl> {
        &self.ctrl
    }
}

impl PageAccessor for BamAccessor {
    fn access(&self, warp: u64, requests: &[(u32, Lba)], now: Cycles) -> AccessResult {
        let (mut cost, outcome) = self.waits.with(warp, |slot| {
            self.ctrl
                .read_warp_sync(warp, requests, now, &mut slot.wait)
        });
        if matches!(outcome, ReadOutcome::Ready(_)) {
            return AccessResult {
                cost,
                ready: true,
                retry_hint: Cycles(1),
                wait: Wait::default(),
            };
        }
        // Synchronous model: the warp immediately burns a polling pass over
        // every device it may have outstanding commands on.
        for dev in 0..self.ctrl.io().device_count() {
            let (poll_cost, _) = self.ctrl.poll_once(warp, dev, now);
            cost += poll_cost;
        }
        // Every retry polls the CQs again: never a wait to sleep through.
        AccessResult {
            cost,
            ready: false,
            retry_hint: Cycles(1_500),
            wait: Wait::polling(WaitReason::Completion),
        }
    }
    fn name(&self) -> &'static str {
        "bam"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hbm_accessor_counts_unique_pages() {
        let acc = HbmAccessor::new();
        let reqs = vec![(0u32, 1u64), (0, 1), (0, 2)];
        let r = acc.access(0, &reqs, Cycles(0));
        assert!(r.ready);
        assert_eq!(r.cost, Cycles(2 * acc.cycles_per_access));
        assert_eq!(acc.name(), "hbm");
    }

    /// Regression: BaM's user-thread polling used to stamp every
    /// `ServiceCompletion` at simulated time 0, so a traced accessor run
    /// showed completions *before* their own submits.
    #[test]
    fn traced_bam_accessor_completes_no_command_before_its_submit() {
        use agile_sim::trace::TraceEventKind;
        use agile_trace::MemorySink;
        use bam_baseline::BamConfig;
        use nvme_sim::{QueuePair, SsdConfig, SsdDevice};

        let mut dev = SsdDevice::new(SsdConfig::new(0).with_capacity_pages(1 << 16));
        let qp = QueuePair::new(0, 64);
        dev.register_queue_pair(Arc::clone(&qp));
        let cfg = BamConfig::small_test().with_queue_pairs(1);
        let acc = BamAccessor::new(Arc::new(BamCtrl::new(cfg, vec![vec![qp]])));
        let sink = Arc::new(MemorySink::new());
        assert!(acc.ctrl().io().set_trace_sink(sink.clone() as Arc<_>));

        let reqs = [(0u32, 3u64), (0, 4)];
        let mut now = Cycles(5_000);
        while !acc.access(0, &reqs, now).ready {
            now += Cycles(2_000);
            assert!(now.raw() < 10_000_000, "the pages never arrived");
            dev.advance_to(now);
        }
        let events = sink.take_events();
        let submit_at = |cid| {
            events
                .iter()
                .find(|e| e.kind == TraceEventKind::Submit && e.cid == cid)
                .expect("every completion has a submit")
                .at
        };
        let done: Vec<_> = events
            .iter()
            .filter(|e| e.kind == TraceEventKind::ServiceCompletion)
            .collect();
        assert_eq!(done.len(), 2, "both fills were retired by the accessor");
        for e in done {
            assert!(
                e.at > submit_at(e.cid),
                "completion at {} precedes its submit",
                e.at
            );
        }
    }

    /// A kernel that re-polls every `retry_hint.max(cost)` may only sleep
    /// from an attempt that cost what its retries will cost.
    #[test]
    fn agile_accessor_offers_sleep_only_on_the_uniform_part_of_the_retry_grid() {
        use agile_core::AgileConfig;
        use nvme_sim::QueuePair;

        let cfg = AgileConfig::small_test().with_queue_pairs(2);
        let queues = (0..2u16).map(|q| QueuePair::new(q, 64)).collect();
        let acc = AgileAccessor::new(Arc::new(AgileCtrl::new(cfg, vec![queues])));
        let io = acc.ctrl().io();

        // 16 pages: the attempt that issues the fills costs far more than
        // the retries that find them in flight, and both exceed the hint.
        let wide: Vec<(u32, Lba)> = (0..16).map(|lba| (0, lba)).collect();
        let first = acc.access(0, &wide, Cycles(0));
        assert!(!first.ready);
        assert_eq!(first.wait, Wait::polling(WaitReason::CacheFill));
        let retry = acc.access(0, &wide, first.retry_hint.max(first.cost));
        assert!(retry.cost > retry.retry_hint && retry.cost < first.cost);
        assert!(
            retry.wait.sleeper.is_some(),
            "from here on the grid is even"
        );
        assert_eq!(
            retry.cost,
            acc.waits.with(0, |slot| io.repoll_cost(&slot.wait))
        );

        // One page: even the issuing attempt stays under the hint, so the
        // interval is the hint from the start and the warp sleeps at once.
        let first = acc.access(1, &[(0, 40)], Cycles(0));
        assert!(first.cost <= first.retry_hint);
        assert!(first.wait.sleeper.is_some());
        assert_ne!(
            first.wait.sleeper, retry.wait.sleeper,
            "one sleeper per warp"
        );
    }

    #[test]
    fn hbm_accessor_handles_empty_requests() {
        let acc = HbmAccessor::new();
        let r = acc.access(0, &[], Cycles(0));
        assert!(r.ready);
        assert!(r.cost.raw() > 0);
    }
}
