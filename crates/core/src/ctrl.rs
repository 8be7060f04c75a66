//! The AGILE controller: the device-side API surface (§3.5).
//!
//! `AgileCtrl` is what warp kernels hold an `Arc` to — the analogue of the
//! `AGILE_CTRL *ctrl` pointer in Listing 1. It provides the paper's three
//! access methods:
//!
//! 1. **`prefetch`** ([`AgileCtrl::prefetch_warp`]) — asynchronously pull SSD
//!    pages into the software cache; the caller continues immediately and
//!    later reads the data through the cache.
//! 2. **`async_issue`** ([`AgileCtrl::async_read`] / [`AgileCtrl::async_write`])
//!    — asynchronous transfers between SSDs and user-registered buffers
//!    ([`crate::transaction::AgileBuf`]), returning a barrier the caller polls.
//! 3. **Array-like synchronous access** ([`AgileCtrl::read_warp`]) — the
//!    `ctrl->getArrayWrap<T>()[dev][idx]` view: a blocking-by-retry read that
//!    transparently checks the cache and issues fills on misses.
//!
//! Every method is **non-blocking**: it returns a cycle cost (charged to the
//! calling warp as busy time) plus an outcome that may ask the caller to
//! retry later. No method ever holds a lock across a wait, which is the heart
//! of the paper's deadlock-freedom argument.
//!
//! All NVMe I/O and every cache access funnels through the shared
//! [`IoPath`] ([`AgileCtrl::io`]) — the same submit, retire and miss-service
//! code the BaM baseline runs, at AGILE's per-call costs. What lives here is
//! what only AGILE has: the Share Table, prefetching, the user-buffer
//! `async_issue` pair with its barrier probe, and the knobs and stop flag of
//! the background service.

use crate::config::{AgileConfig, CachePolicyKind};
use crate::io_path::{
    IoPath, IoStats, LineWait, PageState, PathCosts, ReadOutcome, Traffic, WarpWait,
};
use crate::transaction::{AgileBuf, Barrier, Transaction};
use agile_cache::{
    CachePolicy, ClockPolicy, ShardedCache, ShareTable, SoftwareCache, TenantShare, NO_TENANT,
};
use agile_sim::wake::{WatchList, WatchedU64};
use agile_sim::Cycles;
use nvme_sim::{DmaHandle, Lba, NvmeCommand, PageToken, QueuePair, StorageTopology};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Outcome of an asynchronous issue (`asyncRead` / `asyncWrite` / raw I/O).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueOutcome {
    /// The command was handed to an SQ; completion will be signalled through
    /// the associated barrier.
    Issued,
    /// The data was already available (cache or Share Table); the barrier has
    /// already been completed and no NVMe command was needed.
    AlreadyAvailable,
    /// No SQ entry (or no shareable resource) was available; retry later.
    Retry,
}

impl IssueOutcome {
    fn of_submit(issued: bool) -> Self {
        if issued {
            IssueOutcome::Issued
        } else {
            IssueOutcome::Retry
        }
    }
}

/// Per-category API statistics (used by tests and the Figure 11 breakdown):
/// the shared I/O path's counters plus the two calls only AGILE has.
#[derive(Debug, Clone, Default)]
pub struct ApiStats {
    /// The I/O path's counters.
    pub io: IoStats,
    /// prefetch_warp invocations.
    pub prefetch_calls: u64,
    /// asyncRead/asyncWrite invocations.
    pub async_calls: u64,
}

/// The AGILE controller shared by user kernels and the service kernel.
pub struct AgileCtrl {
    cfg: AgileConfig,
    io: IoPath,
    share_table: ShareTable,
    stop_service: AtomicBool,
    /// Service warps asleep on empty CQs: a stop request has to reach them.
    stop_watchers: WatchList,
    prefetch_calls: AtomicU64,
    async_calls: AtomicU64,
    /// Live cached-path prefetch depth in batches of lookahead (1 = the
    /// historical one-batch pipeline). Warps read it per batch, the control
    /// plane retunes it online; one relaxed load on the consumer side.
    prefetch_depth: Arc<AtomicU32>,
    /// Live idle backoff of the AGILE service sweeps in cycles. Partitions
    /// clone the `Arc` at construction and read it per idle round, so an
    /// online exponential-backoff controller reaches every partition — and,
    /// the cell being watched, every service warp asleep on the old value.
    idle_backoff: Arc<WatchedU64>,
}

fn build_policy(cfg: &AgileConfig) -> Box<dyn CachePolicy> {
    match cfg.cache_policy {
        CachePolicyKind::Clock => Box::new(ClockPolicy::new()),
        CachePolicyKind::TenantShare => Box::new(TenantShare::from_weights(&cfg.cache_shares)),
    }
}

impl AgileCtrl {
    /// Build a controller over the queue pairs of each device (outer index =
    /// device id, inner = queue pair) with no attached topology — bare-queue
    /// unit rigs. Production construction goes through
    /// [`AgileCtrl::with_topology`] (see `bam_baseline::HostBuilder`).
    pub fn new(cfg: AgileConfig, device_queues: Vec<Vec<Arc<QueuePair>>>) -> Self {
        AgileCtrl::build(cfg, device_queues, None)
    }

    /// Build a controller whose submissions are charged the topology's array
    /// lock and whose striped page space is resolvable through
    /// [`IoPath::resolve_page`]. Normally constructed by
    /// [`crate::host::Host::build`].
    pub fn with_topology(
        cfg: AgileConfig,
        device_queues: Vec<Vec<Arc<QueuePair>>>,
        topology: Arc<StorageTopology>,
    ) -> Self {
        AgileCtrl::build(cfg, device_queues, Some(topology))
    }

    fn build(
        cfg: AgileConfig,
        device_queues: Vec<Vec<Arc<QueuePair>>>,
        topology: Option<Arc<StorageTopology>>,
    ) -> Self {
        let io = IoPath::new(
            PathCosts::agile(&cfg.costs.api),
            cfg.costs.gpu.clone(),
            SoftwareCache::new(cfg.cache.clone(), build_policy(&cfg)),
            device_queues,
            topology,
        );
        let idle_backoff = cfg.costs.api.agile_service_idle_backoff.max(1);
        AgileCtrl {
            cfg,
            io,
            share_table: ShareTable::new(),
            stop_service: AtomicBool::new(false),
            stop_watchers: WatchList::new(),
            prefetch_calls: AtomicU64::new(0),
            async_calls: AtomicU64::new(0),
            prefetch_depth: Arc::new(AtomicU32::new(1)),
            idle_backoff: Arc::new(WatchedU64::new(idle_backoff)),
        }
    }

    /// The configuration this controller was built with.
    pub fn config(&self) -> &AgileConfig {
        &self.cfg
    }

    /// The shared I/O path: queues, topology, hooks, submit / retire and the
    /// tenant-attributed cached and raw accesses.
    pub fn io(&self) -> &IoPath {
        &self.io
    }

    /// The software cache (exposed for preloading and statistics): one
    /// [`SoftwareCache`], under the old name the benchmark package spells.
    pub fn cache(&self) -> &ShardedCache {
        self.io.cache()
    }

    /// Current cached-path prefetch depth in batches of lookahead. Warps
    /// load this at every batch boundary, so online updates take effect on
    /// the very next batch a warp issues.
    pub fn prefetch_depth(&self) -> u32 {
        self.prefetch_depth.load(Ordering::Relaxed)
    }

    /// Set the cached-path prefetch depth (0 disables prefetching).
    pub fn set_prefetch_depth(&self, depth: u32) {
        self.prefetch_depth.store(depth, Ordering::Relaxed);
    }

    /// The shared prefetch-depth cell, for the control plane to actuate
    /// without holding a controller reference.
    pub fn prefetch_depth_cell(&self) -> Arc<AtomicU32> {
        Arc::clone(&self.prefetch_depth)
    }

    /// The shared idle-backoff cell the service reads at each idle round.
    /// Seeded from `agile_service_idle_backoff`; the control plane may
    /// scale it online (exponential backoff under idleness). A
    /// store wakes the service warps sleeping on empty queues, which pick
    /// the new interval up at their next grid point, as a polling warp would.
    pub fn idle_backoff_cell(&self) -> Arc<WatchedU64> {
        Arc::clone(&self.idle_backoff)
    }

    /// The Share Table.
    pub fn share_table(&self) -> &ShareTable {
        &self.share_table
    }

    /// Snapshot of the API statistics.
    pub fn stats(&self) -> ApiStats {
        ApiStats {
            io: self.io.stats(),
            prefetch_calls: self.prefetch_calls.load(Ordering::Relaxed),
            async_calls: self.async_calls.load(Ordering::Relaxed),
        }
    }

    // ------------------------------------------------------------------
    // Method 1: prefetch
    // ------------------------------------------------------------------

    /// Asynchronously prefetch the given `(device, LBA)` pages into the
    /// software cache on behalf of one warp.
    ///
    /// Returns the cycle cost of the call and the subset of requests that
    /// could not even be *started* (no cache line available or every SQ
    /// full); the caller retries those later. Requests that hit, are already
    /// in flight, or were issued successfully need no further action — the
    /// data will be readable through [`AgileCtrl::read_warp`] once the AGILE
    /// service processes the completions.
    ///
    /// Untenanted: cache accounting is skipped and trace events carry the
    /// `NO_TENANT` sentinel (`u32::MAX`); multi-tenant workloads use
    /// [`AgileCtrl::prefetch_warp_as`].
    pub fn prefetch_warp(
        &self,
        warp: u64,
        requests: &[(u32, Lba)],
        now: Cycles,
    ) -> (Cycles, Vec<(u32, Lba)>) {
        self.prefetch_warp_as(warp, NO_TENANT, requests, now)
    }

    /// [`AgileCtrl::prefetch_warp`] with an explicit tenant identity: cache
    /// hits/misses are attributed to `tenant`, filled lines become owned by
    /// it (the per-way view a tenant-aware eviction policy bounds), and
    /// cache trace events carry it. **Accounting only** — the fills and any
    /// dirty-victim write-backs are [`Traffic::System`]: system ops never
    /// wait behind tenant arbitration.
    pub fn prefetch_warp_as(
        &self,
        warp: u64,
        tenant: u32,
        requests: &[(u32, Lba)],
        now: Cycles,
    ) -> (Cycles, Vec<(u32, Lba)>) {
        self.prefetch_calls.fetch_add(1, Ordering::Relaxed);
        // Fire and forget: nothing waits on a prefetch, so no state is kept.
        let mut wait = WarpWait::new();
        let cost = self.io.lookup_warp(warp, tenant, requests, now, &mut wait);
        let retry = wait
            .unique()
            .iter()
            .zip(wait.pages())
            .filter(|&(_, &state)| state == PageState::NotStarted)
            .map(|(&req, _)| req)
            .collect();
        (cost, retry)
    }

    // ------------------------------------------------------------------
    // Method 3: array-like synchronous access
    // ------------------------------------------------------------------

    /// Array-like synchronous read for one warp: returns the tokens for all
    /// lanes if everything is resident, otherwise issues the missing fills
    /// and asks the caller to retry with the same `wait`. Untenanted
    /// ([`IoPath::read_warp`] with `NO_TENANT`): cache accounting is skipped
    /// and trace events carry the sentinel (`u32::MAX`).
    pub fn read_warp(
        &self,
        warp: u64,
        requests: &[(u32, Lba)],
        now: Cycles,
        wait: &mut WarpWait,
    ) -> (Cycles, ReadOutcome) {
        self.io.read_warp(warp, NO_TENANT, requests, now, wait)
    }

    /// Store one page through the software cache (array-like write),
    /// untenanted ([`IoPath::write_warp`] with `NO_TENANT`). Returns the
    /// cost and whether the store landed (false = retry later, with the
    /// same `wait`).
    pub fn write_warp(
        &self,
        warp: u64,
        dev: u32,
        lba: Lba,
        token: PageToken,
        now: Cycles,
        wait: &mut LineWait,
    ) -> (Cycles, bool) {
        self.io
            .write_warp(warp, NO_TENANT, dev, lba, token, now, wait)
    }

    // ------------------------------------------------------------------
    // Method 2: async_issue(src, dst)
    // ------------------------------------------------------------------

    /// Asynchronously read `(dev, lba)` into the user buffer `buf`
    /// (`ctrl->asyncRead` in Listing 1). The buffer's barrier is re-armed and
    /// completed when the data is in place.
    pub fn async_read(
        &self,
        warp: u64,
        dev: u32,
        lba: Lba,
        buf: &AgileBuf,
        now: Cycles,
    ) -> (Cycles, IssueOutcome) {
        self.async_calls.fetch_add(1, Ordering::Relaxed);
        let cache = self.io.cache();
        cache.set_time_hint(now.raw());
        let api = &self.cfg.costs.api;
        buf.barrier.reset();
        let mut cost = Cycles(api.agile_barrier_probe);

        // 1. Share Table has the highest priority in the hierarchy (§3.4.1).
        let st = &self.share_table;
        if let Some(shared) = st.acquire(dev, lba) {
            cost += Cycles(api.agile_cache_hit);
            if shared.is_ready() {
                buf.store(shared.token());
                buf.barrier.complete(self.io.wake_hub());
                // We only needed a copy of the data; drop our reference.
                let _ = st.release(dev, lba);
                self.io.charge_cache(cost);
                return (cost, IssueOutcome::AlreadyAvailable);
            }
            // The owner's transfer is still in flight; retry later.
            let _ = st.release(dev, lba);
            self.io.charge_cache(cost);
            return (cost, IssueOutcome::Retry);
        }

        // 2. Software cache.
        if let Some(token) = cache.peek(dev, lba) {
            cost += Cycles(api.agile_cache_hit);
            self.io.count_cache_hit();
            buf.store(token);
            buf.barrier.complete(self.io.wake_hub());
            self.io.charge_cache(cost);
            return (cost, IssueOutcome::AlreadyAvailable);
        }

        // 3. Issue the NVMe read straight into the user buffer and register
        //    it with the Share Table so other threads can reuse it.
        let shared = st.register(dev, lba, buf.dma.clone(), warp);
        let txn = Transaction::UserRead {
            barrier: buf.barrier.clone(),
            shared: shared.clone(),
        };
        let (io_cost, ok) = self.io.submit(
            dev as usize,
            warp,
            Traffic::System,
            |cid| NvmeCommand::read(cid, lba, buf.dma.clone()),
            txn,
            now,
        );
        cost += io_cost;
        if ok {
            (cost, IssueOutcome::Issued)
        } else {
            let _ = st.release(dev, lba);
            (cost, IssueOutcome::Retry)
        }
    }

    /// Asynchronously write the contents of `buf` to `(dev, lba)`
    /// (`ctrl->asyncWrite`). The data is snapshotted at issue time, so the
    /// buffer may be reused immediately; the software cache is updated so
    /// subsequent readers see the new data; the barrier completes when the
    /// SSD acknowledges the write.
    pub fn async_write(
        &self,
        warp: u64,
        dev: u32,
        lba: Lba,
        buf: &AgileBuf,
        now: Cycles,
    ) -> (Cycles, IssueOutcome) {
        self.async_calls.fetch_add(1, Ordering::Relaxed);
        let api = &self.cfg.costs.api;
        let token = buf.token();
        buf.barrier.reset();
        let snapshot = DmaHandle::with_token(token);
        let mut cost = Cycles(api.agile_barrier_probe);

        let (io_cost, ok) = self.io.submit(
            dev as usize,
            warp,
            Traffic::System,
            |cid| NvmeCommand::write(cid, lba, snapshot.clone()),
            Transaction::UserWrite {
                barrier: buf.barrier.clone(),
            },
            now,
        );
        cost += io_cost;
        if !ok {
            return (cost, IssueOutcome::Retry);
        }

        // Keep the cache coherent with the new data (write-allocate update).
        let (c_cost, _stored) =
            self.write_warp(warp, dev, lba, token, now, &mut LineWait::default());
        cost += c_cost;

        // If the Share Table tracks this source, record the modification so
        // the owner propagates it when the sharing drains.
        let _ = self.share_table.mark_modified(dev, lba, token, warp);
        (cost, IssueOutcome::Issued)
    }

    // ------------------------------------------------------------------
    // Raw path (bandwidth experiments) and barrier polling
    // ------------------------------------------------------------------

    /// Issue a raw 4 KiB read that bypasses the software cache (used by the
    /// Figure 5 scaling experiment). Completion is signalled via `barrier`.
    /// The issuing warp's flat index doubles as the tenant id for QoS
    /// arbitration; multi-tenant workloads call [`IoPath::raw_read`].
    pub fn raw_read(
        &self,
        warp: u64,
        dev: u32,
        lba: Lba,
        dma: DmaHandle,
        barrier: Barrier,
        now: Cycles,
    ) -> (Cycles, IssueOutcome) {
        let (cost, issued) = self
            .io
            .raw_read(warp, warp as u32, dev, lba, dma, barrier, now);
        (cost, IssueOutcome::of_submit(issued))
    }

    /// Issue a raw 4 KiB write that bypasses the software cache (Figure 6).
    /// The issuing warp's flat index doubles as the tenant id for QoS
    /// arbitration; multi-tenant workloads call [`IoPath::raw_write`].
    pub fn raw_write(
        &self,
        warp: u64,
        dev: u32,
        lba: Lba,
        token: PageToken,
        barrier: Barrier,
        now: Cycles,
    ) -> (Cycles, IssueOutcome) {
        let (cost, issued) = self
            .io
            .raw_write(warp, warp as u32, dev, lba, token, barrier, now);
        (cost, IssueOutcome::of_submit(issued))
    }

    /// Poll a transaction barrier (`buf.wait()` single probe). Returns the
    /// probe cost and whether the transaction has completed.
    pub fn poll_barrier(&self, barrier: &Barrier) -> (Cycles, bool) {
        let cost = Cycles(self.cfg.costs.api.agile_barrier_probe);
        self.io.charge_io(cost);
        (cost, barrier.is_complete())
    }

    // ------------------------------------------------------------------
    // Service control
    // ------------------------------------------------------------------

    /// Ask the service kernel to stop (host-side `stopAgile()`).
    pub fn request_service_stop(&self) {
        self.stop_service.store(true, Ordering::SeqCst);
        self.stop_watchers.notify_all();
    }

    /// The sleepers a stop request wakes (service warps register here
    /// before they sleep on empty queues).
    pub(crate) fn stop_watchers(&self) -> &WatchList {
        &self.stop_watchers
    }

    /// Re-arm the service (between host-side runs).
    pub fn reset_service_stop(&self) {
        self.stop_service.store(false, Ordering::Release);
    }

    /// True once the host asked the service to stop.
    pub fn service_stop_requested(&self) -> bool {
        self.stop_service.load(Ordering::Acquire)
    }
}

impl crate::host::StorageCtrl for AgileCtrl {
    fn io(&self) -> &IoPath {
        &self.io
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctrl_with_queues(devs: usize, qps: usize, depth: u32) -> AgileCtrl {
        let cfg = AgileConfig::small_test()
            .with_queue_pairs(qps)
            .with_queue_depth(depth);
        let queues: Vec<Vec<Arc<QueuePair>>> = (0..devs)
            .map(|_| (0..qps).map(|q| QueuePair::new(q as u16, depth)).collect())
            .collect();
        AgileCtrl::new(cfg, queues)
    }

    #[test]
    fn prefetch_issues_fills_for_misses_and_coalesces() {
        let ctrl = ctrl_with_queues(1, 2, 64);
        // 32 lanes all asking for the same page → one unique request.
        let reqs = vec![(0u32, 7u64); 32];
        let (cost, retry) = ctrl.prefetch_warp(0, &reqs, Cycles(0));
        assert!(retry.is_empty());
        assert!(cost.raw() > 0);
        let s = ctrl.stats();
        assert_eq!(s.io.cache_misses, 1);
        assert_eq!(s.io.warp_coalesced, 31);
        // The command reached an SQ ring.
        let total_inflight: usize = ctrl
            .io()
            .device_queues(0)
            .iter()
            .map(|q| q.transactions().in_flight())
            .sum();
        assert_eq!(total_inflight, 1);
    }

    #[test]
    fn second_prefetch_of_same_page_is_coalesced_at_cache_level() {
        let ctrl = ctrl_with_queues(1, 2, 64);
        ctrl.prefetch_warp(0, &[(0, 9)], Cycles(0));
        ctrl.prefetch_warp(1, &[(0, 9)], Cycles(0));
        let s = ctrl.stats();
        assert_eq!(s.io.cache_misses, 1);
        assert_eq!(s.io.cache_coalesced, 1);
    }

    #[test]
    fn read_warp_becomes_ready_after_manual_fill() {
        let ctrl = ctrl_with_queues(1, 1, 64);
        let reqs = vec![(0u32, 3u64), (0, 4)];
        let (_, outcome) = ctrl.read_warp(0, &reqs, Cycles(0), &mut WarpWait::new());
        assert_eq!(outcome, ReadOutcome::Pending);
        // Simulate the service completing the fills: find the reserved lines
        // via the transaction table and complete them.
        for sq in ctrl.io().device_queues(0) {
            for cid in 0..sq.depth() as u16 {
                if let Some(Transaction::CacheFill { line }) = sq.transactions().take(cid) {
                    ctrl.cache().dma(line).store(PageToken(100 + cid as u64));
                    ctrl.cache().complete_fill(line);
                    ctrl.cache().unpin(line);
                    sq.release(cid);
                }
            }
        }
        let (_, outcome) = ctrl.read_warp(0, &reqs, Cycles(0), &mut WarpWait::new());
        match outcome {
            ReadOutcome::Ready(tokens) => assert_eq!(tokens.len(), 2),
            ReadOutcome::Pending => panic!("expected ready after fills completed"),
        }
    }

    #[test]
    fn async_read_hits_share_table_on_second_request() {
        let ctrl = ctrl_with_queues(1, 1, 64);
        let a = AgileBuf::new();
        let (_, o) = ctrl.async_read(1, 0, 42, &a, Cycles(0));
        assert_eq!(o, IssueOutcome::Issued);
        // Manually play the service: complete the user-read transaction.
        let sq = &ctrl.io().device_queues(0)[0];
        let txn = sq.transactions().take(0).expect("in flight");
        if let Transaction::UserRead { barrier, shared } = txn {
            a.dma.store(PageToken(0xAA));
            barrier.complete(&agile_sim::WakeHub::default());
            if let Some(s) = shared {
                s.mark_ready();
            }
            sq.release(0);
        } else {
            panic!("expected a UserRead transaction");
        }
        assert!(a.is_ready());
        // A second thread asking for the same page gets it from the Share
        // Table without any NVMe traffic.
        let b = AgileBuf::new();
        let (_, o) = ctrl.async_read(2, 0, 42, &b, Cycles(0));
        assert_eq!(o, IssueOutcome::AlreadyAvailable);
        assert_eq!(b.token(), PageToken(0xAA));
        assert_eq!(ctrl.stats().io.raw_calls, 0);
    }

    #[test]
    fn async_write_updates_cache_and_issues() {
        let ctrl = ctrl_with_queues(1, 1, 64);
        let buf = AgileBuf::with_token(PageToken(0xBEEF));
        let (_, o) = ctrl.async_write(0, 0, 5, &buf, Cycles(0));
        assert_eq!(o, IssueOutcome::Issued);
        // Cache now serves the new data.
        assert_eq!(ctrl.cache().peek(0, 5), Some(PageToken(0xBEEF)));
        // Buffer is reusable immediately even though the barrier is pending.
        assert!(!buf.is_ready());
        buf.store(PageToken(1));
        // The in-flight command carries the snapshot, not the new value.
        let sq = &ctrl.io().device_queues(0)[0];
        assert_eq!(sq.transactions().in_flight(), 1);
    }

    #[test]
    fn service_stop_flag_roundtrip() {
        let ctrl = ctrl_with_queues(1, 1, 4);
        assert!(!ctrl.service_stop_requested());
        ctrl.request_service_stop();
        assert!(ctrl.service_stop_requested());
        ctrl.reset_service_stop();
        assert!(!ctrl.service_stop_requested());
    }

    #[test]
    fn write_warp_allocates_and_marks_dirty() {
        let ctrl = ctrl_with_queues(1, 1, 16);
        let (_, ok) = ctrl.write_warp(0, 0, 77, PageToken(55), Cycles(0), &mut LineWait::default());
        assert!(ok);
        assert_eq!(ctrl.cache().peek(0, 77), Some(PageToken(55)));
        let (_, outcome) = ctrl.read_warp(0, &[(0, 77)], Cycles(0), &mut WarpWait::new());
        assert!(matches!(outcome, ReadOutcome::Ready(t) if t[0] == PageToken(55)));
    }
}
