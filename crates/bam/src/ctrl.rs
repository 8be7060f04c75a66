//! The BaM-style synchronous controller.
//!
//! `BamCtrl` exposes the synchronous access model: a warp asks for pages
//! through [`BamCtrl::read_warp_sync`]; misses are turned into NVMe commands
//! on the spot, and the warp must then drive [`BamCtrl::poll_once`] until its
//! data is resident — there is no background service, so user threads both
//! issue and complete every command. The queues, the cache and the whole
//! submit / retire / miss-service path are the same [`IoPath`] AGILE runs
//! ([`BamCtrl::io`]); what differs is who does the completion work (the
//! user-thread CQ scan below) and what each call costs (the `bam_*` cost
//! constants model BaM's lock-held critical sections).

use agile_cache::{CacheConfig, ClockPolicy, ShardedCache, SoftwareCache, NO_TENANT};
use agile_core::io_path::{IoPath, IoStats, PathCosts, ReadOutcome, WarpWait};
use agile_core::transaction::Barrier;
use agile_sim::costs::CostModel;
use agile_sim::Cycles;
use nvme_sim::{DmaHandle, Lba, QueuePair, StorageTopology};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// BaM system configuration.
#[derive(Debug, Clone)]
pub struct BamConfig {
    /// I/O queue pairs per SSD.
    pub queue_pairs_per_ssd: usize,
    /// Queue depth.
    pub queue_depth: u32,
    /// Capacity in bytes of the software cache: one set-associative,
    /// clock-managed cache (the policy is fixed).
    pub cache_bytes: u64,
    /// Shared cost model.
    pub costs: CostModel,
}

impl BamConfig {
    /// Match the paper's default evaluation setup (128 QPs × 256, 2 GiB cache).
    pub fn paper_default() -> Self {
        BamConfig {
            queue_pairs_per_ssd: 128,
            queue_depth: 256,
            cache_bytes: 2 * agile_sim::units::GIB,
            costs: CostModel::default(),
        }
    }

    /// A small test configuration.
    pub fn small_test() -> Self {
        BamConfig {
            queue_pairs_per_ssd: 4,
            queue_depth: 64,
            cache_bytes: 4 * agile_sim::units::MIB,
            costs: CostModel::default(),
        }
    }

    /// Override queue pair count.
    pub fn with_queue_pairs(mut self, qps: usize) -> Self {
        self.queue_pairs_per_ssd = qps;
        self
    }

    /// Override queue depth.
    pub fn with_queue_depth(mut self, depth: u32) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Override cache capacity.
    pub fn with_cache_bytes(mut self, bytes: u64) -> Self {
        self.cache_bytes = bytes;
        self
    }
}

/// Counters kept by the BaM controller: the shared I/O path's counters plus
/// the user-thread CQ polling only BaM does.
#[derive(Debug, Clone, Default)]
pub struct BamStats {
    /// The I/O path's counters.
    pub io: IoStats,
    /// CQ polling iterations executed by user threads.
    pub poll_iterations: u64,
    /// Completions processed by user threads.
    pub completions: u64,
}

struct CqCursor {
    window_start: u32,
    phase: bool,
}

/// The synchronous BaM controller.
pub struct BamCtrl {
    cfg: BamConfig,
    io: IoPath,
    /// Per device, per queue pair.
    cq_cursors: Vec<Vec<Mutex<CqCursor>>>,
    poll_iterations: AtomicU64,
    completions: AtomicU64,
}

impl BamCtrl {
    /// Build the controller over the registered queue pairs with no attached
    /// topology (bare-queue unit rigs). Production construction goes through
    /// [`BamCtrl::with_topology`] (see [`crate::HostBuilder`]).
    pub fn new(cfg: BamConfig, device_queues: Vec<Vec<Arc<QueuePair>>>) -> Self {
        BamCtrl::build(cfg, device_queues, None)
    }

    /// Build a controller whose submissions are charged the topology's array
    /// lock and whose striped page space is resolvable through
    /// [`IoPath::resolve_page`].
    pub fn with_topology(
        cfg: BamConfig,
        device_queues: Vec<Vec<Arc<QueuePair>>>,
        topology: Arc<StorageTopology>,
    ) -> Self {
        BamCtrl::build(cfg, device_queues, Some(topology))
    }

    fn build(
        cfg: BamConfig,
        device_queues: Vec<Vec<Arc<QueuePair>>>,
        topology: Option<Arc<StorageTopology>>,
    ) -> Self {
        let cache = SoftwareCache::new(
            CacheConfig::with_capacity(cfg.cache_bytes),
            Box::new(ClockPolicy::new()),
        );
        let cq_cursors = device_queues
            .iter()
            .map(|qs| {
                qs.iter()
                    .map(|_| {
                        Mutex::new(CqCursor {
                            window_start: 0,
                            phase: true,
                        })
                    })
                    .collect()
            })
            .collect();
        let io = IoPath::new(
            PathCosts::bam(&cfg.costs.api),
            cfg.costs.gpu.clone(),
            cache,
            device_queues,
            topology,
        );
        BamCtrl {
            cfg,
            io,
            cq_cursors,
            poll_iterations: AtomicU64::new(0),
            completions: AtomicU64::new(0),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &BamConfig {
        &self.cfg
    }

    /// The shared I/O path: queues, topology, hooks, submit / retire and the
    /// tenant-attributed cached and raw accesses, at BaM's per-call costs.
    pub fn io(&self) -> &IoPath {
        &self.io
    }

    /// The clock-managed software cache, under the old name the benchmark
    /// package spells (it derefs to the one [`SoftwareCache`]).
    pub fn cache(&self) -> &ShardedCache {
        self.io.cache()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> BamStats {
        BamStats {
            io: self.io.stats(),
            poll_iterations: self.poll_iterations.load(Ordering::Relaxed),
            completions: self.completions.load(Ordering::Relaxed),
        }
    }

    /// Synchronous warp read: on a full hit returns the tokens; otherwise
    /// issues the missing fills and reports `Pending` — the warp must then
    /// call [`BamCtrl::poll_once`] until the data lands and retry with the
    /// same `wait`. Untenanted ([`IoPath::read_warp`] with `NO_TENANT`):
    /// cache accounting is skipped and trace events carry the sentinel
    /// (`u32::MAX`).
    pub fn read_warp_sync(
        &self,
        warp: u64,
        requests: &[(u32, Lba)],
        now: Cycles,
        wait: &mut WarpWait,
    ) -> (Cycles, ReadOutcome) {
        self.io.read_warp(warp, NO_TENANT, requests, now, wait)
    }

    /// Issue a raw (cache-bypassing) read; the caller polls until `barrier`
    /// completes. Returns the cost and whether the command was issued. The
    /// warp's flat index doubles as the tenant id for QoS arbitration;
    /// multi-tenant workloads call [`IoPath::raw_read`].
    pub fn raw_read(
        &self,
        warp: u64,
        dev: u32,
        lba: Lba,
        dma: DmaHandle,
        barrier: Barrier,
        now: Cycles,
    ) -> (Cycles, bool) {
        self.io
            .raw_read(warp, warp as u32, dev, lba, dma, barrier, now)
    }

    /// One CQ polling pass executed by a *user* thread at sim time `now`
    /// (there is no service in BaM). The thread polls the CQ paired with its
    /// home SQ (`warp mod queues`) and processes any completions it finds
    /// (releasing SQEs, finishing cache fills), then advances the shared
    /// cursor. Returns the cycles spent and the number of completions
    /// processed.
    pub fn poll_once(&self, warp: u64, dev: usize, now: Cycles) -> (Cycles, u32) {
        let qidx = (warp as usize) % self.io.device_queues(dev).len();
        let cq = &self.io.device_queues(dev)[qidx].queue_pair().cq;
        let depth = cq.depth();
        let mut cursor = self.cq_cursors[dev][qidx].lock();
        self.poll_iterations.fetch_add(1, Ordering::Relaxed);
        let mut processed = 0u32;
        // A synchronous thread scans forward from the cursor, consuming every
        // completion that has landed.
        while let Some(cqe) = cq.poll_slot(cursor.window_start % depth, cursor.phase) {
            self.io.retire(dev, qidx, cqe.cid, Some(warp as u32), now);
            cq.consume(1);
            processed += 1;
            cursor.window_start = (cursor.window_start + 1) % depth;
            if cursor.window_start == 0 {
                cursor.phase = !cursor.phase;
            }
        }
        self.completions
            .fetch_add(processed as u64, Ordering::Relaxed);
        let poll = Cycles(self.cfg.costs.api.bam_cq_poll);
        let cost = poll + poll * processed as u64;
        self.io.charge_io(cost);
        (cost, processed)
    }
}

impl agile_core::host::StorageCtrl for BamCtrl {
    fn io(&self) -> &IoPath {
        &self.io
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvme_sim::{PageToken, SsdConfig, SsdDevice};

    fn rig(qps: usize, depth: u32) -> (BamCtrl, SsdDevice) {
        let mut dev = SsdDevice::new(SsdConfig::new(0).with_capacity_pages(1 << 20));
        let queues: Vec<Arc<QueuePair>> = (0..qps)
            .map(|q| {
                let qp = QueuePair::new(q as u16, depth);
                dev.register_queue_pair(Arc::clone(&qp));
                qp
            })
            .collect();
        let ctrl = BamCtrl::new(
            BamConfig::small_test()
                .with_queue_pairs(qps)
                .with_queue_depth(depth),
            vec![queues],
        );
        (ctrl, dev)
    }

    #[test]
    fn sync_read_miss_then_poll_then_hit() {
        let (ctrl, mut dev) = rig(2, 64);
        let reqs = vec![(0u32, 5u64), (0, 6)];
        let mut wait = WarpWait::new();
        let (_, outcome) = ctrl.read_warp_sync(0, &reqs, Cycles(0), &mut wait);
        assert_eq!(outcome, ReadOutcome::Pending, "first access must miss");
        // The user thread itself drives the completion path.
        let mut now = Cycles(0);
        let mut done = false;
        for _ in 0..10_000 {
            now += Cycles(2_000);
            dev.advance_to(now);
            let _ = ctrl.poll_once(0, 0, now);
            let (_, outcome) = ctrl.read_warp_sync(0, &reqs, now, &mut wait);
            if let ReadOutcome::Ready(tokens) = outcome {
                assert_eq!(tokens.len(), 2);
                assert_eq!(tokens[0], PageToken::pristine(0, 5));
                done = true;
                break;
            }
        }
        assert!(done, "data never arrived");
        let s = ctrl.stats();
        assert_eq!(s.io.cache_misses, 2);
        assert!(s.poll_iterations > 0);
        assert_eq!(s.completions, 2);
        assert_eq!(ctrl.cache().total_pins(), 0);
    }

    #[test]
    fn bam_costs_exceed_agile_costs_per_call() {
        // The per-call constants that drive Figure 11's API-overhead gap.
        let costs = CostModel::default();
        assert!(costs.api.bam_cache_hit > costs.api.agile_cache_hit);
        assert!(costs.api.bam_issue > costs.api.agile_issue);
    }

    #[test]
    fn poll_once_round_robins_by_warp_index() {
        let (ctrl, _dev) = rig(4, 64);
        // Different warps map to different queue pairs.
        let (c0, _) = ctrl.poll_once(0, 0, Cycles(0));
        let (c1, _) = ctrl.poll_once(1, 0, Cycles(0));
        assert_eq!(c0, c1, "empty polls cost the same regardless of queue");
        assert_eq!(ctrl.stats().poll_iterations, 2);
    }

    #[test]
    fn raw_read_completes_via_user_polling() {
        let (ctrl, mut dev) = rig(1, 32);
        let barrier = Barrier::new();
        let dma = DmaHandle::new();
        let (_, ok) = ctrl.raw_read(0, 0, 77, dma.clone(), barrier.clone(), Cycles(0));
        assert!(ok);
        let mut now = Cycles(0);
        while !barrier.is_complete() {
            now += Cycles(2_000);
            dev.advance_to(now);
            let _ = ctrl.poll_once(0, 0, now);
            assert!(now.raw() < 10_000_000, "raw read never completed");
        }
        assert_eq!(dma.load(), PageToken::pristine(0, 77));
    }
}
