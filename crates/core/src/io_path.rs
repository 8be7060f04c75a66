//! The I/O path both controllers stand on.
//!
//! AGILE and the BaM baseline differ in *who completes commands* (a
//! background service vs the issuing thread) and in *what each API call
//! costs* — and in nothing else. [`IoPath`] is everything else, implemented
//! once: the per-device [`AgileSq`] lists, the optional storage topology,
//! the software cache, the install-once trace / QoS / metrics hooks and the
//! statistics both systems report. On top of that state it provides
//!
//! * **submit** ([`IoPath::submit`]) — QoS gate → array-lock charge → the
//!   "pick an SQ by thread index, move to the next SQ when full" placement
//!   of §3.3.1 → `Submit`/`Doorbell` trace stamping → refund when every SQ
//!   was full. [`Traffic`] says whether the command is tenant traffic
//!   (arbitrated) or system traffic (cache fills and write-backs, exempt);
//! * **raw I/O** ([`IoPath::raw_read`] / [`IoPath::raw_write`]) — the
//!   cache-bypassing path of the bandwidth experiments;
//! * **retire** ([`IoPath::retire`]) — map a completion `(queue, CID)` back
//!   to its transaction, release the SQE and finish the fill / barrier /
//!   QoS credit. The AGILE service and BaM's user-thread poll both end here;
//! * **miss service** — the one write-back-or-reinstate, then
//!   fill-or-abort routine, and on it the cached warp lookup
//!   ([`IoPath::lookup_warp`]), array-like read ([`IoPath::read_warp`]) and
//!   write-allocate store ([`IoPath::write_warp`]). A warp that has to retry
//!   such a call carries its [`WarpWait`] / [`LineWait`] from one attempt to
//!   the next: pages it found `BUSY` are then re-checked by ticket — one load
//!   of the line's state word each, accounted exactly like the lookup — and
//!   only the rest go through the cache again;
//! * **sleeping on a wait** ([`IoPath::park_on_fills`] /
//!   [`IoPath::park_on_barriers`]) — when such a retry would find every page
//!   it wants still in flight (or every barrier still armed) it is *pure*:
//!   the caller gets a parkable [`Wait`], its sleeper is registered on the
//!   lines or barriers, and [`IoPath::retire`] notifies it. The polls it
//!   sleeps through are never made, so they count nowhere.
//!
//! The per-system difference is data fixed at construction: a [`PathCosts`]
//! triple derived from [`ApiCosts`]. No method ever holds a lock across a
//! wait; each returns a cycle cost (charged to the calling warp as busy
//! time) plus an outcome that may ask the caller to retry later.

use crate::coalesce::{coalesce_warp_into, CoalescedRequests};
use crate::qos::{gate_admission, QosDecision, QosPolicy};
use crate::sq_protocol::AgileSq;
use crate::transaction::{Barrier, Transaction};
use agile_cache::{BusyTicket, CacheLookup, LineId, ShardedCache, SoftwareCache};
use agile_metrics::{Counter, CounterFamily, LabelDim, Labels, MetricsRegistry};
use agile_sim::costs::{ApiCosts, GpuCosts};
use agile_sim::trace::{TraceEvent, TraceEventKind, TraceSink};
use agile_sim::wake::{SleeperId, Wait, WaitReason, WakeHub};
use agile_sim::Cycles;
use nvme_sim::{DmaHandle, Lba, NvmeCommand, Opcode, PageToken, QueuePair, StorageTopology};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// The per-call API costs of one system — the only thing about the I/O path
/// the two libraries do differently. Derived from [`ApiCosts`] at
/// controller construction; not settable.
#[derive(Debug, Clone, Copy)]
pub struct PathCosts {
    issue: u64,
    cache_hit: u64,
    cache_miss: u64,
}

impl PathCosts {
    /// AGILE's costs: Algorithm 2 issue, state-word cache protocol.
    pub fn agile(api: &ApiCosts) -> Self {
        PathCosts {
            issue: api.agile_issue,
            cache_hit: api.agile_cache_hit,
            cache_miss: api.agile_cache_miss,
        }
    }

    /// BaM's costs: ticket-locked issue, lock-held cache critical sections.
    pub fn bam(api: &ApiCosts) -> Self {
        PathCosts {
            issue: api.bam_issue,
            cache_hit: api.bam_cache_hit,
            cache_miss: api.bam_cache_miss,
        }
    }
}

/// Who a submission is made on behalf of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Cache fills, dirty-victim write-backs and user-buffer transfers:
    /// **bypasses the QoS admission gate** — deferring a write-back would
    /// force `abort_fill` and drop the dirty snapshot, so system traffic
    /// never waits behind tenant arbitration. Trace events carry the issuing
    /// warp's flat index as the tenant.
    System,
    /// A tenant-attributed submission, arbitrated by the installed
    /// [`QosPolicy`] (when any) and stamped with the tenant in trace capture.
    Tenant(u32),
}

/// Outcome of an array-like synchronous warp read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Every lane's datum was resident: per-lane tokens, in request order.
    Ready(Vec<PageToken>),
    /// At least one lane missed; fills were issued where possible. Retry the
    /// same call later (hits become cheap, the misses will have landed).
    Pending,
}

/// What one cache lookup of [`IoPath::lookup_warp`] found or started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// The page is resident.
    Ready(PageToken),
    /// A fill is in flight — just issued, or coalesced onto an earlier one;
    /// the ticket names its reservation.
    InFlight(BusyTicket),
    /// Nothing could be started (no cache line, or every SQ full): the
    /// request has to be made again.
    NotStarted,
}

/// What a warp remembers between attempts of one cached warp access
/// ([`IoPath::lookup_warp`] / [`IoPath::read_warp`]): the request it made,
/// how it coalesced, and for every unique page what the last attempt found —
/// with a [`BusyTicket`] where that was a fill in flight.
///
/// Purely a cache: the next attempt re-checks each ticket against the line's
/// state word and falls back to a real lookup for any page whose ticket is
/// dead or that had none, and a different request starts over. A fresh value on
/// every call is therefore always correct, just slower; a carried one makes
/// a retry whose pages are all still in flight free of set locks, tag scans,
/// coalescing and allocation.
#[derive(Debug, Default)]
pub struct WarpWait {
    /// The request of the last attempt, as it coalesced.
    coalesced: CoalescedRequests,
    /// Per unique request: what the last attempt found or started.
    pages: Vec<PageState>,
}

impl WarpWait {
    /// Wait state for a warp that has not asked for anything yet.
    pub fn new() -> Self {
        WarpWait::default()
    }

    /// [`WarpWait::new`] with room for requests of up to `lanes` lanes, so
    /// that nothing is allocated when the first one arrives.
    pub fn with_lanes(lanes: usize) -> Self {
        WarpWait {
            coalesced: CoalescedRequests {
                unique: Vec::with_capacity(lanes),
                lane_to_unique: Vec::with_capacity(lanes),
                eliminated: 0,
            },
            pages: Vec::with_capacity(lanes),
        }
    }

    /// Point the state at `requests`: kept as is when they are what the last
    /// attempt asked for, recoalesced with every ticket dropped otherwise.
    fn aim(&mut self, requests: &[(u32, Lba)]) {
        // `unique[lane_to_unique[lane]]` is the last attempt's request.
        let CoalescedRequests {
            unique,
            lane_to_unique,
            ..
        } = &self.coalesced;
        let same = requests.len() == lane_to_unique.len()
            && requests
                .iter()
                .zip(lane_to_unique)
                .all(|(r, &u)| *r == unique[u]);
        if !same {
            coalesce_warp_into(requests, &mut self.coalesced);
            self.pages.clear();
            self.pages
                .resize(self.coalesced.unique.len(), PageState::NotStarted);
        }
    }

    /// The unique `(device, LBA)` pairs of the last attempt, in
    /// first-appearance order.
    pub fn unique(&self) -> &[(u32, Lba)] {
        &self.coalesced.unique
    }

    /// What the last attempt found for each entry of [`WarpWait::unique`].
    pub fn pages(&self) -> &[PageState] {
        &self.pages
    }

    /// True when the last attempt found at least one page resident. When it
    /// found none, no lane of the request can be served yet.
    pub fn any_ready(&self) -> bool {
        self.pages.iter().any(|p| matches!(p, PageState::Ready(_)))
    }

    /// Per-lane tokens of the last attempt, if every page was resident.
    fn lane_tokens(&self) -> Option<Vec<PageToken>> {
        let token = |&u: &usize| match self.pages[u] {
            PageState::Ready(token) => Some(token),
            _ => None,
        };
        self.coalesced.lane_to_unique.iter().map(token).collect()
    }
}

/// What a warp remembers between attempts of one [`IoPath::write_warp`]:
/// the fill the store found in its way, if any. Belongs to that one store —
/// the ticket says nothing about any other page.
#[derive(Debug, Clone, Copy, Default)]
pub struct LineWait(Option<BusyTicket>);

/// The statistics both controllers keep (each adds its own categories in
/// `ApiStats` / `BamStats`). They count the calls that were executed: a warp
/// asleep on a wait makes none, so with parking `read_calls`, both
/// coalescing counters and the cycle charges are at most what polling
/// counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Array-like warp reads.
    pub read_calls: u64,
    /// Raw (cache-bypassing) reads/writes attempted.
    pub raw_calls: u64,
    /// Cache hits observed by API calls.
    pub cache_hits: u64,
    /// Cache misses that reserved a line.
    pub cache_misses: u64,
    /// Requests eliminated by warp-level coalescing.
    pub warp_coalesced: u64,
    /// Requests coalesced onto an in-flight fill (BUSY hit).
    pub cache_coalesced: u64,
    /// Times every targeted SQ was full and the caller had to retry.
    pub sq_full_retries: u64,
    /// Tenant submissions deferred by the QoS admission gate.
    pub qos_deferrals: u64,
    /// Write-backs of dirty evicted lines.
    pub writebacks: u64,
    /// Cycles charged for cache-management work.
    pub cache_cycles: u64,
    /// Cycles charged for NVMe issue / polling work.
    pub io_cycles: u64,
}

#[derive(Default)]
struct IoStatCells {
    read_calls: AtomicU64,
    raw_calls: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    warp_coalesced: AtomicU64,
    cache_coalesced: AtomicU64,
    sq_full_retries: AtomicU64,
    qos_deferrals: AtomicU64,
    writebacks: AtomicU64,
    cache_cycles: AtomicU64,
    io_cycles: AtomicU64,
}

fn bump(cell: &AtomicU64, by: u64) {
    cell.fetch_add(by, Ordering::Relaxed);
}

/// Submit-path instruments (the `agile_submit_*` metric family), installed
/// once via [`IoPath::bind_metrics`]. When absent every hook costs one
/// atomic load (the `OnceLock` probe), preserving the uninstrumented path.
struct SubmitMetrics {
    admissions: Counter,
    sq_full_retries: Counter,
    qos_deferrals: CounterFamily,
}

/// The shared submit / retire / miss-service path (see the module docs).
pub struct IoPath {
    costs: PathCosts,
    gpu: GpuCosts,
    cache: ShardedCache,
    /// Per device, per queue pair.
    devices: Vec<Vec<Arc<AgileSq>>>,
    /// The storage topology behind the queues: striping map plus the modeled
    /// array lock charged on every submission. `None` in bare-queue unit
    /// rigs, in which case submissions pay no lock cost.
    topology: Option<Arc<dyn StorageTopology>>,
    stats: IoStatCells,
    /// Where warps waiting on this path sleep: notified by
    /// [`IoPath::retire`] and the cache's fill paths, drained by the engine
    /// the host attaches it to.
    hub: Arc<WakeHub>,
    /// Optional trace recorder for the submit/doorbell/completion paths.
    trace: OnceLock<Arc<dyn TraceSink>>,
    /// Optional QoS policy arbitrating tenant-attributed SQ admission.
    /// Absent ⇒ FIFO (pre-QoS behaviour, bit-for-bit).
    qos: OnceLock<Arc<dyn QosPolicy>>,
    /// Optional submit-path instruments (`agile_submit_*`).
    metrics: OnceLock<SubmitMetrics>,
}

impl IoPath {
    /// Build the path over the queue pairs of each device (outer index =
    /// device id, inner = queue pair). With a `topology` submissions are
    /// charged its array lock and the striped page space is resolvable
    /// through [`IoPath::resolve_page`].
    pub fn new(
        costs: PathCosts,
        gpu: GpuCosts,
        cache: SoftwareCache,
        device_queues: Vec<Vec<Arc<QueuePair>>>,
        topology: Option<Arc<dyn StorageTopology>>,
    ) -> Self {
        let devices = device_queues
            .into_iter()
            .map(|qps| {
                qps.into_iter()
                    .map(|qp| Arc::new(AgileSq::new(qp)))
                    .collect()
            })
            .collect();
        let hub = WakeHub::new();
        cache.set_wake_hub(Arc::clone(&hub));
        IoPath {
            costs,
            gpu,
            cache: cache.into(),
            devices,
            topology,
            stats: IoStatCells::default(),
            hub,
            trace: OnceLock::new(),
            qos: OnceLock::new(),
            metrics: OnceLock::new(),
        }
    }

    // ------------------------------------------------------------------
    // Hooks and accessors
    // ------------------------------------------------------------------

    /// Install submit-path instruments bound to `registry`. Returns `false`
    /// if instruments were already installed (the first binding wins).
    pub fn bind_metrics(&self, registry: &Arc<MetricsRegistry>) -> bool {
        self.metrics
            .set(SubmitMetrics {
                admissions: registry.counter("agile_submit_admissions_total", Labels::NONE),
                sq_full_retries: registry
                    .counter("agile_submit_sq_full_retries_total", Labels::NONE),
                qos_deferrals: registry
                    .counter_family("agile_submit_qos_deferrals_total", LabelDim::Tenant),
            })
            .is_ok()
    }

    /// Install a QoS policy on tenant-attributed submissions
    /// ([`Traffic::Tenant`]). The policy is bound to the total SQ-slot
    /// capacity so occupancy-tracking schedulers can size their shares.
    /// Returns `false` if one was already installed (the first one wins).
    /// Without a policy — or with [`crate::qos::Fifo`] — admission behaves
    /// exactly as before this subsystem existed.
    pub fn set_qos_policy(&self, policy: Arc<dyn QosPolicy>) -> bool {
        let total_slots: u64 = self
            .devices
            .iter()
            .flatten()
            .map(|sq| sq.depth() as u64)
            .sum();
        policy.bind(total_slots);
        self.qos.set(policy).is_ok()
    }

    /// The installed QoS policy, if any.
    pub fn qos_policy(&self) -> Option<&Arc<dyn QosPolicy>> {
        self.qos.get()
    }

    /// Install a trace sink on the submit/doorbell/completion path and the
    /// software cache's lookup path. Returns `false` if a sink was already
    /// installed (the first one wins). When no sink is installed the hooks
    /// cost a single atomic load.
    pub fn set_trace_sink(&self, sink: Arc<dyn TraceSink>) -> bool {
        self.cache.set_trace_sink(Arc::clone(&sink));
        self.trace.set(sink).is_ok()
    }

    /// The installed trace sink, if any (shared with the control plane so
    /// its decisions land in the same capture).
    pub fn trace_sink(&self) -> Option<&Arc<dyn TraceSink>> {
        self.trace.get()
    }

    /// The software cache, under the old name the benchmark package spells
    /// (it derefs to the one [`SoftwareCache`]).
    pub fn cache(&self) -> &ShardedCache {
        &self.cache
    }

    /// The hub warps waiting on this path sleep in. A host attaches it to
    /// its engine (`Engine::set_wake_hub`); without that every wait is
    /// polled and the hub is inert.
    pub fn wake_hub(&self) -> &Arc<WakeHub> {
        &self.hub
    }

    /// Number of SSDs.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// The AGILE-managed SQs of device `dev` (one per I/O queue pair).
    pub fn device_queues(&self, dev: usize) -> &[Arc<AgileSq>] {
        &self.devices[dev]
    }

    /// How many queue pairs each device has, indexed by device.
    pub fn queues_per_device(&self) -> Vec<usize> {
        self.devices.iter().map(Vec::len).collect()
    }

    /// The attached storage topology, if any.
    pub fn topology(&self) -> Option<&Arc<dyn StorageTopology>> {
        self.topology.as_ref()
    }

    /// Resolve a page of the striped global page space to a concrete
    /// `(device, device-local LBA)` through the topology's striping layer.
    /// Panics when no topology is attached (bare-queue unit rigs).
    pub fn resolve_page(&self, global: u64) -> (u32, Lba) {
        let loc = self
            .topology
            .as_ref()
            .expect("resolve_page requires an attached topology")
            .map_page(global);
        (loc.device, loc.page)
    }

    /// Snapshot of the shared statistics.
    pub fn stats(&self) -> IoStats {
        let s = &self.stats;
        let get = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
        IoStats {
            read_calls: get(&s.read_calls),
            raw_calls: get(&s.raw_calls),
            cache_hits: get(&s.cache_hits),
            cache_misses: get(&s.cache_misses),
            warp_coalesced: get(&s.warp_coalesced),
            cache_coalesced: get(&s.cache_coalesced),
            sq_full_retries: get(&s.sq_full_retries),
            qos_deferrals: get(&s.qos_deferrals),
            writebacks: get(&s.writebacks),
            cache_cycles: get(&s.cache_cycles),
            io_cycles: get(&s.io_cycles),
        }
    }

    /// Account `cost` as NVMe issue / polling work done by a front-end
    /// (barrier probes, BaM's CQ polling).
    pub fn charge_io(&self, cost: Cycles) {
        bump(&self.stats.io_cycles, cost.raw());
    }

    /// Account `cost` as cache-management work done by a front-end.
    pub(crate) fn charge_cache(&self, cost: Cycles) {
        bump(&self.stats.cache_cycles, cost.raw());
    }

    /// Count a cache hit a front-end observed outside [`IoPath::lookup_warp`].
    pub(crate) fn count_cache_hit(&self) {
        bump(&self.stats.cache_hits, 1);
    }

    // ------------------------------------------------------------------
    // Submit
    // ------------------------------------------------------------------

    /// Issue the command `build` makes to device `dev`, starting from the SQ
    /// selected by the calling thread's index and falling over to the next
    /// SQ when one is full (§3.3.1). Returns the cycles spent and whether it
    /// succeeded.
    ///
    /// [`Traffic::Tenant`] submissions consult the installed [`QosPolicy`]
    /// **before** the SQ-slot claim: a deferred submission pays one probe
    /// and reports failure exactly like an SQ-full outcome, so callers retry
    /// through their existing back-off paths; an admission that then finds
    /// every SQ full is refunded to the policy. [`Traffic::System`] skips
    /// the gate.
    pub fn submit(
        &self,
        dev: usize,
        warp: u64,
        traffic: Traffic,
        build: impl Fn(u16) -> NvmeCommand,
        txn: Transaction,
        now: Cycles,
    ) -> (Cycles, bool) {
        let (tenant, gate) = match traffic {
            Traffic::System => (warp as u32, None),
            Traffic::Tenant(tenant) => (tenant, self.qos.get()),
        };
        let Some(qos) = gate else {
            return self.place(dev, warp, tenant, build, txn, now);
        };
        if gate_admission(qos.as_ref(), tenant, dev as u32, now, self.trace.get())
            == QosDecision::Defer
        {
            let cost = Cycles(self.gpu.poll_iteration);
            bump(&self.stats.qos_deferrals, 1);
            if let Some(m) = self.metrics.get() {
                m.qos_deferrals.inc(tenant);
            }
            self.charge_io(cost);
            return (cost, false);
        }
        let (cost, ok) = self.place(dev, warp, tenant, build, txn, now);
        if !ok {
            qos.refund(tenant);
        }
        (cost, ok)
    }

    /// The SQ fail-over loop behind [`IoPath::submit`], past the gate.
    fn place(
        &self,
        dev: usize,
        warp: u64,
        tenant: u32,
        build: impl Fn(u16) -> NvmeCommand,
        txn: Transaction,
        now: Cycles,
    ) -> (Cycles, bool) {
        let gpu = &self.gpu;
        let sqs = &self.devices[dev];
        let n = sqs.len();
        let start = (warp as usize) % n;
        let mut cost = Cycles(self.costs.issue);
        // The array lock guarding SQ-slot allocation + doorbell update: FIFO
        // wait behind earlier holders on this device's shard, then the hold.
        if let Some(topology) = &self.topology {
            cost += topology.lock_acquire(dev, warp, now);
        }
        for attempt in 0..n {
            let sq = &sqs[(start + attempt) % n];
            // `Transaction` is cheap to clone (an Arc flag and small ids);
            // the clone handed to a full queue is simply dropped.
            let Some(receipt) = sq.try_issue(&build, txn.clone(), now) else {
                // This SQ is full: pay a probe and move to the next one
                // ("simply increasing the index of the target SQ").
                cost += Cycles(gpu.poll_iteration);
                continue;
            };
            if receipt.rang_doorbell {
                cost += Cycles(gpu.doorbell_write);
            }
            // Extra serialization attempts burn polling cycles.
            cost += Cycles(gpu.poll_iteration) * (receipt.attempts.saturating_sub(1)) as u64;
            self.charge_io(cost);
            if let Some(m) = self.metrics.get() {
                m.admissions.inc();
            }
            if let Some(sink) = self.trace.get() {
                // Rebuild the command for its lba/opcode; `build` is a cheap
                // constructor and this path only runs when tracing is enabled.
                let cmd = build(receipt.cid);
                let qid = sq.queue_pair().id();
                sink.record(
                    TraceEvent::new(TraceEventKind::Submit, now.raw())
                        .target(dev as u32, cmd.slba)
                        .queue(qid, receipt.cid)
                        .tenant(tenant)
                        .write(cmd.opcode == Opcode::Write),
                );
                if receipt.rang_doorbell {
                    sink.record(
                        TraceEvent::new(TraceEventKind::Doorbell, now.raw())
                            .target(dev as u32, cmd.slba)
                            .queue(qid, receipt.cid)
                            .tenant(tenant),
                    );
                }
            }
            return (cost, true);
        }
        bump(&self.stats.sq_full_retries, 1);
        if let Some(m) = self.metrics.get() {
            m.sq_full_retries.inc();
        }
        self.charge_io(cost);
        (cost, false)
    }

    // ------------------------------------------------------------------
    // Raw path (bandwidth experiments)
    // ------------------------------------------------------------------

    /// Issue a raw 4 KiB read that bypasses the software cache (Figure 5).
    /// The submission is arbitrated as `tenant`'s; completion is signalled
    /// through `barrier`. Returns the cost and whether the command was
    /// issued (false = retry later).
    #[allow(clippy::too_many_arguments)]
    pub fn raw_read(
        &self,
        warp: u64,
        tenant: u32,
        dev: u32,
        lba: Lba,
        dma: DmaHandle,
        barrier: Barrier,
        now: Cycles,
    ) -> (Cycles, bool) {
        self.raw(warp, tenant, dev, lba, barrier, now, |cid| {
            NvmeCommand::read(cid, lba, dma.clone())
        })
    }

    /// Issue a raw 4 KiB write of `token` that bypasses the software cache
    /// (Figure 6); otherwise as [`IoPath::raw_read`].
    #[allow(clippy::too_many_arguments)]
    pub fn raw_write(
        &self,
        warp: u64,
        tenant: u32,
        dev: u32,
        lba: Lba,
        token: PageToken,
        barrier: Barrier,
        now: Cycles,
    ) -> (Cycles, bool) {
        let dma = DmaHandle::with_token(token);
        self.raw(warp, tenant, dev, lba, barrier, now, |cid| {
            NvmeCommand::write(cid, lba, dma.clone())
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn raw(
        &self,
        warp: u64,
        tenant: u32,
        dev: u32,
        lba: Lba,
        barrier: Barrier,
        now: Cycles,
        build: impl Fn(u16) -> NvmeCommand,
    ) -> (Cycles, bool) {
        bump(&self.stats.raw_calls, 1);
        let txn = Transaction::Raw {
            barrier,
            lba,
            qos_tenant: self.qos.get().map(|_| tenant),
        };
        self.submit(dev as usize, warp, Traffic::Tenant(tenant), build, txn, now)
    }

    // ------------------------------------------------------------------
    // Retire
    // ------------------------------------------------------------------

    /// Handle the completion of command `cid` on queue pair `qidx` of device
    /// `dev`: release the SQE and finish its transaction. `poller` is the
    /// identity stamped on the `ServiceCompletion` trace event — `None` for
    /// the AGILE service, the polling warp for a BaM user thread.
    pub fn retire(&self, dev: usize, qidx: usize, cid: u16, poller: Option<u32>, now: Cycles) {
        let sq = &self.devices[dev][qidx];
        let txn = sq
            .transactions()
            .take(cid)
            .expect("completion for a command with no transaction");
        sq.release(cid);
        if let Some(sink) = self.trace.get() {
            let ev = TraceEvent::new(TraceEventKind::ServiceCompletion, now.raw())
                .target(dev as u32, 0)
                .queue(qidx as u16, cid);
            sink.record(match poller {
                Some(warp) => ev.tenant(warp),
                None => ev,
            });
        }
        match txn {
            Transaction::CacheFill { line } => {
                self.cache.complete_fill(line);
                self.cache.unpin(line);
            }
            Transaction::WriteBack => {}
            Transaction::UserRead { barrier, shared } => {
                barrier.complete(&self.hub);
                if let Some(s) = shared {
                    s.mark_ready();
                }
            }
            Transaction::UserWrite { barrier } => barrier.complete(&self.hub),
            Transaction::Raw {
                barrier,
                qos_tenant,
                ..
            } => {
                barrier.complete(&self.hub);
                // Return the in-flight QoS credit so the scheduler can admit
                // the tenant's next submission.
                if let (Some(tenant), Some(qos)) = (qos_tenant, self.qos.get()) {
                    qos.on_complete(tenant);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Miss service and the cached accesses built on it
    // ------------------------------------------------------------------

    /// Service a miss that reserved `line`: write the dirty victim back
    /// first (from a snapshot, so there is no hazard against the incoming
    /// data), then issue the fill of `fill = (dev, lba, dma)` — or nothing
    /// for a write-allocate store (`None`), whose caller installs the data.
    /// Returns the I/O cost and whether the line may proceed.
    ///
    /// Both commands are system traffic. When the write-back cannot issue
    /// the victim's dirty data is reinstated in the line — the snapshot is
    /// its only copy; when the fill cannot issue the reservation is aborted.
    /// Either way nothing is left BUSY and the caller retries later.
    fn service_miss(
        &self,
        warp: u64,
        line: LineId,
        fill: Option<(u32, Lba, DmaHandle)>,
        writeback: Option<(u32, Lba, PageToken)>,
        now: Cycles,
    ) -> (Cycles, bool) {
        let mut cost = Cycles::ZERO;
        if let Some((wb_dev, wb_lba, wb_token)) = writeback {
            bump(&self.stats.writebacks, 1);
            let snapshot = DmaHandle::with_token(wb_token);
            let (wb_cost, ok) = self.submit(
                wb_dev as usize,
                warp,
                Traffic::System,
                |cid| NvmeCommand::write(cid, wb_lba, snapshot.clone()),
                Transaction::WriteBack,
                now,
            );
            cost += wb_cost;
            if !ok {
                self.cache.reinstate_victim(line, wb_dev, wb_lba, wb_token);
                return (cost, false);
            }
        }
        if let Some((dev, lba, dma)) = fill {
            let (io_cost, ok) = self.submit(
                dev as usize,
                warp,
                Traffic::System,
                |cid| NvmeCommand::read(cid, lba, dma.clone()),
                Transaction::CacheFill { line },
                now,
            );
            cost += io_cost;
            if !ok {
                self.cache.abort_fill(line);
                return (cost, false);
            }
        }
        (cost, true)
    }

    /// Look one warp's requests up in the software cache, coalesced
    /// (§3.3.2), issuing a fill for every miss that can be started. Returns
    /// the cycle cost; the unique requests and the state of each are left in
    /// `wait` ([`WarpWait::unique`], [`WarpWait::pages`]). Cache hits/misses
    /// and filled lines are attributed to `tenant` (`agile_cache::NO_TENANT`
    /// skips the accounting); the fills and write-backs themselves are
    /// system traffic.
    ///
    /// `wait` carries the previous attempt of the same request, if there was
    /// one: a page whose ticketed fill is still in flight is accounted as the
    /// BUSY lookup it would be without being looked up.
    pub fn lookup_warp(
        &self,
        warp: u64,
        tenant: u32,
        requests: &[(u32, Lba)],
        now: Cycles,
        wait: &mut WarpWait,
    ) -> Cycles {
        self.cache.set_time_hint(now.raw());
        wait.aim(requests);
        bump(&self.stats.warp_coalesced, wait.coalesced.eliminated as u64);
        let mut cost = Cycles(self.gpu.warp_primitive);
        let mut coalesced_onto = 0;
        for (i, &(dev, lba)) in wait.coalesced.unique.iter().enumerate() {
            if let PageState::InFlight(ticket) = wait.pages[i] {
                if self.cache.lookup_busy(ticket, dev, lba, tenant) {
                    cost += Cycles(self.costs.cache_hit);
                    coalesced_onto += 1;
                    continue;
                }
            }
            wait.pages[i] = match self.cache.lookup_or_reserve_as(dev, lba, tenant) {
                CacheLookup::Hit { line, token } => {
                    cost += Cycles(self.costs.cache_hit);
                    bump(&self.stats.cache_hits, 1);
                    self.cache.unpin(line);
                    PageState::Ready(token)
                }
                CacheLookup::Busy { line, generation } => {
                    cost += Cycles(self.costs.cache_hit);
                    coalesced_onto += 1;
                    PageState::InFlight(BusyTicket { line, generation })
                }
                CacheLookup::Miss {
                    line,
                    dma,
                    writeback,
                    generation,
                } => {
                    cost += Cycles(self.costs.cache_miss);
                    bump(&self.stats.cache_misses, 1);
                    let (io_cost, started) =
                        self.service_miss(warp, line, Some((dev, lba, dma)), writeback, now);
                    cost += io_cost;
                    if started {
                        PageState::InFlight(BusyTicket { line, generation })
                    } else {
                        PageState::NotStarted
                    }
                }
                CacheLookup::NoLineAvailable => {
                    cost += Cycles(self.costs.cache_miss);
                    PageState::NotStarted
                }
            };
        }
        bump(&self.stats.cache_coalesced, coalesced_onto);
        self.charge_cache(cost);
        cost
    }

    /// Array-like synchronous read for one warp: returns the tokens for all
    /// lanes if everything is resident, otherwise issues the missing fills
    /// and asks the caller to retry with the same `wait` (AGILE's service,
    /// or on BaM the caller's own polling, lands them in between). Tenant
    /// attribution and `wait` as in [`IoPath::lookup_warp`].
    pub fn read_warp(
        &self,
        warp: u64,
        tenant: u32,
        requests: &[(u32, Lba)],
        now: Cycles,
        wait: &mut WarpWait,
    ) -> (Cycles, ReadOutcome) {
        bump(&self.stats.read_calls, 1);
        let cost = self.lookup_warp(warp, tenant, requests, now, wait);
        let outcome = wait
            .lane_tokens()
            .map_or(ReadOutcome::Pending, ReadOutcome::Ready);
        (cost, outcome)
    }

    /// Store one page through the software cache (array-like write): the
    /// line is updated (write-allocate, no fetch of the old contents) and
    /// marked dirty; the write-back to flash happens on eviction. Evicting a
    /// dirty victim issues its write-back first, exactly like the read path.
    /// Returns the cost and whether the store landed (false = retry later,
    /// with the same `wait`: a store blocked behind a fill that is still in
    /// flight is then re-accounted without a lookup). Tenant attribution as
    /// in [`IoPath::lookup_warp`].
    #[allow(clippy::too_many_arguments)]
    pub fn write_warp(
        &self,
        warp: u64,
        tenant: u32,
        dev: u32,
        lba: Lba,
        token: PageToken,
        now: Cycles,
        wait: &mut LineWait,
    ) -> (Cycles, bool) {
        self.cache.set_time_hint(now.raw());
        let mut cost = Cycles::ZERO;
        let blocked = wait
            .0
            .is_some_and(|ticket| self.cache.lookup_busy(ticket, dev, lba, tenant));
        let stored = if blocked {
            cost += Cycles(self.costs.cache_miss);
            None
        } else {
            wait.0 = None;
            match self.cache.lookup_or_reserve_as(dev, lba, tenant) {
                CacheLookup::Hit { line, .. } => {
                    cost += Cycles(self.costs.cache_hit);
                    Some(line)
                }
                CacheLookup::Miss {
                    line, writeback, ..
                } => {
                    cost += Cycles(self.costs.cache_miss);
                    let (wb_cost, ok) = self.service_miss(warp, line, None, writeback, now);
                    cost += wb_cost;
                    ok.then(|| {
                        self.cache.complete_fill(line);
                        line
                    })
                }
                CacheLookup::Busy { line, generation } => {
                    cost += Cycles(self.costs.cache_miss);
                    wait.0 = Some(BusyTicket { line, generation });
                    None
                }
                CacheLookup::NoLineAvailable => {
                    cost += Cycles(self.costs.cache_miss);
                    None
                }
            }
        };
        if let Some(line) = stored {
            self.cache.store(line, token);
            self.cache.unpin(line);
        }
        self.charge_cache(cost);
        (cost, stored.is_some())
    }
}

// ----------------------------------------------------------------------
// Sleeping on a wait
// ----------------------------------------------------------------------

impl IoPath {
    /// The sleeper of `slot`, registered with the hub the first time its
    /// warp has something to sleep on — or `None` while it is asleep
    /// already: wait state shared by two warps (accessor tables are keyed by
    /// the kernel's warp index, which a rounded-up launch can alias) puts
    /// only the first of them to sleep, and the other polls.
    fn sleeper(&self, slot: &mut Option<SleeperId>) -> Option<SleeperId> {
        let id = *slot.get_or_insert_with(|| self.hub.register());
        (!self.hub.is_asleep(id)).then_some(id)
    }

    /// What each further attempt of a pending read costs while everything it
    /// waits for stays in flight: `read`'s pages looked up `BUSY` again.
    pub fn repoll_cost(&self, read: &WarpWait) -> Cycles {
        Cycles(self.gpu.warp_primitive + self.costs.cache_hit * read.pages().len() as u64)
    }

    /// The wait descriptor for a warp whose cached accesses just retired
    /// nothing: `reads` is the state its pending [`IoPath::read_warp`] left
    /// (`None` when it has no read pending), `writes` the wait state of its
    /// stores that did not land.
    ///
    /// When every pending page holds a live ticket — each read page
    /// [`PageState::InFlight`], each store blocked behind a fill — the next
    /// attempt, and every one after it until one of those reservations ends,
    /// would do nothing but find them `BUSY` again at a known cost. The
    /// result is then a **parkable** wait: `sleeper` (registered on first
    /// use, one per warp) watches every such line. Anything else — a page
    /// that is resident, or that could not be started — is a wait that has
    /// to be polled.
    ///
    /// A caller whose retry interval depends on the attempt's cost must also
    /// check that this attempt cost what the skipped ones would
    /// ([`IoPath::repoll_cost`], [`Wait::only_if`]).
    pub fn park_on_fills<'a>(
        &self,
        sleeper: &mut Option<SleeperId>,
        reads: Option<&WarpWait>,
        writes: impl Iterator<Item = &'a LineWait> + Clone,
    ) -> Wait {
        let read_pages = reads.map_or(&[][..], |wait| wait.pages());
        let reads_in_flight = read_pages
            .iter()
            .all(|p| matches!(p, PageState::InFlight(_)));
        let writes_blocked = writes.clone().all(|wait| wait.0.is_some());
        if read_pages.contains(&PageState::NotStarted) || !writes_blocked {
            return Wait::polling(WaitReason::CacheLine);
        }
        let nothing_pending = read_pages.is_empty() && writes.clone().next().is_none();
        if !reads_in_flight || nothing_pending {
            return Wait::polling(WaitReason::CacheFill);
        }
        let Some(id) = self.sleeper(sleeper) else {
            return Wait::polling(WaitReason::CacheFill);
        };
        let tickets = writes
            .filter_map(|wait| wait.0)
            .chain(read_pages.iter().filter_map(|p| match p {
                PageState::InFlight(ticket) => Some(*ticket),
                _ => None,
            }));
        for ticket in tickets {
            if !self.cache.watch_line(ticket, id) {
                // The reservation ended since the attempt looked: the next
                // attempt has real work to do.
                return Wait::polling(WaitReason::CacheFill);
            }
        }
        Wait::parked(WaitReason::CacheFill, id)
    }

    /// The wait descriptor for a warp that can do nothing until one of its
    /// own `barriers` completes (its request window is full, or it is
    /// draining): parkable, with `sleeper` watching every barrier, unless
    /// one has completed already.
    pub fn park_on_barriers<'a>(
        &self,
        sleeper: &mut Option<SleeperId>,
        barriers: impl Iterator<Item = &'a Barrier>,
    ) -> Wait {
        let Some(id) = self.sleeper(sleeper) else {
            return Wait::polling(WaitReason::Barrier);
        };
        let mut watched = 0;
        for barrier in barriers {
            if !barrier.watch(id) {
                return Wait::polling(WaitReason::Barrier);
            }
            watched += 1;
        }
        if watched == 0 {
            return Wait::polling(WaitReason::Barrier);
        }
        Wait::parked(WaitReason::Barrier, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::{Fifo, WeightedFair};
    use agile_cache::{CacheConfig, ClockPolicy, NO_TENANT};
    use nvme_sim::{MemBacking, SsdConfig, SsdDevice};

    /// A bare-queue path (no topology) at AGILE's costs over one device.
    fn rig(qps: usize, depth: u32) -> (IoPath, SsdDevice) {
        let mut dev = SsdDevice::new(
            SsdConfig::new(0).with_capacity_pages(1 << 20),
            Arc::new(MemBacking::new(0)),
        );
        let queues: Vec<Arc<QueuePair>> = (0..qps)
            .map(|q| {
                let qp = QueuePair::new(q as u16, depth);
                dev.register_queue_pair(Arc::clone(&qp));
                qp
            })
            .collect();
        let cache = SoftwareCache::new(
            CacheConfig::with_capacity(4 * agile_sim::units::MIB),
            Box::new(ClockPolicy::new()),
        );
        let io = IoPath::new(
            PathCosts::agile(&ApiCosts::default()),
            GpuCosts::default(),
            cache,
            vec![queues],
            None,
        );
        (io, dev)
    }

    fn raw(io: &IoPath, tenant: u32, lba: Lba, now: u64) -> bool {
        io.raw_read(
            0,
            tenant,
            0,
            lba,
            DmaHandle::new(),
            Barrier::new(),
            Cycles(now),
        )
        .1
    }

    #[test]
    fn submit_retries_and_reports_when_all_sqs_full() {
        let (io, _dev) = rig(1, 2);
        // Fill both SQ slots with raw reads.
        assert!(raw(&io, 0, 0, 0));
        assert!(raw(&io, 0, 1, 0));
        assert!(!raw(&io, 0, 99, 0));
        assert_eq!(io.stats().sq_full_retries, 1);
        // A miss that cannot issue its fill must not wedge the cache line.
        let mut wait = WarpWait::new();
        io.lookup_warp(0, NO_TENANT, &[(0, 123)], Cycles(0), &mut wait);
        assert_eq!(wait.pages(), [PageState::NotStarted]);
        assert_eq!(io.cache().total_pins(), 0, "aborted fill must unpin");
    }

    #[test]
    fn qos_gate_defers_a_tenant_at_its_slot_share() {
        let (io, _dev) = rig(2, 32); // 64 slots total
        let policy = Arc::new(WeightedFair::new());
        assert!(io.set_qos_policy(policy.clone()));
        assert!(io.qos_policy().is_some());
        // Tenant 9 becomes active: equal weights split the 64 slots 32/32.
        assert!(raw(&io, 9, 1, 0));
        let admitted = (0..40u64).take_while(|&i| raw(&io, 0, 100 + i, i)).count();
        assert_eq!(admitted, 32, "equal weights ⇒ tenant 0 defers at half");
        assert_eq!(io.stats().qos_deferrals, 1);
        // A completion frees a credit and the tenant is admitted again.
        policy.on_complete(0);
        assert!(raw(&io, 0, 999, 50));
    }

    #[test]
    fn qos_admission_is_refunded_when_every_sq_is_full() {
        let (io, _dev) = rig(1, 2); // 2 slots total
        let policy = Arc::new(WeightedFair::new());
        assert!(io.set_qos_policy(policy.clone()));
        // Fill both slots with system traffic (gate-exempt).
        for i in 0..2u64 {
            let (_, ok) = io.submit(
                0,
                0,
                Traffic::System,
                |cid| NvmeCommand::read(cid, i, DmaHandle::new()),
                Transaction::WriteBack,
                Cycles(0),
            );
            assert!(ok);
        }
        // The tenant is admitted by the policy but finds every SQ full: the
        // failed attempt must not count against its share.
        assert!(!raw(&io, 0, 7, 1));
        assert_eq!(io.stats().sq_full_retries, 1);
        let stats = policy.tenant_stats();
        assert_eq!(stats[0].in_flight, 0, "refunded");
        assert_eq!(stats[0].admitted, 0, "refunded");
        assert_eq!(stats[0].deferred, 0, "an SQ-full failure is not a deferral");
    }

    #[test]
    fn second_qos_policy_is_rejected() {
        let (io, _dev) = rig(1, 8);
        assert!(io.set_qos_policy(Arc::new(Fifo)));
        assert!(!io.set_qos_policy(Arc::new(WeightedFair::new())));
        assert_eq!(io.qos_policy().unwrap().name(), "fifo");
    }

    #[test]
    fn read_miss_then_retire_then_hit() {
        let (io, mut dev) = rig(2, 64);
        let reqs = vec![(0u32, 5u64), (0, 6)];
        let mut wait = WarpWait::new();
        let (_, outcome) = io.read_warp(0, NO_TENANT, &reqs, Cycles(0), &mut wait);
        assert_eq!(outcome, ReadOutcome::Pending, "first access must miss");
        assert_eq!(io.stats().cache_misses, 2);
        // Both fills went to warp 0's home SQ; play the completion side.
        let cq = &io.device_queues(0)[0].queue_pair().cq;
        let mut now = Cycles(0);
        for idx in 0..2 {
            let cqe = loop {
                if let Some(cqe) = cq.poll_slot(idx, true) {
                    break cqe;
                }
                now += Cycles(2_000);
                assert!(now.raw() < 10_000_000, "fill never completed");
                dev.advance_to(now);
            };
            io.retire(0, 0, cqe.cid, None, now);
        }
        let (_, outcome) = io.read_warp(0, NO_TENANT, &reqs, now, &mut wait);
        assert_eq!(
            outcome,
            ReadOutcome::Ready(vec![PageToken::pristine(0, 5), PageToken::pristine(0, 6)])
        );
        assert_eq!(io.cache().total_pins(), 0);
        assert_eq!(io.device_queues(0)[0].free_slots(), 64, "SQEs released");
    }
}
