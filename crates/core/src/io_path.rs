//! The I/O path both controllers stand on.
//!
//! AGILE and the BaM baseline differ in *who completes commands* (a
//! background service vs the issuing thread) and in *what each API call
//! costs* — and in nothing else. [`IoPath`] is everything else, implemented
//! once: the per-device [`AgileSq`] lists, the optional storage topology,
//! the software cache, the install-once trace / QoS hooks and the
//! statistics both systems report. On top of that state it provides
//!
//! * **submit** ([`IoPath::submit`]) — QoS gate → the "pick an SQ by thread
//!   index, move to the next SQ when full" placement of §3.3.1 → the charge
//!   of the accepting SQ's submit lock → `Submit`/`Doorbell` trace
//!   stamping, or a refund when every SQ was full. Only a submission that
//!   found a free tail takes a lock, so a refused one costs its probes and
//!   moves nothing else. [`Traffic`] says whether the command is tenant traffic
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
//!   only the rest go through the cache again, under one cache lock taken at
//!   the first of them ([`SoftwareCache::lock`]). A warp that serves lanes as
//!   their pages arrive retires them from the attempt's own page states
//!   ([`IoPath::retire_resident`]) and keeps the rest of its wait state,
//!   tickets included, for the lanes left;
//! * **sleeping on a wait** ([`IoPath::park_on_fills`] /
//!   [`IoPath::park_on_barriers`] / [`IoPath::park_on_submit`]) — when such
//!   a retry would find every page it wants still in flight or still
//!   without a line in a set whose every way is `BUSY`, every barrier still
//!   armed, or every SQ of its device still full, it is *pure*: the caller
//!   gets a parkable [`Wait`], its sleeper is registered on the lines (all
//!   ways of such a set) or barriers (or the device's counting queue), and
//!   whatever ends a reservation — [`IoPath::retire`], or a fill or
//!   write-back the SQs refused — notifies it ([`IoPath::retire`] also
//!   grants the queue the slots a release frees). The polls it sleeps
//!   through are never made, so they count nowhere.
//!
//! The per-system difference is data fixed at construction: a [`PathCosts`]
//! triple derived from [`ApiCosts`]. No method ever holds a lock across a
//! wait; each returns a cycle cost (charged to the calling warp as busy
//! time) plus an outcome that may ask the caller to retry later.

use crate::coalesce::{coalesce_warp_into, CoalescedRequests};
use crate::qos::{gate_admission, QosDecision, QosPolicy};
use crate::sq_protocol::AgileSq;
use crate::transaction::{Barrier, Transaction};
use agile_cache::{
    BusyTicket, CacheGuard, CacheLookup, LineId, ShardedCache, SoftwareCache, Writeback,
};
use agile_sim::costs::{ApiCosts, GpuCosts};
use agile_sim::trace::{TraceEvent, TraceEventKind, TraceSink};
use agile_sim::wake::{SleeperId, Wait, WaitQueue, WaitReason, WakeHub};
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
/// dead or that had none. A different request starts over, unless it is
/// the last one with the lanes [`IoPath::retire_resident`] retired taken
/// out: that narrows the state to the lanes left, tickets and all. A fresh
/// value on every call is therefore always correct, just slower; a carried
/// one makes a retry whose pages are all still in flight free of the cache
/// lock, tag scans, coalescing and allocation.
#[derive(Debug, Default)]
pub struct WarpWait {
    /// The request of the last attempt, as it coalesced.
    coalesced: CoalescedRequests,
    /// Per unique request: what the last attempt found or started.
    pages: Vec<PageState>,
    /// The index of the last page whose lookup in the last attempt reserved
    /// a line (0 when none did): a page before it that the attempt found
    /// resident may have lost its line to that miss.
    unsure_below: usize,
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
            unsure_below: 0,
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

    /// Forget the last attempt but keep the room it took: the next call
    /// looks every page up, exactly as with a fresh [`WarpWait`].
    pub(crate) fn clear(&mut self) {
        self.coalesced.unique.clear();
        self.coalesced.lane_to_unique.clear();
        self.coalesced.eliminated = 0;
        self.pages.clear();
        self.unsure_below = 0;
    }

    /// The requests of the last attempt that it could not even start (no
    /// cache line, or every SQ full), in first-appearance order.
    pub fn not_started(&self) -> impl Iterator<Item = (u32, Lba)> + '_ {
        self.coalesced
            .unique
            .iter()
            .zip(&self.pages)
            .filter(|&(_, &page)| page == PageState::NotStarted)
            .map(|(&request, _)| request)
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

    /// The unique page lane `lane` of the last attempt asked for: an index
    /// into [`WarpWait::unique`] and [`WarpWait::pages`].
    fn lane_page(&self, lane: usize) -> usize {
        self.coalesced.lane_to_unique[lane]
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
/// what the store found in its way's set — a fill in flight for its page,
/// or no line to take. Belongs to that one store: it says nothing about any
/// other page.
#[derive(Debug, Clone, Copy, Default)]
pub struct LineWait(WaitsFor);

/// What the next attempt at one pending page would find again, as long as
/// nothing wakes its sleeper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum WaitsFor {
    /// Nothing known: the next attempt has real work to do.
    #[default]
    Nothing,
    /// This fill in flight.
    Fill(BusyTicket),
    /// No line in the set of this `(device, LBA)`.
    Line(u32, Lba),
}

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
    /// Tenant submissions deferred by the QoS admission gate (the policy's
    /// per-tenant [`deferred`](crate::qos::QosTenantStats::deferred), summed).
    pub qos_deferrals: u64,
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
    cache_cycles: AtomicU64,
    io_cycles: AtomicU64,
}

fn bump(cell: &AtomicU64, by: u64) {
    if by > 0 {
        cell.fetch_add(by, Ordering::Relaxed);
    }
}

/// The shared submit / retire / miss-service path (see the module docs).
pub struct IoPath {
    costs: PathCosts,
    gpu: GpuCosts,
    cache: ShardedCache,
    /// Per device, per queue pair.
    devices: Vec<Vec<Arc<AgileSq>>>,
    /// The storage topology behind the queues: striping map plus the modeled
    /// per-SQ submit locks, one charged on every submission that claims a
    /// slot. `None` in bare-queue unit rigs, in which case submissions pay no
    /// lock cost.
    topology: Option<Arc<StorageTopology>>,
    stats: IoStatCells,
    /// Where warps waiting on this path sleep: notified by
    /// [`IoPath::retire`] and the cache's fill paths, drained by the engine
    /// the host attaches it to.
    hub: Arc<WakeHub>,
    /// Per device, the hub's counting queue of warps waiting for an SQ slot
    /// ([`IoPath::park_on_submit`]); [`IoPath::retire`] grants it the slots
    /// a release makes claimable.
    sq_waiters: Vec<WaitQueue>,
    /// Optional trace recorder for the submit/doorbell/completion paths.
    trace: OnceLock<Arc<dyn TraceSink>>,
    /// Optional QoS policy arbitrating tenant-attributed SQ admission.
    /// Absent ⇒ FIFO (pre-QoS behaviour, bit-for-bit).
    qos: OnceLock<Arc<dyn QosPolicy>>,
}

impl IoPath {
    /// Build the path over the queue pairs of each device (outer index =
    /// device id, inner = queue pair). With a `topology` submissions are
    /// charged their SQ's submit lock and the striped page space is
    /// resolvable through [`IoPath::resolve_page`].
    pub fn new(
        costs: PathCosts,
        gpu: GpuCosts,
        cache: SoftwareCache,
        device_queues: Vec<Vec<Arc<QueuePair>>>,
        topology: Option<Arc<StorageTopology>>,
    ) -> Self {
        let devices = device_queues
            .into_iter()
            .map(|qps| {
                qps.into_iter()
                    .map(|qp| Arc::new(AgileSq::new(qp)))
                    .collect()
            })
            .collect::<Vec<Vec<_>>>();
        let hub = WakeHub::new();
        cache.set_wake_hub(Arc::clone(&hub));
        let sq_waiters = devices.iter().map(|_| hub.register_queue()).collect();
        IoPath {
            costs,
            gpu,
            cache: cache.into(),
            devices,
            topology,
            stats: IoStatCells::default(),
            hub,
            sq_waiters,
            trace: OnceLock::new(),
            qos: OnceLock::new(),
        }
    }

    // ------------------------------------------------------------------
    // Hooks and accessors
    // ------------------------------------------------------------------

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
    pub fn topology(&self) -> Option<&Arc<StorageTopology>> {
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
            qos_deferrals: self
                .qos
                .get()
                .map_or(0, |qos| qos.tenant_stats().iter().map(|t| t.deferred).sum()),
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
    /// the gate. Only a submission that claimed a slot is charged, and only
    /// the submit lock of the SQ that accepted it.
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
        for attempt in 0..n {
            let sq = &sqs[(start + attempt) % n];
            // A full SQ costs one probe and no claim: move to the next one
            // ("simply increasing the index of the target SQ"). The
            // `Transaction` clone (an Arc flag and small ids) is made only
            // for a queue with a free tail.
            let receipt = if sq.is_full() {
                None
            } else {
                sq.try_issue(&build, txn.clone(), now)
            };
            let Some(receipt) = receipt else {
                cost += Cycles(gpu.poll_iteration);
                continue;
            };
            // This SQ's lock guarding its slot allocation + doorbell update
            // (Algorithm 2), taken by a submission that found a free tail and
            // only then: FIFO wait behind the SQ's earlier holders, then the
            // hold.
            if let Some(topology) = &self.topology {
                cost += topology.lock_acquire(dev, sq.queue_pair().id(), warp, now);
            }
            if receipt.rang_doorbell {
                cost += Cycles(gpu.doorbell_write);
            }
            // Extra serialization attempts burn polling cycles.
            cost += Cycles(gpu.poll_iteration) * (receipt.attempts.saturating_sub(1)) as u64;
            self.charge_io(cost);
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
        self.refuse(cost)
    }

    /// Account a submission every SQ refused, after probes that cost `cost`.
    fn refuse(&self, cost: Cycles) -> (Cycles, bool) {
        bump(&self.stats.sq_full_retries, 1);
        self.charge_io(cost);
        (cost, false)
    }

    /// True when an installed QoS policy arbitrates tenant submissions (one
    /// that [`admits_all`](QosPolicy::admits_all) does not count): an
    /// attempt then moves policy state even when it is refused.
    fn gated(&self) -> bool {
        self.qos.get().is_some_and(|qos| !qos.admits_all())
    }

    /// True when no SQ of `dev` can take a command.
    fn all_full(&self, dev: usize) -> bool {
        self.devices[dev].iter().all(|sq| sq.is_full())
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

    /// A raw submission to `dev` that is sure to be refused, accounted
    /// without being built: when no QoS policy gates submissions and every
    /// SQ of `dev` is full, count and charge the attempt exactly as
    /// [`IoPath::raw_read`] / [`IoPath::raw_write`] would and return its
    /// cost. `None` otherwise — make the real call. Lets a warp skip
    /// allocating a barrier and a command for an attempt that cannot issue.
    pub fn raw_refusal(&self, dev: u32) -> Option<Cycles> {
        let dev = dev as usize;
        if self.gated() || !self.all_full(dev) {
            return None;
        }
        bump(&self.stats.raw_calls, 1);
        let probes = Cycles(self.gpu.poll_iteration) * self.devices[dev].len() as u64;
        Some(self.refuse(Cycles(self.costs.issue) + probes).0)
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
    /// the AGILE service, the polling warp for a BaM user thread. While
    /// warps wait for an SQ slot of `dev`, the slots the release makes
    /// claimable are granted to them ([`IoPath::park_on_submit`]).
    pub fn retire(&self, dev: usize, qidx: usize, cid: u16, poller: Option<u32>, now: Cycles) {
        let sq = &self.devices[dev][qidx];
        let txn = sq
            .transactions()
            .take(cid)
            .expect("completion for a command with no transaction");
        sq.release(cid);
        let waiters = &self.sq_waiters[dev];
        if waiters.waiters() > 0 {
            self.hub.grant(waiters, sq.tail_gain(cid));
        }
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
                let mut cache = self.cache.lock();
                cache.complete_fill(line);
                cache.unpin(line);
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
    /// Either way nothing is left BUSY and the caller retries later. Runs
    /// under the caller's hold of the cache lock, `cache`.
    fn service_miss(
        &self,
        cache: &mut CacheGuard<'_>,
        warp: u64,
        line: LineId,
        fill: Option<(u32, Lba, DmaHandle)>,
        writeback: Option<Writeback>,
        now: Cycles,
    ) -> (Cycles, bool) {
        let mut cost = Cycles::ZERO;
        if let Some(victim) = writeback {
            let snapshot = DmaHandle::with_token(victim.token);
            let (wb_cost, ok) = self.submit(
                victim.dev as usize,
                warp,
                Traffic::System,
                |cid| NvmeCommand::write(cid, victim.lba, snapshot.clone()),
                Transaction::WriteBack,
                now,
            );
            cost += wb_cost;
            if !ok {
                cache.reinstate_victim(line, victim);
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
                cache.abort_fill(line);
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
    /// BUSY lookup it would be without being looked up. The cache lock is
    /// taken at the first page that no live ticket covers and held for the
    /// rest of the call, so an attempt whose pages are all still in flight
    /// takes none. A hit is consumed under it and so is not pinned.
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
        wait.unsure_below = 0;
        bump(&self.stats.warp_coalesced, wait.coalesced.eliminated as u64);
        let mut cost = Cycles(self.gpu.warp_primitive);
        let (mut hits, mut misses, mut coalesced_onto) = (0, 0, 0);
        let mut held = None;
        for (i, &(dev, lba)) in wait.coalesced.unique.iter().enumerate() {
            if let PageState::InFlight(ticket) = wait.pages[i] {
                if self.cache.lookup_busy(ticket, dev, lba, tenant) {
                    cost += Cycles(self.costs.cache_hit);
                    coalesced_onto += 1;
                    continue;
                }
            }
            let cache = held.get_or_insert_with(|| self.cache.lock());
            wait.pages[i] = match cache.lookup(dev, lba, tenant) {
                CacheLookup::Hit { token, .. } => {
                    cost += Cycles(self.costs.cache_hit);
                    hits += 1;
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
                    misses += 1;
                    wait.unsure_below = i;
                    let fill = Some((dev, lba, dma));
                    let (io_cost, started) =
                        self.service_miss(cache, warp, line, fill, writeback, now);
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
        drop(held);
        bump(&self.stats.cache_hits, hits);
        bump(&self.stats.cache_misses, misses);
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

    /// Whether the last attempt of `wait` left its unique page `u` resident:
    /// it found the page resident, and no later miss of the same attempt
    /// reserved its line. A miss may evict a page the attempt hit before it
    /// (or reinstate it, when the victim's write-back is refused), so a page
    /// found resident before the attempt's last miss is looked up again —
    /// under `cache`, the cache lock, taken by the first such look.
    fn page_resident<'c>(
        &'c self,
        wait: &WarpWait,
        u: usize,
        cache: &mut Option<CacheGuard<'c>>,
    ) -> bool {
        matches!(wait.pages[u], PageState::Ready(_)) && {
            let (dev, lba) = wait.coalesced.unique[u];
            u >= wait.unsure_below
                || cache
                    .get_or_insert_with(|| self.cache.lock())
                    .peek(dev, lba)
                    .is_some()
        }
    }

    /// Retire the lanes whose pages the last attempt of `wait` left resident
    /// (per-lane predication: a warp need not wait for all of its lanes) and
    /// narrow `wait` to the lanes left. `requests` is what that attempt asked
    /// for; `lane(i, resident)` sees each of its lanes in order, and the
    /// lanes it was told are resident are taken out of `requests`, in place.
    /// Returns how many lanes retired; when the attempt found no page
    /// resident that is 0, and nothing is looked at or changed.
    ///
    /// A page's lanes share its residency, so the lanes left ask for whole
    /// pages of the attempt: `wait` keeps those pages' states and tickets,
    /// in order, and the next attempt with `requests` re-checks their
    /// tickets instead of starting over. Allocates nothing, and takes the
    /// cache lock at most once: `lane` may be called with it held, so it
    /// must not call into the cache.
    pub fn retire_resident(
        &self,
        wait: &mut WarpWait,
        requests: &mut Vec<(u32, Lba)>,
        mut lane: impl FnMut(usize, bool),
    ) -> usize {
        debug_assert_eq!(requests.len(), wait.coalesced.lane_to_unique.len());
        if !wait.any_ready() {
            return 0;
        }
        let mut cache = None;
        let mut kept = 0;
        for i in 0..requests.len() {
            let resident = self.page_resident(wait, wait.lane_page(i), &mut cache);
            lane(i, resident);
            if !resident {
                requests[kept] = requests[i];
                kept += 1;
            }
        }
        let retired = requests.len() - kept;
        requests.truncate(kept);
        // The pages left, in order; the ones the attempt found resident but
        // lost again stay unsure.
        let (mut pages_kept, mut unsure) = (0, 0);
        for u in 0..wait.pages.len() {
            if !self.page_resident(wait, u, &mut cache) {
                wait.pages[pages_kept] = wait.pages[u];
                unsure += (u < wait.unsure_below) as usize;
                pages_kept += 1;
            }
        }
        drop(cache);
        wait.pages.truncate(pages_kept);
        wait.unsure_below = unsure;
        // The lanes left name those pages in the same first-appearance order.
        coalesce_warp_into(requests, &mut wait.coalesced);
        debug_assert_eq!(wait.coalesced.unique.len(), pages_kept);
        retired
    }

    /// Store one page through the software cache (array-like write): the
    /// line is updated (write-allocate, no fetch of the old contents) and
    /// marked dirty; the write-back to flash happens on eviction. Evicting a
    /// dirty victim issues its write-back first, exactly like the read path.
    /// Returns the cost and whether the store landed (false = retry later,
    /// with the same `wait`: a store blocked behind a fill that is still in
    /// flight is then re-accounted without a lookup, and without the cache
    /// lock, which anything else takes once). Tenant attribution as in
    /// [`IoPath::lookup_warp`].
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
        if let WaitsFor::Fill(ticket) = wait.0 {
            if self.cache.lookup_busy(ticket, dev, lba, tenant) {
                let cost = Cycles(self.costs.cache_miss);
                self.charge_cache(cost);
                return (cost, false);
            }
        }
        wait.0 = WaitsFor::Nothing;
        let mut cache = self.cache.lock();
        let mut cost = Cycles::ZERO;
        let stored = match cache.lookup(dev, lba, tenant) {
            CacheLookup::Hit { line, .. } => {
                cost += Cycles(self.costs.cache_hit);
                cache.store(line, token);
                true
            }
            CacheLookup::Miss {
                line, writeback, ..
            } => {
                cost += Cycles(self.costs.cache_miss);
                let (wb_cost, ok) = self.service_miss(&mut cache, warp, line, None, writeback, now);
                cost += wb_cost;
                if ok {
                    cache.complete_fill(line);
                    cache.store(line, token);
                    cache.unpin(line);
                }
                ok
            }
            CacheLookup::Busy { line, generation } => {
                cost += Cycles(self.costs.cache_miss);
                wait.0 = WaitsFor::Fill(BusyTicket { line, generation });
                false
            }
            CacheLookup::NoLineAvailable => {
                cost += Cycles(self.costs.cache_miss);
                wait.0 = WaitsFor::Line(dev, lba);
                false
            }
        };
        drop(cache);
        self.charge_cache(cost);
        (cost, stored)
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
    /// waits for stays as it is: `read`'s pages in flight looked up `BUSY`
    /// again, and those that found no line looked up — and missed — again.
    pub fn repoll_cost(&self, read: &WarpWait) -> Cycles {
        let lookup = |page: &PageState| match page {
            PageState::NotStarted => self.costs.cache_miss,
            _ => self.costs.cache_hit,
        };
        Cycles(self.gpu.warp_primitive + read.pages().iter().map(lookup).sum::<u64>())
    }

    /// The wait descriptor for a warp whose cached accesses just retired
    /// nothing: `reads` is the state its pending [`IoPath::read_warp`] left
    /// (`None` when it has no read pending), `writes` the wait state of its
    /// stores that did not land.
    ///
    /// Each pending page either holds a live ticket — a read page
    /// [`PageState::InFlight`], a store blocked behind a fill — or found no
    /// line in a set whose ways are all `BUSY`
    /// ([`CacheGuard::watch_full_set`]). When every one does, the next
    /// attempt, and every one after it until one of those reservations ends,
    /// would only find the same again at a known cost. The result is then a
    /// **parkable** wait: `sleeper` (registered on first use, one per warp)
    /// watches every such line. Anything else — a page that is resident, a
    /// fill or write-back the SQs refused, a set with a way that is not
    /// `BUSY` — is a wait that has to be polled. The reason is
    /// [`WaitReason::CacheLine`] when some page waits for a line,
    /// [`WaitReason::CacheFill`] otherwise.
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
        let (unique, pages) =
            reads.map_or((&[][..], &[][..]), |wait| (wait.unique(), wait.pages()));
        let for_line = pages.contains(&PageState::NotStarted)
            || writes
                .clone()
                .any(|wait| !matches!(wait.0, WaitsFor::Fill(_)));
        let reason = if for_line {
            WaitReason::CacheLine
        } else {
            WaitReason::CacheFill
        };
        let polled = Wait::polling(reason);
        let read_waits = unique
            .iter()
            .zip(pages)
            .map(|(&(dev, lba), page)| match *page {
                PageState::InFlight(ticket) => WaitsFor::Fill(ticket),
                PageState::NotStarted => WaitsFor::Line(dev, lba),
                PageState::Ready(_) => WaitsFor::Nothing,
            });
        let mut waits = writes.map(|wait| wait.0).chain(read_waits);
        if waits.clone().next().is_none() || waits.clone().any(|wait| wait == WaitsFor::Nothing) {
            return polled;
        }
        let Some(id) = self.sleeper(sleeper) else {
            return polled;
        };
        // A registration fails when its reservation ended (or its set got a
        // way that is not BUSY) since the attempt looked: the next attempt
        // has real work to do. All of them are made under one hold of the
        // cache lock.
        let mut cache = self.cache.lock();
        let watched = waits.all(|wait| match wait {
            WaitsFor::Fill(ticket) => cache.watch_line(ticket, id),
            WaitsFor::Line(dev, lba) => cache.watch_full_set(dev, lba, id),
            WaitsFor::Nothing => false,
        });
        drop(cache);
        if watched {
            Wait::parked(reason, id)
        } else {
            polled
        }
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

    /// The wait descriptor for a warp whose submission to `dev` every SQ of
    /// `dev` just refused, and which can do nothing else until it submits —
    /// apart from reaping its own outstanding `barriers`.
    ///
    /// Its next attempt, and every one after it until an SQ slot of `dev`
    /// is released or one of those barriers completes, finds the same full
    /// queues at the same cost: the result is a **parkable** wait in `dev`'s
    /// counting queue, with `sleeper` also watching every barrier, and
    /// [`IoPath::retire`] grants the queue each slot a release makes
    /// claimable. Polled instead when a QoS policy gates submissions (a
    /// gated attempt moves policy state), when `dev` can take a command
    /// after all, or when a barrier has completed already (the next attempt
    /// reaps it).
    pub fn park_on_submit<'a>(
        &self,
        sleeper: &mut Option<SleeperId>,
        dev: usize,
        barriers: impl Iterator<Item = &'a Barrier>,
    ) -> Wait {
        let polled = Wait::polling(WaitReason::Submit);
        if self.gated() || !self.all_full(dev) {
            return polled;
        }
        let Some(id) = self.sleeper(sleeper) else {
            return polled;
        };
        for barrier in barriers {
            if !barrier.watch(id) {
                return polled;
            }
        }
        Wait::parked(WaitReason::Submit, id).queued(self.sq_waiters[dev].id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::{Fifo, WeightedFair};
    use agile_cache::{CacheConfig, ClockPolicy, NO_TENANT};
    use nvme_sim::{SsdConfig, SsdDevice};

    /// A bare-queue path (no topology) at AGILE's costs over one device.
    fn rig(qps: usize, depth: u32) -> (IoPath, SsdDevice) {
        rig_with(
            qps,
            depth,
            CacheConfig::with_capacity(4 * agile_sim::units::MIB),
        )
    }

    /// [`rig`] over a cache of geometry `cache`.
    fn rig_with(qps: usize, depth: u32, cache: CacheConfig) -> (IoPath, SsdDevice) {
        let mut dev = SsdDevice::new(SsdConfig::new(0).with_capacity_pages(1 << 20));
        let queues: Vec<Arc<QueuePair>> = (0..qps)
            .map(|q| {
                let qp = QueuePair::new(q as u16, depth);
                dev.register_queue_pair(Arc::clone(&qp));
                qp
            })
            .collect();
        let cache = SoftwareCache::new(cache, Box::new(ClockPolicy::new()));
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
    fn a_refused_submission_waits_in_its_devices_queue_until_a_release() {
        let (io, _dev) = rig(2, 4); // 8 slots
        let mut sleeper = None;
        assert!(io.raw_refusal(0).is_none(), "slots are free");
        assert_eq!(
            io.park_on_submit(&mut sleeper, 0, std::iter::empty()),
            Wait::polling(WaitReason::Submit),
            "a device that can take a command is no reason to sleep"
        );
        for lba in 0..8 {
            assert!(raw(&io, 0, lba, 0));
        }
        // Refused without a command being built, accounted as the real call.
        let before = io.stats();
        let cost = io.raw_refusal(0).expect("every SQ full");
        let after = io.stats();
        assert_eq!(
            io.raw_read(0, 0, 0, 9, DmaHandle::new(), Barrier::new(), Cycles(0)),
            (cost, false)
        );
        assert_eq!(
            io.stats().raw_calls - after.raw_calls,
            after.raw_calls - before.raw_calls
        );
        assert_eq!(io.stats().sq_full_retries, before.sq_full_retries + 2);
        assert_eq!(io.stats().io_cycles - after.io_cycles, cost.raw());

        // A barrier that completed already means the next attempt reaps:
        // poll. Otherwise sleep in device 0's queue, watching the barriers.
        let done = Barrier::new();
        done.complete(io.wake_hub());
        let armed = Barrier::new();
        let polled = io.park_on_submit(&mut sleeper, 0, [&armed, &done].into_iter());
        assert_eq!(polled, Wait::polling(WaitReason::Submit));
        let wait = io.park_on_submit(&mut sleeper, 0, std::iter::once(&armed));
        let queue = io.wake_hub().queue(wait.queue.expect("queued"));
        assert_eq!(wait.sleeper, sleeper);
        assert_eq!(wait.reason, WaitReason::Submit);

        // Releases grant what they make claimable, only while somebody waits.
        let drain = || {
            let mut grants = Vec::new();
            io.wake_hub().drain(&mut Vec::new(), &mut grants);
            grants
        };
        io.retire(0, 0, 1, None, Cycles(10));
        assert!(drain().is_empty(), "nobody waits yet");
        queue.join();
        io.retire(0, 0, 2, None, Cycles(20));
        assert!(
            drain().is_empty(),
            "slot 2 is behind slot 0: nothing claimable"
        );
        io.retire(0, 0, 0, None, Cycles(30));
        assert_eq!(drain(), [(queue.id(), 3)], "slots 0, 1 and 2");
    }

    #[test]
    fn only_a_gating_qos_policy_keeps_a_refused_submission_polling() {
        for (policy, sleeps) in [
            (Arc::new(Fifo) as Arc<dyn QosPolicy>, true),
            (Arc::new(WeightedFair::new()), false),
        ] {
            let (io, _dev) = rig(1, 2);
            assert!(io.set_qos_policy(policy));
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
            assert_eq!(io.raw_refusal(0).is_some(), sleeps);
            let wait = io.park_on_submit(&mut None, 0, std::iter::empty());
            assert_eq!(wait.sleeper.is_some(), sleeps);
        }
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

    #[derive(Default)]
    struct Log(std::sync::Mutex<Vec<TraceEvent>>);

    impl TraceSink for Log {
        fn record(&self, ev: TraceEvent) {
            self.0.lock().unwrap().push(ev);
        }
    }

    const DIRTY: Lba = 1;
    const CLEAN: Lba = 2;
    const HIT: Lba = 3;
    const BUSY: Lba = 4;

    /// One set of four ways holding, in this order, a dirty page, a clean
    /// one, a resident page pinned by somebody else (so never a victim) and
    /// a page whose fill is in flight; then the one SQ is filled up, so
    /// every further submission is refused.
    fn one_full_set() -> (IoPath, SsdDevice, Arc<Log>) {
        let (io, dev) = rig_with(
            1,
            2,
            CacheConfig {
                capacity_bytes: 4 * agile_sim::units::SSD_PAGE_SIZE,
                associativity: 4,
            },
        );
        let log = Arc::new(Log::default());
        assert!(io.set_trace_sink(Arc::clone(&log) as Arc<dyn TraceSink>));
        let cache = io.cache();
        for lba in [DIRTY, CLEAN, HIT] {
            assert!(cache.preload(0, lba, PageToken(lba)));
        }
        let hit = |lba| match cache.lookup_or_reserve(0, lba) {
            CacheLookup::Hit { line, .. } => line,
            other => panic!("expected a hit, got {other:?}"),
        };
        let dirty = hit(DIRTY);
        cache.store(dirty, PageToken(0xD));
        cache.unpin(dirty);
        hit(HIT);
        let mut wait = WarpWait::new();
        io.lookup_warp(0, NO_TENANT, &[(0, BUSY)], Cycles(0), &mut wait);
        assert!(matches!(wait.pages(), [PageState::InFlight(_)]));
        assert!(raw(&io, 0, 100, 0));
        assert!(io.all_full(0));
        (io, dev, log)
    }

    /// What [`IoPath::lookup_warp`] of `pages` does, page by page through
    /// the cache's one-shot methods, each of which locks for itself.
    fn one_by_one(io: &IoPath, tenant: u32, pages: &[(u32, Lba)]) -> (Cycles, Vec<PageState>) {
        let (cache, now) = (io.cache(), Cycles(10));
        cache.set_time_hint(now.raw());
        let mut cost = Cycles(io.gpu.warp_primitive);
        let mut states = Vec::new();
        for &(dev, lba) in pages {
            let system = |build: &dyn Fn(u16) -> NvmeCommand, txn| {
                io.submit(dev as usize, 0, Traffic::System, build, txn, now)
            };
            states.push(match cache.lookup_or_reserve_as(dev, lba, tenant) {
                CacheLookup::Hit { line, token } => {
                    cost += Cycles(io.costs.cache_hit);
                    bump(&io.stats.cache_hits, 1);
                    cache.unpin(line);
                    PageState::Ready(token)
                }
                CacheLookup::Busy { line, generation } => {
                    cost += Cycles(io.costs.cache_hit);
                    bump(&io.stats.cache_coalesced, 1);
                    PageState::InFlight(BusyTicket { line, generation })
                }
                CacheLookup::Miss {
                    line,
                    dma,
                    writeback,
                    generation,
                } => {
                    cost += Cycles(io.costs.cache_miss);
                    bump(&io.stats.cache_misses, 1);
                    let refused = writeback.is_some_and(|victim| {
                        let snapshot = DmaHandle::with_token(victim.token);
                        let write = |cid| NvmeCommand::write(cid, victim.lba, snapshot.clone());
                        let (c, ok) = system(&write, Transaction::WriteBack);
                        cost += c;
                        if !ok {
                            cache.reinstate_victim(line, victim);
                        }
                        !ok
                    });
                    if refused {
                        PageState::NotStarted
                    } else {
                        let read = |cid| NvmeCommand::read(cid, lba, dma.clone());
                        let (c, ok) = system(&read, Transaction::CacheFill { line });
                        cost += c;
                        if ok {
                            PageState::InFlight(BusyTicket { line, generation })
                        } else {
                            cache.abort_fill(line);
                            PageState::NotStarted
                        }
                    }
                }
                CacheLookup::NoLineAvailable => {
                    cost += Cycles(io.costs.cache_miss);
                    PageState::NotStarted
                }
            });
        }
        io.charge_cache(cost);
        (cost, states)
    }

    #[test]
    fn a_warp_call_under_one_lock_equals_its_pages_locked_one_by_one() {
        // A hit, a page in flight, a miss whose dirty victim's write-back is
        // refused (the victim is reinstated) and a miss whose fill is
        // refused (the reservation is aborted), in one warp call.
        const TENANT: u32 = 1;
        let pages = [(0, HIT), (0, BUSY), (0, 20), (0, 21)];
        let observe = |io: &IoPath, log: &Log, (cost, states): (Cycles, Vec<PageState>)| {
            let cache = io.cache();
            let resident: Vec<_> = [DIRTY, CLEAN, HIT, BUSY, 20, 21]
                .map(|lba| cache.peek(0, lba))
                .to_vec();
            (
                cost,
                states,
                io.stats(),
                cache.stats(),
                cache.tenant_stats(),
                cache.total_pins(),
                resident,
                log.0.lock().unwrap().clone(),
            )
        };
        let (held, _dev, held_log) = one_full_set();
        let mut wait = WarpWait::new();
        let cost = held.lookup_warp(0, TENANT, &pages, Cycles(10), &mut wait);
        let held = observe(&held, &held_log, (cost, wait.pages().to_vec()));
        let (each, _dev, each_log) = one_full_set();
        let result = one_by_one(&each, TENANT, &pages);
        let each = observe(&each, &each_log, result);
        assert_eq!(held, each);

        // Not vacuous: every case happened.
        let (_, states, io, cache, ..) = &held;
        assert!(matches!(
            states[..],
            [
                PageState::Ready(PageToken(HIT)),
                PageState::InFlight(_),
                PageState::NotStarted,
                PageState::NotStarted
            ]
        ));
        assert_eq!((cache.writebacks, cache.evictions), (1, 2));
        assert_eq!((io.cache_hits, io.cache_misses), (1, 3), "one miss set up");
        assert_eq!(io.sq_full_retries, 2, "the write-back and the fill");
        let resident = &held.6;
        assert_eq!(resident[0], Some(PageToken(0xD)), "the victim reinstated");
        assert_eq!(resident[1], None, "the clean victim's line was aborted");
    }
}
