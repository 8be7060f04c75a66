//! Deterministic trace replay through AGILE and the BaM baseline.
//!
//! [`agile_trace::Trace`] is the interchange format: captured from a live run
//! or synthesized by [`agile_trace::TraceSpec`]. This module feeds a trace's
//! ops back through the raw (cache-bypassing) I/O path of either system and
//! measures **per-request latency** — submit to observed completion, in GPU
//! cycles — into an [`agile_trace::LatencyHistogram`], giving p50/p95/p99
//! percentiles alongside the usual throughput numbers.
//!
//! Replay semantics:
//!
//! * ops are partitioned round-robin across warps (`op i → warp i % W`), so
//!   the interleave is identical run to run — or, with
//!   [`TraceReplayParams::tenant_warps`], by tenant: each tenant owns a
//!   demand-proportional block of warps replaying only its ops (the
//!   per-tenant virtual queues a QoS policy arbitrates);
//! * each op's `gap` (think time) is charged to the issuing warp as busy
//!   cycles before the request is issued, so bursty traces reproduce their
//!   on/off structure in simulated time;
//! * the [`ReplayPath::Raw`] mode drives the cache-bypassing I/O path —
//!   under AGILE a warp keeps a window of asynchronous requests in flight
//!   and reaps completions opportunistically (the service kernel recycles
//!   SQEs); under BaM a warp is synchronous — it issues one request and
//!   polls the CQ itself until the data lands, exactly the §2.2 model;
//! * the [`ReplayPath::Cached`] mode drives the software-cache path
//!   (prefetch + array-like reads, write-allocate stores), where address
//!   skew matters: a zipfian hot set mostly hits HBM while uniform traffic
//!   streams from flash. The AGILE variant prefetches one batch ahead
//!   (Method 1 of §3.5) so fills overlap with consumption.
//!
//! Everything is deterministic: the same trace + configuration produces
//! bit-identical latency histograms and therefore byte-identical reports.

use agile_core::transaction::Barrier;
use agile_core::{AgileCtrl, IoPath, LineWait, WarpWait};
use agile_metrics::{Collector, HistoSnapshot, Labels, MetricValue, MetricsRegistry, Sample};
use agile_sim::costs::{POLL_RETRY_CYCLES, SUBMIT_RETRY_CYCLES};
use agile_sim::wake::{SleeperId, Wait, WaitReason};
use agile_sim::Cycles;
use agile_trace::{LatencyHistogram, Trace, TraceOp};
use bam_baseline::BamCtrl;
use gpu_sim::{KernelFactory, WarpCtx, WarpKernel, WarpStep};
use nvme_sim::{DmaHandle, PageToken};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

/// Shared accumulator all replay warps record completions into: one
/// latency histogram and read/write counts per tenant, so the replay reports
/// per-tenant p50/p95/p99 next to the aggregate — the measurement a QoS
/// scheduler will be judged against. The aggregate is the exact merge of the
/// tenants'.
#[derive(Default)]
pub struct ReplayCollector {
    tenants: Arc<Mutex<BTreeMap<u32, TenantCompletions>>>,
    bound: AtomicBool,
}

/// One tenant's completions; the ones that are not writes are reads.
#[derive(Default)]
struct TenantCompletions {
    latency: LatencyHistogram,
    writes: u64,
}

impl ReplayCollector {
    /// New, empty collector.
    pub fn new() -> Self {
        ReplayCollector::default()
    }

    /// Export the recorded completions through `registry` as
    /// `agile_replay_ops_total{tenant}` / `agile_replay_latency_cycles{tenant}`
    /// (a tenant once it completed an op) plus aggregate
    /// `agile_replay_{reads,writes}_total`, read at snapshot time. Returns
    /// `false` if the collector was already bound (the first binding wins).
    pub fn bind_metrics(&self, registry: &Arc<MetricsRegistry>) -> bool {
        if self.bound.swap(true, Ordering::Relaxed) {
            return false;
        }
        registry.register_collector(Box::new(ReplayExport(Arc::clone(&self.tenants))));
        true
    }

    /// Record one completed op of `tenant` observed `latency_cycles` after
    /// its submit.
    pub fn record(&self, tenant: u32, latency_cycles: u64, write: bool) {
        let mut tenants = self.tenants.lock();
        let t = tenants.entry(tenant).or_default();
        t.latency.record(latency_cycles);
        t.writes += write as u64;
    }

    /// Completed reads.
    pub fn reads(&self) -> u64 {
        let tenants = self.tenants.lock();
        tenants.values().map(|t| t.latency.count() - t.writes).sum()
    }

    /// Completed writes.
    pub fn writes(&self) -> u64 {
        self.tenants.lock().values().map(|t| t.writes).sum()
    }

    /// The aggregate latency histogram.
    pub fn latency(&self) -> LatencyHistogram {
        let mut all = LatencyHistogram::new();
        for t in self.tenants.lock().values() {
            all.merge(&t.latency);
        }
        all
    }

    /// Snapshot of the per-tenant latency histograms, ordered by tenant id.
    pub fn tenant_latencies(&self) -> Vec<(u32, LatencyHistogram)> {
        self.tenants
            .lock()
            .iter()
            .map(|(&t, c)| (t, c.latency.clone()))
            .collect()
    }
}

/// The registry's view of a [`ReplayCollector`].
struct ReplayExport(Arc<Mutex<BTreeMap<u32, TenantCompletions>>>);

impl Collector for ReplayExport {
    fn collect(&self, out: &mut Vec<Sample>) {
        use MetricValue::{Counter, Histo};
        let mut push = |name, labels, value| {
            out.push(Sample {
                name,
                labels,
                value,
            })
        };
        let (mut ops, mut writes) = (0, 0);
        for (&tenant, t) in self.0.lock().iter() {
            let labels = Labels::tenant(tenant);
            push("agile_replay_ops_total", labels, Counter(t.latency.count()));
            let histo = Histo(Box::new(HistoSnapshot::of(&t.latency)));
            push("agile_replay_latency_cycles", labels, histo);
            ops += t.latency.count();
            writes += t.writes;
        }
        push(
            "agile_replay_reads_total",
            Labels::NONE,
            Counter(ops - writes),
        );
        push("agile_replay_writes_total", Labels::NONE, Counter(writes));
    }
}

/// Which I/O path the replay drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplayPath {
    /// Raw, cache-bypassing reads/writes (bandwidth-style measurement;
    /// address-distribution-independent by construction).
    #[default]
    Raw,
    /// Through the HBM software cache (prefetch + array-like access), where
    /// hot-set skew and eviction pressure show up in the percentiles.
    Cached,
}

/// Replay tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct TraceReplayParams {
    /// Warps the ops are partitioned across (must match the launch).
    pub total_warps: u64,
    /// Maximum asynchronous requests in flight per AGILE warp (raw path).
    pub window: usize,
    /// Which I/O path to drive.
    pub path: ReplayPath,
    /// Route every op through the topology's page-striping layer: the op's
    /// `(dev, lba)` is folded into one global page index and resolved back
    /// to a concrete device via `StorageTopology::map_page`. Requires the
    /// controller to carry a topology (hosts built via `HostBuilder` do).
    pub stripe: bool,
    /// Partition warps **by tenant** instead of round-robin over the whole
    /// trace: each tenant owns a contiguous block of warps sized
    /// proportionally to its op count (largest-remainder rounding, at least
    /// one warp per tenant with ops), and each warp replays only its
    /// tenant's ops, strided across that tenant's warps. This models each
    /// tenant as its own appropriately-sized kernel — the per-tenant virtual
    /// queues a QoS scheduler arbitrates — so a 9:1 op mix really is a 9:1
    /// pressure mix, and removes the head-of-line coupling where one warp's
    /// stream interleaves every tenant. With partitioning on, each warp's
    /// single tenant is also what its cached-path accesses are attributed to
    /// (the `tenant` argument of `IoPath::read_warp` / `write_warp` and
    /// `AgileCtrl::prefetch_warp_as`), so per-tenant
    /// cache hit-rates and occupancies are exact. Requires at least one warp
    /// per tenant with ops. Off by default (the historical interleave, where
    /// cached accesses stay untenanted — no per-tenant cache accounting).
    pub tenant_warps: bool,
    /// Cached path only: how many batches ahead the AGILE variant prefetches
    /// (Method 1 of §3.5). `1` is the historical one-batch lookahead
    /// (bit-identical default), `0` disables prefetch entirely — BaM's
    /// demand-fill behaviour on AGILE's async stack — and larger depths
    /// trade cache pressure for fill/consume overlap, which is exactly the
    /// knob the AGILE-vs-BaM cached-replay gap turns on. Ignored by the BaM
    /// variant (no prefetch) and by the raw path.
    pub prefetch_depth: u32,
}

impl Default for TraceReplayParams {
    fn default() -> Self {
        TraceReplayParams {
            total_warps: 64,
            window: 64,
            path: ReplayPath::Raw,
            stripe: false,
            tenant_warps: false,
            prefetch_depth: 1,
        }
    }
}

/// Which ops of the trace one warp replays, in which order.
enum OpCursor {
    /// Round-robin stride over the whole trace (`op i → warp i mod W`, the
    /// historical partitioning).
    Strided {
        /// Next op index this warp owns.
        next: u64,
        /// Stride between owned ops (= total warps).
        stride: u64,
        /// Total ops in the trace.
        len: u64,
    },
    /// An explicit list of op indices (tenant-partitioned warps).
    List {
        /// Owned op indices, in replay order.
        ops: Vec<u32>,
        /// Next position within `ops`.
        pos: usize,
    },
}

impl OpCursor {
    /// The op index `k` positions ahead of the cursor (`k = 0` ⇒ current).
    fn peek_ahead(&self, k: usize) -> Option<usize> {
        match self {
            OpCursor::Strided { next, stride, len } => {
                let idx = next + *stride * k as u64;
                (idx < *len).then_some(idx as usize)
            }
            OpCursor::List { ops, pos } => ops.get(pos + k).map(|&i| i as usize),
        }
    }

    /// The current op index, if any ops remain.
    fn peek(&self) -> Option<usize> {
        self.peek_ahead(0)
    }

    /// Move past the current op.
    fn advance(&mut self) {
        match self {
            OpCursor::Strided { next, stride, .. } => *next += *stride,
            OpCursor::List { pos, .. } => *pos += 1,
        }
    }
}

/// Op indices of each tenant, in trace order (`result[t]` = tenant `t`'s ops).
fn partition_by_tenant(trace: &Trace) -> Vec<Vec<u32>> {
    let tenants = (trace.meta.tenants as usize).max(1);
    let mut per = vec![Vec::new(); tenants];
    for (i, op) in trace.ops.iter().enumerate() {
        per[(op.tenant as usize).min(tenants - 1)].push(i as u32);
    }
    per
}

/// Warp-invariant tenant partitioning of a trace, computed once per kernel:
/// each tenant's op index list plus the warp allocation over them.
struct TenantPartition {
    per_tenant: Vec<Vec<u32>>,
    alloc: Vec<u64>,
}

impl TenantPartition {
    fn new(trace: &Trace, total_warps: u64) -> Self {
        let per_tenant = partition_by_tenant(trace);
        let alloc = allocate_warps(&per_tenant, total_warps);
        TenantPartition { per_tenant, alloc }
    }
}

/// Warps allocated to each tenant, proportional to its op count
/// (largest-remainder rounding; every tenant with ops gets at least one
/// warp; tenants without ops get none). Deterministic: remainder and
/// donation ties break toward the lower tenant id.
fn allocate_warps(per_tenant: &[Vec<u32>], total_warps: u64) -> Vec<u64> {
    let counts: Vec<u64> = per_tenant.iter().map(|v| v.len() as u64).collect();
    let total_ops: u64 = counts.iter().sum();
    let nonempty = counts.iter().filter(|&&c| c > 0).count() as u64;
    let mut alloc = vec![0u64; counts.len()];
    if total_ops == 0 {
        return alloc;
    }
    assert!(
        total_warps >= nonempty,
        "tenant_warps needs at least one warp per tenant with ops \
         ({total_warps} warps < {nonempty} tenants)"
    );
    let mut assigned = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        alloc[i] = total_warps * c / total_ops;
        assigned += alloc[i];
    }
    // Hand the rounding leftovers to the largest remainders.
    let mut by_remainder: Vec<usize> = (0..counts.len()).filter(|&i| counts[i] > 0).collect();
    by_remainder.sort_by_key(|&i| (std::cmp::Reverse(total_warps * counts[i] % total_ops), i));
    for &i in by_remainder
        .iter()
        .cycle()
        .take((total_warps - assigned) as usize)
    {
        alloc[i] += 1;
    }
    // Every tenant with ops gets a warp, donated by the largest allocation.
    for i in 0..counts.len() {
        if counts[i] > 0 && alloc[i] == 0 {
            let donor = (0..counts.len())
                .max_by_key(|&j| (alloc[j], std::cmp::Reverse(j)))
                .expect("non-empty");
            alloc[donor] -= 1;
            alloc[i] += 1;
        }
    }
    alloc
}

/// Build the cursor of warp `warp_flat` under `params`, using `partition`
/// when tenant partitioning is on.
fn cursor_for(
    warp_flat: u64,
    params: &TraceReplayParams,
    trace: &Trace,
    partition: Option<&TenantPartition>,
) -> OpCursor {
    match partition {
        None => OpCursor::Strided {
            next: warp_flat,
            stride: params.total_warps,
            len: trace.ops.len() as u64,
        },
        Some(partition) => {
            // Tenants own contiguous warp blocks, in tenant-id order.
            let mut start = 0u64;
            for (tid, &owned) in partition.alloc.iter().enumerate() {
                if warp_flat < start + owned {
                    let instance = (warp_flat - start) as usize;
                    let ops = partition.per_tenant[tid]
                        .iter()
                        .skip(instance)
                        .step_by(owned as usize)
                        .copied()
                        .collect();
                    return OpCursor::List { ops, pos: 0 };
                }
                start += owned;
            }
            // Warps past the allocation (ops < warps) stay idle.
            OpCursor::List {
                ops: Vec::new(),
                pos: 0,
            }
        }
    }
}

/// Resolve `op`'s target: as recorded, or — with `stripe` — folded into the
/// striped global page space and mapped back through the topology.
fn target(io: &IoPath, trace: &Trace, stripe: bool, op: &TraceOp) -> (u32, u64) {
    if stripe {
        io.resolve_page(op.dev as u64 * trace.meta.lba_space + op.lba)
    } else {
        (op.dev, op.lba)
    }
}

/// One in-flight replayed request.
struct Inflight {
    barrier: Barrier,
    issued_at: u64,
    write: bool,
    dev: u32,
    tenant: u32,
}

// ---------------------------------------------------------------------------
// AGILE replay
// ---------------------------------------------------------------------------

/// Kernel factory replaying a trace through [`AgileCtrl`]'s asynchronous raw
/// path.
pub struct AgileTraceReplayKernel {
    ctrl: Arc<AgileCtrl>,
    trace: Arc<Trace>,
    collector: Arc<ReplayCollector>,
    params: TraceReplayParams,
    /// Tenant partitioning (op lists + warp allocation), present when
    /// `params.tenant_warps`.
    partition: Option<TenantPartition>,
}

impl AgileTraceReplayKernel {
    /// Build the factory; `collector` receives every completion.
    pub fn new(
        ctrl: Arc<AgileCtrl>,
        trace: Arc<Trace>,
        collector: Arc<ReplayCollector>,
        params: TraceReplayParams,
    ) -> Self {
        assert!(params.total_warps >= 1);
        let partition = params
            .tenant_warps
            .then(|| TenantPartition::new(&trace, params.total_warps));
        // Seed the controller's live prefetch-depth cell with the requested
        // static depth; cached warps read the cell at every batch boundary,
        // so a control plane (if one is bridged in) can retune it from here.
        ctrl.set_prefetch_depth(params.prefetch_depth);
        AgileTraceReplayKernel {
            ctrl,
            trace,
            collector,
            params,
            partition,
        }
    }
}

struct AgileReplayWarp {
    ctrl: Arc<AgileCtrl>,
    trace: Arc<Trace>,
    collector: Arc<ReplayCollector>,
    /// The ops this warp owns.
    cursor: OpCursor,
    warp_flat: u64,
    window: usize,
    stripe: bool,
    outstanding: Vec<Inflight>,
    /// What the warp sleeps on while it can only wait for its own requests.
    sleeper: Option<SleeperId>,
}

impl AgileReplayWarp {
    /// The wait of a warp with nothing to do until one of its outstanding
    /// requests completes.
    fn await_completion(&mut self) -> WarpStep {
        let barriers = self.outstanding.iter().map(|inflight| &inflight.barrier);
        WarpStep::Stall {
            retry_after: Cycles(POLL_RETRY_CYCLES),
            wait: self.ctrl.io().park_on_barriers(&mut self.sleeper, barriers),
        }
    }

    fn reap(&mut self, now: Cycles) {
        let collector = &self.collector;
        self.outstanding.retain(|inflight| {
            if inflight.barrier.is_complete() {
                collector.record(
                    inflight.tenant,
                    now.raw().saturating_sub(inflight.issued_at),
                    inflight.write,
                );
                false
            } else {
                true
            }
        });
    }
}

impl WarpKernel for AgileReplayWarp {
    fn step(&mut self, ctx: &WarpCtx) -> WarpStep {
        self.reap(ctx.now);
        let ops = &self.trace.ops;
        if self.cursor.peek().is_none() {
            // Everything issued; drain the stragglers.
            if self.outstanding.is_empty() {
                return WarpStep::Done;
            }
            let (cost, _) = self.ctrl.poll_barrier(&self.outstanding[0].barrier);
            return if self.outstanding[0].barrier.is_complete() {
                WarpStep::Busy(cost)
            } else {
                self.await_completion()
            };
        }

        if self.outstanding.len() >= self.window {
            return self.await_completion();
        }

        // Issue up to one warp-width of ops this step.
        let mut cost = Cycles(0);
        let mut issued_now = 0u32;
        let mut refused_by = None;
        for _ in 0..ctx.lanes {
            if self.outstanding.len() >= self.window {
                break;
            }
            let Some(idx) = self.cursor.peek() else {
                break;
            };
            let op: TraceOp = ops[idx];
            let (dev, lba) = target(self.ctrl.io(), &self.trace, self.stripe, &op);
            // Every SQ of `dev` full: account the refusal without building
            // the barrier and the command first.
            if let Some(c) = self.ctrl.io().raw_refusal(dev) {
                cost += c;
                refused_by = Some(dev);
                break;
            }
            let barrier = Barrier::new();
            let (c, issued) = if op.write {
                self.ctrl.io().raw_write(
                    self.warp_flat,
                    op.tenant,
                    dev,
                    lba,
                    PageToken(lba ^ (op.tenant as u64) << 48),
                    barrier.clone(),
                    ctx.now,
                )
            } else {
                self.ctrl.io().raw_read(
                    self.warp_flat,
                    op.tenant,
                    dev,
                    lba,
                    DmaHandle::new(),
                    barrier.clone(),
                    ctx.now,
                )
            };
            cost += c;
            if !issued {
                refused_by = Some(dev);
                break;
            }
            // Charge the op's think time exactly once, on acceptance (within
            // one step the engine only sees the summed cost, so pre- vs
            // post-issue ordering is equivalent — but charging on the
            // attempt would re-bill every retry).
            cost += Cycles(op.gap as u64);
            self.outstanding.push(Inflight {
                barrier,
                issued_at: ctx.now.raw(),
                write: op.write,
                dev,
                tenant: op.tenant,
            });
            self.cursor.advance();
            issued_now += 1;
        }
        let Some(dev) = refused_by.filter(|_| issued_now == 0) else {
            return WarpStep::Busy(cost.max(Cycles(1)));
        };
        // Every SQ full (or the QoS gate deferred this tenant): the AGILE
        // service keeps recycling entries, so retry — asleep until a slot
        // of that device frees up or a request completes.
        let barriers = self.outstanding.iter().map(|inflight| &inflight.barrier);
        WarpStep::Stall {
            retry_after: Cycles(SUBMIT_RETRY_CYCLES),
            wait: self
                .ctrl
                .io()
                .park_on_submit(&mut self.sleeper, dev as usize, barriers),
        }
    }
}

/// A warp with no ops assigned (launch geometry rounds warps up to a
/// multiple of 8 per block; the excess warps must not replay anything).
struct IdleWarp;

impl WarpKernel for IdleWarp {
    fn step(&mut self, _ctx: &WarpCtx) -> WarpStep {
        WarpStep::Done
    }
}

/// The tenant a warp's cached accesses are attributed to: with tenant
/// partitioning, the single tenant whose ops the cursor holds; otherwise
/// `None` (the caller falls back to the untenanted path — no per-tenant
/// accounting, trace events keep the pre-threading tenant value).
fn cursor_tenant(cursor: &OpCursor, trace: &Trace, partitioned: bool) -> Option<u32> {
    if !partitioned {
        return None;
    }
    cursor.peek().map(|idx| trace.ops[idx].tenant)
}

impl KernelFactory for AgileTraceReplayKernel {
    fn create_warp(&self, block: u32, warp: u32) -> Box<dyn WarpKernel> {
        // Launches use 256-thread blocks (8 warps per block).
        let warp_flat = block as u64 * 8 + warp as u64;
        if warp_flat >= self.params.total_warps {
            // Rounded-up launch geometry: this warp owns no ops.
            return Box::new(IdleWarp);
        }
        let cursor = cursor_for(
            warp_flat,
            &self.params,
            &self.trace,
            self.partition.as_ref(),
        );
        let tenant = cursor_tenant(&cursor, &self.trace, self.partition.is_some());
        match self.params.path {
            ReplayPath::Raw => Box::new(AgileReplayWarp {
                ctrl: Arc::clone(&self.ctrl),
                trace: Arc::clone(&self.trace),
                collector: Arc::clone(&self.collector),
                cursor,
                warp_flat,
                window: self.params.window.max(1),
                stripe: self.params.stripe,
                outstanding: Vec::new(),
                sleeper: None,
            }),
            ReplayPath::Cached => Box::new(AgileCachedReplayWarp {
                ctrl: Arc::clone(&self.ctrl),
                batch: CachedBatch::new(
                    Arc::clone(&self.trace),
                    Arc::clone(&self.collector),
                    cursor,
                    warp_flat,
                    tenant,
                    self.params.stripe,
                ),
                prefetch_depth: self.ctrl.prefetch_depth_cell(),
                lookahead: Vec::with_capacity(BATCH_LANES),
                prefetch: WarpWait::with_lanes(BATCH_LANES),
            }),
        }
    }
    fn name(&self) -> &str {
        "trace-replay-agile"
    }
}

/// Lanes of the warps these kernels launch (256-thread blocks of 8 warps): a
/// batch holds at most this many ops. Its buffers are sized for that when the
/// warp is created, so a launch allocates them side by side instead of
/// scattering them through the run as batches grow — which fragmented the
/// heap enough to read as +0.4 MB of peak RSS on the cached replays.
const BATCH_LANES: usize = 32;

/// One store of the current batch that has not landed yet.
struct PendingWrite {
    /// Index of the op in the trace.
    op: u32,
    /// Carried across the polls of this store (see `IoPath::write_warp`).
    wait: LineWait,
}

/// The batch a cached-path replay warp is working through — up to one
/// warp-width of ops pulled off its cursor, retired through the software
/// cache (write-allocate stores, array-like reads) over as many polls as it
/// takes. Both systems replay through it; they differ in what happens
/// around a poll (AGILE prefetches ahead, BaM polls its own CQs).
struct CachedBatch {
    trace: Arc<Trace>,
    collector: Arc<ReplayCollector>,
    cursor: OpCursor,
    warp_flat: u64,
    /// Single tenant of this warp's ops under tenant partitioning; `None`
    /// on the historical interleave (warp-as-tenant attribution).
    tenant: Option<u32>,
    stripe: bool,
    /// Targets of the pending reads — what `read_warp` is asked …
    reads: Vec<(u32, u64)>,
    /// … and, in step with them, the tenant each op is recorded under.
    read_tenants: Vec<u32>,
    /// Carried across the polls of `reads` (see `IoPath::read_warp`).
    read_wait: WarpWait,
    writes: Vec<PendingWrite>,
    /// When the batch became eligible: the base of its ops' latencies.
    started: u64,
    /// What the warp sleeps on while everything pending is in flight.
    sleeper: Option<SleeperId>,
}

impl CachedBatch {
    fn new(
        trace: Arc<Trace>,
        collector: Arc<ReplayCollector>,
        cursor: OpCursor,
        warp_flat: u64,
        tenant: Option<u32>,
        stripe: bool,
    ) -> Self {
        CachedBatch {
            trace,
            collector,
            cursor,
            warp_flat,
            tenant,
            stripe,
            reads: Vec::with_capacity(BATCH_LANES),
            read_tenants: Vec::with_capacity(BATCH_LANES),
            read_wait: WarpWait::with_lanes(BATCH_LANES),
            writes: Vec::with_capacity(BATCH_LANES),
            started: 0,
            sleeper: None,
        }
    }

    /// The tenant this warp's cache accesses are attributed to: the warp's
    /// single tenant under tenant partitioning, otherwise untenanted (no
    /// per-tenant accounting — attribution by warp id would be noise).
    fn cache_tenant(&self) -> u32 {
        self.tenant.unwrap_or(agile_cache::NO_TENANT)
    }

    /// True when every op of the batch has retired.
    fn is_empty(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty()
    }

    /// Pull the next batch off the cursor and return its think time, or
    /// `None` when the warp's ops are exhausted.
    fn pull(&mut self, io: &IoPath, ctx: &WarpCtx) -> Option<Cycles> {
        self.cursor.peek()?;
        let mut cost = Cycles(0);
        for _ in 0..ctx.lanes {
            let Some(idx) = self.cursor.peek() else {
                break;
            };
            let op = self.trace.ops[idx];
            self.cursor.advance();
            cost += Cycles(op.gap as u64);
            if op.write {
                self.writes.push(PendingWrite {
                    op: idx as u32,
                    wait: LineWait::default(),
                });
            } else {
                self.reads.push(target(io, &self.trace, self.stripe, &op));
                self.read_tenants.push(op.tenant);
            }
        }
        // Latency is measured from *eligibility* (after the batch's think
        // time has elapsed), matching the raw path's submit-time stamp —
        // otherwise bursty traces would fold their idle gaps into the
        // cached-path percentiles.
        self.started = ctx.now.raw() + cost.raw();
        Some(cost)
    }

    /// Read targets of the up-to-`lanes` ops ahead of the cursor (prefetch),
    /// into `targets` (cleared first).
    fn lookahead_reads(&self, io: &IoPath, lanes: u32, targets: &mut Vec<(u32, u64)>) {
        targets.clear();
        targets.extend(
            (0..lanes as usize)
                .map_while(|k| self.cursor.peek_ahead(k))
                .map(|idx| self.trace.ops[idx])
                .filter(|op| !op.write)
                .map(|op| target(io, &self.trace, self.stripe, &op)),
        );
    }

    /// The device the oldest pending store targets.
    fn first_write_dev(&self, io: &IoPath) -> Option<u32> {
        let op = self.trace.ops[self.writes.first()?.op as usize];
        Some(target(io, &self.trace, self.stripe, &op).0)
    }

    /// One attempt at everything still pending: returns the cycles it cost
    /// and whether any op retired. Reads retire by lane, from what the
    /// attempt itself found resident; the pending reads' wait state is left
    /// narrowed to the lanes still out, so [`CachedBatch::wait`] and the
    /// next attempt see their tickets.
    fn poll(&mut self, io: &IoPath, now: Cycles) -> (Cycles, bool) {
        let (warp, tenant) = (self.warp_flat, self.cache_tenant());
        let (trace, stripe, collector) = (&self.trace, self.stripe, &self.collector);
        let latency = now.raw().saturating_sub(self.started);
        let mut cost = Cycles(0);
        // Retire writes: write-allocate stores, retried until a line frees.
        let writes_before = self.writes.len();
        self.writes.retain_mut(|w| {
            let op = trace.ops[w.op as usize];
            let (dev, lba) = target(io, trace, stripe, &op);
            let token = PageToken(lba ^ (op.tenant as u64) << 48);
            let (c, ok) = io.write_warp(warp, tenant, dev, lba, token, now, &mut w.wait);
            cost += c;
            if ok {
                collector.record(op.tenant, latency, true);
            }
            !ok
        });
        // Retire reads: array-like warp access, retried until the lanes hit.
        let reads_before = self.reads.len();
        if reads_before > 0 {
            let (c, _) = io.read_warp(warp, tenant, &self.reads, now, &mut self.read_wait);
            cost += c;
            // Retire lanes whose pages the attempt left resident (per-lane
            // predication). Without this, a working set far larger than the
            // cache can thrash forever: concurrent warps evict each other's
            // lines before any warp sees all of its lanes resident at once.
            // The wait state narrows to the lanes left, tickets and all.
            let (tenants, mut kept) = (&mut self.read_tenants, 0);
            io.retire_resident(&mut self.read_wait, &mut self.reads, |lane, resident| {
                if resident {
                    collector.record(tenants[lane], latency, false);
                } else {
                    tenants[kept] = tenants[lane];
                    kept += 1;
                }
            });
            tenants.truncate(self.reads.len());
        }
        let retired_any = self.writes.len() < writes_before || self.reads.len() < reads_before;
        (cost, retired_any)
    }
}

impl CachedBatch {
    /// The wait of a warp whose [`CachedBatch::poll`] left ops pending:
    /// parkable when every pending read page and every pending store is
    /// behind a fill in flight or found no line in a set whose every way is
    /// being filled (see [`IoPath::park_on_fills`]). After a poll that
    /// retired some ops it is asked about the ops left: the read's wait
    /// state was narrowed to them.
    fn wait(&mut self, io: &IoPath) -> Wait {
        let writes = self.writes.iter().map(|w| &w.wait);
        let reads = (!self.reads.is_empty()).then_some(&self.read_wait);
        io.park_on_fills(&mut self.sleeper, reads, writes)
    }
}

/// AGILE cached-path replay: each [`CachedBatch`] goes through the software
/// cache with the *next* batch's reads prefetched ahead so fills overlap
/// with consumption — the asynchronous pipeline of §3.5.
struct AgileCachedReplayWarp {
    ctrl: Arc<AgileCtrl>,
    batch: CachedBatch,
    /// Live prefetch depth in batches of lookahead (0 = none, 1 = the
    /// historical default). Loaded from the controller's shared cell at
    /// every batch boundary, so an online control plane retunes the
    /// pipeline mid-run; without one the cell simply never changes.
    prefetch_depth: Arc<AtomicU32>,
    /// The lookahead's targets and the room its prefetch works in, reused
    /// from one batch to the next.
    lookahead: Vec<(u32, u64)>,
    prefetch: WarpWait,
}

impl WarpKernel for AgileCachedReplayWarp {
    fn step(&mut self, ctx: &WarpCtx) -> WarpStep {
        let io = self.ctrl.io();
        // Pull the next batch when the current one is fully retired.
        if self.batch.is_empty() {
            let Some(mut cost) = self.batch.pull(io, ctx) else {
                return WarpStep::Done;
            };
            // Prefetch the following `prefetch_depth` batches so their fills
            // overlap this batch's consumption (depth 0 = demand fills only).
            let depth = self.prefetch_depth.load(Ordering::Relaxed);
            self.batch
                .lookahead_reads(io, ctx.lanes * depth, &mut self.lookahead);
            if !self.lookahead.is_empty() {
                cost += self.ctrl.prefetch_warp_as(
                    self.batch.warp_flat,
                    self.batch.cache_tenant(),
                    &self.lookahead,
                    ctx.now,
                    &mut self.prefetch,
                );
            }
            return WarpStep::Busy(cost.max(Cycles(1)));
        }
        let (cost, retired_any) = self.batch.poll(io, ctx.now);
        if !retired_any {
            // Fills in flight (tens of µs away): back off instead of
            // re-probing every few hundred cycles, so the engine advances in
            // device-latency-sized strides. The service keeps working; the
            // cadence matches the BaM variant's poll loop so measured
            // latencies stay comparable. With everything pending in flight,
            // or waiting for a line of a set that is all in flight, the
            // re-probes would all find that again: sleep through them.
            return WarpStep::Stall {
                retry_after: Cycles(POLL_RETRY_CYCLES),
                wait: self.batch.wait(io),
            };
        }
        let cost = cost.max(Cycles(1));
        if self.batch.is_empty() {
            return WarpStep::Busy(cost);
        }
        // Some ops retired. When the rest wait as above, the step after this
        // busy one would only find that and back off: sleep from here, on a
        // grid that starts where the busy time ends.
        let wait = self.batch.wait(io);
        if wait.sleeper.is_some() {
            WarpStep::Stall {
                retry_after: Cycles(POLL_RETRY_CYCLES),
                wait: wait.after_busy(ctx.now + cost),
            }
        } else {
            WarpStep::Busy(cost)
        }
    }
}

// ---------------------------------------------------------------------------
// BaM replay
// ---------------------------------------------------------------------------

/// Kernel factory replaying a trace through [`BamCtrl`]'s synchronous path:
/// each warp issues one request and polls the CQ itself until it completes.
pub struct BamTraceReplayKernel {
    ctrl: Arc<BamCtrl>,
    trace: Arc<Trace>,
    collector: Arc<ReplayCollector>,
    params: TraceReplayParams,
    /// Tenant partitioning (op lists + warp allocation), present when
    /// `params.tenant_warps`.
    partition: Option<TenantPartition>,
}

impl BamTraceReplayKernel {
    /// Build the factory; `collector` receives every completion.
    pub fn new(
        ctrl: Arc<BamCtrl>,
        trace: Arc<Trace>,
        collector: Arc<ReplayCollector>,
        params: TraceReplayParams,
    ) -> Self {
        assert!(params.total_warps >= 1);
        let partition = params
            .tenant_warps
            .then(|| TenantPartition::new(&trace, params.total_warps));
        BamTraceReplayKernel {
            ctrl,
            trace,
            collector,
            params,
            partition,
        }
    }
}

struct BamReplayWarp {
    ctrl: Arc<BamCtrl>,
    trace: Arc<Trace>,
    collector: Arc<ReplayCollector>,
    cursor: OpCursor,
    warp_flat: u64,
    stripe: bool,
    current: Option<Inflight>,
    /// Rotates the polled CQ across steps: a command that fell over to a
    /// neighbouring SQ (§3.3.1) completes on that queue's CQ, and near the
    /// end of a run this warp may be the only thread left to process it.
    poll_rotation: u64,
}

impl WarpKernel for BamReplayWarp {
    fn step(&mut self, ctx: &WarpCtx) -> WarpStep {
        // Synchronous model: finish the in-flight request before the next one.
        if let Some(inflight) = &self.current {
            if inflight.barrier.is_complete() {
                let inflight = self.current.take().expect("checked");
                self.collector.record(
                    inflight.tenant,
                    ctx.now.raw().saturating_sub(inflight.issued_at),
                    inflight.write,
                );
                return WarpStep::Busy(Cycles(1));
            }
            // The issuing thread itself must drive the completion path.
            let dev = inflight.dev as usize;
            self.poll_rotation += 1;
            let (cost, _) = self
                .ctrl
                .poll_once(self.warp_flat + self.poll_rotation, dev, ctx.now);
            return WarpStep::Busy(cost.max(Cycles(500)));
        }

        let ops = &self.trace.ops;
        let Some(idx) = self.cursor.peek() else {
            return WarpStep::Done;
        };
        let op: TraceOp = ops[idx];
        let (dev, lba) = target(self.ctrl.io(), &self.trace, self.stripe, &op);
        let mut cost = Cycles(0);
        let barrier = Barrier::new();
        let (c, ok) = if op.write {
            self.ctrl.io().raw_write(
                self.warp_flat,
                op.tenant,
                dev,
                lba,
                PageToken(lba ^ (op.tenant as u64) << 48),
                barrier.clone(),
                ctx.now,
            )
        } else {
            self.ctrl.io().raw_read(
                self.warp_flat,
                op.tenant,
                dev,
                lba,
                DmaHandle::new(),
                barrier.clone(),
                ctx.now,
            )
        };
        cost += c;
        if ok {
            // Think time is charged once, on acceptance (a Retry must not
            // re-bill it next step).
            cost += Cycles(op.gap as u64);
            self.current = Some(Inflight {
                barrier,
                issued_at: ctx.now.raw(),
                write: op.write,
                dev,
                tenant: op.tenant,
            });
            self.cursor.advance();
            WarpStep::Busy(cost.max(Cycles(1)))
        } else {
            // SQs full: only user polling can free entries in BaM.
            self.poll_rotation += 1;
            let (poll_cost, _) =
                self.ctrl
                    .poll_once(self.warp_flat + self.poll_rotation, dev as usize, ctx.now);
            WarpStep::Busy((cost + poll_cost).max(Cycles(500)))
        }
    }
}

impl KernelFactory for BamTraceReplayKernel {
    fn create_warp(&self, block: u32, warp: u32) -> Box<dyn WarpKernel> {
        let warp_flat = block as u64 * 8 + warp as u64;
        if warp_flat >= self.params.total_warps {
            // Rounded-up launch geometry: this warp owns no ops.
            return Box::new(IdleWarp);
        }
        let cursor = cursor_for(
            warp_flat,
            &self.params,
            &self.trace,
            self.partition.as_ref(),
        );
        let tenant = cursor_tenant(&cursor, &self.trace, self.partition.is_some());
        match self.params.path {
            ReplayPath::Raw => Box::new(BamReplayWarp {
                ctrl: Arc::clone(&self.ctrl),
                trace: Arc::clone(&self.trace),
                collector: Arc::clone(&self.collector),
                cursor,
                warp_flat,
                stripe: self.params.stripe,
                current: None,
                poll_rotation: 0,
            }),
            ReplayPath::Cached => Box::new(BamCachedReplayWarp {
                ctrl: Arc::clone(&self.ctrl),
                batch: CachedBatch::new(
                    Arc::clone(&self.trace),
                    Arc::clone(&self.collector),
                    cursor,
                    warp_flat,
                    tenant,
                    self.params.stripe,
                ),
                poll_rotation: 0,
            }),
        }
    }
    fn name(&self) -> &str {
        "trace-replay-bam"
    }
}

/// BaM cached-path replay: the same [`CachedBatch`] as the AGILE variant,
/// but synchronous — no prefetch lookahead, and the issuing warp drives its
/// own completion processing through [`BamCtrl::poll_once`] (polling work
/// and its cost live in the user kernel, §2.2).
struct BamCachedReplayWarp {
    ctrl: Arc<BamCtrl>,
    batch: CachedBatch,
    /// See [`BamReplayWarp::poll_rotation`].
    poll_rotation: u64,
}

impl BamCachedReplayWarp {
    /// Process completions of `dev` on this warp's next CQ in rotation.
    fn poll_cq(&mut self, dev: u32, now: Cycles) -> (Cycles, u32) {
        self.poll_rotation += 1;
        self.ctrl
            .poll_once(self.batch.warp_flat + self.poll_rotation, dev as usize, now)
    }
}

impl WarpKernel for BamCachedReplayWarp {
    fn step(&mut self, ctx: &WarpCtx) -> WarpStep {
        if self.batch.is_empty() {
            return match self.batch.pull(self.ctrl.io(), ctx) {
                Some(cost) => WarpStep::Busy(cost.max(Cycles(1))),
                None => WarpStep::Done,
            };
        }
        let (mut cost, mut retired_any) = self.batch.poll(self.ctrl.io(), ctx.now);
        // No service in BaM: with reads still out, this warp must poll the
        // CQ itself.
        if let Some(&(dev, _)) = self.batch.reads.first() {
            let (poll_cost, processed) = self.poll_cq(dev, ctx.now);
            cost += poll_cost;
            retired_any |= processed > 0;
        }
        if retired_any {
            return WarpStep::Busy(cost.max(Cycles(1)));
        }
        // Blocked writes can be waiting on SQEs that only user polling
        // recycles (write-backs fill the SQs and nobody else processes
        // their completions in BaM) — poll before backing off, or a
        // write-only batch wedges the whole run.
        if let Some(dev) = self.batch.first_write_dev(self.ctrl.io()) {
            let (poll_cost, processed) = self.poll_cq(dev, ctx.now);
            if processed > 0 {
                return WarpStep::Busy((cost + poll_cost).max(Cycles(1)));
            }
        }
        // Nothing landed yet; idle-poll backoff (flash is tens of µs away,
        // so probing every few hundred cycles only burns rounds). Every
        // retry polls this warp's CQs: not a wait to sleep through.
        WarpStep::Stall {
            retry_after: Cycles(POLL_RETRY_CYCLES),
            wait: Wait::polling(WaitReason::Completion),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_accumulates() {
        let c = ReplayCollector::new();
        c.record(0, 1_000, false);
        c.record(1, 2_000, true);
        c.record(0, 3_000, false);
        assert_eq!(c.reads(), 2);
        assert_eq!(c.writes(), 1);
        let h = c.latency();
        assert_eq!(h.count(), 3);
        assert!(h.p50().unwrap() >= 1_000);
        let tenants = c.tenant_latencies();
        assert_eq!(tenants.len(), 2);
        assert_eq!(tenants[0].0, 0);
        assert_eq!(tenants[0].1.count(), 2);
        assert_eq!(tenants[1].1.count(), 1);
        assert_eq!(
            tenants.iter().map(|(_, h)| h.count()).sum::<u64>(),
            h.count(),
            "per-tenant histograms partition the aggregate"
        );
    }

    #[test]
    fn round_robin_partition_covers_all_ops() {
        let total_warps = 7u64;
        let ops = 100u64;
        let mut seen = vec![false; ops as usize];
        for w in 0..total_warps {
            let mut i = w;
            while i < ops {
                seen[i as usize] = true;
                i += total_warps;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
