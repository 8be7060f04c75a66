//! Multi-SSD storage topologies.
//!
//! The paper's scaling experiments (Figures 5 and 6) attach up to three SSDs
//! to the host and stripe requests across them in an interleaved fashion
//! ("requests 0, 2, 4, … are issued to SSD1, while requests 1, 3, 5, … are
//! directed to SSD2"). This module generalises that design into a
//! [`StorageTopology`] trait with two implementations:
//!
//! * [`FlatArray`] — every device behind **one** lock, the original
//!   `SsdArray` behaviour. Cheap to build, but every submission serialises
//!   on the same lock, which is the scale-out blocker at production device
//!   counts.
//! * [`ShardedArray`] — the devices are partitioned into N shards, each with
//!   its **own** device set and lock. Submissions to different shards no
//!   longer serialise against each other; a sharded array with one shard is
//!   bit-identical to the flat array.
//!
//! Both expose the same **page-striping layer**: a global page index maps to
//! `(shard, device, device-local page)` via [`StorageTopology::map_page`],
//! so workloads address one linear page space regardless of topology. The
//! device/page mapping is identical for both topologies at equal device
//! count — only the lock partitioning differs — which is exactly what makes
//! flat-vs-sharded benchmark comparisons attribute their delta to the lock.
//!
//! The lock itself is *modeled*: real GPU-side array implementations guard
//! SQ-slot allocation and the doorbell update with a critical section, so
//! [`StorageTopology::lock_acquire`] charges each submission the FIFO wait
//! behind earlier holders plus its own hold time (see [`TopologyLock`]).
//! The simulation stays single-threaded and deterministic; the contention
//! shows up as cycles charged to the issuing warp.
//!
//! [`DeviceSet`] is the lock-free building block both topologies are made
//! of (every call-site of the old `SsdArray` name has migrated to the
//! [`StorageTopology`] implementations).

use crate::backing::{MemBacking, PageBacking};
use crate::device::{DeviceStats, IdleGate, SsdConfig, SsdDevice};
use crate::queue::QueuePair;
use crate::spec::{Lba, QueueId};
use agile_sim::trace::TraceSink;
use agile_sim::Cycles;
use parking_lot::Mutex;
use std::sync::Arc;

/// A set of SSDs addressed by device index, each behind its **own** mutex —
/// the building block both [`StorageTopology`] implementations are made of.
///
/// The mutex is what lets one topology be shared (`Arc`, `&self` methods)
/// between the engine's topology bridge and the controllers' submit paths; the
/// shard lock is a submission-cost *model* (see [`TopologyLock`]), not a
/// concurrency primitive. Methods lock only the devices they touch — and
/// advancing a device whose [`IdleGate`] says nothing can happen touches
/// nothing at all.
pub struct DeviceSet {
    devices: Vec<Mutex<SsdDevice>>,
    /// Each device's gate, so an idle advance never takes the device lock.
    gates: Vec<Arc<IdleGate>>,
}

/// `count` default-configured devices over token-only memory backings.
fn default_parts(count: usize) -> Vec<(SsdConfig, Arc<dyn PageBacking>)> {
    (0..count)
        .map(|i| {
            (
                SsdConfig::new(i as u32),
                Arc::new(MemBacking::new(i as u32)) as Arc<dyn PageBacking>,
            )
        })
        .collect()
}

impl DeviceSet {
    /// Build `count` devices with default configuration and token-only memory
    /// backings.
    pub fn new(count: usize) -> Self {
        DeviceSet::from_parts(default_parts(count))
    }

    /// Build from explicit (config, backing) pairs.
    pub fn from_parts(parts: Vec<(SsdConfig, Arc<dyn PageBacking>)>) -> Self {
        let (devices, gates) = parts
            .into_iter()
            .map(|(cfg, backing)| {
                let dev = SsdDevice::new(cfg, backing);
                let gate = Arc::clone(dev.gate());
                (Mutex::new(dev), gate)
            })
            .unzip();
        DeviceSet { devices, gates }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True when the set holds no devices.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Lock and access a device (registration, advancing, stats).
    pub fn device(&self, idx: usize) -> parking_lot::MutexGuard<'_, SsdDevice> {
        self.devices[idx].lock()
    }

    /// Register `queues_per_device` queue pairs of `depth` entries on every
    /// device and return them grouped by device.
    pub fn register_queues(
        &self,
        queues_per_device: usize,
        depth: u32,
    ) -> Vec<Vec<Arc<QueuePair>>> {
        self.devices
            .iter()
            .map(|dev| {
                let mut dev = dev.lock();
                (0..queues_per_device)
                    .map(|q| {
                        let qp = QueuePair::new(q as QueueId, depth);
                        dev.register_queue_pair(Arc::clone(&qp));
                        qp
                    })
                    .collect()
            })
            .collect()
    }

    /// Install a trace sink on every device's completion path (see
    /// [`SsdDevice::set_trace_sink`]). Returns `false` if any device already
    /// had a sink.
    pub fn set_trace_sink(&self, sink: &Arc<dyn TraceSink>) -> bool {
        let mut all_fresh = true;
        for dev in &self.devices {
            all_fresh &= dev.lock().set_trace_sink(Arc::clone(sink));
        }
        all_fresh
    }

    /// Advance every device to `now`, in device order.
    pub fn advance_to(&self, now: Cycles) {
        for idx in 0..self.devices.len() {
            self.advance_device_to(idx, now);
        }
    }

    /// Advance only device `idx` to `now`. Devices are mutually independent
    /// between advancement boundaries, so callers may advance different
    /// devices concurrently. An idle device (see [`IdleGate::idle_at`]) is
    /// left untouched and unlocked.
    pub fn advance_device_to(&self, idx: usize, now: Cycles) {
        if !self.gates[idx].idle_at(now) {
            self.devices[idx].lock().advance_to(now);
        }
    }

    /// Earliest pending event across all devices. Like every next-event
    /// query here it reads the devices' [`IdleGate`]s and takes no lock.
    pub fn next_event_time(&self) -> Option<Cycles> {
        self.gates.iter().filter_map(|g| g.next_event_time()).min()
    }

    /// Earliest pending event strictly after `now`, device by device: a
    /// device whose next event is at or before `now` (one fired events
    /// scheduled while firing) does not hide another device's later one.
    pub fn next_event_after(&self, now: Cycles) -> Option<Cycles> {
        self.gates
            .iter()
            .filter_map(|g| g.next_event_time())
            .filter(|&t| t > now)
            .min()
    }

    /// True when every device is idle.
    pub fn quiescent(&self) -> bool {
        self.devices.iter().all(|d| d.lock().quiescent())
    }

    /// Interleaved placement used by the scaling experiments: request `i`
    /// goes to device `i % n` at the same LBA it would use on a single
    /// device divided by the stripe width.
    pub fn interleave(&self, request_idx: u64, lba_space: u64) -> (usize, Lba) {
        let n = self.devices.len() as u64;
        let dev = (request_idx % n) as usize;
        let lba = (request_idx / n) % lba_space.max(1);
        (dev, lba)
    }

    /// Sum of bytes read across devices.
    pub fn total_bytes_read(&self) -> u64 {
        self.devices
            .iter()
            .map(|d| d.lock().stats().bytes_read)
            .sum()
    }

    /// Sum of bytes written across devices.
    pub fn total_bytes_written(&self) -> u64 {
        self.devices
            .iter()
            .map(|d| d.lock().stats().bytes_written)
            .sum()
    }

    /// Smallest namespace capacity across devices (0 for an empty set) —
    /// the per-device extent of the striped global page space.
    pub fn min_namespace_pages(&self) -> u64 {
        self.devices
            .iter()
            .map(|d| d.lock().config().namespace_pages)
            .min()
            .unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// Striping
// ---------------------------------------------------------------------------

/// Where a global page lives: which lock shard, which device, which
/// device-local page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageLocation {
    /// Lock shard the owning device belongs to.
    pub shard: u32,
    /// Global device index.
    pub device: u32,
    /// Page index within the device's namespace.
    pub page: Lba,
}

/// How the striping layer places global pages onto devices. Both topologies
/// share one placement seed; every variant is **bijective** over
/// `devices × pages_per_device` (property-tested in
/// `tests/topology_striping.rs`), so changing the placement re-lays data out
/// without losing or aliasing any page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// The paper's interleave: global page `g` lives on device
    /// `g % devices` at local page `g / devices`. The golden-guarded
    /// default — every checked-in trace replays against it.
    #[default]
    Interleave,
    /// Hash-rotated interleave: the device order of each page *row*
    /// (`devices` consecutive globals sharing a local page) is rotated by a
    /// mixed hash of the row index, so sequential scans spread diagonally
    /// instead of lock-stepping device 0, 1, 2, … — the first alternative
    /// layout for data-placement experiments (range- and tenant-affine
    /// variants are follow-ups).
    Hash,
}

/// SplitMix64 finalizer: a cheap, well-distributed 64-bit mix.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Striping shared by both topologies under the given placement seed.
/// Bijective by construction: `Interleave` is the classic division pair;
/// `Hash` permutes the device index within each page row (a rotation by a
/// hash of the row), which preserves bijectivity row by row.
fn stripe(global: u64, devices: u64, placement: Placement) -> (u32, Lba) {
    debug_assert!(devices > 0);
    let page = global / devices;
    let slot = global % devices;
    let dev = match placement {
        Placement::Interleave => slot,
        Placement::Hash => (slot + mix64(page)) % devices,
    };
    (dev as u32, page)
}

// ---------------------------------------------------------------------------
// The modeled array lock
// ---------------------------------------------------------------------------

/// Default cycles a submission holds the array lock: the critical section
/// covers the SQ-slot claim and the serialized tail-doorbell update — an
/// uncached MMIO write over PCIe, a few hundred nanoseconds — so ~600 GPU
/// cycles at 2.5 GHz. This caps a single lock at ~4M submissions/s: above
/// NVMe saturation for the paper's 1–3 SSD experiments, binding for bursty
/// many-warp submission at production device counts.
pub const DEFAULT_LOCK_HOLD_CYCLES: u64 = 600;

#[derive(Debug, Default, Clone, Copy)]
struct ShardLockState {
    /// Simulated time until which the lock is held by queued acquirers.
    busy_until: u64,
    /// Last (warp, now) that acquired — consecutive acquires by the same
    /// warp within one step extend the hold instead of re-paying the queue
    /// wait (the warp is already past the queue; its later acquires happen
    /// back-to-back in real time even though the step reports one `now`).
    last: Option<(u64, u64)>,
    /// Accumulated FIFO queue-wait cycles charged on this shard (the
    /// contention signal surfaced as `agile_submit_lock_wait_cycles_total`
    /// and the replay summary's `lock_wait=` field).
    wait_cycles: u64,
    /// Total acquisitions charged on this shard.
    acquires: u64,
}

/// Deterministic FIFO model of the per-shard array lock.
///
/// Each acquisition at simulated time `now` waits for every earlier holder
/// (`busy_until - now`, if positive), then holds the lock for `hold` cycles;
/// the total is returned as cycles to charge the issuing warp. One state
/// cell per shard, so acquisitions in different shards never wait on each
/// other — this is the entire modeled difference between [`FlatArray`]
/// (one shard) and [`ShardedArray`] (N shards).
pub struct TopologyLock {
    shards: Vec<Mutex<ShardLockState>>,
    hold: u64,
}

impl TopologyLock {
    /// A lock partitioned into `shards` independent cells.
    pub fn new(shards: usize, hold: u64) -> Self {
        TopologyLock {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(ShardLockState::default()))
                .collect(),
            hold,
        }
    }

    /// Acquire the cell for `shard` on behalf of `warp` at time `now`;
    /// returns the cycles the acquisition costs (queue wait + hold).
    pub fn acquire(&self, shard: usize, warp: u64, now: Cycles) -> Cycles {
        let mut s = self.shards[shard % self.shards.len()].lock();
        let now = now.raw();
        s.acquires += 1;
        if s.last == Some((warp, now)) {
            // Same warp, same step: back-to-back re-acquire, no queue wait.
            s.busy_until += self.hold;
            return Cycles(self.hold);
        }
        let wait = s.busy_until.saturating_sub(now);
        s.busy_until = s.busy_until.max(now) + self.hold;
        s.last = Some((warp, now));
        s.wait_cycles += wait;
        Cycles(wait + self.hold)
    }

    /// Hold cycles per acquisition.
    pub fn hold_cycles(&self) -> u64 {
        self.hold
    }

    /// Accumulated queue-wait cycles per shard, in shard order.
    pub fn wait_by_shard(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.lock().wait_cycles).collect()
    }

    /// Total acquisitions per shard, in shard order.
    pub fn acquires_by_shard(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.lock().acquires).collect()
    }
}

// ---------------------------------------------------------------------------
// The topology trait
// ---------------------------------------------------------------------------

/// A multi-SSD storage topology: owns the devices, their lock partitioning
/// and the page-striping layer. All methods take `&self`; implementations
/// lock internally so hosts can share the topology as `Arc<dyn
/// StorageTopology>` between the co-simulation bridge, the controller and
/// workload setup code.
pub trait StorageTopology: Send + Sync {
    /// Total devices across all shards.
    fn device_count(&self) -> usize;

    /// Number of lock shards.
    fn shard_count(&self) -> usize;

    /// Lock shard that owns global device `dev`.
    fn shard_of(&self, dev: usize) -> usize;

    /// Register `per_device` queue pairs of `depth` entries on every device;
    /// returned grouped by global device index.
    fn register_queues(&self, per_device: usize, depth: u32) -> Vec<Vec<Arc<QueuePair>>>;

    /// The page backing of global device `dev` (for dataset setup).
    fn backing(&self, dev: usize) -> Arc<dyn PageBacking>;

    /// Install a trace sink on every device's completion path. Returns
    /// `false` if any device already had one.
    fn set_trace_sink(&self, sink: &Arc<dyn TraceSink>) -> bool;

    /// Advance every device to `now` (co-simulation), shard-major: shard
    /// 0's devices in increasing global order, then shard 1's, … — the order
    /// that is part of what keeps the golden traces green.
    fn advance_to(&self, now: Cycles);

    /// Earliest pending event across all devices.
    fn next_event_time(&self) -> Option<Cycles>;

    /// Earliest pending event strictly after `now`, taken device by device
    /// (what an engine advancing the topology to `now` waits for next).
    fn next_event_after(&self, now: Cycles) -> Option<Cycles>;

    /// True when every device is idle.
    fn quiescent(&self) -> bool;

    /// Sum of bytes read across devices.
    fn total_bytes_read(&self) -> u64;

    /// Sum of bytes written across devices.
    fn total_bytes_written(&self) -> u64;

    /// Statistics snapshot of global device `dev`.
    fn device_stats(&self, dev: usize) -> DeviceStats;

    /// Extent of the striped global page space
    /// (`device_count × min(namespace_pages)`).
    fn global_pages(&self) -> u64;

    /// Map a global page index to `(shard, device, local page)`. The
    /// device/page mapping depends only on the device count, so topologies
    /// with equal device counts lay data out identically.
    fn map_page(&self, global: u64) -> PageLocation;

    /// Charge one submission's pass through the array lock guarding device
    /// `dev`: FIFO wait behind earlier holders plus the hold itself.
    fn lock_acquire(&self, dev: usize, warp: u64, now: Cycles) -> Cycles;

    /// Accumulated FIFO queue-wait cycles per lock shard, in shard order
    /// (`agile_submit_lock_wait_cycles_total{shard}`).
    fn lock_wait_by_shard(&self) -> Vec<u64> {
        vec![0; self.shard_count()]
    }

    /// Total queue-wait cycles across all lock shards.
    fn lock_wait_cycles(&self) -> u64 {
        self.lock_wait_by_shard().iter().sum()
    }

    /// Total lock acquisitions per shard, in shard order.
    fn lock_acquires_by_shard(&self) -> Vec<u64> {
        vec![0; self.shard_count()]
    }

    /// Commands currently in flight on global device `dev` (scheduled
    /// completions plus completions parked on a full CQ) — the per-device
    /// queue-depth gauge.
    fn device_inflight(&self, _dev: usize) -> u64 {
        0
    }
}

// ---------------------------------------------------------------------------
// FlatArray
// ---------------------------------------------------------------------------

/// Every device behind one *modeled* lock — the original `SsdArray`
/// behaviour. The devices themselves sit behind per-device mutexes (see
/// [`DeviceSet`]).
pub struct FlatArray {
    set: DeviceSet,
    lock: TopologyLock,
    /// Cached: the device count is fixed at construction, and `map_page`
    /// sits on the per-op replay hot path.
    devices: usize,
    global_pages: u64,
    placement: Placement,
}

impl FlatArray {
    /// Build `count` devices with default configuration and backings.
    pub fn new(count: usize) -> Self {
        FlatArray::from_set(DeviceSet::new(count))
    }

    /// Build from explicit (config, backing) pairs.
    pub fn from_parts(parts: Vec<(SsdConfig, Arc<dyn PageBacking>)>) -> Self {
        FlatArray::from_set(DeviceSet::from_parts(parts))
    }

    /// Wrap an already-built device set.
    pub fn from_set(set: DeviceSet) -> Self {
        let global_pages = set.len() as u64 * set.min_namespace_pages();
        FlatArray {
            devices: set.len(),
            set,
            lock: TopologyLock::new(1, DEFAULT_LOCK_HOLD_CYCLES),
            global_pages,
            placement: Placement::default(),
        }
    }

    /// Run `f` with the underlying device set (tests, direct access).
    pub fn with_set<R>(&self, f: impl FnOnce(&DeviceSet) -> R) -> R {
        f(&self.set)
    }

    /// Override the modeled lock-hold cycles (cost-model studies).
    pub fn with_lock_hold(mut self, hold: u64) -> Self {
        self.lock = TopologyLock::new(1, hold);
        self
    }

    /// Select the striping layer's placement seed (default:
    /// [`Placement::Interleave`], the golden-guarded paper layout).
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }
}

impl StorageTopology for FlatArray {
    fn device_count(&self) -> usize {
        self.devices
    }
    fn shard_count(&self) -> usize {
        1
    }
    fn shard_of(&self, _dev: usize) -> usize {
        0
    }
    fn register_queues(&self, per_device: usize, depth: u32) -> Vec<Vec<Arc<QueuePair>>> {
        self.set.register_queues(per_device, depth)
    }
    fn backing(&self, dev: usize) -> Arc<dyn PageBacking> {
        Arc::clone(self.set.device(dev).backing())
    }
    fn set_trace_sink(&self, sink: &Arc<dyn TraceSink>) -> bool {
        self.set.set_trace_sink(sink)
    }
    fn advance_to(&self, now: Cycles) {
        self.set.advance_to(now);
    }
    fn next_event_time(&self) -> Option<Cycles> {
        self.set.next_event_time()
    }
    fn next_event_after(&self, now: Cycles) -> Option<Cycles> {
        self.set.next_event_after(now)
    }
    fn quiescent(&self) -> bool {
        self.set.quiescent()
    }
    fn total_bytes_read(&self) -> u64 {
        self.set.total_bytes_read()
    }
    fn total_bytes_written(&self) -> u64 {
        self.set.total_bytes_written()
    }
    fn device_stats(&self, dev: usize) -> DeviceStats {
        self.set.device(dev).stats().clone()
    }
    fn global_pages(&self) -> u64 {
        self.global_pages
    }
    fn map_page(&self, global: u64) -> PageLocation {
        let (device, page) = stripe(global, self.devices as u64, self.placement);
        PageLocation {
            shard: 0,
            device,
            page,
        }
    }
    fn lock_acquire(&self, _dev: usize, warp: u64, now: Cycles) -> Cycles {
        self.lock.acquire(0, warp, now)
    }
    fn lock_wait_by_shard(&self) -> Vec<u64> {
        self.lock.wait_by_shard()
    }
    fn lock_acquires_by_shard(&self) -> Vec<u64> {
        self.lock.acquires_by_shard()
    }
    fn device_inflight(&self, dev: usize) -> u64 {
        self.set.device(dev).inflight()
    }
}

// ---------------------------------------------------------------------------
// ShardedArray
// ---------------------------------------------------------------------------

/// Devices partitioned into N lock shards over one per-device-locked
/// [`DeviceSet`].
///
/// Device `d` belongs to shard `d % shards`; the striped data layout is
/// identical to [`FlatArray`] at equal device count, so any benchmark delta
/// between the two is attributable to the lock partitioning alone. With
/// `shards == 1` this *is* the flat array, bit for bit. Shard membership is
/// pure arithmetic — the devices live in one global-order [`DeviceSet`], and
/// shard-level advancement visits them in **shard-major** order (shard 0's
/// devices in increasing global order, then shard 1's, …), which is the
/// historical — and golden-gated — sequential event order.
pub struct ShardedArray {
    set: DeviceSet,
    shard_count: usize,
    lock: TopologyLock,
    global_pages: u64,
    placement: Placement,
    /// The shard-major order [`StorageTopology::advance_to`] visits the
    /// devices in, computed once: every engine round walks it.
    advance_order: Vec<usize>,
}

impl ShardedArray {
    /// Build `count` default devices partitioned into `shards` shards.
    pub fn new(count: usize, shards: usize) -> Self {
        ShardedArray::from_parts(default_parts(count), shards)
    }

    /// Partition explicit (config, backing) pairs into `shards` shards,
    /// device `d` → shard `d % shards`.
    pub fn from_parts(parts: Vec<(SsdConfig, Arc<dyn PageBacking>)>, shards: usize) -> Self {
        assert!(shards >= 1, "a sharded array needs at least one shard");
        let set = DeviceSet::from_parts(parts);
        let advance_order = (0..shards)
            .flat_map(|s| (s..set.len()).step_by(shards))
            .collect();
        ShardedArray {
            global_pages: set.len() as u64 * set.min_namespace_pages(),
            set,
            shard_count: shards,
            lock: TopologyLock::new(shards, DEFAULT_LOCK_HOLD_CYCLES),
            placement: Placement::default(),
            advance_order,
        }
    }

    /// Override the modeled lock-hold cycles (cost-model studies).
    pub fn with_lock_hold(mut self, hold: u64) -> Self {
        self.lock = TopologyLock::new(self.shard_count, hold);
        self
    }

    /// Select the striping layer's placement seed (default:
    /// [`Placement::Interleave`], the golden-guarded paper layout).
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }
}

impl StorageTopology for ShardedArray {
    fn device_count(&self) -> usize {
        self.set.len()
    }
    fn shard_count(&self) -> usize {
        self.shard_count
    }
    fn shard_of(&self, dev: usize) -> usize {
        dev % self.shard_count
    }
    fn register_queues(&self, per_device: usize, depth: u32) -> Vec<Vec<Arc<QueuePair>>> {
        self.set.register_queues(per_device, depth)
    }
    fn backing(&self, dev: usize) -> Arc<dyn PageBacking> {
        Arc::clone(self.set.device(dev).backing())
    }
    fn set_trace_sink(&self, sink: &Arc<dyn TraceSink>) -> bool {
        self.set.set_trace_sink(sink)
    }
    fn advance_to(&self, now: Cycles) {
        // Shard-major, matching the trait contract and the golden traces.
        for &dev in &self.advance_order {
            self.set.advance_device_to(dev, now);
        }
    }
    fn next_event_time(&self) -> Option<Cycles> {
        self.set.next_event_time()
    }
    fn next_event_after(&self, now: Cycles) -> Option<Cycles> {
        self.set.next_event_after(now)
    }
    fn quiescent(&self) -> bool {
        self.set.quiescent()
    }
    fn total_bytes_read(&self) -> u64 {
        self.set.total_bytes_read()
    }
    fn total_bytes_written(&self) -> u64 {
        self.set.total_bytes_written()
    }
    fn device_stats(&self, dev: usize) -> DeviceStats {
        self.set.device(dev).stats().clone()
    }
    fn global_pages(&self) -> u64 {
        self.global_pages
    }
    fn map_page(&self, global: u64) -> PageLocation {
        let (device, page) = stripe(global, self.set.len() as u64, self.placement);
        PageLocation {
            shard: self.shard_of(device as usize) as u32,
            device,
            page,
        }
    }
    fn lock_acquire(&self, dev: usize, warp: u64, now: Cycles) -> Cycles {
        self.lock.acquire(self.shard_of(dev), warp, now)
    }
    fn lock_wait_by_shard(&self) -> Vec<u64> {
        self.lock.wait_by_shard()
    }
    fn lock_acquires_by_shard(&self) -> Vec<u64> {
        self.lock.acquires_by_shard()
    }
    fn device_inflight(&self, dev: usize) -> u64 {
        self.set.device(dev).inflight()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DmaHandle, NvmeCommand};

    #[test]
    fn construction_and_registration() {
        let arr = DeviceSet::new(3);
        assert_eq!(arr.len(), 3);
        assert!(!arr.is_empty());
        let qps = arr.register_queues(4, 64);
        assert_eq!(qps.len(), 3);
        assert_eq!(qps[0].len(), 4);
        assert_eq!(arr.device(0).queue_pair_count(), 4);
        assert!(arr.quiescent());
        assert_eq!(arr.next_event_time(), None);
    }

    #[test]
    fn interleaving_round_robins_devices() {
        let arr = DeviceSet::new(3);
        let (d0, l0) = arr.interleave(0, 1000);
        let (d1, l1) = arr.interleave(1, 1000);
        let (d2, _) = arr.interleave(2, 1000);
        let (d3, l3) = arr.interleave(3, 1000);
        assert_eq!((d0, d1, d2, d3), (0, 1, 2, 0));
        assert_eq!(l0, 0);
        assert_eq!(l1, 0);
        assert_eq!(l3, 1);
    }

    #[test]
    fn interleaving_wraps_lba_space() {
        let arr = DeviceSet::new(2);
        let (_, lba) = arr.interleave(2 * 500 + 1, 500);
        assert!(lba < 500);
    }

    #[test]
    fn totals_start_at_zero() {
        let arr = DeviceSet::new(2);
        assert_eq!(arr.total_bytes_read(), 0);
        assert_eq!(arr.total_bytes_written(), 0);
    }

    #[test]
    fn flat_and_sharded_stripe_identically() {
        let flat = FlatArray::new(6);
        for shards in [1usize, 2, 3, 6] {
            let sharded = ShardedArray::new(6, shards);
            assert_eq!(sharded.shard_count(), shards);
            assert_eq!(sharded.device_count(), 6);
            for g in 0..600u64 {
                let f = flat.map_page(g);
                let s = sharded.map_page(g);
                assert_eq!((f.device, f.page), (s.device, s.page), "page {g}");
                assert_eq!(s.shard as usize, s.device as usize % shards);
            }
        }
    }

    #[test]
    fn striping_is_bijective() {
        let arr = ShardedArray::new(4, 2);
        let mut seen = std::collections::HashSet::new();
        for g in 0..4_000u64 {
            let loc = arr.map_page(g);
            assert!(seen.insert((loc.device, loc.page)), "collision at {g}");
        }
    }

    #[test]
    fn sharded_registration_matches_global_device_order() {
        let arr = ShardedArray::new(5, 2);
        let qps = arr.register_queues(2, 64);
        assert_eq!(qps.len(), 5);
        for (dev, dev_qps) in qps.iter().enumerate() {
            assert_eq!(dev_qps.len(), 2);
            assert_eq!(arr.device_stats(dev).reads_completed, 0);
        }
        // Devices 0,2,4 → shard 0; 1,3 → shard 1.
        assert_eq!(arr.shard_of(0), 0);
        assert_eq!(arr.shard_of(1), 1);
        assert_eq!(arr.shard_of(4), 0);
    }

    #[test]
    fn lock_charges_fifo_wait_per_shard() {
        let lock = TopologyLock::new(2, 10);
        // Two warps, same shard, same instant: second waits for the first.
        assert_eq!(lock.acquire(0, 1, Cycles(100)), Cycles(10));
        assert_eq!(lock.acquire(0, 2, Cycles(100)), Cycles(20));
        // A third warp on the *other* shard pays no wait.
        assert_eq!(lock.acquire(1, 3, Cycles(100)), Cycles(10));
        // Same warp re-acquiring within its step only extends the hold.
        assert_eq!(lock.acquire(0, 2, Cycles(100)), Cycles(10));
        // Far in the future the queue has drained.
        assert_eq!(lock.acquire(0, 4, Cycles(10_000)), Cycles(10));
    }

    #[test]
    fn flat_serializes_where_sharded_does_not() {
        let flat = FlatArray::new(4);
        let sharded = ShardedArray::new(4, 4);
        let mut flat_total = 0u64;
        let mut sharded_total = 0u64;
        for warp in 0..16u64 {
            let dev = (warp % 4) as usize;
            flat_total += flat.lock_acquire(dev, warp, Cycles(0)).raw();
            sharded_total += sharded.lock_acquire(dev, warp, Cycles(0)).raw();
        }
        assert!(
            flat_total > sharded_total,
            "flat {flat_total} must serialize more than sharded {sharded_total}"
        );
    }

    #[test]
    fn sharded_with_one_shard_matches_flat_lock_costs() {
        let flat = FlatArray::new(3);
        let sharded = ShardedArray::new(3, 1);
        for warp in 0..12u64 {
            let dev = (warp % 3) as usize;
            assert_eq!(
                flat.lock_acquire(dev, warp, Cycles(warp * 7)),
                sharded.lock_acquire(dev, warp, Cycles(warp * 7)),
            );
        }
    }

    #[test]
    fn device_advance_order_is_shard_major() {
        // Shard-major order: shard 0's devices in global order, then shard 1's.
        assert_eq!(ShardedArray::new(5, 2).advance_order, [0, 2, 4, 1, 3]);
        // One shard degenerates to global order.
        assert_eq!(ShardedArray::new(4, 1).advance_order, [0, 1, 2, 3]);
    }

    #[test]
    fn per_device_advancement_matches_whole_set_advancement() {
        // Advancing the devices one by one, in any order, must leave the
        // topology in the same externally visible state as advance_to: the
        // devices are independent, so the order only shapes the event stream.
        let run = |per_device: bool| -> (u64, u64, Vec<u64>) {
            let topo = ShardedArray::new(3, 2);
            let queues = topo.register_queues(1, 16);
            for (dev, qs) in queues.iter().enumerate() {
                let lba = dev as u64 * 3;
                assert!(qs[0]
                    .sq
                    .write_slot(0, NvmeCommand::read(1, lba, DmaHandle::new())));
                qs[0].sq_doorbell.ring(1, Cycles(0));
            }
            if per_device {
                for dev in (0..3).rev() {
                    topo.set.advance_device_to(dev, Cycles(4_000_000));
                }
            } else {
                topo.advance_to(Cycles(4_000_000));
            }
            let stats: Vec<u64> = (0..3)
                .map(|d| topo.device_stats(d).reads_completed)
                .collect();
            (topo.total_bytes_read(), topo.total_bytes_written(), stats)
        };
        assert_eq!(run(true), run(false));
        assert!(run(true).0 > 0, "reads must actually complete");
    }
}
