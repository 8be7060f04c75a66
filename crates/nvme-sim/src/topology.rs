//! The multi-SSD storage array.
//!
//! The paper's scaling experiments (Figures 5 and 6) attach up to three SSDs
//! to the host and stripe requests across them in an interleaved fashion
//! ("requests 0, 2, 4, … are issued to SSD1, while requests 1, 3, 5, … are
//! directed to SSD2"). [`StorageTopology`] is that array: its devices, a
//! modeled **submit lock per queue pair**, and the **page-striping layer**
//! that maps a global page index to `(device, device-local page)` via
//! [`StorageTopology::map_page`], so workloads address one linear page
//! space.
//!
//! The submit locks are *modeled*: Algorithm 2 claims an SQ slot with a CAS
//! on that SQ's cursor and serialises that SQ's tail-doorbell update, so
//! [`StorageTopology::lock_acquire`] charges each submission the FIFO wait
//! behind earlier holders *of the same SQ* plus its own hold time.
//! Submissions to different SQs never wait for each other. The simulation
//! stays single-threaded and deterministic; the contention shows up as
//! cycles charged to the issuing warp. One SQ admits at most clock ÷
//! [`DEFAULT_LOCK_HOLD_CYCLES`] submissions per second (≈ 4.17M at 2.5
//! GHz), more than one SSD serves, so only submissions that arrive at one
//! SQ together queue.

use crate::backing::MemBacking;
use crate::device::{DeviceStats, IdleGate, SsdConfig, SsdDevice};
use crate::queue::QueuePair;
use crate::spec::{Lba, QueueId};
use agile_sim::trace::TraceSink;
use agile_sim::Cycles;
use parking_lot::Mutex;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Striping
// ---------------------------------------------------------------------------

/// Where a global page lives: which device, which device-local page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageLocation {
    /// Global device index.
    pub device: u32,
    /// Page index within the device's namespace.
    pub page: Lba,
}

/// The paper's interleave: global page `g` lives on device `g % devices` at
/// local page `g / devices`. Bijective over `devices × pages_per_device`
/// (property-tested in `tests/topology_striping.rs`); every checked-in trace
/// replays against it.
fn stripe(global: u64, devices: u64) -> (u32, Lba) {
    debug_assert!(devices > 0);
    ((global % devices) as u32, global / devices)
}

// ---------------------------------------------------------------------------
// The modeled submit locks
// ---------------------------------------------------------------------------

/// Default cycles a submission holds its SQ's submit lock: the critical
/// section covers the SQ-slot claim and the serialized tail-doorbell update
/// — an uncached MMIO write over PCIe, a few hundred nanoseconds — so ~600
/// GPU cycles at 2.5 GHz. This caps one SQ at clock ÷ hold ≈ 4.17M
/// submissions/s, above one NVMe device's saturation.
pub const DEFAULT_LOCK_HOLD_CYCLES: u64 = 600;

/// Deterministic FIFO model of one SQ's submit lock.
///
/// Each acquisition at simulated time `now` waits for every earlier holder
/// (`busy_until - now`, if positive), then holds the lock for
/// [`DEFAULT_LOCK_HOLD_CYCLES`]; the total is returned as cycles to charge
/// the issuing warp.
#[derive(Debug, Default, Clone, Copy)]
struct SubmitLock {
    /// Simulated time until which the lock is held by queued acquirers.
    busy_until: u64,
    /// Last (warp, now) that acquired — consecutive acquires by the same
    /// warp within one step extend the hold instead of re-paying the queue
    /// wait (the warp is already past the queue; its later acquires happen
    /// back-to-back in real time even though the step reports one `now`).
    last: Option<(u64, u64)>,
    /// Accumulated FIFO queue-wait cycles (the contention signal surfaced as
    /// `agile_submit_lock_wait_cycles_total`).
    wait_cycles: u64,
    /// Total acquisitions charged.
    acquires: u64,
}

impl SubmitLock {
    /// Acquire the lock on behalf of `warp` at time `now`; returns the
    /// cycles the acquisition costs (queue wait + hold).
    fn acquire(&mut self, warp: u64, now: Cycles) -> Cycles {
        let (now, hold) = (now.raw(), DEFAULT_LOCK_HOLD_CYCLES);
        self.acquires += 1;
        if self.last == Some((warp, now)) {
            // Same warp, same step: back-to-back re-acquire, no queue wait.
            self.busy_until += hold;
            return Cycles(hold);
        }
        let wait = self.busy_until.saturating_sub(now);
        self.busy_until = self.busy_until.max(now) + hold;
        self.last = Some((warp, now));
        self.wait_cycles += wait;
        Cycles(wait + hold)
    }
}

// ---------------------------------------------------------------------------
// The storage topology
// ---------------------------------------------------------------------------

/// The storage array: its devices, a *modeled* submit lock per registered
/// queue pair, and the page-striping layer. All methods take `&self`, so
/// hosts share the array as an `Arc` between the co-simulation bridge, the
/// controller and workload setup code.
///
/// Each device sits behind its **own** mutex. That is what lets the engine's
/// topology bridge and the controllers' submit paths share one array; the
/// submit locks are a submission-cost *model*, not a concurrency
/// primitive. Methods lock only the devices they touch, and
/// advancing a device whose [`IdleGate`] says nothing can happen touches
/// nothing at all.
pub struct StorageTopology {
    devices: Vec<Mutex<SsdDevice>>,
    /// Each device's gate, so an idle advance never takes the device lock.
    gates: Vec<Arc<IdleGate>>,
    /// The submit lock of each registered queue pair: outer index = device,
    /// inner = queue id.
    locks: Mutex<Vec<Vec<SubmitLock>>>,
    global_pages: u64,
    min_post_latency: Cycles,
}

impl StorageTopology {
    /// Build `count` devices with default configuration.
    pub fn new(count: usize) -> Self {
        StorageTopology::from_configs((0..count).map(|i| SsdConfig::new(i as u32)).collect())
    }

    /// Build one device per configuration.
    pub fn from_configs(configs: Vec<SsdConfig>) -> Self {
        // The smallest namespace is the per-device extent of the striped
        // page space.
        let min_pages = configs.iter().map(|c| c.namespace_pages).min();
        let global_pages = configs.len() as u64 * min_pages.unwrap_or(0);
        let min_post_latency = configs
            .iter()
            .map(|c| c.costs.post_delay(c.clock_ghz))
            .min()
            .unwrap_or(Cycles::ZERO);
        let (devices, gates): (Vec<_>, _) = configs
            .into_iter()
            .map(|cfg| {
                let dev = SsdDevice::new(cfg);
                let gate = Arc::clone(dev.gate());
                (Mutex::new(dev), gate)
            })
            .unzip();
        StorageTopology {
            locks: Mutex::new(vec![Vec::new(); devices.len()]),
            devices,
            gates,
            global_pages,
            min_post_latency,
        }
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Lock and access device `idx` (registration, configuration, stats).
    pub fn device(&self, idx: usize) -> parking_lot::MutexGuard<'_, SsdDevice> {
        self.devices[idx].lock()
    }

    /// Register `per_device` queue pairs of `depth` entries (ids `0 ..
    /// per_device`) on every device, each with its submit lock; returned
    /// grouped by device index.
    pub fn register_queues(&self, per_device: usize, depth: u32) -> Vec<Vec<Arc<QueuePair>>> {
        for locks in self.locks.lock().iter_mut() {
            if locks.len() < per_device {
                locks.resize(per_device, SubmitLock::default());
            }
        }
        self.devices
            .iter()
            .map(|dev| {
                let mut dev = dev.lock();
                (0..per_device)
                    .map(|q| {
                        let qp = QueuePair::new(q as QueueId, depth);
                        dev.register_queue_pair(Arc::clone(&qp));
                        qp
                    })
                    .collect()
            })
            .collect()
    }

    /// The page backing of device `dev` (for dataset setup).
    pub fn backing(&self, dev: usize) -> Arc<MemBacking> {
        Arc::clone(self.device(dev).backing())
    }

    /// Install a trace sink on every device's completion path (see
    /// [`SsdDevice::set_trace_sink`]). Returns `false` if any device already
    /// had one.
    pub fn set_trace_sink(&self, sink: &Arc<dyn TraceSink>) -> bool {
        let mut all_fresh = true;
        for dev in &self.devices {
            all_fresh &= dev.lock().set_trace_sink(Arc::clone(sink));
        }
        all_fresh
    }

    /// Advance every device to `now` (co-simulation), in device order — the
    /// order that is part of what keeps the golden traces green.
    pub fn advance_to(&self, now: Cycles) {
        for idx in 0..self.devices.len() {
            self.advance_device_to(idx, now);
        }
    }

    /// Advance only device `idx` to `now`. Devices are mutually independent
    /// between advancement boundaries, so one may be advanced alone. An idle
    /// device (see [`IdleGate::idle_at`]) is left untouched and unlocked.
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

    /// Earliest pending event strictly after `now`, device by device (what an
    /// engine advancing the array to `now` waits for next): a device whose
    /// next event is at or before `now` (one fired events scheduled while
    /// firing) does not hide another device's later one.
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

    /// Statistics snapshot of device `dev`.
    pub fn device_stats(&self, dev: usize) -> DeviceStats {
        self.device(dev).stats().clone()
    }

    /// Commands currently in flight on device `dev` (scheduled completions
    /// plus completions parked on a full CQ) — the per-device queue-depth
    /// gauge.
    pub fn device_inflight(&self, dev: usize) -> u64 {
        self.device(dev).inflight()
    }

    /// Extent of the striped global page space
    /// (`device_count × min(namespace_pages)`).
    pub fn global_pages(&self) -> u64 {
        self.global_pages
    }

    /// The lookahead bound of a CQ poller: a command whose completion is
    /// not yet scheduled (not fetched by the last advance, at `t`) is
    /// fetched at `t` at the earliest (after `t` when `command_fetch` is not
    /// zero) and posts no sooner than this after its fetch, so every CQE
    /// posting before `t +` this is already announced by
    /// [`crate::CompletionQueue::next_post`]. It is the least
    /// [`agile_sim::costs::SsdCosts::post_delay`] across devices (zero for
    /// an empty array).
    pub fn min_post_latency(&self) -> Cycles {
        self.min_post_latency
    }

    /// Map a global page index to its device and device-local page (the
    /// paper's interleave).
    pub fn map_page(&self, global: u64) -> PageLocation {
        let (device, page) = stripe(global, self.devices.len() as u64);
        PageLocation { device, page }
    }

    /// Charge one submission's pass through the submit lock of queue pair
    /// `qid` of device `dev` (one [`register_queues`](Self::register_queues)
    /// made): FIFO wait behind that SQ's earlier holders plus the hold.
    pub fn lock_acquire(&self, dev: usize, qid: QueueId, warp: u64, now: Cycles) -> Cycles {
        self.locks.lock()[dev][qid as usize].acquire(warp, now)
    }

    /// Accumulated FIFO queue-wait cycles over every submit lock
    /// (`agile_submit_lock_wait_cycles_total`).
    pub fn lock_wait_cycles(&self) -> u64 {
        self.locks
            .lock()
            .iter()
            .flatten()
            .map(|l| l.wait_cycles)
            .sum()
    }

    /// Total submit-lock acquisitions (`agile_submit_lock_acquires_total`).
    pub fn lock_acquires(&self) -> u64 {
        self.locks.lock().iter().flatten().map(|l| l.acquires).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DmaHandle, NvmeCommand};

    #[test]
    fn construction_and_registration() {
        let arr = StorageTopology::new(3);
        assert_eq!(arr.device_count(), 3);
        let qps = arr.register_queues(4, 64);
        assert_eq!(qps.len(), 3);
        assert_eq!(qps[0].len(), 4);
        assert_eq!(arr.device(0).queue_pair_count(), 4);
        assert!(arr.quiescent());
        assert_eq!(arr.next_event_time(), None);
    }

    #[test]
    fn totals_start_at_zero() {
        let arr = StorageTopology::new(2);
        assert_eq!(arr.total_bytes_read(), 0);
        assert_eq!(arr.total_bytes_written(), 0);
    }

    #[test]
    fn striping_is_bijective() {
        let arr = StorageTopology::new(4);
        let mut seen = std::collections::HashSet::new();
        for g in 0..4_000u64 {
            let loc = arr.map_page(g);
            assert!(seen.insert((loc.device, loc.page)), "collision at {g}");
        }
    }

    #[test]
    fn lock_charges_fifo_wait() {
        let hold = DEFAULT_LOCK_HOLD_CYCLES;
        let mut lock = SubmitLock::default();
        // Two warps, same instant: the second waits for the first.
        assert_eq!(lock.acquire(1, Cycles(100)), Cycles(hold));
        assert_eq!(lock.acquire(2, Cycles(100)), Cycles(2 * hold));
        // Same warp re-acquiring within its step only extends the hold.
        assert_eq!(lock.acquire(2, Cycles(100)), Cycles(hold));
        // Far in the future the queue has drained.
        assert_eq!(lock.acquire(4, Cycles(100_000)), Cycles(hold));
        assert_eq!((lock.wait_cycles, lock.acquires), (hold, 4));
    }

    #[test]
    fn each_queue_pair_has_its_own_submit_lock() {
        let hold = Cycles(DEFAULT_LOCK_HOLD_CYCLES);
        let arr = StorageTopology::new(2);
        arr.register_queues(2, 16);
        // Same instant, four different SQs: nobody waits.
        for (warp, (dev, qid)) in [(0, 0), (0, 1), (1, 0), (1, 1)].into_iter().enumerate() {
            assert_eq!(arr.lock_acquire(dev, qid, warp as u64, Cycles(50)), hold);
        }
        // A second warp on a held SQ waits one hold.
        assert_eq!(arr.lock_acquire(1, 1, 9, Cycles(50)), hold * 2);
        assert_eq!((arr.lock_wait_cycles(), arr.lock_acquires()), (600, 5));
    }

    #[test]
    fn per_device_advancement_matches_whole_set_advancement() {
        // Advancing the devices one by one, in any order, must leave the
        // topology in the same externally visible state as advance_to: the
        // devices are independent, so the order only shapes the event stream.
        let run = |per_device: bool| -> (u64, u64, Vec<u64>) {
            let topo = StorageTopology::new(3);
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
                    topo.advance_device_to(dev, Cycles(4_000_000));
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
