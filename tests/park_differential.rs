//! Parked vs polled: the differential that pins warp parking.
//!
//! `EngineSched::EventQueue` keeps a warp whose stall is parkable off the
//! ready queue until the event that ends its wait and wakes it on its own
//! retry grid; `EngineSched::FullScan` never parks and really makes every
//! one of those polls. The rule is *times are simulated, counts are
//! executed*: the two must agree on every simulated time — report,
//! latencies, stall cycles — and on every counter that is not a poll count,
//! while the poll counts (`IoStats::{read_calls, raw_calls, warp_coalesced,
//! cache_coalesced, sq_full_retries, cache_cycles, io_cycles}`,
//! `CacheStats::{busy_hits, no_line}`, `ServiceStats::idle_rounds`,
//! `KernelReport::steps`) of the parked run may only be lower. With a
//! recording sink installed the captures are the same *multiset* of events
//! apart from `CacheBusy` and `CacheNoLine` records, and the parked run's
//! records of those two kinds are a sub-multiset of the polled run's.
//!
//! The cases are random replays shaped to reach the hard paths: a raw replay
//! with a small window over one short SQ (window-full and drain waits,
//! SQ-full retries), a raw replay with eight times the requests the SQs hold
//! (warps asleep in the devices' submission queues, handed the slots each
//! release frees), a cached replay with 50 % writes over 8× the cache and
//! 32 SQ slots for 32 warps (blocked stores, `abort_fill`,
//! `reinstate_victim`), a tenant-partitioned cached replay, an accessor
//! kernel (the CTC micro-benchmark) whose retry interval depends on what the
//! attempt cost and whose warps sleep at their block's barrier after every
//! fetch, and a held-lines kernel (`held`) whose holders keep lines
//! `READY` but pinned, or reserved, across warp steps — states the storage
//! stack never leaves standing between two steps — beside readers and
//! writers that sleep on fills and on the one set of an 8-line cache. A
//! failure prints the case, which reproduces it.
//!
//! On the storage stack an event lands *exactly* on a sleeper's grid point
//! perhaps once in a thousand wakes, so the wake rule itself is also driven
//! on a bare engine by synthetic waiters and notifiers whose intervals make
//! that the common case (`synthetic`, at the end).
//!
//! Mutation check (done by hand, release build; repeated under "counts ≤"
//! when settlement was deleted, with the same result): waking a sleeper in the
//! notifier's own cycle regardless of `(sm, slot)` order fails
//! `parked_and_polled_synthetic_waits_are_indistinguishable`; dropping the
//! bulk `rotation` advance of a woken service warp fails
//! `parked_and_polled_replays_are_indistinguishable` (and the accessor test).
//! For the submission queues (release build): handing a granted slot to a
//! waiter polling in the granting cycle regardless of `(sm, slot)` order, to
//! the waiter polling *last* instead of first, or granting one slot fewer
//! than a release frees each fail `parked_and_polled_replays_are_
//! indistinguishable` on the `RawPressure` shape, which the other shapes do
//! not pin. For full sets (release build): watching only all ways but one
//! fails the cached replays and the held-lines tests (the accessor case
//! passes). Parking on a set with a `READY` but pinned way, or dropping the
//! notification from `reinstate_victim`, fails only the held-lines tests:
//! on the storage stack every such pin, and every reservation that is
//! aborted or reinstated, begins and ends inside one warp step, so only a
//! holder that keeps it across steps lets a sleeper see it. Counting every
//! no-line lookup as a full set fails the held-lines tests too. For the
//! service lookahead (release build): ignoring `next_post` in the scan of a
//! service warp's future sweeps fails the replays; moving the rotation on by
//! one sweep fewer than a woken service warp slept through fails the
//! replays, the accessor test and `the_service_sleeps_through_its_idle_
//! sweeps`. Looking ahead twice `min_post_latency` passes here (flash
//! service keeps every completion further off than that) and fails the
//! service's own unit test; treating a stale deadline entry as live fails
//! the engine's deadline tests. For the block barrier (release build):
//! dropping the last arrival's `notify_all` deadlocks the accessor test, and
//! an impure re-poll (arriving again while the generation is unreleased)
//! fails it on elapsed and stall cycles.

use agile_repro::agile::{AgileConfig, IoStats, ServiceStats};
use agile_repro::bam::HostBuilder;
use agile_repro::cache::CacheStats;
use agile_repro::gpu::{EngineSched, GpuConfig, LaunchConfig};
use agile_repro::sim::{Nanos, TraceEvent, TraceEventKind};
use agile_repro::trace::{AddressPattern, MemorySink, TenantSpec, TraceSpec};
use agile_repro::workloads::experiments::trace_replay::{
    run_trace_replay_with_sink, ReplayConfig, ReplayReport, ReplaySystem,
};
use agile_repro::workloads::microbench::{MicrobenchKernel, MicrobenchParams};
use proptest::prelude::*;
use std::fmt::Debug;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Everything about a trace event, as a sortable key.
type EventKey = (u64, u8, u32, u64, u32, u16, u16, bool);

fn keys(events: &[TraceEvent]) -> Vec<EventKey> {
    events
        .iter()
        .map(|e| {
            (
                e.at,
                e.kind as u8,
                e.dev,
                e.lba,
                e.tenant,
                e.queue,
                e.cid,
                e.write,
            )
        })
        .collect()
}

fn sorted(mut keys: Vec<EventKey>) -> Vec<EventKey> {
    keys.sort_unstable();
    keys
}

/// A parked and a polled capture: the same multiset apart from the records of
/// lookups a sleeping warp skips (`CacheBusy`, `CacheNoLine`), of which the
/// parked run's are a sub-multiset of the polled run's.
fn assert_captures(case: impl Debug, parked: Vec<EventKey>, polled: Vec<EventKey>) {
    let poll = |k: &EventKey| {
        k.1 == TraceEventKind::CacheBusy as u8 || k.1 == TraceEventKind::CacheNoLine as u8
    };
    let split =
        |keys: Vec<EventKey>| -> (Vec<_>, Vec<_>) { sorted(keys).into_iter().partition(poll) };
    let ((parked_polls, parked_rest), (polled_polls, polled_rest)) = (split(parked), split(polled));
    assert!(
        parked_rest == polled_rest,
        "{case:?}: the captures differ beyond CacheBusy / CacheNoLine"
    );
    // Both sorted: each parked record must be found, in order, in the rest
    // of the polled ones.
    let mut polled_polls = polled_polls.iter();
    assert!(
        parked_polls.iter().all(|k| polled_polls.any(|p| p == k)),
        "{case:?}: a parked CacheBusy / CacheNoLine record the polled run does not have"
    );
}

/// `stats` with its poll counts zeroed, and those counts.
fn io_polls(s: &IoStats) -> (IoStats, Vec<u64>) {
    let polls = vec![
        s.read_calls,
        s.raw_calls,
        s.warp_coalesced,
        s.cache_coalesced,
        s.sq_full_retries,
        s.cache_cycles,
        s.io_cycles,
    ];
    let rest = IoStats {
        read_calls: 0,
        raw_calls: 0,
        warp_coalesced: 0,
        cache_coalesced: 0,
        sq_full_retries: 0,
        cache_cycles: 0,
        io_cycles: 0,
        ..s.clone()
    };
    (rest, polls)
}

/// The same for the cache's counters.
fn cache_polls(s: &CacheStats) -> (CacheStats, Vec<u64>) {
    let rest = CacheStats {
        busy_hits: 0,
        no_line: 0,
        ..s.clone()
    };
    (rest, vec![s.busy_hits, s.no_line])
}

/// The same for the service's.
fn service_polls(s: &ServiceStats) -> (ServiceStats, Vec<u64>) {
    let rest = ServiceStats {
        idle_rounds: 0,
        ..s.clone()
    };
    (rest, vec![s.idle_rounds])
}

/// Times equal, counts ≤: everything but the poll counts is equal, and each
/// poll count of the parked run is at most the polled run's.
fn assert_counts<T: PartialEq + Debug>(
    case: impl Debug,
    parked: (T, Vec<u64>),
    polled: (T, Vec<u64>),
) {
    assert_eq!(parked.0, polled.0, "{case:?}");
    assert_eq!(parked.1.len(), polled.1.len(), "{case:?}");
    assert!(
        parked.1.iter().zip(&polled.1).all(|(a, b)| a <= b),
        "{case:?}: parked polls {:?} > polled {:?}",
        parked.1,
        polled.1
    );
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Raw path, window 4, one 32-deep SQ per device.
    Raw,
    /// Raw path, 128 warps × window 8 over two 32-deep SQs per device:
    /// eight times the requests the SQs hold.
    RawPressure,
    /// Cached path, 50 % writes, working set 8× a 128-line cache.
    CachedWriteMix,
    /// Cached path, three tenants, warps partitioned by tenant.
    CachedTenants,
}

#[derive(Debug, Clone, Copy)]
struct Case {
    shape: Shape,
    seed: u64,
    ops: u64,
    sink: bool,
}

fn case_of(pick: u8, seed: u64) -> Case {
    let shapes = [
        Shape::Raw,
        Shape::RawPressure,
        Shape::CachedWriteMix,
        Shape::CachedTenants,
    ];
    Case {
        shape: shapes[pick as usize % 4],
        seed,
        ops: 256 + seed % 512,
        sink: pick & 8 == 0,
    }
}

fn replay(case: Case, sched: EngineSched) -> (ReplayReport, Vec<EventKey>) {
    let Case {
        shape, seed, ops, ..
    } = case;
    let (spec, cfg) = match shape {
        Shape::Raw => (
            TraceSpec::multi_tenant("diff-raw", seed, 2, 1 << 12, ops),
            ReplayConfig {
                total_warps: 48,
                window: 4,
                queue_pairs: 1,
                queue_depth: 32,
                ..ReplayConfig::default()
            },
        ),
        Shape::RawPressure => (
            TraceSpec::multi_tenant("diff-pressure", seed, 2, 1 << 12, ops),
            ReplayConfig {
                total_warps: 128,
                window: 8,
                queue_pairs: 2,
                queue_depth: 32,
                ..ReplayConfig::default()
            },
        ),
        Shape::CachedWriteMix => (
            TraceSpec {
                name: "diff-writemix".to_string(),
                seed,
                devices: 1,
                lba_space: 1 << 10,
                tenants: vec![TenantSpec::new(ops, AddressPattern::Uniform, 0.5, 100)],
            },
            ReplayConfig {
                total_warps: 32,
                queue_pairs: 1,
                queue_depth: 32,
                cache_bytes: Some(128 * 4096),
                ..ReplayConfig::default()
            }
            .cached(),
        ),
        Shape::CachedTenants => (
            TraceSpec::multi_tenant("diff-tenants", seed, 2, 1 << 11, ops),
            ReplayConfig {
                total_warps: 24,
                queue_pairs: 2,
                queue_depth: 32,
                cache_bytes: Some(256 * 4096),
                ..ReplayConfig::default()
            }
            .cached()
            .tenant_partitioned(),
        ),
    };
    let cfg = cfg.with_engine_sched(sched);
    let sink = case.sink.then(|| Arc::new(MemorySink::new()));
    let report = run_trace_replay_with_sink(
        &spec.generate(),
        ReplaySystem::Agile,
        &cfg,
        sink.clone().map(|s| s as Arc<_>),
    );
    (report, sink.map_or(Vec::new(), |s| keys(&s.take_events())))
}

/// What a parked and a polled replay of one case must agree on: times
/// equal, counts ≤.
fn assert_same_replay(case: Case, parked: &ReplayReport, polled: &ReplayReport) {
    let (a, b) = (parked, polled);
    assert_eq!(a.summary(), b.summary(), "{case:?}");
    assert_eq!(a.elapsed_cycles, b.elapsed_cycles, "{case:?}");
    assert_eq!(a.mean_us.to_bits(), b.mean_us.to_bits(), "{case:?}");
    assert_counts(case, io_polls(&a.io_stats), io_polls(&b.io_stats));
    let cache = |r: &ReplayReport| cache_polls(&r.cache_stats);
    assert_counts(case, cache(a), cache(b));
    let service = |r: &ReplayReport| service_polls(&r.service_stats);
    assert_counts(case, service(a), service(b));
    assert_eq!(a.tenant_cache, b.tenant_cache, "{case:?}");
    assert_eq!(a.lock_wait_cycles, b.lock_wait_cycles, "{case:?}");
    assert!(!a.deadlocked && !b.deadlocked, "{case:?}");
}

fn differential(case: Case) {
    let (parked, parked_events) = replay(case, EngineSched::EventQueue);
    let (polled, polled_events) = replay(case, EngineSched::FullScan);
    assert_same_replay(case, &parked, &polled);
    assert_captures(case, parked_events, polled_events);
    assert!(
        parked.engine_rounds < polled.engine_rounds,
        "{case:?}: nothing was parked?"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 8 } else { 128 }))]

    #[test]
    fn parked_and_polled_replays_are_indistinguishable(pick in any::<u8>(), seed in any::<u64>()) {
        differential(case_of(pick, seed));
    }
}

/// The shapes really reach what they were built to reach (so a green
/// differential means something).
#[test]
fn the_cases_reach_the_hard_paths() {
    let raw = Case {
        shape: Shape::Raw,
        seed: 11,
        ops: 768,
        sink: true,
    };
    differential(raw);
    let (report, _) = replay(raw, EngineSched::EventQueue);
    assert!(report.io_stats.sq_full_retries > 0, "SQ-full retries");

    let pressure = Case {
        shape: Shape::RawPressure,
        seed: 13,
        ops: 768,
        sink: true,
    };
    differential(pressure);
    let (parked, _) = replay(pressure, EngineSched::EventQueue);
    let (polled, _) = replay(pressure, EngineSched::FullScan);
    let refused = |r: &ReplayReport| r.io_stats.sq_full_retries;
    assert!(refused(&parked) > 0, "submissions are refused");
    assert!(
        refused(&parked) < refused(&polled),
        "warps sleep in the submission queues ({} vs {} refusals)",
        refused(&parked),
        refused(&polled)
    );

    let writemix = Case {
        shape: Shape::CachedWriteMix,
        seed: 12,
        ops: 768,
        sink: true,
    };
    differential(writemix);
    let (report, events) = replay(writemix, EngineSched::EventQueue);
    let io = &report.io_stats;
    assert!(
        report.cache_stats.writebacks > 0,
        "dirty victims are written back"
    );
    assert!(io.sq_full_retries > 0, "fills and write-backs are refused");
    assert!(report.cache_stats.busy_hits > 0, "waits on fills in flight");
    assert!(
        report.service_stats.idle_rounds > 0,
        "the service sweeps idle"
    );
    assert!(!events.is_empty());
    // Only a warp asleep on a full set skips a lookup that finds no line.
    let (polled, _) = replay(writemix, EngineSched::FullScan);
    let no_line = |r: &ReplayReport| r.cache_stats.no_line;
    assert!(no_line(&report) > 0, "lookups find no line");
    assert!(
        no_line(&report) < no_line(&polled),
        "warps sleep on full sets ({} vs {} no-line lookups)",
        no_line(&report),
        no_line(&polled)
    );
}

/// A service warp reads off the devices' schedule which of its next sweeps
/// find a completion and sleeps through the others: under load it executes
/// almost no idle sweep, where a polling run makes several per completion.
/// (On the write mix every service warp sweeps its one CQ: each wakes for
/// every completion, and all but the first find it retired.)
#[test]
fn the_service_sleeps_through_its_idle_sweeps() {
    for (shape, bound) in [(Shape::RawPressure, 0.1), (Shape::CachedWriteMix, 1.0)] {
        let case = Case {
            shape,
            seed: 13,
            ops: 768,
            sink: false,
        };
        let (parked, _) = replay(case, EngineSched::EventQueue);
        let (polled, _) = replay(case, EngineSched::FullScan);
        assert_same_replay(case, &parked, &polled);
        let per_completion = |r: &ReplayReport| {
            r.service_stats.idle_rounds as f64 / r.service_stats.completions as f64
        };
        let (parked, polled) = (per_completion(&parked), per_completion(&polled));
        assert!(
            parked < bound,
            "{case:?}: {parked} idle sweeps per completion"
        );
        assert!(
            polled > 3.0,
            "{case:?}: {polled} idle sweeps per completion polled"
        );
    }
}

/// An accessor kernel: its retry interval is `hint.max(cost)`, so it may only
/// sleep from an attempt that cost what the retries will. With no flash
/// service time every command posts exactly `min_post_latency` after its
/// fetch, so a service warp that looked further ahead than the devices'
/// schedule reaches would sleep through a completion.
#[test]
fn parked_and_polled_accessor_kernels_are_indistinguishable() {
    let run = |sched: EngineSched, asynchronous: bool, no_flash: bool| {
        let sink = Arc::new(MemorySink::new());
        let mut config = AgileConfig::small_test()
            .with_queue_pairs(4)
            .with_queue_depth(64);
        if no_flash {
            config.costs.ssd.read_page_service = Nanos::ZERO;
            config.costs.ssd.write_page_service = Nanos::ZERO;
        }
        let mut host = HostBuilder::agile(config)
            .gpu(GpuConfig::tiny(4))
            .devices(2, 1 << 16)
            .trace_sink(sink.clone() as Arc<_>)
            .build();
        host.engine_mut().set_scheduler(sched);
        let kernel = MicrobenchKernel::new(
            host.ctrl(),
            MicrobenchParams {
                requests_per_thread: 6,
                compute_cycles: 40_000,
                pages_per_dev: 1 << 15,
                asynchronous,
            },
        );
        let report = host.run_kernel(
            LaunchConfig::new(2, 128).with_registers(40),
            Box::new(kernel),
        );
        assert!(!report.deadlocked);
        let ctrl = host.ctrl();
        let (service, kernel) = (&report.kernels[0], &report.kernels[1]);
        (
            (
                report.elapsed,
                kernel.stall_cycles,
                service.busy_cycles,
                service.stall_cycles,
            ),
            kernel.steps,
            (
                io_polls(&ctrl.io().stats()),
                cache_polls(&ctrl.cache().stats()),
                service_polls(&host.service().stats()),
            ),
            report.rounds,
            keys(&sink.take_events()),
        )
    };
    for (asynchronous, no_flash) in [(false, false), (true, false), (true, true)] {
        let parked = run(EngineSched::EventQueue, asynchronous, no_flash);
        let polled = run(EngineSched::FullScan, asynchronous, no_flash);
        assert_eq!(parked.0, polled.0, "elapsed, stall and service cycles");
        // With no flash service every read is done by the kernel's first
        // retry, so no wait takes a second poll and parking has none to
        // save: there the step counts tie (212 each). Everywhere else
        // parking must save kernel steps.
        assert!(
            parked.1 < polled.1 || (no_flash && parked.1 == polled.1),
            "steps count what ran"
        );
        let ((io, cache, service), polled_counts) = (parked.2, polled.2);
        assert_counts(asynchronous, io, polled_counts.0);
        assert_counts(asynchronous, cache, polled_counts.1);
        assert_counts(asynchronous, service, polled_counts.2);
        assert!(parked.3 < polled.3, "nothing was parked?");
        assert_captures(asynchronous, parked.4, polled.4);
    }
}

// ---------------------------------------------------------------------------
// Lines held across warp steps
// ---------------------------------------------------------------------------

/// Holders keep lines in states the storage stack never leaves standing
/// across a warp step — `READY` but pinned, or reserved and given back a few
/// steps later by `abort_fill` or by `reinstate_victim` — beside readers and
/// writers that sleep on fills and full sets of the same small cache. A
/// sleeper parked on a set a holder pins, or one nobody wakes when a holder
/// gives its reservation back, oversleeps, and the times differ.
mod held {
    use agile_repro::agile::{AgileCtrl, LineWait, ReadOutcome, WarpWait};
    use agile_repro::cache::{CacheLookup, LineId, Writeback, NO_TENANT};
    use agile_repro::gpu::{KernelFactory, WarpCtx, WarpKernel, WarpStep};
    use agile_repro::nvme::{Lba, PageToken};
    use agile_repro::sim::wake::SleeperId;
    use agile_repro::sim::Cycles;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    /// Blocks, and warps per block; the first warp of each block is a
    /// holder.
    pub const BLOCKS: u32 = 4;
    pub const WARPS: u32 = 4;
    /// Pages of the one device: three times the cache.
    pub const PAGES: u64 = 24;
    /// Accesses per reader or writer, holds per holder.
    pub const ACCESSES: u32 = 16;
    pub const HOLDS: u32 = 8;

    /// What one run did, beyond the controller's own statistics.
    #[derive(Default)]
    pub struct Log {
        /// `(time, warp, access)` of every access that completed.
        pub done: Mutex<Vec<(u64, u32, u32)>>,
        /// Holds of a `READY` line, aborted and reinstated reservations.
        pub pins: AtomicU64,
        pub aborts: AtomicU64,
        pub reinstates: AtomicU64,
    }

    pub struct Kernel {
        pub ctrl: Arc<AgileCtrl>,
        pub seed: u64,
        pub log: Arc<Log>,
    }

    /// A warp's own deterministic stream.
    fn rng(seed: u64, warp: u32) -> impl FnMut(u64) -> u64 {
        let mut state = (seed ^ (warp as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
        move |bound| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        }
    }

    impl KernelFactory for Kernel {
        fn create_warp(&self, block: u32, warp: u32) -> Box<dyn WarpKernel> {
            let id = block * WARPS + warp;
            let mut next = rng(self.seed, id);
            let (ctrl, log) = (Arc::clone(&self.ctrl), Arc::clone(&self.log));
            if warp == 0 {
                let holds = (0..HOLDS).map(|_| (next(PAGES), 1 + next(5))).collect();
                Box::new(Holder {
                    ctrl,
                    log,
                    holds,
                    held: None,
                })
            } else {
                let accesses = (0..ACCESSES).map(|_| (next(PAGES), next(2) == 0)).collect();
                Box::new(Accessor {
                    ctrl,
                    log,
                    id,
                    accesses,
                    at: 0,
                    read: WarpWait::new(),
                    write: LineWait::default(),
                    sleeper: None,
                })
            }
        }
    }

    /// Reads and writes one page at a time, sleeping like the cached replay.
    struct Accessor {
        ctrl: Arc<AgileCtrl>,
        log: Arc<Log>,
        id: u32,
        /// `(page, is a write)`.
        accesses: Vec<(Lba, bool)>,
        at: usize,
        read: WarpWait,
        write: LineWait,
        sleeper: Option<SleeperId>,
    }

    impl WarpKernel for Accessor {
        fn step(&mut self, ctx: &WarpCtx) -> WarpStep {
            let Some(&(lba, write)) = self.accesses.get(self.at) else {
                return WarpStep::Done;
            };
            let (io, warp) = (self.ctrl.io(), self.id as u64);
            let (cost, done) = if write {
                let token = PageToken(lba << 8 | self.id as u64);
                io.write_warp(warp, NO_TENANT, 0, lba, token, ctx.now, &mut self.write)
            } else {
                let (cost, outcome) =
                    io.read_warp(warp, NO_TENANT, &[(0, lba)], ctx.now, &mut self.read);
                (cost, outcome != ReadOutcome::Pending)
            };
            if !done {
                let read = (!write).then_some(&self.read);
                let writes = write.then_some(&self.write).into_iter();
                return WarpStep::Stall {
                    retry_after: Cycles(1_000),
                    wait: io.park_on_fills(&mut self.sleeper, read, writes),
                };
            }
            let access = self.at as u32;
            self.log
                .done
                .lock()
                .unwrap()
                .push((ctx.now.raw(), self.id, access));
            self.at += 1;
            self.write = LineWait::default();
            WarpStep::Busy(cost.max(Cycles(100)))
        }
    }

    /// Takes a page's line for a few steps at a time, polling while it
    /// cannot: pins it if resident, otherwise reserves it and gives the
    /// reservation back — reinstating the dirty victim it evicted, if any.
    struct Holder {
        ctrl: Arc<AgileCtrl>,
        log: Arc<Log>,
        /// `(page, steps to hold it)`, last first.
        holds: Vec<(Lba, u64)>,
        held: Option<Held>,
    }

    /// A line a holder has, and how.
    struct Held {
        line: LineId,
        /// Pinned `READY` (or `MODIFIED`), or reserved `BUSY`.
        pinned: bool,
        /// For a reservation: the dirty victim it evicted.
        victim: Option<Writeback>,
        steps_left: u64,
    }

    impl WarpKernel for Holder {
        fn step(&mut self, ctx: &WarpCtx) -> WarpStep {
            let cache = self.ctrl.cache();
            // Stamp this warp's own lookups, as the controller's entry points do.
            cache.set_time_hint(ctx.now.raw());
            if let Some(held) = self.held.as_mut() {
                if held.steps_left > 0 {
                    held.steps_left -= 1;
                    return WarpStep::Busy(Cycles(500));
                }
                let counter = match (held.pinned, held.victim) {
                    (true, _) => {
                        cache.unpin(held.line);
                        &self.log.pins
                    }
                    (false, Some(victim)) => {
                        cache.reinstate_victim(held.line, victim);
                        &self.log.reinstates
                    }
                    (false, None) => {
                        cache.abort_fill(held.line);
                        &self.log.aborts
                    }
                };
                counter.fetch_add(1, Ordering::Relaxed);
                self.held = None;
                return WarpStep::Busy(Cycles(200));
            }
            let Some(&(lba, steps_left)) = self.holds.last() else {
                return WarpStep::Done;
            };
            let (line, pinned, victim) = match cache.lookup_or_reserve(0, lba) {
                CacheLookup::Hit { line, .. } => (line, true, None),
                CacheLookup::Miss {
                    line, writeback, ..
                } => (line, false, writeback),
                CacheLookup::Busy { .. } | CacheLookup::NoLineAvailable => {
                    return WarpStep::Busy(Cycles(300));
                }
            };
            self.held = Some(Held {
                line,
                pinned,
                victim,
                steps_left,
            });
            self.holds.pop();
            WarpStep::Busy(Cycles(200))
        }
    }
}

/// What one held-lines run did.
struct HeldRun {
    /// Elapsed cycles and the kernel's stall cycles.
    times: (u64, u64),
    /// `(time, warp, access)` of every completed access, sorted.
    done: Vec<(u64, u32, u32)>,
    io: (IoStats, Vec<u64>),
    cache: (CacheStats, Vec<u64>),
    full_sets: u64,
    rounds: u64,
    events: Vec<EventKey>,
    /// Pins, aborts and reinstatements by the holders.
    holds: [u64; 3],
}

fn held_lines(seed: u64, sched: EngineSched) -> HeldRun {
    let sink = Arc::new(MemorySink::new());
    let config = AgileConfig::small_test()
        .with_queue_pairs(1)
        .with_queue_depth(64)
        .with_cache_bytes(8 * 4096);
    let mut host = HostBuilder::agile(config)
        .gpu(GpuConfig::tiny(4))
        .devices(1, held::PAGES)
        .trace_sink(sink.clone() as Arc<_>)
        .build();
    host.engine_mut().set_scheduler(sched);
    // A run that stops making progress ends here and fails below.
    host.engine_mut()
        .set_max_cycles(agile_repro::sim::Cycles(20_000_000));
    let log = Arc::new(held::Log::default());
    let kernel = held::Kernel {
        ctrl: host.ctrl(),
        seed,
        log: Arc::clone(&log),
    };
    let report = host.run_kernel(
        LaunchConfig::new(held::BLOCKS, 32 * held::WARPS).with_registers(32),
        Box::new(kernel),
    );
    assert!(!report.deadlocked, "seed {seed}: {:?}", report.stalled);
    let ctrl = host.ctrl();
    let mut done = std::mem::take(&mut *log.done.lock().unwrap());
    done.sort_unstable();
    let accessors = held::BLOCKS * (held::WARPS - 1);
    assert_eq!(
        done.len(),
        (accessors * held::ACCESSES) as usize,
        "seed {seed}: all done"
    );
    HeldRun {
        times: (report.elapsed.raw(), report.kernels[1].stall_cycles),
        done,
        io: io_polls(&ctrl.io().stats()),
        cache: cache_polls(&ctrl.cache().stats()),
        full_sets: ctrl.cache().full_sets(),
        rounds: report.rounds,
        events: keys(&sink.take_events()),
        holds: [&log.pins, &log.aborts, &log.reinstates].map(|n| n.load(Ordering::Relaxed)),
    }
}

/// Times equal, counts ≤; returns the parked and the polled run's no-line
/// lookups and the holders' tally.
fn held_lines_differential(seed: u64) -> (u64, u64, [u64; 3]) {
    let parked = held_lines(seed, EngineSched::EventQueue);
    let polled = held_lines(seed, EngineSched::FullScan);
    let no_line = (parked.cache.1[1], polled.cache.1[1]);
    assert_eq!(
        parked.times, polled.times,
        "seed {seed}: elapsed and stall cycles"
    );
    assert_eq!(parked.done, polled.done, "seed {seed}: completion times");
    assert_counts(seed, parked.io, polled.io);
    assert_counts(seed, parked.cache, polled.cache);
    assert_eq!(parked.full_sets, polled.full_sets, "seed {seed}: full sets");
    assert!(
        parked.rounds < polled.rounds,
        "seed {seed}: nothing was parked?"
    );
    assert_captures(seed, parked.events, polled.events);
    assert_eq!(parked.holds, polled.holds, "seed {seed}");
    (no_line.0, no_line.1, parked.holds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 8 } else { 64 }))]

    #[test]
    fn parked_and_polled_held_lines_are_indistinguishable(seed in any::<u64>()) {
        held_lines_differential(seed);
    }
}

/// The holders do what they are there for, and readers and writers sleep
/// on full sets beside them.
#[test]
fn held_lines_are_pinned_aborted_and_reinstated() {
    let (parked, polled, [pins, aborts, reinstates]) = held_lines_differential(7);
    assert!(
        pins > 0 && aborts > 0 && reinstates > 0,
        "pins {pins}, aborts {aborts}, reinstates {reinstates}"
    );
    assert!(
        parked < polled,
        "warps sleep on full sets ({parked} vs {polled} no-line lookups)"
    );
}

// ---------------------------------------------------------------------------
// The wake rule itself, on a bare engine
// ---------------------------------------------------------------------------

/// Synthetic waiters and notifiers with small retry intervals and busy
/// times drawn from a handful of round values, so that an event landing
/// *exactly* on a sleeper's grid point — with the sleeper sorting before or
/// after the notifier — happens all the time instead of once in a thousand
/// wakes. What the storage stack cannot make frequent, this does.
mod synthetic {
    use agile_repro::gpu::{
        Engine, EngineSched, ExecutionReport, GpuConfig, KernelFactory, LaunchConfig, WarpCtx,
        WarpKernel, WarpStep,
    };
    use agile_repro::sim::wake::{SleeperId, Wait, WaitReason, WakeHub, WatchList};
    use agile_repro::sim::Cycles;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    /// Counters the notifiers bump and the waiters wait on.
    pub struct World {
        hub: Arc<WakeHub>,
        flags: Vec<AtomicU64>,
        watchers: Vec<WatchList>,
        /// Polls each waiter made, by sleeper id.
        pub polls: Vec<AtomicU64>,
        /// `(time, waiter)` of every wait that ended, in step order.
        pub log: Mutex<Vec<(u64, u32)>>,
    }

    /// One notifier step: stay busy this long, then bump this flag.
    type Bump = (u64, usize);
    /// One wait: until `flag >= target`, re-polling every `retry`, then busy.
    type WaitFor = (usize, u64, u64, u64);

    pub struct Script {
        pub notifiers: Vec<Vec<Bump>>,
        pub waiters: Vec<Vec<WaitFor>>,
        pub notifiers_first: bool,
    }

    /// A script from `seed`: 4 flags, up to 6 notifier and 10 waiter warps.
    pub fn script(seed: u64) -> Script {
        let mut state = seed | 1;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        const BUSY: [u64; 4] = [100, 200, 300, 600];
        const RETRY: [u64; 4] = [100, 200, 300, 400];
        let mut totals = [0u64; 4];
        let notifiers: Vec<Vec<Bump>> = (0..2 + next(5))
            .map(|_| {
                (0..4 + next(12))
                    .map(|_| {
                        let flag = next(4) as usize;
                        totals[flag] += 1;
                        (BUSY[next(4) as usize], flag)
                    })
                    .collect()
            })
            .collect();
        let waiters = (0..2 + next(9))
            .map(|_| {
                (0..1 + next(5))
                    .filter_map(|_| {
                        let flag = next(4) as usize;
                        (totals[flag] > 0).then(|| {
                            (
                                flag,
                                1 + next(totals[flag]),
                                RETRY[next(4) as usize],
                                BUSY[next(4) as usize],
                            )
                        })
                    })
                    .collect()
            })
            .collect();
        Script {
            notifiers,
            waiters,
            notifiers_first: next(2) == 0,
        }
    }

    struct Notifiers(Arc<World>, Vec<Vec<Bump>>);
    struct Notifier(Arc<World>, Vec<Bump>, usize);

    impl KernelFactory for Notifiers {
        fn create_warp(&self, block: u32, _warp: u32) -> Box<dyn WarpKernel> {
            Box::new(Notifier(
                Arc::clone(&self.0),
                self.1[block as usize].clone(),
                0,
            ))
        }
    }

    impl WarpKernel for Notifier {
        fn step(&mut self, _ctx: &WarpCtx) -> WarpStep {
            let Some(&(busy, flag)) = self.1.get(self.2) else {
                return WarpStep::Done;
            };
            self.2 += 1;
            self.0.flags[flag].fetch_add(1, Ordering::SeqCst);
            self.0.watchers[flag].notify_all();
            WarpStep::Busy(Cycles(busy))
        }
    }

    struct Waiters(Arc<World>, Vec<Vec<WaitFor>>);
    struct Waiter {
        world: Arc<World>,
        waits: Vec<WaitFor>,
        at: usize,
        id: u32,
        sleeper: SleeperId,
    }

    impl KernelFactory for Waiters {
        fn create_warp(&self, block: u32, _warp: u32) -> Box<dyn WarpKernel> {
            Box::new(Waiter {
                world: Arc::clone(&self.0),
                waits: self.1[block as usize].clone(),
                at: 0,
                id: block,
                // Registered in `run`, in block order.
                sleeper: SleeperId(block),
            })
        }
    }

    impl WarpKernel for Waiter {
        fn step(&mut self, ctx: &WarpCtx) -> WarpStep {
            let Some(&(flag, target, retry, busy)) = self.waits.get(self.at) else {
                return WarpStep::Done;
            };
            let world = &self.world;
            if world.flags[flag].load(Ordering::SeqCst) >= target {
                self.at += 1;
                world.log.lock().unwrap().push((ctx.now.raw(), self.id));
                return WarpStep::Busy(Cycles(busy));
            }
            // A pure poll: one count, nothing else.
            world.polls[self.sleeper.0 as usize].fetch_add(1, Ordering::Relaxed);
            world.watchers[flag].watch(&world.hub, self.sleeper);
            WarpStep::Stall {
                retry_after: Cycles(retry),
                wait: Wait::parked(WaitReason::Barrier, self.sleeper),
            }
        }
    }

    pub fn run(script: &Script, sched: EngineSched) -> (ExecutionReport, Arc<World>) {
        let hub = WakeHub::new();
        let world = Arc::new(World {
            hub: Arc::clone(&hub),
            flags: (0..4).map(|_| AtomicU64::new(0)).collect(),
            watchers: (0..4).map(|_| WatchList::new()).collect(),
            polls: script.waiters.iter().map(|_| AtomicU64::new(0)).collect(),
            log: Mutex::new(Vec::new()),
        });
        for _ in &script.waiters {
            hub.register();
        }
        let mut engine = Engine::new(GpuConfig::tiny(3));
        engine.set_scheduler(sched);
        engine.set_wake_hub(hub);
        let launch = |n: usize| LaunchConfig::new(n as u32, 32).with_registers(16);
        let notifiers = Box::new(Notifiers(Arc::clone(&world), script.notifiers.clone()));
        let waiters = Box::new(Waiters(Arc::clone(&world), script.waiters.clone()));
        if script.notifiers_first {
            engine.launch(launch(script.notifiers.len()), notifiers);
            engine.launch(launch(script.waiters.len()), waiters);
        } else {
            engine.launch(launch(script.waiters.len()), waiters);
            engine.launch(launch(script.notifiers.len()), notifiers);
        }
        (engine.run(), world)
    }
}

fn synthetic_differential(seed: u64) {
    let script = synthetic::script(seed);
    let view = |sched| {
        let (report, world) = synthetic::run(&script, sched);
        assert!(!report.deadlocked, "seed {seed}");
        // The times: busy / stall cycles, completions, when each wait ended.
        let times: Vec<_> = report
            .kernels
            .iter()
            .map(|k| (k.busy_cycles, k.stall_cycles, k.completed_at))
            .collect();
        let log = world.log.lock().unwrap().clone();
        // The poll counts: steps per kernel, polls per waiter.
        let made = world.polls.iter();
        let polls = (report.kernels.iter().map(|k| k.steps))
            .chain(made.map(|p| p.load(std::sync::atomic::Ordering::Relaxed)))
            .collect();
        ((report.elapsed, times, log), polls)
    };
    let parked = view(EngineSched::EventQueue);
    let polled = view(EngineSched::FullScan);
    assert_counts(format_args!("seed {seed}"), parked, polled);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 512 }))]

    #[test]
    fn parked_and_polled_synthetic_waits_are_indistinguishable(seed in any::<u64>()) {
        synthetic_differential(seed);
    }
}

// ---------------------------------------------------------------------------
// Counting queues, on a bare engine
// ---------------------------------------------------------------------------

/// Takers of a counted resource asleep in the hub's counting queue, and
/// releasers freeing units and granting them, with round busy times and one
/// shared retry interval — so that a grant lands *exactly* on a waiter's grid
/// point, before or after the granting warp in `(sm, slot)` order, all the
/// time. A release may also poke a taker (a request of its own completing),
/// which it reaps at its next poll while it waits for units, as the raw
/// replay warp does; and a taker that got some units but not all it wants
/// is busy with them and then tries again, as the replay warp is after a
/// step that issued some of its ops.
mod synthetic_queue {
    use agile_repro::gpu::{
        Engine, EngineSched, ExecutionReport, GpuConfig, KernelFactory, LaunchConfig, WarpCtx,
        WarpKernel, WarpStep,
    };
    use agile_repro::sim::wake::{SleeperId, Wait, WaitQueue, WaitReason, WakeHub, WatchList};
    use agile_repro::sim::Cycles;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    /// The interval every taker retries at.
    const RETRY: Cycles = Cycles(200);

    pub struct World {
        hub: Arc<WakeHub>,
        queue: WaitQueue,
        /// Units free to take.
        free: AtomicU64,
        /// Per taker: how often a release poked it, and who watches that.
        pokes: Vec<AtomicU64>,
        watchers: Vec<WatchList>,
        /// Polls each taker made that took nothing and reaped nothing.
        pub polls: Vec<AtomicU64>,
        /// `(time, taker, units held or pokes reaped)` of everything a taker
        /// did, in step order.
        pub log: Mutex<Vec<(u64, u32, u64)>>,
    }

    /// One release: stay busy this long, then free this many units and poke
    /// this taker, if any.
    type Release = (u64, u32, Option<usize>);
    /// One take: this many units, each costing this much work.
    type Take = (u32, u64);

    pub struct Script {
        pub releasers: Vec<Vec<Release>>,
        pub takers: Vec<Vec<Take>>,
        pub releasers_first: bool,
    }

    /// A script from `seed`: up to 5 releaser and 10 taker warps, takers
    /// wanting no more units than are released.
    pub fn script(seed: u64) -> Script {
        let mut state = seed | 1;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        const BUSY: [u64; 4] = [100, 200, 300, 600];
        let takers = 2 + next(9) as usize;
        let mut released = 0u64;
        let releasers: Vec<Vec<Release>> = (0..1 + next(5))
            .map(|_| {
                (0..4 + next(16))
                    .map(|_| {
                        let units = 1 + next(3) as u32;
                        released += units as u64;
                        let poke = (next(3) == 0).then(|| next(takers as u64) as usize);
                        (BUSY[next(4) as usize], units, poke)
                    })
                    .collect()
            })
            .collect();
        let mut wanted = 0u64;
        let takers = (0..takers)
            .map(|_| {
                (0..1 + next(4))
                    .map_while(|_| {
                        let units = 1 + next(3) as u32;
                        wanted += units as u64;
                        (wanted <= released).then(|| (units, BUSY[next(4) as usize]))
                    })
                    .collect()
            })
            .collect();
        Script {
            releasers,
            takers,
            releasers_first: next(2) == 0,
        }
    }

    struct Releasers(Arc<World>, Vec<Vec<Release>>);
    struct Releaser(Arc<World>, Vec<Release>, usize);

    impl KernelFactory for Releasers {
        fn create_warp(&self, block: u32, _warp: u32) -> Box<dyn WarpKernel> {
            Box::new(Releaser(
                Arc::clone(&self.0),
                self.1[block as usize].clone(),
                0,
            ))
        }
    }

    impl WarpKernel for Releaser {
        fn step(&mut self, _ctx: &WarpCtx) -> WarpStep {
            let Some(&(busy, units, poke)) = self.1.get(self.2) else {
                return WarpStep::Done;
            };
            self.2 += 1;
            let world = &self.0;
            world.free.fetch_add(units as u64, Ordering::SeqCst);
            world.hub.grant(&world.queue, units);
            if let Some(taker) = poke {
                world.pokes[taker].fetch_add(1, Ordering::SeqCst);
                world.watchers[taker].notify_all();
            }
            WarpStep::Busy(Cycles(busy))
        }
    }

    struct Takers(Arc<World>, Vec<Vec<Take>>);
    struct Taker {
        world: Arc<World>,
        takes: Vec<Take>,
        at: usize,
        /// Units of the current take held so far.
        held: u32,
        /// Pokes reaped so far.
        reaped: u64,
        id: u32,
        sleeper: SleeperId,
    }

    impl KernelFactory for Takers {
        fn create_warp(&self, block: u32, _warp: u32) -> Box<dyn WarpKernel> {
            Box::new(Taker {
                world: Arc::clone(&self.0),
                takes: self.1[block as usize].clone(),
                at: 0,
                held: 0,
                reaped: 0,
                id: block,
                // Registered in `run`, in block order.
                sleeper: SleeperId(block),
            })
        }
    }

    impl WarpKernel for Taker {
        fn step(&mut self, ctx: &WarpCtx) -> WarpStep {
            let world = Arc::clone(&self.world);
            let log = |what: u64| {
                let entry = (ctx.now.raw(), self.id, what);
                world.log.lock().unwrap().push(entry);
            };
            let pokes = world.pokes[self.id as usize].load(Ordering::SeqCst);
            let reaped = pokes > self.reaped;
            if reaped {
                self.reaped = pokes;
                log(1_000 + pokes);
            }
            let Some(&(want, busy)) = self.takes.get(self.at) else {
                return WarpStep::Done;
            };
            let mut work = Cycles::ZERO;
            while self.held < want && world.free.load(Ordering::SeqCst) > 0 {
                world.free.fetch_sub(1, Ordering::SeqCst);
                self.held += 1;
                work += Cycles(busy);
                log(self.held as u64);
            }
            if self.held == want {
                (self.at, self.held) = (self.at + 1, 0);
                return WarpStep::Busy(work.max(Cycles(1)));
            }
            if work > Cycles::ZERO {
                return WarpStep::Busy(work);
            }
            if !reaped {
                // A pure poll: one count, nothing else.
                world.polls[self.id as usize].fetch_add(1, Ordering::Relaxed);
            }
            world.watchers[self.id as usize].watch(&world.hub, self.sleeper);
            WarpStep::Stall {
                retry_after: RETRY,
                wait: Wait::parked(WaitReason::Submit, self.sleeper).queued(world.queue.id()),
            }
        }
    }

    pub fn run(script: &Script, sched: EngineSched) -> (ExecutionReport, Arc<World>) {
        let hub = WakeHub::new();
        let takers = script.takers.len();
        let world = Arc::new(World {
            queue: hub.register_queue(),
            hub: Arc::clone(&hub),
            free: AtomicU64::new(0),
            pokes: (0..takers).map(|_| AtomicU64::new(0)).collect(),
            watchers: (0..takers).map(|_| WatchList::new()).collect(),
            polls: (0..takers).map(|_| AtomicU64::new(0)).collect(),
            log: Mutex::new(Vec::new()),
        });
        for _ in 0..takers {
            hub.register();
        }
        let mut engine = Engine::new(GpuConfig::tiny(3));
        engine.set_scheduler(sched);
        engine.set_wake_hub(hub);
        let launch = |n: usize| LaunchConfig::new(n as u32, 32).with_registers(16);
        let releasers = Box::new(Releasers(Arc::clone(&world), script.releasers.clone()));
        let takers = Box::new(Takers(Arc::clone(&world), script.takers.clone()));
        if script.releasers_first {
            engine.launch(launch(script.releasers.len()), releasers);
            engine.launch(launch(script.takers.len()), takers);
        } else {
            engine.launch(launch(script.takers.len()), takers);
            engine.launch(launch(script.releasers.len()), releasers);
        }
        (engine.run(), world)
    }
}

fn synthetic_queue_differential(seed: u64) {
    let script = synthetic_queue::script(seed);
    let view = |sched| {
        let (report, world) = synthetic_queue::run(&script, sched);
        assert!(!report.deadlocked, "seed {seed}");
        let times: Vec<_> = report
            .kernels
            .iter()
            .map(|k| (k.busy_cycles, k.stall_cycles, k.completed_at))
            .collect();
        let log = world.log.lock().unwrap().clone();
        let made = world.polls.iter();
        let polls = (report.kernels.iter().map(|k| k.steps))
            .chain(made.map(|p| p.load(std::sync::atomic::Ordering::Relaxed)))
            .collect();
        ((report.elapsed, times, log), polls)
    };
    let parked = view(EngineSched::EventQueue);
    let polled = view(EngineSched::FullScan);
    assert_counts(format_args!("queue seed {seed}"), parked, polled);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 512 }))]

    #[test]
    fn parked_and_polled_queue_waits_are_indistinguishable(seed in any::<u64>()) {
        synthetic_queue_differential(seed);
    }
}

/// The scripts really put takers to sleep in the queue (so a green queue
/// differential means something): empty polls are skipped.
#[test]
fn queue_scripts_park_their_takers() {
    let polls = |sched| -> u64 {
        (0..32)
            .map(|seed| {
                let (_, world) = synthetic_queue::run(&synthetic_queue::script(seed), sched);
                let polls = world.polls.iter();
                polls
                    .map(|p| p.load(std::sync::atomic::Ordering::Relaxed))
                    .sum::<u64>()
            })
            .sum()
    };
    let (parked, polled) = (polls(EngineSched::EventQueue), polls(EngineSched::FullScan));
    assert!(
        parked < polled,
        "{parked} empty polls parked vs {polled} polled"
    );
}
