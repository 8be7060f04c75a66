//! Parked vs polled: the differential that pins warp parking.
//!
//! `EngineSched::EventQueue` keeps a warp whose stall is parkable off the
//! ready queue until the event that ends its wait and wakes it on its own
//! retry grid; `EngineSched::FullScan` never parks and really makes every
//! one of those polls. The rule is *times are simulated, counts are
//! executed*: the two must agree on every simulated time — report,
//! latencies, stall cycles — and on every counter that is not a poll count,
//! while the poll counts (`IoStats::{read_calls, warp_coalesced,
//! cache_coalesced, cache_cycles, io_cycles}`, `CacheStats::busy_hits`,
//! `ServiceStats::idle_rounds`, `KernelReport::steps`) of the parked run may
//! only be lower. With a recording sink installed the captures are the same
//! *multiset* of events apart from `CacheBusy` records, and the parked run's
//! `CacheBusy` records are a sub-multiset of the polled run's.
//!
//! The cases are random replays shaped to reach the hard paths: a raw replay
//! with a small window over one short SQ (window-full and drain waits,
//! SQ-full retries), a cached replay with 50 % writes over 8× the cache and
//! 32 SQ slots for 32 warps (blocked stores, `abort_fill`,
//! `reinstate_victim`), a tenant-partitioned cached replay, and an accessor
//! kernel (the CTC micro-benchmark) whose retry interval depends on what the
//! attempt cost. A failure prints the case, which reproduces it.
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

use agile_repro::agile::{AgileConfig, IoStats, ServiceStats};
use agile_repro::bam::HostBuilder;
use agile_repro::cache::CacheStats;
use agile_repro::gpu::{EngineSched, GpuConfig, LaunchConfig};
use agile_repro::sim::{TraceEvent, TraceEventKind};
use agile_repro::trace::{AddressPattern, MemorySink, TenantSpec, TraceSpec};
use agile_repro::workloads::experiments::trace_replay::{
    run_trace_replay_with_sink, ReplayConfig, ReplayReport, ReplaySystem,
};
use agile_repro::workloads::microbench::{MicrobenchKernel, MicrobenchParams};
use proptest::prelude::*;
use std::fmt::Debug;
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

/// A parked and a polled capture: the same multiset apart from `CacheBusy`
/// records, of which the parked run's are a sub-multiset of the polled run's.
fn assert_captures(case: impl Debug, parked: Vec<EventKey>, polled: Vec<EventKey>) {
    let busy = |k: &EventKey| k.1 == TraceEventKind::CacheBusy as u8;
    let split =
        |keys: Vec<EventKey>| -> (Vec<_>, Vec<_>) { sorted(keys).into_iter().partition(busy) };
    let ((parked_busy, parked_rest), (polled_busy, polled_rest)) = (split(parked), split(polled));
    assert!(
        parked_rest == polled_rest,
        "{case:?}: the captures differ beyond CacheBusy"
    );
    // Both sorted: each parked record must be found, in order, in the rest
    // of the polled ones.
    let mut polled_busy = polled_busy.iter();
    assert!(
        parked_busy.iter().all(|k| polled_busy.any(|p| p == k)),
        "{case:?}: a parked CacheBusy record the polled run does not have"
    );
}

/// `stats` with its poll counts zeroed, and those counts.
fn io_polls(s: &IoStats) -> (IoStats, Vec<u64>) {
    let polls = vec![
        s.read_calls,
        s.warp_coalesced,
        s.cache_coalesced,
        s.cache_cycles,
        s.io_cycles,
    ];
    let rest = IoStats {
        read_calls: 0,
        warp_coalesced: 0,
        cache_coalesced: 0,
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
        ..s.clone()
    };
    (rest, vec![s.busy_hits])
}

/// The same for the service partitions'.
fn service_polls(parts: &[ServiceStats]) -> (Vec<ServiceStats>, Vec<u64>) {
    let rest = parts
        .iter()
        .map(|s| ServiceStats {
            idle_rounds: 0,
            ..s.clone()
        })
        .collect();
    (rest, parts.iter().map(|s| s.idle_rounds).collect())
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
    Case {
        shape: [Shape::Raw, Shape::CachedWriteMix, Shape::CachedTenants][pick as usize % 3],
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
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 8 } else { 96 }))]

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

    let writemix = Case {
        shape: Shape::CachedWriteMix,
        seed: 12,
        ops: 768,
        sink: true,
    };
    differential(writemix);
    let (report, events) = replay(writemix, EngineSched::EventQueue);
    let io = &report.io_stats;
    assert!(io.writebacks > 0, "dirty victims are written back");
    assert!(io.sq_full_retries > 0, "fills and write-backs are refused");
    assert!(report.cache_stats.busy_hits > 0, "waits on fills in flight");
    assert!(
        report.service_stats[0].idle_rounds > 0,
        "the service sweeps idle"
    );
    assert!(!events.is_empty());
}

/// An accessor kernel: its retry interval is `hint.max(cost)`, so it may only
/// sleep from an attempt that cost what the retries will.
#[test]
fn parked_and_polled_accessor_kernels_are_indistinguishable() {
    let run = |sched: EngineSched, asynchronous: bool| {
        let sink = Arc::new(MemorySink::new());
        let config = AgileConfig::small_test()
            .with_queue_pairs(4)
            .with_queue_depth(64);
        let mut host = HostBuilder::agile(config)
            .gpu(GpuConfig::tiny(4))
            .devices(2, 1 << 16)
            .engine_sched(sched)
            .trace_sink(sink.clone() as Arc<_>)
            .build();
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
        let kernel = &report.kernels[1];
        (
            (report.elapsed, kernel.stall_cycles),
            kernel.steps,
            (
                io_polls(&ctrl.io().stats()),
                cache_polls(&ctrl.cache().stats()),
                service_polls(&host.service_set().partition_stats()),
            ),
            report.rounds,
            keys(&sink.take_events()),
        )
    };
    for asynchronous in [false, true] {
        let parked = run(EngineSched::EventQueue, asynchronous);
        let polled = run(EngineSched::FullScan, asynchronous);
        assert_eq!(parked.0, polled.0, "elapsed and stall cycles");
        assert!(parked.1 < polled.1, "steps count what ran");
        let ((io, cache, service), polled_counts) = (parked.2, polled.2);
        assert_counts(asynchronous, io, polled_counts.0);
        assert_counts(asynchronous, cache, polled_counts.1);
        assert_counts(asynchronous, service, polled_counts.2);
        assert!(parked.3 < polled.3, "nothing was parked?");
        assert_captures(asynchronous, parked.4, polled.4);
    }
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
