//! Outside-in instrumentation for the traced run: timing/counting decorators
//! around the `KernelFactory` / `WarpKernel` (and, on the graph workload, the
//! `PageAccessor`) the benchmark hands to `run_kernel`, plus the in-memory log
//! of host-time spans they feed.
//!
//! Nothing here touches the program under test: the decorators forward every
//! call unchanged and only read the host clock around it, so a decorated run
//! simulates exactly what an undecorated one does (unit-tested below).
//!
//! Span tree: `workload` → `setup` | `run_kernel` → `warp.step` →
//! `accessor.access`. Every step and access is *counted and timed*; only one
//! step in [`SAMPLE_EVERY`] is also *recorded* as a span (with the accesses
//! nested in it), so five million steps do not become five million records.

use crate::json::Json;
use agile_repro::gpu::{KernelFactory, WarpCtx, WarpKernel, WarpStep};
use agile_repro::nvme::Lba;
use agile_repro::sim::Cycles;
use agile_repro::workloads::accessor::{AccessResult, PageAccessor};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One warp step in this many is recorded as a span.
pub const SAMPLE_EVERY: u64 = 64;

/// One closed host-time span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// Id of the span that caused this one (0 for the root).
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Host time covered by child spans. For `run_kernel` this is the total of
    /// *all* its warp steps (counted, not only the sampled ones), so
    /// `self_ns + children_ns == end_ns - start_ns` holds exactly.
    pub children_ns: u64,
}

impl Span {
    /// Duration minus the part of it the child spans cover.
    pub fn self_ns(&self) -> u64 {
        (self.end_ns - self.start_ns).saturating_sub(self.children_ns)
    }
}

/// A span that has been opened and not yet closed.
pub struct OpenSpan {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

impl OpenSpan {
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// In-memory span log plus the running totals of the decorators. Statistics
/// only, so every atomic is `Relaxed`.
pub struct SpanLog {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// Span `run_kernel` spans hang under (the open `workload` span).
    root: AtomicU64,
    /// Span the next warp steps hang under (the open `run_kernel`).
    step_parent: AtomicU64,
    /// Sampled step currently executing (0 = none): parent of accessor spans.
    current_step: AtomicU64,
    /// Decorated steps so far, of any outcome: picks the sampled ones.
    steps: AtomicU64,
    busy_steps: AtomicU64,
    stall_steps: AtomicU64,
    done_steps: AtomicU64,
    step_ns: AtomicU64,
    accessor_calls: AtomicU64,
    accessor_ns: AtomicU64,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            root: AtomicU64::new(0),
            step_parent: AtomicU64::new(0),
            current_step: AtomicU64::new(0),
            steps: AtomicU64::new(0),
            busy_steps: AtomicU64::new(0),
            stall_steps: AtomicU64::new(0),
            done_steps: AtomicU64::new(0),
            step_ns: AtomicU64::new(0),
            accessor_calls: AtomicU64::new(0),
            accessor_ns: AtomicU64::new(0),
        }
    }
}

impl SpanLog {
    pub fn new() -> Arc<Self> {
        Arc::new(SpanLog::default())
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent` (0 = root).
    pub fn open(&self, name: &'static str, parent: u64) -> OpenSpan {
        OpenSpan {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Close a span whose children covered `children_ns`; returns how long
    /// it was open, in ns.
    pub fn close(&self, open: OpenSpan, children_ns: u64) -> u64 {
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
            children_ns,
        };
        let duration = span.end_ns - span.start_ns;
        self.spans
            .lock()
            .expect("span log poisoned: a decorator panicked")
            .push(span);
        duration
    }

    /// Open the root span; later `run_kernel` spans hang under it.
    pub fn open_root(&self, name: &'static str) -> OpenSpan {
        let open = self.open(name, 0);
        self.root.store(open.id, Ordering::Relaxed);
        open
    }

    /// Time `f` as a `run_kernel` span under the root; the warp steps the
    /// decorators see meanwhile become its children.
    pub fn run_kernel<T>(&self, f: impl FnOnce() -> T) -> T {
        let open = self.open("run_kernel", self.root.load(Ordering::Relaxed));
        self.step_parent.store(open.id, Ordering::Relaxed);
        let steps_before = self.step_ns();
        let out = f();
        self.step_parent.store(0, Ordering::Relaxed);
        self.close(open, self.step_ns() - steps_before);
        out
    }

    /// Steps that returned `Busy`, `Stall`, `Done`.
    pub fn step_counts(&self) -> (u64, u64, u64) {
        (
            self.busy_steps.load(Ordering::Relaxed),
            self.stall_steps.load(Ordering::Relaxed),
            self.done_steps.load(Ordering::Relaxed),
        )
    }

    /// Host ns spent inside decorated warp steps.
    pub fn step_ns(&self) -> u64 {
        self.step_ns.load(Ordering::Relaxed)
    }

    /// `(calls, host ns)` of the decorated accessor.
    pub fn accessor_totals(&self) -> (u64, u64) {
        (
            self.accessor_calls.load(Ordering::Relaxed),
            self.accessor_ns.load(Ordering::Relaxed),
        )
    }

    /// Host ns inside `run_kernel` spans, and the share of it their children
    /// (warp steps) cover.
    pub fn run_kernel_totals(&self) -> (u64, u64) {
        let spans = self.spans.lock().expect("span log poisoned");
        spans
            .iter()
            .filter(|s| s.name == "run_kernel")
            .fold((0, 0), |(d, c), s| {
                (d + (s.end_ns - s.start_ns), c + s.children_ns)
            })
    }

    /// A copy of the closed spans, in close order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// The whole log as one JSON document.
    pub fn to_json(&self, workload: &str) -> Json {
        let (busy, stall, done) = self.step_counts();
        let (calls, accessor_ns) = self.accessor_totals();
        let spans = self
            .spans()
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::from(s.id)),
                    ("parent", Json::from(s.parent)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                    ("children_ns", Json::from(s.children_ns)),
                    ("self_ns", Json::from(s.self_ns())),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::str(workload)),
            (
                "clock",
                Json::str("host monotonic, ns since the log was created"),
            ),
            (
                "step_span_sampling",
                Json::str(format!("1 in {SAMPLE_EVERY}")),
            ),
            (
                "totals",
                Json::obj([
                    ("warp_steps_busy", Json::from(busy)),
                    ("warp_steps_stall", Json::from(stall)),
                    ("warp_steps_done", Json::from(done)),
                    ("warp_step_ns", Json::from(self.step_ns())),
                    ("accessor_calls", Json::from(calls)),
                    ("accessor_ns", Json::from(accessor_ns)),
                ]),
            ),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// `KernelFactory` decorator: every warp it creates is a [`TimedWarp`].
pub struct TimedFactory {
    inner: Box<dyn KernelFactory>,
    log: Arc<SpanLog>,
}

impl TimedFactory {
    pub fn wrap(inner: Box<dyn KernelFactory>, log: &Arc<SpanLog>) -> Box<dyn KernelFactory> {
        Box::new(TimedFactory {
            inner,
            log: Arc::clone(log),
        })
    }
}

impl KernelFactory for TimedFactory {
    fn create_warp(&self, block: u32, warp: u32) -> Box<dyn WarpKernel> {
        Box::new(TimedWarp {
            inner: self.inner.create_warp(block, warp),
            log: Arc::clone(&self.log),
        })
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

struct TimedWarp {
    inner: Box<dyn WarpKernel>,
    log: Arc<SpanLog>,
}

impl TimedWarp {
    fn timed(&mut self, step: impl FnOnce(&mut dyn WarpKernel) -> WarpStep) -> WarpStep {
        let log = &self.log;
        let sampled = log
            .steps
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(SAMPLE_EVERY);
        let accessor_before = log.accessor_ns.load(Ordering::Relaxed);
        let open = sampled.then(|| {
            let open = log.open("warp.step", log.step_parent.load(Ordering::Relaxed));
            log.current_step.store(open.id, Ordering::Relaxed);
            open
        });
        let start = Instant::now();
        let outcome = step(self.inner.as_mut());
        let ns = start.elapsed().as_nanos() as u64;
        log.step_ns.fetch_add(ns, Ordering::Relaxed);
        match outcome {
            WarpStep::Busy(_) => &log.busy_steps,
            WarpStep::Stall { .. } => &log.stall_steps,
            WarpStep::Done => &log.done_steps,
        }
        .fetch_add(1, Ordering::Relaxed);
        if let Some(open) = open {
            log.current_step.store(0, Ordering::Relaxed);
            log.close(
                open,
                log.accessor_ns.load(Ordering::Relaxed) - accessor_before,
            );
        }
        outcome
    }
}

impl WarpKernel for TimedWarp {
    fn step(&mut self, ctx: &WarpCtx) -> WarpStep {
        self.timed(|inner| inner.step(ctx))
    }

    fn parallel_capable(&self) -> bool {
        self.inner.parallel_capable()
    }

    fn plan_step(&mut self, ctx: &WarpCtx) -> bool {
        self.inner.plan_step(ctx)
    }

    fn commit_step(&mut self, ctx: &WarpCtx, epoch_clean: bool) -> WarpStep {
        self.timed(|inner| inner.commit_step(ctx, epoch_clean))
    }
}

/// `PageAccessor` decorator: counts and times `access`, forwards the rest.
pub struct TimedAccessor {
    inner: Arc<dyn PageAccessor>,
    log: Arc<SpanLog>,
}

impl TimedAccessor {
    pub fn wrap(inner: Arc<dyn PageAccessor>, log: &Arc<SpanLog>) -> Arc<dyn PageAccessor> {
        Arc::new(TimedAccessor {
            inner,
            log: Arc::clone(log),
        })
    }
}

impl PageAccessor for TimedAccessor {
    fn access(&self, warp: u64, requests: &[(u32, Lba)], now: Cycles) -> AccessResult {
        let parent = self.log.current_step.load(Ordering::Relaxed);
        let open = (parent != 0).then(|| self.log.open("accessor.access", parent));
        let start = Instant::now();
        let result = self.inner.access(warp, requests, now);
        let ns = start.elapsed().as_nanos() as u64;
        self.log.accessor_calls.fetch_add(1, Ordering::Relaxed);
        self.log.accessor_ns.fetch_add(ns, Ordering::Relaxed);
        if let Some(open) = open {
            self.log.close(open, 0);
        }
        result
    }

    fn prefetch(&self, warp: u64, requests: &[(u32, Lba)], now: Cycles) -> Cycles {
        self.inner.prefetch(warp, requests, now)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{by_name, Instruments, Scale, Side};

    /// The house contract of the decorators: a decorated replay simulates
    /// exactly what an undecorated one does.
    #[test]
    fn decorated_replay_matches_undecorated() {
        let workload = by_name("replay_cached_writemix").unwrap();
        let plain = workload.prepare(7, Scale::Smoke, Side::Primary, None).run();
        let instruments = Instruments::new();
        let traced = workload
            .prepare(7, Scale::Smoke, Side::Primary, Some(&instruments))
            .run();
        assert_eq!(plain.sim_fingerprint(), traced.sim_fingerprint());
        let (busy, stall, done) = instruments.spans.step_counts();
        assert!(busy > 0 && done > 0, "decorator saw no steps");
        assert!(instruments.spans.step_ns() > 0);
        let _ = stall;
    }

    #[test]
    fn run_kernel_self_plus_children_is_its_duration() {
        let log = SpanLog::new();
        let root = log.open_root("workload");
        let root_id = root.id();
        log.run_kernel(|| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            log.step_ns.fetch_add(5, Ordering::Relaxed);
        });
        log.close(root, 0);
        let spans = log.spans();
        let rk = spans.iter().find(|s| s.name == "run_kernel").unwrap();
        assert_eq!(rk.parent, root_id);
        assert_eq!(rk.children_ns, 5);
        assert_eq!(rk.self_ns() + rk.children_ns, rk.end_ns - rk.start_ns);
    }
}
