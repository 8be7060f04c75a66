//! Windowed time-series sampling driven by the *simulated* clock.
//!
//! The sampler is an observer: the host's engine calls
//! [`WindowedSampler::observe`] with the current simulated time through a
//! bridge device whose only event is the next window boundary
//! ([`WindowedSampler::next_boundary`]), so the engine schedules a round
//! exactly there. Whenever the clock reaches a window boundary the registry
//! is snapshotted and the delta against the previous snapshot becomes that
//! window's [`WindowSample`]: counters become per-window increments,
//! histograms become the window's latency distribution (p50/p95/p99 via
//! bucket deltas), gauges keep their end-of-window value.
//!
//! A window holds only what changed: a counter that did not move and a
//! histogram that recorded nothing are absent from its deltas (reading as 0
//! and `None`), while every gauge is present. The series is kept for the
//! whole run, so its size is the activity of the run, not windows × metrics.
//!
//! A window therefore holds exactly what happened in `[start, end)` on the
//! simulated clock, whichever scheduler ran the engine and however many
//! rounds it took. A caller that observes late (a hand-driven test, say)
//! still gets one window per boundary crossed, with the activity since the
//! previous observation in the first of them.

use crate::registry::MetricsRegistry;
use crate::snapshot::MetricsSnapshot;
use parking_lot::Mutex;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One window of the time series: the registry delta over
/// `[start, end)` simulated cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSample {
    /// Window index (0-based).
    pub index: u64,
    /// Window start (cycles).
    pub start: u64,
    /// Window end (cycles; `start + window` except for a trailing partial
    /// window flushed at [`WindowedSampler::finish`]).
    pub end: u64,
    /// Registry delta over the window: the counters that moved, the
    /// histograms that recorded, and every gauge's end-of-window value.
    pub deltas: MetricsSnapshot,
}

impl WindowSample {
    /// Per-second rate of counter `name{labels}` over this window.
    pub fn rate(&self, name: &str, labels: crate::Labels, clock_ghz: f64) -> f64 {
        let secs = (self.end - self.start) as f64 / (clock_ghz * 1e9);
        if secs > 0.0 {
            self.deltas.counter(name, labels) as f64 / secs
        } else {
            0.0
        }
    }
}

/// The window width (simulated cycles) used wherever a sampler is created
/// without an explicit one: `HostBuilder::control`'s auto-created sampler
/// and the replay harness's default metrics window.
pub const DEFAULT_WINDOW_CYCLES: u64 = 500_000;

struct SamplerState {
    prev: MetricsSnapshot,
    windows: Vec<WindowSample>,
    finished: bool,
}

/// Snapshots a [`MetricsRegistry`] every `window` simulated cycles,
/// producing a per-window time series.
pub struct WindowedSampler {
    registry: Arc<MetricsRegistry>,
    window: u64,
    /// Next boundary, readable without the state lock: the per-round fast
    /// path is one relaxed load and a compare.
    next_boundary: AtomicU64,
    state: Mutex<SamplerState>,
}

impl WindowedSampler {
    /// A sampler over `registry` with `window_cycles`-wide windows.
    pub fn new(registry: Arc<MetricsRegistry>, window_cycles: u64) -> Arc<Self> {
        let window = window_cycles.max(1);
        Arc::new(WindowedSampler {
            registry,
            window,
            next_boundary: AtomicU64::new(window),
            state: Mutex::new(SamplerState {
                prev: MetricsSnapshot::default(),
                windows: Vec::new(),
                finished: false,
            }),
        })
    }

    /// Window width in cycles.
    pub fn window_cycles(&self) -> u64 {
        self.window
    }

    /// The simulated time at which the next window closes: the first
    /// [`WindowedSampler::observe`] at or after it emits that window.
    pub fn next_boundary(&self) -> u64 {
        self.next_boundary.load(Ordering::Relaxed)
    }

    /// Observe the simulated clock at `now` cycles; emits one window per
    /// boundary crossed since the last call. Cheap when no boundary was
    /// crossed (one relaxed atomic load).
    pub fn observe(&self, now: u64) {
        if now < self.next_boundary.load(Ordering::Relaxed) {
            return;
        }
        let mut state = self.state.lock();
        if state.finished {
            return;
        }
        let mut boundary = self.next_boundary.load(Ordering::Relaxed);
        while now >= boundary {
            let snap = self.registry.snapshot();
            let deltas = snap.delta_since(&state.prev);
            state.prev = snap;
            state.windows.push(WindowSample {
                index: boundary / self.window - 1,
                start: boundary - self.window,
                end: boundary,
                deltas,
            });
            boundary += self.window;
        }
        self.next_boundary.store(boundary, Ordering::Relaxed);
    }

    /// Flush the trailing partial window `[last boundary, now)` (if any
    /// time elapsed past the last emitted boundary) and stop sampling.
    pub fn finish(&self, now: u64) {
        self.observe(now);
        let mut state = self.state.lock();
        if state.finished {
            return;
        }
        state.finished = true;
        let boundary = self.next_boundary.load(Ordering::Relaxed);
        let start = boundary - self.window;
        if now > start {
            let snap = self.registry.snapshot();
            let deltas = snap.delta_since(&state.prev);
            state.prev = snap;
            state.windows.push(WindowSample {
                index: boundary / self.window - 1,
                start,
                end: now,
                deltas,
            });
        }
    }

    /// The emitted windows so far, in time order.
    pub fn windows(&self) -> Vec<WindowSample> {
        self.state.lock().windows.clone()
    }

    /// Number of windows emitted so far (cheap: no cloning).
    pub fn window_count(&self) -> usize {
        self.state.lock().windows.len()
    }

    /// The emitted windows from index `start` onward, in time order — the
    /// incremental consumer API: remember how many windows you have seen and
    /// ask only for the tail, instead of cloning the whole series each poll.
    pub fn windows_from(&self, start: usize) -> Vec<WindowSample> {
        let state = self.state.lock();
        if start >= state.windows.len() {
            return Vec::new();
        }
        state.windows[start..].to_vec()
    }
}

/// Serialize a window series as a JSON array (each entry: window bounds plus
/// the delta snapshot in [`MetricsSnapshot::to_json`]'s sample format).
pub fn windows_to_json(windows: &[WindowSample]) -> String {
    let mut out = String::from("[");
    for (i, w) in windows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let samples = w.deltas.to_json();
        let _ = write!(
            out,
            "{{\"index\":{},\"start\":{},\"end\":{},\"deltas\":{}}}",
            w.index, w.start, w.end, samples
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Labels;

    #[test]
    fn windows_split_counter_increments() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("agile_test_total", Labels::NONE);
        let sampler = WindowedSampler::new(Arc::clone(&reg), 100);
        c.add(3);
        sampler.observe(40); // no boundary yet
        c.add(4);
        sampler.observe(110); // window 0 closes with all 7
        c.add(5);
        sampler.observe(330); // windows 1..3 close; only window at [200,300) is skipped over
        sampler.finish(350);
        let w = sampler.windows();
        assert_eq!(w.len(), 4);
        assert_eq!(w[0].deltas.counter("agile_test_total", Labels::NONE), 7);
        // The boundary at 200 and 300 were crossed in one observe: the first
        // crossed window absorbs the activity, the next is empty.
        assert_eq!(w[1].deltas.counter("agile_test_total", Labels::NONE), 5);
        assert_eq!(w[2].deltas.counter("agile_test_total", Labels::NONE), 0);
        assert_eq!((w[3].start, w[3].end), (300, 350));
    }

    #[test]
    fn finish_is_idempotent_and_stops_sampling() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("agile_test_total", Labels::NONE);
        let sampler = WindowedSampler::new(Arc::clone(&reg), 100);
        c.inc();
        sampler.finish(50);
        let n = sampler.windows().len();
        c.inc();
        sampler.observe(500);
        sampler.finish(500);
        assert_eq!(sampler.windows().len(), n);
    }
}
