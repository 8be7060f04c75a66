//! The seven workloads. Each one generates its input from the seed, builds a
//! started host through the public API (`HostBuilder` and friends) and hands
//! back a [`Prepared`] run: everything `prepare` does is *set-up*, everything
//! `run` does before it returns is the measured *run phase* (`run_kernel`
//! only — output checks happen after the clock stops).
//!
//! Every workload is a closed loop: a fixed set of warps, each with a bounded
//! window of operations outstanding, the next one issued when a slot frees.

mod ctc;
mod dlrm;
mod graph;
mod replay;

use crate::decorate::SpanLog;
use agile_repro::bam::{HostBuilder, HostSystem};
use agile_repro::gpu::{GpuConfig, KernelFactory};
use agile_repro::metrics::{MetricsRegistry, WindowedSampler};
use agile_repro::trace::MemorySink;
use std::sync::Arc;

/// Input size: the committed sizes, or ≤ 4 096 operations under `--smoke`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    /// `full` at the committed scale, `smoke` under `--smoke`.
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// Which system runs the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The system under test: AGILE in its asynchronous mode.
    Primary,
    /// The denominator of `sim_speedup` (see [`Workload::baseline`]).
    Baseline,
}

/// Sampler window (simulated cycles) of every instrumented run. Fixed, so
/// `replay_fullstack_shift` — whose controller consumes the windows — makes
/// the same decisions in its measured and its traced run.
pub const METRICS_WINDOW_CYCLES: u64 = 100_000;

/// What the traced run adds on top of the measured configuration: a metrics
/// registry wired through the host, an event-log sink, and the span log the
/// decorators feed.
pub struct Instruments {
    pub registry: Arc<MetricsRegistry>,
    pub sampler: Arc<WindowedSampler>,
    pub sink: Arc<MemorySink>,
    pub spans: Arc<SpanLog>,
}

impl Instruments {
    pub fn new() -> Self {
        let registry = MetricsRegistry::new();
        Instruments {
            sampler: WindowedSampler::new(Arc::clone(&registry), METRICS_WINDOW_CYCLES),
            registry,
            sink: Arc::new(MemorySink::new()),
            spans: SpanLog::new(),
        }
    }
}

impl Default for Instruments {
    fn default() -> Self {
        Self::new()
    }
}

/// Wire the traced run's registry, sampler and event sink into `builder`.
fn instrument<S: HostSystem>(
    builder: HostBuilder<S>,
    instr: Option<&Instruments>,
) -> HostBuilder<S> {
    match instr {
        Some(i) => builder
            .metrics(Arc::clone(&i.registry))
            .metrics_sampler(Arc::clone(&i.sampler))
            .trace_sink(i.sink.clone()),
        None => builder,
    }
}

/// Wrap `factory` in the timing decorator when the run is instrumented.
fn decorate(
    factory: Box<dyn KernelFactory>,
    instr: Option<&Instruments>,
) -> Box<dyn KernelFactory> {
    match instr {
        Some(i) => crate::decorate::TimedFactory::wrap(factory, &i.spans),
        None => factory,
    }
}

/// Run `f` (the `run_kernel` call) under a `run_kernel` span when
/// instrumented, and return its result with the host ns it took.
fn timed_run<T>(spans: Option<&Arc<SpanLog>>, f: impl FnOnce() -> T) -> (T, u64) {
    let start = std::time::Instant::now();
    let out = match spans {
        Some(log) => log.run_kernel(f),
        None => f(),
    };
    (out, start.elapsed().as_nanos() as u64)
}

/// Result of one run phase.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations the input asks for (fixed by the input).
    pub ops: u64,
    /// Operations that completed *and* passed the output check.
    pub verified: u64,
    /// Simulated elapsed cycles.
    pub sim_cycles: u64,
    /// Simulated clock when the run ended (closes the last sampler window).
    pub sim_end: u64,
    /// Host ns inside `run_kernel`.
    pub host_run_ns: u64,
    /// Engine scheduling rounds.
    pub rounds: u64,
    /// Kernel launches (1 except on the graph workload).
    pub launches: u64,
    /// SSDs of the host.
    pub devices: u64,
    /// Median / p99 per-op latency in simulated µs (`replay_*` only).
    pub latency_us: Option<(f64, f64)>,
    /// p99 of tenant 1 in simulated µs (`replay_fullstack_shift` only).
    pub victim_p99_us: Option<f64>,
}

impl Outcome {
    /// Simulated elapsed seconds.
    pub fn sim_secs(&self) -> f64 {
        cycles_to_us(self.sim_cycles) / 1e6
    }

    /// Operations per simulated second.
    pub fn sim_iops(&self) -> f64 {
        self.ops as f64 / self.sim_secs()
    }

    /// Every simulated number of the run, as one comparable string: two runs
    /// of the same input must produce the same fingerprint.
    pub fn sim_fingerprint(&self) -> String {
        format!(
            "ops={} verified={} cycles={} rounds={} launches={} latency={:?} victim={:?}",
            self.ops,
            self.verified,
            self.sim_cycles,
            self.rounds,
            self.launches,
            self.latency_us,
            self.victim_p99_us
        )
    }
}

/// A host that is built, started and loaded: only `run_kernel` is left.
pub trait Prepared {
    /// Run the kernel(s), then check the outputs.
    fn run(self: Box<Self>) -> Outcome;
}

/// One named workload.
pub trait Workload: Sync {
    fn name(&self) -> &'static str;

    /// One line: why the benchmark has this workload.
    fn why(&self) -> &'static str;

    /// What `sim_speedup` divides by on this workload.
    fn baseline(&self) -> &'static str;

    /// The paper's value of `sim_speedup`, where the repository holds one.
    fn paper_speedup(&self) -> Option<f64> {
        None
    }

    /// Whether the simulated caches start empty or prewarmed.
    fn cache_start(&self) -> &'static str;

    /// Generate the input from `seed` and build the host for `side`.
    fn prepare(
        &self,
        seed: u64,
        scale: Scale,
        side: Side,
        instr: Option<&Instruments>,
    ) -> Box<dyn Prepared>;

    /// Layer metrics that need runs of their own (traced mode only);
    /// `primary` and `baseline` are the outcomes already measured.
    fn extra_layer_metrics(
        &self,
        _seed: u64,
        _scale: Scale,
        _primary: &Outcome,
        _baseline: &Outcome,
    ) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// The GPU every workload runs on (the paper's RTX 5000 Ada).
fn gpu() -> GpuConfig {
    agile_repro::workloads::experiments::testbed::experiment_gpu()
}

/// Simulated cycles → microseconds at that GPU's clock.
pub fn cycles_to_us(cycles: u64) -> f64 {
    cycles as f64 / (gpu().clock_ghz * 1_000.0)
}

/// All workloads, in the order of `BENCHMARK.json`.
pub fn all() -> [&'static dyn Workload; 7] {
    [
        &replay::RAW_LARGE,
        &replay::CACHED_ZIPF,
        &replay::CACHED_WRITEMIX,
        &replay::FULLSTACK_SHIFT,
        &dlrm::DlrmBatch16,
        &ctc::CtcOverlap,
        &graph::GraphBfsKron,
    ]
}

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static dyn Workload> {
    all().into_iter().find(|w| w.name() == name)
}
