//! Minimal `criterion`-compatible benchmark harness.
//!
//! Implements exactly the API slice the workspace's micro-benchmarks use —
//! [`Criterion::bench_function`], [`Bencher::iter`], [`black_box`], and the
//! [`criterion_group!`] / [`criterion_main!`] macros — with a simple
//! calibrate-then-measure wall-clock loop instead of criterion's statistics
//! engine. Honors `AGILE_BENCH_QUICK=1` by shrinking the measurement window.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

/// Opaque value barrier preventing the optimizer from deleting benchmark work.
#[inline]
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// Per-benchmark measurement driver handed to the closure of
/// [`Criterion::bench_function`].
pub struct Bencher {
    /// Measured mean nanoseconds per iteration, filled by [`Bencher::iter`].
    mean_ns: f64,
    /// Total iterations executed in the measurement phase.
    iters: u64,
    target: Duration,
}

impl Bencher {
    /// Run `f` repeatedly: a short calibration phase sizes the batch, then a
    /// timed phase measures the mean cost per iteration.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Calibrate: how many iterations fit in ~1/10th of the target window?
        let calib_window = self.target / 10;
        let start = Instant::now();
        let mut calib_iters = 0u64;
        while start.elapsed() < calib_window {
            black_box(f());
            calib_iters += 1;
        }
        let batch = calib_iters.max(1);

        // Measure whole batches until the target window elapses.
        let mut total_iters = 0u64;
        let measure_start = Instant::now();
        loop {
            for _ in 0..batch {
                black_box(f());
            }
            total_iters += batch;
            if measure_start.elapsed() >= self.target {
                break;
            }
        }
        let elapsed = measure_start.elapsed();
        self.mean_ns = elapsed.as_nanos() as f64 / total_iters as f64;
        self.iters = total_iters;
    }
}

/// Benchmark registry/driver with the `criterion::Criterion` API.
pub struct Criterion {
    target: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        let quick = std::env::var("AGILE_BENCH_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false);
        Criterion {
            target: if quick {
                Duration::from_millis(50)
            } else {
                Duration::from_millis(400)
            },
        }
    }
}

impl Criterion {
    /// Run one named benchmark and print its mean time per iteration.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher {
            mean_ns: 0.0,
            iters: 0,
            target: self.target,
        };
        f(&mut b);
        println!(
            "bench {name:<32} {:>12.1} ns/iter  ({} iters)",
            b.mean_ns, b.iters
        );
        self
    }
}

/// Collect benchmark functions into a named group runner, like criterion's.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Emit a `main` that runs the listed groups (used with `harness = false`).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
