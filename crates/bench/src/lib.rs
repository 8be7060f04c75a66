//! # agile-bench — benchmark harnesses for every figure of the paper
//!
//! The `benches/` directory of this crate contains one `cargo bench` target
//! per table/figure of the AGILE paper (`fig04_ctc_overlap` …
//! `fig12_registers`), each of which re-runs the corresponding experiment
//! from [`agile_workloads::experiments`] and prints the same rows/series the
//! paper reports, plus a Criterion micro-benchmark suite (`micro_ops`) over
//! the library's host-visible hot paths (cache lookups, SQ issue, warp
//! coalescing, Share-Table operations).
//!
//! This library crate only provides small table-formatting helpers shared by
//! the harness binaries; all experiment logic lives in `agile-workloads` so
//! that the integration tests can run scaled-down versions of the same code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fmt::Display;

/// Scale selector for the figure harnesses: set `AGILE_BENCH_QUICK=1` to run
/// the scaled-down (CI-friendly) versions of every figure.
pub fn quick_mode() -> bool {
    std::env::var("AGILE_BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Print a figure header.
pub fn print_header(figure: &str, caption: &str) {
    println!();
    println!("================================================================");
    println!("{figure}: {caption}");
    println!("================================================================");
}

/// Print one row of `(label, value)` pairs as an aligned table row.
pub fn print_row<L: Display, V: Display>(cells: &[(L, V)]) {
    let rendered: Vec<String> = cells.iter().map(|(l, v)| format!("{l}={v}")).collect();
    println!("  {}", rendered.join("  "));
}

/// Render a ratio as a fixed-precision string.
pub fn fmt_ratio(r: f64) -> String {
    format!("{r:.2}x")
}

/// Render gigabytes per second.
pub fn fmt_gbps(v: f64) -> String {
    format!("{v:.2} GB/s")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ratio(1.875), "1.88x");
        assert_eq!(fmt_gbps(3.699), "3.70 GB/s");
    }

    #[test]
    fn quick_mode_reads_env() {
        // Not set in the test environment unless the caller exported it.
        let _ = quick_mode();
    }
}
