//! Figure 4: asynchronous vs synchronous I/O across CTC ratios.
//!
//! One thread block of 1024 threads issues `requests_per_thread` NVMe reads
//! per thread and computes on the data. The sweep first measures the
//! communication-only time (zero compute) of the synchronous mode, derives
//! the per-iteration communication time from it, and then — for each target
//! CTC ratio — sets the per-iteration compute time to `ctc ×
//! per_iteration_communication` and measures both modes. The ideal-speedup
//! column comes from Equation 1.
//!
//! The block's 32 warps meet at a barrier after every iteration's fetch, so
//! they move in lockstep, as Equation 1 assumes (see
//! [`crate::microbench`]); the asynchronous mode issues each iteration's
//! reads before its compute. Each iteration's 1024 submissions spread over
//! the 16 SQs and queue only behind their own SQ's earlier holders (a
//! submit lock per SQ, as in Algorithm 2). At the quick points (16 reads per
//! thread) the sweep reads 1.00 / 1.50 / 1.90 / 1.63× at CTC 0 / 0.5 / 0.9
//! / 1.5, against Equation 1's 1.00 / 1.50 / 1.90 / 1.67× and the paper's
//! peak of 1.88×.

use crate::experiments::testbed::agile_testbed;
use crate::microbench::{ideal_speedup, MicrobenchKernel, MicrobenchParams};
use agile_core::AgileConfig;
use agile_sim::units::MIB;
use gpu_sim::LaunchConfig;

/// One point of the Figure 4 sweep.
#[derive(Debug, Clone)]
pub struct CtcRow {
    /// Target computation-to-communication ratio.
    pub ctc: f64,
    /// End-to-end cycles of the synchronous mode.
    pub sync_cycles: u64,
    /// End-to-end cycles of the asynchronous mode.
    pub async_cycles: u64,
    /// Measured speedup (sync / async).
    pub speedup: f64,
    /// Ideal speedup from Equation 1.
    pub ideal: f64,
}

fn microbench_config() -> AgileConfig {
    AgileConfig::paper_default()
        .with_queue_pairs(16)
        .with_queue_depth(256)
        .with_cache_bytes(256 * MIB)
}

/// Run one micro-benchmark configuration on one block of `threads` threads
/// and return its end-to-end cycles.
pub(crate) fn run_once(
    threads: u32,
    requests_per_thread: u32,
    compute_cycles: u64,
    asynchronous: bool,
) -> u64 {
    run_on(
        microbench_config(),
        threads,
        requests_per_thread,
        compute_cycles,
        asynchronous,
    )
    .0
}

/// One synchronous iteration at zero compute of the 1024-thread block, on
/// `queue_pairs` SQs of `queue_depth` entries: every warp submits its 32
/// lanes' reads at the same instant. Returns the elapsed cycles and the
/// cycles submissions spent queued on the SQs' submit locks.
pub fn run_lockstep_burst(queue_pairs: usize, queue_depth: u32) -> (u64, u64) {
    let config = microbench_config()
        .with_queue_pairs(queue_pairs)
        .with_queue_depth(queue_depth);
    run_on(config, THREADS, 1, 0, false)
}

/// Run the micro-benchmark on `config`; returns elapsed cycles and submit
/// lock wait.
fn run_on(
    config: AgileConfig,
    threads: u32,
    requests_per_thread: u32,
    compute_cycles: u64,
    asynchronous: bool,
) -> (u64, u64) {
    let mut host = agile_testbed(config, 1, 1 << 23);
    let ctrl = host.ctrl();
    let params = MicrobenchParams {
        requests_per_thread,
        compute_cycles,
        pages_per_dev: 1 << 22,
        asynchronous,
    };
    let report = host.run_kernel(
        LaunchConfig::new(1, threads).with_registers(48),
        Box::new(MicrobenchKernel::new(ctrl, params)),
    );
    assert!(!report.deadlocked, "micro-benchmark deadlocked");
    (report.elapsed.raw(), host.topology().lock_wait_cycles())
}

/// Threads of the one block, as in the paper.
const THREADS: u32 = 1024;

/// Run the Figure 4 sweep over the given CTC ratios.
pub fn run_ctc_sweep(ctc_points: &[f64], requests_per_thread: u32) -> Vec<CtcRow> {
    // Step 1: communication-only synchronous run to calibrate the
    // per-iteration communication time.
    let comm_only = run_once(THREADS, requests_per_thread, 0, false);
    let per_iter_comm = (comm_only / requests_per_thread as u64).max(1);

    // Step 2: sweep.
    ctc_points
        .iter()
        .map(|&ctc| {
            let compute = (ctc * per_iter_comm as f64).round() as u64;
            let sync_cycles = run_once(THREADS, requests_per_thread, compute, false);
            let async_cycles = run_once(THREADS, requests_per_thread, compute, true);
            CtcRow {
                ctc,
                sync_cycles,
                async_cycles,
                speedup: sync_cycles as f64 / async_cycles as f64,
                ideal: ideal_speedup(ctc),
            }
        })
        .collect()
}

/// The CTC ratios the paper sweeps (0 → 2).
pub fn paper_ctc_points() -> Vec<f64> {
    vec![0.0, 0.25, 0.5, 0.75, 0.9, 1.0, 1.25, 1.5, 1.75, 2.0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_points_cover_zero_to_two() {
        let pts = paper_ctc_points();
        assert_eq!(pts.first(), Some(&0.0));
        assert_eq!(pts.last(), Some(&2.0));
        assert!(pts.windows(2).all(|w| w[0] < w[1]));
    }
}
