//! Figures 7–10: DLRM inference under BaM, AGILE sync and AGILE async.
//!
//! All four figures share one measurement primitive: run the same DLRM trace
//! through the three execution modes on identical SSD/GPU substrates and
//! report each mode's end-to-end time; speedups are normalised to BaM.
//! The figures differ only in which knob they sweep (model configuration,
//! batch size, queue pairs, software-cache size).

use crate::dlrm::kernel::{DlrmKernel, DlrmMode, DLRM_WARPS_PER_BLOCK};
use crate::dlrm::model::DlrmConfig;
use crate::dlrm::trace::DlrmTrace;
use crate::experiments::testbed::{agile_testbed, bam_testbed};
use agile_core::AgileConfig;
use agile_sim::units::{GIB, MIB};
use bam_baseline::BamConfig;
use gpu_sim::LaunchConfig;
use std::sync::Arc;

/// One (sweep point, execution mode) measurement.
#[derive(Debug, Clone)]
pub struct DlrmRow {
    /// The sweep label ("config-1", "batch=16", "qp=4", "cache=256MiB", …).
    pub point: String,
    /// Execution mode ("bam", "agile-sync", "agile-async").
    pub mode: String,
    /// End-to-end cycles.
    pub elapsed_cycles: u64,
    /// Speedup normalised to the BaM run of the same sweep point.
    pub speedup_vs_bam: f64,
}

/// Storage-stack parameters shared by the three modes of one sweep point.
#[derive(Debug, Clone, Copy)]
pub struct DlrmStackParams {
    /// Queue pairs per SSD.
    pub queue_pairs: usize,
    /// Queue depth.
    pub queue_depth: u32,
    /// Software cache bytes.
    pub cache_bytes: u64,
    /// Number of SSDs.
    pub ssd_count: usize,
}

impl Default for DlrmStackParams {
    fn default() -> Self {
        // §4.4 defaults: 128 QPs of depth 256 and a 2 GiB clock cache. This
        // deviates from the paper with 32 queue pairs, a choice once made to
        // bound simulation memory. Measured on 2 SSDs, 128 QPs would cost
        // only 4.4 MB more host memory. The 2 GiB cache is the large item:
        // 50.3 MB with a `Vec` of tags per set and an `Arc` DMA slot per
        // line, 21.8 MB (41.6 heap bytes a line) with flat per-line arrays
        // and one DMA slab, and 15.9 MB (30.25 bytes a line) with one tag
        // key a line and byte-wide clock state. The count stays at 32
        // because changing it moves DLRM's simulated numbers; running the
        // paper's sizes is its own decision (the roadmap's "paper scale").
        DlrmStackParams {
            queue_pairs: 32,
            queue_depth: 256,
            cache_bytes: 2 * GIB,
            ssd_count: 2,
        }
    }
}

fn dlrm_launch(total_warps: u64) -> (LaunchConfig, u64) {
    let blocks = total_warps.div_ceil(DLRM_WARPS_PER_BLOCK as u64).max(1) as u32;
    let total = blocks as u64 * DLRM_WARPS_PER_BLOCK as u64;
    (
        LaunchConfig::new(blocks, DLRM_WARPS_PER_BLOCK * 32).with_registers(48),
        total,
    )
}

fn warps_for(cfg: &DlrmConfig) -> u64 {
    (cfg.lookups_per_epoch() / 128).clamp(8, 512)
}

/// Pre-warm a software cache into its steady state before measuring.
///
/// The paper measures 10 000-epoch steady state; simulating the cold-start
/// miss storm at full fidelity would dominate our (much shorter) runs and
/// equalise every mode. Instead, both systems start from an identically
/// warmed cache holding the *reused* (frequency ≥ 2) pages of the trace —
/// the pages a steady-state cache would retain — capped at 90 % of the cache
/// capacity. Pages accessed only once (the cold Zipf tail) are deliberately
/// left out: they would miss in steady state too, and they are the
/// communication the asynchronous mode gets to overlap. This is a deviation
/// from the paper's method: it stands in for the 10 000 epochs the paper
/// runs, and how far the prewarmed ratio matches a long cold run is untested
/// (the roadmap's "run-length question").
fn prewarm(cache: &agile_cache::SoftwareCache, trace: &DlrmTrace) {
    use std::collections::HashMap;
    let mut freq: HashMap<(u32, u64), u64> = HashMap::new();
    for e in 0..trace.epochs() {
        for &req in trace.epoch_requests(e) {
            *freq.entry(req).or_insert(0) += 1;
        }
    }
    let mut pages: Vec<((u32, u64), u64)> = freq.into_iter().filter(|(_, c)| *c >= 2).collect();
    pages.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let cap = (cache.num_lines() * 9) / 10;
    for ((dev, lba), _) in pages.into_iter().take(cap) {
        let _ = cache.preload(dev, lba, nvme_sim::PageToken::pristine(dev, lba));
    }
}

/// Run one execution mode of one sweep point and return its elapsed cycles.
pub fn run_dlrm_mode(
    mode: DlrmMode,
    cfg: &DlrmConfig,
    stack: &DlrmStackParams,
    trace: &Arc<DlrmTrace>,
) -> u64 {
    let pages = cfg.pages_needed_per_ssd(stack.ssd_count) + 1;
    let (launch, total_warps) = dlrm_launch(warps_for(cfg));
    let costs = agile_sim::costs::CostModel::default();
    let report = match mode {
        DlrmMode::Bam => {
            let bam_cfg = BamConfig::paper_default()
                .with_queue_pairs(stack.queue_pairs)
                .with_queue_depth(stack.queue_depth)
                .with_cache_bytes(stack.cache_bytes);
            let mut host = bam_testbed(bam_cfg, stack.ssd_count, pages);
            let ctrl = host.ctrl();
            prewarm(ctrl.cache(), trace);
            host.run_kernel(
                launch,
                Box::new(DlrmKernel::new(
                    mode,
                    cfg,
                    Arc::clone(trace),
                    &costs,
                    total_warps,
                    None,
                    Some(ctrl),
                )),
            )
        }
        DlrmMode::AgileSync | DlrmMode::AgileAsync => {
            let agile_cfg = AgileConfig::paper_default()
                .with_queue_pairs(stack.queue_pairs)
                .with_queue_depth(stack.queue_depth)
                .with_cache_bytes(stack.cache_bytes);
            let mut host = agile_testbed(agile_cfg, stack.ssd_count, pages);
            let ctrl = host.ctrl();
            prewarm(ctrl.cache(), trace);
            host.run_kernel(
                launch,
                Box::new(DlrmKernel::new(
                    mode,
                    cfg,
                    Arc::clone(trace),
                    &costs,
                    total_warps,
                    Some(ctrl),
                    None,
                )),
            )
        }
    };
    assert!(!report.deadlocked, "DLRM {mode:?} run deadlocked");
    report.elapsed.raw()
}

/// Run all three modes of one sweep point; rows are normalised to BaM.
pub fn run_dlrm_point(point: &str, cfg: &DlrmConfig, stack: &DlrmStackParams) -> Vec<DlrmRow> {
    let layouts = cfg.layout(stack.ssd_count);
    let trace = Arc::new(DlrmTrace::generate(cfg, &layouts, 0xD18A));
    let bam = run_dlrm_mode(DlrmMode::Bam, cfg, stack, &trace);
    let sync = run_dlrm_mode(DlrmMode::AgileSync, cfg, stack, &trace);
    let asynch = run_dlrm_mode(DlrmMode::AgileAsync, cfg, stack, &trace);
    [
        (DlrmMode::Bam, bam),
        (DlrmMode::AgileSync, sync),
        (DlrmMode::AgileAsync, asynch),
    ]
    .into_iter()
    .map(|(mode, cycles)| DlrmRow {
        point: point.to_string(),
        mode: mode.label().to_string(),
        elapsed_cycles: cycles,
        speedup_vs_bam: bam as f64 / cycles as f64,
    })
    .collect()
}

/// Figure 7: the three DLRM configurations at batch 2048.
pub fn run_fig7_configs(batch: u64, epochs: u32) -> Vec<DlrmRow> {
    let stack = DlrmStackParams::default();
    let mut rows = Vec::new();
    for cfg in [
        DlrmConfig::config1(batch, epochs),
        DlrmConfig::config2(batch, epochs),
        DlrmConfig::config3(batch, epochs),
    ] {
        rows.extend(run_dlrm_point(&cfg.name.clone(), &cfg, &stack));
    }
    rows
}

/// Figure 8: batch-size sweep on Config-1.
pub fn run_fig8_batch_sweep(batches: &[u64], epochs: u32) -> Vec<DlrmRow> {
    let stack = DlrmStackParams::default();
    let mut rows = Vec::new();
    for &batch in batches {
        let cfg = DlrmConfig::config1(batch, epochs);
        rows.extend(run_dlrm_point(&format!("batch={batch}"), &cfg, &stack));
    }
    rows
}

/// Figure 9: queue-pair sweep on Config-1 with queue depth 64 (§4.4).
pub fn run_fig9_queue_sweep(queue_pairs: &[usize], batch: u64, epochs: u32) -> Vec<DlrmRow> {
    let cfg = DlrmConfig::config1(batch, epochs);
    let mut rows = Vec::new();
    for &qp in queue_pairs {
        let stack = DlrmStackParams {
            queue_pairs: qp,
            queue_depth: 64,
            ..DlrmStackParams::default()
        };
        rows.extend(run_dlrm_point(&format!("qp={qp}"), &cfg, &stack));
    }
    rows
}

/// Figure 10: software-cache-size sweep on Config-1.
pub fn run_fig10_cache_sweep(cache_mib: &[u64], batch: u64, epochs: u32) -> Vec<DlrmRow> {
    let cfg = DlrmConfig::config1(batch, epochs);
    let mut rows = Vec::new();
    for &mib in cache_mib {
        let stack = DlrmStackParams {
            cache_bytes: mib * MIB,
            ..DlrmStackParams::default()
        };
        rows.extend(run_dlrm_point(&format!("cache={mib}MiB"), &cfg, &stack));
    }
    rows
}

/// The batch sizes the paper sweeps in Figure 8.
pub fn paper_batch_sizes() -> Vec<u64> {
    vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048]
}

/// The queue-pair counts the paper sweeps in Figure 9.
pub fn paper_queue_pairs() -> Vec<usize> {
    vec![1, 2, 4, 8, 16]
}

/// The cache sizes (MiB) the paper sweeps in Figure 10.
pub fn paper_cache_sizes_mib() -> Vec<u64> {
    vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_axes_match_paper() {
        assert_eq!(paper_batch_sizes().len(), 12);
        assert_eq!(paper_queue_pairs(), vec![1, 2, 4, 8, 16]);
        assert_eq!(paper_cache_sizes_mib().last(), Some(&2048));
    }

    #[test]
    fn launch_math_is_consistent() {
        let (launch, total) = dlrm_launch(13);
        assert_eq!(total % DLRM_WARPS_PER_BLOCK as u64, 0);
        assert!(total >= 13);
        assert_eq!(launch.block_dim, DLRM_WARPS_PER_BLOCK * 32);
    }
}
