//! A count fingerprint of a small DLRM run.
//!
//! DLRM at batch 16 is the paper's headline point and the workload whose
//! host cost the software cache's hit path dominates. This pins FNV-1a over
//! what a small run of it reports on both systems — AGILE with next-epoch
//! prefetch and the BaM baseline, each from the same prewarmed cache: the
//! elapsed cycles, every `CacheStats` counter and every `IoStats` counter,
//! poll counts included. A change to how the cache or the I/O path is
//! implemented that is meant to move nothing simulated must keep it.
//!
//! A failure prints the fields got, per system, so it says which count
//! moved.

use agile_repro::agile::{AgileConfig, IoStats};
use agile_repro::bam::BamConfig;
use agile_repro::cache::{CacheStats, SoftwareCache};
use agile_repro::gpu::LaunchConfig;
use agile_repro::nvme::PageToken;
use agile_repro::sim::costs::CostModel;
use agile_repro::workloads::dlrm::kernel::{DlrmKernel, DlrmMode, DLRM_WARPS_PER_BLOCK};
use agile_repro::workloads::dlrm::model::DlrmConfig;
use agile_repro::workloads::dlrm::trace::DlrmTrace;
use agile_repro::workloads::experiments::testbed::{agile_testbed, bam_testbed};
use std::collections::BTreeMap;
use std::sync::Arc;

const BATCH: u64 = 16;
const EPOCHS: u32 = 8;
const SSDS: usize = 2;
const QUEUE_PAIRS: usize = 32;
const QUEUE_DEPTH: u32 = 256;
/// Small enough that the prewarmed reused pages fill it and the cold tail
/// evicts them: hits, misses, evictions and lookups that find no line all
/// count.
const CACHE_BYTES: u64 = 2 << 20;
const SEED: u64 = 42_526;

/// Load the pages the trace touches at least twice, hottest first, up to
/// 90 % of the lines (the prewarm rule of the DLRM experiments).
fn prewarm(cache: &SoftwareCache, trace: &DlrmTrace) {
    let mut freq: BTreeMap<(u32, u64), u64> = BTreeMap::new();
    for epoch in 0..trace.epochs() {
        for &page in trace.epoch_requests(epoch) {
            *freq.entry(page).or_insert(0) += 1;
        }
    }
    let mut reused: Vec<_> = freq.into_iter().filter(|&(_, n)| n >= 2).collect();
    reused.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let cap = cache.num_lines() * 9 / 10;
    for ((dev, lba), _) in reused.into_iter().take(cap) {
        let _ = cache.preload(dev, lba, PageToken::pristine(dev, lba));
    }
}

/// What one run reports: elapsed cycles, cache counters, I/O-path counters.
type Counts = (u64, CacheStats, IoStats);

fn run(mode: DlrmMode) -> Counts {
    let cfg = DlrmConfig::config1(BATCH, EPOCHS);
    let trace = Arc::new(DlrmTrace::generate(&cfg, &cfg.layout(SSDS), SEED));
    let pages = cfg.pages_needed_per_ssd(SSDS) + 1;
    let warps = (cfg.lookups_per_epoch() / 128).clamp(8, 512);
    let blocks = warps.div_ceil(DLRM_WARPS_PER_BLOCK as u64).max(1) as u32;
    let total_warps = blocks as u64 * DLRM_WARPS_PER_BLOCK as u64;
    let launch = LaunchConfig::new(blocks, DLRM_WARPS_PER_BLOCK * 32).with_registers(48);
    let costs = CostModel::default();
    let kernel = |agile, bam| {
        Box::new(DlrmKernel::new(
            mode,
            &cfg,
            Arc::clone(&trace),
            &costs,
            total_warps,
            agile,
            bam,
        ))
    };
    let (report, cache, io) = match mode {
        DlrmMode::Bam => {
            let config = BamConfig::paper_default()
                .with_queue_pairs(QUEUE_PAIRS)
                .with_queue_depth(QUEUE_DEPTH)
                .with_cache_bytes(CACHE_BYTES);
            let mut host = bam_testbed(config, SSDS, pages);
            let ctrl = host.ctrl();
            prewarm(ctrl.cache(), &trace);
            let report = host.run_kernel(launch, kernel(None, Some(Arc::clone(&ctrl))));
            (report, ctrl.cache().stats(), ctrl.stats().io)
        }
        _ => {
            let config = AgileConfig::paper_default()
                .with_queue_pairs(QUEUE_PAIRS)
                .with_queue_depth(QUEUE_DEPTH)
                .with_cache_bytes(CACHE_BYTES);
            let mut host = agile_testbed(config, SSDS, pages);
            let ctrl = host.ctrl();
            prewarm(ctrl.cache(), &trace);
            let report = host.run_kernel(launch, kernel(Some(Arc::clone(&ctrl)), None));
            (report, ctrl.cache().stats(), ctrl.stats().io)
        }
    };
    assert!(!report.deadlocked, "{mode:?} deadlocked");
    (report.elapsed.raw(), cache, io)
}

/// FNV-1a over the little-endian bytes of every field of `counts`.
fn fingerprint((elapsed, cache, io): &Counts) -> u64 {
    let fields = [
        *elapsed,
        cache.hits,
        cache.busy_hits,
        cache.misses,
        cache.evictions,
        cache.writebacks,
        cache.no_line,
        io.read_calls,
        io.raw_calls,
        io.cache_hits,
        io.cache_misses,
        io.warp_coalesced,
        io.cache_coalesced,
        io.sq_full_retries,
        io.qos_deferrals,
        io.cache_cycles,
        io.io_cycles,
    ];
    fields
        .iter()
        .flat_map(|field| field.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn a_small_dlrm_run_reports_pinned_counts() {
    let got: Vec<_> = [DlrmMode::AgileAsync, DlrmMode::Bam]
        .into_iter()
        .map(|mode| {
            let counts = run(mode);
            println!("{mode:?}: {counts:?}");
            (mode, counts)
        })
        .collect();
    let (agile, bam) = (&got[0].1, &got[1].1);
    assert!(
        agile.1.hits > 0 && agile.1.misses > 0 && agile.1.evictions > 0 && agile.1.no_line > 0,
        "not vacuous: {agile:?}"
    );
    assert!(bam.1.hits > 0 && bam.1.misses > 0, "not vacuous: {bam:?}");
    assert_eq!(
        [fingerprint(agile), fingerprint(bam)],
        [16_110_455_411_662_936_213, 685_980_646_959_835_671],
        "pinned fingerprints of (AGILE async, BaM); the counts are printed above"
    );
}
