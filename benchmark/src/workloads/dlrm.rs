//! `dlrm_batch16`: DLRM inference (Config-1, batch 16) through `DlrmKernel`,
//! AGILE with next-epoch prefetch against BaM. The paper's headline DLRM
//! point ("1.75× near batch 16"). Caches start prewarmed on both systems,
//! with the `prewarm` rule of `experiments::dlrm_figs` (private there)
//! reimplemented here over the public `ShardedCache::preload`.

use super::{
    decorate, gpu, instrument, timed_run, Instruments, Outcome, Prepared, Scale, Side, Workload,
};
use crate::decorate::SpanLog;
use agile_repro::agile::{AgileConfig, GpuStorageHost};
use agile_repro::bam::{BamConfig, HostBuilder};
use agile_repro::cache::ShardedCache;
use agile_repro::gpu::{KernelFactory, LaunchConfig};
use agile_repro::nvme::PageToken;
use agile_repro::sim::costs::CostModel;
use agile_repro::workloads::dlrm::kernel::{DlrmKernel, DlrmMode, DLRM_WARPS_PER_BLOCK};
use agile_repro::workloads::dlrm::model::DlrmConfig;
use agile_repro::workloads::dlrm::trace::DlrmTrace;
use agile_repro::workloads::experiments::dlrm_figs::DlrmStackParams;
use std::collections::BTreeMap;
use std::sync::Arc;

pub struct DlrmBatch16;

const BATCH: u64 = 16;
const EPOCHS: u32 = 256;
const SMOKE_EPOCHS: u32 = 8;

/// Load the pages the trace touches at least twice — what a steady-state
/// cache would hold — hottest first, up to 90 % of the lines. Once-only pages
/// stay cold: they miss in steady state too, and they are the communication
/// the asynchronous mode overlaps.
fn prewarm(cache: &ShardedCache, trace: &DlrmTrace) {
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

impl Workload for DlrmBatch16 {
    fn name(&self) -> &'static str {
        "dlrm_batch16"
    }

    fn why(&self) -> &'static str {
        "The paper's headline DLRM point (1.75x over BaM near batch 16): prefetch, prewarmed cache and compute overlap through DlrmKernel."
    }

    fn baseline(&self) -> &'static str {
        "BaM, same trace, same prewarmed cache"
    }

    fn paper_speedup(&self) -> Option<f64> {
        Some(1.75)
    }

    fn cache_start(&self) -> &'static str {
        "prewarmed with the trace's reused pages (both systems)"
    }

    fn prepare(
        &self,
        seed: u64,
        scale: Scale,
        side: Side,
        instr: Option<&Instruments>,
    ) -> Box<dyn Prepared> {
        let cfg = DlrmConfig::config1(BATCH, scale.pick(EPOCHS, SMOKE_EPOCHS));
        let stack = DlrmStackParams::default();
        let trace = Arc::new(DlrmTrace::generate(
            &cfg,
            &cfg.layout(stack.ssd_count),
            seed,
        ));
        let pages = cfg.pages_needed_per_ssd(stack.ssd_count) + 1;
        // The launch rule of `experiments::dlrm_figs`.
        let warps = (cfg.lookups_per_epoch() / 128).clamp(8, 512);
        let blocks = warps.div_ceil(DLRM_WARPS_PER_BLOCK as u64).max(1) as u32;
        let total_warps = blocks as u64 * DLRM_WARPS_PER_BLOCK as u64;
        let launch = LaunchConfig::new(blocks, DLRM_WARPS_PER_BLOCK * 32).with_registers(48);
        let costs = CostModel::default();
        let ops = trace.total_requests() as u64;
        let kernel = |mode, agile, bam| {
            let kernel = DlrmKernel::new(
                mode,
                &cfg,
                Arc::clone(&trace),
                &costs,
                total_warps,
                agile,
                bam,
            );
            decorate(Box::new(kernel), instr)
        };
        let spans = instr.map(|i| Arc::clone(&i.spans));
        match side {
            Side::Primary => {
                let config = AgileConfig::paper_default()
                    .with_queue_pairs(stack.queue_pairs)
                    .with_queue_depth(stack.queue_depth)
                    .with_cache_bytes(stack.cache_bytes);
                let builder = HostBuilder::agile(config)
                    .gpu(gpu())
                    .devices(stack.ssd_count, pages);
                let host = instrument(builder, instr).build();
                let ctrl = host.ctrl();
                prewarm(ctrl.cache(), &trace);
                let factory = kernel(DlrmMode::AgileAsync, Some(ctrl), None);
                Box::new(PreparedDlrm {
                    host,
                    launch,
                    factory,
                    ops,
                    spans,
                })
            }
            Side::Baseline => {
                let config = BamConfig::paper_default()
                    .with_queue_pairs(stack.queue_pairs)
                    .with_queue_depth(stack.queue_depth)
                    .with_cache_bytes(stack.cache_bytes);
                let builder = HostBuilder::bam(config)
                    .gpu(gpu())
                    .devices(stack.ssd_count, pages);
                let host = instrument(builder, instr).build();
                let ctrl = host.ctrl();
                prewarm(ctrl.cache(), &trace);
                let factory = kernel(DlrmMode::Bam, None, Some(ctrl));
                Box::new(PreparedDlrm {
                    host,
                    launch,
                    factory,
                    ops,
                    spans,
                })
            }
        }
    }
}

struct PreparedDlrm<H: GpuStorageHost> {
    host: H,
    launch: LaunchConfig,
    factory: Box<dyn KernelFactory>,
    /// Embedding lookups of the trace.
    ops: u64,
    spans: Option<Arc<SpanLog>>,
}

impl<H: GpuStorageHost> Prepared for PreparedDlrm<H> {
    fn run(self: Box<Self>) -> Outcome {
        let PreparedDlrm {
            mut host,
            launch,
            factory,
            ops,
            spans,
        } = *self;
        let (report, host_run_ns) = timed_run(spans.as_ref(), || host.run_kernel(launch, factory));
        host.stop();
        // The kernel retires only after every warp gathered every epoch, so a
        // run that is not deadlocked performed every lookup.
        Outcome {
            ops,
            verified: if report.deadlocked { 0 } else { ops },
            sim_cycles: report.elapsed.raw(),
            sim_end: host.now().raw(),
            host_run_ns,
            rounds: report.rounds,
            launches: 1,
            devices: host.topology().device_count() as u64,
            latency_us: None,
            victim_p99_us: None,
        }
    }
}
