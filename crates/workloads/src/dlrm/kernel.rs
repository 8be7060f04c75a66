//! The DLRM inference kernels (one per execution mode).
//!
//! All three modes replay the same trace and perform the same per-epoch MLP
//! compute; they differ only in how the embedding gather interacts with the
//! storage stack:
//!
//! * [`DlrmMode::Bam`] — gather synchronously through the BaM controller,
//!   then compute (gather and compute never overlap);
//! * [`DlrmMode::AgileSync`] — the same schedule through AGILE's array API;
//! * [`DlrmMode::AgileAsync`] — prefetch epoch `e+1`'s pages through AGILE
//!   while epoch `e`'s MLPs run (the paper's "prefetch data for the next
//!   epoch to enable overlapping of communication and computation").
//!
//! The batch's lookups are partitioned across the launched warps; the MLP
//! compute of an epoch is likewise split evenly across warps (it is a dense
//! GEMM in reality, executed by all SMs).

use super::model::DlrmConfig;
use super::trace::DlrmTrace;
use crate::accessor::{AgileAccessor, BamAccessor, PageAccessor};
use agile_core::AgileCtrl;
use agile_sim::costs::CostModel;
use agile_sim::Cycles;
use bam_baseline::BamCtrl;
use gpu_sim::{KernelFactory, WarpCtx, WarpKernel, WarpStep};
use nvme_sim::Lba;
use std::sync::Arc;

/// Which storage stack / schedule the kernel uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DlrmMode {
    /// BaM baseline (synchronous).
    Bam,
    /// AGILE used synchronously.
    AgileSync,
    /// AGILE with next-epoch prefetching (asynchronous).
    AgileAsync,
}

impl DlrmMode {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            DlrmMode::Bam => "bam",
            DlrmMode::AgileSync => "agile-sync",
            DlrmMode::AgileAsync => "agile-async",
        }
    }
}

/// The DLRM kernel factory.
pub struct DlrmKernel {
    accessor: Arc<dyn PageAccessor>,
    trace: Arc<DlrmTrace>,
    mode: DlrmMode,
    total_warps: u64,
    compute_per_warp_per_epoch: Cycles,
    /// Cycles to read one embedding row out of the cache line in HBM and
    /// write it into the dense activation buffer — identical for every mode.
    consume_cycles_per_lookup: u64,
}

impl DlrmKernel {
    /// Build the kernel for `mode`. `total_warps` must match the launch
    /// configuration (grid × block warps).
    pub fn new(
        mode: DlrmMode,
        cfg: &DlrmConfig,
        trace: Arc<DlrmTrace>,
        costs: &CostModel,
        total_warps: u64,
        agile: Option<Arc<AgileCtrl>>,
        bam: Option<Arc<BamCtrl>>,
    ) -> Self {
        let accessor: Arc<dyn PageAccessor> = match mode {
            DlrmMode::Bam => Arc::new(BamAccessor::new(bam.expect("BaM mode needs a BamCtrl"))),
            DlrmMode::AgileSync | DlrmMode::AgileAsync => Arc::new(AgileAccessor::new(
                agile.expect("AGILE modes need an AgileCtrl"),
            )),
        };
        // The MLPs are dense GEMMs executed by the whole GPU; their wall-clock
        // duration is independent of how many gather warps this kernel
        // launches, so every warp is busy for the full compute phase (they
        // model the same SMs doing the matrix math).
        let compute_total = cfg.compute_cycles_per_epoch(costs);
        DlrmKernel {
            accessor,
            trace,
            mode,
            total_warps: total_warps.max(1),
            compute_per_warp_per_epoch: compute_total,
            consume_cycles_per_lookup: costs.gpu.global_mem_access,
        }
    }
}

enum Phase {
    /// Issue prefetches for the next epoch (async mode only).
    Prefetch,
    /// Run this warp's share of the MLP compute.
    Compute,
    /// Gather this warp's share of the current epoch's embeddings.
    Gather,
}

struct DlrmWarp {
    accessor: Arc<dyn PageAccessor>,
    trace: Arc<DlrmTrace>,
    mode: DlrmMode,
    warp_flat: u64,
    total_warps: u64,
    compute_per_epoch: Cycles,
    consume_cycles_per_lookup: u64,
    epoch: usize,
    phase: Phase,
    /// Cursor into this warp's slice during the gather phase.
    gather_pos: usize,
    /// Cursor into the next epoch's slice during the prefetch phase.
    prefetch_pos: usize,
}

impl DlrmWarp {
    /// This warp's slice of an epoch's requests.
    fn slice<'t>(&self, trace: &'t DlrmTrace, epoch: usize) -> &'t [(u32, Lba)] {
        let all = trace.epoch_requests(epoch);
        let per_warp = (all.len() as u64).div_ceil(self.total_warps);
        let start = (self.warp_flat * per_warp).min(all.len() as u64) as usize;
        let end = ((self.warp_flat + 1) * per_warp).min(all.len() as u64) as usize;
        &all[start..end]
    }
}

impl WarpKernel for DlrmWarp {
    fn step(&mut self, ctx: &WarpCtx) -> WarpStep {
        if self.epoch >= self.trace.epochs() {
            return WarpStep::Done;
        }
        let lanes = ctx.lanes as usize;
        match self.phase {
            Phase::Prefetch => {
                // Only the async mode prefetches; the others skip straight to
                // gather-then-compute. The very first epoch has nothing
                // prefetched yet, so epoch 0 prefetches itself.
                if self.mode != DlrmMode::AgileAsync {
                    self.phase = Phase::Gather;
                    return WarpStep::Busy(Cycles(1));
                }
                let target = if self.epoch == 0 { 0 } else { self.epoch + 1 };
                if target >= self.trace.epochs() {
                    self.phase = Phase::Compute;
                    return WarpStep::Busy(Cycles(1));
                }
                let trace = Arc::clone(&self.trace);
                let slice = self.slice(&trace, target);
                if self.prefetch_pos >= slice.len() {
                    self.prefetch_pos = 0;
                    self.phase = Phase::Compute;
                    return WarpStep::Busy(Cycles(1));
                }
                let end = (self.prefetch_pos + lanes).min(slice.len());
                let cost =
                    self.accessor
                        .prefetch(self.warp_flat, &slice[self.prefetch_pos..end], ctx.now);
                self.prefetch_pos = end;
                WarpStep::Busy(cost.max(Cycles(1)))
            }
            Phase::Compute => {
                self.phase = Phase::Gather;
                WarpStep::Busy(self.compute_per_epoch)
            }
            Phase::Gather => {
                let trace = Arc::clone(&self.trace);
                let slice = self.slice(&trace, self.epoch);
                if self.gather_pos >= slice.len() {
                    // Epoch finished for this warp.
                    self.gather_pos = 0;
                    self.epoch += 1;
                    self.phase = match self.mode {
                        DlrmMode::AgileAsync => Phase::Prefetch,
                        _ => Phase::Gather,
                    };
                    // Synchronous modes do gather → compute within the epoch;
                    // account the compute now, before the next epoch starts.
                    if self.mode != DlrmMode::AgileAsync {
                        return WarpStep::Busy(self.compute_per_epoch);
                    }
                    return WarpStep::Busy(Cycles(1));
                }
                let end = (self.gather_pos + lanes).min(slice.len());
                let r = self
                    .accessor
                    .access(self.warp_flat, &slice[self.gather_pos..end], ctx.now);
                if r.ready {
                    // Copy the gathered embedding rows into the dense
                    // activation buffer (one HBM read per lookup) — this cost
                    // is mode-independent.
                    let consume =
                        Cycles(self.consume_cycles_per_lookup * (end - self.gather_pos) as u64);
                    self.gather_pos = end;
                    WarpStep::Busy(r.cost + consume)
                } else {
                    WarpStep::Stall {
                        retry_after: r.retry_hint.max(r.cost),
                        wait: r.wait,
                    }
                }
            }
        }
    }
}

impl KernelFactory for DlrmKernel {
    fn create_warp(&self, block: u32, warp: u32) -> Box<dyn WarpKernel> {
        // Launches use a fixed 8 warps (256 threads) per block, so the flat
        // warp index is derivable from (block, warp) without extra plumbing.
        let warp_flat = block as u64 * 8 + warp as u64;
        Box::new(DlrmWarp {
            accessor: Arc::clone(&self.accessor),
            trace: Arc::clone(&self.trace),
            mode: self.mode,
            warp_flat: warp_flat % self.total_warps,
            total_warps: self.total_warps,
            compute_per_epoch: self.compute_per_warp_per_epoch,
            consume_cycles_per_lookup: self.consume_cycles_per_lookup,
            epoch: 0,
            phase: match self.mode {
                DlrmMode::AgileAsync => Phase::Prefetch,
                _ => Phase::Gather,
            },
            gather_pos: 0,
            prefetch_pos: 0,
        })
    }
    fn name(&self) -> &str {
        match self.mode {
            DlrmMode::Bam => "dlrm-bam",
            DlrmMode::AgileSync => "dlrm-agile-sync",
            DlrmMode::AgileAsync => "dlrm-agile-async",
        }
    }
}

/// Warps per thread block used by every DLRM launch (256 threads).
pub const DLRM_WARPS_PER_BLOCK: u32 = 8;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_labels() {
        assert_eq!(DlrmMode::Bam.label(), "bam");
        assert_eq!(DlrmMode::AgileSync.label(), "agile-sync");
        assert_eq!(DlrmMode::AgileAsync.label(), "agile-async");
    }
}
