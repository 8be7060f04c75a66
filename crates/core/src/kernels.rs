//! Reusable warp-kernel building blocks.
//!
//! The evaluation workloads (DLRM, BFS, SpMV, the CTC micro-benchmark) live
//! in the `agile-workloads` crate; this module provides small, generic
//! kernels used by the documentation example, the host tests and the
//! quickstart example: a prefetch → compute → consume pipeline and a simple
//! asynchronous read-modify-write kernel over user buffers.

use crate::ctrl::AgileCtrl;
use crate::io_path::{ReadOutcome, WarpWait};
use crate::transaction::AgileBuf;
use agile_sim::wake::{SleeperId, Wait, WaitReason};
use agile_sim::Cycles;
use gpu_sim::{KernelFactory, WarpCtx, WarpKernel, WarpStep};
use nvme_sim::Lba;
use std::sync::Arc;

/// Poll interval warps use while waiting for I/O (cycles).
pub(crate) const IO_POLL_INTERVAL: u64 = 1_500;

/// A pipeline kernel: each warp iterates `iters` times; on every iteration it
/// prefetches the *next* iteration's pages, computes on the current data and
/// then reads the current pages through the array-like API. This is the
/// canonical AGILE overlap pattern (§4.2).
pub struct PrefetchComputeKernel {
    ctrl: Arc<AgileCtrl>,
    iters: u32,
    compute_cycles: u64,
}

impl PrefetchComputeKernel {
    /// `iters` iterations per warp, each computing for `compute_cycles`.
    pub fn new(ctrl: Arc<AgileCtrl>, iters: u32, compute_cycles: u64) -> Self {
        PrefetchComputeKernel {
            ctrl,
            iters,
            compute_cycles,
        }
    }
}

enum PipelinePhase {
    PrefetchNext,
    Compute,
    ReadCurrent,
}

struct PipelineWarp {
    parent: Arc<AgileCtrl>,
    iters: u32,
    compute_cycles: u64,
    pages: fn(&PipelineWarpCtx, u32, u32) -> Vec<(u32, Lba)>,
    ctx_data: PipelineWarpCtx,
    iter: u32,
    phase: PipelinePhase,
    pending_prefetch: Vec<(u32, Lba)>,
    /// The room each prefetch works in (see `AgileCtrl::prefetch_warp`).
    prefetch: WarpWait,
    /// Carried across the polls of one read (see `IoPath::read_warp`).
    wait: WarpWait,
    /// What the warp sleeps on while all its pages are in flight.
    sleeper: Option<SleeperId>,
}

struct PipelineWarpCtx {
    warp_flat: u64,
    iters: u32,
    ndev: u64,
}

fn default_pages(ctx: &PipelineWarpCtx, iter: u32, lanes: u32) -> Vec<(u32, Lba)> {
    (0..lanes as u64)
        .map(|lane| {
            let idx =
                ctx.warp_flat * ctx.iters as u64 * lanes as u64 + iter as u64 * lanes as u64 + lane;
            ((idx % ctx.ndev) as u32, (idx / ctx.ndev) % 50_000)
        })
        .collect()
}

impl WarpKernel for PipelineWarp {
    fn step(&mut self, ctx: &WarpCtx) -> WarpStep {
        if self.iter >= self.iters {
            return WarpStep::Done;
        }
        match self.phase {
            PipelinePhase::PrefetchNext => {
                // Retry anything that could not be started last time, then
                // prefetch the next iteration's pages.
                let mut reqs = std::mem::take(&mut self.pending_prefetch);
                if reqs.is_empty() {
                    let target = if self.iter == 0 { 0 } else { self.iter + 1 };
                    if target < self.iters {
                        reqs = (self.pages)(&self.ctx_data, target, ctx.lanes);
                    }
                }
                if reqs.is_empty() {
                    self.phase = PipelinePhase::Compute;
                    return WarpStep::Busy(Cycles(1));
                }
                let cost = self.parent.prefetch_warp(
                    self.ctx_data.warp_flat,
                    &reqs,
                    ctx.now,
                    &mut self.prefetch,
                );
                reqs.clear();
                reqs.extend(self.prefetch.not_started());
                self.pending_prefetch = reqs;
                if self.pending_prefetch.is_empty() {
                    self.phase = PipelinePhase::Compute;
                }
                WarpStep::Busy(cost)
            }
            PipelinePhase::Compute => {
                self.phase = PipelinePhase::ReadCurrent;
                WarpStep::Busy(Cycles(self.compute_cycles))
            }
            PipelinePhase::ReadCurrent => {
                let reqs = (self.pages)(&self.ctx_data, self.iter, ctx.lanes);
                let (cost, outcome) =
                    self.parent
                        .read_warp(self.ctx_data.warp_flat, &reqs, ctx.now, &mut self.wait);
                match outcome {
                    ReadOutcome::Ready(_) => {
                        self.iter += 1;
                        self.phase = PipelinePhase::PrefetchNext;
                        WarpStep::Busy(cost)
                    }
                    ReadOutcome::Pending => {
                        let io = self.parent.io();
                        let retry_after = Cycles(IO_POLL_INTERVAL).max(cost);
                        let repoll = io.repoll_cost(&self.wait);
                        let wait = io
                            .park_on_fills(&mut self.sleeper, Some(&self.wait), std::iter::empty())
                            .only_if(Cycles(IO_POLL_INTERVAL).max(repoll) == retry_after);
                        WarpStep::Stall { retry_after, wait }
                    }
                }
            }
        }
    }
}

impl KernelFactory for PrefetchComputeKernel {
    fn create_warp(&self, block: u32, warp: u32) -> Box<dyn WarpKernel> {
        let warp_flat = block as u64 * 64 + warp as u64;
        Box::new(PipelineWarp {
            parent: Arc::clone(&self.ctrl),
            iters: self.iters,
            compute_cycles: self.compute_cycles,
            pages: default_pages,
            ctx_data: PipelineWarpCtx {
                warp_flat,
                iters: self.iters,
                ndev: self.ctrl.io().device_count() as u64,
            },
            iter: 0,
            phase: PipelinePhase::PrefetchNext,
            pending_prefetch: Vec::new(),
            prefetch: WarpWait::new(),
            wait: WarpWait::new(),
            sleeper: None,
        })
    }
    fn name(&self) -> &str {
        "prefetch-compute"
    }
}

/// A kernel exercising the `async_issue` path: each warp reads one page per
/// iteration into a private [`AgileBuf`], waits on the barrier, "modifies" the
/// data and writes it back asynchronously.
pub struct AsyncReadModifyWriteKernel {
    ctrl: Arc<AgileCtrl>,
    iters: u32,
    pages_per_dev: u64,
}

impl AsyncReadModifyWriteKernel {
    /// `iters` read-modify-write rounds per warp over a `pages_per_dev`-page
    /// working set per device.
    pub fn new(ctrl: Arc<AgileCtrl>, iters: u32, pages_per_dev: u64) -> Self {
        AsyncReadModifyWriteKernel {
            ctrl,
            iters,
            pages_per_dev,
        }
    }
}

enum RmwPhase {
    IssueRead,
    WaitRead,
    WriteBack,
}

struct RmwWarp {
    ctrl: Arc<AgileCtrl>,
    iters: u32,
    pages_per_dev: u64,
    warp_flat: u64,
    iter: u32,
    phase: RmwPhase,
    buf: AgileBuf,
    /// What the warp sleeps on while its read is in flight.
    sleeper: Option<SleeperId>,
}

impl RmwWarp {
    fn target(&self) -> (u32, Lba) {
        let ndev = self.ctrl.io().device_count() as u64;
        let idx = self.warp_flat * self.iters as u64 + self.iter as u64;
        ((idx % ndev) as u32, (idx / ndev) % self.pages_per_dev)
    }
}

impl WarpKernel for RmwWarp {
    fn step(&mut self, ctx: &WarpCtx) -> WarpStep {
        if self.iter >= self.iters {
            return WarpStep::Done;
        }
        let (dev, lba) = self.target();
        match self.phase {
            RmwPhase::IssueRead => {
                let (cost, outcome) =
                    self.ctrl
                        .async_read(self.warp_flat, dev, lba, &self.buf, ctx.now);
                match outcome {
                    crate::ctrl::IssueOutcome::Issued => {
                        self.phase = RmwPhase::WaitRead;
                        WarpStep::Busy(cost)
                    }
                    crate::ctrl::IssueOutcome::AlreadyAvailable => {
                        self.phase = RmwPhase::WriteBack;
                        WarpStep::Busy(cost)
                    }
                    crate::ctrl::IssueOutcome::Retry => WarpStep::Stall {
                        retry_after: Cycles(IO_POLL_INTERVAL),
                        wait: Wait::polling(WaitReason::Submit),
                    },
                }
            }
            RmwPhase::WaitRead => {
                let (cost, done) = self.ctrl.poll_barrier(&self.buf.barrier);
                if done {
                    self.phase = RmwPhase::WriteBack;
                    WarpStep::Busy(cost)
                } else {
                    WarpStep::Stall {
                        retry_after: Cycles(IO_POLL_INTERVAL),
                        wait: self.ctrl.io().park_on_barriers(
                            &mut self.sleeper,
                            std::iter::once(&self.buf.barrier),
                        ),
                    }
                }
            }
            RmwPhase::WriteBack => {
                // "Modify" the page: derive a new token from the old one.
                let old = self.buf.token();
                self.buf
                    .store(nvme_sim::PageToken(old.0 ^ 0xFFFF_0000_0000_FFFF));
                let (cost, outcome) =
                    self.ctrl
                        .async_write(self.warp_flat, dev, lba, &self.buf, ctx.now);
                match outcome {
                    crate::ctrl::IssueOutcome::Retry => WarpStep::Stall {
                        retry_after: Cycles(IO_POLL_INTERVAL),
                        wait: Wait::polling(WaitReason::Submit),
                    },
                    _ => {
                        self.iter += 1;
                        self.phase = RmwPhase::IssueRead;
                        WarpStep::Busy(cost)
                    }
                }
            }
        }
    }
}

impl KernelFactory for AsyncReadModifyWriteKernel {
    fn create_warp(&self, block: u32, warp: u32) -> Box<dyn WarpKernel> {
        Box::new(RmwWarp {
            ctrl: Arc::clone(&self.ctrl),
            iters: self.iters,
            pages_per_dev: self.pages_per_dev.max(1),
            warp_flat: block as u64 * 64 + warp as u64,
            iter: 0,
            phase: RmwPhase::IssueRead,
            buf: AgileBuf::new(),
            sleeper: None,
        })
    }
    fn name(&self) -> &str {
        "async-rmw"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AgileConfig;
    use crate::host::{AgileHost, HostSpec};
    use gpu_sim::{GpuConfig, LaunchConfig};

    /// A started AGILE host over one SSD of 2^16 pages.
    fn started_host() -> AgileHost {
        let mut spec = HostSpec::new(GpuConfig::tiny(2), AgileConfig::small_test());
        spec.devices = vec![1 << 16];
        AgileHost::build(spec)
    }

    #[test]
    fn pipeline_kernel_completes_and_moves_data() {
        let mut host = started_host();
        let ctrl = host.ctrl();
        let report = host.run_kernel(
            LaunchConfig::new(2, 64).with_registers(40),
            Box::new(PrefetchComputeKernel::new(Arc::clone(&ctrl), 3, 2_000)),
        );
        assert!(!report.deadlocked);
        let stats = ctrl.stats();
        assert!(stats.prefetch_calls > 0);
        assert!(stats.io.read_calls > 0);
        assert!(
            stats.io.cache_hits > 0,
            "prefetched data should be hit on read"
        );
    }

    #[test]
    fn rmw_kernel_round_trips_user_buffers() {
        let mut host = started_host();
        let ctrl = host.ctrl();
        let report = host.run_kernel(
            LaunchConfig::new(1, 64).with_registers(40),
            Box::new(AsyncReadModifyWriteKernel::new(Arc::clone(&ctrl), 2, 4096)),
        );
        assert!(!report.deadlocked);
        let stats = ctrl.stats();
        assert!(
            stats.async_calls >= 4,
            "each warp does ≥2 reads and 2 writes"
        );
        // Writes were actually applied to the devices.
        assert!(host.topology().total_bytes_written() > 0);
    }
}
