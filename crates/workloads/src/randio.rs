//! 4 KiB random read / write scaling workload (§4.3, Figures 5 and 6).
//!
//! Warps issue raw (cache-bypassing) 4 KiB NVMe requests, interleaved across
//! the attached SSDs exactly as the paper describes ("requests 0, 2, 4, … are
//! issued to SSD1, while requests 1, 3, 5, … are directed to SSD2"), and wait
//! for all completions at the end. The harness reports the aggregate
//! bandwidth as a function of the number of requests per SSD and of the SSD
//! count.

use agile_core::transaction::Barrier;
use agile_core::{AgileCtrl, IssueOutcome};
use agile_sim::costs::{POLL_RETRY_CYCLES, SUBMIT_RETRY_CYCLES};
use agile_sim::wake::{SleeperId, Wait, WaitReason};
use agile_sim::{Cycles, SimRng};
use gpu_sim::{KernelFactory, WarpCtx, WarpKernel, WarpStep};
use nvme_sim::{DmaHandle, PageToken};
use std::sync::Arc;

/// Whether the workload reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoDirection {
    /// 4 KiB random reads (Figure 5).
    Read,
    /// 4 KiB random writes (Figure 6).
    Write,
}

/// Parameters of the random-I/O kernel.
#[derive(Debug, Clone, Copy)]
pub struct RandIoParams {
    /// Total requests per SSD.
    pub requests_per_ssd: u64,
    /// Number of SSDs (requests are interleaved across them).
    pub ssd_count: usize,
    /// Pages available per SSD (the random LBA range).
    pub lba_space: u64,
    /// Read or write.
    pub direction: IoDirection,
    /// Total warps the requests are divided across.
    pub total_warps: u64,
    /// RNG seed for the random addresses.
    pub seed: u64,
}

/// Kernel factory for the random-I/O workload.
pub struct RandIoKernel {
    ctrl: Arc<AgileCtrl>,
    params: RandIoParams,
}

impl RandIoKernel {
    /// Build the kernel.
    pub fn new(ctrl: Arc<AgileCtrl>, params: RandIoParams) -> Self {
        assert!(params.ssd_count >= 1);
        RandIoKernel { ctrl, params }
    }
}

struct RandIoWarp {
    ctrl: Arc<AgileCtrl>,
    params: RandIoParams,
    warp_flat: u64,
    rng: SimRng,
    /// Requests this warp is responsible for.
    quota: u64,
    issued: u64,
    /// Outstanding request barriers (bounded to keep memory flat).
    outstanding: Vec<Barrier>,
    /// Maximum outstanding requests per warp before it pauses to drain.
    window: usize,
    /// What the warp sleeps on while it can only wait for its own requests.
    sleeper: Option<SleeperId>,
}

impl RandIoWarp {
    fn next_target(&mut self) -> (u32, u64) {
        // Global request index → interleaved device, random LBA.
        let global = self.warp_flat * self.quota + self.issued;
        let dev = (global % self.params.ssd_count as u64) as u32;
        let lba = self.rng.gen_range(self.params.lba_space.max(1));
        (dev, lba)
    }

    fn reap_completed(&mut self) {
        self.outstanding.retain(|b| !b.is_complete());
    }
}

impl WarpKernel for RandIoWarp {
    fn step(&mut self, ctx: &WarpCtx) -> WarpStep {
        // Drain finished barriers opportunistically to bound memory.
        self.reap_completed();

        if self.issued >= self.quota {
            // All issued: wait for the stragglers.
            if self.outstanding.is_empty() {
                return WarpStep::Done;
            }
            let (cost, done) = self.ctrl.poll_barrier(&self.outstanding[0]);
            if done {
                self.outstanding.swap_remove(0);
                return WarpStep::Busy(cost);
            }
            // Until one of them completes every poll is this same probe.
            return WarpStep::Stall {
                retry_after: Cycles(POLL_RETRY_CYCLES),
                wait: self
                    .ctrl
                    .io()
                    .park_on_barriers(&mut self.sleeper, self.outstanding.iter()),
            };
        }

        if self.outstanding.len() >= self.window {
            // Too many in flight: nothing to do until one completes.
            return WarpStep::Stall {
                retry_after: Cycles(POLL_RETRY_CYCLES),
                wait: self
                    .ctrl
                    .io()
                    .park_on_barriers(&mut self.sleeper, self.outstanding.iter()),
            };
        }

        // Issue up to one warp-width batch of requests in this step.
        let batch = (self.quota - self.issued).min(ctx.lanes as u64) as usize;
        let mut cost = Cycles(0);
        let mut issued_now = 0;
        for _ in 0..batch {
            let (dev, lba) = self.next_target();
            let barrier = Barrier::new();
            let (c, outcome) = match self.params.direction {
                IoDirection::Read => self.ctrl.raw_read(
                    self.warp_flat,
                    dev,
                    lba,
                    DmaHandle::new(),
                    barrier.clone(),
                    ctx.now,
                ),
                IoDirection::Write => self.ctrl.raw_write(
                    self.warp_flat,
                    dev,
                    lba,
                    PageToken(self.warp_flat ^ lba),
                    barrier.clone(),
                    ctx.now,
                ),
            };
            cost += c;
            match outcome {
                IssueOutcome::Issued | IssueOutcome::AlreadyAvailable => {
                    self.outstanding.push(barrier);
                    self.issued += 1;
                    issued_now += 1;
                }
                IssueOutcome::Retry => break,
            }
        }
        if issued_now == 0 {
            // Every SQ we tried was full; wait for the service to recycle
            // entries (this is where the synchronous model would deadlock if
            // nothing processed completions).
            WarpStep::Stall {
                retry_after: Cycles(SUBMIT_RETRY_CYCLES),
                wait: Wait::polling(WaitReason::Submit),
            }
        } else {
            WarpStep::Busy(cost)
        }
    }
}

impl KernelFactory for RandIoKernel {
    fn create_warp(&self, block: u32, warp: u32) -> Box<dyn WarpKernel> {
        // Launches use 256-thread blocks (8 warps per block).
        let warp_flat = block as u64 * 8 + warp as u64;
        let total_requests = self.params.requests_per_ssd * self.params.ssd_count as u64;
        let quota = total_requests.div_ceil(self.params.total_warps);
        Box::new(RandIoWarp {
            ctrl: Arc::clone(&self.ctrl),
            params: self.params,
            warp_flat,
            rng: SimRng::new(self.params.seed).fork(warp_flat),
            quota,
            issued: 0,
            outstanding: Vec::new(),
            window: 128,
            sleeper: None,
        })
    }
    fn name(&self) -> &str {
        match self.params.direction {
            IoDirection::Read => "randio-read",
            IoDirection::Write => "randio-write",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quota_covers_all_requests() {
        let params = RandIoParams {
            requests_per_ssd: 1000,
            ssd_count: 3,
            lba_space: 1 << 20,
            direction: IoDirection::Read,
            total_warps: 7,
            seed: 1,
        };
        let total = params.requests_per_ssd * params.ssd_count as u64;
        let quota = total.div_ceil(params.total_warps);
        assert!(quota * params.total_warps >= total);
    }
}
