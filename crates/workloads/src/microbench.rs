//! The computation-to-communication (CTC) micro-benchmark (§4.2, Figure 4).
//!
//! One thread block of 1024 threads (32 warps) issues 64 NVMe reads per
//! thread and computes on the returned data. Two execution modes are
//! compared:
//!
//! * **synchronous** — each iteration fetches its data (issue + wait) and
//!   only then computes, the BaM-style model;
//! * **asynchronous (AGILE)** — each iteration prefetches the *next*
//!   iteration's data before computing on the current one, overlapping
//!   communication with computation at the thread level.
//!
//! The harness varies the per-iteration compute time to sweep the CTC ratio
//! and reports speedup of async over sync, alongside the ideal-speedup curve
//! of Equation 1.

use crate::accessor::{AgileAccessor, PageAccessor};
use agile_core::AgileCtrl;
use agile_sim::Cycles;
use gpu_sim::{KernelFactory, WarpCtx, WarpKernel, WarpStep};
use nvme_sim::Lba;
use std::sync::Arc;

/// Ideal speedup from perfect overlap (Equation 1 of the paper).
pub fn ideal_speedup(ctc: f64) -> f64 {
    if ctc <= 1.0 {
        1.0 + ctc
    } else {
        1.0 + 1.0 / ctc
    }
}

/// Parameters of the micro-benchmark kernel.
#[derive(Debug, Clone, Copy)]
pub struct MicrobenchParams {
    /// NVMe reads each thread performs (the paper uses 64).
    pub requests_per_thread: u32,
    /// Compute cycles per iteration (per warp).
    pub compute_cycles: u64,
    /// Number of distinct pages per device the accesses are spread over.
    pub pages_per_dev: u64,
    /// Run the asynchronous (prefetching) variant.
    pub asynchronous: bool,
}

impl MicrobenchParams {
    /// The paper's setup: 64 requests per thread.
    pub fn paper(compute_cycles: u64, asynchronous: bool) -> Self {
        MicrobenchParams {
            requests_per_thread: 64,
            compute_cycles,
            pages_per_dev: 4_000_000,
            asynchronous,
        }
    }
}

/// Kernel factory for the micro-benchmark.
pub struct MicrobenchKernel {
    ctrl: Arc<AgileCtrl>,
    params: MicrobenchParams,
}

impl MicrobenchKernel {
    /// Build the kernel over an AGILE controller.
    pub fn new(ctrl: Arc<AgileCtrl>, params: MicrobenchParams) -> Self {
        MicrobenchKernel { ctrl, params }
    }
}

enum Phase {
    Prefetch,
    Compute,
    Fetch,
}

struct MicrobenchWarp {
    accessor: AgileAccessor,
    params: MicrobenchParams,
    warp_flat: u64,
    iter: u32,
    phase: Phase,
    /// The request vectors of the iteration being fetched and of the one
    /// prefetched ahead of it, each built once (a fetch is polled many
    /// times, and usually asks for what an earlier prefetch asked for).
    fetching: IterPages,
    ahead: IterPages,
}

/// The pages of one iteration, once built.
#[derive(Default)]
struct IterPages {
    iter: Option<u32>,
    pages: Vec<(u32, Lba)>,
}

/// Which page lane `lane` of iteration `iter` of one warp touches.
#[derive(Clone, Copy)]
struct PageMap {
    warp_flat: u64,
    requests_per_thread: u64,
    pages_per_dev: u64,
    devices: u64,
}

impl IterPages {
    /// Unique pages per (warp, iteration, lane): every access in the whole
    /// experiment touches a distinct page, so nothing is served from earlier
    /// iterations' residue and communication time is real.
    fn build(&mut self, map: PageMap, iter: u32, lanes: u32) {
        let lanes = lanes as u64;
        self.iter = Some(iter);
        self.pages.clear();
        self.pages.extend((0..lanes).map(|lane| {
            let idx = map.warp_flat * map.requests_per_thread * lanes + iter as u64 * lanes + lane;
            (
                (idx % map.devices) as u32,
                (idx / map.devices) % map.pages_per_dev,
            )
        }));
    }
}

impl MicrobenchWarp {
    fn page_map(&self) -> PageMap {
        PageMap {
            warp_flat: self.warp_flat,
            requests_per_thread: self.params.requests_per_thread as u64,
            pages_per_dev: self.params.pages_per_dev,
            devices: self.accessor.ctrl().io().device_count() as u64,
        }
    }
}

impl WarpKernel for MicrobenchWarp {
    fn step(&mut self, ctx: &WarpCtx) -> WarpStep {
        if self.iter >= self.params.requests_per_thread {
            return WarpStep::Done;
        }
        match self.phase {
            Phase::Prefetch => {
                // Asynchronous mode only: request the data of the *next*
                // iteration (or of iteration 0 at start-up) before computing.
                let target = if self.iter == 0 { 0 } else { self.iter + 1 };
                let mut cost = Cycles(1);
                if self.params.asynchronous && target < self.params.requests_per_thread {
                    self.ahead.build(self.page_map(), target, ctx.lanes);
                    cost = self
                        .accessor
                        .prefetch(self.warp_flat, &self.ahead.pages, ctx.now);
                }
                self.phase = Phase::Compute;
                WarpStep::Busy(cost)
            }
            Phase::Compute => {
                self.phase = Phase::Fetch;
                if self.params.compute_cycles == 0 {
                    WarpStep::Busy(Cycles(1))
                } else {
                    WarpStep::Busy(Cycles(self.params.compute_cycles))
                }
            }
            Phase::Fetch => {
                if self.fetching.iter != Some(self.iter) {
                    if self.ahead.iter == Some(self.iter) {
                        std::mem::swap(&mut self.fetching, &mut self.ahead);
                    } else {
                        self.fetching.build(self.page_map(), self.iter, ctx.lanes);
                    }
                }
                let r = self
                    .accessor
                    .access(self.warp_flat, &self.fetching.pages, ctx.now);
                if r.ready {
                    self.iter += 1;
                    self.phase = Phase::Prefetch;
                    WarpStep::Busy(r.cost)
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

impl KernelFactory for MicrobenchKernel {
    fn create_warp(&self, block: u32, warp: u32) -> Box<dyn WarpKernel> {
        Box::new(MicrobenchWarp {
            accessor: AgileAccessor::new(Arc::clone(&self.ctrl)),
            params: self.params,
            warp_flat: block as u64 * 32 + warp as u64,
            iter: 0,
            phase: if self.params.asynchronous {
                Phase::Prefetch
            } else {
                Phase::Compute
            },
            fetching: IterPages::default(),
            ahead: IterPages::default(),
        })
    }
    fn name(&self) -> &str {
        if self.params.asynchronous {
            "microbench-async"
        } else {
            "microbench-sync"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_speedup_matches_equation_1() {
        assert!((ideal_speedup(0.0) - 1.0).abs() < 1e-12);
        assert!((ideal_speedup(0.5) - 1.5).abs() < 1e-12);
        assert!((ideal_speedup(1.0) - 2.0).abs() < 1e-12);
        assert!((ideal_speedup(2.0) - 1.5).abs() < 1e-12);
        assert!((ideal_speedup(4.0) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn ideal_speedup_peaks_at_balanced_ctc() {
        let peak = ideal_speedup(1.0);
        for ctc in [0.1, 0.5, 0.9, 1.1, 1.5, 2.0] {
            assert!(ideal_speedup(ctc) <= peak + 1e-12);
        }
    }

    #[test]
    fn paper_params() {
        let p = MicrobenchParams::paper(1000, true);
        assert_eq!(p.requests_per_thread, 64);
        assert!(p.asynchronous);
    }
}
