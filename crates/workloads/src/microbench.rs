//! The computation-to-communication (CTC) micro-benchmark (§4.2, Figure 4).
//!
//! One thread block of 1024 threads (32 warps) issues 64 NVMe reads per
//! thread and computes on the returned data. Two execution modes are
//! compared:
//!
//! * **synchronous** — each iteration computes, then fetches its data
//!   (issue + wait): `Compute → Fetch → BlockSync`, the BaM-style model;
//! * **asynchronous (AGILE)** — each iteration first issues its own fetch
//!   without waiting, computes while the reads are in flight, and only then
//!   waits for them: `Prefetch → Compute → Fetch → BlockSync`, overlapping
//!   communication with computation at the thread level.
//!
//! **Lockstep.** Equation 1's ideal speedup assumes each iteration of the
//! synchronous mode costs its communication *plus* its computation, which
//! holds only while the block's warps move in lockstep. Without a barrier
//! the 32 warps of a synchronous block drift apart on a shared device, and
//! each warp's compute hides behind the other warps' I/O — the very overlap
//! the asynchronous API claims to add. So every warp of a block, in both
//! modes, ends each iteration at a block-wide barrier (a `__syncthreads`
//! after the fetch) and starts the next one once all of the block's warps
//! have arrived. One warp is trivially in lockstep: there the barrier costs
//! nothing and changes nothing. Warps waiting at the barrier sleep on it
//! (the last arrival notifies them) instead of polling it.
//!
//! The harness varies the per-iteration compute time to sweep the CTC ratio
//! and reports speedup of async over sync, alongside the ideal-speedup curve
//! of Equation 1.

use crate::accessor::{AgileAccessor, PageAccessor};
use agile_core::AgileCtrl;
use agile_sim::wake::{SleeperId, Wait, WaitReason, WatchList};
use agile_sim::Cycles;
use gpu_sim::{KernelFactory, WarpCtx, WarpKernel, WarpStep};
use nvme_sim::Lba;
use parking_lot::Mutex;
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
    /// The barrier of each thread block, by block index.
    barriers: Mutex<Vec<Arc<BlockBarrier>>>,
}

impl MicrobenchKernel {
    /// Build the kernel over an AGILE controller.
    pub fn new(ctrl: Arc<AgileCtrl>, params: MicrobenchParams) -> Self {
        MicrobenchKernel {
            ctrl,
            params,
            barriers: Mutex::new(Vec::new()),
        }
    }
}

/// The barrier one thread block's warps meet at after every fetch.
#[derive(Default)]
struct BlockBarrier {
    /// `(generation, warps arrived in it)`: the last of the block's warps
    /// to arrive starts the next generation, which releases the others.
    state: Mutex<(u64, u32)>,
    /// The sleepers of the block's warps, notified on every release.
    watchers: WatchList,
}

impl BlockBarrier {
    /// Arrive as one of the block's `warps`. `None` when this arrival
    /// released the block; otherwise the generation to wait out.
    fn arrive(&self, warps: u32) -> Option<u64> {
        let mut state = self.state.lock();
        let (generation, arrived) = &mut *state;
        *arrived += 1;
        if *arrived < warps {
            return Some(*generation);
        }
        *arrived = 0;
        *generation += 1;
        drop(state);
        self.watchers.notify_all();
        None
    }

    /// True once the generation a warp arrived in has been released. Reads
    /// only, so a warp re-polling it may sleep until the next release.
    fn released(&self, generation: u64) -> bool {
        self.state.lock().0 != generation
    }
}

enum Phase {
    Prefetch,
    Compute,
    Fetch,
    /// At the block's barrier: about to arrive (`None`) or arrived in a
    /// generation not yet released.
    BlockSync(Option<u64>),
}

struct MicrobenchWarp {
    accessor: AgileAccessor,
    params: MicrobenchParams,
    iter: u32,
    phase: Phase,
    /// The requests of the iteration being prefetched or fetched, built
    /// once (a fetch is polled many times, and asks for what the prefetch
    /// of its iteration asked for).
    pages: IterPages,
    barrier: Arc<BlockBarrier>,
    /// The sleeper this warp waits at the barrier with (registered, and
    /// watching the barrier, from its first wait on).
    sleeper: Option<SleeperId>,
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

/// The warp's index in the grid, the key of its pages and of its accesses.
fn warp_flat(ctx: &WarpCtx) -> u64 {
    ctx.warp.block as u64 * ctx.block_warps as u64 + ctx.warp.warp as u64
}

impl MicrobenchWarp {
    /// The phase every iteration starts in: the asynchronous mode first
    /// issues the iteration's reads, the synchronous mode computes.
    fn first_phase(params: &MicrobenchParams) -> Phase {
        if params.asynchronous {
            Phase::Prefetch
        } else {
            Phase::Compute
        }
    }

    fn page_map(&self, ctx: &WarpCtx) -> PageMap {
        PageMap {
            warp_flat: warp_flat(ctx),
            requests_per_thread: self.params.requests_per_thread as u64,
            pages_per_dev: self.params.pages_per_dev,
            devices: self.accessor.ctrl().io().device_count() as u64,
        }
    }

    /// The barrier step: arrive (or re-check the generation arrived in).
    /// `None` once the block is released, and the warp goes on with the
    /// next iteration in the same step; otherwise the stall to wait in.
    fn block_sync(&mut self, ctx: &WarpCtx, arrived: Option<u64>) -> Option<WarpStep> {
        let generation = match arrived {
            None => self.barrier.arrive(ctx.block_warps)?,
            Some(generation) if self.barrier.released(generation) => return None,
            Some(generation) => generation,
        };
        self.phase = Phase::BlockSync(Some(generation));
        let sleeper = *self.sleeper.get_or_insert_with(|| {
            let hub = self.accessor.ctrl().io().wake_hub();
            let id = hub.register();
            self.barrier.watchers.watch(hub, id);
            id
        });
        // The retry grid is one spin of a polling loop. The re-polls are
        // pure, so the warp sleeps through them and is woken on this grid
        // after the last arrival; only a polling scheduler makes them.
        let spin = self.accessor.ctrl().config().costs.gpu.poll_iteration;
        Some(WarpStep::Stall {
            retry_after: Cycles(spin),
            wait: Wait::parked(WaitReason::BlockSync, sleeper),
        })
    }
}

impl WarpKernel for MicrobenchWarp {
    fn step(&mut self, ctx: &WarpCtx) -> WarpStep {
        if let Phase::BlockSync(arrived) = self.phase {
            if let Some(stall) = self.block_sync(ctx, arrived) {
                return stall;
            }
            self.phase = Self::first_phase(&self.params);
        }
        if self.iter >= self.params.requests_per_thread {
            return WarpStep::Done;
        }
        match self.phase {
            Phase::Prefetch => {
                // Asynchronous mode only: issue this iteration's reads
                // before computing, so the fetch after the compute only
                // waits for what is left.
                self.pages.build(self.page_map(ctx), self.iter, ctx.lanes);
                let cost = self
                    .accessor
                    .prefetch(warp_flat(ctx), &self.pages.pages, ctx.now);
                self.phase = Phase::Compute;
                WarpStep::Busy(cost)
            }
            Phase::Compute => {
                self.phase = Phase::Fetch;
                WarpStep::Busy(Cycles(self.params.compute_cycles.max(1)))
            }
            Phase::Fetch => {
                if self.pages.iter != Some(self.iter) {
                    self.pages.build(self.page_map(ctx), self.iter, ctx.lanes);
                }
                let r = self
                    .accessor
                    .access(warp_flat(ctx), &self.pages.pages, ctx.now);
                if r.ready {
                    self.iter += 1;
                    self.phase = Phase::BlockSync(None);
                    WarpStep::Busy(r.cost)
                } else {
                    WarpStep::Stall {
                        retry_after: r.retry_hint.max(r.cost),
                        wait: r.wait,
                    }
                }
            }
            Phase::BlockSync(_) => unreachable!("left above"),
        }
    }
}

impl KernelFactory for MicrobenchKernel {
    fn create_warp(&self, block: u32, _warp: u32) -> Box<dyn WarpKernel> {
        let barrier = {
            let mut barriers = self.barriers.lock();
            let block = block as usize;
            if barriers.len() <= block {
                barriers.resize_with(block + 1, Arc::default);
            }
            Arc::clone(&barriers[block])
        };
        Box::new(MicrobenchWarp {
            accessor: AgileAccessor::new(Arc::clone(&self.ctrl)),
            params: self.params,
            iter: 0,
            phase: MicrobenchWarp::first_phase(&self.params),
            pages: IterPages::default(),
            barrier,
            sleeper: None,
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
    use crate::experiments::fig04::run_once;
    use agile_sim::WakeHub;

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

    #[test]
    fn the_last_arrival_releases_the_block_and_wakes_its_sleepers() {
        let hub = WakeHub::new();
        let barrier = BlockBarrier::default();
        let generation = barrier.arrive(3).expect("first of three");
        let sleeper = hub.register();
        barrier.watchers.watch(&hub, sleeper);
        hub.park(sleeper);
        assert_eq!(barrier.arrive(3), Some(generation));
        assert!(!barrier.released(generation) && !hub.has_fired());
        assert_eq!(barrier.arrive(3), None, "the third arrival releases");
        assert!(barrier.released(generation) && hub.has_fired());
        assert_eq!(barrier.arrive(3), Some(generation + 1), "starts afresh");
        assert_eq!(
            BlockBarrier::default().arrive(1),
            None,
            "one warp never waits"
        );
    }

    /// One warp is in lockstep with itself, so the barrier must change
    /// nothing there. Elapsed cycles of one-warp synchronous launches (16
    /// reads per thread on the Figure 4 stack), recorded before the barrier
    /// existed, less one cycle for each of the 15 iterations that used to
    /// start with a one-cycle step issuing nothing.
    #[test]
    fn one_warp_sync_launches_are_unchanged_by_the_barrier() {
        assert_eq!(run_once(32, 16, 0, false), 1_888_351 - 15);
        assert_eq!(run_once(32, 16, 20_000, false), 2_208_335 - 15);
    }

    /// At CTC 0 there is nothing to overlap: one 1024-thread block takes its
    /// communication time in both modes.
    #[test]
    fn at_zero_compute_async_and_sync_take_the_same_time() {
        let sync = run_once(1024, 16, 0, false);
        let asynchronous = run_once(1024, 16, 0, true);
        assert!(
            sync.abs_diff(asynchronous) * 1000 <= sync,
            "sync {sync} vs async {asynchronous} cycles"
        );
    }

    /// At a large CTC the asynchronous mode hides the communication but not
    /// the computation, and the synchronous mode, in lockstep, pays both:
    /// its elapsed time is the communication-only time plus the compute
    /// (Equation 1's premise), to 0.1 %.
    #[test]
    fn at_large_ctc_compute_bounds_async_and_adds_up_in_sync() {
        let (requests, compute) = (4, 10_000_000);
        let comm = run_once(1024, requests, 0, false);
        let asynchronous = run_once(1024, requests, compute, true);
        let sync = run_once(1024, requests, compute, false);
        let compute_total = requests as u64 * compute;
        assert!(
            asynchronous >= compute_total,
            "async {asynchronous} cycles, less than its {compute_total} of compute"
        );
        assert!(asynchronous < sync, "async {asynchronous} vs sync {sync}");
        let additive = comm + compute_total;
        assert!(
            sync.abs_diff(additive) * 1000 <= additive,
            "sync {sync} vs comm {comm} + compute {compute_total}"
        );
    }
}
