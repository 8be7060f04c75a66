//! Kernels, launch configurations, warps-as-state-machines and occupancy.
//!
//! A simulated CUDA kernel is a [`KernelFactory`] that manufactures one
//! [`WarpKernel`] state machine per warp when the engine places the warp's
//! thread block on an SM. Each [`WarpKernel::step`] call advances the warp by
//! one coarse-grained slice of work (a compute phase, an API call, a poll of
//! a barrier, …) and reports how long that slice keeps the warp busy — or
//! that the warp is stalled and when it should be re-polled.

use crate::config::GpuConfig;
use agile_sim::wake::Wait;
use agile_sim::Cycles;

/// Identifier of a launched kernel within an [`crate::engine::Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KernelId(pub u32);

/// Identity of one warp of one launched kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WarpId {
    /// Which kernel launch this warp belongs to.
    pub kernel: KernelId,
    /// Thread-block index within the grid (flattened).
    pub block: u32,
    /// Warp index within the block.
    pub warp: u32,
}

impl WarpId {
    /// A globally unique flat index (useful for seeding per-warp RNG streams
    /// or selecting NVMe queues, as the paper does "based on its thread
    /// index").
    pub fn flat(&self, warps_per_block: u32) -> u64 {
        (self.kernel.0 as u64) << 48
            | (self.block as u64 * warps_per_block as u64 + self.warp as u64)
    }
}

/// Kernel launch configuration (the `<<<gridDim, blockDim>>>` analogue plus
/// the static per-thread resource footprint the compiler would report).
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchConfig {
    /// Number of thread blocks in the grid.
    pub grid_dim: u32,
    /// Threads per block (must be a multiple of the warp size).
    pub block_dim: u32,
    /// Registers per thread (affects occupancy; see Figure 12).
    pub registers_per_thread: u32,
    /// Shared memory per block in bytes.
    pub shared_mem_per_block: u32,
    /// Persistent kernels (the AGILE service) run until explicitly stopped
    /// and do not gate engine completion.
    pub persistent: bool,
}

impl LaunchConfig {
    /// A simple launch with the given grid/block dimensions and a default
    /// 32-register footprint.
    pub fn new(grid_dim: u32, block_dim: u32) -> Self {
        LaunchConfig {
            grid_dim,
            block_dim,
            registers_per_thread: 32,
            shared_mem_per_block: 0,
            persistent: false,
        }
    }

    /// Set the per-thread register footprint.
    pub fn with_registers(mut self, regs: u32) -> Self {
        self.registers_per_thread = regs;
        self
    }

    /// Set the shared-memory-per-block footprint.
    pub fn with_shared_mem(mut self, bytes: u32) -> Self {
        self.shared_mem_per_block = bytes;
        self
    }

    /// Mark the kernel persistent (service kernels).
    pub fn persistent(mut self) -> Self {
        self.persistent = true;
        self
    }

    /// Warps per block under the device's warp size.
    pub fn warps_per_block(&self, gpu: &GpuConfig) -> u32 {
        debug_assert_eq!(self.block_dim % gpu.warp_size, 0);
        self.block_dim / gpu.warp_size
    }

    /// Total warps in the grid.
    pub fn total_warps(&self, gpu: &GpuConfig) -> u64 {
        self.grid_dim as u64 * self.warps_per_block(gpu) as u64
    }
}

/// Maximum number of this kernel's blocks that can be resident on one SM,
/// limited by the block/warp/register/shared-memory budgets — the
/// `cudaOccupancyMaxActiveBlocksPerMultiprocessor` analogue the host code
/// queries in Listing 1 (`queryOccupancy`).
pub fn occupancy(gpu: &GpuConfig, launch: &LaunchConfig) -> u32 {
    assert!(
        launch.block_dim <= gpu.max_threads_per_block,
        "block_dim {} exceeds device limit {}",
        launch.block_dim,
        gpu.max_threads_per_block
    );
    assert!(
        launch.block_dim.is_multiple_of(gpu.warp_size),
        "block_dim must be a warp-size multiple"
    );
    let warps_per_block = launch.block_dim / gpu.warp_size;
    let by_blocks = gpu.max_blocks_per_sm;
    let by_warps = gpu.max_warps_per_sm / warps_per_block.max(1);
    let regs_per_block = launch.registers_per_thread * launch.block_dim;
    let by_regs = gpu
        .registers_per_sm
        .checked_div(regs_per_block)
        .unwrap_or(u32::MAX);
    let by_smem = gpu
        .shared_mem_per_sm
        .checked_div(launch.shared_mem_per_block)
        .unwrap_or(u32::MAX);
    by_blocks.min(by_warps).min(by_regs).min(by_smem)
}

/// What a warp did during one `step` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpStep {
    /// The warp executed work that keeps it busy for the given number of
    /// cycles; it will not be stepped again until that time has elapsed.
    Busy(Cycles),
    /// The warp cannot make progress (waiting on an I/O barrier, a BUSY cache
    /// line, a lock, …).
    ///
    /// # Polling vs waiting
    ///
    /// `retry_after` defines the warp's **retry grid**: the times `t + k ·
    /// retry_after` (`t` = this step, `k ≥ 1`) at which a polling scheduler
    /// would step it again. `wait` says what to do about them:
    ///
    /// * [`Wait::polling`] — step the warp at every grid point. Required
    ///   whenever a retry is *impure*: it may submit a command, take an
    ///   SQ's submit lock, reserve or evict a cache line, consume a completion —
    ///   anything another warp could observe.
    /// * [`Wait::parked`] — the retries are **pure** until one of the things
    ///   the warp registered its sleeper with happens: each would find the
    ///   same state, return this same stall, and move nothing but the
    ///   warp's own poll counters and trace records. The engine may then
    ///   keep the warp **off the ready queue** until its sleeper is
    ///   notified and wake it at the first grid point at or after the event
    ///   — in the event's own cycle only if the warp sorts after the
    ///   notifying warp in `(sm, slot)` order, i.e. only if polling would
    ///   have stepped it after the event too. The polls in between are not
    ///   made, so they count nowhere; their `retry_after`s still count as
    ///   stall time. The kernel must have registered the sleeper with
    ///   **every** producer that can end the wait before returning; a
    ///   wake-up for any other reason is harmless (the warp is simply polled
    ///   at a grid point).
    /// * [`Wait::queued`] on a parked wait — the retries are also ended by
    ///   a unit granted to a counting queue of the hub (an SQ slot of a
    ///   full device): each granted unit wakes, by the same rule, the one
    ///   waiter whose grid reaches a poll first. A queue's waiters share one
    ///   grid interval; a warp on another one is polled.
    /// * [`Wait::until`] on a parked wait — the retries are pure only up to
    ///   a deadline on the grid, where the engine wakes the warp without a
    ///   producer.
    /// * [`Wait::after_busy`] — the step was busy until a time past `now`
    ///   first: that is busy time, and the grid starts there instead of one
    ///   `retry_after` on.
    ///
    /// A parked warp is indistinguishable in simulated time from one that
    /// was polled, and its poll counts are at most the polled ones —
    /// [`crate::EngineSched::FullScan`] never parks and is the reference the
    /// parking scheduler is tested against.
    Stall {
        /// Cycles to wait before re-polling this warp (the grid spacing); it
        /// must be at least one cycle.
        retry_after: Cycles,
        /// Why the warp waits, and whether it may sleep meanwhile.
        wait: Wait,
    },
    /// The warp has retired.
    Done,
}

/// Execution context handed to every [`WarpKernel::step`] call.
#[derive(Debug, Clone, Copy)]
pub struct WarpCtx {
    /// Current simulated time.
    pub now: Cycles,
    /// Identity of the warp being stepped.
    pub warp: WarpId,
    /// Number of active lanes in this warp (the tail warp of a block whose
    /// `block_dim` is not a warp multiple would have fewer; in this model it
    /// is always the full warp size).
    pub lanes: u32,
    /// Warps in this warp's thread block (`block_dim / warp_size` of the
    /// launch): how many warps a block-wide barrier waits for.
    pub block_warps: u32,
    /// GPU core clock in GHz (for converting nanosecond latencies).
    pub clock_ghz: f64,
}

/// Device code, expressed at warp granularity.
///
/// Implementations hold whatever state the warp needs across steps (loop
/// indices, outstanding transaction barriers, …) plus `Arc`s to the shared
/// structures (AGILE controller, caches, queues).
pub trait WarpKernel: Send {
    /// Execute the warp's next slice of work.
    fn step(&mut self, ctx: &WarpCtx) -> WarpStep;

    // Unused: nothing in this workspace implements or calls the next three.
    // They keep these signatures only because `benchmark/src/decorate.rs`
    // forwards them and the benchmark package is frozen against this crate's
    // API; delete them together with those forwards (see ROADMAP).
    #[doc(hidden)]
    fn parallel_capable(&self) -> bool {
        false
    }
    #[doc(hidden)]
    fn plan_step(&mut self, _ctx: &WarpCtx) -> bool {
        false
    }
    #[doc(hidden)]
    fn commit_step(&mut self, ctx: &WarpCtx, _epoch_clean: bool) -> WarpStep {
        self.step(ctx)
    }
}

/// Manufactures the per-warp state machines of a kernel when its blocks are
/// placed on SMs.
pub trait KernelFactory: Send {
    /// Create the state machine for warp `warp` of block `block`.
    fn create_warp(&self, block: u32, warp: u32) -> Box<dyn WarpKernel>;

    /// Human-readable kernel name (for reports).
    fn name(&self) -> &str {
        "kernel"
    }
}

/// A trivial kernel whose warps compute for a fixed number of cycles and
/// finish. Used by engine tests and as a building block for calibration.
pub struct ComputeOnlyKernel {
    /// Busy time per warp.
    pub cycles_per_warp: Cycles,
    /// Number of equal steps to split the work into.
    pub steps: u32,
}

struct ComputeOnlyWarp {
    remaining_steps: u32,
    per_step: Cycles,
}

impl WarpKernel for ComputeOnlyWarp {
    fn step(&mut self, _ctx: &WarpCtx) -> WarpStep {
        if self.remaining_steps == 0 {
            return WarpStep::Done;
        }
        self.remaining_steps -= 1;
        WarpStep::Busy(self.per_step)
    }
}

impl KernelFactory for ComputeOnlyKernel {
    fn create_warp(&self, _block: u32, _warp: u32) -> Box<dyn WarpKernel> {
        Box::new(ComputeOnlyWarp {
            remaining_steps: self.steps.max(1),
            per_step: Cycles(self.cycles_per_warp.raw() / self.steps.max(1) as u64),
        })
    }
    fn name(&self) -> &str {
        "compute-only"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warp_id_flat_is_unique_within_kernel() {
        let a = WarpId {
            kernel: KernelId(0),
            block: 0,
            warp: 1,
        };
        let b = WarpId {
            kernel: KernelId(0),
            block: 1,
            warp: 0,
        };
        assert_ne!(a.flat(4), b.flat(4));
        assert_eq!(a.flat(4), 1);
        assert_eq!(b.flat(4), 4);
    }

    #[test]
    fn launch_config_builders() {
        let gpu = GpuConfig::rtx_5000_ada();
        let lc = LaunchConfig::new(10, 256)
            .with_registers(64)
            .with_shared_mem(1024)
            .persistent();
        assert_eq!(lc.warps_per_block(&gpu), 8);
        assert_eq!(lc.total_warps(&gpu), 80);
        assert!(lc.persistent);
        assert_eq!(lc.registers_per_thread, 64);
    }

    #[test]
    fn occupancy_limited_by_warps() {
        let gpu = GpuConfig::rtx_5000_ada();
        // 1024-thread blocks = 32 warps; 48 warps/SM ⇒ only 1 block fits.
        let lc = LaunchConfig::new(1, 1024).with_registers(32);
        assert_eq!(occupancy(&gpu, &lc), 1);
        // 128-thread blocks = 4 warps ⇒ warp limit allows 12.
        let lc = LaunchConfig::new(1, 128).with_registers(32);
        assert_eq!(occupancy(&gpu, &lc), 12);
    }

    #[test]
    fn occupancy_limited_by_registers() {
        let gpu = GpuConfig::rtx_5000_ada();
        // 256-thread blocks at 128 regs/thread = 32768 regs/block ⇒ 2 blocks.
        let lc = LaunchConfig::new(1, 256).with_registers(128);
        assert_eq!(occupancy(&gpu, &lc), 2);
        // Dropping to 64 regs/thread doubles it (until the warp limit caps it).
        let lc = LaunchConfig::new(1, 256).with_registers(64);
        assert_eq!(occupancy(&gpu, &lc), 4);
    }

    #[test]
    fn occupancy_limited_by_shared_memory() {
        let gpu = GpuConfig::rtx_5000_ada();
        let lc = LaunchConfig::new(1, 64)
            .with_registers(16)
            .with_shared_mem(40 * 1024);
        assert_eq!(occupancy(&gpu, &lc), 2);
    }

    #[test]
    #[should_panic(expected = "exceeds device limit")]
    fn occupancy_rejects_oversized_blocks() {
        let gpu = GpuConfig::tiny(1);
        let lc = LaunchConfig::new(1, 1024);
        occupancy(&gpu, &lc);
    }

    #[test]
    fn register_pressure_reduces_occupancy_monotonically() {
        // The motivation behind Figure 12: more registers per thread ⇒ fewer
        // resident blocks ⇒ less latency-hiding capacity.
        let gpu = GpuConfig::rtx_5000_ada();
        let mut last = u32::MAX;
        for regs in [32u32, 48, 64, 96, 128, 192, 255] {
            let lc = LaunchConfig::new(1, 256).with_registers(regs);
            let occ = occupancy(&gpu, &lc);
            assert!(occ <= last, "occupancy must not increase with registers");
            last = occ;
        }
    }

    #[test]
    fn compute_only_kernel_steps_to_completion() {
        let k = ComputeOnlyKernel {
            cycles_per_warp: Cycles(1000),
            steps: 4,
        };
        let mut w = k.create_warp(0, 0);
        let ctx = WarpCtx {
            now: Cycles::ZERO,
            warp: WarpId {
                kernel: KernelId(0),
                block: 0,
                warp: 0,
            },
            lanes: 32,
            block_warps: 1,
            clock_ghz: 2.5,
        };
        let mut busy = Cycles::ZERO;
        loop {
            match w.step(&ctx) {
                WarpStep::Busy(c) => busy += c,
                WarpStep::Done => break,
                WarpStep::Stall { .. } => panic!("compute-only never stalls"),
            }
        }
        assert_eq!(busy, Cycles(1000));
    }
}
