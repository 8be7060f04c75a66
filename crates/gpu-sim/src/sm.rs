//! Streaming-multiprocessor resident-state bookkeeping.
//!
//! The paper (§2.2) highlights the static resource allocation model of
//! current GPUs: once a thread block is scheduled onto an SM it occupies its
//! registers, shared memory and warp slots until every warp of the block
//! retires, even if those warps spend most of their time stalled. This module
//! tracks exactly that: which blocks are resident on an SM, what they
//! consume, and the per-warp execution state.

use crate::kernel::{WarpId, WarpKernel};
use crate::GpuConfig;
use agile_sim::wake::{QueueId, SleeperId, Wait};
use agile_sim::Cycles;

/// A warp the engine keeps off the ready queue: it stalled with a parkable
/// [`Wait`] and sleeps until its sleeper is notified (or its deadline comes).
/// Its retry grid is `next + k · every`, `k ≥ 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parked {
    /// The first grid point whose poll is not booked yet: one interval after
    /// the poll that parked the warp (or where [`Wait::after_busy`] put
    /// it), moved on past the end of a run it slept through.
    pub next: Cycles,
    /// Grid spacing (the stall's `retry_after`).
    pub every: Cycles,
    /// The sleeper that wakes it.
    pub sleeper: SleeperId,
    /// The counting queue it also waits in ([`Wait::queued`]).
    pub queue: Option<QueueId>,
    /// The grid point it wakes at without a notification ([`Wait::until`]).
    pub until: Option<Cycles>,
}

impl Parked {
    /// The parking poll of a queued wait (queued waits start their grid one
    /// interval after it).
    pub fn since(&self) -> Cycles {
        self.next - self.every
    }
}

/// One warp resident on an SM.
pub struct ResidentWarp {
    /// Identity of the warp.
    pub id: WarpId,
    /// Index of the owning kernel launch in the engine's kernel table.
    pub kernel_idx: usize,
    /// Index of the owning resident block in [`SmState::blocks`].
    pub block_slot: usize,
    /// The warp's state machine.
    pub state: Box<dyn WarpKernel>,
    /// Next time the scheduler may step this warp (meaningless while
    /// `parked`).
    pub ready_at: Cycles,
    /// The wait descriptor of the warp's last step when that was a stall
    /// (what a stall report prints); `None` after a busy step.
    pub wait: Option<Wait>,
    /// Set while the warp sleeps off the ready queue.
    pub parked: Option<Parked>,
    /// True once the warp returned [`crate::kernel::WarpStep::Done`].
    pub done: bool,
}

/// One thread block resident on an SM.
pub struct ResidentBlock {
    /// Index of the owning kernel launch.
    pub kernel_idx: usize,
    /// Flattened block index within the grid.
    pub block_idx: u32,
    /// Total warps in the block.
    pub warps_total: u32,
    /// Warps that have retired.
    pub warps_done: u32,
    /// Registers this block pins on the SM.
    pub regs: u32,
    /// Shared memory this block pins on the SM.
    pub smem: u32,
    /// True once all warps retired and the resources were released.
    pub retired: bool,
}

/// The mutable state of one SM.
pub struct SmState {
    /// SM index.
    pub id: u32,
    /// Resident blocks (retired entries are kept for reporting; their
    /// resources are released).
    pub blocks: Vec<ResidentBlock>,
    /// Resident warps, including retired ones until their block is cleaned up.
    pub warps: Vec<ResidentWarp>,
    /// Warp slots currently in use.
    pub used_warps: u32,
    /// Registers currently in use.
    pub used_regs: u32,
    /// Shared memory currently in use.
    pub used_smem: u32,
    /// Number of blocks currently resident (not retired).
    pub live_blocks: u32,
}

impl SmState {
    /// An empty SM.
    pub fn new(id: u32) -> Self {
        SmState {
            id,
            blocks: Vec::new(),
            warps: Vec::new(),
            used_warps: 0,
            used_regs: 0,
            used_smem: 0,
            live_blocks: 0,
        }
    }

    /// Can a block with the given footprint be placed here?
    pub fn can_place(
        &self,
        gpu: &GpuConfig,
        warps: u32,
        regs_per_block: u32,
        smem_per_block: u32,
    ) -> bool {
        self.live_blocks < gpu.max_blocks_per_sm
            && self.used_warps + warps <= gpu.max_warps_per_sm
            && self.used_regs + regs_per_block <= gpu.registers_per_sm
            && self.used_smem + smem_per_block <= gpu.shared_mem_per_sm
    }

    /// Place a block and return the slot index its warps should reference.
    pub fn place_block(
        &mut self,
        kernel_idx: usize,
        block_idx: u32,
        warps: u32,
        regs_per_block: u32,
        smem_per_block: u32,
    ) -> usize {
        self.used_warps += warps;
        self.used_regs += regs_per_block;
        self.used_smem += smem_per_block;
        self.live_blocks += 1;
        self.blocks.push(ResidentBlock {
            kernel_idx,
            block_idx,
            warps_total: warps,
            warps_done: 0,
            regs: regs_per_block,
            smem: smem_per_block,
            retired: false,
        });
        self.blocks.len() - 1
    }

    /// Record that one warp of block `slot` retired. Returns true if the
    /// whole block retired with it (resources released).
    pub fn warp_retired(&mut self, slot: usize) -> bool {
        let block = &mut self.blocks[slot];
        debug_assert!(!block.retired, "warp retired on an already-retired block");
        block.warps_done += 1;
        if block.warps_done == block.warps_total {
            block.retired = true;
            self.used_warps -= block.warps_total;
            self.used_regs -= block.regs;
            self.used_smem -= block.smem;
            self.live_blocks -= 1;
            true
        } else {
            false
        }
    }

    /// Drop retired warps to keep the scheduler's scan short. Warps of
    /// non-retired blocks are kept even when individually done, because the
    /// block still pins its resources (static allocation model).
    pub fn compact(&mut self) {
        let blocks = &self.blocks;
        self.warps
            .retain(|w| !(w.done && blocks[w.block_slot].retired));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{KernelId, WarpCtx, WarpStep};

    struct NopWarp;
    impl WarpKernel for NopWarp {
        fn step(&mut self, _ctx: &WarpCtx) -> WarpStep {
            WarpStep::Done
        }
    }

    fn wid(block: u32, warp: u32) -> WarpId {
        WarpId {
            kernel: KernelId(0),
            block,
            warp,
        }
    }

    #[test]
    fn placement_respects_limits() {
        let gpu = GpuConfig::tiny(1); // 8 warps, 4 blocks, 16384 regs per SM
        let mut sm = SmState::new(0);
        assert!(sm.can_place(&gpu, 4, 8000, 0));
        sm.place_block(0, 0, 4, 8000, 0);
        // Second identical block exceeds neither warps (8) nor regs (16000).
        assert!(sm.can_place(&gpu, 4, 8000, 0));
        sm.place_block(0, 1, 4, 8000, 0);
        // Third block exceeds the warp limit.
        assert!(!sm.can_place(&gpu, 4, 400, 0));
        assert_eq!(sm.live_blocks, 2);
    }

    #[test]
    fn block_retirement_releases_resources() {
        let gpu = GpuConfig::tiny(1);
        let mut sm = SmState::new(0);
        let slot = sm.place_block(0, 0, 2, 1000, 512);
        for w in 0..2 {
            sm.warps.push(ResidentWarp {
                id: wid(0, w),
                kernel_idx: 0,
                block_slot: slot,
                state: Box::new(NopWarp),
                ready_at: Cycles::ZERO,
                wait: None,
                parked: None,
                done: false,
            });
        }
        assert!(!sm.warp_retired(slot));
        assert_eq!(sm.used_warps, 2);
        assert!(sm.warp_retired(slot));
        assert_eq!(sm.used_warps, 0);
        assert_eq!(sm.used_regs, 0);
        assert_eq!(sm.used_smem, 0);
        assert_eq!(sm.live_blocks, 0);
        assert!(sm.can_place(&gpu, 8, 16_000, 0));
    }

    #[test]
    fn compact_drops_only_retired_blocks_warps() {
        let mut sm = SmState::new(0);
        let s0 = sm.place_block(0, 0, 1, 100, 0);
        let s1 = sm.place_block(0, 1, 1, 100, 0);
        for (slot, block) in [(s0, 0), (s1, 1)] {
            sm.warps.push(ResidentWarp {
                id: wid(block, 0),
                kernel_idx: 0,
                block_slot: slot,
                state: Box::new(NopWarp),
                ready_at: Cycles::ZERO,
                wait: None,
                parked: None,
                done: true,
            });
        }
        // Retire only block 0.
        assert!(sm.warp_retired(s0));
        sm.compact();
        assert_eq!(sm.warps.len(), 1);
        assert_eq!(sm.warps[0].id.block, 1);
    }
}
