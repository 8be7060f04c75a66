//! The cost-model constants used by every simulator in the workspace.
//!
//! All latency / throughput assumptions made by the GPU and SSD models are
//! collected here so that they can be audited and re-calibrated in one place.
//! Each constant documents its provenance: either a public
//! datasheet number, a number reported in the AGILE paper, or an explicitly
//! modelled value chosen to match the paper's qualitative behaviour.
//!
//! The constants are grouped into a [`CostModel`] struct so experiments can
//! run with perturbed models (the one-at-a-time sensitivity sweep ROADMAP
//! item 2 (c) plans; no such sweep exists yet), while
//! [`CostModel::default`] gives the calibrated values used to regenerate the
//! paper's figures.

use crate::clock::{Cycles, Nanos};

/// Cycles a warp with nothing to do but wait backs off before it polls again
/// (its retry grid: flash is tens of µs away, so re-probing every few hundred
/// cycles would only burn rounds). One calibrated value shared by every
/// kernel's poll loop, AGILE and BaM alike, so measured latencies stay
/// comparable.
pub const POLL_RETRY_CYCLES: u64 = 2_000;

/// The retry grid of a warp whose submission every SQ of its device refused
/// (the raw replay and random-I/O kernels): the service has to recycle an
/// entry first, so it backs off longer than [`POLL_RETRY_CYCLES`].
pub const SUBMIT_RETRY_CYCLES: u64 = 3_000;

/// GPU-side micro-operation costs, in core cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuCosts {
    /// Cost of an L2/HBM global-memory access issued by a warp
    /// (~400–600 cycles on Ada-class parts; we use the midpoint).
    pub global_mem_access: u64,
    /// Cost of a global-memory atomic (CAS / fetch-add) without contention.
    pub global_atomic: u64,
    /// Extra cycles burned per retry when an atomic/CAS loses a race.
    pub atomic_retry: u64,
    /// Cost of copying one 4 KiB page within HBM with a full warp
    /// (128 B/lane/iteration, bandwidth-limited).
    pub hbm_page_copy: u64,
    /// Cost of a warp-level shuffle/ballot primitive (`__match_any_sync`-style).
    pub warp_primitive: u64,
    /// Cost of an uncached MMIO (PCIe BAR doorbell) write as seen by the
    /// issuing warp. Posted writes retire quickly from the SM's viewpoint.
    pub doorbell_write: u64,
    /// Cycles a polling loop iteration costs (load + compare + branch).
    pub poll_iteration: u64,
    /// Fixed per-kernel-launch overhead in cycles (driver + scheduler).
    pub kernel_launch: u64,
}

impl Default for GpuCosts {
    fn default() -> Self {
        GpuCosts {
            global_mem_access: 500,
            global_atomic: 350,
            atomic_retry: 120,
            hbm_page_copy: 900,
            warp_primitive: 20,
            doorbell_write: 700,
            poll_iteration: 80,
            kernel_launch: 5_000,
        }
    }
}

/// SSD / NVMe device timing model.
///
/// The read/write bandwidth ceilings are taken from the saturated values the
/// paper measures in Figures 5 and 6 (≈3.7 GB/s 4 KiB random read and
/// ≈2.2 GB/s 4 KiB random write per device); latency and queueing behaviour
/// are modelled with a channel-parallel flash back-end.
///
/// A command rung at `ring` is timed as follows (each term converted to
/// cycles on its own, rounding as [`Nanos::to_cycles`] does):
///
/// * fetch = `ring` + `command_fetch`;
/// * post = max(fetch, channel free) + pages × page service +
///   `controller_overhead` + `completion_post`.
///
/// So no command posts its CQE sooner than [`SsdCosts::post_delay`] after it
/// is fetched: the bound a CQ poller may look ahead by.
#[derive(Debug, Clone, PartialEq)]
pub struct SsdCosts {
    /// Number of independent flash channels (units of internal parallelism).
    pub channels: u32,
    /// Time to service one 4 KiB read on a channel once it is issued.
    pub read_page_service: Nanos,
    /// Time to service one 4 KiB write (program) on a channel.
    pub write_page_service: Nanos,
    /// Fixed controller latency added to every command after its flash
    /// service (FTL lookup, data DMA); the fetch is `command_fetch`.
    pub controller_overhead: Nanos,
    /// Latency for the SSD to observe a doorbell write and DMA the SQE out
    /// of GPU HBM.
    pub command_fetch: Nanos,
    /// Time for the completion entry DMA into the CQ in GPU HBM.
    pub completion_post: Nanos,
}

impl SsdCosts {
    /// The fixed part of every command's time from fetch to CQE post,
    /// `controller_overhead` + `completion_post`, in cycles at `clock_ghz`:
    /// what the device adds after flash service, and so the least time any
    /// command fetched at `t` takes to post (the formula is in the type
    /// docs).
    pub fn post_delay(&self, clock_ghz: f64) -> Cycles {
        self.controller_overhead.to_cycles(clock_ghz) + self.completion_post.to_cycles(clock_ghz)
    }
}

impl Default for SsdCosts {
    fn default() -> Self {
        SsdCosts {
            channels: 16,
            // 16 channels * 4096 B / 17.7 µs ≈ 3.70 GB/s aggregate read.
            read_page_service: Nanos::new(17_700),
            // 16 channels * 4096 B / 29.8 µs ≈ 2.20 GB/s aggregate write.
            write_page_service: Nanos::new(29_800),
            controller_overhead: Nanos::new(6_000),
            command_fetch: Nanos::new(2_000),
            completion_post: Nanos::new(1_000),
        }
    }
}

/// Cost model for the device-side *API implementations* being compared
/// (AGILE vs the BaM-style baseline). These are the per-call instruction
/// footprints of the two libraries, expressed in cycles, excluding the shared
/// hardware costs above. They encode the implementation differences the paper
/// attributes its API-overhead reductions to (§4.5): AGILE's state-word cache
/// protocol vs BaM's lock-held critical sections, and AGILE's offloaded CQ
/// polling vs BaM's per-thread polling.
#[derive(Debug, Clone, PartialEq)]
pub struct ApiCosts {
    /// AGILE: software-cache lookup on the hit path (hash + state check +
    /// reference pin via one CAS).
    pub agile_cache_hit: u64,
    /// AGILE: extra work on the miss path before the NVMe command is built
    /// (line reservation, state transition to BUSY).
    pub agile_cache_miss: u64,
    /// AGILE: building + enqueuing one NVMe command (Algorithm 2 fast path).
    pub agile_issue: u64,
    /// AGILE: checking a transaction barrier (`AgileBuf::wait` single probe).
    pub agile_barrier_probe: u64,
    /// BaM: software-cache lookup on the hit path (lock acquire + check +
    /// release).
    pub bam_cache_hit: u64,
    /// BaM: extra work on the miss path (lock held across eviction decision).
    pub bam_cache_miss: u64,
    /// BaM: building + enqueuing one NVMe command (ticket lock on the SQ).
    pub bam_issue: u64,
    /// BaM: one iteration of the per-thread CQ polling loop.
    pub bam_cq_poll: u64,
    /// AGILE service: cycles for one warp-centric CQ polling round
    /// (Algorithm 1) — paid by the service warps, not by user threads.
    pub agile_service_poll_round: u64,
    /// AGILE service: cycles a service warp backs off after a polling round
    /// that found no completion (the simulation equivalent of a
    /// `__nanosleep` in the persistent kernel's empty-poll path). It spaces
    /// the warp's sweep grid in simulated time, so it moves pickup latency;
    /// the idle sweeps on that grid are mostly not executed — a service warp
    /// reads the devices' scheduled completions and sleeps to the first
    /// sweep that will find one.
    pub agile_service_idle_backoff: u64,
}

impl Default for ApiCosts {
    fn default() -> Self {
        ApiCosts {
            agile_cache_hit: 140,
            agile_cache_miss: 320,
            agile_issue: 380,
            agile_barrier_probe: 60,
            bam_cache_hit: 300,
            bam_cache_miss: 700,
            bam_issue: 520,
            bam_cq_poll: 160,
            agile_service_poll_round: 220,
            agile_service_idle_backoff: 1_000,
        }
    }
}

/// Compute-throughput model used for the DLRM MLP (cuBLAS substitute) and the
/// graph kernels' arithmetic.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeCosts {
    /// Peak FP32 multiply-add throughput per cycle across the whole GPU
    /// (#CUDA cores × 2 flops). RTX 5000 Ada: 12 800 cores.
    pub peak_flops_per_cycle: f64,
    /// Achieved fraction of peak for the DLRM GEMM sizes (cuBLAS on
    /// 512–2048-sized GEMMs typically reaches 25–50 % of peak).
    pub gemm_efficiency: f64,
    /// Cycles per simple ALU op for scalar per-thread computation phases.
    pub alu_op: u64,
}

impl Default for ComputeCosts {
    fn default() -> Self {
        ComputeCosts {
            peak_flops_per_cycle: 25_600.0,
            gemm_efficiency: 0.35,
            alu_op: 4,
        }
    }
}

/// The complete cost model: one value threaded through every simulator.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CostModel {
    /// GPU micro-operation costs.
    pub gpu: GpuCosts,
    /// SSD timing model.
    pub ssd: SsdCosts,
    /// Library API implementation costs.
    pub api: ApiCosts,
    /// Compute throughput model.
    pub compute: ComputeCosts,
}

impl CostModel {
    /// Cycles to execute a dense `m × k` by `k × n` GEMM on the simulated GPU.
    pub fn gemm_cycles(&self, m: u64, n: u64, k: u64) -> Cycles {
        let flops = 2.0 * m as f64 * n as f64 * k as f64;
        let per_cycle = self.compute.peak_flops_per_cycle * self.compute.gemm_efficiency;
        // Small GEMMs cannot use the whole machine: clamp to a floor of one
        // kernel launch worth of work.
        let cycles = (flops / per_cycle).ceil() as u64 + self.gpu.kernel_launch;
        Cycles(cycles)
    }

    /// Aggregate 4 KiB random-read bandwidth ceiling of one SSD, in GB/s.
    pub fn ssd_read_bw_gbps(&self) -> f64 {
        let per_channel = 4096.0 / self.ssd.read_page_service.raw() as f64; // bytes/ns
        per_channel * self.ssd.channels as f64
    }

    /// Aggregate 4 KiB random-write bandwidth ceiling of one SSD, in GB/s.
    pub fn ssd_write_bw_gbps(&self) -> f64 {
        let per_channel = 4096.0 / self.ssd.write_page_service.raw() as f64; // bytes/ns
        per_channel * self.ssd.channels as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ssd_bandwidth_matches_paper_saturation() {
        let m = CostModel::default();
        let read = m.ssd_read_bw_gbps();
        let write = m.ssd_write_bw_gbps();
        // Paper Figure 5/6: ~3.7 GB/s read and ~2.2 GB/s write per SSD.
        assert!((read - 3.7).abs() < 0.1, "read bw {read}");
        assert!((write - 2.2).abs() < 0.1, "write bw {write}");
    }

    #[test]
    fn gemm_cost_scales_with_size() {
        let m = CostModel::default();
        let small = m.gemm_cycles(64, 64, 64);
        let big = m.gemm_cycles(1024, 1024, 1024);
        assert!(big > small);
        // 1024^3*2 flops at 25_600*0.35 flops/cycle ≈ 240k cycles + launch.
        assert!(big.raw() > 200_000 && big.raw() < 400_000, "{big}");
    }

    #[test]
    fn api_costs_favour_agile() {
        let a = ApiCosts::default();
        assert!(a.agile_cache_hit < a.bam_cache_hit);
        assert!(a.agile_cache_miss < a.bam_cache_miss);
        assert!(a.agile_issue < a.bam_issue);
    }

    #[test]
    fn cost_model_clone_equality() {
        let m = CostModel::default();
        let cloned = m.clone();
        assert_eq!(m, cloned);
        let mut perturbed = m.clone();
        perturbed.gpu.global_atomic += 1;
        assert_ne!(m, perturbed);
    }
}
