//! GPU device configuration.

use agile_sim::units::{GIB, KIB};

/// Static description of the simulated GPU.
///
/// Only the resources that shape the paper's experiments are modelled:
/// SM count (parallelism), per-SM register file and warp/block limits
/// (occupancy, hence latency-hiding capacity), warp size, clock, and HBM
/// capacity (bounds the software cache).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Human-readable device name.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Threads per warp (32 on every NVIDIA part).
    pub warp_size: u32,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: u32,
    /// Maximum resident thread blocks per SM.
    pub max_blocks_per_sm: u32,
    /// 32-bit registers per SM.
    pub registers_per_sm: u32,
    /// Shared memory per SM in bytes.
    pub shared_mem_per_sm: u32,
    /// Maximum threads per thread block.
    pub max_threads_per_block: u32,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// HBM capacity in bytes.
    pub hbm_bytes: u64,
}

impl GpuConfig {
    /// The NVIDIA RTX 5000 Ada Generation card used in the paper's testbed:
    /// 100 SMs, 64 K registers and up to 48 resident warps per SM, 32 GB of
    /// GDDR6 (treated as the "HBM" tier that hosts the software cache).
    pub fn rtx_5000_ada() -> Self {
        GpuConfig {
            name: "RTX 5000 Ada (simulated)".to_string(),
            num_sms: 100,
            warp_size: 32,
            max_warps_per_sm: 48,
            max_blocks_per_sm: 24,
            registers_per_sm: 65_536,
            shared_mem_per_sm: 100 * KIB as u32,
            max_threads_per_block: 1024,
            clock_ghz: agile_sim::DEFAULT_GPU_CLOCK_GHZ,
            hbm_bytes: 32 * GIB,
        }
    }

    /// A deliberately small device used by unit tests so that occupancy
    /// limits and block-wave scheduling are exercised with tiny workloads.
    pub fn tiny(num_sms: u32) -> Self {
        GpuConfig {
            name: format!("tiny-{num_sms}"),
            num_sms,
            warp_size: 32,
            max_warps_per_sm: 8,
            max_blocks_per_sm: 4,
            registers_per_sm: 16_384,
            shared_mem_per_sm: 48 * KIB as u32,
            max_threads_per_block: 256,
            clock_ghz: agile_sim::DEFAULT_GPU_CLOCK_GHZ,
            hbm_bytes: GIB,
        }
    }

    /// Total resident-warp capacity of the device.
    pub fn total_warp_slots(&self) -> u32 {
        self.num_sms * self.max_warps_per_sm
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig::rtx_5000_ada()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ada_preset_is_sane() {
        let g = GpuConfig::rtx_5000_ada();
        assert_eq!(g.warp_size, 32);
        assert_eq!(g.num_sms, 100);
        assert_eq!(g.total_warp_slots(), 4800);
        assert!(g.hbm_bytes >= 16 * GIB);
    }

    #[test]
    fn tiny_preset_scales_with_sm_count() {
        let g = GpuConfig::tiny(2);
        assert_eq!(g.num_sms, 2);
        assert_eq!(g.total_warp_slots(), 16);
        assert!(g.max_threads_per_block <= 256);
    }

    #[test]
    fn default_is_ada() {
        assert_eq!(GpuConfig::default(), GpuConfig::rtx_5000_ada());
    }
}
