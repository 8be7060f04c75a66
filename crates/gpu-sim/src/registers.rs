//! Static per-thread register-footprint model (paper Figure 12).
//!
//! The paper reports the per-thread register counts `nvcc` allocates for
//! three application kernels implemented on top of BaM and AGILE, and for the
//! AGILE service kernel. We cannot run the CUDA compiler, so this module
//! models the *cause* the paper identifies: a kernel's register footprint is
//! its own arithmetic state plus the live state of every device-side API
//! routine inlined into it; AGILE's routines are leaner and, crucially, AGILE
//! offloads CQ polling into the separate service kernel so user kernels do
//! not carry the poll-loop state at all.
//!
//! The model is `registers = base + Σ footprint(api routine)`, clamped to the
//! hardware maximum of 255 registers per thread. The footprint constants are
//! calibrated so the modelled totals land close to the paper's measurements.
//! Modelled vs paper, BaM / AGILE registers per thread (the kernels are
//! defined in `agile-workloads`' `registers` module):
//!
//! | kernel | modelled | paper |
//! |---|---|---|
//! | vector-mean | 66 / 50 | 56 / 54 |
//! | bfs | 60 / 44 | 56 / 46 |
//! | spmv | 74 / 58 | 74 / 56 |
//! | AGILE service kernel | 37 | 37 |
//!
//! The deviation: on the two kernels with one access site the model
//! overstates BaM (by up to 18 %) and understates AGILE (by up to 8 %); on
//! spmv it is within 4 %. Every kernel keeps the paper's ordering, AGILE
//! below BaM.

/// Hardware limit on registers per thread (NVIDIA parts).
pub const MAX_REGISTERS_PER_THREAD: u32 = 255;

/// A named register contribution of one device-side API routine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterFootprint {
    /// Routine name (for reports).
    pub name: String,
    /// Registers the routine keeps live in the calling kernel.
    pub registers: u32,
}

impl RegisterFootprint {
    /// Convenience constructor.
    pub fn new(name: &str, registers: u32) -> Self {
        RegisterFootprint {
            name: name.to_string(),
            registers,
        }
    }
}

/// Register footprints of the AGILE device-side API (per routine inlined into
/// a user kernel). CQ polling contributes zero because it lives in the
/// service kernel.
pub mod agile_footprints {
    use super::RegisterFootprint;

    /// Software-cache access path (`prefetch` / array operator).
    pub fn cache_access() -> RegisterFootprint {
        RegisterFootprint::new("agile::cache_access", 10)
    }
    /// Asynchronous issue path (`asyncRead` / `asyncWrite`, Algorithm 2).
    pub fn async_issue() -> RegisterFootprint {
        RegisterFootprint::new("agile::async_issue", 12)
    }
    /// Transaction-barrier wait (`AgileBuf::wait`).
    pub fn barrier_wait() -> RegisterFootprint {
        RegisterFootprint::new("agile::barrier_wait", 4)
    }
    /// Warp-level coalescing helper.
    pub fn warp_coalesce() -> RegisterFootprint {
        RegisterFootprint::new("agile::warp_coalesce", 4)
    }
    /// Per-thread registers of the dedicated AGILE service kernel itself
    /// (paper: 37 registers).
    pub const SERVICE_KERNEL_REGISTERS: u32 = 37;
}

/// Register footprints of the BaM-style synchronous API.
pub mod bam_footprints {
    use super::RegisterFootprint;

    /// Software-cache access path (lock acquire/release + line bookkeeping).
    pub fn cache_access() -> RegisterFootprint {
        RegisterFootprint::new("bam::cache_access", 14)
    }
    /// Synchronous read/write issue path.
    pub fn sync_issue() -> RegisterFootprint {
        RegisterFootprint::new("bam::sync_issue", 8)
    }
    /// In-kernel CQ polling loop state (head, phase, CID match, doorbell).
    pub fn cq_poll() -> RegisterFootprint {
        RegisterFootprint::new("bam::cq_poll", 8)
    }
}

/// The register model of one kernel variant.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRegisterModel {
    /// Kernel name.
    pub kernel: String,
    /// Registers the kernel's own computation keeps live.
    pub base: u32,
    /// API routines linked into the kernel.
    pub api: Vec<RegisterFootprint>,
}

impl KernelRegisterModel {
    /// Start a model for `kernel` with the kernel's own register need.
    pub fn new(kernel: &str, base: u32) -> Self {
        KernelRegisterModel {
            kernel: kernel.to_string(),
            base,
            api: Vec::new(),
        }
    }

    /// Add an API routine's footprint.
    pub fn with(mut self, fp: RegisterFootprint) -> Self {
        self.api.push(fp);
        self
    }

    /// Total per-thread registers, clamped to the hardware maximum.
    pub fn total(&self) -> u32 {
        let sum = self.base + self.api.iter().map(|f| f.registers).sum::<u32>();
        sum.min(MAX_REGISTERS_PER_THREAD)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_accumulate_and_clamp() {
        let m = KernelRegisterModel::new("k", 20)
            .with(RegisterFootprint::new("a", 10))
            .with(RegisterFootprint::new("b", 5));
        assert_eq!(m.total(), 35);

        let big = KernelRegisterModel::new("k", 200).with(RegisterFootprint::new("a", 100));
        assert_eq!(big.total(), MAX_REGISTERS_PER_THREAD);
    }

    #[test]
    fn agile_api_is_leaner_than_bam() {
        let agile: u32 = [
            agile_footprints::cache_access().registers,
            agile_footprints::async_issue().registers,
            agile_footprints::barrier_wait().registers,
        ]
        .iter()
        .sum();
        let bam: u32 = [
            bam_footprints::cache_access().registers,
            bam_footprints::sync_issue().registers,
            bam_footprints::cq_poll().registers,
        ]
        .iter()
        .sum();
        assert!(
            agile < bam,
            "AGILE footprint {agile} must be below BaM {bam}"
        );
    }

    #[test]
    fn service_kernel_register_count_matches_paper() {
        assert_eq!(agile_footprints::SERVICE_KERNEL_REGISTERS, 37);
    }

    #[test]
    fn same_base_kernel_uses_fewer_registers_with_agile() {
        // Mirrors how Figure 12's kernels are constructed: identical kernel
        // base, different API stacks.
        let base = 30;
        let agile = KernelRegisterModel::new("spmv-agile", base)
            .with(agile_footprints::cache_access())
            .with(agile_footprints::async_issue())
            .with(agile_footprints::barrier_wait())
            .total();
        let bam = KernelRegisterModel::new("spmv-bam", base)
            .with(bam_footprints::cache_access())
            .with(bam_footprints::sync_issue())
            .with(bam_footprints::cq_poll())
            .total();
        assert!(agile < bam);
        // Ratio should be in the ballpark the paper reports (1.0–1.4×).
        let ratio = bam as f64 / agile as f64;
        assert!(ratio > 1.0 && ratio < 1.6, "ratio {ratio}");
    }
}
