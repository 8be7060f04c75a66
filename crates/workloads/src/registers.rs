//! Per-thread register models for the Figure 12 comparison.
//!
//! Register allocation is a compiler decision we cannot reproduce without
//! `nvcc`, so the figure is regenerated from the static footprint model of
//! [`gpu_sim::registers`]: each kernel's total is its own arithmetic state
//! plus the footprint of every device-side API routine inlined into it. BaM
//! kernels additionally carry the in-kernel CQ-polling state; AGILE kernels
//! do not, because polling lives in the separate service kernel (37 registers
//! per thread, reported alongside). Each [`RegisterRow`] carries the
//! paper-reported values beside the modelled ones; the model lands within
//! 18 % of every paper value (the table is in [`gpu_sim::registers`]), and
//! a test holds it within 35 %.

use gpu_sim::registers::{agile_footprints, bam_footprints, KernelRegisterModel};

/// One row of the Figure 12 table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterRow {
    /// Kernel name.
    pub kernel: String,
    /// Modelled per-thread registers for the BaM implementation.
    pub bam_registers: u32,
    /// Modelled per-thread registers for the AGILE implementation.
    pub agile_registers: u32,
    /// Paper-reported BaM registers (for the comparison column).
    pub paper_bam: u32,
    /// Paper-reported AGILE registers.
    pub paper_agile: u32,
}

impl RegisterRow {
    /// Modelled BaM / AGILE ratio.
    pub fn ratio(&self) -> f64 {
        self.bam_registers as f64 / self.agile_registers as f64
    }
}

/// Kernel descriptors: name, base registers, and how many distinct
/// data-access call sites the kernel contains.
fn kernel_shapes() -> Vec<(&'static str, u32, u32, (u32, u32))> {
    // (name, base registers, access sites, (paper BaM, paper AGILE))
    vec![
        ("vector-mean", 36, 1, (56, 54)),
        ("bfs", 30, 1, (56, 46)),
        ("spmv", 30, 2, (74, 56)),
    ]
}

/// Build the AGILE register model for a kernel with `sites` access call sites.
pub fn agile_model(name: &str, base: u32, sites: u32) -> KernelRegisterModel {
    let mut m = KernelRegisterModel::new(name, base);
    for _ in 0..sites {
        m = m
            .with(agile_footprints::cache_access())
            .with(agile_footprints::warp_coalesce());
    }
    m
}

/// Build the BaM register model for a kernel with `sites` access call sites.
pub fn bam_model(name: &str, base: u32, sites: u32) -> KernelRegisterModel {
    let mut m = KernelRegisterModel::new(name, base);
    for _ in 0..sites {
        m = m.with(bam_footprints::cache_access());
    }
    // Synchronous issue + in-kernel polling state appear once per kernel.
    m.with(bam_footprints::sync_issue())
        .with(bam_footprints::cq_poll())
}

/// The Figure 12 table.
pub fn figure12_rows() -> Vec<RegisterRow> {
    kernel_shapes()
        .into_iter()
        .map(
            |(name, base, sites, (paper_bam, paper_agile))| RegisterRow {
                kernel: name.to_string(),
                bam_registers: bam_model(name, base, sites).total(),
                agile_registers: agile_model(name, base, sites).total(),
                paper_bam,
                paper_agile,
            },
        )
        .collect()
}

/// Per-thread registers of the AGILE service kernel (paper: 37).
pub fn service_kernel_registers() -> u32 {
    agile_footprints::SERVICE_KERNEL_REGISTERS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_three_kernels_and_agile_always_wins() {
        let rows = figure12_rows();
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(
                row.agile_registers < row.bam_registers,
                "{}: AGILE must use fewer registers",
                row.kernel
            );
            assert!(row.ratio() > 1.0 && row.ratio() < 1.6, "{}", row.kernel);
        }
    }

    #[test]
    fn spmv_shows_the_largest_gap() {
        // The paper's largest reduction (1.32×) is on SpMV, which has the most
        // API call sites; the model must preserve that ordering.
        let rows = figure12_rows();
        let spmv = rows.iter().find(|r| r.kernel == "spmv").unwrap();
        let vm = rows.iter().find(|r| r.kernel == "vector-mean").unwrap();
        assert!(spmv.bam_registers - spmv.agile_registers >= vm.bam_registers - vm.agile_registers);
    }

    #[test]
    fn service_registers_match_paper() {
        assert_eq!(service_kernel_registers(), 37);
    }

    #[test]
    fn modelled_values_are_in_the_paper_ballpark() {
        for row in figure12_rows() {
            let bam_err =
                (row.bam_registers as f64 - row.paper_bam as f64).abs() / row.paper_bam as f64;
            let agile_err = (row.agile_registers as f64 - row.paper_agile as f64).abs()
                / row.paper_agile as f64;
            assert!(bam_err < 0.35, "{}: BaM model too far off", row.kernel);
            assert!(agile_err < 0.35, "{}: AGILE model too far off", row.kernel);
        }
    }
}
