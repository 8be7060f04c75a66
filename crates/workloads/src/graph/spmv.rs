//! Row-parallel sparse matrix–vector multiplication.
//!
//! Each warp owns a strided set of matrix rows; for every row it pulls the
//! row's column-index and value pages through the storage stack under test
//! and accumulates `y[row] = Σ A[row, c] · x[c]`. The dense input vector `x`
//! lives in HBM. The floating-point result is computed for real (from the
//! host-resident CSR arrays) so tests can verify it against
//! [`CsrGraph::reference_spmv`] while the page traffic exercises the cache
//! and NVMe paths.

use super::csr::CsrGraph;
use crate::accessor::PageAccessor;
use agile_sim::Cycles;
use gpu_sim::{KernelFactory, WarpCtx, WarpKernel, WarpStep};
use parking_lot::Mutex;
use std::sync::Arc;

/// Shared SpMV state (input and output vectors).
pub struct SpmvState {
    /// The sparse matrix (as a graph).
    pub graph: Arc<CsrGraph>,
    /// Dense input vector.
    pub x: Vec<f32>,
    /// Output vector, filled by the kernel.
    pub y: Mutex<Vec<f32>>,
}

impl SpmvState {
    /// New state with the given input vector.
    pub fn new(graph: Arc<CsrGraph>, x: Vec<f32>) -> Arc<Self> {
        assert_eq!(x.len(), graph.num_vertices());
        let n = graph.num_vertices();
        Arc::new(SpmvState {
            graph,
            x,
            y: Mutex::new(vec![0.0; n]),
        })
    }

    /// The result vector (after the kernel ran).
    pub fn result(&self) -> Vec<f32> {
        self.y.lock().clone()
    }
}

/// The SpMV kernel factory.
pub struct SpmvKernel {
    state: Arc<SpmvState>,
    accessor: Arc<dyn PageAccessor>,
    total_warps: u64,
    /// ALU cycles per non-zero (multiply-add plus x gather).
    cycles_per_nnz: u64,
}

impl SpmvKernel {
    /// Build the kernel.
    pub fn new(state: Arc<SpmvState>, accessor: Arc<dyn PageAccessor>, total_warps: u64) -> Self {
        SpmvKernel {
            state,
            accessor,
            total_warps: total_warps.max(1),
            cycles_per_nnz: 6,
        }
    }
}

struct SpmvWarp {
    state: Arc<SpmvState>,
    accessor: Arc<dyn PageAccessor>,
    warp_flat: u64,
    total_warps: u64,
    cycles_per_nnz: u64,
    /// Next row (in this warp's strided sequence) to process.
    next_row: u64,
    /// The batch starting at row `batch_of`: its rows and the pages they
    /// need, kept across the polls of that batch.
    batch_of: Option<u64>,
    rows: Vec<u32>,
    pages: Vec<(u32, nvme_sim::Lba)>,
}

impl WarpKernel for SpmvWarp {
    fn step(&mut self, ctx: &WarpCtx) -> WarpStep {
        let n = self.state.graph.num_vertices() as u64;
        if self.next_row >= n {
            return WarpStep::Done;
        }
        // This step handles up to `lanes` rows: row ids are strided by the
        // total warp count (standard row-per-thread mapping). The batch and
        // the pages it needs are built once, not on every poll of it.
        if self.batch_of != Some(self.next_row) {
            self.batch_of = Some(self.next_row);
            self.rows.clear();
            self.pages.clear();
            let mut r = self.next_row;
            while self.rows.len() < ctx.lanes as usize && r < n {
                self.rows.push(r as u32);
                r += self.total_warps;
            }
            for &row in &self.rows {
                self.pages.extend(self.state.graph.col_pages_of(row));
                self.pages.extend(self.state.graph.val_pages_of(row));
            }
        }
        let (rows, pages) = (&self.rows, &self.pages);
        let r = self.next_row + rows.len() as u64 * self.total_warps;
        if !pages.is_empty() {
            let res = self.accessor.access(self.warp_flat, pages, ctx.now);
            if !res.ready {
                return WarpStep::Stall {
                    retry_after: res.retry_hint,
                    wait: res.wait,
                };
            }
            // Data resident: do the real arithmetic.
            let mut nnz = 0u64;
            {
                let mut y = self.state.y.lock();
                for &row in rows {
                    let mut acc = 0.0f32;
                    for (&c, w) in self
                        .state
                        .graph
                        .neighbours(row)
                        .iter()
                        .zip(self.state.graph.edge_values(row))
                    {
                        acc += w * self.state.x[c as usize];
                        nnz += 1;
                    }
                    y[row as usize] = acc;
                }
            }
            self.next_row = r;
            return WarpStep::Busy(res.cost + Cycles(self.cycles_per_nnz * nnz.max(1)));
        }
        // All chosen rows were empty.
        self.next_row = r;
        WarpStep::Busy(Cycles(self.cycles_per_nnz))
    }
}

impl KernelFactory for SpmvKernel {
    fn create_warp(&self, block: u32, warp: u32) -> Box<dyn WarpKernel> {
        let warp_flat = (block as u64 * 8 + warp as u64) % self.total_warps;
        Box::new(SpmvWarp {
            state: Arc::clone(&self.state),
            accessor: Arc::clone(&self.accessor),
            warp_flat,
            total_warps: self.total_warps,
            cycles_per_nnz: self.cycles_per_nnz,
            next_row: warp_flat,
            batch_of: None,
            rows: Vec::with_capacity(32),
            pages: Vec::new(),
        })
    }
    fn name(&self) -> &str {
        "spmv"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accessor::HbmAccessor;
    use crate::graph::generate::generate_kronecker;
    use gpu_sim::{Engine, GpuConfig, LaunchConfig};

    #[test]
    fn spmv_over_hbm_matches_reference() {
        let graph = Arc::new(generate_kronecker(10, 8, 5));
        let x: Vec<f32> = (0..graph.num_vertices())
            .map(|i| (i % 13) as f32 * 0.25 + 0.1)
            .collect();
        let reference = graph.reference_spmv(&x);
        let state = SpmvState::new(Arc::clone(&graph), x);
        let accessor: Arc<dyn PageAccessor> = Arc::new(HbmAccessor::new());
        let kernel = SpmvKernel::new(Arc::clone(&state), accessor, 16);
        let mut engine = Engine::new(GpuConfig::tiny(4));
        engine.launch(
            LaunchConfig::new(2, 256).with_registers(32),
            Box::new(kernel),
        );
        let report = engine.run();
        assert!(!report.deadlocked);
        let y = state.result();
        for (a, b) in y.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-4, "mismatch {a} vs {b}");
        }
    }
}
