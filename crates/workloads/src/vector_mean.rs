//! The Vector Mean kernel (Figure 12's third application).
//!
//! A large vector of f32 values lives on the SSD; warps stream its pages
//! through the storage stack under test and accumulate a global sum, from
//! which the mean is derived. The arithmetic is done for real (the vector's
//! values are a deterministic function of the element index), so tests can
//! check the mean against the closed form while the page traffic exercises
//! the cache / NVMe paths.

use crate::accessor::PageAccessor;
use agile_sim::units::SSD_PAGE_SIZE;
use agile_sim::Cycles;
use gpu_sim::{KernelFactory, WarpCtx, WarpKernel, WarpStep};
use nvme_sim::Lba;
use parking_lot::Mutex;
use std::sync::Arc;

/// Elements per 4 KiB page.
pub const ELEMS_PER_PAGE: u64 = SSD_PAGE_SIZE / 4;

/// The deterministic value of element `i` of the vector.
pub fn element_value(i: u64) -> f64 {
    ((i % 1000) as f64) * 0.001 + 1.0
}

/// Closed-form mean over the first `n` elements.
pub fn expected_mean(n: u64) -> f64 {
    (0..n).map(element_value).sum::<f64>() / n as f64
}

/// Shared accumulation state.
pub struct VectorMeanState {
    /// Vector length (elements).
    pub len: u64,
    /// Device holding the vector.
    pub dev: u32,
    /// First page of the vector.
    pub base_lba: Lba,
    sum: Mutex<f64>,
}

impl VectorMeanState {
    /// New state for a vector of `len` elements on `(dev, base_lba)`.
    pub fn new(len: u64, dev: u32, base_lba: Lba) -> Arc<Self> {
        Arc::new(VectorMeanState {
            len,
            dev,
            base_lba,
            sum: Mutex::new(0.0),
        })
    }

    /// The mean accumulated so far.
    pub fn mean(&self) -> f64 {
        *self.sum.lock() / self.len as f64
    }

    /// Total pages the vector occupies.
    pub fn pages(&self) -> u64 {
        self.len.div_ceil(ELEMS_PER_PAGE)
    }

    /// All pages (for preloading).
    pub fn all_pages(&self) -> Vec<(u32, Lba)> {
        (0..self.pages())
            .map(|p| (self.dev, self.base_lba + p))
            .collect()
    }
}

/// The Vector Mean kernel factory.
pub struct VectorMeanKernel {
    state: Arc<VectorMeanState>,
    accessor: Arc<dyn PageAccessor>,
    total_warps: u64,
    cycles_per_elem: u64,
}

impl VectorMeanKernel {
    /// Build the kernel.
    pub fn new(
        state: Arc<VectorMeanState>,
        accessor: Arc<dyn PageAccessor>,
        total_warps: u64,
    ) -> Self {
        VectorMeanKernel {
            state,
            accessor,
            total_warps: total_warps.max(1),
            cycles_per_elem: 1,
        }
    }
}

struct VectorMeanWarp {
    state: Arc<VectorMeanState>,
    accessor: Arc<dyn PageAccessor>,
    warp_flat: u64,
    total_warps: u64,
    cycles_per_elem: u64,
    next_page: u64,
    /// The batch starting at page `batch_of`, kept across its polls.
    batch_of: Option<u64>,
    pages: Vec<(u32, nvme_sim::Lba)>,
    local_sum: f64,
}

impl WarpKernel for VectorMeanWarp {
    fn step(&mut self, ctx: &WarpCtx) -> WarpStep {
        let total_pages = self.state.pages();
        if self.next_page >= total_pages {
            *self.state.sum.lock() += self.local_sum;
            self.local_sum = 0.0;
            return WarpStep::Done;
        }
        // Each lane takes one page (strided by the warp count); the batch is
        // built once, not on every poll of it.
        if self.batch_of != Some(self.next_page) {
            self.batch_of = Some(self.next_page);
            self.pages.clear();
            let mut p = self.next_page;
            while self.pages.len() < ctx.lanes as usize && p < total_pages {
                self.pages.push((self.state.dev, self.state.base_lba + p));
                p += self.total_warps;
            }
        }
        let p = self.next_page + self.pages.len() as u64 * self.total_warps;
        let r = self.accessor.access(self.warp_flat, &self.pages, ctx.now);
        if !r.ready {
            return WarpStep::Stall {
                retry_after: r.retry_hint,
                wait: r.wait,
            };
        }
        // Sum the elements of the pages this warp just loaded.
        let mut elems = 0u64;
        let mut q = self.next_page;
        while q < p {
            let first = q * ELEMS_PER_PAGE;
            let last = ((q + 1) * ELEMS_PER_PAGE).min(self.state.len);
            for i in first..last {
                self.local_sum += element_value(i);
                elems += 1;
            }
            q += self.total_warps;
        }
        self.next_page = p;
        WarpStep::Busy(r.cost + Cycles(self.cycles_per_elem * elems.max(1) / 4))
    }
}

impl KernelFactory for VectorMeanKernel {
    fn create_warp(&self, block: u32, warp: u32) -> Box<dyn WarpKernel> {
        let warp_flat = (block as u64 * 8 + warp as u64) % self.total_warps;
        Box::new(VectorMeanWarp {
            state: Arc::clone(&self.state),
            accessor: Arc::clone(&self.accessor),
            warp_flat,
            total_warps: self.total_warps,
            cycles_per_elem: self.cycles_per_elem,
            next_page: warp_flat,
            batch_of: None,
            pages: Vec::new(),
            local_sum: 0.0,
        })
    }
    fn name(&self) -> &str {
        "vector-mean"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accessor::HbmAccessor;
    use gpu_sim::{Engine, GpuConfig, LaunchConfig};

    #[test]
    fn vector_mean_matches_closed_form() {
        let len = 200_000u64;
        let state = VectorMeanState::new(len, 0, 0);
        let accessor: Arc<dyn PageAccessor> = Arc::new(HbmAccessor::new());
        let kernel = VectorMeanKernel::new(Arc::clone(&state), accessor, 16);
        let mut engine = Engine::new(GpuConfig::tiny(2));
        engine.launch(
            LaunchConfig::new(2, 256).with_registers(32),
            Box::new(kernel),
        );
        let report = engine.run();
        assert!(!report.deadlocked);
        let expected = expected_mean(len);
        assert!(
            (state.mean() - expected).abs() < 1e-9,
            "mean {} vs {}",
            state.mean(),
            expected
        );
    }

    #[test]
    fn state_page_accounting() {
        let state = VectorMeanState::new(ELEMS_PER_PAGE * 3 + 1, 1, 10);
        assert_eq!(state.pages(), 4);
        assert_eq!(state.all_pages().len(), 4);
        assert_eq!(state.all_pages()[0], (1, 10));
    }
}
