//! Level-synchronous breadth-first search.
//!
//! BFS is executed as one GPU kernel launch per frontier level (the standard
//! GPU formulation): warps split the current frontier, stream each frontier
//! vertex's adjacency pages through the storage stack under test, and relax
//! unvisited neighbours into the next frontier. The distance array and the
//! frontiers are small and live in HBM (modelled host-side with atomics); the
//! CSR adjacency data is what travels through AGILE / BaM / plain HBM.

use super::csr::CsrGraph;
use crate::accessor::PageAccessor;
use agile_sim::Cycles;
use gpu_sim::{ExecutionReport, KernelFactory, WarpCtx, WarpKernel, WarpStep};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Shared BFS state across launches (distances + frontiers).
pub struct BfsState {
    /// The graph being traversed.
    pub graph: Arc<CsrGraph>,
    /// Distance per vertex (`u32::MAX` = unvisited).
    pub dist: Vec<AtomicU32>,
    /// The current frontier.
    pub frontier: Mutex<Vec<u32>>,
    /// The next frontier, built by the running level kernel.
    pub next_frontier: Mutex<Vec<u32>>,
}

impl BfsState {
    /// Initialise BFS from `source`.
    pub fn new(graph: Arc<CsrGraph>, source: u32) -> Arc<Self> {
        let dist: Vec<AtomicU32> = (0..graph.num_vertices())
            .map(|_| AtomicU32::new(u32::MAX))
            .collect();
        dist[source as usize].store(0, Ordering::Relaxed);
        Arc::new(BfsState {
            graph,
            dist,
            frontier: Mutex::new(vec![source]),
            next_frontier: Mutex::new(Vec::new()),
        })
    }

    /// Distances as a plain vector (after the search finishes).
    pub fn distances(&self) -> Vec<u32> {
        self.dist
            .iter()
            .map(|d| d.load(Ordering::Relaxed))
            .collect()
    }

    /// Swap in the next frontier; returns its size.
    pub fn advance_level(&self) -> usize {
        let mut next = self.next_frontier.lock();
        let mut cur = self.frontier.lock();
        cur.clear();
        cur.append(&mut next);
        cur.len()
    }
}

/// One BFS level as a kernel.
pub struct BfsLevelKernel {
    state: Arc<BfsState>,
    accessor: Arc<dyn PageAccessor>,
    level: u32,
    total_warps: u64,
    /// ALU cycles charged per traversed edge.
    cycles_per_edge: u64,
}

impl BfsLevelKernel {
    /// Build the kernel for the given level.
    pub fn new(
        state: Arc<BfsState>,
        accessor: Arc<dyn PageAccessor>,
        level: u32,
        total_warps: u64,
    ) -> Self {
        BfsLevelKernel {
            state,
            accessor,
            level,
            total_warps: total_warps.max(1),
            cycles_per_edge: 4,
        }
    }
}

struct BfsWarp {
    state: Arc<BfsState>,
    accessor: Arc<dyn PageAccessor>,
    level: u32,
    warp_flat: u64,
    total_warps: u64,
    cycles_per_edge: u64,
    /// Cursor into this warp's slice of the frontier.
    pos: usize,
    /// The adjacency pages of the vertex at `pages_of`, kept across the
    /// polls of that vertex.
    pages_of: Option<usize>,
    pages: Vec<(u32, nvme_sim::Lba)>,
    /// Local buffer of discovered vertices, flushed on completion.
    discovered: Vec<u32>,
}

impl BfsWarp {
    fn my_slice_len(&self) -> usize {
        let len = self.state.frontier.lock().len();
        let per = (len as u64).div_ceil(self.total_warps);
        let start = (self.warp_flat * per).min(len as u64);
        let end = ((self.warp_flat + 1) * per).min(len as u64);
        (end - start) as usize
    }

    fn vertex_at(&self, idx: usize) -> u32 {
        let frontier = self.state.frontier.lock();
        let per = (frontier.len() as u64).div_ceil(self.total_warps);
        let start = (self.warp_flat * per).min(frontier.len() as u64) as usize;
        frontier[start + idx]
    }
}

impl WarpKernel for BfsWarp {
    fn step(&mut self, ctx: &WarpCtx) -> WarpStep {
        if self.pos >= self.my_slice_len() {
            if !self.discovered.is_empty() {
                self.state.next_frontier.lock().append(&mut self.discovered);
            }
            return WarpStep::Done;
        }
        let v = self.vertex_at(self.pos);
        // A vertex's page list is built once, not on every poll of it.
        if self.pages_of != Some(self.pos) {
            self.pages = self.state.graph.col_pages_of(v);
            self.pages_of = Some(self.pos);
        }
        if !self.pages.is_empty() {
            let r = self.accessor.access(self.warp_flat, &self.pages, ctx.now);
            if !r.ready {
                return WarpStep::Stall {
                    retry_after: r.retry_hint,
                    wait: r.wait,
                };
            }
            // Adjacency data is resident: relax the neighbours.
            let mut edge_work = 0u64;
            for &n in self.state.graph.neighbours(v) {
                edge_work += 1;
                if self.state.dist[n as usize]
                    .compare_exchange(
                        u32::MAX,
                        self.level + 1,
                        Ordering::AcqRel,
                        Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    self.discovered.push(n);
                }
            }
            self.pos += 1;
            return WarpStep::Busy(r.cost + Cycles(self.cycles_per_edge * edge_work.max(1)));
        }
        self.pos += 1;
        WarpStep::Busy(Cycles(self.cycles_per_edge))
    }
}

impl KernelFactory for BfsLevelKernel {
    fn create_warp(&self, block: u32, warp: u32) -> Box<dyn WarpKernel> {
        let warp_flat = (block as u64 * 8 + warp as u64) % self.total_warps;
        Box::new(BfsWarp {
            state: Arc::clone(&self.state),
            accessor: Arc::clone(&self.accessor),
            level: self.level,
            warp_flat,
            total_warps: self.total_warps,
            cycles_per_edge: self.cycles_per_edge,
            pos: 0,
            pages_of: None,
            pages: Vec::new(),
            discovered: Vec::new(),
        })
    }
    fn name(&self) -> &str {
        "bfs-level"
    }
}

/// Run a complete BFS by repeatedly launching level kernels through
/// `launch_level`. The closure receives the kernel factory for a level and
/// must run it to completion (returning the engine report); this lets the
/// same driver work for AGILE, BaM and HBM testbeds.
pub fn run_bfs(
    graph: Arc<CsrGraph>,
    source: u32,
    accessor: Arc<dyn PageAccessor>,
    total_warps: u64,
    mut launch_level: impl FnMut(BfsLevelKernel) -> ExecutionReport,
) -> (Vec<u32>, u32) {
    let state = BfsState::new(graph, source);
    let mut level = 0u32;
    loop {
        let kernel = BfsLevelKernel::new(
            Arc::clone(&state),
            Arc::clone(&accessor),
            level,
            total_warps,
        );
        let report = launch_level(kernel);
        assert!(!report.deadlocked, "BFS level {level} deadlocked");
        let next = state.advance_level();
        level += 1;
        if next == 0 || level > 10_000 {
            break;
        }
    }
    (state.distances(), level)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accessor::HbmAccessor;
    use crate::graph::generate::generate_uniform;
    use gpu_sim::{Engine, GpuConfig, LaunchConfig};

    #[test]
    fn bfs_over_hbm_matches_reference() {
        let graph = Arc::new(generate_uniform(2_000, 8, 11));
        let reference = graph.reference_bfs(0);
        let accessor: Arc<dyn PageAccessor> = Arc::new(HbmAccessor::new());
        let (dist, levels) = run_bfs(Arc::clone(&graph), 0, accessor, 16, |kernel| {
            let mut engine = Engine::new(GpuConfig::tiny(4));
            engine.launch(
                LaunchConfig::new(2, 256).with_registers(32),
                Box::new(kernel),
            );
            engine.run()
        });
        assert_eq!(dist, reference);
        assert!(levels >= 2);
    }
}
