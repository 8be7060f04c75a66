//! Figure 11: execution-time breakdown of BFS and SpMV under BaM and AGILE.
//!
//! For every (application, graph family, system) combination the paper runs
//! the three-step measurement of §4.5:
//!
//! 1. **Kernel time** — the application with the graph resident in HBM
//!    (native accesses, no storage stack);
//! 2. **Cache API time** — the application through the storage stack with the
//!    whole graph preloaded into the software cache (no NVMe traffic), which
//!    isolates the cache-management overhead;
//! 3. **I/O API time** — the full run with the graph on the SSDs.
//!
//! The reported breakdown segments are `kernel`, `cache_api = (2) − (1)` and
//! `io_api = (3) − (2)`, all normalised to the kernel time.

use crate::accessor::{AgileAccessor, BamAccessor, HbmAccessor, PageAccessor};
use crate::experiments::testbed::{agile_testbed, bam_testbed, experiment_gpu};
use crate::graph::bfs::run_bfs;
use crate::graph::csr::CsrGraph;
use crate::graph::generate::{generate_kronecker, generate_uniform};
use crate::graph::spmv::{SpmvKernel, SpmvState};
use agile_core::AgileConfig;
use agile_sim::units::MIB;
use bam_baseline::BamConfig;
use gpu_sim::{Engine, LaunchConfig};
use nvme_sim::PageToken;
use std::sync::Arc;

/// Sizing of the Figure 11 graphs.
#[derive(Debug, Clone, Copy)]
pub struct GraphScale {
    /// log2(vertices) for both generators.
    pub scale: u32,
    /// Average degree / edge factor.
    pub degree: usize,
}

impl GraphScale {
    /// Bench-scale graphs.
    pub fn full() -> Self {
        GraphScale {
            scale: 13,
            degree: 16,
        }
    }
    /// Test-scale graphs.
    pub fn quick() -> Self {
        GraphScale {
            scale: 10,
            degree: 8,
        }
    }
}

/// One bar of Figure 11.
#[derive(Debug, Clone)]
pub struct BreakdownRow {
    /// "bfs" or "spmv".
    pub app: String,
    /// "kronecker" or "uniform".
    pub graph: String,
    /// "agile" or "bam".
    pub system: String,
    /// Kernel-only cycles (data in HBM).
    pub kernel_cycles: u64,
    /// Extra cycles attributable to software-cache management.
    pub cache_api_cycles: u64,
    /// Extra cycles attributable to NVMe I/O handling.
    pub io_api_cycles: u64,
}

impl BreakdownRow {
    /// Total cycles of the full (I/O) run.
    pub fn total_cycles(&self) -> u64 {
        self.kernel_cycles + self.cache_api_cycles + self.io_api_cycles
    }
    /// Breakdown normalised to the kernel time, as the figure plots it.
    pub fn normalized(&self) -> (f64, f64, f64) {
        let k = self.kernel_cycles.max(1) as f64;
        (
            1.0,
            self.cache_api_cycles as f64 / k,
            self.io_api_cycles as f64 / k,
        )
    }
}

const GRAPH_WARPS: u64 = 256;

fn graph_launch() -> LaunchConfig {
    LaunchConfig::new((GRAPH_WARPS / 8) as u32, 256).with_registers(48)
}

fn graph_stack_config() -> (AgileConfig, BamConfig) {
    // Cache comfortably larger than the CSR arrays so the preloaded step has
    // no capacity misses; topology follows the paper's defaults.
    let agile = AgileConfig::paper_default()
        .with_queue_pairs(32)
        .with_queue_depth(256)
        .with_cache_bytes(256 * MIB);
    let bam = BamConfig::paper_default()
        .with_queue_pairs(32)
        .with_queue_depth(256)
        .with_cache_bytes(256 * MIB);
    (agile, bam)
}

/// Which application to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum App {
    Bfs,
    Spmv,
}

/// Run one application over the given accessor on a standalone GPU engine
/// (kernel-only measurement).
fn run_kernel_only(app: App, graph: &Arc<CsrGraph>) -> u64 {
    let accessor: Arc<dyn PageAccessor> = Arc::new(HbmAccessor::new());
    match app {
        App::Bfs => {
            let mut total = 0u64;
            let (_dist, _levels) = run_bfs(Arc::clone(graph), 0, accessor, GRAPH_WARPS, |kernel| {
                let mut engine = Engine::new(experiment_gpu());
                engine.launch(graph_launch(), Box::new(kernel));
                let report = engine.run();
                total += report.elapsed.raw();
                report
            });
            total
        }
        App::Spmv => {
            let x: Vec<f32> = (0..graph.num_vertices())
                .map(|i| (i % 7) as f32 + 0.5)
                .collect();
            let state = SpmvState::new(Arc::clone(graph), x);
            let kernel = SpmvKernel::new(state, accessor, GRAPH_WARPS);
            let mut engine = Engine::new(experiment_gpu());
            engine.launch(graph_launch(), Box::new(kernel));
            engine.run().elapsed.raw()
        }
    }
}

/// Run one application through AGILE; `preload` selects the Cache-API step.
fn run_agile(app: App, graph: &Arc<CsrGraph>, preload: bool) -> u64 {
    let (agile_cfg, _) = graph_stack_config();
    let pages_needed = graph.layout.val_base + graph.all_pages(true).len() as u64 + 16;
    let mut host = agile_testbed(agile_cfg, 1, pages_needed.max(1 << 21));
    let ctrl = host.ctrl();
    if preload {
        for (dev, lba) in graph.all_pages(app == App::Spmv) {
            assert!(ctrl
                .cache()
                .preload(dev, lba, PageToken::pristine(dev, lba)));
        }
    }
    let accessor: Arc<dyn PageAccessor> = Arc::new(AgileAccessor::new(Arc::clone(&ctrl)));
    match app {
        App::Bfs => {
            let mut total = 0u64;
            let (_dist, _levels) = run_bfs(Arc::clone(graph), 0, accessor, GRAPH_WARPS, |kernel| {
                let report = host.run_kernel(graph_launch(), Box::new(kernel));
                total += report.elapsed.raw();
                report
            });
            total
        }
        App::Spmv => {
            let x: Vec<f32> = (0..graph.num_vertices())
                .map(|i| (i % 7) as f32 + 0.5)
                .collect();
            let state = SpmvState::new(Arc::clone(graph), x);
            let kernel = SpmvKernel::new(state, accessor, GRAPH_WARPS);
            host.run_kernel(graph_launch(), Box::new(kernel))
                .elapsed
                .raw()
        }
    }
}

/// Run one application through BaM; `preload` selects the Cache-API step.
fn run_bam(app: App, graph: &Arc<CsrGraph>, preload: bool) -> u64 {
    let (_, bam_cfg) = graph_stack_config();
    let pages_needed = graph.layout.val_base + graph.all_pages(true).len() as u64 + 16;
    let mut host = bam_testbed(bam_cfg, 1, pages_needed.max(1 << 21));
    let ctrl = host.ctrl();
    if preload {
        for (dev, lba) in graph.all_pages(app == App::Spmv) {
            assert!(ctrl
                .cache()
                .preload(dev, lba, PageToken::pristine(dev, lba)));
        }
    }
    let accessor: Arc<dyn PageAccessor> = Arc::new(BamAccessor::new(Arc::clone(&ctrl)));
    match app {
        App::Bfs => {
            let mut total = 0u64;
            let (_dist, _levels) = run_bfs(Arc::clone(graph), 0, accessor, GRAPH_WARPS, |kernel| {
                let report = host.run_kernel(graph_launch(), Box::new(kernel));
                total += report.elapsed.raw();
                report
            });
            total
        }
        App::Spmv => {
            let x: Vec<f32> = (0..graph.num_vertices())
                .map(|i| (i % 7) as f32 + 0.5)
                .collect();
            let state = SpmvState::new(Arc::clone(graph), x);
            let kernel = SpmvKernel::new(state, accessor, GRAPH_WARPS);
            host.run_kernel(graph_launch(), Box::new(kernel))
                .elapsed
                .raw()
        }
    }
}

fn breakdown_for(app: App, graph_name: &str, graph: &Arc<CsrGraph>) -> Vec<BreakdownRow> {
    let app_name = match app {
        App::Bfs => "bfs",
        App::Spmv => "spmv",
    };
    let kernel_cycles = run_kernel_only(app, graph);
    let mut rows = Vec::new();
    for system in ["agile", "bam"] {
        let (cache_total, io_total) = match system {
            "agile" => (run_agile(app, graph, true), run_agile(app, graph, false)),
            _ => (run_bam(app, graph, true), run_bam(app, graph, false)),
        };
        rows.push(BreakdownRow {
            app: app_name.to_string(),
            graph: graph_name.to_string(),
            system: system.to_string(),
            kernel_cycles,
            cache_api_cycles: cache_total.saturating_sub(kernel_cycles),
            io_api_cycles: io_total.saturating_sub(cache_total),
        });
    }
    rows
}

/// Run the whole Figure 11 matrix: {BFS, SpMV} × {Kronecker, uniform} ×
/// {AGILE, BaM}.
pub fn run_graph_breakdown(scale: GraphScale) -> Vec<BreakdownRow> {
    let kron = Arc::new(generate_kronecker(scale.scale, scale.degree, 0x6A9));
    let unif = Arc::new(generate_uniform(1 << scale.scale, scale.degree, 0x6AA));
    let mut rows = Vec::new();
    for (name, graph) in [("kronecker", &kron), ("uniform", &unif)] {
        rows.extend(breakdown_for(App::Bfs, name, graph));
        rows.extend(breakdown_for(App::Spmv, name, graph));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_breakdown_sums_consistently() {
        let row = BreakdownRow {
            app: "bfs".into(),
            graph: "uniform".into(),
            system: "agile".into(),
            kernel_cycles: 100,
            cache_api_cycles: 50,
            io_api_cycles: 150,
        };
        assert_eq!(row.total_cycles(), 300);
        let (k, c, io) = row.normalized();
        assert_eq!(k, 1.0);
        assert!((c - 0.5).abs() < 1e-12);
        assert!((io - 1.5).abs() < 1e-12);
    }
}
