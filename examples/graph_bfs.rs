//! Breadth-first search over an SSD-resident Kronecker graph through AGILE,
//! verified against a host-side reference BFS.
//!
//! ```text
//! cargo run --release --example graph_bfs [scale] [degree]
//! ```

use agile_repro::agile::config::AgileConfig;
use agile_repro::gpu::LaunchConfig;
use agile_repro::workloads::accessor::{AgileAccessor, PageAccessor};
use agile_repro::workloads::experiments::testbed::agile_testbed;
use agile_repro::workloads::graph::{generate_kronecker, run_bfs};
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale: u32 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(12);
    let degree: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(8);

    let graph = Arc::new(generate_kronecker(scale, degree, 0xBF5));
    println!(
        "Kronecker graph: 2^{scale} = {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    let config = AgileConfig::paper_default()
        .with_queue_pairs(16)
        .with_queue_depth(256)
        .with_cache_bytes(128 << 20);
    let mut host = agile_testbed(config, 1, 1 << 21);
    let ctrl = host.ctrl();
    let accessor: Arc<dyn PageAccessor> = Arc::new(AgileAccessor::new(Arc::clone(&ctrl)));

    let total_warps = 128;
    let launch = LaunchConfig::new((total_warps / 8) as u32, 256).with_registers(46);
    let mut total_cycles = 0u64;
    let (dist, levels) = run_bfs(Arc::clone(&graph), 0, accessor, total_warps, |kernel| {
        let report = host.run_kernel(launch.clone(), Box::new(kernel));
        total_cycles += report.elapsed.raw();
        report
    });

    // Verify against the host reference.
    let reference = graph.reference_bfs(0);
    assert_eq!(dist, reference, "BFS result must match the reference");
    let reached = dist.iter().filter(|&&d| d != u32::MAX).count();
    let stats = ctrl.stats();
    println!("BFS levels          : {levels}");
    println!("vertices reached    : {reached}");
    println!("simulated cycles    : {total_cycles}");
    println!(
        "cache hits / misses : {} / {}",
        ctrl.cache().stats().hits,
        ctrl.cache().stats().misses
    );
    println!("warp-coalesced reqs : {}", stats.io.warp_coalesced);
    println!("result verified against host reference BFS ✓");
}
