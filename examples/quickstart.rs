//! Quickstart: the Listing-1 flow end to end.
//!
//! Sets up two simulated NVMe SSDs behind the AGILE controller, starts the
//! background service, runs an asynchronous prefetch → compute → consume
//! kernel, and prints what moved.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use agile_repro::agile::config::AgileConfig;
use agile_repro::agile::kernels::PrefetchComputeKernel;
use agile_repro::bam::HostBuilder;
use agile_repro::gpu::{GpuConfig, LaunchConfig};

fn main() {
    // --- Host-side configuration (Listing 1, lines 22-40) ---------------
    // HostBuilder runs the order-sensitive addNvmeDev → initNvme → startAgile
    // sequence internally and returns a started host.
    let config = AgileConfig::paper_default()
        .with_queue_pairs(8)
        .with_queue_depth(64)
        .with_cache_bytes(64 << 20);
    let mut host = HostBuilder::agile(config)
        .gpu(GpuConfig::rtx_5000_ada())
        .devices(2, 1 << 20) // two SSDs with 4 GiB namespaces
        .build();

    // --- Device-side kernel (Listing 1, lines 3-20) ---------------------
    let ctrl = host.ctrl();
    let launch = LaunchConfig::new(8, 256).with_registers(48);
    println!(
        "occupancy: {} blocks/SM for this launch",
        host.query_occupancy(&launch)
    );
    let report = host.run_kernel(
        launch,
        Box::new(PrefetchComputeKernel::new(ctrl.clone(), 16, 20_000)),
    );

    // --- Results ---------------------------------------------------------
    assert!(!report.deadlocked);
    let stats = ctrl.stats();
    let cache = ctrl.cache().stats();
    println!("simulated time      : {:.3} ms", report.elapsed_secs * 1e3);
    println!("prefetch calls      : {}", stats.prefetch_calls);
    println!("cache hits / misses : {} / {}", cache.hits, cache.misses);
    println!("warp-coalesced reqs : {}", stats.io.warp_coalesced);
    println!(
        "bytes read from SSDs: {} MiB",
        host.topology().total_bytes_read() >> 20
    );
    host.stop_agile();
    host.close_nvme();
    println!("done.");
}
