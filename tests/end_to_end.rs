//! Cross-crate integration tests: the full AGILE stack (GPU engine + NVMe
//! devices + software cache + service) exercised end to end, and the
//! deadlock-freedom contrast against the synchronous baseline.

use agile_repro::agile::config::AgileConfig;
use agile_repro::agile::kernels::{AsyncReadModifyWriteKernel, PrefetchComputeKernel};
use agile_repro::agile::AgileHost;
use agile_repro::bam::{BamConfig, HostBuilder, NaiveAsyncKernel};
use agile_repro::gpu::{GpuConfig, LaunchConfig};
use agile_repro::nvme::PageToken;
use agile_repro::sim::Cycles;

fn small_host(devices: usize) -> AgileHost {
    HostBuilder::agile(AgileConfig::small_test())
        .gpu(GpuConfig::tiny(4))
        .devices(devices, 1 << 18)
        .build()
}

#[test]
fn prefetch_pipeline_runs_and_hits_cache() {
    let mut host = small_host(2);
    let ctrl = host.ctrl();
    let report = host.run_kernel(
        LaunchConfig::new(4, 64).with_registers(40),
        Box::new(PrefetchComputeKernel::new(ctrl.clone(), 6, 5_000)),
    );
    assert!(!report.deadlocked);
    let stats = ctrl.stats();
    assert!(stats.prefetch_calls > 0);
    assert!(
        stats.io.cache_hits > 0,
        "prefetched pages must be consumed as hits"
    );
    assert_eq!(ctrl.cache().total_pins(), 0, "no cache pins may leak");
    // Every SQ entry must be recycled by the service.
    for dev in 0..ctrl.io().device_count() {
        for sq in ctrl.io().device_queues(dev) {
            assert_eq!(sq.transactions().in_flight(), 0, "leaked transactions");
        }
    }
    host.stop_agile();
}

#[test]
fn async_read_modify_write_updates_ssd_contents() {
    let mut host = small_host(1);
    let ctrl = host.ctrl();
    let report = host.run_kernel(
        LaunchConfig::new(2, 64).with_registers(40),
        Box::new(AsyncReadModifyWriteKernel::new(ctrl.clone(), 3, 4096)),
    );
    assert!(!report.deadlocked);
    let topology = host.topology();
    let (reads, writes) = (topology.total_bytes_read(), topology.total_bytes_written());
    assert!(reads > 0, "kernel must have read from the SSD");
    assert!(writes > 0, "kernel must have written back to the SSD");
    // Written pages carry the modified token (old XOR mask), not pristine data.
    let backing = host.backing(0);
    let modified = (0..4096u64)
        .filter(|&lba| backing.read(lba) != PageToken::pristine(0, lba))
        .count();
    assert!(
        modified > 0,
        "at least one page must have been durably modified"
    );
}

#[test]
fn naive_async_deadlocks_on_bam_but_agile_completes_the_same_load() {
    // The §2.3.1 scenario: many threads issue batches of requests that exceed
    // the SQ capacity before anyone processes a completion.
    let requests_per_warp = 64;

    // BaM-style protocol without completion processing: deadlock.
    let mut bam = HostBuilder::bam(
        BamConfig::small_test()
            .with_queue_pairs(1)
            .with_queue_depth(32),
    )
    .gpu(GpuConfig::tiny(2))
    .devices(1, 1 << 20)
    .build();
    bam.engine_mut().set_deadlock_window(Cycles(2_000_000));
    let bam_ctrl = bam.ctrl();
    let report = bam.run_kernel(
        LaunchConfig::new(4, 64).with_registers(40),
        Box::new(NaiveAsyncKernel::deadlocking(bam_ctrl, requests_per_warp)),
    );
    assert!(report.deadlocked, "naive async issuing must deadlock");

    // The same pressure through AGILE (tiny queues, many async requests per
    // warp) completes because the service recycles SQ entries independently.
    let config = AgileConfig::small_test()
        .with_queue_pairs(1)
        .with_queue_depth(32);
    let mut agile = HostBuilder::agile(config)
        .gpu(GpuConfig::tiny(2))
        .devices(1, 1 << 20)
        .build();
    let ctrl = agile.ctrl();
    let report = agile.run_kernel(
        LaunchConfig::new(4, 64).with_registers(40),
        Box::new(PrefetchComputeKernel::new(
            ctrl.clone(),
            requests_per_warp,
            100,
        )),
    );
    assert!(
        !report.deadlocked,
        "AGILE must survive the same queue pressure without deadlock"
    );
    assert!(ctrl.stats().io.sq_full_retries > 0 || ctrl.stats().io.cache_misses > 0);
}

#[test]
fn multi_kernel_sequential_launches_share_the_cache() {
    let mut host = small_host(1);
    let ctrl = host.ctrl();
    // First kernel warms the cache; the second one re-reads the same pages.
    let r1 = host.run_kernel(
        LaunchConfig::new(2, 64).with_registers(40),
        Box::new(PrefetchComputeKernel::new(ctrl.clone(), 4, 1_000)),
    );
    let misses_after_first = ctrl.stats().io.cache_misses;
    let r2 = host.run_kernel(
        LaunchConfig::new(2, 64).with_registers(40),
        Box::new(PrefetchComputeKernel::new(ctrl.clone(), 4, 1_000)),
    );
    assert!(!r1.deadlocked && !r2.deadlocked);
    let misses_after_second = ctrl.stats().io.cache_misses;
    assert!(
        misses_after_second - misses_after_first < misses_after_first.max(1),
        "second launch should mostly hit the warmed cache"
    );
}
