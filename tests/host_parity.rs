//! One host contract, two systems: the generic `Host<S>` must bring AGILE
//! and the BaM baseline up through the same wiring, so every check here is
//! written once against `HostSystem` and instantiated for both.

use agile_repro::agile::kernels::PrefetchComputeKernel;
use agile_repro::agile::{AgileConfig, Host, HostSystem};
use agile_repro::bam::{BamConfig, HostBuilder, SyncReadComputeKernel};
use agile_repro::control::ControlPolicy;
use agile_repro::gpu::{EngineSched, GpuConfig, KernelFactory, LaunchConfig};
use agile_repro::metrics::MetricsRegistry;
use agile_repro::sim::trace::TraceEvent;
use agile_repro::trace::MemorySink;
use std::sync::Arc;

const DEVICES: usize = 4;
const PAGES: u64 = 1 << 14;

type Kernel<S> = fn(Arc<<S as HostSystem>::Ctrl>) -> (LaunchConfig, Box<dyn KernelFactory>);

fn contract<S: HostSystem>(
    config: S::Config,
    builder: fn(S::Config) -> HostBuilder<S>,
    kernel: Kernel<S>,
) {
    let base = || {
        builder(config.clone())
            .gpu(GpuConfig::tiny(4))
            .devices(DEVICES, PAGES)
    };
    let run = |host: &mut Host<S>| {
        let (launch, factory) = kernel(host.ctrl());
        let report = host.run_kernel(launch, factory);
        assert!(!report.deadlocked);
        host.stop();
    };

    // Flat and sharded topologies come up with the right lock partitioning.
    assert_eq!(base().build().topology().shard_count(), 1);
    assert_eq!(base().shards(2).build().topology().shard_count(), 2);

    // A capture is event-for-event identical at any engine thread count.
    let capture = |threads: usize| -> Vec<TraceEvent> {
        let sink = Arc::new(MemorySink::new());
        let mut host = base()
            .shards(2)
            .engine_threads(threads)
            .trace_sink(sink.clone() as Arc<_>)
            .build();
        run(&mut host);
        sink.take_events()
    };
    let sequential = capture(1);
    assert!(!sequential.is_empty(), "capture must record events");
    assert_eq!(sequential, capture(2), "threaded capture must match");

    // Regression: installing the sink *before* selecting a threaded
    // scheduler used to panic at start; the device-side sinks are now wired
    // at start, so the order is free and the merged log is the same.
    let sink = Arc::new(MemorySink::new());
    let mut host = Host::<S>::new(GpuConfig::tiny(4), config.clone());
    for _ in 0..DEVICES {
        host.add_nvme_dev(PAGES);
    }
    host.set_shards(2);
    host.init_nvme();
    assert!(host.set_trace_sink(sink.clone() as Arc<_>));
    host.set_engine_sched(EngineSched::ParallelShards(2));
    host.start();
    run(&mut host);
    assert_eq!(sequential, sink.take_events(), "sink-then-scheduler order");

    // `.metrics(reg)` registers the cache and topology collector families.
    let registry = MetricsRegistry::new();
    let mut host = base().metrics(Arc::clone(&registry)).build();
    run(&mut host);
    let snapshot = registry.snapshot();
    for family in ["agile_cache_misses_total", "agile_device_doorbells_total"] {
        assert!(
            snapshot.family(family).next().is_some(),
            "{family} must be exported"
        );
    }

    // `.control(policy)` alone auto-creates the registry / sampler pair.
    let host = base().control(ControlPolicy::all()).build();
    assert!(host.controller().is_some());
    assert!(host.metrics().is_some());

    // Zero devices is refused with the builder's message.
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        builder(config.clone()).build();
    }))
    .expect_err("building without devices must panic");
    let msg = err.downcast_ref::<&str>().expect("literal panic message");
    assert!(msg.contains("at least one device"), "got: {msg}");
}

#[test]
fn agile_host_honours_the_contract() {
    contract(AgileConfig::small_test(), HostBuilder::agile, |ctrl| {
        (
            LaunchConfig::new(2, 64).with_registers(32),
            Box::new(PrefetchComputeKernel::new(ctrl, 4, 3_000)),
        )
    });
}

#[test]
fn bam_host_honours_the_contract() {
    contract(BamConfig::small_test(), HostBuilder::bam, |ctrl| {
        (
            LaunchConfig::new(2, 64).with_registers(56),
            Box::new(SyncReadComputeKernel::new(ctrl, 3, 2_000, 50_000)),
        )
    });
}
