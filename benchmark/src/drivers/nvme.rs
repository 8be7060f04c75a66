//! `nvme-sim` layer: host ns the device model spends per command inside
//! `StorageTopology::advance_to`. Commands are issued through the controller
//! and reaped through the service partition by hand (no engine), and only the
//! `advance_to` calls are timed.

use super::DriverResult;
use agile_repro::agile::transaction::Barrier;
use agile_repro::agile::{AgileConfig, IssueOutcome};
use agile_repro::bam::HostBuilder;
use agile_repro::gpu::GpuConfig;
use agile_repro::nvme::DmaHandle;
use agile_repro::sim::Cycles;
use std::time::Instant;

const QUEUE_PAIRS: usize = 8;
/// Reads in flight per round: half of every SQ.
const BATCH: u64 = (QUEUE_PAIRS * 128) as u64;

pub fn run(calls: u64) -> Vec<DriverResult> {
    let rounds = (calls / 8 / BATCH).max(1);
    let config = AgileConfig::small_test()
        .with_queue_pairs(QUEUE_PAIRS)
        .with_queue_depth(256);
    let host = HostBuilder::agile(config)
        .gpu(GpuConfig::tiny(1))
        .devices(1, 1 << 20)
        .build();
    let (ctrl, topology, service) = (host.ctrl(), host.topology(), host.service());
    let mut now = Cycles(0);
    let mut lba = 0u64;
    let mut samples = Vec::new();
    for repeat in 0..=super::REPEATS {
        let mut advance_ns = 0u128;
        for _ in 0..rounds {
            let barriers: Vec<Barrier> = (0..BATCH)
                .map(|i| {
                    let barrier = Barrier::new();
                    lba = (lba + 1) % (1 << 20);
                    let (_, outcome) =
                        ctrl.raw_read(i, 0, lba, DmaHandle::new(), barrier.clone(), now);
                    assert!(outcome == IssueOutcome::Issued, "SQs are half empty");
                    barrier
                })
                .collect();
            while !barriers.iter().all(Barrier::is_complete) {
                now = topology
                    .next_event_time()
                    .unwrap_or(now + Cycles(1_000))
                    .max(now);
                let start = Instant::now();
                topology.advance_to(now);
                advance_ns += start.elapsed().as_nanos();
                for target in 0..service.target_count() {
                    service.poll_cq(target, now);
                }
                now += Cycles(1);
            }
        }
        // The first pass warms up.
        if repeat > 0 {
            samples.push(advance_ns as f64 / (rounds * BATCH) as f64);
        }
    }
    samples.sort_by(f64::total_cmp);
    vec![DriverResult {
        metric: "nvme-sim.advance_host_ns_per_cmd",
        value: samples[samples.len() / 2],
        calls: rounds * BATCH,
    }]
}
