//! `ctc_overlap`: the paper's Figure 4 mechanism in isolation. One block of
//! 1024 threads issues 64 reads per thread (65 536 reads, every page
//! distinct, one SSD) and computes on each; the asynchronous mode prefetches
//! iteration `i + 1` while computing on `i`. Per-iteration compute is
//! `ctc × communication`, with the communication time calibrated from a
//! zero-compute synchronous run as `experiments::fig04` does.
//!
//! The seed draws the CTC ratio from 1.00 ± 0.02 — the balanced point where
//! ideal overlap is 2×; the paper's peak there is 1.88×. Nothing else in this
//! workload is random (the device model has no noise of its own).

use super::{decorate, gpu, instrument, timed_run, Instruments, Outcome, Prepared, Scale, Side};
use crate::decorate::SpanLog;
use agile_repro::agile::{AgileConfig, AgileHost};
use agile_repro::bam::HostBuilder;
use agile_repro::gpu::{KernelFactory, LaunchConfig};
use agile_repro::sim::units::MIB;
use agile_repro::sim::SimRng;
use agile_repro::workloads::microbench::{MicrobenchKernel, MicrobenchParams};
use std::sync::Arc;

pub struct CtcOverlap;

/// Threads of the single block.
const THREADS: u32 = 1024;
const REQUESTS_PER_THREAD: u32 = 16;
const SMOKE_REQUESTS_PER_THREAD: u32 = 2;

fn host(instr: Option<&Instruments>) -> AgileHost {
    // The stack of `experiments::fig04`.
    let config = AgileConfig::paper_default()
        .with_queue_pairs(16)
        .with_queue_depth(256)
        .with_cache_bytes(256 * MIB);
    let builder = HostBuilder::agile(config).gpu(gpu()).devices(1, 1 << 23);
    instrument(builder, instr).build()
}

fn kernel(
    host: &AgileHost,
    requests: u32,
    compute_cycles: u64,
    asynchronous: bool,
) -> MicrobenchKernel {
    MicrobenchKernel::new(
        host.ctrl(),
        MicrobenchParams {
            requests_per_thread: requests,
            compute_cycles,
            pages_per_dev: 1 << 22,
            asynchronous,
        },
    )
}

fn launch() -> LaunchConfig {
    LaunchConfig::new(1, THREADS).with_registers(48)
}

impl super::Workload for CtcOverlap {
    fn name(&self) -> &'static str {
        "ctc_overlap"
    }

    fn why(&self) -> &'static str {
        "Fig 4 in isolation: async API + barrier at CTC 1.0, no cache reuse, one device-bound SSD; base is synchronous AGILE, paper 1.88x."
    }

    fn baseline(&self) -> &'static str {
        "synchronous AGILE, same compute per iteration"
    }

    fn paper_speedup(&self) -> Option<f64> {
        Some(1.88)
    }

    fn cache_start(&self) -> &'static str {
        "empty, and every page is distinct: no reuse"
    }

    fn prepare(
        &self,
        seed: u64,
        scale: Scale,
        side: Side,
        instr: Option<&Instruments>,
    ) -> Box<dyn Prepared> {
        let requests = scale.pick(REQUESTS_PER_THREAD, SMOKE_REQUESTS_PER_THREAD);
        // Calibration: communication-only synchronous run on a host of its
        // own, so the measured host starts cold.
        let mut calibration = host(None);
        let comm_only = {
            let k = kernel(&calibration, requests, 0, false);
            let report = calibration.run_kernel(launch(), Box::new(k));
            assert!(!report.deadlocked, "ctc calibration deadlocked");
            report.elapsed.raw()
        };
        calibration.stop_agile();
        let per_iteration = (comm_only / requests as u64).max(1);
        let ctc = 0.98 + 0.04 * SimRng::new(seed).gen_f64();
        let compute_cycles = (ctc * per_iteration as f64).round() as u64;

        let host = host(instr);
        let factory = Box::new(kernel(
            &host,
            requests,
            compute_cycles,
            side == Side::Primary,
        ));
        Box::new(PreparedCtc {
            host,
            factory: decorate(factory, instr),
            ops: THREADS as u64 * requests as u64,
            spans: instr.map(|i| Arc::clone(&i.spans)),
        })
    }
}

struct PreparedCtc {
    host: AgileHost,
    factory: Box<dyn KernelFactory>,
    ops: u64,
    spans: Option<Arc<SpanLog>>,
}

impl Prepared for PreparedCtc {
    fn run(self: Box<Self>) -> Outcome {
        let PreparedCtc {
            mut host,
            factory,
            ops,
            spans,
        } = *self;
        let (report, host_run_ns) =
            timed_run(spans.as_ref(), || host.run_kernel(launch(), factory));
        host.stop_agile();
        // Every page is distinct, so each read must have reached the SSD.
        let device_reads = host.topology().device_stats(0).reads_completed;
        Outcome {
            ops,
            verified: if report.deadlocked {
                0
            } else {
                device_reads.min(ops)
            },
            sim_cycles: report.elapsed.raw(),
            sim_end: host.now().raw(),
            host_run_ns,
            rounds: report.rounds,
            launches: 1,
            devices: 1,
            latency_us: None,
            victim_p99_us: None,
        }
    }
}
