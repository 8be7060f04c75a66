//! `gpu-sim` layer: a bare `Engine` stepping 1024 compute-only warps — the
//! scheduler's own cost per warp step, with no storage stack behind it.

use super::{ns_per_call, DriverResult};
use agile_repro::gpu::kernel::ComputeOnlyKernel;
use agile_repro::gpu::{Engine, GpuConfig, LaunchConfig};
use agile_repro::sim::Cycles;
use std::hint::black_box;

const WARPS: u64 = 1024;

pub fn run(calls: u64) -> Vec<DriverResult> {
    let steps_per_warp = (calls / WARPS).max(1) as u32;
    let steps = WARPS * steps_per_warp as u64;
    let value = ns_per_call(steps, || {
        let mut engine = Engine::new(GpuConfig::rtx_5000_ada());
        engine.launch(
            LaunchConfig::new((WARPS / 8) as u32, 256),
            Box::new(ComputeOnlyKernel {
                cycles_per_warp: Cycles(1_000 * steps_per_warp as u64),
                steps: steps_per_warp,
            }),
        );
        black_box(engine.run());
    });
    vec![DriverResult {
        metric: "gpu-sim.compute_only_host_ns_per_step",
        value,
        calls: steps,
    }]
}
