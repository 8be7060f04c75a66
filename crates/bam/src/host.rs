//! Host-side setup for the BaM baseline.
//!
//! [`BamHost`] is the same generic [`agile_core::host::Host`] the AGILE host
//! is — identical topology, queue, trace, metrics and control wiring — over
//! the [`BamSystem`] marker: BaM has no background kernel, so `build()`
//! launches nothing, and its control plane sees only the WFQ weight knob
//! (no prefetch pipeline, no service, a fixed clock cache).

use crate::ctrl::{BamConfig, BamCtrl};
use agile_core::host::{Host, HostSystem};
use agile_metrics::MetricsRegistry;
use agile_sim::costs::SsdCosts;
use gpu_sim::Engine;
use nvme_sim::{QueuePair, StorageTopology};
use std::sync::Arc;

/// Marker selecting the BaM baseline: no service, synchronous
/// issue-then-poll.
pub struct BamSystem;

impl HostSystem for BamSystem {
    type Config = BamConfig;
    type Ctrl = BamCtrl;
    type Services = ();

    fn storage_params(config: &BamConfig) -> (&SsdCosts, usize, u32) {
        (
            &config.costs.ssd,
            config.queue_pairs_per_ssd,
            config.queue_depth,
        )
    }

    fn new_ctrl(
        config: BamConfig,
        queues: Vec<Vec<Arc<QueuePair>>>,
        topology: Arc<StorageTopology>,
    ) -> BamCtrl {
        BamCtrl::with_topology(config, queues, topology)
    }

    fn launch_services(
        _ctrl: &Arc<BamCtrl>,
        _config: &BamConfig,
        _metrics: Option<&Arc<MetricsRegistry>>,
        _engine: &mut Engine,
    ) {
    }
}

/// Host-side owner of the BaM testbed.
pub type BamHost = Host<BamSystem>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::SyncReadComputeKernel;
    use crate::HostBuilder;
    use gpu_sim::{GpuConfig, LaunchConfig};

    #[test]
    fn bam_host_runs_a_sync_kernel() {
        let mut host = HostBuilder::bam(BamConfig::small_test())
            .gpu(GpuConfig::tiny(4))
            .devices(1, 1 << 16)
            .build();
        let ctrl = host.ctrl();
        let report = host.run_kernel(
            LaunchConfig::new(2, 64).with_registers(56),
            Box::new(SyncReadComputeKernel::new(
                Arc::clone(&ctrl),
                3,
                2_000,
                50_000,
            )),
        );
        assert!(!report.deadlocked);
        let s = ctrl.stats();
        assert!(s.io.read_calls > 0);
        assert!(s.completions > 0, "user threads processed completions");
        assert!(host.topology().total_bytes_read() > 0);
    }
}
