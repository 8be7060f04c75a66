//! Figures 5 and 6: 4 KiB random read / write bandwidth scaling over 1–3 SSDs.

use crate::experiments::testbed::agile_testbed;
use crate::randio::{IoDirection, RandIoKernel, RandIoParams};
use agile_core::AgileConfig;
use agile_sim::units::{gb_per_sec, MIB, SSD_PAGE_SIZE};
use gpu_sim::LaunchConfig;

/// One measured point of the bandwidth sweep.
#[derive(Debug, Clone)]
pub struct BandwidthRow {
    /// Read or write.
    pub direction: String,
    /// Number of SSDs.
    pub ssds: usize,
    /// Requests issued per SSD.
    pub requests_per_ssd: u64,
    /// Measured aggregate bandwidth in GB/s.
    pub gbps: f64,
    /// End-to-end cycles of the run.
    pub elapsed_cycles: u64,
}

fn randio_config() -> AgileConfig {
    // Raw-path experiment: the software cache is bypassed, so its size is
    // irrelevant; the paper's 128 QP × 256 queue topology is kept.
    AgileConfig::paper_default()
        .with_queue_pairs(64)
        .with_queue_depth(256)
        .with_cache_bytes(16 * MIB)
}

/// Run one (direction, ssd_count, requests_per_ssd) measurement.
pub fn run_bandwidth_point(
    direction: IoDirection,
    ssd_count: usize,
    requests_per_ssd: u64,
) -> BandwidthRow {
    let mut host = agile_testbed(randio_config(), ssd_count, 1 << 22);
    let ctrl = host.ctrl();
    let total_requests = requests_per_ssd * ssd_count as u64;
    // Scale the warp count with the request count (the paper saturates the
    // GPU with threads; tiny request counts need only a few warps).
    let total_warps = (total_requests / 64).clamp(1, 1024);
    let blocks = total_warps.div_ceil(8).max(1) as u32;
    let total_warps = blocks as u64 * 8;
    let params = RandIoParams {
        requests_per_ssd,
        ssd_count,
        lba_space: 1 << 22,
        direction,
        total_warps,
        seed: 0xA61,
    };
    let report = host.run_kernel(
        LaunchConfig::new(blocks, 256).with_registers(40),
        Box::new(RandIoKernel::new(ctrl, params)),
    );
    assert!(!report.deadlocked, "random-I/O run deadlocked");
    let elapsed_secs = report.elapsed_secs;
    // The quota split can round the issued count up slightly; use the device
    // counters for the exact byte total.
    let topology = host.topology();
    let bytes = match direction {
        IoDirection::Read => topology.total_bytes_read(),
        IoDirection::Write => topology.total_bytes_written(),
    };
    let bytes = bytes.max(total_requests * SSD_PAGE_SIZE);
    BandwidthRow {
        direction: match direction {
            IoDirection::Read => "read".to_string(),
            IoDirection::Write => "write".to_string(),
        },
        ssds: ssd_count,
        requests_per_ssd,
        gbps: gb_per_sec(bytes, elapsed_secs),
        elapsed_cycles: report.elapsed.raw(),
    }
}

/// Run the full sweep of Figure 5 (reads) or Figure 6 (writes).
pub fn run_bandwidth_sweep(
    direction: IoDirection,
    ssd_counts: &[usize],
    request_counts: &[u64],
) -> Vec<BandwidthRow> {
    let mut rows = Vec::new();
    for &ssds in ssd_counts {
        for &reqs in request_counts {
            rows.push(run_bandwidth_point(direction, ssds, reqs));
        }
    }
    rows
}

/// The saturation bandwidth of `ssds` SSDs: the highest of a sweep's rows
/// for that many SSDs (0 when there is none).
pub fn saturation_gbps(rows: &[BandwidthRow], ssds: usize) -> f64 {
    rows.iter()
        .filter(|r| r.ssds == ssds)
        .map(|r| r.gbps)
        .fold(0.0f64, f64::max)
}

/// The request counts per SSD the paper sweeps (1 … 262 144), capped at
/// `max_requests`.
pub fn paper_request_counts(max_requests: u64) -> Vec<u64> {
    [1u64, 8, 64, 512, 4_096, 32_768, 262_144]
        .into_iter()
        .filter(|&r| r <= max_requests)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_counts_follow_paper_axis() {
        assert_eq!(paper_request_counts(262_144).len(), 7);
        assert_eq!(paper_request_counts(5_000), vec![1, 8, 64, 512, 4_096]);
    }
}
