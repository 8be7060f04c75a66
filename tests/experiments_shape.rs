//! Scaled-down runs of the figure experiments, asserting the *qualitative*
//! shapes the paper reports (who wins, where the trends point) rather than
//! absolute numbers.

use agile_repro::workloads::dlrm::model::DlrmConfig;
use agile_repro::workloads::experiments::dlrm_figs::{run_dlrm_point, DlrmStackParams};
use agile_repro::workloads::experiments::fig04::run_ctc_sweep;
use agile_repro::workloads::experiments::fig05_06::run_bandwidth_point;
use agile_repro::workloads::experiments::fig12::run_register_table;
use agile_repro::workloads::microbench::ideal_speedup;
use agile_repro::workloads::randio::IoDirection;

#[test]
fn fig4_async_beats_sync_at_balanced_ctc() {
    // Two CTC points of the paper's sweep, small request count.
    let rows = run_ctc_sweep(&[0.5, 0.9], 16);
    assert_eq!(rows.len(), 2);
    // Below balance the block's warps, in lockstep, hide all of each
    // iteration's compute: Equation 1's 1 + CTC. Each SQ has its own submit
    // lock, so near balance too the block's submissions no longer queue
    // behind one array-wide lock.
    assert!((ideal_speedup(0.9) - 1.9).abs() < 1e-9);
    for row in &rows {
        assert!(
            (row.speedup - row.ideal).abs() <= row.ideal * 0.02,
            "async/sync at CTC {} must be within 2 % of {:.2}x (got {:.3})",
            row.ctc,
            row.ideal,
            row.speedup
        );
    }
}

#[test]
fn fig5_bandwidth_scales_with_ssd_count_and_request_depth() {
    let shallow = run_bandwidth_point(IoDirection::Read, 1, 64);
    let deep_1 = run_bandwidth_point(IoDirection::Read, 1, 8_192);
    let deep_2 = run_bandwidth_point(IoDirection::Read, 2, 8_192);
    // More outstanding requests ⇒ more bandwidth; more SSDs ⇒ more bandwidth.
    assert!(
        deep_1.gbps > shallow.gbps,
        "bandwidth must grow with request depth ({:.2} vs {:.2})",
        deep_1.gbps,
        shallow.gbps
    );
    assert!(
        deep_2.gbps > deep_1.gbps * 1.3,
        "two SSDs must clearly out-run one ({:.2} vs {:.2})",
        deep_2.gbps,
        deep_1.gbps
    );
    // Saturation cannot exceed the per-device ceiling by any real margin.
    assert!(deep_1.gbps < 4.2, "single SSD read ceiling is ~3.7 GB/s");
}

#[test]
fn fig6_write_bandwidth_is_lower_than_read() {
    let read = run_bandwidth_point(IoDirection::Read, 1, 4_096);
    let write = run_bandwidth_point(IoDirection::Write, 1, 4_096);
    assert!(
        write.gbps < read.gbps,
        "4K random write ({:.2}) must be slower than read ({:.2})",
        write.gbps,
        read.gbps
    );
    assert!(write.gbps > 1.0, "writes should still reach GB/s scale");
}

#[test]
fn fig7_agile_async_is_fastest_mode_on_dlrm() {
    // The paper's §4.4 operating point (2 GiB cache, batch 2048), shortened
    // to three epochs.
    let cfg = DlrmConfig::config1(2048, 3);
    let stack = DlrmStackParams::default();
    let rows = run_dlrm_point("config-1", &cfg, &stack);
    let get = |mode: &str| {
        rows.iter()
            .find(|r| r.mode == mode)
            .expect("mode present")
            .elapsed_cycles
    };
    let bam = get("bam");
    let sync = get("agile-sync");
    let asynch = get("agile-async");
    assert!(
        asynch.min(sync) <= bam,
        "the best AGILE mode must be at least as fast as BaM (bam {bam}, sync {sync}, async {asynch})"
    );
    assert!(
        asynch as f64 <= bam as f64 * 1.02,
        "AGILE async must not lose to BaM (bam {bam}, async {asynch})"
    );
}

#[test]
fn fig10_tiny_cache_hurts_the_asynchronous_mode() {
    // With a cache far smaller than the per-epoch working set, prefetching
    // for the next epoch evicts data needed now: async loses its advantage
    // (the paper observes it dropping below the synchronous modes).
    let cfg = DlrmConfig::config1(256, 3);
    let tiny = DlrmStackParams {
        queue_pairs: 16,
        queue_depth: 256,
        cache_bytes: 48 << 20,
        ssd_count: 2,
    };
    let large = DlrmStackParams {
        cache_bytes: 1 << 30,
        ..tiny
    };
    let rows_tiny = run_dlrm_point("tiny-cache", &cfg, &tiny);
    let rows_large = run_dlrm_point("large-cache", &cfg, &large);
    let speedup = |rows: &[agile_repro::workloads::experiments::dlrm_figs::DlrmRow]| {
        rows.iter()
            .find(|r| r.mode == "agile-async")
            .unwrap()
            .speedup_vs_bam
    };
    assert!(
        speedup(&rows_large) >= speedup(&rows_tiny) - 0.02,
        "async advantage must not shrink as the cache grows (tiny {:.2} vs large {:.2})",
        speedup(&rows_tiny),
        speedup(&rows_large)
    );
}

#[test]
fn fig12_register_table_matches_paper_shape() {
    let (rows, service) = run_register_table();
    assert_eq!(service, 37);
    for row in &rows {
        assert!(row.agile_registers < row.bam_registers);
    }
    // SpMV is the most register-hungry kernel in both systems, as in the paper.
    let spmv = rows.iter().find(|r| r.kernel == "spmv").unwrap();
    for other in rows.iter().filter(|r| r.kernel != "spmv") {
        assert!(spmv.bam_registers >= other.bam_registers);
        assert!(spmv.agile_registers >= other.agile_registers);
    }
}
