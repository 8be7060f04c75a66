//! The paper's evaluation figures, Figs 4–12: one table per figure, each
//! re-run through its runner in `agile_workloads::experiments`.
//!
//! ```text
//! cargo run --release --example figures             # CI-sized points
//! cargo run --release --example figures -- --full   # the paper-sized points, ~20x longer
//! ```
//!
//! Every value printed is simulated (no wall time), so the output is the
//! same on every run. The values the paper reports, printed beside each
//! table as `(paper: …)`, are all in [`PAPER`].

use agile_repro::workloads::experiments::dlrm_figs::{
    run_fig10_cache_sweep, run_fig7_configs, run_fig8_batch_sweep, run_fig9_queue_sweep, DlrmRow,
};
use agile_repro::workloads::experiments::fig04::{paper_ctc_points, run_ctc_sweep};
use agile_repro::workloads::experiments::fig05_06::{
    paper_request_counts, run_bandwidth_sweep, saturation_gbps,
};
use agile_repro::workloads::experiments::fig11::{run_graph_breakdown, GraphScale};
use agile_repro::workloads::experiments::fig12::run_register_table;
use agile_repro::workloads::randio::IoDirection;
use std::fmt::Display;

/// What the paper reports: `(figure, metric, paper value, paper section)`.
/// Fig 12's per-kernel register counts are columns of its runner's rows
/// (`agile_workloads::registers`), not entries here.
const PAPER: &[(&str, &str, &str, &str)] = &[
    ("Figure 4", "peak async/sync speedup", "up to 1.88x", "§4.2"),
    ("Figure 5", "read saturation, 1 SSD(s)", "3.7 GB/s", "§4.3"),
    ("Figure 5", "read saturation, 2 SSD(s)", "7.4 GB/s", "§4.3"),
    ("Figure 5", "read saturation, 3 SSD(s)", "11.1 GB/s", "§4.3"),
    ("Figure 6", "write saturation, 1 SSD(s)", "2.2 GB/s", "§4.3"),
    ("Figure 6", "write saturation, 2 SSD(s)", "4.4 GB/s", "§4.3"),
    ("Figure 6", "write saturation, 3 SSD(s)", "6.6 GB/s", "§4.3"),
    (
        "Figure 7",
        "speedup over BaM, Config-1/2/3",
        "sync 1.30/1.39/1.27x, async 1.48/1.63/1.32x",
        "§4.4",
    ),
    (
        "Figure 8",
        "speedup over BaM by batch size",
        "async peaks at 1.75x near batch 16; sync stays 1.18-1.30x",
        "§4.4",
    ),
    (
        "Figure 9",
        "speedup over BaM by queue pairs",
        "async ≈ sync at 1 QP, async pulls ahead as QPs increase",
        "§4.4",
    ),
    (
        "Figure 10",
        "speedup over BaM by cache size",
        "async trails BaM below ~64 MB, overtakes sync beyond it; sync peaks 1.48x at 256 MB",
        "§4.4",
    ),
    (
        "Figure 11",
        "overhead reduction over BaM",
        "cache-API reductions 1.93-3.17x, I/O reductions 1.06-2.85x",
        "§4.5",
    ),
    ("Figure 12", "service kernel registers/thread", "37", "§4"),
];

/// The paper's value for `metric` of `figure`.
fn paper(figure: &str, metric: &str) -> &'static str {
    PAPER
        .iter()
        .find(|&&(f, m, _, _)| f == figure && m == metric)
        .map(|&(_, _, value, _)| value)
        .unwrap_or_else(|| panic!("no paper value for {figure} / {metric}"))
}

fn main() {
    let full = parse_args();
    fig04(full);
    fig05_06("Figure 5", IoDirection::Read, full);
    fig05_06("Figure 6", IoDirection::Write, full);
    fig07(full);
    fig08(full);
    fig09(full);
    fig10(full);
    fig11(full);
    fig12();
}

/// `--full` selects the paper-sized points; no argument, the CI-sized ones.
fn parse_args() -> bool {
    let mut full = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--full" => full = true,
            other => panic!("unknown argument `{other}` (supported: --full)"),
        }
    }
    full
}

fn print_header(figure: &str, caption: &str) {
    println!();
    println!("================================================================");
    println!("{figure}: {caption}");
    println!("================================================================");
}

/// One row of `(label, value)` pairs.
fn print_row<L: Display, V: Display>(cells: &[(L, V)]) {
    let rendered: Vec<String> = cells.iter().map(|(l, v)| format!("{l}={v}")).collect();
    println!("  {}", rendered.join("  "));
}

fn fmt_ratio(r: f64) -> String {
    format!("{r:.2}x")
}

fn fmt_gbps(v: f64) -> String {
    format!("{v:.2} GB/s")
}

/// Figure 4: speedup of asynchronous over synchronous I/O across
/// computation-to-communication ratios, with the Equation-1 ideal curve.
fn fig04(full: bool) {
    print_header(
        "Figure 4",
        "Async vs sync speedup across computation-to-communication ratios",
    );
    let (points, requests) = if full {
        (paper_ctc_points(), 64)
    } else {
        (vec![0.0, 0.5, 0.9, 1.5], 16)
    };
    let rows = run_ctc_sweep(&points, requests);
    for row in &rows {
        print_row(&[
            ("ctc", format!("{:.2}", row.ctc)),
            ("sync_cycles", row.sync_cycles.to_string()),
            ("async_cycles", row.async_cycles.to_string()),
            ("speedup", fmt_ratio(row.speedup)),
            ("ideal", fmt_ratio(row.ideal)),
        ]);
    }
    let peak = rows.iter().fold(0.0f64, |m, r| m.max(r.speedup));
    println!(
        "  -> peak measured speedup: {} (paper: {})",
        fmt_ratio(peak),
        paper("Figure 4", "peak async/sync speedup")
    );
}

/// Figures 5 and 6: AGILE 4 KiB random-read / random-write bandwidth on
/// 1–3 SSDs.
fn fig05_06(figure: &str, direction: IoDirection, full: bool) {
    let (caption, kind) = match direction {
        IoDirection::Read => ("AGILE 4KB random read on multiple SSDs", "read"),
        IoDirection::Write => ("AGILE 4KB random write on multiple SSDs", "write"),
    };
    print_header(figure, caption);
    let counts = paper_request_counts(if full { 32_768 } else { 2_048 });
    let rows = run_bandwidth_sweep(direction, &[1, 2, 3], &counts);
    for row in &rows {
        print_row(&[
            ("ssds", row.ssds.to_string()),
            ("requests_per_ssd", row.requests_per_ssd.to_string()),
            ("bandwidth", fmt_gbps(row.gbps)),
        ]);
    }
    for ssds in [1usize, 2, 3] {
        let peak = saturation_gbps(&rows, ssds);
        println!(
            "  -> {ssds} SSD(s) saturate at {} (paper: {})",
            fmt_gbps(peak),
            paper(figure, &format!("{kind} saturation, {ssds} SSD(s)"))
        );
    }
}

/// Figures 7–10 print one row per (point, mode) of a DLRM sweep.
fn print_dlrm_rows(point_label: &str, rows: &[DlrmRow]) {
    for row in rows {
        print_row(&[
            (point_label, row.point.clone()),
            ("mode", row.mode.clone()),
            ("cycles", row.elapsed_cycles.to_string()),
            ("speedup_vs_bam", fmt_ratio(row.speedup_vs_bam)),
        ]);
    }
}

/// Figure 7: DLRM speedup of AGILE (sync and async) over BaM across the
/// three model configurations.
fn fig07(full: bool) {
    print_header(
        "Figure 7",
        "AGILE (sync/async) speedup over BaM on DLRM Config-1/2/3 (batch 2048)",
    );
    let (batch, epochs) = if full { (2048, 4) } else { (256, 3) };
    print_dlrm_rows("config", &run_fig7_configs(batch, epochs));
    println!(
        "  (paper: {})",
        paper("Figure 7", "speedup over BaM, Config-1/2/3")
    );
}

/// Figure 8: DLRM speedup over BaM across batch sizes (Config-1).
fn fig08(full: bool) {
    print_header(
        "Figure 8",
        "AGILE (sync/async) speedup over BaM across batch sizes (DLRM Config-1)",
    );
    let (batches, epochs): (Vec<u64>, u32) = if full {
        (vec![1, 16, 256, 2048], 4)
    } else {
        (vec![4, 64, 512], 3)
    };
    print_dlrm_rows("point", &run_fig8_batch_sweep(&batches, epochs));
    println!(
        "  (paper: {})",
        paper("Figure 8", "speedup over BaM by batch size")
    );
}

/// Figure 9: DLRM speedup over BaM across NVMe queue-pair counts
/// (Config-1, queue depth 64).
fn fig09(full: bool) {
    print_header(
        "Figure 9",
        "AGILE (sync/async) speedup over BaM across I/O queue-pair counts (depth 64)",
    );
    let (qps, batch, epochs): (Vec<usize>, u64, u32) = if full {
        (vec![1, 4, 16], 1024, 4)
    } else {
        (vec![1, 4], 256, 3)
    };
    print_dlrm_rows("point", &run_fig9_queue_sweep(&qps, batch, epochs));
    println!(
        "  (paper: {})",
        paper("Figure 9", "speedup over BaM by queue pairs")
    );
}

/// Figure 10: DLRM speedup over BaM across software-cache sizes (Config-1).
fn fig10(full: bool) {
    print_header(
        "Figure 10",
        "AGILE (sync/async) speedup over BaM across software cache sizes",
    );
    let (sizes, batch, epochs): (Vec<u64>, u64, u32) = if full {
        (vec![64, 256, 1024, 2048], 512, 4)
    } else {
        (vec![32, 128, 512], 128, 3)
    };
    print_dlrm_rows("point", &run_fig10_cache_sweep(&sizes, batch, epochs));
    println!(
        "  (paper: {})",
        paper("Figure 10", "speedup over BaM by cache size")
    );
}

/// Figure 11: execution-time breakdown (Kernel / Cache API / I/O API) of BFS
/// and SpMV on Kronecker and uniform graphs, BaM vs AGILE.
fn fig11(full: bool) {
    print_header(
        "Figure 11",
        "Execution-time breakdown of BaM and AGILE across graph applications",
    );
    let scale = if full {
        GraphScale::full()
    } else {
        GraphScale::quick()
    };
    let rows = run_graph_breakdown(scale);
    for row in &rows {
        let (k, cache, io) = row.normalized();
        print_row(&[
            ("app", row.app.clone()),
            ("graph", row.graph.clone()),
            ("system", row.system.clone()),
            ("kernel", format!("{k:.2}")),
            ("cache_api", format!("{cache:.2}")),
            ("io_api", format!("{io:.2}")),
        ]);
    }
    // The overhead-reduction factors the paper quotes.
    for app in ["bfs", "spmv"] {
        for graph in ["uniform", "kronecker"] {
            let find = |system: &str| {
                rows.iter()
                    .find(|r| r.app == app && r.graph == graph && r.system == system)
            };
            if let (Some(a), Some(b)) = (find("agile"), find("bam")) {
                let cache_red = b.cache_api_cycles.max(1) as f64 / a.cache_api_cycles.max(1) as f64;
                let io_red = b.io_api_cycles.max(1) as f64 / a.io_api_cycles.max(1) as f64;
                println!(
                    "  -> {app}-{graph}: AGILE reduces cache-API overhead {cache_red:.2}x and I/O overhead {io_red:.2}x"
                );
            }
        }
    }
    println!(
        "  (paper: {})",
        paper("Figure 11", "overhead reduction over BaM")
    );
}

/// Figure 12: per-thread register usage of BaM vs AGILE kernels (modelled).
fn fig12() {
    print_header(
        "Figure 12",
        "Per-thread register usage, BaM vs AGILE (static footprint model)",
    );
    let (rows, service) = run_register_table();
    for row in &rows {
        print_row(&[
            ("kernel", row.kernel.clone()),
            ("bam", row.bam_registers.to_string()),
            ("agile", row.agile_registers.to_string()),
            ("reduction", fmt_ratio(row.ratio())),
            ("paper_bam", row.paper_bam.to_string()),
            ("paper_agile", row.paper_agile.to_string()),
        ]);
    }
    println!(
        "  AGILE service kernel: {service} registers/thread (paper: {})",
        paper("Figure 12", "service kernel registers/thread")
    );
}
