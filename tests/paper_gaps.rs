//! The paper-gap ratchet: how far each reproduced figure value sits from the
//! paper's may shrink, never grow.
//!
//! `tests/data/paper_gaps.txt` holds one row per figure metric at the quick
//! scale of `cargo run --release --example figures`: the simulated value,
//! the paper's value and the gap between them, `|simulated − paper| / paper`
//! in percent. This test re-runs the same points and fails when a gap has
//! grown past its recorded value plus the row's tolerance, or when the rows
//! measured and the rows recorded differ. A change that narrows a gap
//! rewrites the file on purpose, as a golden is rewritten; the rows to write
//! are printed with
//!
//! ```text
//! cargo test --release --test paper_gaps -- --nocapture
//! ```
//!
//! The Figure 4 rows compare each CTC point with Equation 1's ideal, the
//! curve the paper draws its measurements against, and the peak with the
//! paper's 1.88×. The Figure 7 rows compare AGILE's asynchronous speedup
//! over BaM on each DLRM configuration with the paper's. Every value is
//! simulated, so a debug and a release build measure the same rows.

use agile_repro::workloads::experiments::dlrm_figs::run_fig7_configs;
use agile_repro::workloads::experiments::fig04::run_ctc_sweep;
use agile_repro::workloads::experiments::fig05_06::{
    paper_request_counts, run_bandwidth_sweep, saturation_gbps,
};
use agile_repro::workloads::randio::IoDirection;

const GAPS: &str = include_str!("data/paper_gaps.txt");

/// Tolerance, in percentage points of gap, given to every row this test
/// writes.
const TOLERANCE_PCT: f64 = 1.0;

/// One recorded row.
struct Row {
    key: String,
    simulated: f64,
    paper: f64,
    gap_pct: f64,
    tolerance_pct: f64,
}

fn gap_pct(simulated: f64, paper: f64) -> f64 {
    (simulated - paper).abs() / paper * 100.0
}

fn parse(text: &str) -> Vec<Row> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|line| {
            let cols: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(cols.len(), 5, "malformed row `{line}`");
            let num = |i: usize| -> f64 {
                cols[i]
                    .parse()
                    .unwrap_or_else(|_| panic!("column {i} of `{line}` is not a number"))
            };
            Row {
                key: cols[0].to_string(),
                simulated: num(1),
                paper: num(2),
                gap_pct: num(3),
                tolerance_pct: num(4),
            }
        })
        .collect()
}

/// `(key, simulated, paper)` for every row, measured now.
fn measure() -> Vec<(String, f64, f64)> {
    let mut rows = Vec::new();
    let ctc = run_ctc_sweep(&[0.0, 0.5, 0.9, 1.5], 16);
    for row in &ctc {
        rows.push((
            format!("fig4.speedup_ctc_{:.2}_vs_eq1", row.ctc),
            row.speedup,
            row.ideal,
        ));
    }
    let peak = ctc.iter().fold(0.0f64, |m, r| m.max(r.speedup));
    rows.push(("fig4.peak_speedup".to_string(), peak, 1.88));
    // Fig 7 at the quick harness's batch 256 and 3 epochs.
    let fig7 = run_fig7_configs(256, 3);
    let asynchronous = fig7.iter().filter(|r| r.mode == "agile-async");
    for (row, paper) in asynchronous.zip([1.48, 1.63, 1.32]) {
        rows.push((
            format!("fig7.async_speedup_{}", row.point),
            row.speedup_vs_bam,
            paper,
        ));
    }
    let counts = paper_request_counts(2_048);
    for (figure, direction, kind, paper) in [
        ("fig5", IoDirection::Read, "read", [3.7, 7.4, 11.1]),
        ("fig6", IoDirection::Write, "write", [2.2, 4.4, 6.6]),
    ] {
        let sweep = run_bandwidth_sweep(direction, &[1, 2, 3], &counts);
        for (ssds, paper) in [1usize, 2, 3].into_iter().zip(paper) {
            rows.push((
                format!("{figure}.{kind}_gbps_{ssds}ssd"),
                saturation_gbps(&sweep, ssds),
                paper,
            ));
        }
    }
    rows
}

/// The file this run would write.
fn render(measured: &[(String, f64, f64)]) -> String {
    let mut out = String::new();
    for (key, simulated, paper) in measured {
        out.push_str(&format!(
            "{key:<32} {simulated:>8.4} {paper:>7.4} {:>6.2} {TOLERANCE_PCT:>4.1}\n",
            gap_pct(*simulated, *paper)
        ));
    }
    out
}

#[test]
fn recorded_gaps_are_self_consistent() {
    for row in parse(GAPS) {
        assert!(
            (gap_pct(row.simulated, row.paper) - row.gap_pct).abs() < 0.01,
            "{}: the gap column must be |simulated − paper| / paper",
            row.key
        );
        assert!(row.tolerance_pct >= 0.0, "{}: negative tolerance", row.key);
    }
}

#[test]
fn no_paper_gap_widens() {
    let recorded = parse(GAPS);
    let measured = measure();
    let rendered = render(&measured);
    println!("rows measured now:\n{rendered}");
    let recorded_keys: Vec<&str> = recorded.iter().map(|r| r.key.as_str()).collect();
    let measured_keys: Vec<&str> = measured.iter().map(|m| m.0.as_str()).collect();
    assert_eq!(
        recorded_keys, measured_keys,
        "recorded and measured rows differ; measured:\n{rendered}"
    );
    let mut widened = Vec::new();
    for (row, (_, simulated, paper)) in recorded.iter().zip(&measured) {
        assert!(
            (row.paper - paper).abs() < 1e-4,
            "{}: the paper value moved",
            row.key
        );
        let gap = gap_pct(*simulated, *paper);
        if gap > row.gap_pct + row.tolerance_pct {
            widened.push(format!(
                "{}: gap {gap:.2} % (simulated {simulated:.4}), recorded {:.2} % + {:.1}",
                row.key, row.gap_pct, row.tolerance_pct
            ));
        } else if gap < row.gap_pct - row.tolerance_pct {
            println!(
                "{}: gap narrowed to {gap:.2} % from {:.2} %; rewrite its row",
                row.key, row.gap_pct
            );
        }
    }
    assert!(
        widened.is_empty(),
        "paper gaps widened:\n{}\nmeasured:\n{rendered}",
        widened.join("\n")
    );
}
