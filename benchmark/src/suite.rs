//! The whole suite: every workload in its own child process (so peak memory
//! is per workload and nothing warms anything else), merged into one JSON
//! document; `--aa` runs it twice and compares the two against the bounds.

use crate::catalog::{self, MetricDef};
use crate::json::Json;
use crate::workloads;
use std::process::Command;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

/// What `BENCHMARK.json` at the root of the repository must contain: the
/// catalogue and the workloads, in the contract's shape.
pub fn manifest() -> Json {
    let metric = |m: &MetricDef| {
        let mut pairs = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ];
        if let Some(bound) = m.bound {
            pairs.push(("bound", Json::Num(bound)));
        }
        Json::obj(pairs)
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::from(crate::RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                workloads::all()
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(catalog::END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(catalog::PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

/// Run one workload in a child process; returns `(detail, result)` — the last
/// two lines of its standard output.
fn run_child(workload: &str, trace: bool, options: &Options) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if options.smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child and collects what it printed.
    let output = command
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}: {}",
            trace as u8,
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev().filter(|l| !l.trim().is_empty());
    let result = lines.next().ok_or("child printed nothing")?;
    let detail = lines.next().ok_or("child printed no detail line")?;
    Ok((Json::parse(detail)?, Json::parse(result)?))
}

/// Run every workload, measured then traced, and merge the results.
fn run_suite(options: &Options) -> Result<Json, String> {
    let mut rows = Vec::new();
    for workload in workloads::all() {
        eprintln!("agile-benchmark: {} ...", workload.name());
        let (detail, measured) = run_child(workload.name(), false, options)?;
        let (traced_detail, traced) = run_child(workload.name(), true, options)?;
        rows.push(Json::obj([
            ("name", Json::str(workload.name())),
            ("why", Json::str(workload.why())),
            ("end_to_end", measured),
            ("end_to_end_detail", detail),
            ("per_layer", traced),
            ("per_layer_detail", traced_detail),
        ]));
    }
    Ok(Json::obj([
        (
            "benchmark",
            Json::str("agile-repro co-simulation: simulated results and simulator host cost"),
        ),
        ("seed", Json::from(options.seed)),
        ("seconds_per_run", Json::Num(options.seconds)),
        ("smoke", Json::Bool(options.smoke)),
        ("engine", Json::str("sequential EventQueue, one thread")),
        (
            "host_cpus",
            Json::from(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("workloads", Json::Arr(rows)),
    ]))
}

/// Every run of the document reported `correct`.
fn all_correct(doc: &Json) -> bool {
    doc.get("workloads")
        .map_or(&[][..], Json::items)
        .iter()
        .all(|row| {
            ["end_to_end", "per_layer"]
                .iter()
                .all(|mode| row.get(mode).and_then(|r| r.get("correct")) == Some(&Json::Bool(true)))
        })
}

pub fn run_and_print(options: &Options) -> bool {
    match run_suite(options) {
        Ok(doc) => {
            print!("{}", doc.render_pretty());
            all_correct(&doc)
        }
        Err(message) => {
            eprintln!("agile-benchmark: {message}");
            false
        }
    }
}

/// Value of `metric` in row `workload` of a suite document.
fn value_of(doc: &Json, workload: &str, mode: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?
        .items()
        .iter()
        .find(|row| row.get("name").and_then(Json::as_str) == Some(workload))?
        .get(mode)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Host pairs closer than this are noise whatever their ratio (a 0.02 s
/// wobble on a 0.05 s set-up is not a regression).
const SETUP_SLACK_S: f64 = 0.02;

/// A/A: two runs of the same code must agree — simulated values exactly,
/// bounded host values within their bound.
pub fn run_aa(options: &Options) -> bool {
    let (first, second) = match (run_suite(options), run_suite(options)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(message), _) | (_, Err(message)) => {
            eprintln!("agile-benchmark: {message}");
            return false;
        }
    };
    let mut ok = all_correct(&first) && all_correct(&second);
    let mut rows = Vec::new();
    let modes = [
        ("end_to_end", catalog::END_TO_END),
        ("per_layer", catalog::PER_LAYER),
    ];
    for workload in workloads::all() {
        for (mode, defs) in modes {
            for def in defs.iter().filter(|d| d.simulated || d.bound.is_some()) {
                let (Some(a), Some(b)) = (
                    value_of(&first, workload.name(), mode, def.name),
                    value_of(&second, workload.name(), mode, def.name),
                ) else {
                    eprintln!(
                        "agile-benchmark: {} missing on {}",
                        def.name,
                        workload.name()
                    );
                    ok = false;
                    continue;
                };
                let rel = if a == b {
                    0.0
                } else {
                    (b - a).abs() / a.abs().max(f64::MIN_POSITIVE)
                };
                let within = if def.simulated {
                    a == b
                } else {
                    rel <= def.bound.unwrap_or(0.0)
                        || (def.name == "setup_s" && (b - a).abs() <= SETUP_SLACK_S)
                };
                ok &= within;
                rows.push(Json::obj([
                    ("workload", Json::str(workload.name())),
                    ("metric", Json::str(def.name)),
                    ("first", Json::Num(a)),
                    ("second", Json::Num(b)),
                    ("relative_difference", Json::Num(rel)),
                    (
                        "allowed",
                        if def.simulated {
                            Json::str("identical")
                        } else {
                            Json::Num(def.bound.unwrap_or(0.0))
                        },
                    ),
                    ("within", Json::Bool(within)),
                ]));
            }
        }
    }
    let doc = Json::obj([
        ("aa", Json::str("two back-to-back runs of the same code")),
        ("agree", Json::Bool(ok)),
        ("pairs", Json::Arr(rows)),
        ("first", first),
    ]);
    print!("{}", doc.render_pretty());
    ok
}
