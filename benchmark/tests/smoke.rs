//! Runs the whole suite at `--smoke` size through the real binary and checks
//! the contract the benchmark makes with `BENCHMARK.json`: same workloads,
//! same metric names, legal names, and simulated numbers that repeat.

use std::collections::BTreeSet;
use std::process::Command;

#[path = "../src/json.rs"]
mod json;
use json::Json;

const BIN: &str = env!("CARGO_BIN_EXE_agile-benchmark");

fn stdout_of(args: &[&str]) -> String {
    let output = Command::new(BIN)
        .args(args)
        .output()
        .expect("benchmark binary starts");
    assert!(
        output.status.success(),
        "agile-benchmark {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 output")
}

fn committed_manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Json) -> BTreeSet<String> {
    list.items()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn legal(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn benchmark_json_is_what_the_benchmark_prints() {
    let printed = Json::parse(&stdout_of(&["--print-manifest"])).expect("manifest parses");
    assert_eq!(
        printed,
        committed_manifest(),
        "BENCHMARK.json drifted from the catalogue: regenerate it with --print-manifest"
    );
}

#[test]
fn smoke_suite_prints_every_metric_on_every_workload() {
    let manifest = committed_manifest();
    let doc = Json::parse(&stdout_of(&["--smoke", "--seconds", "0"])).expect("suite document");
    let rows = doc.get("workloads").expect("workloads").items();
    let printed: BTreeSet<String> = rows
        .iter()
        .map(|r| {
            r.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(printed, names(manifest.get("workloads").unwrap()));

    for row in rows {
        let workload = row.get("name").and_then(Json::as_str).unwrap();
        for (mode, list) in [("end_to_end", "end_to_end"), ("per_layer", "per_layer")] {
            let result = row.get(mode).expect(mode);
            assert_eq!(
                result.get("correct"),
                Some(&Json::Bool(true)),
                "{workload} {mode} is not correct"
            );
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("{workload} {mode} has no metrics object");
            };
            let got: BTreeSet<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(got, names(manifest.get(list).unwrap()), "{workload} {mode}");
            for (name, value) in metrics {
                assert!(legal(name), "illegal metric name {name:?}");
                let v = value.get("value").and_then(Json::as_f64);
                assert!(v.is_some_and(f64::is_finite), "{workload} {name} = {v:?}");
                if mode == "end_to_end" {
                    assert!(v.unwrap() > 0.0, "{workload} {name} must never be 0");
                }
            }
        }
        assert!(legal(workload));
        // Every repeat (at least two in-process runs) reproduced the first
        // one's simulated numbers, and the traced run simulated the same.
        let detail = row.get("end_to_end_detail").expect("detail");
        assert_eq!(detail.get("sim_repeats_identical"), Some(&Json::Bool(true)));
        let repeats = detail
            .get("host_run_ns")
            .and_then(|q| q.get("n"))
            .and_then(Json::as_f64);
        assert!(
            repeats.is_some_and(|n| n >= 2.0),
            "{workload}: {repeats:?} repeats"
        );
        let traced = row.get("per_layer_detail").expect("traced detail");
        assert_eq!(
            traced.get("traced_run_simulates_the_same"),
            Some(&Json::Bool(true)),
            "{workload}"
        );
    }
}
