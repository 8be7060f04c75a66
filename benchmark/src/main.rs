//! The repository's benchmark: simulated AGILE-vs-baseline results and the
//! simulator's own host cost, end to end and per layer, on seven workloads.
//! See `README.md` beside this package for the metric tables.
//!
//! Two clocks, never mixed: `sim_*` metrics are on the virtual clock and
//! repeat exactly (every repeat is checked against the first); `host_*` and
//! `setup_s` are host time: the fastest run phase and the median set-up of
//! the repeats that fit in `--seconds`.
//!
//! ```text
//! agile-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one result line
//! agile-benchmark [--seed N] [--seconds S] [--smoke]              whole suite, one document
//! agile-benchmark --aa                                            suite twice, compared
//! agile-benchmark --print-manifest                                what BENCHMARK.json must say
//! ```

mod catalog;
mod decorate;
mod drivers;
mod json;
mod report;
mod spans;
mod suite;
mod workloads;

use std::process::ExitCode;
use workloads::Scale;

/// Default `--seed`.
const DEFAULT_SEED: u64 = 0xA61E;
/// Default `--seconds`, the `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 8;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    aa: bool,
    print_manifest: bool,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        aa: false,
        print_manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = parse_u64(&value("a number")?).ok_or("--seed: not a number")?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds: not a non-negative number")?;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--smoke" => args.smoke = true,
            "--aa" => args.aa = true,
            "--print-manifest" => args.print_manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("agile-benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    let scale = if args.smoke {
        Scale::Smoke
    } else {
        Scale::Full
    };
    if args.print_manifest {
        print!("{}", suite::manifest().render_pretty());
        return ExitCode::SUCCESS;
    }
    let Some(name) = &args.workload else {
        let options = suite::Options {
            seed: args.seed,
            seconds: args.seconds,
            smoke: args.smoke,
        };
        let ok = if args.aa {
            suite::run_aa(&options)
        } else {
            suite::run_and_print(&options)
        };
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    };
    let Some(workload) = workloads::by_name(name) else {
        let known: Vec<_> = workloads::all().iter().map(|w| w.name()).collect();
        eprintln!(
            "agile-benchmark: unknown workload {name}; known: {}",
            known.join(", ")
        );
        return ExitCode::from(2);
    };
    let run = if args.trace {
        report::run_traced(workload, args.seed, scale, args.seconds)
    } else {
        report::run_end_to_end(workload, args.seed, scale, args.seconds)
    };
    // The detail line first, the contract's result object last.
    println!("{}", run.detail.render());
    println!("{}", run.result_line().render());
    ExitCode::SUCCESS
}
