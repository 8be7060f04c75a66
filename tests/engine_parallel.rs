//! Release-mode speedup checks for the threaded engine.
//!
//! CI runs this with `cargo test --release --test engine_parallel`. Two
//! measurements, both on a machine with at least 4 usable cores:
//!
//! - `EngineSched::ParallelShards(4)` against the sequential event-driven
//!   scheduler on a large **sharded** workload (the device phase). This was
//!   a ≥ 1.3× gate premised on "per-device advancement dominates and the
//!   workers divide it". What dominated was the sequential engine asking
//!   idle SSDs every round whether anything had happened; PR 14 made that
//!   question free, and with it most of what the workers divided: on this
//!   replay the sequential device phase fell from ≈ 2 000 ns to ≈ 55 ns per
//!   round (87 % → ≈ 20 % of the timed loop; 168 716 rounds, 8 SSDs, 2-core
//!   dev box, temporary phase timer), less than one barrier round trip.
//!   Even a free barrier would cap the speedup near 1.3× (Amdahl), so the
//!   floor is no longer attainable and the speedup is **reported, not
//!   asserted**. It could not be re-measured here (2 cores); ROADMAP carries
//!   the follow-up.
//! - The same scheduler replays a warp-dominated **single-shard** workload
//!   at least 1.5× faster (the warp-phase gate: with one lock shard the
//!   device phase is thin, so the win must come from phase-B parallel warp
//!   planning plus device-affine phase-A partitioning — before those, this
//!   shape left every worker idle). Still a gate: its premise is untouched.
//!
//! Both tests require bit-identical results (the identity half is asserted
//! unconditionally; the golden/proptest suites pin it independently).
//!
//! Methodology: each round runs sequential, parallel, parallel, sequential
//! back-to-back, the pair ratio (s1+s2)/(p1+p2) cancels drift that is slow
//! against a round, and the median over rounds sheds outliers. The two
//! sequential runs bracketing each round run identical work, so any spread
//! between them is pure environment noise; when that floor is too high to
//! resolve the margin the gate reports and skips rather than flapping. The
//! measurements also skip on machines without enough cores — a single-core
//! runner degrades the spin barrier to yield-loops and *cannot* show a
//! speedup — and in debug builds (unoptimised atomics are not what ships).

use agile_repro::gpu::EngineSched;
use agile_repro::trace::TraceSpec;
use agile_repro::workloads::experiments::trace_replay::{
    run_trace_replay, ReplayConfig, ReplaySystem,
};
use std::time::Instant;

const THREADS: usize = 4;

/// Bit-identity of the threaded sharded replay (asserted), and its speedup
/// over the sequential scheduler (reported only — see the module docs).
#[test]
fn parallel_shards_speeds_up_the_sharded_replay() {
    if cfg!(debug_assertions) {
        eprintln!("engine_parallel: skipped in debug builds (release-mode gate)");
        return;
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // A sharded 8-SSD replay: the shape with the most per-device work for
    // the threads to divide.
    let trace = TraceSpec::uniform("engine-par", 4242, 8, 1 << 16, 16_384).generate();
    let seq_cfg = ReplayConfig {
        total_warps: 256,
        ..ReplayConfig::default()
    }
    .sharded(THREADS);
    let par_cfg = seq_cfg.clone().with_engine_threads(THREADS);

    // Identity first, on every machine: the threaded run must be
    // bit-identical to the sequential one (modulo the engine_threads
    // provenance tag, which is the config knob's only footprint).
    let seq = run_trace_replay(&trace, ReplaySystem::Agile, &seq_cfg);
    let par = run_trace_replay(&trace, ReplaySystem::Agile, &par_cfg);
    assert!(!seq.deadlocked && !par.deadlocked);
    let untag = |s: String| s.replace(&format!(" engine_threads={THREADS}"), "");
    assert_eq!(
        seq.summary(),
        untag(par.summary()),
        "ParallelShards({THREADS}) must replay bit-identically"
    );

    if cores < THREADS {
        eprintln!(
            "engine_parallel: {cores} usable core(s) < {THREADS} threads; a \
             speedup is physically impossible here, skipping the measurement"
        );
        return;
    }

    let seq_sched = seq_cfg.clone().with_engine_sched(EngineSched::EventQueue);
    let time = |cfg: &ReplayConfig| {
        let start = Instant::now();
        let report = run_trace_replay(&trace, ReplaySystem::Agile, cfg);
        assert!(!report.deadlocked);
        start.elapsed().as_secs_f64()
    };
    // Warm-up pass for each configuration, outside the measurement.
    time(&seq_sched);
    time(&par_cfg);

    const ROUNDS: usize = 5;
    let mut speedups = Vec::with_capacity(ROUNDS);
    let mut noise = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let s1 = time(&seq_sched);
        let p1 = time(&par_cfg);
        let p2 = time(&par_cfg);
        let s2 = time(&seq_sched);
        speedups.push((s1 + s2) / (p1 + p2));
        noise.push(s1.max(s2) / s1.min(s2) - 1.0);
    }
    let median = |v: &mut [f64]| {
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    };
    let noise_floor = median(&mut noise);
    let speedup = median(&mut speedups);
    eprintln!(
        "engine_parallel: median speedup {speedup:.2}x at {THREADS} threads, \
         seq-vs-seq noise floor {:.2}%",
        noise_floor * 100.0
    );
}

const WARP_SPEEDUP_FLOOR: f64 = 1.5;

#[test]
fn parallel_warp_stepping_speeds_up_the_single_shard_replay() {
    if cfg!(debug_assertions) {
        eprintln!("engine_parallel: skipped in debug builds (release-mode gate)");
        return;
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // A single-lock-shard replay with a deep warp roster: the device phase
    // is a thin serial strand, so wall-clock time is dominated by warp
    // stepping. Workers can only help here through phase-B parallel warp
    // planning (SM-affine partitions) and device-affine phase-A partitions.
    let trace = TraceSpec::uniform("engine-warp", 9191, 8, 1 << 16, 16_384).generate();
    let seq_cfg = ReplayConfig {
        total_warps: 256,
        ..ReplayConfig::default()
    }
    .sharded(1);
    let par_cfg = seq_cfg.clone().with_engine_threads(THREADS);

    // Identity first, on every machine.
    let seq = run_trace_replay(&trace, ReplaySystem::Agile, &seq_cfg);
    let par = run_trace_replay(&trace, ReplaySystem::Agile, &par_cfg);
    assert!(!seq.deadlocked && !par.deadlocked);
    let untag = |s: String| s.replace(&format!(" engine_threads={THREADS}"), "");
    assert_eq!(
        seq.summary(),
        untag(par.summary()),
        "single-shard ParallelShards({THREADS}) must replay bit-identically"
    );

    if cores < THREADS {
        eprintln!(
            "engine_parallel: {cores} usable core(s) < {THREADS} threads; a \
             speedup is physically impossible here, skipping the warp-phase gate"
        );
        return;
    }

    let seq_sched = seq_cfg.clone().with_engine_sched(EngineSched::EventQueue);
    let time = |cfg: &ReplayConfig| {
        let start = Instant::now();
        let report = run_trace_replay(&trace, ReplaySystem::Agile, cfg);
        assert!(!report.deadlocked);
        start.elapsed().as_secs_f64()
    };
    time(&seq_sched);
    time(&par_cfg);

    const ROUNDS: usize = 5;
    let mut speedups = Vec::with_capacity(ROUNDS);
    let mut noise = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let s1 = time(&seq_sched);
        let p1 = time(&par_cfg);
        let p2 = time(&par_cfg);
        let s2 = time(&seq_sched);
        speedups.push((s1 + s2) / (p1 + p2));
        noise.push(s1.max(s2) / s1.min(s2) - 1.0);
    }
    let median = |v: &mut [f64]| {
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    };
    let noise_floor = median(&mut noise);
    let speedup = median(&mut speedups);
    eprintln!(
        "engine_parallel: median warp-phase speedup {speedup:.2}x at {THREADS} \
         threads on one lock shard, seq-vs-seq noise floor {:.2}%",
        noise_floor * 100.0
    );
    if noise_floor > 0.15 {
        eprintln!(
            "engine_parallel: environment noise exceeds the resolvable margin; \
             skipping the warp-phase wall-clock assertion"
        );
        return;
    }
    assert!(
        speedup >= WARP_SPEEDUP_FLOOR,
        "single-shard ParallelShards({THREADS}) speedup {speedup:.2}x is below \
         the {WARP_SPEEDUP_FLOOR}x warp-phase floor"
    );
}
