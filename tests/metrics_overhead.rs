//! Release-mode overhead gate for the metrics layer.
//!
//! CI runs this with `cargo test --release --test metrics_overhead`. The
//! contract: replaying with the full metrics stack enabled (registry wired
//! through every layer + windowed sampler bridged into the engine) adds at
//! most [`BUDGET_NS_PER_IO`] of host time per simulated I/O over the
//! un-instrumented replay.
//!
//! The budget is absolute because the thing it bounds is: the
//! instrumentation does a fixed amount of work per I/O, whatever the rest of
//! the simulator costs. It was first written as "≤ 3 % of the bare replay",
//! which silently tightens every time the bare replay gets cheaper — PR 14
//! (idle devices stopped costing anything) cut the bare replay to under a
//! third and the unchanged instrumentation would have read ~10 % of it. The
//! budget is therefore pinned to what 3 % allowed on the commit before that
//! change (3c1d577), measured with this file's wall-clock harness on the
//! development box (2 cores, no PMU): bare replay floor 7 929–8 030 ns per
//! simulated I/O over 14 invocations (16 384 I/Os per run) ⇒ 3 % = 238 ns
//! per I/O. Exactly as strict in absolute terms, not looser — and as tight a
//! fit as it was: the same harness reads the metrics stack at 190–330 ns/IO
//! on that commit and 196–249 ns/IO after PR 14. The test keeps the "three
//! percent" name it descends from. Like every wall-clock number the budget
//! is tied to the class of machine it was taken on.
//!
//! Methodology: wall-clock on shared CI hardware drifts by far more than the
//! budget (frequency scaling, co-tenant interference — the same binary's
//! floor moves ±20 % between invocations), so a timing comparison flaps no
//! matter how it is aggregated. The replay itself is deterministic, though,
//! so the gate prefers counting **retired user-space instructions** via
//! `perf_event_open(2)`: the counts are reproducible to a fraction of a
//! percent and metered − bare measures exactly the instrumentation work
//! added. No PMU was available where the parent commit was measured, so the
//! instruction budget is the nanosecond budget converted at the rate the
//! bare replay itself retires instructions in the same process (its
//! instruction floor over its wall-time floor); the first run on a PMU host
//! should replace that conversion with a measured constant. Where perf is
//! unavailable (no PMU in the VM, paranoid ≥ 3, non-x86-64, other OSes) the
//! gate falls back to wall time: the metered replay's floor minus the bare
//! replay's floor, guarded by a bare-vs-bare measurement that skips the
//! assertion when the environment cannot resolve the budget at all. Debug
//! builds skip the gate: unoptimised atomics are not what ships, and the
//! overhead contract is a release-mode property.

use agile_repro::trace::TraceSpec;
use agile_repro::workloads::experiments::trace_replay::{
    run_trace_replay, ReplayConfig, ReplaySystem,
};
use std::time::Instant;

/// Self-profiling instruction counter over `perf_event_open(2)`, raw
/// syscalls only — the repo carries no libc binding and the offline build
/// cannot add one.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod perf {
    /// `perf_event_attr` for VER5 kernels (4.1+): u32 type, u32 size,
    /// u64 config, then sample_period / sample_type / read_format / flags.
    #[repr(C, align(8))]
    struct Attr([u8; 112]);

    const SYS_PERF_EVENT_OPEN: i64 = 298;
    const SYS_READ: i64 = 0;
    const SYS_CLOSE: i64 = 3;
    const SYS_IOCTL: i64 = 16;
    const IOC_ENABLE: i64 = 0x2400;
    const IOC_DISABLE: i64 = 0x2401;
    const IOC_RESET: i64 = 0x2403;

    unsafe fn syscall5(n: i64, a: i64, b: i64, c: i64, d: i64, e: i64) -> i64 {
        let ret;
        core::arch::asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            in("r8") e,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    pub struct InstrCounter {
        fd: i64,
    }

    impl InstrCounter {
        /// A disabled counter of this process's retired user-space
        /// instructions, or `None` where the kernel refuses one.
        pub fn open() -> Option<Self> {
            let mut attr = Attr([0; 112]);
            attr.0[4..8].copy_from_slice(&112u32.to_ne_bytes()); // size
            attr.0[8..16].copy_from_slice(&1u64.to_ne_bytes()); // PERF_COUNT_HW_INSTRUCTIONS
                                                                // disabled | exclude_kernel | exclude_hv
            attr.0[40..48].copy_from_slice(&0x61u64.to_ne_bytes());
            let fd = unsafe { syscall5(SYS_PERF_EVENT_OPEN, attr.0.as_ptr() as i64, 0, -1, -1, 0) };
            (fd >= 0).then_some(InstrCounter { fd })
        }

        /// Instructions retired while running `f`, plus its result.
        pub fn measure<R>(&self, f: impl FnOnce() -> R) -> (u64, R) {
            let out;
            let mut count = 0u64;
            unsafe {
                syscall5(SYS_IOCTL, self.fd, IOC_RESET, 0, 0, 0);
                syscall5(SYS_IOCTL, self.fd, IOC_ENABLE, 0, 0, 0);
                out = f();
                syscall5(SYS_IOCTL, self.fd, IOC_DISABLE, 0, 0, 0);
                let n = syscall5(SYS_READ, self.fd, &mut count as *mut u64 as i64, 8, 0, 0);
                assert_eq!(n, 8, "perf counter read failed");
            }
            (count, out)
        }
    }

    impl Drop for InstrCounter {
        fn drop(&mut self) {
            unsafe {
                syscall5(SYS_CLOSE, self.fd, 0, 0, 0, 0);
            }
        }
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod perf {
    pub struct InstrCounter;
    impl InstrCounter {
        pub fn open() -> Option<Self> {
            None
        }
        pub fn measure<R>(&self, f: impl FnOnce() -> R) -> (u64, R) {
            (0, f())
        }
    }
}

/// Host nanoseconds per simulated I/O the metrics stack may add (see the
/// header for where the number comes from).
const BUDGET_NS_PER_IO: f64 = 238.0;

#[test]
fn metrics_overhead_is_within_three_percent() {
    if cfg!(debug_assertions) {
        eprintln!("metrics_overhead: skipped in debug builds (release-mode gate)");
        return;
    }
    const IOS: u64 = 16_384;
    let trace = TraceSpec::multi_tenant("overhead-mt", 17, 2, 1 << 14, IOS).generate();
    let bare_cfg = ReplayConfig::default();
    let metered_cfg = bare_cfg.clone().with_metrics();
    let replay = |cfg: &ReplayConfig| {
        let report = run_trace_replay(&trace, ReplaySystem::Agile, cfg);
        assert!(!report.deadlocked);
    };
    let time = |cfg: &ReplayConfig| {
        let start = Instant::now();
        replay(cfg);
        start.elapsed().as_secs_f64() * 1e9
    };
    // Warm-up pass for each configuration, outside the measurement.
    replay(&bare_cfg);
    replay(&metered_cfg);

    let (added, budget, unit) = if let Some(counter) = perf::InstrCounter::open() {
        // The replay is deterministic, so instruction counts barely move
        // between runs; the min of three strips residual allocator jitter.
        let floor = |cfg: &ReplayConfig| {
            (0..3)
                .map(|_| counter.measure(|| time(cfg)))
                .fold((u64::MAX, f64::MAX), |(i, t), (instr, ns)| {
                    (i.min(instr), t.min(ns))
                })
        };
        let ((bare, bare_ns), (metered, _)) = (floor(&bare_cfg), floor(&metered_cfg));
        let instr_per_ns = bare as f64 / bare_ns;
        eprintln!(
            "metrics_overhead: instructions bare {bare}, metered {metered}, \
             bare retires {instr_per_ns:.2} instructions/ns"
        );
        (
            (metered as f64 - bare as f64) / IOS as f64,
            BUDGET_NS_PER_IO * instr_per_ns,
            "instructions",
        )
    } else {
        // Wall-clock fallback. Interference on a shared box only ever adds
        // time, so the floor (minimum) over many runs is the stable estimate
        // of a deterministic replay's cost; the gate compares the metered
        // floor with the bare floor. Each round runs bare, metered, metered,
        // bare back-to-back so slow drift hits both alike. The bare runs
        // that open rounds and those that close them are two independent
        // samples of identical work: the gap between their floors is how
        // far a floor can still be off. When that exceeds a third of the
        // budget, wall time cannot resolve the contract and the gate
        // reports and skips rather than flapping.
        const ROUNDS: usize = 16;
        let [mut bare_open, mut bare_close, mut metered] = [f64::MAX; 3];
        for _ in 0..ROUNDS {
            bare_open = bare_open.min(time(&bare_cfg));
            metered = metered.min(time(&metered_cfg));
            metered = metered.min(time(&metered_cfg));
            bare_close = bare_close.min(time(&bare_cfg));
        }
        let per_io = |ns: f64| ns / IOS as f64;
        let bare = bare_open.min(bare_close);
        let noise_floor = per_io((bare_open - bare_close).abs());
        let added = per_io(metered - bare);
        eprintln!(
            "metrics_overhead: no perf counters; bare replay floor {:.0} ns/IO, \
             bare-vs-bare floor gap {noise_floor:.0} ns/IO",
            per_io(bare)
        );
        if noise_floor > BUDGET_NS_PER_IO / 3.0 {
            eprintln!(
                "metrics_overhead: environment noise exceeds the resolvable margin; \
                 skipping the wall-clock assertion (added {added:.0} ns/IO)"
            );
            return;
        }
        (added, BUDGET_NS_PER_IO, "ns")
    };
    eprintln!("metrics_overhead: metrics add {added:.0} {unit}/IO, budget {budget:.0}");
    assert!(
        added <= budget,
        "metrics add {added:.0} {unit} per simulated I/O, over the {budget:.0} budget"
    );
}
