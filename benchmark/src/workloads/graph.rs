//! `graph_bfs_kron`: level-synchronous BFS from vertex 0 over a seeded
//! Kronecker graph whose adjacency lives on the SSD, through `AgileAccessor`
//! (primary) and `BamAccessor` (baseline). Data-dependent access, one kernel
//! launch per level, and the only workload whose *output* — the distance
//! vector — is checked against a host BFS. The cache starts empty.
//!
//! An operation is one traversed edge; an edge counts as verified when its
//! source vertex got the reference distance.

use super::{gpu, instrument, timed_run, Instruments, Outcome, Prepared, Scale, Side};
use crate::decorate::{SpanLog, TimedAccessor, TimedFactory};
use agile_repro::agile::{AgileConfig, AgileHost};
use agile_repro::bam::{BamConfig, BamHost, HostBuilder};
use agile_repro::cache::ShardedCache;
use agile_repro::gpu::{Engine, ExecutionReport, KernelFactory, LaunchConfig};
use agile_repro::nvme::PageToken;
use agile_repro::sim::units::MIB;
use agile_repro::workloads::accessor::{AgileAccessor, BamAccessor, HbmAccessor, PageAccessor};
use agile_repro::workloads::graph::bfs::run_bfs;
use agile_repro::workloads::graph::csr::CsrGraph;
use agile_repro::workloads::graph::generate::generate_kronecker;
use std::sync::Arc;

pub struct GraphBfsKron;

const WARPS: u64 = 256;
const CACHE_BYTES: u64 = 256 * MIB;
/// `(log2 vertices, edge factor)`.
const GRAPH: (u32, usize) = (16, 16);
const SMOKE_GRAPH: (u32, usize) = (8, 8);
const SOURCE: u32 = 0;

fn launch() -> LaunchConfig {
    LaunchConfig::new((WARPS / 8) as u32, 256).with_registers(48)
}

fn graph(seed: u64, scale: Scale) -> Arc<CsrGraph> {
    let (log2_vertices, edge_factor) = scale.pick(GRAPH, SMOKE_GRAPH);
    Arc::new(generate_kronecker(log2_vertices, edge_factor, seed))
}

fn namespace_pages(graph: &CsrGraph) -> u64 {
    (graph.layout.val_base + graph.all_pages(true).len() as u64 + 16).max(1 << 21)
}

/// What runs a level kernel: a storage host, or a bare engine per level when
/// the adjacency is resident in HBM.
enum Runner {
    Agile(AgileHost),
    Bam(BamHost),
    Hbm,
}

impl Runner {
    fn run_level(&mut self, factory: Box<dyn KernelFactory>) -> ExecutionReport {
        match self {
            Runner::Agile(host) => host.run_kernel(launch(), factory),
            Runner::Bam(host) => host.run_kernel(launch(), factory),
            Runner::Hbm => {
                let mut engine = Engine::new(gpu());
                engine.launch(launch(), factory);
                engine.run()
            }
        }
    }

    /// Simulated clock of the host (0 without one).
    fn now(&self) -> u64 {
        match self {
            Runner::Agile(host) => host.now().raw(),
            Runner::Bam(host) => host.now().raw(),
            Runner::Hbm => 0,
        }
    }
}

struct PreparedBfs {
    graph: Arc<CsrGraph>,
    /// The path the level kernels read the adjacency through.
    accessor: Arc<dyn PageAccessor>,
    runner: Runner,
    spans: Option<Arc<SpanLog>>,
}

impl Prepared for PreparedBfs {
    fn run(self: Box<Self>) -> Outcome {
        let PreparedBfs {
            graph,
            accessor,
            mut runner,
            spans,
        } = *self;
        let (mut sim_cycles, mut rounds, mut launches, mut host_run_ns) = (0, 0, 0, 0);
        let (dist, _levels) = run_bfs(Arc::clone(&graph), SOURCE, accessor, WARPS, |kernel| {
            let factory: Box<dyn KernelFactory> = match &spans {
                Some(log) => TimedFactory::wrap(Box::new(kernel), log),
                None => Box::new(kernel),
            };
            let (report, ns) = timed_run(spans.as_ref(), || runner.run_level(factory));
            sim_cycles += report.elapsed.raw();
            rounds += report.rounds;
            launches += 1;
            host_run_ns += ns;
            report
        });
        let reference = graph.reference_bfs(SOURCE);
        let (mut ops, mut verified, mut spurious) = (0u64, 0u64, 0u64);
        for (v, (&want, &got)) in reference.iter().zip(&dist).enumerate() {
            if want == u32::MAX {
                // A vertex the reference never reaches must stay unreached.
                spurious += u64::from(got != u32::MAX);
                continue;
            }
            let degree = graph.neighbours(v as u32).len() as u64;
            ops += degree;
            if got == want {
                verified += degree;
            }
        }
        Outcome {
            ops,
            verified: verified.saturating_sub(spurious),
            sim_cycles,
            sim_end: runner.now(),
            host_run_ns,
            rounds,
            launches,
            devices: 1,
            latency_us: None,
            victim_p99_us: None,
        }
    }
}

/// Build one side's BFS; `preload` fills the cache with the whole adjacency
/// first (the "cache API" step of the paper's Figure 11).
fn prepare_side(
    graph: Arc<CsrGraph>,
    side: Side,
    preload: bool,
    instr: Option<&Instruments>,
) -> Box<dyn Prepared> {
    let pages = namespace_pages(&graph);
    let fill = |cache: &ShardedCache| {
        if preload {
            for (dev, lba) in graph.all_pages(false) {
                assert!(cache.preload(dev, lba, PageToken::pristine(dev, lba)));
            }
        }
    };
    let (runner, accessor): (Runner, Arc<dyn PageAccessor>) = match side {
        Side::Primary => {
            let config = AgileConfig::paper_default()
                .with_queue_pairs(32)
                .with_queue_depth(256)
                .with_cache_bytes(CACHE_BYTES);
            let builder = HostBuilder::agile(config).gpu(gpu()).devices(1, pages);
            let host = instrument(builder, instr).build();
            let ctrl = host.ctrl();
            fill(ctrl.cache());
            (Runner::Agile(host), Arc::new(AgileAccessor::new(ctrl)))
        }
        Side::Baseline => {
            let config = BamConfig::paper_default()
                .with_queue_pairs(32)
                .with_queue_depth(256)
                .with_cache_bytes(CACHE_BYTES);
            let builder = HostBuilder::bam(config).gpu(gpu()).devices(1, pages);
            let host = instrument(builder, instr).build();
            let ctrl = host.ctrl();
            fill(ctrl.cache());
            (Runner::Bam(host), Arc::new(BamAccessor::new(ctrl)))
        }
    };
    Box::new(PreparedBfs {
        graph,
        accessor: match instr {
            Some(i) => TimedAccessor::wrap(accessor, &i.spans),
            None => accessor,
        },
        runner,
        spans: instr.map(|i| Arc::clone(&i.spans)),
    })
}

/// BFS with the adjacency resident in HBM: the "kernel time" of Figure 11.
fn hbm_only_cycles(graph: Arc<CsrGraph>) -> u64 {
    let prepared = PreparedBfs {
        graph,
        accessor: Arc::new(HbmAccessor::new()),
        runner: Runner::Hbm,
        spans: None,
    };
    Box::new(prepared).run().sim_cycles
}

/// `baseline overhead ÷ AGILE overhead`; equal (1.0) when both are zero.
fn overhead_ratio(agile: u64, bam: u64) -> f64 {
    if agile == 0 && bam == 0 {
        1.0
    } else {
        bam as f64 / agile.max(1) as f64
    }
}

impl super::Workload for GraphBfsKron {
    fn name(&self) -> &'static str {
        "graph_bfs_kron"
    }

    fn why(&self) -> &'static str {
        "Data-dependent access, one kernel launch per BFS level, output checked against a host BFS; carries the Fig 11 overhead breakdown."
    }

    fn baseline(&self) -> &'static str {
        "BaM, same graph, same cold cache"
    }

    fn cache_start(&self) -> &'static str {
        "empty (256 MiB, larger than the adjacency)"
    }

    fn prepare(
        &self,
        seed: u64,
        scale: Scale,
        side: Side,
        instr: Option<&Instruments>,
    ) -> Box<dyn Prepared> {
        prepare_side(graph(seed, scale), side, false, instr)
    }

    /// The three-step breakdown of the paper's Figure 11: kernel time (HBM),
    /// cache-API overhead (preloaded − HBM) and I/O-API overhead (cold −
    /// preloaded), each as BaM's overhead over AGILE's.
    fn extra_layer_metrics(
        &self,
        seed: u64,
        scale: Scale,
        primary: &Outcome,
        baseline: &Outcome,
    ) -> Vec<(&'static str, f64)> {
        let graph = graph(seed, scale);
        let kernel = hbm_only_cycles(Arc::clone(&graph));
        let preloaded = |side| {
            prepare_side(Arc::clone(&graph), side, true, None)
                .run()
                .sim_cycles
        };
        let (agile_warm, bam_warm) = (preloaded(Side::Primary), preloaded(Side::Baseline));
        vec![
            (
                "cache.api_overhead_ratio_vs_bam",
                overhead_ratio(
                    agile_warm.saturating_sub(kernel),
                    bam_warm.saturating_sub(kernel),
                ),
            ),
            (
                "core.io_overhead_ratio_vs_bam",
                overhead_ratio(
                    primary.sim_cycles.saturating_sub(agile_warm),
                    baseline.sim_cycles.saturating_sub(bam_warm),
                ),
            ),
        ]
    }
}
