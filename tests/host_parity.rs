//! One host contract, two systems: the generic `Host<S>` must bring AGILE
//! and the BaM baseline up through the same wiring, so every check here is
//! written once against `HostSystem` and instantiated for both. Below the
//! host, both controllers stand on one `IoPath`: the same command stream
//! must leave the same submit / retire footprint on either, apart from the
//! per-call cost constant.

use agile_repro::agile::kernels::PrefetchComputeKernel;
use agile_repro::agile::qos::{QosPolicy, WeightedFair};
use agile_repro::agile::sq_protocol::SqeState;
use agile_repro::agile::transaction::{Barrier, Transaction};
use agile_repro::agile::{AgileConfig, AgileCtrl, Host, HostSystem, IoPath, StorageCtrl, Traffic};
use agile_repro::bam::{BamConfig, BamCtrl, HostBuilder, SyncReadComputeKernel};
use agile_repro::control::ControlPolicy;
use agile_repro::gpu::{GpuConfig, KernelFactory, LaunchConfig};
use agile_repro::metrics::MetricsRegistry;
use agile_repro::nvme::{DmaHandle, NvmeCommand, PageToken, QueuePair};
use agile_repro::sim::trace::{TraceEvent, TraceEventKind};
use agile_repro::sim::Cycles;
use agile_repro::trace::MemorySink;
use std::sync::Arc;

const DEVICES: usize = 4;
const PAGES: u64 = 1 << 14;

type Kernel<S> = fn(Arc<<S as HostSystem>::Ctrl>) -> (LaunchConfig, Box<dyn KernelFactory>);

fn contract<S: HostSystem>(
    config: S::Config,
    builder: fn(S::Config) -> HostBuilder<S>,
    kernel: Kernel<S>,
) {
    let base = || {
        builder(config.clone())
            .gpu(GpuConfig::tiny(4))
            .devices(DEVICES, PAGES)
    };
    let run = |host: &mut Host<S>| {
        let (launch, factory) = kernel(host.ctrl());
        let report = host.run_kernel(launch, factory);
        assert!(!report.deadlocked);
        host.stop();
    };

    // The one array comes up with every device, its lock untouched.
    let topology = base().build().topology();
    assert_eq!(topology.device_count(), DEVICES);
    assert_eq!(
        (topology.lock_acquires(), topology.lock_wait_cycles()),
        (0, 0)
    );

    // `.metrics(reg)` registers the cache and topology collector families.
    let registry = MetricsRegistry::new();
    let mut host = base().metrics(Arc::clone(&registry)).build();
    run(&mut host);
    let snapshot = registry.snapshot();
    for family in ["agile_cache_misses_total", "agile_device_doorbells_total"] {
        assert!(
            snapshot.family(family).next().is_some(),
            "{family} must be exported"
        );
    }

    // `.control(policy)` alone auto-creates the registry / sampler pair.
    let host = base().control(ControlPolicy::all()).build();
    assert!(host.controller().is_some());
    assert!(host.metrics().is_some());

    // Zero devices is refused with the builder's message.
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        builder(config.clone()).build();
    }))
    .expect_err("building without devices must panic");
    let msg = err.downcast_ref::<&str>().expect("literal panic message");
    assert!(msg.contains("at least one device"), "got: {msg}");
}

#[test]
fn agile_host_honours_the_contract() {
    contract(AgileConfig::small_test(), HostBuilder::agile, |ctrl| {
        (
            LaunchConfig::new(2, 64).with_registers(32),
            Box::new(PrefetchComputeKernel::new(ctrl, 4, 3_000)),
        )
    });
}

#[test]
fn bam_host_honours_the_contract() {
    contract(BamConfig::small_test(), HostBuilder::bam, |ctrl| {
        (
            LaunchConfig::new(2, 64).with_registers(56),
            Box::new(SyncReadComputeKernel::new(ctrl, 3, 2_000, 50_000)),
        )
    });
}

/// Two queue pairs of depth 4 over one device, nothing behind them: issued
/// commands stay in flight until the test retires them by hand.
const QPS: usize = 2;
const DEPTH: u32 = 4;

fn bare_queues() -> Vec<Vec<Arc<QueuePair>>> {
    vec![(0..QPS).map(|q| QueuePair::new(q as u16, DEPTH)).collect()]
}

/// One submission of the parity stream (all from warp 0, so queue 0 is the
/// home SQ and queue 1 the fail-over target).
#[derive(Clone, Copy)]
struct Op {
    traffic: Traffic,
    write: bool,
    lba: u64,
}

/// Drive `ops` through `io`; returns each call's `(cost, issued)`.
fn drive(io: &IoPath, ops: &[Op]) -> Vec<(Cycles, bool)> {
    ops.iter()
        .enumerate()
        .map(|(i, op)| {
            let now = Cycles(10 * i as u64);
            match op.traffic {
                Traffic::Tenant(t) if op.write => {
                    io.raw_write(0, t, 0, op.lba, PageToken(op.lba), Barrier::new(), now)
                }
                Traffic::Tenant(t) => {
                    io.raw_read(0, t, 0, op.lba, DmaHandle::new(), Barrier::new(), now)
                }
                Traffic::System => io.submit(
                    0,
                    0,
                    Traffic::System,
                    |cid| NvmeCommand::write(cid, op.lba, DmaHandle::new()),
                    Transaction::WriteBack,
                    now,
                ),
            }
        })
        .collect()
}

/// One system's bare-queue controller with its own sink and (optionally)
/// WFQ policy installed.
struct Side {
    ctrl: Arc<dyn StorageCtrl>,
    sink: Arc<MemorySink>,
    wfq: Option<Arc<WeightedFair>>,
}

impl Side {
    fn new(ctrl: Arc<dyn StorageCtrl>, wfq: bool) -> Self {
        let sink = Arc::new(MemorySink::new());
        assert!(ctrl.io().set_trace_sink(sink.clone() as Arc<_>));
        let wfq = wfq.then(|| Arc::new(WeightedFair::new()));
        if let Some(policy) = &wfq {
            assert!(ctrl.io().set_qos_policy(policy.clone() as Arc<_>));
        }
        Side { ctrl, sink, wfq }
    }

    /// The captured events of `kinds` since the last call, in order.
    fn take(&self, kinds: &[TraceEventKind]) -> Vec<TraceEvent> {
        let mut events = self.sink.take_events();
        events.retain(|e| kinds.contains(&e.kind));
        events
    }

    /// Retire every issued command, stamping `poller` on the records.
    fn retire_all(&self, poller: Option<u32>) {
        let io = self.ctrl.io();
        for (q, sq) in io.device_queues(0).iter().enumerate() {
            for cid in 0..DEPTH {
                if sq.slot_state(cid) == SqeState::Issued {
                    io.retire(0, q, cid as u16, poller, Cycles(9_999));
                }
            }
            assert_eq!(sq.free_slots(), DEPTH, "every SQE released");
        }
    }
}

/// Run `ops` through an AGILE and a BaM bare-queue rig and check the two
/// leave the same footprint; returns the per-call outcomes and the
/// `(sq_full_retries, qos_deferrals)` both agreed on.
fn submit_retire_parity(wfq: bool, ops: &[Op]) -> (Vec<bool>, u64, u64) {
    let agile = AgileConfig::small_test()
        .with_queue_pairs(QPS)
        .with_queue_depth(DEPTH);
    let bam = BamConfig::small_test()
        .with_queue_pairs(QPS)
        .with_queue_depth(DEPTH);
    let issue_gap = Cycles(bam.costs.api.bam_issue - agile.costs.api.agile_issue);
    let agile = Side::new(Arc::new(AgileCtrl::new(agile, bare_queues())), wfq);
    let bam = Side::new(Arc::new(BamCtrl::new(bam, bare_queues())), wfq);
    let (a, b) = (drive(agile.ctrl.io(), ops), drive(bam.ctrl.io(), ops));
    let (sa, sb) = (agile.ctrl.io().stats(), bam.ctrl.io().stats());
    assert_eq!(sa.sq_full_retries, sb.sq_full_retries);
    assert_eq!(sa.qos_deferrals, sb.qos_deferrals);

    // Same outcomes; costs apart by exactly the issue constant on every call
    // that reached the queues (a QoS deferral never does: it costs one probe
    // on either system).
    let issued: Vec<bool> = a.iter().map(|&(_, ok)| ok).collect();
    assert_eq!(issued, b.iter().map(|&(_, ok)| ok).collect::<Vec<_>>());
    let gaps: Vec<Cycles> = a.iter().zip(&b).map(|(x, y)| y.0 - x.0).collect();
    assert!(gaps.iter().all(|&g| g == issue_gap || g == Cycles(0)));
    let same_cost = gaps.iter().filter(|&&g| g == Cycles(0)).count() as u64;
    assert_eq!(same_cost, sa.qos_deferrals, "only deferrals cost the same");

    // Identical Submit / Doorbell / QosDefer sequences, field for field
    // (time, dev, lba, queue, cid, tenant, write).
    let submit_kinds = [
        TraceEventKind::Submit,
        TraceEventKind::Doorbell,
        TraceEventKind::QosDefer,
    ];
    let submits = agile.take(&submit_kinds);
    assert_eq!(submits, bam.take(&submit_kinds));
    let count = |kind| submits.iter().filter(|e| e.kind == kind).count();
    let in_flight = issued.iter().filter(|&&ok| ok).count();
    assert_eq!(count(TraceEventKind::Submit), in_flight);
    assert_eq!(count(TraceEventKind::QosDefer) as u64, sa.qos_deferrals);

    // Retire everything in flight, the AGILE way (no poller identity) and
    // the BaM way (the polling warp): same SQEs freed, same QoS credits
    // returned, same completion records apart from that identity.
    agile.retire_all(None);
    bam.retire_all(Some(7));
    let (ca, cb) = (
        agile.take(&[TraceEventKind::ServiceCompletion]),
        bam.take(&[TraceEventKind::ServiceCompletion]),
    );
    assert_eq!(ca.len(), in_flight);
    assert!(ca.iter().all(|e| e.tenant == 0) && cb.iter().all(|e| e.tenant == 7));
    let anonymous: Vec<TraceEvent> = cb.iter().map(|e| TraceEvent { tenant: 0, ..*e }).collect();
    assert_eq!(ca, anonymous);
    if let (Some(pa), Some(pb)) = (&agile.wfq, &bam.wfq) {
        let credits = |p: &WeightedFair| -> Vec<u64> {
            p.tenant_stats().iter().map(|t| t.in_flight).collect()
        };
        assert_eq!(credits(pa), credits(pb));
        assert!(credits(pa).iter().all(|&n| n == 0), "every credit returned");
    }
    (issued, sa.sq_full_retries, sa.qos_deferrals)
}

#[test]
fn submit_and_retire_leave_the_same_footprint_on_both_systems() {
    let tenant = |t: u32, write: bool, lba: u64| Op {
        traffic: Traffic::Tenant(t),
        write,
        lba,
    };
    let system = |lba: u64| Op {
        traffic: Traffic::System,
        write: true,
        lba,
    };

    // FIFO: 4 fill the home SQ, 4 fail over to the neighbour, 3 find every
    // SQ full — alternating reads and writes, two tenants plus system ops.
    let fifo: Vec<Op> = (0..11u64)
        .map(|i| match i % 3 {
            0 => tenant(0, false, i),
            1 => tenant(1, true, i),
            _ => system(i),
        })
        .collect();
    let (issued, sq_full, deferred) = submit_retire_parity(false, &fifo);
    assert_eq!(issued.iter().filter(|&&ok| ok).count(), 8, "QPS × DEPTH");
    assert_eq!((sq_full, deferred), (3, 0));

    // WFQ over the 8 slots (4 per active tenant): tenant 1 turns active,
    // tenant 0 is admitted 4 times then deferred at its share; system
    // traffic (gate-exempt) fills the rest; tenant 1 is then admitted by
    // the policy, finds every SQ full and is refunded.
    let mut wfq = vec![tenant(1, false, 100)];
    wfq.extend((0..5).map(|i| tenant(0, i % 2 == 1, 200 + i)));
    wfq.extend((0..3).map(|i| system(300 + i)));
    wfq.push(tenant(1, true, 400));
    let (issued, sq_full, deferred) = submit_retire_parity(true, &wfq);
    assert_eq!(
        issued,
        [true, true, true, true, true, false, true, true, true, false]
    );
    assert_eq!((sq_full, deferred), (1, 1), "one refund, one deferral");
}
