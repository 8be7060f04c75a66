//! `core` layer: SQE issue + release (Algorithm 2), warp coalescing, WFQ
//! admission + completion.

use super::{ns_per_call, DriverResult};
use agile_repro::agile::coalesce::coalesce_warp;
use agile_repro::agile::qos::{QosPolicy, WeightedFair};
use agile_repro::agile::sq_protocol::AgileSq;
use agile_repro::agile::transaction::Transaction;
use agile_repro::nvme::{DmaHandle, NvmeCommand, QueuePair};
use agile_repro::sim::Cycles;
use std::hint::black_box;

pub fn run(calls: u64) -> Vec<DriverResult> {
    let sq = AgileSq::new(QueuePair::new(0, 4096));
    let issue = ns_per_call(calls, || {
        for lba in 0..calls {
            let receipt = sq
                .try_issue(
                    |cid| NvmeCommand::read(cid, black_box(lba), DmaHandle::new()),
                    Transaction::WriteBack,
                    Cycles(0),
                )
                .expect("the queue never fills: every slot is released at once");
            // Stand in for the device fetch and the service completion.
            let _ = sq.queue_pair().sq.take_slot(receipt.cid as u32);
            let _ = sq.transactions().take(receipt.cid);
            sq.release(receipt.cid);
        }
    });

    // A warp's 32 requests over 8 distinct pages.
    let requests: Vec<(u32, u64)> = (0..32).map(|lane| (0, lane % 8)).collect();
    let coalesce_calls = calls / 8;
    let coalesce = ns_per_call(coalesce_calls, || {
        for _ in 0..coalesce_calls {
            black_box(coalesce_warp(black_box(&requests)));
        }
    });

    let wfq = WeightedFair::from_weights(&[1, 1, 2, 4]);
    wfq.bind(8 * 128);
    let admit = ns_per_call(calls, || {
        for i in 0..calls {
            let tenant = (i % 4) as u32;
            black_box(wfq.admit(black_box(tenant), Cycles(i)));
            wfq.on_complete(tenant);
        }
    });

    vec![
        DriverResult {
            metric: "core.sq_issue_host_ns",
            value: issue,
            calls,
        },
        DriverResult {
            metric: "core.coalesce_host_ns",
            value: coalesce,
            calls: coalesce_calls,
        },
        DriverResult {
            metric: "core.wfq_admit_host_ns",
            value: admit,
            calls,
        },
    ]
}
