//! `CompletionQueue::next_post`, the device's schedule published per CQ, from
//! outside the crate.
//!
//! * **It is the schedule.** After every advance each CQ announces the
//!   earliest completion the device has scheduled for it — `0` while one is
//!   parked behind the full CQ, `u64::MAX` when none is scheduled. The test
//!   keeps its own account of every command (fetched at the first advance at
//!   or after its ring + `command_fetch`, fired at the first later advance at
//!   or after its completion time) and compares.
//! * **It is a complete lookahead.** No CQE posts before
//!   min(its CQ's `next_post` after the previous advance, that advance's
//!   time + 1 + `min_post_latency`): a command not scheduled by then is
//!   fetched after it (`command_fetch` is not zero) and takes at least
//!   `min_post_latency` more. This is what lets a service warp sleep through
//!   the sweeps it knows are idle.
//!
//! Advance times are random and sometimes skipped, so fetches and their
//! completions come due in one advance; out-of-range reads and flushes have
//! no flash service and post exactly `min_post_latency` after their fetch.

use agile_sim::trace::{TraceEvent, TraceSink};
use agile_sim::Cycles;
use nvme_sim::{DmaHandle, NvmeCommand, QueuePair, SsdConfig, SsdDevice, StorageTopology};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

const QUEUES: usize = 3;
/// Shallow, and reaped only now and then: completions park.
const DEPTH: u32 = 4;

#[derive(Default)]
struct Log(Mutex<Vec<TraceEvent>>);

impl TraceSink for Log {
    fn record(&self, ev: TraceEvent) {
        self.0.lock().unwrap().push(ev);
    }
}

/// One submitted command, as the test accounts for it.
struct Command {
    qid: usize,
    /// Ring time + `command_fetch`.
    fetch: u64,
    /// Completion time, known from a first run's trace.
    done: u64,
    /// Index of the advance that fetched it.
    scheduled: Option<usize>,
    fired: bool,
}

/// A device, its queues' software side, and the test's account.
struct Rig {
    dev: SsdDevice,
    log: Arc<Log>,
    qps: Vec<Arc<QueuePair>>,
    sq_tail: Vec<u32>,
    cq_head: Vec<(u32, bool)>,
    fetch_delay: u64,
    lookahead: u64,
    /// `(qid, cid)` → completion time; empty on the first run.
    done: HashMap<(u16, u16), u64>,
    commands: Vec<Command>,
    fired: Vec<u32>,
    /// CQEs consumed.
    reaped: usize,
    advances: usize,
    /// Time of the last advance and what each CQ published after it.
    last: (u64, Vec<u64>),
    /// Records checked so far.
    seen: usize,
    /// How often each kind of value was published: `0`, finite, `MAX`.
    kinds: [u64; 3],
}

impl Rig {
    fn new(done: HashMap<(u16, u16), u64>) -> Self {
        let cfg = SsdConfig::new(0).with_capacity_pages(64);
        let fetch_delay = cfg.costs.command_fetch.to_cycles(cfg.clock_ghz).raw();
        let lookahead = cfg.costs.post_delay(cfg.clock_ghz).raw();
        let mut dev = SsdDevice::new(cfg);
        let log = Arc::new(Log::default());
        assert!(dev.set_trace_sink(Arc::clone(&log) as Arc<dyn TraceSink>));
        let qps: Vec<Arc<QueuePair>> = (0..QUEUES)
            .map(|q| {
                let qp = QueuePair::new(q as u16, DEPTH);
                dev.register_queue_pair(Arc::clone(&qp));
                qp
            })
            .collect();
        Rig {
            dev,
            log,
            qps,
            sq_tail: vec![0; QUEUES],
            cq_head: vec![(0, true); QUEUES],
            fetch_delay,
            lookahead,
            done,
            commands: Vec::new(),
            fired: vec![0; QUEUES],
            reaped: 0,
            advances: 0,
            last: (0, vec![u64::MAX; QUEUES]),
            seen: 0,
            kinds: [0; 3],
        }
    }

    fn submit(&mut self, q: usize, build: impl FnOnce(u16) -> NvmeCommand, now: u64) {
        let qp = &self.qps[q];
        if qp.sq.slot_occupied(self.sq_tail[q]) {
            return; // the device has not fetched this slot yet
        }
        let cid = self.commands.len() as u16;
        assert!(qp.sq.write_slot(self.sq_tail[q], build(cid)));
        self.sq_tail[q] = (self.sq_tail[q] + 1) % DEPTH;
        qp.sq_doorbell.ring(self.sq_tail[q], Cycles(now));
        self.commands.push(Command {
            qid: q,
            fetch: now + self.fetch_delay,
            done: self.done.get(&(q as u16, cid)).copied().unwrap_or(0),
            scheduled: None,
            fired: false,
        });
    }

    /// Consume every CQE queue `q` holds.
    fn reap(&mut self, q: usize) {
        let (idx, phase) = &mut self.cq_head[q];
        let cq = &self.qps[q].cq;
        while cq.poll_slot(*idx, *phase).is_some() {
            cq.consume(1);
            *idx += 1;
            if *idx == DEPTH {
                *idx = 0;
                *phase = !*phase;
            }
            self.reaped += 1;
        }
    }

    /// Advance to `now`; with completion times known, check both
    /// properties.
    fn advance(&mut self, now: u64) {
        self.dev.advance_to(Cycles(now));
        let call = self.advances;
        self.advances += 1;
        let check = !self.done.is_empty();
        // The account: fetched at the first advance at or after the fetch
        // time, fired at the first later one at or after the completion.
        for c in &mut self.commands {
            match c.scheduled {
                None if c.fetch <= now => c.scheduled = Some(call),
                Some(at) if !c.fired && at < call && c.done <= now => {
                    c.fired = true;
                    self.fired[c.qid] += 1;
                }
                _ => {}
            }
        }
        let published: Vec<u64> = self.qps.iter().map(|qp| qp.cq.next_post()).collect();
        for (q, &value) in published.iter().enumerate() {
            self.kinds[match value {
                0 => 0,
                u64::MAX => 2,
                _ => 1,
            }] += 1;
            if !check {
                continue;
            }
            let parked = self.fired[q] > self.qps[q].cq.total_posted();
            let earliest = self
                .commands
                .iter()
                .filter(|c| c.qid == q && c.scheduled.is_some() && !c.fired)
                .map(|c| c.done)
                .min()
                .unwrap_or(u64::MAX);
            let expected = if parked { 0 } else { earliest };
            assert_eq!(value, expected, "queue {q} after the advance to {now}");
        }
        // Every CQE this advance posted was announced, or is one fetched
        // after the previous advance.
        let records = self.log.0.lock().unwrap();
        let (before, ref announced) = self.last;
        for ev in &records[self.seen..] {
            let bound = announced[ev.queue as usize].min(before + 1 + self.lookahead);
            assert!(
                ev.at >= bound,
                "CID {} on queue {} completed at {} before {bound} (advance to {now})",
                ev.cid,
                ev.queue,
                ev.at
            );
        }
        self.seen = records.len();
        drop(records);
        self.last = (now, published);
    }

    /// Reap and advance until every command has posted and been reaped.
    fn drain(&mut self, mut now: u64) {
        for _ in 0..100_000 {
            for q in 0..QUEUES {
                self.reap(q);
            }
            if self.dev.quiescent() && self.reaped == self.commands.len() {
                return;
            }
            now = self
                .dev
                .next_event_time()
                .map_or(now + 1_000, |t| t.raw().max(now));
            self.advance(now);
        }
        panic!("device never drained");
    }

    /// `(qid, cid)` → completion time, from the trace.
    fn completions(&self) -> HashMap<(u16, u16), u64> {
        let records = self.log.0.lock().unwrap();
        records.iter().map(|e| ((e.queue, e.cid), e.at)).collect()
    }
}

/// One software action `dt` cycles after the previous one, then (unless bit
/// 6 of `action` is set) an advance.
type Step = (u64, u8, u8);

fn run(script: &[Step], done: HashMap<(u16, u16), u64>) -> Rig {
    let mut rig = Rig::new(done);
    let mut now = 0;
    for &(dt, action, arg) in script {
        now += dt;
        let q = arg as usize % QUEUES;
        // Reads of pages ≥ 64 fail with no flash service.
        let lba = arg as u64 % 80;
        match action % 8 {
            0 | 1 => rig.submit(q, |cid| NvmeCommand::read(cid, lba, DmaHandle::new()), now),
            2 => rig.submit(q, |cid| NvmeCommand::write(cid, lba, DmaHandle::new()), now),
            3 => rig.submit(q, NvmeCommand::flush, now),
            4 => rig.reap(q),
            _ => {}
        }
        if action & 0x40 == 0 {
            rig.advance(now);
        }
    }
    rig.drain(now);
    rig
}

/// Run `script` twice: once to learn every completion time, once checking.
fn checked(script: &[Step]) -> Rig {
    let done = run(script, HashMap::new()).completions();
    run(script, done)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn next_post_is_the_schedule_and_a_complete_lookahead(
        script in collection::vec((0u64..40_000, any::<u8>(), any::<u8>()), 1..150),
    ) {
        checked(&script);
    }
}

#[test]
fn the_lookahead_is_the_topologys_and_scripts_reach_every_kind_of_value() {
    let cfg = SsdConfig::new(0);
    assert_eq!(
        StorageTopology::new(2).min_post_latency(),
        cfg.costs.post_delay(cfg.clock_ghz)
    );
    assert_eq!(StorageTopology::new(0).min_post_latency(), Cycles::ZERO);

    // Bursts of reads, failed reads and flushes, reaped now and then, with
    // advances skipped: completions park, queues empty out, and the bound
    // is met exactly by the commands without flash service.
    let script: Vec<Step> = (0..240u32)
        .map(|i| {
            let action = match i % 13 {
                12 => 4,
                5 => 3,
                _ => (i % 2) as u8 | ((i % 3 == 0) as u8) << 6,
            };
            let arg = (i % 3) as u8 + if i % 7 == 0 { 66 } else { 0 };
            (if i % 40 == 39 { 400_000 } else { 2_500 }, action, arg)
        })
        .collect();
    let rig = checked(&script);
    assert!(rig.dev.stats().cq_stalls > 0, "completions park");
    assert!(rig.dev.stats().errors > 0 && rig.dev.stats().flushes_completed > 0);
    assert!(rig.kinds.iter().all(|&n| n > 0), "{:?}", rig.kinds);
    let tight = rig
        .commands
        .iter()
        .filter(|c| c.done == c.fetch + rig.lookahead)
        .count();
    assert!(
        tight > 0,
        "some command posts exactly the lookahead after its fetch"
    );
}
