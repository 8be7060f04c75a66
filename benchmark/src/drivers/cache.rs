//! `cache` layer: lookup hit, lookup miss (reserve + fill), Share Table.

use super::{ns_per_call, DriverResult};
use agile_repro::cache::{CacheConfig, CacheLookup, ClockPolicy, ShardedCache, ShareTable};
use agile_repro::nvme::{DmaHandle, PageToken};
use std::hint::black_box;

fn clock_cache(bytes: u64) -> ShardedCache {
    ShardedCache::new(CacheConfig::with_capacity(bytes), 1, 0, || {
        Box::new(ClockPolicy::new())
    })
}

pub fn run(calls: u64) -> Vec<DriverResult> {
    // Hit: a resident working set of 1024 pages, looked up round-robin.
    let cache = clock_cache(64 << 20);
    for lba in 0..1024u64 {
        cache.preload(0, lba, PageToken(lba));
    }
    let hit = ns_per_call(calls, || {
        for i in 0..calls {
            match cache.lookup_or_reserve(0, black_box(i % 1024)) {
                CacheLookup::Hit { line, token } => {
                    cache.unpin(line);
                    black_box(token);
                }
                _ => unreachable!("page was preloaded"),
            }
        }
    });

    // Miss: every lookup is a new page, so it reserves a line (evicting once
    // the 16 MiB cache is full), fills and unpins it.
    let cache = clock_cache(16 << 20);
    let mut next = 0u64;
    let miss = ns_per_call(calls, || {
        for _ in 0..calls {
            next += 1;
            if let CacheLookup::Miss { line, dma, .. } = cache.lookup_or_reserve(0, black_box(next))
            {
                dma.store(PageToken(next));
                cache.complete_fill(line);
                cache.unpin(line);
            }
        }
    });

    let table = ShareTable::new();
    let share = ns_per_call(calls, || {
        for lba in 0..calls {
            let buf = table.register(0, black_box(lba), DmaHandle::new(), 1);
            black_box(buf.is_some());
            black_box(table.release(0, lba));
        }
    });

    vec![
        DriverResult {
            metric: "cache.lookup_hit_host_ns",
            value: hit,
            calls,
        },
        DriverResult {
            metric: "cache.lookup_miss_host_ns",
            value: miss,
            calls,
        },
        DriverResult {
            metric: "cache.share_table_host_ns",
            value: share,
            calls,
        },
    ]
}
