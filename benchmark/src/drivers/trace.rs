//! `trace` layer: synthetic generation, event-log encode and decode.

use super::{ns_per_call, DriverResult};
use agile_repro::trace::{decode_events, encode_events, TraceEvent, TraceEventKind, TraceSpec};
use std::hint::black_box;

pub fn run(calls: u64) -> Vec<DriverResult> {
    let n = (calls / 16).max(1);
    let mut seed = 0u64;
    let generate = ns_per_call(n, || {
        seed += 1;
        let spec = TraceSpec::multi_tenant("driver", black_box(seed), 4, 1 << 16, n);
        black_box(spec.generate());
    });

    let events: Vec<TraceEvent> = (0..n)
        .map(|i| {
            TraceEvent::new(TraceEventKind::ALL[(i % 4) as usize], i * 37)
                .target((i % 4) as u32, i * 7919 % (1 << 16))
                .queue((i % 8) as u16, (i % 128) as u16)
                .tenant((i % 3) as u32)
        })
        .collect();
    let encode = ns_per_call(n, || {
        black_box(encode_events(black_box(&events)));
    });
    let bytes = encode_events(&events);
    let decode = ns_per_call(n, || {
        black_box(decode_events(black_box(&bytes)).expect("just encoded"));
    });

    vec![
        DriverResult {
            metric: "trace.generate_host_ns_per_op",
            value: generate,
            calls: n,
        },
        DriverResult {
            metric: "trace.encode_host_ns_per_event",
            value: encode,
            calls: n,
        },
        DriverResult {
            metric: "trace.decode_host_ns_per_event",
            value: decode,
            calls: n,
        },
    ]
}
