//! Snapshot exporters: JSON and Prometheus text exposition.
//!
//! Both formats are emitted deterministically (samples are already sorted by
//! `(name, labels)`). Everything is integers by construction: counters,
//! gauges, bucket counts and bucket indices are `u64`/`u32`, so no float
//! formatting is involved and byte-identity across runs is structural.
//!
//! Prometheus histograms are the standard `_bucket{le=…}` cumulative form
//! (upper bounds from the log-linear layout) plus `_sum`/`_count`; the JSON
//! form also carries each histogram's tracked `min` and `max`.

use crate::registry::Labels;
use crate::snapshot::{MetricValue, MetricsSnapshot};
use agile_trace::stats::bucket_upper_bound;
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

fn labels_json(labels: &Labels) -> String {
    let pairs: Vec<String> = labels
        .pairs()
        .into_iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    format!("{{{}}}", pairs.join(","))
}

impl MetricsSnapshot {
    /// Serialize as deterministic JSON (integers only, samples in
    /// `(name, labels)` order).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"samples\":[");
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"labels\":{}",
                s.name,
                labels_json(&s.labels)
            );
            match &s.value {
                MetricValue::Counter(v) => {
                    let _ = write!(out, ",\"type\":\"counter\",\"value\":{v}}}");
                }
                MetricValue::Gauge(v) => {
                    let _ = write!(out, ",\"type\":\"gauge\",\"value\":{v}}}");
                }
                MetricValue::Histo(h) => {
                    let _ = write!(
                        out,
                        ",\"type\":\"histo\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                        h.count, h.sum, h.min, h.max
                    );
                    for (j, (idx, c)) in h.buckets.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "[{idx},{c}]");
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push_str("]}");
        out
    }

    /// Serialize as Prometheus text exposition.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for s in &self.samples {
            let kind = match &s.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histo(_) => "histogram",
            };
            if last_name != Some(s.name) {
                let _ = writeln!(out, "# TYPE {} {}", s.name, kind);
                last_name = Some(s.name);
            }
            let base_labels: Vec<String> = s
                .labels
                .pairs()
                .into_iter()
                .map(|(k, v)| format!("{k}=\"{v}\""))
                .collect();
            let plain = if base_labels.is_empty() {
                String::new()
            } else {
                format!("{{{}}}", base_labels.join(","))
            };
            match &s.value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{}{} {}", s.name, plain, v);
                }
                MetricValue::Histo(h) => {
                    let with_le = |le: &str| {
                        let mut ls = base_labels.clone();
                        ls.push(format!("le=\"{le}\""));
                        format!("{{{}}}", ls.join(","))
                    };
                    let mut cumulative = 0u64;
                    for &(idx, c) in &h.buckets {
                        cumulative += c;
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            s.name,
                            with_le(&bucket_upper_bound(idx as usize).to_string()),
                            cumulative
                        );
                    }
                    let _ = writeln!(out, "{}_bucket{} {}", s.name, with_le("+Inf"), h.count);
                    let _ = writeln!(out, "{}_sum{} {}", s.name, plain, h.sum);
                    let _ = writeln!(out, "{}_count{} {}", s.name, plain, h.count);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{
        windows_to_json, Collector, HistoSnapshot, LabelDim, Labels, MetricValue, MetricsRegistry,
        Sample, WindowedSampler,
    };
    use agile_trace::stats::LatencyHistogram;
    use std::sync::{Arc, Mutex};

    /// A gauge and two latency histograms, read at snapshot time like any
    /// layer's stats.
    #[derive(Default)]
    struct Layer {
        high_water: u64,
        latency: [LatencyHistogram; 2],
    }

    struct LayerCollector(Arc<Mutex<Layer>>);

    impl Collector for LayerCollector {
        fn collect(&self, out: &mut Vec<Sample>) {
            let layer = self.0.lock().unwrap();
            out.push(Sample {
                name: "agile_engine_ready_queue_high_water",
                labels: Labels::NONE,
                value: MetricValue::Gauge(layer.high_water),
            });
            for (tenant, h) in (1..).zip(&layer.latency) {
                out.push(Sample {
                    name: "agile_replay_latency_cycles",
                    labels: Labels::tenant(tenant),
                    value: MetricValue::Histo(Box::new(HistoSnapshot::of(h))),
                });
            }
        }
    }

    /// A counter, a tenant family, a gauge, a multi-bucket histogram and an
    /// empty one.
    fn sample_registry() -> (Arc<MetricsRegistry>, Arc<Mutex<Layer>>) {
        let reg = MetricsRegistry::new();
        reg.counter("agile_submit_admissions_total", Labels::NONE)
            .add(42);
        let fam = reg.counter_family("agile_submit_qos_deferrals_total", LabelDim::Tenant);
        fam.add(0, 3);
        fam.add(1, 9);
        let layer = Arc::new(Mutex::new(Layer::default()));
        {
            let mut l = layer.lock().unwrap();
            l.high_water = 17;
            for v in [5u64, 5, 70, 4_000, 1 << 22] {
                l.latency[0].record(v);
            }
        }
        reg.register_collector(Box::new(LayerCollector(Arc::clone(&layer))));
        (reg, layer)
    }

    #[test]
    fn json_output_is_pinned() {
        let expected = concat!(
            r#"{"samples":["#,
            r#"{"name":"agile_engine_ready_queue_high_water","labels":{},"type":"gauge","value":17},"#,
            r#"{"name":"agile_replay_latency_cycles","labels":{"tenant":1},"type":"histo","#,
            r#""count":5,"sum":4198384,"min":5,"max":4194304,"#,
            r#""buckets":[[5,2],[67,1],[254,1],[576,1]]},"#,
            r#"{"name":"agile_replay_latency_cycles","labels":{"tenant":2},"type":"histo","#,
            r#""count":0,"sum":0,"min":18446744073709551615,"max":0,"buckets":[]},"#,
            r#"{"name":"agile_submit_admissions_total","labels":{},"type":"counter","value":42},"#,
            r#"{"name":"agile_submit_qos_deferrals_total","labels":{"tenant":0},"type":"counter","value":3},"#,
            r#"{"name":"agile_submit_qos_deferrals_total","labels":{"tenant":1},"type":"counter","value":9}"#,
            r#"]}"#,
        );
        assert_eq!(sample_registry().0.snapshot().to_json(), expected);
    }

    #[test]
    fn prometheus_output_is_pinned() {
        // Standard exposition only: cumulative `_bucket`s ending in `+Inf`,
        // then `_sum` and `_count`; one `# TYPE` line per family.
        let expected = "\
# TYPE agile_engine_ready_queue_high_water gauge
agile_engine_ready_queue_high_water 17
# TYPE agile_replay_latency_cycles histogram
agile_replay_latency_cycles_bucket{tenant=\"1\",le=\"5\"} 2
agile_replay_latency_cycles_bucket{tenant=\"1\",le=\"71\"} 3
agile_replay_latency_cycles_bucket{tenant=\"1\",le=\"4031\"} 4
agile_replay_latency_cycles_bucket{tenant=\"1\",le=\"4325375\"} 5
agile_replay_latency_cycles_bucket{tenant=\"1\",le=\"+Inf\"} 5
agile_replay_latency_cycles_sum{tenant=\"1\"} 4198384
agile_replay_latency_cycles_count{tenant=\"1\"} 5
agile_replay_latency_cycles_bucket{tenant=\"2\",le=\"+Inf\"} 0
agile_replay_latency_cycles_sum{tenant=\"2\"} 0
agile_replay_latency_cycles_count{tenant=\"2\"} 0
# TYPE agile_submit_admissions_total counter
agile_submit_admissions_total 42
# TYPE agile_submit_qos_deferrals_total counter
agile_submit_qos_deferrals_total{tenant=\"0\"} 3
agile_submit_qos_deferrals_total{tenant=\"1\"} 9
";
        assert_eq!(sample_registry().0.snapshot().to_prometheus(), expected);
    }

    #[test]
    fn window_json_is_pinned_and_sparse() {
        let (reg, layer) = sample_registry();
        let sampler = WindowedSampler::new(Arc::clone(&reg), 100);
        sampler.observe(100);
        // Window 1: one tenant's deferrals and the latency histogram move;
        // the admissions counter, the other tenant and the empty histogram
        // do not, so they are absent. The gauge is always there.
        reg.counter_family("agile_submit_qos_deferrals_total", LabelDim::Tenant)
            .add(1, 2);
        {
            let mut l = layer.lock().unwrap();
            l.latency[0].record(70);
            l.high_water = 20;
        }
        sampler.finish(150);
        let expected = concat!(
            r#"[{"index":0,"start":0,"end":100,"deltas":{"samples":["#,
            r#"{"name":"agile_engine_ready_queue_high_water","labels":{},"type":"gauge","value":17},"#,
            r#"{"name":"agile_replay_latency_cycles","labels":{"tenant":1},"type":"histo","#,
            r#""count":5,"sum":4198384,"min":5,"max":4194304,"#,
            r#""buckets":[[5,2],[67,1],[254,1],[576,1]]},"#,
            r#"{"name":"agile_submit_admissions_total","labels":{},"type":"counter","value":42},"#,
            r#"{"name":"agile_submit_qos_deferrals_total","labels":{"tenant":0},"type":"counter","value":3},"#,
            r#"{"name":"agile_submit_qos_deferrals_total","labels":{"tenant":1},"type":"counter","value":9}"#,
            r#"]}},"#,
            r#"{"index":1,"start":100,"end":150,"deltas":{"samples":["#,
            r#"{"name":"agile_engine_ready_queue_high_water","labels":{},"type":"gauge","value":20},"#,
            r#"{"name":"agile_replay_latency_cycles","labels":{"tenant":1},"type":"histo","#,
            r#""count":1,"sum":70,"min":70,"max":71,"buckets":[[67,1]]},"#,
            r#"{"name":"agile_submit_qos_deferrals_total","labels":{"tenant":1},"type":"counter","value":2}"#,
            r#"]}}]"#,
        );
        assert_eq!(windows_to_json(&sampler.windows()), expected);
    }
}
