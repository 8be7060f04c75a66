//! Snapshot exporters: JSON and Prometheus text exposition.
//!
//! Both formats are emitted deterministically (samples are already sorted by
//! `(name, labels)`) and both parse back (`from_json` / `from_prometheus`),
//! so a snapshot round-trips losslessly — the invariant the telemetry tests
//! pin. Everything is integers by construction: counters, gauges, bucket
//! counts and bucket indices are `u64`/`u32`, so no float formatting is
//! involved and byte-identity across runs is structural.
//!
//! Prometheus histograms are the standard `_bucket{le=…}` cumulative form
//! (upper bounds from the log-linear layout) plus `_sum`/`_count`, extended
//! with `_min`/`_max` lines so the tracked extremes survive the round trip.

use crate::registry::Labels;
use crate::snapshot::{HistoSnapshot, MetricValue, MetricsSnapshot, Sample};
use agile_trace::stats::{bucket_index, bucket_upper_bound};
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

    /// Parse a snapshot back from [`MetricsSnapshot::to_json`] output.
    pub fn from_json(text: &str) -> Result<MetricsSnapshot, String> {
        let value = json::parse(text)?;
        let samples_v = value
            .field("samples")
            .ok_or_else(|| "missing samples".to_string())?;
        let mut samples = Vec::new();
        for item in samples_v.array()? {
            let name = item
                .field("name")
                .and_then(|v| v.string())
                .ok_or_else(|| "sample missing name".to_string())?;
            let mut labels = Labels::NONE;
            if let Some(lv) = item.field("labels") {
                for (k, v) in lv.object()? {
                    let id = v.number()? as u32;
                    match k.as_str() {
                        "tenant" => labels.tenant = Some(id),
                        "shard" => labels.shard = Some(id),
                        "device" => labels.device = Some(id),
                        "partition" => labels.partition = Some(id),
                        other => return Err(format!("unknown label key {other}")),
                    }
                }
            }
            let kind = item
                .field("type")
                .and_then(|v| v.string())
                .ok_or_else(|| "sample missing type".to_string())?;
            let value = match kind.as_str() {
                "counter" => MetricValue::Counter(
                    item.field("value")
                        .ok_or_else(|| "counter missing value".to_string())?
                        .number()?,
                ),
                "gauge" => MetricValue::Gauge(
                    item.field("value")
                        .ok_or_else(|| "gauge missing value".to_string())?
                        .number()?,
                ),
                "histo" => {
                    let num = |key: &str| -> Result<u64, String> {
                        item.field(key)
                            .ok_or_else(|| format!("histo missing {key}"))?
                            .number()
                    };
                    let mut buckets = Vec::new();
                    for pair in item
                        .field("buckets")
                        .ok_or_else(|| "histo missing buckets".to_string())?
                        .array()?
                    {
                        let pair = pair.array()?;
                        if pair.len() != 2 {
                            return Err("bucket pair must have two entries".into());
                        }
                        buckets.push((pair[0].number()? as u32, pair[1].number()?));
                    }
                    MetricValue::Histo(HistoSnapshot {
                        buckets,
                        count: num("count")?,
                        sum: num("sum")?,
                        min: num("min")?,
                        max: num("max")?,
                    })
                }
                other => return Err(format!("unknown sample type {other}")),
            };
            samples.push(Sample {
                name,
                labels,
                value,
            });
        }
        Ok(MetricsSnapshot { samples })
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
            if last_name != Some(s.name.as_str()) {
                let _ = writeln!(out, "# TYPE {} {}", s.name, kind);
                last_name = Some(s.name.as_str());
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
                    // Non-standard: the tracked extremes, so snapshots
                    // round-trip exactly through this format too.
                    let _ = writeln!(out, "{}_min{} {}", s.name, plain, h.min);
                    let _ = writeln!(out, "{}_max{} {}", s.name, plain, h.max);
                }
            }
        }
        out
    }

    /// Parse a snapshot back from [`MetricsSnapshot::to_prometheus`] output.
    pub fn from_prometheus(text: &str) -> Result<MetricsSnapshot, String> {
        use std::collections::BTreeMap;
        let mut kinds: BTreeMap<String, String> = BTreeMap::new();
        // Histogram accumulation keyed by (base name, labels).
        #[derive(Default)]
        struct HistoAcc {
            cumulative: Vec<(u64, u64)>, // (le, cumulative count) in order
            count: u64,
            sum: u64,
            min: u64,
            max: u64,
        }
        let mut plain: Vec<Sample> = Vec::new();
        let mut histos: BTreeMap<(String, Labels), HistoAcc> = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split_whitespace();
                let name = it.next().ok_or("bad TYPE line")?;
                let kind = it.next().ok_or("bad TYPE line")?;
                kinds.insert(name.to_string(), kind.to_string());
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            let (ident, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("bad sample line: {line}"))?;
            let (name, labels, le) = parse_ident(ident)?;
            // Histogram series lines carry a suffix on the base name.
            let histo_part = ["_bucket", "_sum", "_count", "_min", "_max"]
                .iter()
                .find_map(|suffix| {
                    let base = name.strip_suffix(suffix)?;
                    (kinds.get(base).map(String::as_str) == Some("histogram"))
                        .then(|| (base.to_string(), *suffix))
                });
            if let Some((base, suffix)) = histo_part {
                let acc = histos.entry((base, labels)).or_default();
                let v: u64 = value.parse().map_err(|_| format!("bad value: {value}"))?;
                match suffix {
                    "_bucket" => match le.as_deref() {
                        Some("+Inf") => {}
                        Some(le) => {
                            let le: u64 = le.parse().map_err(|_| format!("bad le: {le}"))?;
                            acc.cumulative.push((le, v));
                        }
                        None => return Err("bucket line without le".into()),
                    },
                    "_sum" => acc.sum = v,
                    "_count" => acc.count = v,
                    "_min" => acc.min = v,
                    "_max" => acc.max = v,
                    _ => unreachable!(),
                }
                continue;
            }
            if le.is_some() {
                return Err(format!("unexpected le label on {name}"));
            }
            let v: u64 = value.parse().map_err(|_| format!("bad value: {value}"))?;
            let value = match kinds.get(&name).map(String::as_str) {
                Some("counter") => MetricValue::Counter(v),
                Some("gauge") => MetricValue::Gauge(v),
                other => return Err(format!("unknown kind {other:?} for {name}")),
            };
            plain.push(Sample {
                name,
                labels,
                value,
            });
        }
        for ((name, labels), acc) in histos {
            let mut buckets = Vec::with_capacity(acc.cumulative.len());
            let mut prev = 0u64;
            for (le, cum) in acc.cumulative {
                let c = cum.saturating_sub(prev);
                prev = cum;
                if c > 0 {
                    buckets.push((bucket_index(le) as u32, c));
                }
            }
            plain.push(Sample {
                name,
                labels,
                value: MetricValue::Histo(HistoSnapshot {
                    buckets,
                    count: acc.count,
                    sum: acc.sum,
                    min: acc.min,
                    max: acc.max,
                }),
            });
        }
        plain.sort_by(|a, b| (&a.name, a.labels).cmp(&(&b.name, b.labels)));
        Ok(MetricsSnapshot { samples: plain })
    }
}

/// Parse `name{k="v",…}` into `(name, labels, le)`.
fn parse_ident(ident: &str) -> Result<(String, Labels, Option<String>), String> {
    let Some(brace) = ident.find('{') else {
        return Ok((ident.to_string(), Labels::NONE, None));
    };
    let name = ident[..brace].to_string();
    let body = ident[brace + 1..]
        .strip_suffix('}')
        .ok_or_else(|| format!("unterminated labels in {ident}"))?;
    let mut labels = Labels::NONE;
    let mut le = None;
    for pair in body.split(',').filter(|p| !p.is_empty()) {
        let (k, v) = pair
            .split_once('=')
            .ok_or_else(|| format!("bad label pair {pair}"))?;
        let v = v
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| format!("unquoted label value {v}"))?;
        if k == "le" {
            le = Some(v.to_string());
            continue;
        }
        let id: u32 = v.parse().map_err(|_| format!("bad label value {v}"))?;
        match k {
            "tenant" => labels.tenant = Some(id),
            "shard" => labels.shard = Some(id),
            "device" => labels.device = Some(id),
            "partition" => labels.partition = Some(id),
            other => return Err(format!("unknown label key {other}")),
        }
    }
    Ok((name, labels, le))
}

/// A minimal JSON reader covering exactly what [`MetricsSnapshot::to_json`]
/// emits: objects, arrays, strings without escapes, unsigned integers.
mod json {
    /// Deepest nesting of objects and arrays accepted; `to_json` nests 5
    /// deep, and a bound keeps hostile input from overflowing the stack.
    pub const MAX_DEPTH: usize = 16;

    pub enum Value {
        Num(u64),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn field(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        pub fn object(&self) -> Result<&Vec<(String, Value)>, String> {
            match self {
                Value::Obj(fields) => Ok(fields),
                _ => Err("expected object".into()),
            }
        }

        pub fn array(&self) -> Result<&Vec<Value>, String> {
            match self {
                Value::Arr(items) => Ok(items),
                _ => Err("expected array".into()),
            }
        }

        pub fn string(&self) -> Option<String> {
            match self {
                Value::Str(s) => Some(s.clone()),
                _ => None,
            }
        }

        pub fn number(&self) -> Result<u64, String> {
            match self {
                Value::Num(n) => Ok(*n),
                _ => Err("expected number".into()),
            }
        }
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, pos))
        }
    }

    /// Parse the value at `pos`, inside `depth` open objects and arrays.
    fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
        skip_ws(bytes, pos);
        if matches!(bytes.get(*pos), Some(b'{' | b'[')) && depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
        }
        match bytes.get(*pos) {
            Some(b'{') => {
                *pos += 1;
                let mut fields = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    skip_ws(bytes, pos);
                    let key = parse_string(bytes, pos)?;
                    expect(bytes, pos, b':')?;
                    fields.push((key, parse_value(bytes, pos, depth + 1)?));
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(format!("bad object at byte {pos}")),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(parse_value(bytes, pos, depth + 1)?);
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("bad array at byte {pos}")),
                    }
                }
            }
            Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
            Some(b) if b.is_ascii_digit() => {
                let start = *pos;
                while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
                    *pos += 1;
                }
                std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|e| e.to_string())?
                    .parse()
                    .map(Value::Num)
                    .map_err(|e| e.to_string())
            }
            _ => Err(format!("unexpected byte at {pos}")),
        }
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at byte {pos}"));
        }
        *pos += 1;
        let start = *pos;
        while *pos < bytes.len() && bytes[*pos] != b'"' {
            if bytes[*pos] == b'\\' {
                return Err("escapes are not supported".into());
            }
            *pos += 1;
        }
        if *pos >= bytes.len() {
            return Err("unterminated string".into());
        }
        let s = std::str::from_utf8(&bytes[start..*pos])
            .map_err(|e| e.to_string())?
            .to_string();
        *pos += 1;
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LabelDim, MetricsRegistry};

    fn sample_registry() -> MetricsSnapshot {
        let reg = MetricsRegistry::new();
        reg.counter("agile_submit_admissions_total", Labels::NONE)
            .add(42);
        let fam = reg.counter_family("agile_submit_qos_deferrals_total", LabelDim::Tenant);
        fam.add(0, 3);
        fam.add(1, 9);
        reg.gauge("agile_engine_ready_queue_high_water", Labels::NONE)
            .set(17);
        let h = reg.histo("agile_replay_latency_cycles", Labels::tenant(1));
        for v in [5u64, 5, 70, 4_000, 1 << 22] {
            h.record(v);
        }
        // An empty histogram must round-trip too.
        let _ = reg.histo("agile_replay_latency_cycles", Labels::tenant(2));
        reg.snapshot()
    }

    #[test]
    fn json_round_trips() {
        let snap = sample_registry();
        let parsed = MetricsSnapshot::from_json(&snap.to_json()).expect("parse back");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn prometheus_round_trips() {
        let snap = sample_registry();
        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE agile_replay_latency_cycles histogram"));
        assert!(text.contains("agile_submit_qos_deferrals_total{tenant=\"1\"} 9"));
        let parsed = MetricsSnapshot::from_prometheus(&text).expect("parse back");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn json_nesting_past_the_bound_is_an_error_not_a_stack_overflow() {
        let err = MetricsSnapshot::from_json(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.contains("at byte 16"), "{err}");
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(json::parse(&nested(json::MAX_DEPTH)).is_ok());
        assert!(json::parse(&nested(json::MAX_DEPTH + 1)).is_err());
    }
}
