//! Turns passes and spans into the named metrics, the full record and
//! the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::common::Pass;
use crate::host::{escape, Host};
use crate::spans::{self_times_ns, Span};
use crate::stats::{quantile_sorted, summarize, Summary};

/// The layers spans are attributed to, by span-name prefix.  A cold
/// server request's own time covers the server-side campaign, so it is
/// kept apart from the warm request path.
pub const LAYERS: [&str; 10] = [
    "workloads",
    "sim.solo",
    "sim.layout",
    "sim.contended",
    "sim.checkpoint",
    "mbpta",
    "server.body",
    "server.store",
    "server.cold",
    "server.warm",
];

/// Deterministic counts printed by every traced run (zero where the
/// workload bypasses the layer).
pub const COUNTS: [&str; 17] = [
    "workloads.emit_events",
    "sim.events",
    "sim.runs",
    "core.il1.misses",
    "core.dl1.misses",
    "core.l2.misses",
    "core.l2.fills",
    "core.l2.writebacks",
    "core.memory_accesses",
    "sim.checkpoint.saves",
    "sim.checkpoint.loads",
    "sim.checkpoint.bytes_written",
    "server.requests",
    "server.cache_hits",
    "server.cache_misses",
    "server.request_bytes",
    "server.response_bytes",
];

/// Per-layer metrics of a traced run, with their units, in output order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = vec![
        ("workloads.emit_s".into(), "s"),
        ("workloads.emit_ns_per_event".into(), "ns"),
        ("sim.self_s".into(), "s"),
        ("sim.ns_per_event".into(), "ns"),
        ("mbpta.self_s".into(), "s"),
        ("unattributed_s".into(), "s"),
        ("unattributed_share".into(), "ratio"),
        ("trace_overhead_ratio".into(), "ratio"),
    ];
    names.extend(
        LAYERS
            .iter()
            .map(|layer| (format!("{layer}.share"), "ratio")),
    );
    names.extend([
        ("server.cache_hit_ratio".into(), "ratio"),
        ("core.il1.miss_ratio".into(), "ratio"),
        ("core.dl1.miss_ratio".into(), "ratio"),
        ("core.l2.miss_ratio".into(), "ratio"),
    ]);
    names.extend(COUNTS.iter().map(|c| (c.to_string(), "count")));
    names
}

/// The layer a span belongs to: the longest matching prefix, if any.
pub fn layer_of(name: &str) -> Option<&'static str> {
    LAYERS
        .iter()
        .filter(|layer| name == **layer || name.starts_with(&format!("{layer}.")))
        .max_by_key(|layer| layer.len())
        .copied()
}

/// What one traced pass's spans say, per layer.
#[derive(Debug, Default, Clone)]
pub struct Breakdown {
    pub wall_s: f64,
    /// Self time per layer, in seconds.
    pub layer_s: BTreeMap<&'static str, f64>,
    /// Self time and simulated events per sim span name.
    pub sim_spans: BTreeMap<String, (f64, u64)>,
    pub unattributed_s: f64,
    /// Total span time per span name (for layer-specific timings).
    pub by_name: BTreeMap<String, (f64, u64)>,
}

pub fn breakdown(spans: &[Span]) -> Breakdown {
    let own = self_times_ns(spans);
    let mut out = Breakdown::default();
    for (span, &self_ns) in spans.iter().zip(&own) {
        let self_s = self_ns as f64 / 1e9;
        if span.parent.is_none() {
            out.wall_s += span.duration_ns() as f64 / 1e9;
            out.unattributed_s += self_s;
            continue;
        }
        let entry = out.by_name.entry(span.name.clone()).or_default();
        entry.0 += span.duration_ns() as f64 / 1e9;
        entry.1 += 1;
        match layer_of(&span.name) {
            Some(layer) => *out.layer_s.entry(layer).or_default() += self_s,
            None => out.unattributed_s += self_s,
        }
        if span.name.starts_with("sim.")
            && !span.name.ends_with(".save")
            && !span.name.ends_with(".load")
        {
            let events = span
                .counts
                .iter()
                .filter(|(k, _)| *k == "events")
                .map(|(_, v)| v)
                .sum::<u64>();
            let entry = out.sim_spans.entry(span.name.clone()).or_default();
            entry.0 += self_s;
            entry.1 += events;
        }
    }
    out
}

/// One metric's value with its spread over passes.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub summary: Summary,
}

impl Metric {
    pub fn new(name: &str, unit: &str, values: &[f64]) -> Self {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            summary: summarize(values),
        }
    }
}

fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// One kind of operation across some passes.
struct Kind {
    name: String,
    /// Operations of this kind in one pass.
    per_pass: usize,
    /// Latency over every operation of this kind, in ms.
    ms: Summary,
    /// Whether the kind counts towards `op_p50_ms`.
    op: bool,
}

/// The operation kinds of some passes, in first-seen order, and the
/// median over passes of the pass time no operation covers, in ms.
fn kinds(passes: &[(f64, &Pass)]) -> (Vec<Kind>, f64) {
    let mut kinds: Vec<Kind> = Vec::new();
    if let Some((_, first)) = passes.first() {
        for unit in &first.units {
            match kinds.iter_mut().find(|k| k.name == unit.kind) {
                Some(kind) => kind.per_pass += 1,
                None => kinds.push(Kind {
                    name: unit.kind.clone(),
                    per_pass: 1,
                    ms: summarize(&[]),
                    op: unit.op,
                }),
            }
        }
    }
    for kind in &mut kinds {
        let samples: Vec<f64> = passes
            .iter()
            .flat_map(|(_, p)| &p.units)
            .filter(|u| u.kind == kind.name)
            .map(|u| u.ms)
            .collect();
        kind.ms = summarize(&samples);
    }
    let residual: Vec<f64> = passes
        .iter()
        .map(|(wall, p)| wall * 1e3 - p.units.iter().map(|u| u.ms).sum::<f64>())
        .collect();
    (kinds, summarize(&residual).median.max(0.0))
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    if n == 0 {
        f64::NAN
    } else {
        (sum / n as f64).exp()
    }
}

/// Untraced passes → end-to-end metrics.
///
/// Host noise on a shared machine comes in bursts, so the pass time is
/// rebuilt from medians: each kind of operation contributes its median
/// latency times its count per pass, plus the median of the rest of the
/// pass.  `events_per_s` is a pass's events over that time; its quartiles
/// are those of the raw per-pass rates.  `op_p50_ms` is the geometric
/// mean over the workload's operation kinds of each kind's median.
pub fn end_to_end(passes: &[(f64, &Pass)], setup_s: &[f64], peak_heap_mib: f64) -> Vec<Metric> {
    let (kinds, residual_ms) = kinds(passes);
    let events = passes.first().map_or(0, |(_, p)| p.events) as f64;
    let pass_ms = kinds
        .iter()
        .map(|k| k.per_pass as f64 * k.ms.median)
        .sum::<f64>()
        + residual_ms;
    let raw = summarize(
        &passes
            .iter()
            .map(|(wall, p)| p.events as f64 / wall)
            .collect::<Vec<_>>(),
    );
    let ops: Vec<Summary> = kinds.iter().filter(|k| k.op).map(|k| k.ms).collect();
    vec![
        Metric {
            name: "events_per_s".into(),
            unit: "1/s".into(),
            summary: Summary {
                median: events / (pass_ms / 1e3),
                ..raw
            },
        },
        Metric {
            name: "op_p50_ms".into(),
            unit: "ms".into(),
            summary: Summary {
                median: geomean(ops.iter().map(|s| s.median)),
                q1: geomean(ops.iter().map(|s| s.q1)),
                q3: geomean(ops.iter().map(|s| s.q3)),
                n: ops.iter().map(|s| s.n).sum(),
            },
        },
        Metric::new("setup_s", "s", setup_s),
        Metric::new("peak_heap_mib", "MiB", &[peak_heap_mib]),
    ]
}

/// Every operation kind's latency, the raw per-pass rate, and the warm
/// tail where a workload has enough requests for it.
pub fn operations(passes: &[(f64, &Pass)]) -> Vec<Metric> {
    let (kinds, residual_ms) = kinds(passes);
    let mut out: Vec<Metric> = kinds
        .iter()
        .map(|k| Metric {
            name: format!("op.{}_ms", k.name),
            unit: "ms".into(),
            summary: k.ms,
        })
        .collect();
    out.push(Metric::new(
        "pass_events_per_s",
        "1/s",
        &passes
            .iter()
            .map(|(wall, p)| p.events as f64 / wall)
            .collect::<Vec<_>>(),
    ));
    out.push(Metric::new("pass_residual_ms", "ms", &[residual_ms]));
    let mut warm: Vec<f64> = passes
        .iter()
        .flat_map(|(_, p)| p.units.iter())
        .filter(|u| u.kind == "warm")
        .map(|u| u.ms)
        .collect();
    if warm.len() >= 1000 {
        warm.sort_by(f64::total_cmp);
        let p99 = quantile_sorted(&warm, 0.99);
        out.push(Metric::new("warm_p99_ms", "ms", &[p99]));
        out.push(Metric::new(
            "warm_p99_samples_beyond",
            "count",
            &[warm.iter().filter(|v| **v > p99).count() as f64],
        ));
    }
    out
}

/// Traced passes (with their breakdowns) → per-layer metrics.
pub fn per_layer(traced: &[(&Pass, Breakdown)], untraced_walls: &[f64]) -> Vec<Metric> {
    let each = |f: &dyn Fn(&Pass, &Breakdown) -> f64| -> Vec<f64> {
        traced.iter().map(|(p, b)| f(p, b)).collect()
    };
    let layer = |b: &Breakdown, name: &str| b.layer_s.get(name).copied().unwrap_or(0.0);
    let sim = |b: &Breakdown| -> (f64, u64) {
        b.sim_spans
            .values()
            .fold((0.0, 0), |acc, (s, e)| (acc.0 + s, acc.1 + e))
    };
    let traced_wall = summarize(&each(&|_, b| b.wall_s)).median;
    let untraced_wall = summarize(untraced_walls).median;
    let first = traced.first().map(|(p, _)| *p);
    let count = |name: &str| first.map_or(0, |p| p.counts.get(name)) as f64;
    let ratio = |num: &str, den: &str| {
        let d = count(den);
        if d > 0.0 {
            count(num) / d
        } else {
            0.0
        }
    };
    let mut out = Vec::new();
    for (name, unit) in per_layer_names() {
        let values: Vec<f64> = match name.as_str() {
            "workloads.emit_s" => each(&|_, b| layer(b, "workloads")),
            "workloads.emit_ns_per_event" => each(&|p, b| {
                layer(b, "workloads") * 1e9 / p.counts.get("workloads.emit_events").max(1) as f64
            }),
            "sim.self_s" => each(&|_, b| sim(b).0),
            "sim.ns_per_event" => each(&|_, b| sim(b).0 * 1e9 / sim(b).1.max(1) as f64),
            "mbpta.self_s" => each(&|_, b| layer(b, "mbpta")),
            "unattributed_s" => each(&|_, b| b.unattributed_s),
            "unattributed_share" => each(&|_, b| b.unattributed_s / b.wall_s),
            "trace_overhead_ratio" => vec![traced_wall / untraced_wall],
            "server.cache_hit_ratio" => vec![ratio("server.cache_hits", "server.requests")],
            "core.il1.miss_ratio" => vec![ratio("core.il1.misses", "core.il1.accesses")],
            "core.dl1.miss_ratio" => vec![ratio("core.dl1.misses", "core.dl1.accesses")],
            "core.l2.miss_ratio" => vec![ratio("core.l2.misses", "core.l2.accesses")],
            "sim.events" => vec![first.map_or(0.0, |p| p.events as f64)],
            share if share.ends_with(".share") => {
                let layer_name = share.trim_end_matches(".share");
                each(&|_, b| layer(b, layer_name) / b.wall_s)
            }
            counted => vec![count(counted)],
        };
        out.push(Metric::new(&name, unit, &values));
    }
    out
}

/// Layer-specific timings that only some workloads have: recorded in the
/// full record and the layer map, not in the result line.
pub fn layer_detail(traced: &[(&Pass, Breakdown)]) -> Vec<Metric> {
    let mut out = Vec::new();
    for layer in LAYERS {
        let values: Vec<f64> = traced
            .iter()
            .map(|(_, b)| b.layer_s.get(layer).copied().unwrap_or(0.0))
            .collect();
        if values.iter().any(|v| *v > 0.0) {
            out.push(Metric::new(&format!("{layer}.self_s"), "s", &values));
        }
    }
    let mut sim_names: Vec<&String> = traced
        .iter()
        .flat_map(|(_, b)| b.sim_spans.keys())
        .collect();
    sim_names.sort();
    sim_names.dedup();
    for name in sim_names {
        let values: Vec<f64> = traced
            .iter()
            .filter_map(|(_, b)| b.sim_spans.get(name))
            .filter(|(_, events)| *events > 0)
            .map(|(s, events)| s * 1e9 / *events as f64)
            .collect();
        if !values.is_empty() {
            out.push(Metric::new(&format!("{name}.ns_per_event"), "ns", &values));
        }
    }
    let mut span_names: Vec<&String> = traced.iter().flat_map(|(_, b)| b.by_name.keys()).collect();
    span_names.sort();
    span_names.dedup();
    for name in span_names {
        if name.starts_with("server.")
            || name.starts_with("sim.checkpoint.")
            || name.starts_with("mbpta.")
        {
            let per_call: Vec<f64> = traced
                .iter()
                .filter_map(|(_, b)| b.by_name.get(name))
                .map(|(total, calls)| total * 1e3 / (*calls).max(1) as f64)
                .collect();
            out.push(Metric::new(&format!("{name}.per_call_ms"), "ms", &per_call));
        }
    }
    // The warm request's own time: its latency less the store load and
    // the spec decode the server does on every request.
    let per_call = |b: &Breakdown, name: &str| {
        b.by_name
            .get(name)
            .map(|(total, calls)| total * 1e3 / (*calls).max(1) as f64)
    };
    let request_self: Vec<f64> = traced
        .iter()
        .filter_map(|(_, b)| {
            Some(
                per_call(b, "server.warm")?
                    - per_call(b, "server.store.load")?
                    - per_call(b, "server.body.decode_spec")?,
            )
        })
        .collect();
    if !request_self.is_empty() {
        out.push(Metric::new("server.request_self_ms", "ms", &request_self));
    }
    out
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            num(m.summary.median),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Metrics with median, quartiles and sample count, as a JSON object.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let s = m.summary;
        let _ = write!(
            out,
            "\"{}\":{{\"unit\":\"{}\",\"median\":{},\"q1\":{},\"q3\":{},\"n\":{}}}",
            m.name,
            m.unit,
            num(s.median),
            num(s.q1),
            num(s.q3),
            s.n
        );
    }
    out.push('}');
    out
}

/// The full record of a run: host, passes, every metric with its spread,
/// the deterministic counts and the gate outcome.
#[allow(clippy::too_many_arguments)]
pub fn record_json(
    workload: &str,
    seed: u64,
    trace: bool,
    host: &Host,
    passes: usize,
    digest: u64,
    counts: &BTreeMap<String, u64>,
    sections: &[(&str, &[Metric])],
    failures: &[String],
) -> String {
    let mut out = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{trace},\"host\":{},\"passes\":{passes},\"digest\":\"{digest:016x}\",\"counts\":{{",
        host.to_json()
    );
    for (i, (name, value)) in counts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{value}");
    }
    out.push('}');
    for (name, metrics) in sections {
        let _ = write!(out, ",\"{name}\":{}", metrics_json(metrics));
    }
    out.push_str(",\"failures\":[");
    for (i, f) in failures.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\"", escape(f));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut names: Vec<String> = end_to_end(&[], &[1.0], 1.0)
            .into_iter()
            .map(|m| m.name)
            .collect();
        names.extend(per_layer_names().into_iter().map(|(n, _)| n));
        for name in &names {
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                name.chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphanumeric()),
                "{name}"
            );
        }
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "metric names must be unique");
    }

    #[test]
    fn spans_map_to_the_longest_layer_prefix() {
        assert_eq!(layer_of("sim.solo.hrp"), Some("sim.solo"));
        assert_eq!(layer_of("sim.checkpoint.save"), Some("sim.checkpoint"));
        assert_eq!(layer_of("server.store.load"), Some("server.store"));
        assert_eq!(layer_of("workloads.emit"), Some("workloads"));
        assert_eq!(layer_of("pass"), None);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric::new("setup_s", "s", &[0.5, 0.25, 1.0])],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
