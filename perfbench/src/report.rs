//! The metric catalog and the result line.
//!
//! Every metric the benchmark prints is declared here with its unit;
//! `BENCHMARK.json` lists the same names (a test keeps the two in step).
//! Every workload prints every metric of the run's catalog, each measured
//! on that workload's own ops and inputs.

use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Table1,
    Scaled,
    Service,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Table1, Workload::Scaled, Workload::Service];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1 => "table1",
            Workload::Scaled => "scaled",
            Workload::Service => "service",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Untraced runs (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("throughput_rel", "ops/ref"),
    m("peak_rss_mb", "MiB"),
    m("latency_p50_rel", "ref"),
    m("latency_p90_rel", "ref"),
];

/// Traced runs (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    m("lang.compile_ms", "ms"),
    m("lang.source_kb", "KiB"),
    m("graph.cfg_ms", "ms"),
    m("graph.icfg_ms", "ms"),
    m("graph.icfg_nodes", "count"),
    m("match.ms", "ms"),
    m("match.comm_edges", "count"),
    m("activity.icfg_ms", "ms"),
    m("activity.mpi_ms", "ms"),
    m("activity.node_visits", "count"),
    m("activity.comm_evals", "count"),
    m("activity.ns_per_visit", "ns"),
    m("solver.consts_ms", "ms"),
    m("solver.vary_ms", "ms"),
    m("solver.useful_ms", "ms"),
    m("solver.node_visits", "count"),
    m("solver.ns_per_visit", "ns"),
    m("solver.largest_region_share", "ratio"),
    m("service.parse_us", "us"),
    m("service.key_us", "us"),
    m("service.handle_us.cold", "us"),
    m("service.handle_us.warm", "us"),
    m("service.handle_us.delta", "us"),
    m("service.handle_us.verify", "us"),
    m("service.result_hit_ratio", "ratio"),
    m("service.ir_hit_ratio", "ratio"),
    m("service.cfg_hit_ratio", "ratio"),
    m("service.delta_partial_ratio", "ratio"),
    m("verify.ms", "ms"),
    m("runner.residue_ms", "ms"),
    m("runner.trace_overhead_rel", "ref"),
    m("host.ref_ms", "ms"),
];

fn catalog(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The metric names every workload prints in a run.
pub fn expected(trace: bool) -> Vec<&'static str> {
    catalog(trace).iter().map(|d| d.name).collect()
}

/// What a workload run measured.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Context printed on the info line, not as metrics: raw p50s, sample
    /// counts, the kernel's median.
    pub info: BTreeMap<String, f64>,
}

/// Render the result line, metrics in catalog order. Errors when the run
/// measured a metric set other than exactly the one declared for the
/// workload, or a value that is not a finite number.
pub fn render(w: Workload, trace: bool, out: &Outcome) -> Result<String, String> {
    let want = expected(trace);
    let got: Vec<&str> = out.metrics.keys().copied().collect();
    let mut sorted_want = want.clone();
    sorted_want.sort_unstable();
    if got != sorted_want {
        return Err(format!(
            "{} measured metrics {got:?}, declared {sorted_want:?}",
            w.name()
        ));
    }
    let mut metrics = String::new();
    for (i, name) in want.iter().enumerate() {
        let value = out.metrics[name];
        if !value.is_finite() {
            return Err(format!("{name} = {value} is not a finite number"));
        }
        let unit = catalog(trace)
            .iter()
            .find(|d| d.name == *name)
            .map(|d| d.unit)
            .expect("expected() draws from the catalog");
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.correct, out.attempted, out.failed
    ))
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_dfa_service::json::{self, Json};

    fn names(v: &Json, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(Json::as_array)
            .expect("BENCHMARK.json metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        for (key, cat) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = cat
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect();
            assert_eq!(names(&doc, key), declared, "{key}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, ["table1", "scaled", "service"]);
    }

    #[test]
    fn every_metric_is_printed_with_its_unit() {
        for trace in [false, true] {
            for w in Workload::ALL {
                let names = expected(trace);
                let out = Outcome {
                    correct: true,
                    attempted: 1,
                    failed: 0,
                    metrics: names.iter().map(|n| (*n, 1.25)).collect(),
                    info: BTreeMap::new(),
                };
                let line = render(w, trace, &out).unwrap();
                let doc = json::parse(&line).expect("result line is JSON");
                let metrics = doc.get("metrics").unwrap();
                for n in &names {
                    let def = catalog(trace).iter().find(|d| d.name == *n).unwrap();
                    let got = metrics.get(n).expect("metric printed");
                    assert_eq!(got.get("unit").and_then(Json::as_str), Some(def.unit));
                }
                assert_eq!(
                    match metrics {
                        Json::Obj(fields) => Some(fields.len()),
                        _ => None,
                    },
                    Some(catalog(trace).len()),
                    "every metric of the catalog, once"
                );

                // A missing metric, an extra one and a non-number are refused.
                let refuse = |metrics| {
                    render(
                        w,
                        trace,
                        &Outcome {
                            correct: true,
                            attempted: 1,
                            failed: 0,
                            metrics,
                            info: BTreeMap::new(),
                        },
                    )
                    .is_err()
                };
                let mut short = out.metrics.clone();
                short.remove(names[0]);
                assert!(refuse(short));
                let mut extra = out.metrics.clone();
                extra.insert("bogus", 1.0);
                assert!(refuse(extra));
                let mut nan = out.metrics.clone();
                nan.insert(names[0], f64::NAN);
                assert!(refuse(nan));
            }
        }
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 0.0);
    }
}
