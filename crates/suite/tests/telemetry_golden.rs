//! Golden-shape acceptance tests for the telemetry exporters on real
//! reproduction runs (the ISSUE's acceptance criteria):
//!
//! * the Chrome-trace produced by a full `repro`-equivalent run on CG and
//!   LU loads as **valid JSON** (checked with a real parser, written here —
//!   the workspace has no serde) and contains the stable span names;
//! * the metrics dump includes per-tier governor transition counters and
//!   per-analysis fixpoint counters.
//!
//! The shallower string-shape checks live in `mpi-dfa-core`'s unit tests;
//! these are the end-to-end versions on the paper's benchmark programs.

use mpi_dfa_analyses::governor::{DegradeMode, GovernorConfig};
use mpi_dfa_core::budget::Budget;
use mpi_dfa_core::solver::Strategy;
use mpi_dfa_core::telemetry::{self, TraceLevel, TEST_SINK_GATE};
use mpi_dfa_suite::{by_id, runner};

// ---------------------------------------------------------------------------
// A small but complete JSON parser (strings with escapes, numbers, bools,
// null, arrays, objects). Exists only to *validate* exporter output.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            s: s.as_bytes(),
            pos: 0,
        }
    }

    fn fail(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.s.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.s.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.s.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err(self.fail("unexpected end of input")),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.s[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.fail(&format!("expected `{lit}`")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.s.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| self.fail(&format!("bad number `{text}`: {e}")))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.s.get(self.pos) {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *self
                        .s
                        .get(self.pos)
                        .ok_or_else(|| self.fail("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.fail("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.fail("bad \\u"))?,
                                16,
                            )
                            .map_err(|e| self.fail(&format!("bad \\u: {e}")))?;
                            self.pos += 4;
                            // Exporter output never contains surrogate pairs
                            // (json_escape only \u-escapes control chars).
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.fail("bad \\u code point"))?,
                            );
                        }
                        other => {
                            return Err(self.fail(&format!("bad escape `\\{}`", other as char)))
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.s[self.pos..])
                        .map_err(|_| self.fail("invalid utf-8"))?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.s.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.s.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.fail("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.s.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(b':')?;
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.s.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.fail("expected `,` or `}`")),
            }
        }
    }
}

fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = Parser::new(s);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.s.len() {
        return Err(p.fail("trailing garbage"));
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// Acceptance tests
// ---------------------------------------------------------------------------

#[test]
fn chrome_trace_from_cg_and_lu_repro_is_valid_and_complete() {
    let _gate = TEST_SINK_GATE.lock().unwrap_or_else(|p| p.into_inner());
    telemetry::install(TraceLevel::Full);
    for id in ["CG", "LU-1"] {
        let spec = by_id(id).expect("known row");
        let row = runner::run_experiment(&spec);
        assert!(row.converged(), "{id} must reach its fixpoint");
    }
    let report = telemetry::finish();
    let json = telemetry::export_chrome_trace(&report.events);

    let doc = parse_json(&json).expect("exporter output must be valid JSON");
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("traceEvents must be an array");
    };
    assert!(
        events.len() >= 20,
        "a two-row reproduction must produce a substantial trace, got {}",
        events.len()
    );
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );

    let mut begins = 0usize;
    let mut ends = 0usize;
    let mut names: Vec<&str> = Vec::new();
    for e in events {
        for key in ["name", "cat", "ph", "pid", "tid", "ts"] {
            assert!(e.get(key).is_some(), "every event needs `{key}`: {e:?}");
        }
        let ph = e.get("ph").and_then(Json::as_str).expect("ph is a string");
        assert!(
            matches!(ph, "B" | "E" | "i" | "C"),
            "unexpected phase {ph:?}"
        );
        match ph {
            "B" => begins += 1,
            "E" => ends += 1,
            _ => {}
        }
        names.push(e.get("name").and_then(Json::as_str).expect("name"));
    }
    assert_eq!(begins, ends, "every span must open and close");
    // The fixpoint span name depends on the engine the run solved under,
    // which CI varies via `MPIDFA_SOLVER` (the region-engine job runs the
    // whole suite with the region engine as the default).
    let fixpoint_span = match Strategy::session_default() {
        Strategy::RoundRobin => "fixpoint:round_robin",
        Strategy::Region => "fixpoint:region_parallel",
    };
    for required in [
        "compile",
        "lex",
        "parse",
        "sema",
        "cfg_build",
        "icfg_build",
        "clone_expansion",
        "mpi_matching",
        fixpoint_span,
        "activity:vary",
        "activity:useful",
    ] {
        assert!(
            names.contains(&required),
            "trace must contain span `{required}`; span names seen: {:?}",
            {
                let mut n = names.clone();
                n.sort_unstable();
                n.dedup();
                n
            }
        );
    }
}

#[test]
fn metrics_dump_includes_governor_tiers_and_per_analysis_counters() {
    let _gate = TEST_SINK_GATE.lock().unwrap_or_else(|p| p.into_inner());
    telemetry::install(TraceLevel::Full);

    let spec = by_id("CG").expect("known row");
    // A comfortably-budgeted governed run publishes at T0 ...
    let row = runner::run_experiment_governed(&spec, &GovernorConfig::default())
        .expect("governed run succeeds");
    assert!(row.converged());
    // ... and a starved one walks the whole ladder, exhausting every tier.
    let starved = GovernorConfig {
        budget: Budget::unlimited().with_max_work(1),
        degrade: DegradeMode::Auto,
        ..GovernorConfig::default()
    };
    let _ = runner::run_experiment_governed(&spec, &starved).expect("saturated, not an error");

    let report = telemetry::finish();
    let text = telemetry::export_metrics_text(&report.metrics);

    // Per-tier governor transition counters.
    for series in [
        "governor_tier_attempts_total{tier=\"T0\"}",
        "governor_tier_exhausted_total{tier=\"T0\"}",
        "governor_published_tier_total{tier=\"T0\"}",
        "governor_saturated_total",
    ] {
        assert!(
            text.contains(series),
            "metrics dump must contain `{series}`:\n{text}"
        );
    }
    // Per-analysis fixpoint counters, with values.
    for analysis in ["vary", "useful"] {
        for base in [
            "solver_node_visits_total",
            "solver_meets_total",
            "solver_comm_evals_total",
            "solver_passes_total",
        ] {
            let series = format!("{base}{{analysis=\"{analysis}\"}}");
            let value = report
                .metrics
                .get(&series)
                .unwrap_or_else(|| panic!("missing metric `{series}`:\n{text}"));
            assert!(*value > 0.0, "`{series}` must be positive");
        }
    }
    // The starved run attempted (and exhausted) the lower tiers too.
    assert!(
        text.contains("governor_tier_exhausted_total{tier=\"T2\"}")
            || text.contains("governor_tier_exhausted_total{tier=\"T1\"}"),
        "the starved ladder must record lower-tier exhaustion:\n{text}"
    );
}

#[test]
fn json_parser_self_check() {
    // The validator itself must not be the weak link.
    let v =
        parse_json(r#"{"a":[1,2.5,-3e2],"b":"x\"\nA","c":true,"d":null,"e":{}}"#).expect("valid");
    assert_eq!(v.get("b").and_then(Json::as_str), Some("x\"\nA"));
    assert!(parse_json("{\"a\":1,}").is_err());
    assert!(parse_json("[1 2]").is_err());
    assert!(parse_json("{\"a\":1} trailing").is_err());
}
