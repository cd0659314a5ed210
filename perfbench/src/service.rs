//! `service`: `Engine::handle_line` in-process, fed seeded sessions. One
//! op is one session, on a fresh `Engine` (so every session does
//! identical work):
//! 1. a cold `analyze` of a generated program, carrying
//!    `"solver":"region-parallel:1"` so the engine keeps a seed,
//! 2. a `verify` of it with `schedules: 0` (no interpreter threads),
//! 3. [`WARM_REPEATS`] warm repeats of the `analyze`,
//! 4. an `analyze-delta` of a one-procedure edit with `prev` = step 1.
//!
//! Only here do request parsing, the caches and the incremental layer run
//! inside the measured op. The TCP socket layer and the `--shards` fleet
//! are out of scope (`serve_saturation` covers them; loopback scheduling
//! noise would bury a 30 µs warm path).
//!
//! Every workload's traced run plays one traced session on its own
//! program ([`traced_session`]), so every run reports the service layer's
//! metrics.

use crate::harness::{
    insert_setup, kernel_sample, layer_probe, repeated_setup, traced_outcome, traced_pipeline,
    write_spans, OpCounts, PipelineInput, Tally,
};
use crate::input::{self, Program};
use crate::kernel::{Mix, RefKernel};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{
    median, p50_rel, ref_ms, summarize, throughput_rel, timed, Sample, MIN_P90_SAMPLES,
};
use crate::trace::Tracer;
use mpi_dfa_analyses::activity::ActivityConfig;
use mpi_dfa_core::cache::CacheSnapshot;
use mpi_dfa_core::solver::{SolveParams, Strategy};
use mpi_dfa_service::cache::{result_key, source_key};
use mpi_dfa_service::json::escape;
use mpi_dfa_service::proto::{parse_request, render_ok, CacheStatus, RequestKind};
use mpi_dfa_service::{Engine, EngineConfig};
use mpi_dfa_suite::programs;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

pub const WARM_REPEATS: usize = 8;
/// Distinct session programs (each a differently renamed copy of the same
/// generated program), cycled through.
const POOL: usize = 4;
const SOLVER: &str = "region-parallel:1";
const COLD_ID: u64 = 1;
const VERIFY_ID: u64 = 2;
const DELTA_ID: u64 = 3;
const WARM_ID: u64 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    Cold,
    Verify,
    Warm,
    Delta,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Cold => "cold",
            Class::Verify => "verify",
            Class::Warm => "warm",
            Class::Delta => "delta",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Class::Cold => "service.handle.cold",
            Class::Verify => "service.handle.verify",
            Class::Warm => "service.handle.warm",
            Class::Delta => "service.handle.delta",
        }
    }
}

/// One request of a session and the exact response line it must get.
struct Step {
    class: Class,
    line: String,
    expect: String,
}

pub struct Session {
    program: Program,
    steps: Vec<Step>,
}

fn analyze_line(id: u64, kind: &str, src: &str, p: &Program, extra: &str) -> String {
    format!(
        "{{\"id\":{id},\"kind\":\"{kind}\",\"source\":\"{}\",\"ind\":[\"{}\"],\"dep\":[\"{}\"],\
         \"solver\":\"{SOLVER}\"{}{extra}}}",
        escape(src),
        p.ind,
        p.dep,
        p.scope
    )
}

/// The payload of a success response with the given id, kind and cache
/// label; an error naming what differs otherwise.
pub fn payload(line: &str, id: u64, kind: RequestKind, cache: CacheStatus) -> Result<&str, String> {
    let empty = render_ok(id, kind, cache, "");
    let prefix = empty
        .strip_suffix('}')
        .expect("render_ok closes its object");
    line.strip_prefix(prefix)
        .and_then(|rest| rest.strip_suffix('}'))
        .ok_or_else(|| {
            format!(
                "expected `{prefix}…`, got `{}`",
                line.chars().take(160).collect::<String>()
            )
        })
}

/// A response must equal its reference byte for byte.
pub fn check_response(got: &str, expect: &str) -> Result<(), String> {
    if got == expect {
        return Ok(());
    }
    let at = got
        .bytes()
        .zip(expect.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(expect.len()));
    let show = |s: &str| {
        s.get(at.saturating_sub(40)..(at + 40).min(s.len()))
            .unwrap_or("")
            .to_string()
    };
    Err(format!(
        "response differs from the reference at byte {at}: got `{}`, want `{}`",
        show(got),
        show(expect)
    ))
}

/// The known-answer gate: a `verify` payload's verdict.
pub fn check_verdict(name: &str, payload: &str, verdict: &str) -> Result<(), String> {
    if payload.starts_with(&format!("{{\"verdict\":\"{verdict}\"")) {
        Ok(())
    } else {
        Err(format!("{name}: expected verdict {verdict}"))
    }
}

/// Build one session and compute its reference responses on `reference`,
/// an engine separate from the measured ones.
pub fn session(reference: &Engine, p: Program) -> Result<Session, String> {
    let edit = input::edit_first_proc(&p.source);
    let cold = analyze_line(COLD_ID, "analyze", &p.source, &p, "");
    let verify = format!(
        "{{\"id\":{VERIFY_ID},\"kind\":\"verify\",\"source\":\"{}\",\"schedules\":0}}",
        escape(&p.source)
    );
    let delta = analyze_line(
        DELTA_ID,
        "analyze-delta",
        &edit,
        &p,
        &format!(",\"prev\":{COLD_ID}"),
    );
    let cold_ref = reference.handle_line(&cold);
    let verify_ref = reference.handle_line(&verify);
    let delta_ref = reference.handle_line(&delta);
    let analysis = payload(&cold_ref, COLD_ID, RequestKind::Analyze, CacheStatus::Miss)?;
    let verified = payload(
        &verify_ref,
        VERIFY_ID,
        RequestKind::Verify,
        CacheStatus::Miss,
    )?;
    let delta_payload = payload(
        &delta_ref,
        DELTA_ID,
        RequestKind::AnalyzeDelta,
        CacheStatus::Partial,
    )?;

    let mut steps = vec![
        Step {
            class: Class::Cold,
            expect: render_ok(COLD_ID, RequestKind::Analyze, CacheStatus::Miss, analysis),
            line: cold.clone(),
        },
        Step {
            class: Class::Verify,
            expect: render_ok(VERIFY_ID, RequestKind::Verify, CacheStatus::Miss, verified),
            line: verify,
        },
    ];
    for k in 0..WARM_REPEATS as u64 {
        steps.push(Step {
            class: Class::Warm,
            line: analyze_line(WARM_ID + k, "analyze", &p.source, &p, ""),
            expect: render_ok(
                WARM_ID + k,
                RequestKind::Analyze,
                CacheStatus::Hit,
                analysis,
            ),
        });
    }
    steps.push(Step {
        class: Class::Delta,
        expect: render_ok(
            DELTA_ID,
            RequestKind::AnalyzeDelta,
            CacheStatus::Partial,
            delta_payload,
        ),
        line: delta,
    });
    Ok(Session { program: p, steps })
}

/// Table-1 programs verify `safe`, the `deadlock-*` corpus `flagged`.
fn known_answer_gate(reference: &Engine) -> Result<(), String> {
    let safe = programs::ALL.iter().map(|(n, _)| (*n, "safe"));
    let flagged = mpi_dfa_verify::corpus::ALL
        .iter()
        .map(|(n, _)| (*n, "flagged"));
    for (i, (name, verdict)) in safe.chain(flagged).enumerate() {
        let id = 100 + i as u64;
        let line =
            format!("{{\"id\":{id},\"kind\":\"verify\",\"program\":\"{name}\",\"schedules\":0}}");
        let response = reference.handle_line(&line);
        let p = payload(&response, id, RequestKind::Verify, CacheStatus::Miss)?;
        check_verdict(name, p, verdict)?;
    }
    Ok(())
}

pub fn engine() -> Engine {
    Engine::new(EngineConfig::default()).expect("an engine without a disk store")
}

/// Set-up: a reference engine, the session programs, their reference
/// answers, the known-answer gate, and one first session on a fresh
/// engine.
fn setup(seed: u64) -> (Vec<Session>, Result<(), String>) {
    let reference = engine();
    let mut sessions = Vec::with_capacity(POOL);
    let mut gate = known_answer_gate(&reference);
    for i in 0..POOL as u64 {
        let p = input::program(
            input::SERVICE_GEN_SEED,
            input::SERVICE_FACTOR,
            &input::tag(seed, i),
        );
        match session(&reference, p) {
            Ok(s) => sessions.push(s),
            Err(e) => gate = gate.and(Err(e)),
        }
    }
    if let Some(first) = sessions.first() {
        let fresh = engine();
        for step in &first.steps {
            gate = gate.and(check_response(&fresh.handle_line(&step.line), &step.expect));
        }
    }
    (sessions, gate)
}

/// One untraced session on a fresh engine after a kernel sample. Pushes
/// each request's sample to its class; returns the session's (the sum of
/// its requests) and its verdict.
fn untraced_session(
    kernel: &mut RefKernel,
    s: &Session,
    by_class: &mut BTreeMap<Class, Vec<Sample>>,
) -> (Sample, Result<(), String>) {
    let engine = engine();
    let ref_ns = kernel_sample(kernel);
    let mut session_ns = 0;
    let mut verdict = Ok(());
    for step in &s.steps {
        let (ns, got) = timed(|| engine.handle_line(&step.line));
        if verdict.is_ok() {
            verdict = check_response(&got, &step.expect)
                .map_err(|e| format!("{}: {e}", step.class.name()));
        }
        by_class
            .entry(step.class)
            .or_default()
            .push(Sample { op_ns: ns, ref_ns });
        session_ns += ns;
        black_box(got);
    }
    let sample = Sample {
        op_ns: session_ns,
        ref_ns,
    };
    (sample, verdict)
}

pub fn run(seconds: f64, seed: u64) -> Outcome {
    let mut kernel = RefKernel::new(Mix::FRONT_END);
    let mut setup_samples = Vec::new();
    let (sessions, gate) = repeated_setup(&mut kernel, &mut setup_samples, || setup(seed));
    let mut tally = Tally::default();
    tally.record("set-up", gate);
    let mut by_class = BTreeMap::new();
    let mut samples = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while !sessions.is_empty() && (Instant::now() < deadline || samples.len() < MIN_P90_SAMPLES)
    {
        let s = &sessions[samples.len() % sessions.len()];
        let (sample, verdict) = untraced_session(&mut kernel, s, &mut by_class);
        tally.record("session", verdict);
        samples.push(sample);
    }
    let (_, gate) = repeated_setup(&mut kernel, &mut setup_samples, || setup(seed));
    tally.record("set-up", gate);
    let mut metrics = BTreeMap::new();
    let mut info = BTreeMap::new();
    insert_setup(&kernel, &setup_samples, &mut metrics, &mut info);
    metrics.insert("peak_rss_mb", peak_rss_mb());
    if samples.is_empty() {
        return tally.outcome(metrics, info);
    }
    metrics.insert("throughput_rel", throughput_rel(&samples));
    match summarize(&samples) {
        Ok(s) => {
            metrics.insert("latency_p50_rel", s.p50_rel);
            metrics.insert("latency_p90_rel", s.p90_rel);
            info.insert("raw_p50_ms".to_string(), s.raw_p50_ms);
        }
        Err(e) => tally.record("summary", Err(e)),
    }
    // Per request class, for reading the session's make-up; not metrics.
    for (class, class_samples) in &by_class {
        info.insert(format!("{}_p50_rel", class.name()), p50_rel(class_samples));
        let raw: Vec<f64> = class_samples
            .iter()
            .map(|s| s.op_ns as f64 / 1e6)
            .collect();
        info.insert(format!("{}_raw_p50_ms", class.name()), median(&raw));
    }
    info.insert("sessions".to_string(), samples.len() as f64);
    info.insert("host_ref_ms".to_string(), ref_ms(&samples));
    tally.outcome(metrics, info)
}

fn ratio(hits: u64, misses: u64) -> f64 {
    hits as f64 / (hits + misses) as f64
}

/// Cache counters and `analyze-delta` outcomes summed over the traced
/// sessions of a run.
#[derive(Debug, Default)]
pub struct ServiceTotals {
    result: (u64, u64),
    ir: (u64, u64),
    cfg: (u64, u64),
    /// (answered `partial`, answered otherwise)
    delta: (u64, u64),
}

impl ServiceTotals {
    fn add_caches(&mut self, e: &Engine) {
        let add = |acc: &mut (u64, u64), s: CacheSnapshot| {
            acc.0 += s.hits;
            acc.1 += s.misses;
        };
        let c = e.caches();
        add(&mut self.result, c.results.counters().snapshot());
        add(&mut self.ir, c.irs.counters().snapshot());
        add(&mut self.cfg, c.cfgs.counters().snapshot());
    }

    /// The `service.*` metrics: per-request medians of the service spans
    /// and the cache and delta ratios.
    pub fn insert_metrics(&self, t: &Tracer, m: &mut BTreeMap<&'static str, f64>) {
        let us = |name: &str| median(&t.durations_ms(name)) * 1e3;
        m.insert("service.parse_us", us("service.parse"));
        m.insert("service.key_us", us("service.key"));
        m.insert("service.handle_us.cold", us(Class::Cold.span()));
        m.insert("service.handle_us.verify", us(Class::Verify.span()));
        m.insert("service.handle_us.warm", us(Class::Warm.span()));
        m.insert("service.handle_us.delta", us(Class::Delta.span()));
        m.insert("service.result_hit_ratio", ratio(self.result.0, self.result.1));
        m.insert("service.ir_hit_ratio", ratio(self.ir.0, self.ir.1));
        m.insert("service.cfg_hit_ratio", ratio(self.cfg.0, self.cfg.1));
        m.insert(
            "service.delta_partial_ratio",
            ratio(self.delta.0, self.delta.1),
        );
    }
}

/// The pass bound the engine puts in result keys when a request names none.
fn default_max_passes() -> u64 {
    SolveParams::default().max_passes as u64
}

/// A whole session on `engine`, which must be fresh: each request
/// through the calls `Engine::handle_line` makes, one span each under
/// `parent`: `parse_request`, the cache keys (`source_key`, `result_key`)
/// and `Engine::handle`. Every response is checked against its reference;
/// the first mismatch is the verdict. Adds the engine's cache counters to
/// `totals`.
pub fn traced_session(
    t: &mut Tracer,
    parent: usize,
    engine: &Engine,
    s: &Session,
    totals: &mut ServiceTotals,
) -> Result<(), String> {
    let mut verdict = Ok(());
    for step in &s.steps {
        let req = t
            .span("service.parse", parent, || parse_request(&step.line))
            .map_err(|e| e.message)?;
        let key = t.span("service.key", parent, || {
            let src = req.source.as_deref().unwrap_or_default();
            result_key(&req, source_key(src), default_max_passes())
        });
        black_box(key);
        let got = t.span(step.class.span(), parent, || engine.handle(&req));
        if step.class == Class::Delta {
            let partial = payload(
                &got,
                DELTA_ID,
                RequestKind::AnalyzeDelta,
                CacheStatus::Partial,
            )
            .is_ok();
            if partial {
                totals.delta.0 += 1;
            } else {
                totals.delta.1 += 1;
            }
        }
        if verdict.is_ok() {
            verdict = check_response(&got, &step.expect)
                .map_err(|e| format!("{}: {e}", step.class.name()));
        }
    }
    totals.add_caches(engine);
    verdict
}

/// The session program's pipeline, as the service's `analyze` runs it
/// (plus the ICFG baseline), then [`layer_probe`], under `parent`.
pub fn program_probe(
    t: &mut Tracer,
    parent: usize,
    p: &Program,
    counts: &mut OpCounts,
) -> Result<(), String> {
    let input = PipelineInput {
        source: &p.source,
        context: "main",
        clone_level: 0,
        config: ActivityConfig::new([p.ind.clone()], [p.dep.clone()]),
        params: SolveParams::with_strategy(Strategy::parse(SOLVER).expect("valid strategy")),
        baseline: true,
    };
    let r = traced_pipeline(t, parent, &input, counts)?;
    layer_probe(t, parent, &r, &input, counts)
}

pub fn run_traced(seconds: f64, seed: u64) -> Outcome {
    let mut kernel = RefKernel::new(Mix::FRONT_END);
    let (sessions, gate) = setup(seed);
    let mut tally = Tally::default();
    tally.record("set-up", gate);
    if sessions.is_empty() {
        return tally.outcome(BTreeMap::new(), BTreeMap::new());
    }
    let mut t = Tracer::new();
    let mut totals = ServiceTotals::default();
    let mut all_counts = Vec::new();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut unused = BTreeMap::new();
    // Untraced and traced sessions alternate so both see the same host
    // regimes.
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline || traced.is_empty() {
        let s = &sessions[traced.len() % sessions.len()];
        let (sample, verdict) = untraced_session(&mut kernel, s, &mut unused);
        tally.record("session", verdict);
        untraced.push(sample);

        let engine = engine();
        let ref_ns = kernel_sample(&mut kernel);
        t.next_op();
        let root = t.open("op", None);
        let served = traced_session(&mut t, root, &engine, s, &mut totals);
        t.close(root);
        traced.push(Sample {
            op_ns: t.span_ns(root),
            ref_ns,
        });
        drop(engine);
        // Outside the op: the session program through the layers.
        let mut counts = OpCounts::default();
        let probe = t.open("probe", None);
        let probed = program_probe(&mut t, probe, &s.program, &mut counts);
        t.close(probe);
        all_counts.push(counts);
        tally.record("session", served.and(probed));
    }
    write_spans(&t, &format!("service-seed{seed}.jsonl"));
    traced_outcome(&t, &all_counts, &totals, &untraced, &traced, tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gates_fire_on_corrupted_responses() {
        let reference = engine();
        let p = input::program(input::SERVICE_GEN_SEED, input::SERVICE_FACTOR, "abc123");
        let s = session(&reference, p).expect("reference answers");
        assert_eq!(s.steps.len(), 3 + WARM_REPEATS);

        // A fresh engine reproduces every reference byte for byte.
        let fresh = engine();
        for step in &s.steps {
            check_response(&fresh.handle_line(&step.line), &step.expect).unwrap();
        }

        let cold = &s.steps[0].expect;
        let mut flipped = cold.clone().into_bytes();
        let last_digit = flipped.iter().rposition(u8::is_ascii_digit).unwrap();
        flipped[last_digit] = if flipped[last_digit] == b'0' {
            b'1'
        } else {
            b'0'
        };
        let flipped = String::from_utf8(flipped).unwrap();
        assert!(check_response(&flipped, cold).is_err());

        // The same payload under the wrong cache label is refused.
        let hit = cold.replace("\"cache\":\"miss\"", "\"cache\":\"hit\"");
        assert!(check_response(&hit, cold).is_err());
        assert!(payload(&hit, COLD_ID, RequestKind::Analyze, CacheStatus::Miss).is_err());

        // A delta answered by a full solve is byte-equal in payload but
        // must be labelled `partial`.
        let delta = &s.steps.last().unwrap().expect;
        let full = delta.replace("\"cache\":\"partial\"", "\"cache\":\"miss\"");
        assert!(check_response(&full, delta).is_err());
    }

    #[test]
    fn known_answer_gate_fires_on_a_wrong_verdict() {
        known_answer_gate(&engine()).expect("Table-1 safe, corpus flagged");
        assert!(
            check_verdict("figure1", "{\"verdict\":\"flagged\",\"match\":{}}", "safe").is_err()
        );
        assert!(check_verdict("figure1", "{\"verdict\":\"safe\",\"match\":{}}", "safe").is_ok());
    }
}
