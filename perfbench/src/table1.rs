//! `table1`: one op is `runner::run_all()`, all 13 Table-1 rows under the
//! default strategy — the paper's own workload. Its programs are small and
//! real, so the front end is about half the op and each solve's fixed cost
//! outweighs its cost per visit. Its inputs are the paper's fixed programs;
//! the seed changes nothing here.

use crate::harness::{
    alternating_loop, closed_loop, insert_setup, layer_probe, repeated_setup, stats_of,
    traced_outcome, traced_pipeline, write_spans, OpCounts, PipelineInput, Tally,
};
use crate::input::Program;
use crate::kernel::{Mix, RefKernel};
use crate::report::{peak_rss_mb, Outcome};
use crate::service::{self, Session, ServiceTotals};
use crate::stats::{ref_ms, summarize, throughput_rel, timed, MIN_P90_SAMPLES};
use crate::trace::Tracer;
use mpi_dfa_analyses::activity::{ActivityConfig, ActivityResult};
use mpi_dfa_core::solver::SolveParams;
use mpi_dfa_suite::experiments::{self, ExperimentSpec};
use mpi_dfa_suite::programs;
use mpi_dfa_suite::runner::{self, MeasuredMode, MeasuredRow};
use std::collections::BTreeMap;
use std::hint::black_box;

fn hundredths(pct: f64) -> i64 {
    (pct * 100.0).round() as i64
}

/// The gate: every row converges, its MPI-ICFG ActiveBytes equal the
/// paper's, and its % decrease equals the paper's to the hundredth. The
/// reference is the paper (`ExperimentSpec::paper`), never the program.
pub fn check_rows(rows: &[MeasuredRow], specs: &[ExperimentSpec]) -> Result<(), String> {
    if rows.len() != specs.len() {
        return Err(format!("{} rows, expected {}", rows.len(), specs.len()));
    }
    for (row, spec) in rows.iter().zip(specs) {
        let id = spec.id;
        if row.spec.id != id {
            return Err(format!("row {} where {id} was expected", row.spec.id));
        }
        if !row.converged() {
            return Err(format!("{id}: did not converge"));
        }
        if row.mpi.active_bytes != spec.paper.mpi.active_bytes {
            return Err(format!(
                "{id}: MPI-ICFG ActiveBytes {} != paper {}",
                row.mpi.active_bytes, spec.paper.mpi.active_bytes
            ));
        }
        if hundredths(row.pct_decrease()) != hundredths(spec.paper.pct_decrease) {
            return Err(format!(
                "{id}: % decrease {:.2} != paper {:.2}",
                row.pct_decrease(),
                spec.paper.pct_decrease
            ));
        }
    }
    Ok(())
}

/// Set-up: lazy statics (first time only), the reference answers and the
/// first op with its gate.
fn setup() -> (Vec<ExperimentSpec>, Vec<MeasuredRow>, Result<(), String>) {
    let specs = experiments::all();
    let rows = runner::run_all();
    let gate = check_rows(&rows, &specs);
    (specs, rows, gate)
}

fn op(specs: &[ExperimentSpec]) -> (u64, Result<(), String>) {
    let (ns, rows) = timed(runner::run_all);
    let verdict = check_rows(&rows, specs);
    black_box(rows);
    (ns, verdict)
}

pub fn run(seconds: f64) -> Outcome {
    let mut kernel = RefKernel::new(Mix::FRONT_END);
    let mut setup_samples = Vec::new();
    let (specs, _, gate) = repeated_setup(&mut kernel, &mut setup_samples, setup);
    let mut tally = Tally::default();
    tally.record("set-up", gate);
    let samples = closed_loop(&mut kernel, seconds, MIN_P90_SAMPLES, &mut tally, || {
        op(&specs)
    });
    let (_, _, gate) = repeated_setup(&mut kernel, &mut setup_samples, setup);
    tally.record("set-up", gate);
    let mut metrics = BTreeMap::new();
    let mut info = BTreeMap::new();
    insert_setup(&kernel, &setup_samples, &mut metrics, &mut info);
    metrics.insert("throughput_rel", throughput_rel(&samples));
    match summarize(&samples) {
        Ok(s) => {
            metrics.insert("latency_p50_rel", s.p50_rel);
            metrics.insert("latency_p90_rel", s.p90_rel);
            info.insert("raw_p50_ms".to_string(), s.raw_p50_ms);
        }
        Err(e) => tally.record("summary", Err(e)),
    }
    metrics.insert("peak_rss_mb", peak_rss_mb());
    info.insert("ops".to_string(), samples.len() as f64);
    info.insert("host_ref_ms".to_string(), ref_ms(&samples));
    tally.outcome(metrics, info)
}

/// Does a replayed mode equal what `run_all` measured for it?
fn same_mode(label: &str, got: &ActivityResult, want: &MeasuredMode) -> Result<(), String> {
    let s = stats_of(got);
    let got = (
        got.iterations as u64,
        got.active_bytes,
        got.active.len() as u64,
        got.converged(),
        s.node_visits,
        s.comm_evals,
    );
    let want_t = (
        want.iterations,
        want.active_bytes,
        want.active_locs,
        want.converged,
        want.node_visits,
        want.comm_evals,
    );
    if got == want_t {
        Ok(())
    } else {
        Err(format!("{label}: replay {got:?} != run_all {want_t:?}"))
    }
}

/// The program of the traced run's service session: row LU-1's (`lu`,
/// context `rhs`, clone level 1, `frct` → `rsd`).
fn service_program() -> Program {
    Program {
        source: programs::source("lu")
            .expect("registered program")
            .to_string(),
        ind: "frct".to_string(),
        dep: "rsd".to_string(),
        scope: ",\"context\":\"rhs\",\"clone\":1".to_string(),
    }
}

/// One traced op: every row replayed through the public calls
/// `runner::run_experiment_with` makes, asserting the same values, then
/// the layer probe on each row's graphs (not counted as op time). After
/// the op, one service session on [`service_program`].
fn traced_op(
    t: &mut Tracer,
    specs: &[ExperimentSpec],
    want: &[MeasuredRow],
    session: &Session,
    counts: &mut OpCounts,
    totals: &mut ServiceTotals,
) -> (u64, Result<(), String>) {
    t.next_op();
    let root = t.open("op", None);
    let mut probe_ns = 0;
    let mut verdict = Ok(());
    for (spec, want) in specs.iter().zip(want) {
        let input = PipelineInput {
            source: programs::source(spec.program).expect("registered program"),
            context: spec.context,
            clone_level: spec.clone_level,
            config: ActivityConfig::new(spec.independents.to_vec(), spec.dependents.to_vec()),
            params: SolveParams::default(),
            baseline: true,
        };
        let replay = traced_pipeline(t, root, &input, counts);
        // The probe is a child of the op, right after the row, so the row's
        // graphs are still alive for it and are dropped before the next
        // row, as in `run_all`; its time is taken out of the op's.
        let probe = t.open("probe", Some(root));
        let id = spec.id;
        let checks = replay.as_ref().map_err(Clone::clone).and_then(|r| {
            let base = r.baseline.as_ref().expect("baseline requested");
            same_mode(&format!("{id} ICFG"), base, &want.icfg)?;
            same_mode(&format!("{id} MPI-ICFG"), &r.framework, &want.mpi)?;
            if r.mpi.comm_edges.len() != want.comm_edges {
                return Err(format!("{id}: comm edges differ"));
            }
            layer_probe(t, probe, r, &input, counts)
        });
        t.close(probe);
        probe_ns += t.span_ns(probe);
        drop(replay);
        if verdict.is_ok() {
            verdict = checks.map_err(|e| format!("{id}: {e}"));
        }
    }
    t.close(root);
    let op_ns = t.span_ns(root) - probe_ns;
    let probe = t.open("probe", None);
    let served = service::traced_session(t, probe, &service::engine(), session, totals);
    t.close(probe);
    (op_ns, verdict.and(served))
}

/// The traced run: untraced ops (for the tracing overhead) alternating
/// with traced ones.
pub fn run_traced(seconds: f64, seed: u64) -> Outcome {
    let mut kernel = RefKernel::new(Mix::FRONT_END);
    let (specs, rows, gate) = setup();
    let mut tally = Tally::default();
    tally.record("set-up", gate);
    let session = match service::session(&service::engine(), service_program()) {
        Ok(s) => s,
        Err(e) => {
            tally.record("service session", Err(e));
            return tally.outcome(BTreeMap::new(), BTreeMap::new());
        }
    };
    let mut t = Tracer::new();
    let mut totals = ServiceTotals::default();
    let mut all_counts = Vec::new();
    let (untraced, traced) = alternating_loop(
        &mut kernel,
        seconds,
        &mut tally,
        || op(&specs),
        || {
            let mut counts = OpCounts::default();
            let out = traced_op(&mut t, &specs, &rows, &session, &mut counts, &mut totals);
            all_counts.push(counts);
            out
        },
    );
    write_spans(&t, &format!("table1-seed{seed}.jsonl"));
    traced_outcome(&t, &all_counts, &totals, &untraced, &traced, tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_fires_on_corrupted_rows() {
        let specs = experiments::all();
        let rows = runner::run_all();
        check_rows(&rows, &specs).expect("the program reproduces Table 1");

        let mut bytes = rows.clone();
        bytes[3].mpi.active_bytes += 8;
        assert!(check_rows(&bytes, &specs).is_err());

        let mut pct = rows.clone();
        pct[0].icfg.active_bytes += pct[0].icfg.active_bytes / 10;
        assert!(check_rows(&pct, &specs).is_err());

        let mut stuck = rows.clone();
        stuck[5].mpi.converged = false;
        assert!(check_rows(&stuck, &specs).is_err());

        assert!(check_rows(&rows[1..], &specs).is_err());
        let mut swapped = rows.clone();
        swapped.swap(0, 1);
        assert!(check_rows(&swapped, &specs).is_err());
    }
}
