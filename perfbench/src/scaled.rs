//! `scaled`: one op is the full pipeline on one generated program
//! (`input::SCALED_*`), context `main`, clone level 1:
//! `ProgramIr::from_source` → `Icfg::build` →
//! `analyze_icfg_with(GlobalBuffer)` → `build_mpi_icfg(ReachingConstants)`
//! → `analyze_mpi_with`. One giant communication SCC makes matching plus
//! the fixpoints over 90% of the op and the front end under 5%, so cost
//! per visit and visit count show here.

use crate::harness::{
    alternating_loop, closed_loop, insert_setup, layer_probe, repeated_setup, traced_outcome,
    traced_pipeline, write_spans, OpCounts, PipelineInput, Tally,
};
use crate::input::{self, Program};
use crate::kernel::{Mix, RefKernel};
use crate::report::{peak_rss_mb, Outcome};
use crate::service::{self, ServiceTotals};
use crate::stats::{ref_ms, summarize, throughput_rel, timed, MIN_P90_SAMPLES};
use crate::trace::Tracer;
use mpi_dfa_analyses::activity::{self, ActivityConfig, ActivityResult, Mode};
use mpi_dfa_analyses::mpi_match::{build_mpi_icfg, Matching};
use mpi_dfa_core::solver::SolveParams;
use mpi_dfa_graph::icfg::{Icfg, ProgramIr};
use std::collections::BTreeMap;

const CONTEXT: &str = "main";
const CLONE_LEVEL: usize = 1;

/// The answer of the default program under every seed (renaming does not
/// change it): active locations and active bytes of the MPI-ICFG mode.
pub const GOLDEN_ACTIVE_LOCS: u64 = 28;
pub const GOLDEN_ACTIVE_BYTES: u64 = 1976;

/// One mode's answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModeAnswer {
    pub converged: bool,
    pub active_locs: u64,
    pub active_bytes: u64,
    pub iterations: u64,
}

impl ModeAnswer {
    fn of(r: &ActivityResult) -> ModeAnswer {
        ModeAnswer {
            converged: r.converged(),
            active_locs: r.active.len() as u64,
            active_bytes: r.active_bytes,
            iterations: r.iterations as u64,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub icfg: ModeAnswer,
    pub mpi: ModeAnswer,
    pub comm_edges: usize,
}

fn config(p: &Program) -> ActivityConfig {
    ActivityConfig::new([p.ind.clone()], [p.dep.clone()])
}

/// The op: the pipeline `runner::run_experiment_with` runs, on `p`.
pub fn pipeline(p: &Program) -> Result<Answer, String> {
    let ir = ProgramIr::from_source(&p.source).map_err(|e| e.to_string())?;
    let config = config(p);
    let params = SolveParams::default();
    let icfg = Icfg::build(ir.clone(), CONTEXT, CLONE_LEVEL).map_err(|e| e.to_string())?;
    let base = activity::analyze_icfg_with(&icfg, Mode::GlobalBuffer, &config, &params)?;
    let mpi = build_mpi_icfg(ir, CONTEXT, CLONE_LEVEL, Matching::ReachingConstants)
        .map_err(|e| e.to_string())?;
    let framework = activity::analyze_mpi_with(&mpi, &config, &params)?;
    Ok(Answer {
        icfg: ModeAnswer::of(&base),
        mpi: ModeAnswer::of(&framework),
        comm_edges: mpi.comm_edges.len(),
    })
}

/// Every op: both modes converge and the answer equals the run's first.
pub fn check_answer(got: &Answer, first: &Answer) -> Result<(), String> {
    if !got.icfg.converged || !got.mpi.converged {
        return Err(format!("did not converge: {got:?}"));
    }
    if got != first {
        return Err(format!(
            "answer {got:?} differs from the run's first {first:?}"
        ));
    }
    Ok(())
}

/// The first answer against the golden value.
pub fn check_golden(first: &Answer) -> Result<(), String> {
    let got = (first.mpi.active_locs, first.mpi.active_bytes);
    if got != (GOLDEN_ACTIVE_LOCS, GOLDEN_ACTIVE_BYTES) {
        return Err(format!(
            "MPI-ICFG active (locations, bytes) {got:?} != golden {:?}",
            (GOLDEN_ACTIVE_LOCS, GOLDEN_ACTIVE_BYTES)
        ));
    }
    Ok(())
}

/// Reaching-constants matching may only shrink the active set relative
/// to naive all-pairs matching (the relation `tests/properties.rs`
/// asserts).
pub fn check_subset(refined: &ActivityResult, naive: &ActivityResult) -> Result<(), String> {
    if refined.active.is_subset(&naive.active) && refined.active_bytes <= naive.active_bytes {
        Ok(())
    } else {
        Err("reaching-constants active set is not a subset of the naive one".to_string())
    }
}

fn subset_gate(p: &Program) -> Result<(), String> {
    let ir = ProgramIr::from_source(&p.source).map_err(|e| e.to_string())?;
    let config = config(p);
    let analyze = |m: Matching| -> Result<ActivityResult, String> {
        let g = build_mpi_icfg(ir.clone(), CONTEXT, CLONE_LEVEL, m).map_err(|e| e.to_string())?;
        activity::analyze_mpi(&g, &config)
    };
    check_subset(
        &analyze(Matching::ReachingConstants)?,
        &analyze(Matching::Naive)?,
    )
}

/// Set-up: generate the program, the naive-matching subset gate, and the
/// first op with its golden check.
fn setup(seed: u64) -> (Program, Result<Answer, String>) {
    let p = input::program(
        input::SCALED_GEN_SEED,
        input::SCALED_FACTOR,
        &input::tag(seed, 0),
    );
    let first = subset_gate(&p)
        .and_then(|()| pipeline(&p))
        .and_then(|a| check_golden(&a).map(|()| a));
    (p, first)
}

fn op(p: &Program, first: &Result<Answer, String>) -> (u64, Result<(), String>) {
    let (ns, got) = timed(|| pipeline(p));
    let verdict = match (got, first) {
        (Ok(got), Ok(first)) => check_answer(&got, first),
        (Err(e), _) => Err(e),
        (_, Err(_)) => Err("no first answer to compare with".to_string()),
    };
    (ns, verdict)
}

pub fn run(seconds: f64, seed: u64) -> Outcome {
    let mut kernel = RefKernel::new(Mix::MEMORY);
    let mut setup_samples = Vec::new();
    let (p, first) = repeated_setup(&mut kernel, &mut setup_samples, || setup(seed));
    let mut tally = Tally::default();
    tally.record("set-up", first.as_ref().map(|_| ()).map_err(Clone::clone));
    let samples = closed_loop(&mut kernel, seconds, MIN_P90_SAMPLES, &mut tally, || {
        op(&p, &first)
    });
    let (_, again) = repeated_setup(&mut kernel, &mut setup_samples, || setup(seed));
    tally.record("set-up", again.map(|_| ()));
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

pub fn run_traced(seconds: f64, seed: u64) -> Outcome {
    let mut kernel = RefKernel::new(Mix::MEMORY);
    let (p, first) = setup(seed);
    let mut tally = Tally::default();
    tally.record("set-up", first.as_ref().map(|_| ()).map_err(Clone::clone));
    // After each traced op, one service session on the same program.
    let served = Program {
        scope: format!(",\"clone\":{CLONE_LEVEL}"),
        ..p.clone()
    };
    let session = match service::session(&service::engine(), served) {
        Ok(s) => s,
        Err(e) => {
            tally.record("service session", Err(e));
            return tally.outcome(BTreeMap::new(), BTreeMap::new());
        }
    };
    let mut t = Tracer::new();
    let mut totals = ServiceTotals::default();
    let mut all_counts = Vec::new();
    let traced_op = || {
        let mut counts = OpCounts::default();
        let input = PipelineInput {
            source: &p.source,
            context: CONTEXT,
            clone_level: CLONE_LEVEL,
            config: config(&p),
            params: SolveParams::default(),
            baseline: true,
        };
        t.next_op();
        let root = t.open("op", None);
        let replay = traced_pipeline(&mut t, root, &input, &mut counts);
        // As in `table1`: the probe is a child of the op, its time taken out.
        let probe = t.open("probe", Some(root));
        let verdict = replay.as_ref().map_err(Clone::clone).and_then(|r| {
            let got = Answer {
                icfg: ModeAnswer::of(r.baseline.as_ref().expect("baseline requested")),
                mpi: ModeAnswer::of(&r.framework),
                comm_edges: r.mpi.comm_edges.len(),
            };
            let probed = layer_probe(&mut t, probe, r, &input, &mut counts);
            let first = first.as_ref().map_err(Clone::clone)?;
            check_answer(&got, first).and(probed)
        });
        t.close(probe);
        drop(replay);
        t.close(root);
        let op_ns = t.span_ns(root) - t.span_ns(probe);
        all_counts.push(counts);
        let probe = t.open("probe", None);
        let engine = service::engine();
        let served = service::traced_session(&mut t, probe, &engine, &session, &mut totals);
        t.close(probe);
        (op_ns, verdict.and(served))
    };
    let (untraced, traced) = alternating_loop(
        &mut kernel,
        seconds,
        &mut tally,
        || op(&p, &first),
        traced_op,
    );
    write_spans(&t, &format!("scaled-seed{seed}.jsonl"));
    traced_outcome(&t, &all_counts, &totals, &untraced, &traced, tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden() -> Answer {
        let mode = ModeAnswer {
            converged: true,
            active_locs: GOLDEN_ACTIVE_LOCS,
            active_bytes: GOLDEN_ACTIVE_BYTES,
            iterations: 7,
        };
        Answer {
            icfg: mode,
            mpi: mode,
            comm_edges: 100,
        }
    }

    #[test]
    fn gates_fire_on_corrupted_answers() {
        let first = golden();
        check_answer(&first, &first).unwrap();
        check_golden(&first).unwrap();

        let mut bytes = first;
        bytes.mpi.active_bytes += 8;
        assert!(check_answer(&bytes, &first).is_err());
        assert!(check_golden(&bytes).is_err());

        let mut locs = first;
        locs.mpi.active_locs -= 1;
        assert!(check_golden(&locs).is_err());

        let mut stuck = first;
        stuck.icfg.converged = false;
        assert!(check_answer(&stuck, &first).is_err());

        let mut iters = first;
        iters.mpi.iterations += 1;
        assert!(check_answer(&iters, &first).is_err());
    }

    #[test]
    fn subset_gate_fires_when_refinement_adds_a_location() {
        let p = input::program(input::SERVICE_GEN_SEED, input::SERVICE_FACTOR, "t0");
        let ir = ProgramIr::from_source(&p.source).unwrap();
        let build = |m| build_mpi_icfg(ir.clone(), CONTEXT, 0, m).unwrap();
        let refined =
            activity::analyze_mpi(&build(Matching::ReachingConstants), &config(&p)).unwrap();
        let mut naive = activity::analyze_mpi(&build(Matching::Naive), &config(&p)).unwrap();
        check_subset(&refined, &naive).unwrap();
        let extra = refined.active.iter().next().expect("some active location");
        naive.active.remove(extra);
        assert!(check_subset(&refined, &naive).is_err());
    }
}
