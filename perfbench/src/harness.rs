//! The closed loop, set-up timing, and the traced pipeline replay the
//! workloads share.

use crate::kernel::RefKernel;
use crate::report::Outcome;
use crate::service::ServiceTotals;
use crate::stats::{median, p50_rel, ref_ms, timed, Sample};
use crate::trace::Tracer;
use mpi_dfa_analyses::activity::{self, ActivityConfig, ActivityResult, Mode};
use mpi_dfa_analyses::consts::ReachingConsts;
use mpi_dfa_analyses::mpi_match::{build_mpi_icfg, Matching};
use mpi_dfa_core::budget::Budget;
use mpi_dfa_core::graph::FlowGraph;
use mpi_dfa_core::scc::condense;
use mpi_dfa_core::solver::{ConvergenceStats, SolveParams, Solver};
use mpi_dfa_graph::icfg::{Icfg, ProgramIr};
use mpi_dfa_graph::mpi::MpiIcfg;
use mpi_dfa_verify::VerifyConfig;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-up runs this many times before the timed loop and again after it.
/// Repeating at both ends of the run samples more than one of the host's
/// slow/fast regimes.
pub const SETUP_REPEATS: usize = 5;

/// Run `setup` [`SETUP_REPEATS`] times, each right after a kernel sample,
/// appending one sample per repeat; returns the last result.
pub fn repeated_setup<T>(
    kernel: &mut RefKernel,
    samples: &mut Vec<Sample>,
    mut setup: impl FnMut() -> T,
) -> T {
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let ref_ns = kernel_sample(kernel);
        let (op_ns, v) = timed(&mut setup);
        samples.push(Sample { op_ns, ref_ns });
        last = Some(v);
    }
    last.expect("SETUP_REPEATS > 0")
}

/// `setup_s`: the median set-up time in kernel units, converted to
/// seconds at the reference's nominal duration (`Mix::nominal_s`), so
/// host drift between runs cancels as it does for the latencies. The raw
/// median goes on the info line as `setup_raw_s`.
pub fn insert_setup(
    kernel: &RefKernel,
    samples: &[Sample],
    metrics: &mut BTreeMap<&'static str, f64>,
    info: &mut BTreeMap<String, f64>,
) {
    metrics.insert("setup_s", p50_rel(samples) * kernel.mix().nominal_s());
    let raw: Vec<f64> = samples.iter().map(|s| s.op_ns as f64 / 1e9).collect();
    info.insert("setup_raw_s".to_string(), median(&raw));
}

/// Failure messages printed per run; the rest are only counted.
const MAX_LOGGED_FAILURES: u64 = 5;

/// Counts ops and the failures among them; prints the first few failures
/// to stderr.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failed <= MAX_LOGGED_FAILURES {
                eprintln!("FAILED {what}: {e}");
            }
        }
    }

    /// The run's outcome: correct only if nothing failed.
    pub fn outcome(
        self,
        metrics: BTreeMap<&'static str, f64>,
        info: BTreeMap<String, f64>,
    ) -> Outcome {
        Outcome {
            correct: self.failed == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            info,
        }
    }
}

/// One kernel sample: the reference duration under the kernel's mix, ns.
pub fn kernel_sample(kernel: &mut RefKernel) -> u64 {
    let (sum, times) = kernel.run();
    black_box(sum);
    kernel.mix().weigh(times)
}

/// A kernel sample, then `op`; records the op's verdict.
fn sampled(
    kernel: &mut RefKernel,
    tally: &mut Tally,
    op: &mut impl FnMut() -> (u64, Result<(), String>),
) -> Sample {
    let ref_ns = kernel_sample(kernel);
    let (op_ns, verdict) = op();
    tally.record("op", verdict);
    Sample { op_ns, ref_ns }
}

/// A closed loop with one client: a kernel sample, then one op, until
/// `seconds` have passed and at least `min_ops` ops ran. `op` returns its
/// own timing (so checks stay outside it) and its verdict.
pub fn closed_loop(
    kernel: &mut RefKernel,
    seconds: f64,
    min_ops: usize,
    tally: &mut Tally,
    mut op: impl FnMut() -> (u64, Result<(), String>),
) -> Vec<Sample> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut samples = Vec::new();
    while Instant::now() < deadline || samples.len() < min_ops {
        samples.push(sampled(kernel, tally, &mut op));
    }
    samples
}

/// The traced run's loop: an untraced op and a traced op, each after its
/// own kernel sample, alternating until `seconds` have passed, so both
/// kinds see the same host regimes. Returns (untraced, traced) samples.
pub fn alternating_loop(
    kernel: &mut RefKernel,
    seconds: f64,
    tally: &mut Tally,
    mut untraced: impl FnMut() -> (u64, Result<(), String>),
    mut traced: impl FnMut() -> (u64, Result<(), String>),
) -> (Vec<Sample>, Vec<Sample>) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut plain, mut with_spans) = (Vec::new(), Vec::new());
    while Instant::now() < deadline || with_spans.is_empty() {
        plain.push(sampled(kernel, tally, &mut untraced));
        with_spans.push(sampled(kernel, tally, &mut traced));
    }
    (plain, with_spans)
}

/// What one replay of the analysis pipeline needs.
pub struct PipelineInput<'a> {
    pub source: &'a str,
    pub context: &'a str,
    pub clone_level: usize,
    pub config: ActivityConfig,
    pub params: SolveParams,
    /// Also run the global-buffer ICFG baseline (the runner does; the
    /// service's `analyze` does not).
    pub baseline: bool,
}

/// The graphs and answers of one replay.
pub struct Replayed {
    pub icfg: Icfg,
    pub mpi: MpiIcfg,
    pub baseline: Option<ActivityResult>,
    pub framework: ActivityResult,
}

/// Per-op counts measured beside the spans.
#[derive(Debug, Default, Clone)]
pub struct OpCounts {
    pub source_bytes: u64,
    pub icfg_nodes: u64,
    pub comm_edges: u64,
    pub activity_visits: u64,
    pub activity_comm_evals: u64,
    pub solver_visits: u64,
    pub largest_region: u64,
    pub mpi_nodes: u64,
}

/// Solver counters of both activity phases.
pub fn stats_of(r: &ActivityResult) -> ConvergenceStats {
    let mut s = ConvergenceStats::default();
    s.absorb(&r.vary.stats);
    s.absorb(&r.useful.stats);
    s
}

/// Replay the pipeline `runner::run_experiment_with` runs, one public call
/// per span: `lang.compile`, `graph.cfg`, `graph.icfg`, `activity.icfg`,
/// `match` (`build_mpi_icfg`: its own ICFG, the reaching-constants
/// bootstrap and the edge matching) and `activity.mpi`.
pub fn traced_pipeline(
    t: &mut Tracer,
    root: usize,
    input: &PipelineInput,
    counts: &mut OpCounts,
) -> Result<Replayed, String> {
    let unit = t
        .span("lang.compile", root, || mpi_dfa_lang::compile(input.source))
        .map_err(|e| e.to_string())?;
    let ir = t.span("graph.cfg", root, || ProgramIr::build(unit));
    let icfg = t
        .span("graph.icfg", root, || {
            Icfg::build(ir.clone(), input.context, input.clone_level)
        })
        .map_err(|e| e.to_string())?;
    let baseline = if input.baseline {
        Some(t.span("activity.icfg", root, || {
            activity::analyze_icfg_with(&icfg, Mode::GlobalBuffer, &input.config, &input.params)
        })?)
    } else {
        None
    };
    let mpi = t
        .span("match", root, || {
            build_mpi_icfg(
                ir,
                input.context,
                input.clone_level,
                Matching::ReachingConstants,
            )
        })
        .map_err(|e| e.to_string())?;
    let framework = t.span("activity.mpi", root, || {
        activity::analyze_mpi_with(&mpi, &input.config, &input.params)
    })?;
    let stats = stats_of(&framework);
    counts.source_bytes += input.source.len() as u64;
    counts.icfg_nodes += icfg.num_nodes() as u64;
    counts.comm_edges += mpi.comm_edges.len() as u64;
    counts.activity_visits += stats.node_visits;
    counts.activity_comm_evals += stats.comm_evals;
    Ok(Replayed {
        icfg,
        mpi,
        baseline,
        framework,
    })
}

/// Direct calls on a replay's graphs: `verify_static` with no schedule
/// exploration (`verify`), the reaching-constants bootstrap over the ICFG
/// (`solver.consts`), Vary and Useful over the MPI-ICFG (`solver.vary`,
/// `solver.useful`), and its SCC condensation (`solver.condense`).
pub fn layer_probe(
    t: &mut Tracer,
    parent: usize,
    r: &Replayed,
    input: &PipelineInput,
    counts: &mut OpCounts,
) -> Result<(), String> {
    let vcfg = VerifyConfig {
        schedules: 0,
        ..VerifyConfig::default()
    };
    let report = t.span("verify", parent, || {
        mpi_dfa_verify::verify_static(&r.mpi, &vcfg, &Budget::unlimited())
    });
    black_box(report.map_err(|e| e.to_string())?);
    let consts = ReachingConsts::new(&r.icfg);
    let sol = t.span("solver.consts", parent, || {
        Solver::new(&consts, &r.icfg)
            .params(input.params.clone())
            .run()
    });
    black_box(&sol);
    let (vary_p, useful_p) =
        activity::vary_useful_problems(r.mpi.icfg(), Mode::MpiIcfg, &input.config)?;
    let vary = t.span("solver.vary", parent, || {
        Solver::new(&vary_p, &r.mpi)
            .params(input.params.clone())
            .run()
    });
    let useful = t.span("solver.useful", parent, || {
        Solver::new(&useful_p, &r.mpi)
            .params(input.params.clone())
            .run()
    });
    let cond = t.span("solver.condense", parent, || condense(&r.mpi));
    counts.solver_visits += vary.stats.node_visits + useful.stats.node_visits;
    counts.largest_region += cond.largest_region() as u64;
    counts.mpi_nodes += r.mpi.num_nodes() as u64;
    Ok(())
}

/// The per-layer metrics every workload reports: medians over traced ops
/// of per-op span sums and counts.
pub fn layer_metrics(t: &Tracer, counts: &[OpCounts]) -> BTreeMap<&'static str, f64> {
    let med = |name: &str| median(&t.per_op_ms(name));
    let cmed = |f: &dyn Fn(&OpCounts) -> f64| median(&counts.iter().map(f).collect::<Vec<_>>());
    let mut m = BTreeMap::new();
    m.insert("lang.compile_ms", med("lang.compile"));
    m.insert("lang.source_kb", cmed(&|c| c.source_bytes as f64 / 1024.0));
    m.insert("graph.cfg_ms", med("graph.cfg"));
    m.insert("graph.icfg_ms", med("graph.icfg"));
    m.insert("graph.icfg_nodes", cmed(&|c| c.icfg_nodes as f64));
    m.insert("activity.icfg_ms", med("activity.icfg"));
    m.insert("match.ms", med("match"));
    m.insert("match.comm_edges", cmed(&|c| c.comm_edges as f64));
    let mpi_ms = med("activity.mpi");
    m.insert("activity.mpi_ms", mpi_ms);
    let visits = cmed(&|c| c.activity_visits as f64);
    m.insert("activity.node_visits", visits);
    m.insert(
        "activity.comm_evals",
        cmed(&|c| c.activity_comm_evals as f64),
    );
    m.insert("activity.ns_per_visit", mpi_ms * 1e6 / visits);
    let (vary, useful) = (med("solver.vary"), med("solver.useful"));
    m.insert("solver.consts_ms", med("solver.consts"));
    m.insert("solver.vary_ms", vary);
    m.insert("solver.useful_ms", useful);
    let solver_visits = cmed(&|c| c.solver_visits as f64);
    m.insert("solver.node_visits", solver_visits);
    m.insert("solver.ns_per_visit", (vary + useful) * 1e6 / solver_visits);
    m.insert(
        "solver.largest_region_share",
        cmed(&|c| c.largest_region as f64 / c.mpi_nodes as f64),
    );
    m.insert("verify.ms", med("verify"));
    m.insert("runner.residue_ms", median(&t.self_ms("op")));
    m
}

/// The traced run's outcome: [`layer_metrics`], the service layer's
/// metrics, the tracing overhead (traced minus untraced p50 ratio) and the
/// kernel's median over the whole traced run.
pub fn traced_outcome(
    t: &Tracer,
    counts: &[OpCounts],
    service: &ServiceTotals,
    untraced: &[Sample],
    traced: &[Sample],
    tally: Tally,
) -> Outcome {
    let mut m = layer_metrics(t, counts);
    service.insert_metrics(t, &mut m);
    m.insert(
        "runner.trace_overhead_rel",
        p50_rel(traced) - p50_rel(untraced),
    );
    let all: Vec<Sample> = untraced.iter().chain(traced).copied().collect();
    m.insert("host.ref_ms", ref_ms(&all));
    let mut info = BTreeMap::new();
    info.insert("untraced_ops".to_string(), untraced.len() as f64);
    info.insert("traced_ops".to_string(), traced.len() as f64);
    tally.outcome(m, info)
}

/// Write the spans of a traced run as JSON lines under `.perfbench_out/`.
pub fn write_spans(t: &Tracer, file: &str) {
    let dir = std::path::Path::new(".perfbench_out");
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(dir.join(file), t.to_jsonl()));
    if let Err(e) = written {
        eprintln!("warning: could not write spans: {e}");
    }
}
