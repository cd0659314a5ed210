//! Region engine speedup over the round-robin sweep.
//!
//! On the largest `suite::gen` multi-procedure program (seed 42,
//! `GenConfig::scaled(5)` — the top end of the `solver_scaling` sweep) the
//! sequential region engine must be **≥1.5× faster wall-clock than the
//! round-robin sweep**, while producing byte-identical facts. The win is
//! algorithmic: the engine solves each SCC region to *local* convergence
//! with round-separated dirty sweeps and visits downstream regions only
//! after their inputs settle, so acyclic stretches are evaluated once
//! instead of once per global pass, and each comm source's `f_comm` fact
//! is memoised until its input changes.
//!
//! Three problems are timed — reaching constants (forward, nonseparable)
//! and the Vary/Useful activity pair (both solver directions) — under both
//! engines. Every region-engine `Solution` is asserted equal to the
//! round-robin reference before its timing is reported, so the numbers can
//! never come from a wrong fixpoint.
//!
//! The final line is a machine-readable JSON summary; the checked-in
//! `BENCH_solver.json` baseline is exactly that line.

use mpi_dfa_analyses::activity::{vary_useful_problems, ActivityConfig, Mode};
use mpi_dfa_analyses::consts::ReachingConsts;
use mpi_dfa_analyses::mpi_match::{build_mpi_icfg, Matching};
use mpi_dfa_bench::{criterion_group, criterion_main, Criterion};
use mpi_dfa_core::problem::Dataflow;
use mpi_dfa_core::scc::condense;
use mpi_dfa_core::solver::{Solver, Strategy};
use mpi_dfa_graph::icfg::ProgramIr;
use mpi_dfa_graph::mpi::MpiIcfg;
use mpi_dfa_suite::gen::{generate, GenConfig};
use std::hint::black_box;
use std::time::Instant;

/// Asserted floor: the region engine vs the round-robin sweep.
const MIN_SPEEDUP: f64 = 1.5;

/// Timed iterations per (problem, strategy) cell.
const SAMPLES: usize = 9;

fn median_ns(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    samples[samples.len() / 2]
}

/// The largest generated program in the scaling sweep.
fn graph() -> MpiIcfg {
    let src = generate(42, &GenConfig::scaled(5));
    let ir = ProgramIr::from_source(&src).expect("generated program compiles");
    build_mpi_icfg(ir, "main", 1, Matching::ReachingConstants).expect("graph")
}

/// The two engines.
fn strategies() -> Vec<(&'static str, Strategy)> {
    vec![
        ("round_robin", Strategy::RoundRobin),
        ("region", Strategy::Region),
    ]
}

/// One timing row: strategy label, median ns, node visits of the final run.
struct Row {
    label: &'static str,
    median_ns: f64,
    node_visits: u64,
}

/// Time both engines on `problem`, asserting each run reproduces the
/// round-robin reference facts byte for byte.
fn time_all<P>(mpi: &MpiIcfg, problem: &P) -> Vec<Row>
where
    P: Dataflow,
    P::Fact: std::fmt::Debug + PartialEq,
{
    let reference = Solver::new(problem, mpi)
        .strategy(Strategy::RoundRobin)
        .run();
    assert!(reference.stats.converged);
    strategies()
        .into_iter()
        .map(|(label, strategy)| {
            let mut times = Vec::with_capacity(SAMPLES);
            let mut node_visits = 0;
            for _ in 0..SAMPLES {
                let t = Instant::now();
                let sol = black_box(Solver::new(problem, mpi).strategy(strategy).run());
                times.push(t.elapsed().as_secs_f64() * 1e9);
                assert!(sol.stats.converged, "{label} must converge");
                assert_eq!(
                    sol.input, reference.input,
                    "{label}: IN facts must match the round-robin reference"
                );
                assert_eq!(
                    sol.output, reference.output,
                    "{label}: OUT facts must match the round-robin reference"
                );
                node_visits = sol.stats.node_visits;
            }
            Row {
                label,
                median_ns: median_ns(times),
                node_visits,
            }
        })
        .collect()
}

fn bench_solver_parallel(c: &mut Criterion) {
    let mpi = graph();
    let nodes = mpi_dfa_core::FlowGraph::num_nodes(&mpi);
    let cond = condense(&mpi);
    println!(
        "solver_parallel graph: {nodes} nodes, {} regions (largest {})",
        cond.num_regions(),
        cond.largest_region()
    );

    let consts = ReachingConsts::new(mpi.icfg());
    let config = ActivityConfig::new(["s0"], ["s1"]);
    let (vary_p, useful_p) =
        vary_useful_problems(mpi.icfg(), Mode::MpiIcfg, &config).expect("problems");

    // Standard printout via the criterion-compatible harness (consts only;
    // the precise medians below cover all three problems).
    let mut group = c.benchmark_group("solver_parallel/consts");
    group.sample_size(10);
    for (label, strategy) in strategies() {
        group.bench_function(label, |b| {
            b.iter(|| black_box(Solver::new(&consts, &mpi).strategy(strategy).run()));
        });
    }
    group.finish();

    // Precise medians for the baseline JSON + the asserted speedup floor.
    let mut json_problems = Vec::new();
    let mut rr_total = 0.0f64;
    let mut region_total = 0.0f64;
    for (name, rows) in [
        ("consts", time_all(&mpi, &consts)),
        ("vary", time_all(&mpi, &vary_p)),
        ("useful", time_all(&mpi, &useful_p)),
    ] {
        let ns_of = |label: &str| {
            rows.iter()
                .find(|r| r.label == label)
                .expect("strategy timed")
                .median_ns
        };
        let rr = ns_of("round_robin");
        let region = ns_of("region");
        rr_total += rr;
        region_total += region;
        println!(
            "solver_parallel {name}: round-robin {rr:.0}ns vs region {region:.0}ns => {:.2}x",
            rr / region
        );
        let cells = rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"strategy\":\"{}\",\"ns_median\":{:.0},\"node_visits\":{}}}",
                    r.label, r.median_ns, r.node_visits
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        json_problems.push(format!(
            "{{\"problem\":\"{name}\",\"speedup_region_vs_round_robin\":{:.2},\"strategies\":[{cells}]}}",
            rr / region
        ));
    }

    // The acceptance bar, asserted on the summed medians across all three
    // problems (per-problem ratios are also published in the JSON).
    let speedup = rr_total / region_total;
    println!(
        "solver_parallel aggregate: round-robin {rr_total:.0}ns vs region \
         {region_total:.0}ns => {speedup:.2}x (floor {MIN_SPEEDUP}x)"
    );
    assert!(
        speedup >= MIN_SPEEDUP,
        "the region engine is only {speedup:.2}x faster than round-robin (floor {MIN_SPEEDUP}x)"
    );

    // Machine-readable baseline — `BENCH_solver.json` is this line.
    println!(
        "{{\"bench\":\"solver_parallel\",\"graph\":{{\"generator\":\
         \"gen::GenConfig::scaled(5), seed 42\",\"nodes\":{nodes},\"regions\":{},\
         \"largest_region\":{}}},\"min_speedup\":{MIN_SPEEDUP},\
         \"aggregate_speedup_region_vs_round_robin\":{speedup:.2},\"problems\":[{}]}}",
        cond.num_regions(),
        cond.largest_region(),
        json_problems.join(","),
    );
}

criterion_group!(benches, bench_solver_parallel);
criterion_main!(benches);
