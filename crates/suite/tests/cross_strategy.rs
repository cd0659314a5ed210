//! Cross-engine equivalence on the Table-1 benchmarks, checked where it
//! matters.
//!
//! Every Table-1 program (Biostat, SOR, CG, LU, MG, Sweep3d) × the two
//! nonseparable analyses the paper runs (reaching constants; Vary/Useful
//! activity, i.e. both solver directions) × both engines must produce
//! **identical** `Solution` facts: the region engine against the
//! round-robin reference, byte for byte. The engine may change wall-clock
//! and iteration stats — never facts. The same runs also re-check the
//! `ConvergenceStats` bookkeeping invariants under both engines.

use mpi_dfa_analyses::activity::{vary_useful_problems, ActivityConfig, Mode};
use mpi_dfa_analyses::consts::ReachingConsts;
use mpi_dfa_analyses::mpi_match::{build_mpi_icfg, Matching};
use mpi_dfa_core::problem::Dataflow;
use mpi_dfa_core::solver::{ConvergenceStats, Solution, Solver, Strategy};
use mpi_dfa_graph::mpi::MpiIcfg;
use mpi_dfa_suite::{all_experiments, programs};

/// One row per distinct benchmark program — together these cover every
/// program in Table 1.
const ROWS: &[&str] = &["Biostat", "SOR", "CG", "LU-1", "MG-1", "Sw-1"];

fn check_stats_invariants(id: &str, label: &str, strategy: Strategy, stats: &ConvergenceStats) {
    assert!(stats.converged, "{id} {label} [{strategy}] must converge");
    assert_eq!(
        stats.per_node_visits.iter().sum::<u64>(),
        stats.node_visits,
        "{id} {label} [{strategy}]: per-node visits must sum to the total"
    );
    assert!(
        stats.pass_deltas.iter().sum::<u64>() > 0,
        "{id} {label} [{strategy}]: some node must change before the fixpoint"
    );
    assert!(
        stats.node_visits > 0,
        "{id} {label} [{strategy}]: a solve must visit nodes"
    );
}

/// Solve `problem` over `mpi` under both engines and assert the region
/// engine's facts are identical to the round-robin reference, byte for
/// byte.
fn assert_engines_agree<P>(id: &str, label: &str, mpi: &MpiIcfg, problem: &P)
where
    P: Dataflow,
    P::Fact: std::fmt::Debug + PartialEq,
{
    let reference: Solution<P::Fact> = Solver::new(problem, mpi)
        .strategy(Strategy::RoundRobin)
        .run();
    check_stats_invariants(id, label, Strategy::RoundRobin, &reference.stats);
    let sol = Solver::new(problem, mpi).strategy(Strategy::Region).run();
    check_stats_invariants(id, label, Strategy::Region, &sol.stats);
    assert_eq!(
        sol.input, reference.input,
        "{id} {label}: region IN facts must match round-robin"
    );
    assert_eq!(
        sol.output, reference.output,
        "{id} {label}: region OUT facts must match round-robin"
    );
}

#[test]
fn every_table1_program_and_analysis_agrees_across_engines() {
    for spec in all_experiments().iter().filter(|s| ROWS.contains(&s.id)) {
        let ir = programs::ir(spec.program);
        let mpi = build_mpi_icfg(
            ir,
            spec.context,
            spec.clone_level,
            Matching::ReachingConstants,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", spec.id));

        // Reaching constants over the MPI-ICFG (forward, nonseparable).
        let consts = ReachingConsts::new(mpi.icfg());
        assert_engines_agree(spec.id, "consts", &mpi, &consts);

        // Activity: Vary (forward) and Useful (backward) — both solver
        // directions over communication edges.
        let config = ActivityConfig::new(spec.independents.to_vec(), spec.dependents.to_vec());
        let (vary_p, useful_p) =
            vary_useful_problems(mpi.icfg(), Mode::MpiIcfg, &config).expect("problems");
        assert_engines_agree(spec.id, "vary", &mpi, &vary_p);
        assert_engines_agree(spec.id, "useful", &mpi, &useful_p);
    }
}

#[test]
fn region_stats_on_benchmarks_are_deterministic() {
    // Everything except wall-clock: the per-region merge in region-id order
    // makes the published counters a deterministic function of the graph.
    let spec = all_experiments()
        .iter()
        .find(|s| s.id == "CG")
        .cloned()
        .expect("CG row exists");
    let ir = programs::ir(spec.program);
    let mpi = build_mpi_icfg(
        ir,
        spec.context,
        spec.clone_level,
        Matching::ReachingConstants,
    )
    .unwrap();
    let consts = ReachingConsts::new(mpi.icfg());
    let stats = || {
        let mut s = Solver::new(&consts, &mpi)
            .strategy(Strategy::Region)
            .run()
            .stats;
        s.elapsed = std::time::Duration::ZERO;
        s
    };
    assert_eq!(stats(), stats(), "region stats must not vary run to run");
}
