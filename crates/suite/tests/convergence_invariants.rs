//! `ConvergenceStats` invariants on the real benchmark programs.
//!
//! The unit tests in `mpi-dfa-core` pin the counter semantics on toy
//! graphs; these tests re-check them where it matters — the Table 1
//! benchmarks — and add the cross-engine bound the telemetry layer's
//! numbers rely on: summed across the suite the region engine performs no
//! more node visits than the round-robin sweep, while producing the
//! identical fixpoint. The bound is *aggregate*; a per-program 2× sanity
//! factor guards each phase of each program on its own.

use mpi_dfa_analyses::activity::{vary_useful_problems, ActivityConfig, Mode};
use mpi_dfa_analyses::mpi_match::{build_mpi_icfg, Matching};
use mpi_dfa_core::graph::FlowGraph;
use mpi_dfa_core::solver::{ConvergenceStats, Solver, Strategy};
use mpi_dfa_graph::mpi::MpiIcfg;
use mpi_dfa_suite::all_experiments;
use mpi_dfa_suite::programs;

/// Row IDs to exercise: one per distinct benchmark program (running every
/// LU/Sw variant re-checks the same graphs with different seeds).
const ROWS: &[&str] = &["Biostat", "SOR", "CG", "LU-1", "MG-1", "Sw-1"];

fn suite_graphs() -> Vec<(&'static str, MpiIcfg, ActivityConfig)> {
    all_experiments()
        .iter()
        .filter(|s| ROWS.contains(&s.id))
        .map(|spec| {
            let ir = programs::ir(spec.program);
            let mpi = build_mpi_icfg(
                ir,
                spec.context,
                spec.clone_level,
                Matching::ReachingConstants,
            )
            .unwrap_or_else(|e| panic!("{}: {e}", spec.id));
            let config = ActivityConfig::new(spec.independents.to_vec(), spec.dependents.to_vec());
            (spec.id, mpi, config)
        })
        .collect()
}

#[test]
fn region_visits_bounded_by_round_robin_on_suite_programs() {
    let mut rr_total: u64 = 0;
    let mut rg_total: u64 = 0;
    for (id, mpi, config) in suite_graphs() {
        let (vary_p, useful_p) =
            vary_useful_problems(mpi.icfg(), Mode::MpiIcfg, &config).expect("problems");

        for (phase, rr, rg) in [
            (
                "vary",
                Solver::new(&vary_p, &mpi)
                    .strategy(Strategy::RoundRobin)
                    .run(),
                Solver::new(&vary_p, &mpi).strategy(Strategy::Region).run(),
            ),
            (
                "useful",
                Solver::new(&useful_p, &mpi)
                    .strategy(Strategy::RoundRobin)
                    .run(),
                Solver::new(&useful_p, &mpi)
                    .strategy(Strategy::Region)
                    .run(),
            ),
        ] {
            assert!(rr.stats.converged && rg.stats.converged, "{id}");
            assert_eq!(
                rr.input, rg.input,
                "{id} {phase}: engines must agree on the fixpoint"
            );
            assert_eq!(rr.output, rg.output, "{id} {phase}");
            rr_total += rr.stats.node_visits;
            rg_total += rg.stats.node_visits;
            // Per-program sanity factor (see module docs).
            assert!(
                rg.stats.node_visits <= 2 * rr.stats.node_visits,
                "{id} {phase}: region {} visits > 2x round-robin {}",
                rg.stats.node_visits,
                rr.stats.node_visits
            );
            // Counter bookkeeping holds on real graphs, not just toys.
            for s in [&rr.stats, &rg.stats] {
                assert_eq!(
                    s.per_node_visits.iter().sum::<u64>(),
                    s.node_visits,
                    "{id} {phase}: per-node visits must sum to the total"
                );
                assert!(
                    s.pass_deltas.iter().sum::<u64>() > 0,
                    "{id} {phase}: some node must change before the fixpoint"
                );
            }
            assert_eq!(
                rr.stats.pass_deltas.len(),
                rr.stats.passes,
                "{id} {phase}: one delta recorded per round-robin pass"
            );
            assert_eq!(
                *rr.stats.pass_deltas.last().expect("at least one pass"),
                0,
                "{id} {phase}: a converged round-robin run ends with a zero-delta pass"
            );
            assert!(
                rg.stats.worklist_peak > 0 && rr.stats.worklist_peak == 0,
                "{id} {phase}: only the region engine has a queue"
            );
        }
    }
    // The aggregate bound: across the whole suite the region engine does
    // no more work than the sweep.
    assert!(
        rg_total <= rr_total,
        "summed across the suite the region engine must not exceed round-robin: \
         {rg_total} > {rr_total}"
    );
}

#[test]
fn absorb_is_order_independent_across_benchmark_stats() {
    // Absorbing the per-benchmark stats in any order yields the same
    // counters — the property that makes cross-run metric aggregation in
    // the telemetry sink well-defined. Mixing in stats produced by the
    // region engine (which itself merges per-region stats in region-id
    // order) extends the property to region-merged inputs: absorbing both
    // engines' stats together must stay order-independent.
    let mut stats: Vec<ConvergenceStats> = Vec::new();
    for (_, mpi, config) in suite_graphs().iter() {
        let (vary_p, _) = vary_useful_problems(mpi.icfg(), Mode::MpiIcfg, config).unwrap();
        stats.push(
            Solver::new(&vary_p, mpi)
                .strategy(Strategy::RoundRobin)
                .run()
                .stats,
        );
        stats.push(
            Solver::new(&vary_p, mpi)
                .strategy(Strategy::Region)
                .run()
                .stats,
        );
        // Record a graph-size witness so zero-padding in absorb is hit.
        assert!(mpi.num_nodes() > 0);
    }
    assert!(stats.len() >= 6);

    let absorb_all = |order: &[usize]| {
        let mut acc = ConvergenceStats::default();
        for &i in order {
            acc.absorb(&stats[i]);
        }
        (
            acc.passes,
            acc.node_visits,
            acc.comm_evals,
            acc.meets,
            acc.worklist_peak,
            acc.pass_deltas.clone(),
            acc.per_node_visits.clone(),
        )
    };
    let forward: Vec<usize> = (0..stats.len()).collect();
    let backward: Vec<usize> = (0..stats.len()).rev().collect();
    assert_eq!(
        absorb_all(&forward),
        absorb_all(&backward),
        "absorb must be order-independent on the counters"
    );
}
