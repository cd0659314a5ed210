//! Property-based tests over randomly generated SPMD programs.
//!
//! These check the invariants the paper's framework relies on, on *every*
//! program the generator can produce — not just the benchmark suite:
//!
//! * the solver converges and both engines (round-robin, region) agree
//!   byte-for-byte;
//! * separable analyses (liveness, reaching definitions) are unaffected by
//!   communication edges;
//! * the communication-edge matching strategies form a precision ladder;
//! * MPI-ICFG activity results never exceed the conservative baseline's
//!   communicated-data activity;
//! * analysis results are deterministic.
//!
//! The workspace builds fully offline, so instead of `proptest` each
//! property sweeps a deterministic sample of generator seeds drawn from a
//! `SplitMix64` stream; a failing case names its seed for replay.

use mpi_dfa::analyses::{consts, liveness, reaching_defs};
use mpi_dfa::lang::rng::SplitMix64;
use mpi_dfa::prelude::*;
use mpi_dfa::suite::gen::{generate, GenConfig};

fn build(seed: u64) -> std::sync::Arc<mpi_dfa::graph::icfg::ProgramIr> {
    let src = generate(seed, &GenConfig::default());
    ProgramIr::from_source(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}"))
}

/// 24 deterministic generator seeds in `[0, 10_000)`, mirroring the old
/// proptest configuration (`cases: 24`, `seed in 0u64..10_000`).
fn seeds(stream: u64) -> Vec<u64> {
    let mut rng = SplitMix64::fork(0xC0FFEE, stream);
    (0..24).map(|_| rng.below(10_000) as u64).collect()
}

#[test]
fn solvers_agree_and_converge() {
    for seed in seeds(1) {
        let ir = build(seed);
        let mpi = build_mpi_icfg(ir, "main", 1, Matching::ReachingConstants).unwrap();
        let problem = consts::ReachingConsts::new(mpi.icfg());
        let rr = Solver::new(&problem, &mpi)
            .strategy(Strategy::RoundRobin)
            .run();
        let rg = Solver::new(&problem, &mpi).strategy(Strategy::Region).run();
        assert!(rr.stats.converged, "seed {seed}");
        assert!(rg.stats.converged, "seed {seed}");
        // Both engines compute the unique maximal fixpoint.
        assert_eq!(&rr.input, &rg.input, "seed {seed}");
        assert_eq!(&rr.output, &rg.output, "seed {seed}");
        // Both engines must stay within the same order of magnitude of
        // work.
        assert!(
            rg.stats.node_visits <= 10 * rr.stats.node_visits.max(1),
            "seed {seed}"
        );
    }
}

#[test]
fn separable_analyses_ignore_comm_edges() {
    for seed in seeds(2) {
        let ir = build(seed);
        let icfg = Icfg::build(ir.clone(), "main", 0).unwrap();
        let mpi = build_mpi_icfg(ir, "main", 0, Matching::Naive).unwrap();

        let live_plain = liveness::analyze(&icfg, &icfg);
        let live_comm = liveness::analyze(&mpi, mpi.icfg());
        assert_eq!(&live_plain.input, &live_comm.input, "seed {seed}");
        assert_eq!(&live_plain.output, &live_comm.output, "seed {seed}");

        let (_, rd_plain) = reaching_defs::analyze(&icfg, &icfg);
        let (_, rd_comm) = reaching_defs::analyze(&mpi, mpi.icfg());
        assert_eq!(&rd_plain.input, &rd_comm.input, "seed {seed}");
        assert_eq!(&rd_plain.output, &rd_comm.output, "seed {seed}");
    }
}

#[test]
fn matching_strategies_form_a_ladder() {
    for seed in seeds(3) {
        let ir = build(seed);
        let naive = build_mpi_icfg(ir.clone(), "main", 0, Matching::Naive).unwrap();
        let syn = build_mpi_icfg(ir.clone(), "main", 0, Matching::Syntactic).unwrap();
        let rc = build_mpi_icfg(ir, "main", 0, Matching::ReachingConstants).unwrap();
        assert!(
            syn.comm_edges.len() <= naive.comm_edges.len(),
            "seed {seed}"
        );
        assert!(rc.comm_edges.len() <= syn.comm_edges.len(), "seed {seed}");
        // Refined edges must be a subset of the naive all-pairs edges.
        for e in &rc.comm_edges {
            assert!(naive.comm_edges.contains(e), "seed {seed}");
        }
    }
}

#[test]
fn activity_is_deterministic() {
    for seed in seeds(4) {
        let ir = build(seed);
        let config = ActivityConfig::new(["s0"], ["s1"]);
        let mpi = build_mpi_icfg(ir, "main", 1, Matching::ReachingConstants).unwrap();
        let a = activity::analyze_mpi(&mpi, &config).unwrap();
        let b = activity::analyze_mpi(&mpi, &config).unwrap();
        assert_eq!(a.active, b.active, "seed {seed}");
        assert_eq!(a.active_bytes, b.active_bytes, "seed {seed}");
        assert_eq!(a.iterations, b.iterations, "seed {seed}");
    }
}

#[test]
fn fewer_comm_edges_never_hurt_precision() {
    for seed in seeds(5) {
        // Refining the matching can only shrink the active set: a subset of
        // communication edges means fewer "arriving" facts in Vary and
        // fewer "needed" facts in Useful.
        let ir = build(seed);
        let config = ActivityConfig::new(["s0"], ["s1"]);
        let naive = build_mpi_icfg(ir.clone(), "main", 0, Matching::Naive).unwrap();
        let rc = build_mpi_icfg(ir, "main", 0, Matching::ReachingConstants).unwrap();
        let coarse = activity::analyze_mpi(&naive, &config).unwrap();
        let fine = activity::analyze_mpi(&rc, &config).unwrap();
        assert!(
            fine.active.is_subset(&coarse.active),
            "seed {seed}: refined matching must not add active locations"
        );
        assert!(fine.active_bytes <= coarse.active_bytes, "seed {seed}");
    }
}

#[test]
fn vary_always_contains_the_independents() {
    for seed in seeds(6) {
        let ir = build(seed);
        let mpi = build_mpi_icfg(ir.clone(), "main", 0, Matching::ReachingConstants).unwrap();
        let config = ActivityConfig::new(["s0"], ["s1"]);
        let res = activity::analyze_mpi(&mpi, &config).unwrap();
        let s0 = ir.locs.global("s0").unwrap();
        for n in 0..mpi_dfa::core::FlowGraph::num_nodes(&mpi) {
            assert!(
                res.vary.output[n].contains(s0.index()),
                "seed {seed}, node {n}"
            );
        }
    }
}

#[test]
fn interpreter_matches_across_runs() {
    // Generated programs may deadlock (unmatched sends/recvs), so only
    // compare the runs that complete — completion must be deterministic.
    use mpi_dfa::lang::interp::{run, InterpConfig, RuntimeLimits};
    let mut rng = SplitMix64::fork(0xC0FFEE, 7);
    for _ in 0..24 {
        let seed = rng.below(300) as u64;
        let src = generate(
            seed,
            &GenConfig {
                mpi_percent: 10,
                ..GenConfig::default()
            },
        );
        let unit = compile(&src).unwrap();
        let cfg = InterpConfig {
            nprocs: 2,
            limits: RuntimeLimits {
                recv_timeout: std::time::Duration::from_millis(300),
                max_steps: 200_000,
            },
            ..Default::default()
        };
        let a = run(&unit.program, &cfg);
        let b = run(&unit.program, &cfg);
        match (a, b) {
            (Ok(ra), Ok(rb)) => {
                for (x, y) in ra.iter().zip(&rb) {
                    assert_eq!(&x.printed, &y.printed, "seed {seed}");
                }
            }
            (Err(_), Err(_)) => {} // deterministic failure is fine
            (a, b) => panic!("seed {seed}: one run failed, one succeeded: {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn interpreter_is_deterministic_under_fault_plans() {
    // Runs under a fixed FaultPlan seed must be bit-for-bit reproducible:
    // fault decisions come from per-rank streams forked off the plan seed,
    // so they do not depend on OS thread interleaving (generated runnable
    // programs contain no wildcard receives). Same final globals, same
    // trace lengths (steps/sends/recvs), same printed output.
    use mpi_dfa::lang::fault::FaultPlan;
    use mpi_dfa::lang::interp::{run, InterpConfig, RuntimeLimits};
    let mut rng = SplitMix64::fork(0xDE7E12, 0);
    let mut compared = 0;
    for case in 0..12u64 {
        let gen_seed = rng.below(10_000) as u64;
        let fault_seed = rng.next_u64();
        let src = generate(
            gen_seed,
            &GenConfig {
                mpi_percent: 12,
                runnable: true,
                ..GenConfig::default()
            },
        );
        let unit = compile(&src).unwrap();
        let cfg = InterpConfig {
            nprocs: 2,
            limits: RuntimeLimits {
                recv_timeout: std::time::Duration::from_millis(400),
                max_steps: 500_000,
            },
            capture_globals: true,
            fault_plan: Some(FaultPlan::adversarial(fault_seed)),
            ..Default::default()
        };
        let a = run(&unit.program, &cfg);
        let b = run(&unit.program, &cfg);
        match (a, b) {
            (Ok(ra), Ok(rb)) => {
                assert_eq!(ra.len(), rb.len());
                for (rank, (x, y)) in ra.iter().zip(&rb).enumerate() {
                    let ctx =
                        format!("case {case} (gen {gen_seed}, fault {fault_seed}) rank {rank}");
                    assert_eq!(x.final_globals, y.final_globals, "{ctx}: globals diverged");
                    assert_eq!(x.steps, y.steps, "{ctx}: step counts diverged");
                    assert_eq!(x.sends, y.sends, "{ctx}: send counts diverged");
                    assert_eq!(x.recvs, y.recvs, "{ctx}: recv counts diverged");
                    assert_eq!(x.printed, y.printed, "{ctx}: printed output diverged");
                }
                compared += 1;
            }
            (Err(_), Err(_)) => {} // deterministic failure is acceptable
            (a, b) => panic!(
                "case {case} (gen {gen_seed}, fault {fault_seed}): nondeterministic outcome: \
                 {a:?} vs {b:?}"
            ),
        }
    }
    assert!(compared >= 6, "too few completing cases ({compared})");
}

#[test]
fn cloning_refines_but_never_unsoundly_shrinks_comm_structure() {
    // Higher clone levels split shared wrapper instances; the per-site
    // communication structure must cover the shared one's behaviors. We
    // check a weaker structural invariant that must always hold: each clone
    // level produces a graph whose MPI node multiset projects onto the
    // level-0 node set.
    for seed in 0..20u64 {
        let ir = build(seed);
        let base = build_mpi_icfg(ir.clone(), "main", 0, Matching::Naive).unwrap();
        let cloned = build_mpi_icfg(ir, "main", 2, Matching::Naive).unwrap();
        let base_kinds = mpi_kinds(&base);
        let clone_kinds = mpi_kinds(&cloned);
        for k in &base_kinds {
            assert!(
                clone_kinds.contains(k),
                "seed {seed}: clone lost an MPI op kind {k:?}"
            );
        }
        assert!(clone_kinds.len() >= base_kinds.len());
    }
}

fn mpi_kinds(g: &MpiIcfg) -> Vec<mpi_dfa::graph::node::MpiKind> {
    use mpi_dfa::graph::node::NodeKind;
    g.mpi_nodes()
        .iter()
        .map(|&n| match &g.payload(n).kind {
            NodeKind::Mpi(m) => m.kind,
            _ => unreachable!(),
        })
        .collect()
}
