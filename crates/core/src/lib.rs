//! # mpi-dfa-core — the MPI-aware data-flow analysis framework
//!
//! This crate is the paper's primary contribution, reimplemented as a
//! reusable Rust library: an iterative data-flow framework whose graphs may
//! contain **communication edges** in addition to control-flow and
//! interprocedural call/return edges (Strout, Kreaseck, Hovland,
//! *Data-Flow Analysis for MPI Programs*, ICPP 2006).
//!
//! A client analysis specifies (see [`problem::Dataflow`]):
//!
//! * direction, lattice top, boundary fact, and meet — as in any classic
//!   framework;
//! * the node transfer function, which additionally receives the
//!   communication facts arriving over communication edges;
//! * the **communication transfer function** `f_comm`, computing the fact a
//!   send-like node emits over its communication edges from its IN set
//!   (forward) or a receive-like node emits from its OUT set (backward);
//! * optional fact translation across call/return edges.
//!
//! The [`solver`] module exposes a single builder entry point,
//! [`solver::Solver`], over two [`solver::Strategy`] engines: round-robin
//! (whose pass count is the paper's "Iter" statistic) and an SCC-region
//! engine (backed by [`scc`]) that produces byte-identical facts and also
//! runs the incremental and demand-driven modes. [`varset::VarSet`] and the
//! lattices in [`lattice`] cover the fact types the canonical analyses
//! need.
//!
//! ```
//! use mpi_dfa_core::graph::SimpleGraph;
//! use mpi_dfa_core::solver::{Solver, Strategy};
//! # use mpi_dfa_core::graph::NodeId;
//! # use mpi_dfa_core::problem::{Dataflow, Direction};
//! # struct Reach;
//! # impl Dataflow for Reach {
//! #     type Fact = bool; type CommFact = ();
//! #     fn direction(&self) -> Direction { Direction::Forward }
//! #     fn top(&self) -> bool { false }
//! #     fn boundary(&self) -> bool { true }
//! #     fn meet_into(&self, d: &mut bool, s: &bool) -> bool { let c = !*d && *s; *d |= *s; c }
//! #     fn transfer(&self, _: NodeId, i: &bool, _: &[()]) -> bool { *i }
//! #     fn comm_transfer(&self, _: NodeId, _: &bool) {}
//! # }
//! let mut g = SimpleGraph::new(2);
//! g.flow(0, 1);
//! g.set_entry(0);
//! g.set_exit(1);
//! let sol = Solver::new(&Reach, &g).strategy(Strategy::Region).run();
//! assert!(sol.output[1]);
//! assert!(sol.stats.converged);
//! ```

#![forbid(unsafe_code)]

pub mod budget;
pub mod cache;
pub mod graph;
pub mod hash;
pub mod hist;
pub mod lattice;
pub mod problem;
pub mod scc;
pub mod solver;
pub mod telemetry;
pub mod varset;

pub use budget::{Budget, BudgetMeter, BudgetSpent, CancelToken, Exhaustion};
pub use cache::{CacheCounters, CacheSnapshot, DiskStore, LruCache, SharedLru};
pub use graph::{Edge, EdgeKind, FlowGraph, NodeId};
pub use hash::{fnv128, fnv64, hex128, Hasher128};
pub use hist::LogHistogram;
pub use lattice::{BoolAnd, BoolOr, ConstLattice, MeetSemiLattice};
pub use problem::{Dataflow, Direction};
pub use scc::{
    condense, region_fingerprints, upstream_closure, Condensation, ExtInEdge, RegionFingerprints,
};
pub use solver::{
    ConvergenceStats, DemandRun, DemandSolver, IncrementalSolver, SeedRegions, SeededRun,
    SeededSolver, Solution, SolveParams, Solver, SolverConfigError, Strategy,
};
pub use telemetry::{SpanGuard, TelemetryReport, TraceLevel};
pub use varset::VarSet;
