//! Solver behavior on canonical graph shapes — the Section 4.2 complexity
//! discussion, made concrete: convergence is bounded by graph depth (plus a
//! couple of bookkeeping passes), communication edges add depth but not
//! worst-case blowup, and irreducible comm-edge cycles still converge.

use mpi_dfa_core::graph::{EdgeKind, SimpleGraph};
use mpi_dfa_core::lattice::{ConstLattice, MeetSemiLattice};
use mpi_dfa_core::problem::{Dataflow, Direction};
use mpi_dfa_core::solver::{Solver, Strategy};
use mpi_dfa_core::NodeId;

/// Constant propagation where node 0 generates `7` and every node forwards;
/// comm targets copy the incoming comm fact.
struct Forwarder {
    recv: Vec<bool>,
}

impl Dataflow for Forwarder {
    type Fact = ConstLattice<i64>;
    type CommFact = ConstLattice<i64>;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn top(&self) -> Self::Fact {
        ConstLattice::Top
    }

    fn boundary(&self) -> Self::Fact {
        ConstLattice::Const(7)
    }

    fn meet_into(&self, dst: &mut Self::Fact, src: &Self::Fact) -> bool {
        dst.meet_with(src)
    }

    fn transfer(&self, node: NodeId, input: &Self::Fact, comm: &[Self::CommFact]) -> Self::Fact {
        if self.recv[node.index()] {
            let mut v = ConstLattice::Top;
            for c in comm {
                v.meet_with(c);
            }
            v
        } else {
            *input
        }
    }

    fn comm_transfer(&self, _node: NodeId, input: &Self::Fact) -> Self::CommFact {
        *input
    }
}

fn forwarder(n: usize) -> Forwarder {
    Forwarder {
        recv: vec![false; n],
    }
}

#[test]
fn long_chain_converges_in_constant_passes_with_rpo() {
    // RPO visits a chain front-to-back: one productive pass + one check.
    for n in [10usize, 100, 1000] {
        let mut g = SimpleGraph::new(n);
        for i in 0..n - 1 {
            g.flow(i as u32, i as u32 + 1);
        }
        g.set_entry(0);
        g.set_exit(n as u32 - 1);
        let sol = Solver::new(&forwarder(n), &g)
            .strategy(Strategy::RoundRobin)
            .run();
        assert_eq!(sol.output[n - 1], ConstLattice::Const(7));
        assert!(
            sol.stats.passes <= 2,
            "chain of {n}: {} passes",
            sol.stats.passes
        );
    }
}

#[test]
fn nested_loops_take_passes_proportional_to_depth() {
    // k nested loops: depth k; the fixpoint needs O(k) passes at most —
    // here facts stabilize immediately, so the bound is loose but the
    // solver must not blow up.
    let k = 20;
    let n = 2 * k + 2;
    let mut g = SimpleGraph::new(n);
    g.set_entry(0);
    g.set_exit(n as u32 - 1);
    for i in 0..n - 1 {
        g.flow(i as u32, i as u32 + 1);
    }
    for d in 0..k {
        // back edge from node (n-2-d) to node (1+d): nested loop nest.
        g.flow((n - 2 - d) as u32, (1 + d) as u32);
    }
    let sol = Solver::new(&forwarder(n), &g)
        .strategy(Strategy::RoundRobin)
        .run();
    assert!(sol.stats.converged);
    assert_eq!(sol.output[n - 1], ConstLattice::Const(7));
    assert!(
        sol.stats.passes <= k + 2,
        "{} passes for depth {k}",
        sol.stats.passes
    );
}

#[test]
fn comm_edge_chain_adds_one_pass_per_hop_at_worst() {
    // A pipeline of P disconnected segments linked only by comm edges:
    // send_i --comm--> recv_{i+1}. The constant must hop across all of
    // them; each hop can cost a pass because comm facts read the *input*
    // of the source node.
    let p = 10usize;
    let n = 2 * p;
    let mut g = SimpleGraph::new(n);
    let mut problem = forwarder(n);
    for i in 0..p {
        g.flow(2 * i as u32, 2 * i as u32 + 1); // segment: in -> out
        if i + 1 < p {
            g.comm(2 * i as u32 + 1, 2 * (i + 1) as u32, i as u32);
            problem.recv[2 * (i + 1)] = true;
        }
    }
    g.set_entry(0);
    g.set_exit(n as u32 - 1);
    let sol = Solver::new(&problem, &g)
        .strategy(Strategy::RoundRobin)
        .run();
    assert_eq!(
        sol.output[n - 1],
        ConstLattice::Const(7),
        "constant crossed {p} hops"
    );
    assert!(sol.stats.converged);
    assert!(
        sol.stats.passes <= p + 2,
        "{} passes for {p} comm hops (depth-proportional, not worst-case)",
        sol.stats.passes
    );
    // The region engine agrees: each send/recv pair is its own region
    // here, chained by comm edges in topological order.
    let rg = Solver::new(&problem, &g).strategy(Strategy::Region).run();
    assert_eq!(rg.output, sol.output);
    assert_eq!(rg.input, sol.input);
}

#[test]
fn irreducible_comm_cycle_converges() {
    // Two segments that send to each other: the comm edges form a cycle
    // that no control-flow path closes — the irreducibility Section 4.2
    // warns makes depth NP-hard to compute. Convergence must still happen.
    let mut g = SimpleGraph::new(4);
    g.flow(0, 1);
    g.flow(2, 3);
    g.comm(1, 2, 0);
    g.comm(3, 0, 1); // closes the cycle (node 0 ignores its comm fact)
    g.set_entry(0);
    g.set_entry(2);
    g.set_exit(1);
    g.set_exit(3);
    let mut problem = forwarder(4);
    problem.recv[2] = true;
    let sol = Solver::new(&problem, &g)
        .strategy(Strategy::RoundRobin)
        .run();
    assert!(sol.stats.converged);
    // The boundary constant enters at 0, flows to 1, hops the comm edge
    // into the second segment, and reaches 3 despite the graph-level cycle.
    assert_eq!(sol.output[3], ConstLattice::Const(7));
    // The comm cycle condenses into a single region, which the region
    // engine solves to the same fixpoint.
    let rg = Solver::new(&problem, &g).strategy(Strategy::Region).run();
    assert!(rg.stats.converged);
    assert_eq!(rg.output, sol.output);
    assert_eq!(rg.input, sol.input);
}

#[test]
fn wide_fanout_meets_cleanly() {
    // One source fanning out to many receivers, all meeting in one sink:
    // the meet over hundreds of identical constants stays Const.
    let width = 300usize;
    let n = width + 2;
    let mut g = SimpleGraph::new(n);
    g.set_entry(0);
    g.set_exit(n as u32 - 1);
    for i in 0..width {
        g.flow(0, 1 + i as u32);
        g.flow(1 + i as u32, n as u32 - 1);
    }
    let sol = Solver::new(&forwarder(n), &g)
        .strategy(Strategy::RoundRobin)
        .run();
    assert_eq!(sol.output[n - 1], ConstLattice::Const(7));
    assert!(sol.stats.passes <= 2);
}

#[test]
fn conflicting_comm_sources_meet_to_bottom() {
    // Two senders with different constants reaching one receiver: the
    // communication meet (⊓ over commpred) must go to ⊥, not pick one.
    struct TwoConsts;
    impl Dataflow for TwoConsts {
        type Fact = ConstLattice<i64>;
        type CommFact = ConstLattice<i64>;
        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn top(&self) -> Self::Fact {
            ConstLattice::Top
        }
        fn boundary(&self) -> Self::Fact {
            ConstLattice::Top
        }
        fn meet_into(&self, dst: &mut Self::Fact, src: &Self::Fact) -> bool {
            dst.meet_with(src)
        }
        fn transfer(
            &self,
            node: NodeId,
            input: &Self::Fact,
            comm: &[Self::CommFact],
        ) -> Self::Fact {
            match node.0 {
                0 => ConstLattice::Const(1),
                1 => ConstLattice::Const(2),
                2 => {
                    let mut v = ConstLattice::Top;
                    for c in comm {
                        v.meet_with(c);
                    }
                    v
                }
                _ => *input,
            }
        }
        fn comm_transfer(&self, node: NodeId, _input: &Self::Fact) -> Self::CommFact {
            // Senders transmit their generated constants.
            match node.0 {
                0 => ConstLattice::Const(1),
                1 => ConstLattice::Const(2),
                _ => ConstLattice::Top,
            }
        }
    }
    let mut g = SimpleGraph::new(3);
    g.comm(0, 2, 0);
    g.comm(1, 2, 1);
    g.set_entry(0);
    g.set_entry(1);
    g.set_exit(2);
    let sol = Solver::new(&TwoConsts, &g)
        .strategy(Strategy::RoundRobin)
        .run();
    assert!(sol.output[2].is_bottom(), "1 ⊓ 2 over commpred = ⊥");
}

#[test]
fn call_edges_and_comm_edges_interleave() {
    // fact crosses: entry -> call -> [callee with a send] ... comm ...
    // [other segment recv] — exercising translate + comm in one graph.
    struct Inc;
    impl Dataflow for Inc {
        type Fact = ConstLattice<i64>;
        type CommFact = ConstLattice<i64>;
        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn top(&self) -> Self::Fact {
            ConstLattice::Top
        }
        fn boundary(&self) -> Self::Fact {
            ConstLattice::Const(10)
        }
        fn meet_into(&self, dst: &mut Self::Fact, src: &Self::Fact) -> bool {
            dst.meet_with(src)
        }
        fn transfer(
            &self,
            node: NodeId,
            input: &Self::Fact,
            comm: &[Self::CommFact],
        ) -> Self::Fact {
            if node.0 == 3 {
                let mut v = ConstLattice::Top;
                for c in comm {
                    v.meet_with(c);
                }
                v
            } else {
                *input
            }
        }
        fn comm_transfer(&self, _n: NodeId, input: &Self::Fact) -> Self::CommFact {
            *input
        }
        fn translate(&self, edge: &mpi_dfa_core::Edge, fact: &Self::Fact) -> Option<Self::Fact> {
            match (edge.kind, fact) {
                (EdgeKind::Call { .. }, ConstLattice::Const(c)) => Some(ConstLattice::Const(c + 1)),
                _ => None,
            }
        }
    }
    // 0 -call-> 1 (callee, sends) ... comm ... 3 (recv)
    let mut g = SimpleGraph::new(4);
    g.add_edge(0, 1, EdgeKind::Call { site: 0 });
    g.flow(2, 3);
    g.comm(1, 3, 0);
    g.set_entry(0);
    g.set_entry(2);
    g.set_exit(3);
    let sol = Solver::new(&Inc, &g).strategy(Strategy::RoundRobin).run();
    // 10 at entry, +1 across the call edge, sent over the comm edge.
    assert_eq!(sol.output[3], ConstLattice::Const(11));
}
