//! Live-variable analysis — a *separable* (bit-vector) control.
//!
//! The paper (Section 1) argues that separable analyses such as liveness do
//! not need the communication-edge machinery: a receive *defines* the
//! received variable locally, and no liveness information flows between
//! processes. This module implements interprocedural liveness over the ICFG
//! and is also run over the MPI-ICFG in tests to demonstrate that the
//! communication edges change nothing for it (the problem simply ignores
//! them).

use crate::interproc::{call_backward, return_backward, BindMaps, UseSelector};
use mpi_dfa_core::graph::{Edge, EdgeKind, FlowGraph, NodeId};
use mpi_dfa_core::problem::{Dataflow, Direction};
use mpi_dfa_core::solver::{Solution, Solver};
use mpi_dfa_core::varset::VarSet;
use mpi_dfa_graph::icfg::Icfg;
use mpi_dfa_graph::node::{MpiKind, NodeKind, RefInfo};

/// The liveness problem: backward, union meet, every use (including array
/// subscripts and branch conditions) generates liveness.
pub struct Liveness<'g> {
    icfg: &'g Icfg,
    maps: BindMaps,
    universe: usize,
}

impl<'g> Liveness<'g> {
    pub fn new(icfg: &'g Icfg) -> Self {
        Liveness {
            icfg,
            maps: BindMaps::build(icfg),
            universe: icfg.ir.locs.len(),
        }
    }
}

fn kill(set: &mut VarSet, r: &RefInfo) {
    if r.is_strong_def() {
        set.remove(r.loc.index());
    }
}

fn gen_indices(set: &mut VarSet, r: &RefInfo) {
    for &l in &r.index_uses {
        set.insert(l.index());
    }
}

impl Dataflow for Liveness<'_> {
    type Fact = VarSet;
    type CommFact = ();

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn top(&self) -> VarSet {
        VarSet::empty(self.universe)
    }

    fn boundary(&self) -> VarSet {
        // Globals are observable after the context routine returns.
        let mut s = VarSet::empty(self.universe);
        for (loc, info) in self.icfg.ir.locs.iter() {
            if info.proc.is_none() {
                s.insert(loc.index());
            }
        }
        s
    }

    fn meet_into(&self, dst: &mut VarSet, src: &VarSet) -> bool {
        dst.union_into(src)
    }

    fn transfer(&self, node: NodeId, out: &VarSet, _comm: &[()]) -> VarSet {
        let mut live = out.clone();
        match &self.icfg.payload(node).kind {
            NodeKind::Assign { lhs, rhs } => {
                let needed = out.contains(lhs.loc.index());
                kill(&mut live, lhs);
                gen_indices(&mut live, lhs);
                if needed || !lhs.is_strong_def() {
                    UseSelector::All.insert_uses(rhs, &mut live);
                }
            }
            NodeKind::Branch { cond } => UseSelector::All.insert_uses(cond, &mut live),
            NodeKind::Print { value } => UseSelector::All.insert_uses(value, &mut live),
            NodeKind::Read { target } => {
                kill(&mut live, target);
                gen_indices(&mut live, target);
            }
            NodeKind::Mpi(m) => {
                // A receive defines the buffer (kill); a send uses it (gen).
                // No information crosses the communication edge: separable.
                if m.kind.receives_data() {
                    if let Some(buf) = &m.buf {
                        match m.kind {
                            MpiKind::Recv | MpiKind::Irecv | MpiKind::Allreduce => {
                                kill(&mut live, buf)
                            }
                            _ => {} // bcast/reduce roots keep their buffer
                        }
                        gen_indices(&mut live, buf);
                    }
                }
                if m.kind.sends_data() {
                    match m.kind {
                        MpiKind::Reduce | MpiKind::Allreduce => {
                            if let Some(v) = &m.value {
                                UseSelector::All.insert_uses(v, &mut live);
                            }
                        }
                        _ => {
                            if let Some(buf) = &m.buf {
                                live.insert(buf.loc.index());
                            }
                        }
                    }
                }
                for me in [&m.peer, &m.tag, &m.root, &m.comm].into_iter().flatten() {
                    for &l in &me.uses {
                        live.insert(l.index());
                    }
                }
            }
            _ => {}
        }
        live
    }

    fn comm_transfer(&self, _node: NodeId, _input: &VarSet) {}

    fn translate(&self, edge: &Edge, fact: &VarSet) -> Option<VarSet> {
        match edge.kind {
            EdgeKind::Return { site } => Some(return_backward(self.icfg, &self.maps, site, fact)),
            EdgeKind::Call { site } => Some(call_backward(
                self.icfg,
                &self.maps,
                site,
                fact,
                UseSelector::All,
            )),
            _ => None,
        }
    }
}

/// Solve liveness over any graph built from `icfg` (the plain ICFG or the
/// MPI-ICFG — the result is identical because the problem is separable).
pub fn analyze<G: FlowGraph>(graph: &G, icfg: &Icfg) -> Solution<VarSet> {
    Solver::new(&Liveness::new(icfg), graph).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_dfa_graph::icfg::ProgramIr;
    use mpi_dfa_graph::mpi::{MpiIcfg, SyntacticConsts};

    fn live_at_entry(src: &str) -> Vec<String> {
        let ir = ProgramIr::from_source(src).unwrap();
        let icfg = Icfg::build(ir, "main", 0).unwrap();
        let sol = analyze(&icfg, &icfg);
        let entry = icfg.context_entry();
        sol.before(entry)
            .iter()
            .map(|i| {
                icfg.ir
                    .locs
                    .info(mpi_dfa_graph::loc::Loc(i as u32))
                    .name
                    .clone()
            })
            .collect()
    }

    #[test]
    fn straight_line_liveness() {
        let live = live_at_entry(
            "program p global a: real; global b: real;\n\
             sub main() { a = b + 1.0; }",
        );
        assert!(live.contains(&"b".to_string()));
        // `a` is overwritten before any use: dead at entry.
        assert!(!live.contains(&"a".to_string()));
    }

    #[test]
    fn branch_condition_generates_liveness() {
        let live = live_at_entry(
            "program p global c: int; global a: real;\n\
             sub main() { if (c > 0) { a = 1.0; } }",
        );
        assert!(live.contains(&"c".to_string()));
    }

    #[test]
    fn recv_kills_send_gens() {
        let live = live_at_entry(
            "program p global s: real; global r: real;\n\
             sub main() { if (rank() == 0) { send(s, 1, 1); } else { recv(r, 0, 1); } }",
        );
        assert!(live.contains(&"s".to_string()), "sent buffer is used");
        // r is killed on the recv path but live at exit via the then-path
        // (globals are observable), so it remains live at entry.
        assert!(live.contains(&"r".to_string()));
    }

    #[test]
    fn local_dead_at_exit() {
        let ir = ProgramIr::from_source(
            "program p global g: real;\n\
             sub main() { var t: real; t = g * 2.0; g = t + 1.0; g = 5.0; }",
        )
        .unwrap();
        let icfg = Icfg::build(ir, "main", 0).unwrap();
        let sol = analyze(&icfg, &icfg);
        let t = icfg.resolve_at(icfg.context_exit(), "t").unwrap();
        assert!(!sol.before(icfg.context_exit()).contains(t.index()));
    }

    #[test]
    fn comm_edges_do_not_change_liveness() {
        // The separability claim: identical solutions on ICFG and MPI-ICFG.
        let src = "program p global s: real; global r: real; global x: real;\n\
             sub main() {\n\
               x = s * 2.0;\n\
               if (rank() == 0) { send(x, 1, 1); } else { recv(r, 0, 1); }\n\
               bcast(r, 0); allreduce(SUM, r, x);\n\
             }";
        let ir = ProgramIr::from_source(src).unwrap();
        let icfg = Icfg::build(ir.clone(), "main", 0).unwrap();
        let plain = analyze(&icfg, &icfg);
        let mpi = MpiIcfg::build(Icfg::build(ir, "main", 0).unwrap(), &SyntacticConsts);
        let with_comm = analyze(&mpi, mpi.icfg());
        assert!(!mpi.comm_edges.is_empty());
        assert_eq!(plain.input, with_comm.input);
        assert_eq!(plain.output, with_comm.output);
    }

    #[test]
    fn match_arguments_are_live() {
        let live = live_at_entry(
            "program p global s: real; global d: int; global t: int;\n\
             sub main() { send(s, d, t); }",
        );
        assert!(live.contains(&"d".to_string()));
        assert!(live.contains(&"t".to_string()));
    }

    #[test]
    fn interprocedural_liveness_through_calls() {
        let ir = ProgramIr::from_source(
            "program p global g: real;\n\
             sub use_it(v: real) { g = v * 2.0; }\n\
             sub main() { var t: real; t = 1.0; call use_it(t); }",
        )
        .unwrap();
        let icfg = Icfg::build(ir, "main", 0).unwrap();
        let sol = analyze(&icfg, &icfg);
        // t is live right after its definition (it flows into the call).
        let t = icfg.resolve_at(icfg.context_entry(), "t").unwrap();
        let def_node = icfg
            .nodes()
            .find(
                |&n| matches!(&icfg.payload(n).kind, NodeKind::Assign { lhs, .. } if lhs.loc == t),
            )
            .unwrap();
        assert!(sol.after(def_node).contains(t.index()));
    }
}
