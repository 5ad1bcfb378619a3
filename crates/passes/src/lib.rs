//! # ramiel-passes
//!
//! Graph transformation passes from the paper:
//!
//! - [`constfold`] — constant propagation & folding (the paper delegates
//!   this to onnxruntime; we implement it directly so the whole pipeline is
//!   self-contained). Folds `Shape`-of-static-tensor nodes and anything
//!   whose operands are all compile-time constants — the "horizontal branch
//!   reduction" of Section III-C.
//! - [`dce`] — dead-code elimination: drops nodes that cannot reach a graph
//!   output (mostly the husks const-folding leaves behind).
//! - [`identity`] — removes `Identity`/`Dropout` pass-throughs by rewiring.
//! - [`clone`] — task cloning (Section III-D): duplicates cheap fan-out
//!   nodes so consumers stop sharing a producer, cutting cross-cluster
//!   messages at the price of redundant compute.
//! - [`inplace`] — in-place buffer-reuse marking: flags ops whose input
//!   buffer is dead after use and uniquely consumed, so executors can
//!   overwrite it instead of allocating (honored via `Arc::get_mut`).
//!
//! All passes preserve observable behaviour; the test-suite checks
//! input/output equivalence by executing before/after graphs on random
//! inputs.

pub mod clone;
pub mod constfold;
pub mod dce;
pub mod identity;
pub mod inplace;

pub use clone::{clone_nodes, CloneConfig};
pub use constfold::constant_fold;
pub use dce::dead_code_elimination;
pub use identity::eliminate_identities;
pub use inplace::{inplace_marks, inplace_marks_with, InPlaceMarks};

use ramiel_ir::Graph;

/// What a pass did to the graph.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassReport {
    pub nodes_removed: usize,
    pub nodes_added: usize,
    pub changed: bool,
}

impl PassReport {
    pub fn merge(self, other: PassReport) -> PassReport {
        PassReport {
            nodes_removed: self.nodes_removed + other.nodes_removed,
            nodes_added: self.nodes_added + other.nodes_added,
            changed: self.changed || other.changed,
        }
    }
}

/// Debug-build harness: re-verify graph invariants (`ir::validate`, shape
/// metadata honesty) at a pipeline point; release builds compile it away.
#[inline]
pub(crate) fn debug_verify(graph: &Graph, stage: &str) {
    #[cfg(debug_assertions)]
    ramiel_verify::assert_graph_invariants(graph, stage);
    #[cfg(not(debug_assertions))]
    {
        let _ = (graph, stage);
    }
}

/// The paper's pruning pipeline: constant propagation followed by DCE and
/// identity elimination, iterated to a fixed point (each fold can expose
/// more folds, exactly like onnxruntime's graph-optimization loop).
///
/// Debug builds re-verify graph invariants before the loop and after every
/// sub-pass, so a pass that corrupts the graph panics at the stage that
/// broke it instead of failing far downstream.
pub fn prune(graph: &mut Graph) -> ramiel_ir::Result<PassReport> {
    debug_verify(graph, "before prune");
    let mut total = PassReport::default();
    loop {
        let mut round = PassReport::default();
        round = round.merge(constant_fold(graph)?);
        debug_verify(graph, "after constant_fold");
        round = round.merge(dead_code_elimination(graph)?);
        debug_verify(graph, "after dead_code_elimination");
        round = round.merge(eliminate_identities(graph)?);
        debug_verify(graph, "after eliminate_identities");
        total = total.merge(round);
        if !round.changed {
            return Ok(total);
        }
    }
}
