//! # ramiel-verify
//!
//! Static verifier for `(graph, schedule)` pairs: proves — before anything
//! runs — that a clustering is a sound partition, that its replay cannot
//! deadlock on the runtime's channels, and that the IR's shape metadata is
//! honest; plus an advisory lint layer for pipeline stages left unapplied.
//!
//! The crate deliberately depends only on `ramiel-ir`. Schedules arrive as
//! a neutral [`ScheduleView`]; `ramiel-cluster` supplies the conversions
//! from its `Clustering` / `HyperClustering` types, which lets the
//! clustering and pass crates call back into the verifier as a
//! debug-assertion harness without a dependency cycle.
//!
//! Entry points:
//! - [`verify_graph`] — graph-only checks: `ir::validate` (RV0001, with
//!   degenerate operator attributes split out as RV0002), abstract shape
//!   interpretation (RV05xx), graph lints (RV0601/RV0602).
//! - [`verify_schedule`] — schedule checks against a graph: coverage
//!   (RV01xx), cycle analysis (RV02xx), in-order soundness (RV0301),
//!   abstract channel execution (RV0401), schedule lints (RV0603).
//! - [`verify`] — both, aggregated into a [`Report`].
//! - [`assert_graph_invariants`] / [`assert_schedule_invariants`] — the
//!   debug-assertion harness: panic with a rendered report on any error.

pub mod diag;
pub mod schedule;

mod coverage;
mod cycles;
mod exec;
mod lints;
mod order;
mod shapes;

pub use diag::{codes, Diagnostic, Report, Severity, Span};
pub use schedule::{ExecPolicy, Op, ScheduleView};

use ramiel_ir::graph::Adjacency;
use ramiel_ir::{Graph, NodeId};

/// Graph-only verification: structural validity, shape/dtype abstract
/// interpretation, and graph-level lints.
pub fn verify_graph(graph: &Graph) -> Vec<Diagnostic> {
    graph_findings(graph, &graph.adjacency())
}

/// [`verify_graph`] over an adjacency the caller already built: one
/// validation, one topological sort and one shape walk feed every check.
fn graph_findings(graph: &Graph, adj: &Adjacency<'_>) -> Vec<Diagnostic> {
    let order = match ramiel_ir::validate::validate_with(graph, adj) {
        Ok(order) => order,
        // Structurally broken graphs make the remaining analyses
        // meaningless; report the root cause alone.
        Err(e) => return vec![invalid_graph(graph, &e)],
    };
    let mut diags = shapes::check_shapes(graph, adj, &order);
    diags.extend(graph_lints(graph, adj, &order));
    diags
}

fn graph_lints(graph: &Graph, adj: &Adjacency<'_>, order: &[NodeId]) -> Vec<Diagnostic> {
    let mut diags = lints::lint_foldable_consts(graph, adj, order);
    diags.extend(lints::lint_unfused_bn(graph, adj));
    diags
}

fn invalid_graph(graph: &Graph, e: &ramiel_ir::IrError) -> Diagnostic {
    match e {
        // Attribute findings get their own code and a node span so
        // `ramiel check` points at the offending operator.
        ramiel_ir::IrError::Attr { node, reason } => {
            let span = graph
                .nodes
                .iter()
                .find(|n| &n.name == node)
                .map(|n| Span::Node {
                    id: n.id,
                    name: n.name.clone(),
                })
                .unwrap_or(Span::Graph);
            Diagnostic::error(codes::ATTR_INVALID, span, reason.clone())
        }
        _ => Diagnostic::error(
            codes::GRAPH_INVALID,
            Span::Graph,
            format!("ir::validate failed: {e}"),
        ),
    }
}

/// What [`verify_graph`] can still find on a graph its caller has just put
/// through `ir::validate::validate_with` (which returned `order` for `adj`)
/// and whose `value_info` is the output of `ir::shape::infer_in_order` on
/// that same pair: the graph lints. RV0001/RV0002 cannot fire on a graph
/// that validated, and RV05xx compares the recorded shapes with a fresh
/// inference — which here would be the walk that recorded them. Debug
/// builds re-run that walk and assert it is clean.
pub fn lint_validated_graph(
    graph: &Graph,
    adj: &Adjacency<'_>,
    order: &[NodeId],
) -> Vec<Diagnostic> {
    debug_assert!(
        shapes::check_shapes(graph, adj, order).is_empty(),
        "value_info of `{}` is not what shape inference derives",
        graph.name
    );
    graph_lints(graph, adj, order)
}

/// Schedule verification against `graph`. Assumes nothing about the
/// schedule: coverage errors gate the deeper analyses (cycles, ordering,
/// abstract execution) because those assume every dependence resolves to a
/// scheduled instance.
pub fn verify_schedule(graph: &Graph, view: &ScheduleView) -> Vec<Diagnostic> {
    schedule_findings(graph, &graph.adjacency(), view)
}

fn schedule_findings(graph: &Graph, adj: &Adjacency<'_>, view: &ScheduleView) -> Vec<Diagnostic> {
    let mut diags = coverage::check_coverage(graph, view);
    if diags.iter().any(|d| d.severity == Severity::Error) {
        return diags;
    }
    diags.extend(cycles::check_cycles(graph, adj, view));
    diags.extend(order::check_order(graph, adj, view));
    diags.extend(exec::check_execution(graph, adj, view));
    diags.extend(lints::lint_clone_candidates(graph, adj, view));
    diags
}

/// Full verification of a graph and (optionally) a schedule for it.
pub fn verify(graph: &Graph, view: Option<&ScheduleView>) -> Report {
    verify_with(graph, &graph.adjacency(), view)
}

/// [`verify`] over an adjacency snapshot of `graph` the caller already holds.
fn verify_with(graph: &Graph, adj: &Adjacency<'_>, view: Option<&ScheduleView>) -> Report {
    let mut diags = graph_findings(graph, adj);
    if let Some(v) = view {
        // Schedule checks only make sense against a structurally valid graph.
        if !diags.iter().any(|d| d.code == codes::GRAPH_INVALID) {
            diags.extend(schedule_findings(graph, adj, v));
        }
    }
    Report::new(diags)
}

/// Debug-assertion harness: panic with the rendered report if the graph has
/// any error-severity finding. `stage` names the pipeline point for the
/// panic message (e.g. `"after constant_fold"`).
pub fn assert_graph_invariants(graph: &Graph, stage: &str) {
    let report = Report::new(verify_graph(graph));
    if report.has_errors() {
        panic!(
            "graph invariants violated {stage} (graph `{}`):\n{}",
            graph.name,
            report.render()
        );
    }
}

/// Debug-assertion harness for schedules: panic with the rendered report if
/// the `(graph, schedule)` pair has any error-severity finding.
/// `adj` is a snapshot of `graph` the caller already holds.
pub fn assert_schedule_invariants(
    graph: &Graph,
    adj: &Adjacency<'_>,
    view: &ScheduleView,
    stage: &str,
) {
    let report = verify_with(graph, adj, Some(view));
    if report.has_errors() {
        panic!(
            "schedule invariants violated {stage} (graph `{}`):\n{}",
            graph.name,
            report.render()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ramiel_ir::{DType, GraphBuilder, OpKind};

    fn diamond() -> Graph {
        let mut b = GraphBuilder::new("d");
        let x = b.input("x", DType::F32, vec![4]);
        let a = b.op("a", OpKind::Relu, vec![x]);
        let p = b.op("p", OpKind::Relu, vec![a.clone()]);
        let q = b.op("q", OpKind::Relu, vec![a]);
        let j = b.op("j", OpKind::Add, vec![p, q]);
        b.output(&j);
        b.finish().unwrap()
    }

    #[test]
    fn valid_pair_verifies_error_free() {
        let g = diamond();
        let v = ScheduleView::single_batch(vec![vec![0, 1, 3], vec![2]], ExecPolicy::InOrder);
        let report = verify(&g, Some(&v));
        assert!(!report.has_errors(), "{}", report.render());
    }

    #[test]
    fn invalid_graph_short_circuits() {
        let mut g = diamond();
        g.nodes[1].inputs[0] = "ghost".into();
        let report = verify(&g, None);
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].code, codes::GRAPH_INVALID);
    }

    #[test]
    fn zero_stride_attr_reports_rv0002_with_node_span() {
        let mut b = GraphBuilder::new("bad-attrs");
        let x = b.input("x", DType::F32, vec![1, 3, 8, 8]);
        let w = b.input("w", DType::F32, vec![4, 3, 3, 3]);
        let c = b.op(
            "conv0",
            OpKind::Conv {
                kernel: (3, 3),
                stride: (0, 1),
                pads: (1, 1),
                groups: 1,
            },
            vec![x, w],
        );
        b.output(&c);
        // finish() itself validates, so take the graph without it
        let g = b.graph_mut().clone();
        let report = verify(&g, None);
        assert_eq!(report.diagnostics.len(), 1);
        let d = &report.diagnostics[0];
        assert_eq!(d.code, codes::ATTR_INVALID);
        assert!(matches!(&d.span, Span::Node { name, .. } if name.starts_with("conv0")));
        assert!(d.message.contains("stride"), "{}", d.message);
    }

    #[test]
    fn coverage_errors_gate_deeper_checks() {
        let g = diamond();
        // missing node 2 → only RV0101 family, no RV02xx/RV04xx noise
        let v = ScheduleView::single_batch(vec![vec![0, 1, 3]], ExecPolicy::InOrder);
        let diags = verify_schedule(&g, &v);
        assert!(diags.iter().all(|d| d.code == codes::OP_MISSING));
    }

    #[test]
    fn harness_panics_on_corrupt_schedule() {
        let g = diamond();
        let bad = ScheduleView::single_batch(vec![vec![0, 3, 1], vec![2]], ExecPolicy::InOrder);
        let err = std::panic::catch_unwind(|| {
            assert_schedule_invariants(&g, &g.adjacency(), &bad, "in test");
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("RV0401"), "{msg}");
    }

    #[test]
    fn harness_accepts_valid_pair() {
        let g = diamond();
        let v = ScheduleView::single_batch(vec![vec![0, 1, 2, 3]], ExecPolicy::InOrder);
        assert_graph_invariants(&g, "in test");
        assert_schedule_invariants(&g, &g.adjacency(), &v, "in test");
    }
}
