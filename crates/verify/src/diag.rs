//! The diagnostic framework: structured findings with stable codes,
//! severities, spans, and an aggregating [`Report`].
//!
//! Code ranges (stable, referenced by tests and docs):
//!
//! | range  | area                                        |
//! |--------|---------------------------------------------|
//! | RV00xx | graph structural validity (wraps `ir::validate`) |
//! | RV01xx | schedule coverage / partition invariants    |
//! | RV02xx | cycle analysis (schedule graph, quotient)   |
//! | RV03xx | intra-worker ordering                       |
//! | RV04xx | channel deadlock (abstract execution)       |
//! | RV05xx | shape/dtype abstract interpretation         |
//! | RV06xx | advisory lints (missed optimizations)       |
//! | RA01xx | lifetime / aliasing lints                   |
//! | RA02xx | memory estimation lints                     |
//! | RA04xx | channel capacity / backpressure             |

use ramiel_ir::NodeId;
use std::fmt;

/// Stable diagnostic codes. Tests match on these; never renumber.
pub mod codes {
    /// `ir::validate` rejected the graph.
    pub const GRAPH_INVALID: &str = "RV0001";
    /// An operator carries a degenerate static attribute (zero stride,
    /// zero kernel extent, zero groups) — `IrError::Attr` surfaced with a
    /// node span instead of the generic RV0001.
    pub const ATTR_INVALID: &str = "RV0002";
    /// A (batch, node) instance is missing from every worker.
    pub const OP_MISSING: &str = "RV0101";
    /// A (batch, node) instance appears on more than one worker (or twice).
    pub const OP_DUPLICATE: &str = "RV0102";
    /// A schedule entry references an unknown node id or out-of-range batch.
    pub const OP_UNKNOWN: &str = "RV0103";
    /// A worker has an empty op list (harmless but wasteful).
    pub const WORKER_EMPTY: &str = "RV0104";
    /// The schedule graph (dependence ∪ program order) has a cycle: the
    /// in-order replay is guaranteed to deadlock.
    pub const SCHEDULE_CYCLE: &str = "RV0201";
    /// The cluster-quotient graph has a cycle even though the schedule
    /// graph is acyclic. Execution still makes progress, but messages
    /// ping-pong between the workers involved.
    pub const QUOTIENT_CYCLE: &str = "RV0202";
    /// A worker's op list orders a consumer before its same-worker producer.
    pub const ORDER_VIOLATION: &str = "RV0301";
    /// Abstract channel execution stalled: a worker blocks forever on a recv.
    pub const CHANNEL_DEADLOCK: &str = "RV0401";
    /// Shape inference failed at a node (root cause only; downstream
    /// failures caused by the same unknown tensor are suppressed).
    pub const SHAPE_UNKNOWN: &str = "RV0501";
    /// Inferred shape/dtype contradicts the shape/dtype recorded in
    /// `value_info`.
    pub const SHAPE_CONFLICT: &str = "RV0502";
    /// Constant subgraphs left unfolded (run the prune pipeline).
    pub const LINT_FOLDABLE_CONST: &str = "RV0601";
    // RV0602 (Conv → BatchNormalization left unfused) is retired with the
    // fold pass it advised; the number stays unused.
    /// Cheap fan-out node feeding other workers (task cloning would remove
    /// the cross-worker messages).
    pub const LINT_CLONE_CANDIDATE: &str = "RV0603";
    /// A produced tensor no scheduled op (and no graph output) ever reads.
    pub const DEAD_VALUE: &str = "RA0101";
    /// An alias op (reshape family) is scheduled on a different worker than
    /// its input's producer: the "zero-copy" view crosses a channel.
    pub const ALIAS_CROSS_WORKER: &str = "RA0102";
    /// One worker's peak resident set dominates the schedule (memory
    /// imbalance hotspot).
    pub const MEM_HOTSPOT: &str = "RA0201";
    /// Worst-case in-flight messages into one worker can reach the bounded
    /// channel capacity (`ramiel_ir::runtime_model::DATA_CHANNEL_CAPACITY`);
    /// escalated to an error when that worker also sits on a cyclic
    /// worker-to-worker dependence loop, which is the backpressure-deadlock
    /// shape.
    pub const CAPACITY_EXCEEDED: &str = "RA0401";
}

/// How bad a finding is. Ordering: `Advice < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Missed-optimization hint; never fails a check.
    Advice,
    /// Suspicious but not unsound; fails `ramiel check --deny-warnings`.
    Warning,
    /// Unsound graph or schedule; always fails `ramiel check`.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Advice => write!(f, "advice"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Where in the (graph, schedule) pair a finding points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Span {
    /// The graph as a whole.
    Graph,
    /// One graph node.
    Node { id: NodeId, name: String },
    /// One named tensor.
    Tensor { name: String },
    /// One worker's entire op list.
    Worker { worker: usize },
    /// One scheduled op instance on one worker.
    Op {
        worker: usize,
        batch: usize,
        node: NodeId,
        name: String,
    },
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Span::Graph => write!(f, "graph"),
            Span::Node { id, name } => write!(f, "node `{name}` (#{id})"),
            Span::Tensor { name } => write!(f, "tensor `{name}`"),
            Span::Worker { worker } => write!(f, "worker {worker}"),
            Span::Op {
                worker,
                batch,
                node,
                name,
            } => write!(f, "worker {worker}, op `{name}` (#{node}, batch {batch})"),
        }
    }
}

/// One structured finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code from [`codes`].
    pub code: &'static str,
    pub severity: Severity,
    pub span: Span,
    pub message: String,
    /// Actionable fix, if one exists (`run `ramiel run --prune` …`).
    pub suggestion: Option<String>,
}

impl Diagnostic {
    pub fn error(code: &'static str, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            span,
            message: message.into(),
            suggestion: None,
        }
    }

    pub fn warning(code: &'static str, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            span,
            message: message.into(),
            suggestion: None,
        }
    }

    pub fn advice(code: &'static str, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Advice,
            span,
            message: message.into(),
            suggestion: None,
        }
    }

    pub fn with_suggestion(mut self, suggestion: impl Into<String>) -> Self {
        self.suggestion = Some(suggestion.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.severity, self.code, self.span, self.message
        )?;
        if let Some(s) = &self.suggestion {
            write!(f, "\n    suggestion: {s}")?;
        }
        Ok(())
    }
}

/// The aggregated outcome of a verification run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    pub fn new(mut diagnostics: Vec<Diagnostic>) -> Self {
        // Errors first, then warnings, then advice; stable within a class.
        diagnostics.sort_by_key(|d| std::cmp::Reverse(d.severity));
        Report { diagnostics }
    }

    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// True if this report should fail `ramiel check`.
    pub fn fails(&self, deny_warnings: bool) -> bool {
        self.has_errors() || (deny_warnings && self.count(Severity::Warning) > 0)
    }

    /// Human-readable multi-line rendering (one finding per paragraph, plus
    /// a summary line).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} advice",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Advice)
        ));
        out
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_ordering() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Advice);
    }

    #[test]
    fn report_sorts_and_counts() {
        let r = Report::new(vec![
            Diagnostic::advice(codes::LINT_FOLDABLE_CONST, Span::Graph, "fold me"),
            Diagnostic::error(codes::SCHEDULE_CYCLE, Span::Graph, "cycle"),
            Diagnostic::warning(codes::QUOTIENT_CYCLE, Span::Graph, "quotient"),
        ]);
        assert_eq!(r.diagnostics[0].severity, Severity::Error);
        assert_eq!(r.diagnostics[2].severity, Severity::Advice);
        assert!(r.has_errors());
        assert!(r.fails(false));
        assert_eq!(r.count(Severity::Warning), 1);
    }

    #[test]
    fn deny_warnings_gates_failure() {
        let warn_only = Report::new(vec![Diagnostic::warning(
            codes::SHAPE_UNKNOWN,
            Span::Graph,
            "?",
        )]);
        assert!(!warn_only.fails(false));
        assert!(warn_only.fails(true));
        let advice_only = Report::new(vec![Diagnostic::advice(
            codes::LINT_FOLDABLE_CONST,
            Span::Graph,
            "?",
        )]);
        assert!(!advice_only.fails(true));
    }

    #[test]
    fn render_mentions_code_and_suggestion() {
        let r = Report::new(vec![Diagnostic::error(
            codes::CHANNEL_DEADLOCK,
            Span::Worker { worker: 2 },
            "stuck",
        )
        .with_suggestion("reorder the cluster")]);
        let s = r.render();
        assert!(s.contains("RV0401"));
        assert!(s.contains("worker 2"));
        assert!(s.contains("suggestion: reorder"));
        assert!(s.contains("1 error(s)"));
    }
}
