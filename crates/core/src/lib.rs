//! # ramiel
//!
//! End-to-end facade for the **Ramiel** pipeline (Fig. 10 of the paper):
//!
//! ```text
//! model ─▶ [prune: const-prop + DCE] ─▶ [cloning] ─▶ distance pass
//!       ─▶ Linear Clustering ─▶ cluster merging ─▶ [hyperclustering]   schedule
//!       ─▶ parallel + sequential PyTorch/Python codegen                 emit
//! ```
//!
//! [`schedule`] runs the pipeline up to the schedule and returns a
//! [`ScheduledModel`]: the optimized graph, the clustering, the optional
//! hyperclustering and per-stage statistics. That is the one result of the
//! pipeline; [`ScheduledModel::emit`] is its last stage and generates the
//! Python modules from it. [`prepare`] is [`schedule`] plus the runtime
//! initializer table: what every verb that executes a model wants, none of
//! which reads the Python text. The distance pass, clustering, merging and
//! the [`PipelineReport`] are [`ramiel_cluster::schedule_stage`], which
//! `serve`'s plan build runs too.
//!
//! # Quickstart
//!
//! ```
//! use ramiel::obs::Obs;
//! use ramiel::{schedule, PipelineOptions};
//! use ramiel_models::{build, ModelKind, ModelConfig};
//!
//! let graph = build(ModelKind::Squeezenet, &ModelConfig::tiny());
//! let scheduled = schedule(graph, &PipelineOptions::default()).unwrap();
//! assert!(scheduled.clustering.num_clusters() >= 1);
//! println!("{}", scheduled.emit(&Obs::disabled()).parallel);
//! ```

pub use ramiel_cluster as cluster;
pub use ramiel_codegen as codegen;
pub use ramiel_ios as ios;
pub use ramiel_ir as ir;
pub use ramiel_models as models;
pub use ramiel_obs as obs;
pub use ramiel_passes as passes;
pub use ramiel_runtime as runtime;
pub use ramiel_tensor as tensor;
pub use ramiel_verify as verify;

pub mod diag;

use ramiel_cluster::cost::StaticCost;
use ramiel_cluster::hyper::HyperClustering;
use ramiel_cluster::{hypercluster, schedule_stage, switched_hypercluster, Clustering, Scheduled};
use ramiel_ir::Graph;
use ramiel_obs::Obs;
use ramiel_passes::CloneConfig;
use std::time::{Duration, Instant};

pub use ramiel_cluster::PipelineReport;

/// Hyperclustering mode for batch > 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HyperMode {
    /// Batch-1 clustering only.
    #[default]
    Off,
    /// Plain hyperclustering (Fig. 8).
    Plain,
    /// Switched hyperclustering (Fig. 9).
    Switched,
}

/// Pipeline configuration. Nodes are priced by the paper's static
/// per-operator weights ([`StaticCost`]) and partitioned by its Linear
/// Clustering + merging.
#[derive(Debug, Clone, Default)]
pub struct PipelineOptions {
    /// Run constant propagation + DCE before clustering (Section III-C).
    pub prune: bool,
    /// Run task cloning before clustering (Section III-D).
    pub cloning: Option<CloneConfig>,
    /// Inference batch size (enables hyperclustering when > 1).
    pub batch: usize,
    pub hyper: HyperMode,
    /// Observability sink: every stage (prune, cloning, distances,
    /// clustering, merging, hyperclustering) records a trace span carrying
    /// graph-size/cluster-count deltas in its args. The default sink is
    /// disabled and costs one branch per stage.
    pub obs: Obs,
}

impl PipelineOptions {
    /// Everything on, as in the paper's `S_Overall` column.
    pub fn all_optimizations() -> Self {
        PipelineOptions {
            prune: true,
            cloning: Some(CloneConfig::default()),
            ..Default::default()
        }
    }
}

/// Output of [`schedule`]: everything execution needs. Python is generated
/// from it on demand by [`ScheduledModel::emit`].
pub struct ScheduledModel {
    /// The (possibly pruned/cloned) graph the clusters refer to.
    pub graph: Graph,
    pub clustering: Clustering,
    /// Present when `batch > 1` and a hyper mode is selected.
    pub hyper: Option<HyperClustering>,
    /// Distance-to-end table for `graph` (reusable by simulators).
    pub distances: Vec<u64>,
    pub report: PipelineReport,
    /// Time the schedule stage took.
    pub schedule_time: Duration,
}

/// The Python modules [`ScheduledModel::emit`] generates.
pub struct PythonModules {
    /// One process per cluster, exchanging tensors over queues.
    pub parallel: String,
    /// The single-core reference module, the paper's baseline.
    pub sequential: String,
    /// One process per hypercluster; present when the model is
    /// hyperclustered.
    pub hyper: Option<String>,
}

impl ScheduledModel {
    /// The pipeline's last stage: emit the parallel, sequential and (when
    /// hyperclustered) hypercluster modules, recording one `codegen` span
    /// in `obs`. The parallel module is the clustering's batch-1
    /// hyperclustering through the same generator as the hyper one.
    pub fn emit(&self, obs: &Obs) -> PythonModules {
        let mut span = obs.span(0, "codegen", "compile");
        let generate = |hc: &HyperClustering| ramiel_codegen::generate_parallel(&self.graph, hc);
        let modules = PythonModules {
            parallel: generate(&hypercluster(&self.clustering, 1)),
            sequential: ramiel_codegen::generate_sequential(&self.graph),
            hyper: self.hyper.as_ref().map(generate),
        };
        span.set_args(serde_json::json!({
            "parallel_bytes": modules.parallel.len(),
            "sequential_bytes": modules.sequential.len(),
        }));
        modules
    }
}

/// Errors from the end-to-end pipeline.
#[derive(Debug)]
pub enum CompileError {
    Ir(ramiel_ir::IrError),
    Invalid(String),
    /// Initializer conversion failed while preparing a scheduled model for
    /// execution (see [`prepare`]).
    Init(String),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Ir(e) => write!(f, "{e}"),
            CompileError::Invalid(m) => write!(f, "{m}"),
            CompileError::Init(m) => write!(f, "initializer conversion failed: {m}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ramiel_ir::IrError> for CompileError {
    fn from(e: ramiel_ir::IrError) -> Self {
        CompileError::Ir(e)
    }
}

/// A [`ScheduledModel`] paired with its runtime weight table, converted
/// exactly once. Every executor invocation on the same prepared model
/// shares the converted weights (a refcount bump per fetch instead of a
/// deep copy) — the shape `ramiel run` and `ramiel profile` want.
pub struct PreparedModel {
    pub scheduled: ScheduledModel,
    /// The model's weights (see [`ramiel_runtime::initializer_values`]).
    pub init_values: std::sync::Arc<ramiel_runtime::Weights>,
}

impl PreparedModel {
    /// [`ramiel_runtime::RunOptions`] pre-loaded with the shared table.
    pub fn run_options(&self) -> ramiel_runtime::RunOptions {
        ramiel_runtime::RunOptions::default().init_values(std::sync::Arc::clone(&self.init_values))
    }
}

/// [`schedule`] followed by a one-time `initializer_values` conversion: the
/// single entry point for "schedule this graph and get it ready to execute
/// repeatedly". No Python is generated on this path.
pub fn prepare(graph: Graph, opts: &PipelineOptions) -> Result<PreparedModel, CompileError> {
    let scheduled = schedule(graph, opts)?;
    let init_values = ramiel_runtime::initializer_values(&scheduled.graph)
        .map_err(|e| CompileError::Init(e.to_string()))?;
    Ok(PreparedModel {
        scheduled,
        init_values,
    })
}

/// Run the pipeline up to the schedule: prune → clone → distance pass →
/// clustering → merging → hyperclustering, with the [`PipelineReport`] read
/// off the adjacency and distance table the stage already holds.
pub fn schedule(mut graph: Graph, opts: &PipelineOptions) -> Result<ScheduledModel, CompileError> {
    let start = Instant::now();
    let obs = &opts.obs;
    obs.name_thread(0, "pipeline");
    let counts = rewrite(&mut graph, opts)?;
    // One adjacency snapshot for every later stage (the graph is not
    // mutated past this point).
    let adj = graph.adjacency();
    let Scheduled {
        clustering,
        distances,
        mut report,
    } = schedule_stage(&graph, &adj, &StaticCost, obs);
    counts.apply(&mut report);

    let hyper = match (opts.hyper, opts.batch) {
        (HyperMode::Off, _) | (_, 0..=1) => None,
        (HyperMode::Plain, b) => {
            let _span = obs.span(0, "hyperclustering (plain)", "compile");
            Some(hypercluster(&clustering, b))
        }
        (HyperMode::Switched, b) => {
            let _span = obs.span(0, "hyperclustering (switched)", "compile");
            Some(switched_hypercluster(&clustering, b))
        }
    };
    #[cfg(debug_assertions)]
    if let Some(hc) = &hyper {
        ramiel_verify::assert_schedule_invariants(
            &graph,
            &adj,
            &ramiel_cluster::hyper_view(hc),
            "after hyperclustering",
        );
    }
    drop(adj);
    Ok(ScheduledModel {
        graph,
        clustering,
        hyper,
        distances,
        report,
        schedule_time: start.elapsed(),
    })
}

/// Node counts before and after the graph-rewriting passes (Table III).
#[derive(Debug, Clone, Copy)]
pub struct NodeCounts {
    before: usize,
    after_prune: usize,
    after_cloning: usize,
}

impl NodeCounts {
    /// Put these counts into a report the schedule stage read off the
    /// rewritten graph.
    pub fn apply(self, report: &mut PipelineReport) {
        report.nodes_before = self.before;
        report.nodes_after_prune = self.after_prune;
        report.nodes_after_cloning = self.after_cloning;
    }
}

/// The passes that rewrite the graph before it is scheduled: pruning and
/// cloning, as `opts` asks, each in a span of `opts.obs`. [`schedule`] runs
/// them first; a caller that schedules the result elsewhere (`serve`'s plan
/// build) runs them here.
pub fn rewrite(graph: &mut Graph, opts: &PipelineOptions) -> Result<NodeCounts, CompileError> {
    let obs = &opts.obs;
    let before = graph.num_nodes();
    if opts.prune {
        let mut span = obs.span(0, "prune (const-prop + DCE)", "compile");
        ramiel_passes::prune(graph)?;
        span.set_args(serde_json::json!({
            "nodes_before": before,
            "nodes_after": graph.num_nodes(),
        }));
    }
    let after_prune = graph.num_nodes();
    if let Some(clone_cfg) = &opts.cloning {
        let mut span = obs.span(0, "task cloning", "compile");
        ramiel_passes::clone_nodes(graph, &StaticCost, clone_cfg)?;
        span.set_args(serde_json::json!({
            "nodes_before": after_prune,
            "nodes_after": graph.num_nodes(),
        }));
    }
    Ok(NodeCounts {
        before,
        after_prune,
        after_cloning: graph.num_nodes(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ramiel_models::{build, ModelConfig, ModelKind};

    #[test]
    fn compile_squeezenet_end_to_end() {
        let g = build(ModelKind::Squeezenet, &ModelConfig::tiny());
        let s = schedule(g, &PipelineOptions::default()).unwrap();
        assert!(s.report.clusters_before_merge >= s.report.clusters_after_merge);
        let code = s.emit(&Obs::disabled());
        assert!(code.parallel.contains("def cluster_0"));
        assert!(code.sequential.contains("def run_sequential"));
        assert!(code.hyper.is_none());
        s.clustering.check_partition(&s.graph).unwrap();
    }

    #[test]
    fn prune_shrinks_models_with_shape_chains() {
        let g = build(ModelKind::YoloV5, &ModelConfig::tiny());
        let no_prune = schedule(g.clone(), &PipelineOptions::default()).unwrap();
        let pruned = schedule(
            g,
            &PipelineOptions {
                prune: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(pruned.report.nodes_after_prune < no_prune.report.nodes_after_prune);
    }

    #[test]
    fn hyper_modes_produce_hyperclusters() {
        let g = build(ModelKind::Squeezenet, &ModelConfig::tiny());
        let opts = PipelineOptions {
            batch: 4,
            hyper: HyperMode::Switched,
            ..Default::default()
        };
        let s = schedule(g, &opts).unwrap();
        assert!(s.emit(&Obs::disabled()).hyper.is_some());
        let hc = s.hyper.expect("hyperclustering requested");
        assert!(hc.switched);
        assert_eq!(hc.batch, 4);
        hc.check_coverage(s.graph.num_nodes()).unwrap();
    }

    #[test]
    fn compile_time_is_measured() {
        let g = build(ModelKind::Googlenet, &ModelConfig::tiny());
        let s = schedule(g, &PipelineOptions::all_optimizations()).unwrap();
        assert!(s.schedule_time.as_nanos() > 0);
    }
}
