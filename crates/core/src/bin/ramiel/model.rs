//! The model group: `<model>`, a built-in name (`squeezenet`, `googlenet`,
//! `inception-v3`, `inception-v4`, `yolo-v5`, `bert`, `retinanet`,
//! `nasnet`) or an ONNX file (validated and shape-inferred whatever it is
//! called), plus `--tiny` (reduced model), `--prune` (const-prop + DCE),
//! `--clone` (task cloning), `--batch N` and `--switched` (hyperclustering
//! over N samples, plain or switched).

use ramiel::{schedule, HyperMode, PipelineOptions, PipelineReport, ScheduledModel};
use ramiel_ir::Graph;
use ramiel_models::{build, ModelConfig, ModelKind};

args!(ModelArgs;
    tiny: bool = false, "--tiny";
    prune: bool = false, "--prune";
    clone: bool = false, "--clone";
    batch: usize = 1, "--batch";
    switched: bool = false, "--switched";
);

impl ModelArgs {
    pub fn config(&self) -> ModelConfig {
        if self.tiny {
            ModelConfig::tiny()
        } else {
            ModelConfig::full()
        }
    }

    /// The built-in model `name`, or the ONNX file, imported and validated.
    pub fn graph(&self, name: &str) -> Result<Graph, String> {
        match builtin_kind(name) {
            Some(k) => Ok(build(k, &self.config())),
            None => ramiel_onnx::load_model(name).map_err(|e| not_loadable(name, e)),
        }
    }

    pub fn options(&self) -> PipelineOptions {
        PipelineOptions {
            prune: self.prune,
            cloning: self.clone.then(ramiel_passes::CloneConfig::default),
            batch: self.batch,
            hyper: match (self.batch > 1, self.switched) {
                (false, _) => HyperMode::Off,
                (true, false) => HyperMode::Plain,
                (true, true) => HyperMode::Switched,
            },
            ..Default::default()
        }
    }
}

/// The zoo model a CLI model argument names, if it names one.
pub fn builtin_kind(name: &str) -> Option<ModelKind> {
    match name.to_ascii_lowercase().as_str() {
        "squeezenet" => Some(ModelKind::Squeezenet),
        "googlenet" => Some(ModelKind::Googlenet),
        "inception-v3" | "inceptionv3" => Some(ModelKind::InceptionV3),
        "inception-v4" | "inceptionv4" => Some(ModelKind::InceptionV4),
        "yolo-v5" | "yolo" | "yolov5" => Some(ModelKind::YoloV5),
        "bert" => Some(ModelKind::Bert),
        "retinanet" => Some(ModelKind::Retinanet),
        "nasnet" => Some(ModelKind::NasNet),
        _ => None,
    }
}

pub fn not_loadable(name: &str, e: impl std::fmt::Display) -> String {
    format!("`{name}` is not a built-in model or loadable file: {e}")
}

/// The pipeline summary every verb prints first. `time` is what the verb
/// paid: schedule + Python emission under `compile`; the other verbs stop
/// at the schedule (`serve` at its plan build, which runs the same
/// `ramiel_cluster::schedule_stage`) and print that stage alone.
pub fn summarize(r: &PipelineReport, time: std::time::Duration) {
    println!("model:                 {}", r.model);
    println!(
        "nodes:                 {} → prune {} → clone {}",
        r.nodes_before, r.nodes_after_prune, r.nodes_after_cloning
    );
    println!(
        "clusters:              {} → merged {}",
        r.clusters_before_merge, r.clusters_after_merge
    );
    println!("cross-cluster edges:   {}", r.cross_cluster_edges);
    println!("potential parallelism: {:.2}x", r.parallelism.parallelism);
    println!("compile time:          {time:.2?}");
}

/// Schedule one pipeline and return its graph + schedule view (`check`,
/// `analyze`).
pub fn schedule_view(
    g: Graph,
    opts: &PipelineOptions,
) -> Result<(ScheduledModel, ramiel::verify::ScheduleView), String> {
    let c = schedule(g, opts).map_err(|e| e.to_string())?;
    let view = match &c.hyper {
        Some(hc) => ramiel_cluster::hyper_view(hc),
        None => ramiel_cluster::clustering_view(&c.clustering),
    };
    Ok((c, view))
}
