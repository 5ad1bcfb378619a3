//! `ramiel check <model|all>`: run the pipeline, then statically verify the
//! resulting `(graph, schedule)` pair with `ramiel-verify`: partition
//! coverage, cycle analysis, in-order soundness, channel deadlock-freedom,
//! shape honesty, plus advisory lints. Exit code is non-zero on any error
//! (and on warnings under `--deny-warnings`); advice never fails the run.
//!
//! Flags: `--tiny` and `--deny-warnings`; `check <model>` also takes the
//! rest of the model group. `check all` sweeps every built-in model through
//! three fixed pipelines (batch 1, plain and switched batch 4).

use crate::model::{schedule_view, ModelArgs};
use ramiel::diag::Gate;
use ramiel::{HyperMode, PipelineOptions};
use ramiel_ir::Graph;
use ramiel_models::{build, ModelKind};

args!(Args "check", model: ModelArgs ["--tiny", "--prune", "--clone", "--batch", "--switched"];
    deny_warnings: bool = false, "--deny-warnings";
);

args!(AllArgs "check all", model: ModelArgs ["--tiny"];
    deny_warnings: bool = false, "--deny-warnings";
);

/// Verify one scheduled pipeline and print its verdict.
fn check_one(label: &str, g: Graph, opts: &PipelineOptions, deny: bool) -> Result<Gate, String> {
    let (c, view) = schedule_view(g, opts)?;
    let report = ramiel::verify::verify(&c.graph, Some(&view));
    Ok(ramiel::diag::print_report("check", label, &report, deny))
}

/// The `check all` pipeline sweep: default options at batch 1 plus both
/// hypercluster variants at batch 4.
fn sweep_configs() -> [(&'static str, PipelineOptions); 3] {
    let batch4 = |hyper| PipelineOptions {
        batch: 4,
        hyper,
        ..Default::default()
    };
    [
        ("batch=1", PipelineOptions::default()),
        ("batch=4 hyper", batch4(HyperMode::Plain)),
        ("batch=4 switched", batch4(HyperMode::Switched)),
    ]
}

pub fn main(model: &str, flags: &[String]) -> Result<Gate, String> {
    let mut gate = Gate::Clean;
    if model == "all" {
        let a = AllArgs::parse(flags)?;
        let cfg = a.model.config();
        for k in ModelKind::all() {
            for (tag, opts) in &sweep_configs() {
                let label = format!("{} [{tag}]", k.name());
                gate = gate.worst(check_one(&label, build(k, &cfg), opts, a.deny_warnings)?);
            }
        }
    } else {
        let a = Args::parse(flags)?;
        let label = format!("{model} [batch={}]", a.model.batch);
        let g = a.model.graph(model)?;
        gate = check_one(&label, g, &a.model.options(), a.deny_warnings)?;
    }
    if gate.failed() {
        eprintln!("check found problems (see diagnostics above)");
    }
    Ok(gate)
}
