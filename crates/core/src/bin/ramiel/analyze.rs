//! `ramiel analyze <model|all>`: coverage and channel replay, then tensor
//! lifetimes, static peak memory per worker and the channel-capacity lint
//! for the compiled schedule (`ramiel::verify::analyze`; `all`: every
//! built-in model with the same flags). Exit code as for `check`.
//!
//! Flags: the model group, `--json`, `--deny-warnings` and `--executor
//! <channel|stealing>` (`stealing`: the dynamic schedule's estimate-only
//! view, a sound first-ready memory bound with no channels to lint).

use crate::model::{schedule_view, ModelArgs};
use ramiel::diag::Gate;
use ramiel_ir::Graph;
use ramiel_models::{build, ModelKind};
use ramiel_runtime::Engine;
use serde_json::json;

args!(Args "analyze", model: ModelArgs ["--tiny", "--prune", "--clone", "--batch", "--switched"];
    json: bool = false, "--json";
    deny_warnings: bool = false, "--deny-warnings";
    executor: Engine = Engine::Channels, "--executor";
);

/// Analyze one scheduled pipeline: per-cluster memory table plus lints.
fn analyze_one(label: &str, g: Graph, a: &Args) -> Result<Gate, String> {
    let (c, view) = schedule_view(g, &a.model.options())?;
    // The stealing executor has no static schedule: analyze its
    // estimate-only view (single first-ready worker — sound memory bound,
    // nothing for the channel lints to inspect) instead of pretending the
    // clustering's channel structure exists at runtime.
    let view = if a.executor == Engine::Stealing {
        ramiel_cluster::stealing_view(&c.graph, a.model.batch.max(1))
    } else {
        view
    };
    let an = ramiel::verify::analyze(&c.graph, &view);
    if a.json {
        let diagnostics: Vec<_> = (an.report.diagnostics.iter())
            .map(|d| {
                json!({
                    "code": d.code.to_string(), "severity": d.severity.to_string(),
                    "span": d.span.to_string(), "message": d.message,
                })
            })
            .collect();
        let json = json!({
            "model": label, "memory": an.memory, "intervals": an.lifetimes.intervals.len(),
            "alias_classes": an.lifetimes.alias_classes, "diagnostics": diagnostics,
        });
        println!(
            "{}",
            serde_json::to_string_pretty(&json).map_err(|e| e.to_string())?
        );
        return Ok(Gate::of(&an.report, a.deny_warnings));
    }
    let gate = ramiel::diag::print_report("analyze", label, &an.report, a.deny_warnings);
    let m = &an.memory;
    println!(
        "    peak memory: {} bytes over {} workers ({}); {} intervals, {} alias classes",
        m.peak_bytes,
        m.per_worker.len(),
        if m.exact {
            "exact in-order replay"
        } else {
            "first-ready sum bound"
        },
        an.lifetimes.intervals.len(),
        an.lifetimes.alias_classes,
    );
    for wm in &m.per_worker {
        println!(
            "      worker {:>3}  peak {:>12} B  resident {:>12} B  {:>5} ops",
            wm.worker, wm.peak_bytes, wm.resident_bytes, wm.ops
        );
    }
    Ok(gate)
}

pub fn main(model: &str, flags: &[String]) -> Result<Gate, String> {
    let a = Args::parse(flags)?;
    let mut gate = Gate::Clean;
    if model == "all" {
        let cfg = a.model.config();
        for k in ModelKind::all() {
            let label = format!("{} [batch={}]", k.name(), a.model.batch);
            gate = gate.worst(analyze_one(&label, build(k, &cfg), &a)?);
        }
    } else {
        let label = format!("{model} [batch={}]", a.model.batch);
        gate = analyze_one(&label, a.model.graph(model)?, &a)?;
    }
    if gate.failed() && !a.json {
        eprintln!("analyze found problems (see diagnostics above)");
    }
    Ok(gate)
}
