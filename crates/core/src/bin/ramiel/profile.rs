//! `ramiel profile <model>`: schedule with stage tracing, run the model on
//! three lanes with profiling on (sequential; the channel engine at batch 1
//! and over the hyperclustering, each on a `HyperPool` of its own), merge
//! everything onto one Chrome/Perfetto trace, and print a cost-model
//! prediction-accuracy table plus a profile-guided reclustering comparison.
//! Flags: the model group, `--intra-op N` and `--out DIR` (where
//! `<stem>-trace.json` lands; default the working directory).

use crate::model::{summarize, ModelArgs};
use ramiel::obs::{validate_chrome_trace, Obs};
use ramiel::PipelineOptions;
use ramiel_cluster::{distance_to_end, linear_clustering, merge_clusters_fixpoint};
use ramiel_runtime::{
    predict_report, run, run_sequential_profiled, simulate_clustering, synth_inputs, Env, Schedule,
    SimConfig,
};
use ramiel_tensor::ExecCtx;
use std::slice::from_ref;

args!(Args "profile", model: ModelArgs ["--tiny", "--prune", "--clone", "--batch", "--switched"];
    intra_op: usize = 1, "--intra-op";
    out: Option<String> = None, "--out";
);

pub fn main(model: &str, flags: &[String]) -> Result<(), String> {
    let a = Args::parse(flags)?;
    let g = a.model.graph(model)?;

    // One shared timeline; pids keep the stories apart in the trace UI.
    let obs = Obs::enabled();
    obs.with_pid(1).name_process("compile pipeline");
    obs.with_pid(2).name_process("sequential executor");
    obs.with_pid(3).name_process("parallel executor");
    obs.with_pid(4).name_process("hypercluster executor");

    // prepare() converts the initializer table once; each profiled executor
    // run shares it through its RunOptions.
    let opts = PipelineOptions {
        obs: obs.with_pid(1),
        ..a.model.options()
    };
    let prepared = ramiel::prepare(g, &opts).map_err(|e| e.to_string())?;
    let c = &prepared.scheduled;
    summarize(&c.report, c.schedule_time);
    println!();

    let ctx = ExecCtx::with_intra_op(a.intra_op);
    let inputs = synth_inputs(&c.graph, 42);

    let seq_opts = prepared.run_options().obs(obs.with_pid(2));
    let (seq_out, seq_db) = run_sequential_profiled(&c.graph, &inputs, &ctx, &seq_opts)
        .map_err(|e| format!("sequential: {e}"))?;
    seq_db.export_to_obs(&obs.with_pid(2), &c.graph);

    // A profiled one-shot channel run: outputs plus its ProfileDb.
    let profiled = |label: &str, schedule: Schedule<'_>, inputs: &[Env], pid: u32| {
        let opts = prepared.run_options().obs(obs.with_pid(pid)).profile(true);
        let r = run(&c.graph, schedule, inputs, &ctx, &opts);
        let outs = r.outputs.map_err(|e| format!("{label}: {e}"))?;
        let db = r.profile.expect("a profiled channel run returns its db");
        db.export_to_obs(&obs.with_pid(pid), &c.graph);
        Ok::<_, String>((outs, db))
    };

    let (par_out, par_db) = profiled("parallel", (&c.clustering).into(), from_ref(&inputs), 3)?;
    if par_out[0] != seq_out {
        return Err("parallel output diverged from sequential".into());
    }

    let hc = match &c.hyper {
        Some(hc) => hc.clone(),
        None => ramiel_cluster::hypercluster(&c.clustering, 1),
    };
    let batch_inputs: Vec<_> = (0..hc.batch)
        .map(|b| synth_inputs(&c.graph, 42 + b as u64))
        .collect();
    profiled("hyper", (&hc).into(), &batch_inputs, 4)?;

    // Prediction accuracy: the cost model that drove clustering vs what the
    // parallel run actually measured.
    let predicted = predict_report(&c.graph, &ramiel_cluster::StaticCost, &par_db);
    print!("{}", predicted.render());
    println!();

    // Profile-guided feedback: replay the measured per-node times into LC
    // and compare both clusterings under the measured cost model.
    let measured = par_db.measured_cost(&c.graph);
    let dist = distance_to_end(&c.graph, &measured);
    let reclustered = merge_clusters_fixpoint(&linear_clustering(&c.graph, &dist), &dist);
    let base = simulate_clustering(&c.graph, &c.clustering, &measured, &SimConfig::PAPER)
        .map_err(|e| e.to_string())?;
    let tuned = simulate_clustering(&c.graph, &reclustered, &measured, &SimConfig::PAPER)
        .map_err(|e| e.to_string())?;
    println!(
        "profile-guided reclustering ({} of {} nodes sampled, {} ns/unit):",
        measured.sampled_nodes(),
        c.graph.num_nodes(),
        measured.ns_per_unit(),
    );
    println!(
        "  original clustering:   {:3} clusters, makespan {:>8} measured units",
        c.clustering.num_clusters(),
        base.makespan
    );
    println!(
        "  measured reclustering: {:3} clusters, makespan {:>8} measured units",
        reclustered.num_clusters(),
        tuned.makespan
    );

    // Export, validating before we claim success (the CI smoke gate).
    let trace = obs.to_chrome_trace();
    let stats = validate_chrome_trace(&trace).map_err(|e| format!("malformed trace: {e}"))?;
    // A model given by path names its trace after the file stem, so the
    // trace lands in `--out` (or the working directory), not in a directory
    // spelled by the argument.
    let stem = std::path::Path::new(model)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(model);
    let path = match &a.out {
        Some(dir) => {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            format!("{dir}/{stem}-trace.json")
        }
        None => format!("{stem}-trace.json"),
    };
    std::fs::write(&path, &trace).map_err(|e| e.to_string())?;
    println!();
    print!("{}", obs.text_report());
    println!(
        "trace: {} events ({} spans, {} instants) -> {path}",
        stats.total_events, stats.complete_spans, stats.instants
    );
    println!("open it at https://ui.perfetto.dev (Open trace file) or chrome://tracing");
    Ok(())
}
