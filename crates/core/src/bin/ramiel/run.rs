//! `ramiel run <model>`: execute the compiled schedule and time it. Flags:
//! the model group, `--intra-op N` (rayon intra-op threads, default 1),
//! `--iters N` (default 3), `--mode <seq|par|both>` (which side to time;
//! with `--batch N` both run N samples and report ms/sample) and
//! `--executor <channel|stealing>`: `channel` (default) is the paper's
//! one-thread-per-cluster dataflow, `stealing` the persistent work-stealing
//! pool with clusters demoted to locality hints. Chaos flags (either
//! executor): `--chaos-seed N` runs under the supervisor with a seeded
//! fault plan of `--chaos-faults N` faults (default 3), `--max-retries N`
//! (default 2) and `--fallback` (re-run sequentially once retries run out).

use crate::model::{summarize, ModelArgs};
use crate::FlagValue;
use ramiel::ScheduledModel;
use ramiel_runtime::{run, run_sequential_opts, synth_inputs, Engine, Env, RunOptions, Schedule};
use ramiel_runtime::{GraphProgram, StealPlan};
use ramiel_tensor::ExecCtx;
use std::slice::Iter;
use std::sync::Arc;
use std::time::Instant;

args!(Args "run", model: ModelArgs ["--tiny", "--prune", "--clone", "--batch", "--switched"];
    intra_op: usize = 1, "--intra-op";
    iters: usize = 3, "--iters";
    mode: Mode = Mode::Both, "--mode";
    executor: Engine = Engine::Channels, "--executor";
    chaos_seed: Option<u64> = None, "--chaos-seed";
    chaos_faults: usize = 3, "--chaos-faults";
    max_retries: u32 = 2, "--max-retries";
    fallback: bool = false, "--fallback";
);

#[derive(PartialEq)]
pub enum Mode {
    Seq,
    Par,
    Both,
}

impl FlagValue for Mode {
    fn read(it: &mut Iter<'_, String>, flag: &str) -> Result<Mode, String> {
        match String::read(it, flag)?.as_str() {
            "seq" => Ok(Mode::Seq),
            "par" => Ok(Mode::Par),
            "both" => Ok(Mode::Both),
            other => Err(format!("unknown mode `{other}` (seq|par|both)")),
        }
    }
}

pub fn main(model: &str, flags: &[String]) -> Result<(), String> {
    let a = Args::parse(flags)?;
    // prepare() = schedule + one shared initializer-table conversion; every
    // executor below reuses that table through RunOptions.
    let prepared =
        ramiel::prepare(a.model.graph(model)?, &a.model.options()).map_err(|e| e.to_string())?;
    let c = &prepared.scheduled;
    summarize(&c.report, c.schedule_time);
    // What was compiled is what runs: the hyperclustering over `--batch`
    // samples when there is one, the clustering over a single sample
    // otherwise.
    let schedule = match &c.hyper {
        Some(hc) => Schedule::Hyper(hc),
        None => Schedule::Clusters(&c.clustering),
    };
    let batch = c.hyper.as_ref().map_or(1, |hc| hc.batch);
    let inputs: Vec<Env> = (0..batch)
        .map(|b| synth_inputs(&c.graph, 42 + b as u64))
        .collect();
    let ctx = ExecCtx::with_intra_op(a.intra_op);
    let run_opts = prepared.run_options();

    if let Some(seed) = a.chaos_seed {
        return chaos(c, schedule, &inputs, &ctx, run_opts, seed, &a);
    }

    let time_it = |label: &str, body: &dyn Fn() -> Result<(), String>| -> Result<(), String> {
        body()?; // warm-up
        let start = Instant::now();
        for _ in 0..a.iters {
            body()?;
        }
        let ms = start.elapsed().as_secs_f64() * 1e3 / a.iters as f64;
        let (iters, per_sample) = (a.iters, ms / batch as f64);
        println!(
            "{label}: {ms:.2} ms/iter over {iters} iters (batch {batch}, {per_sample:.2} ms/sample)"
        );
        Ok(())
    };
    let time_engine = |label: &str, engine: Engine| {
        let opts = run_opts.clone().engine(engine);
        time_it(label, &|| {
            run(&c.graph, schedule, &inputs, &ctx, &opts)
                .outputs
                .map(drop)
                .map_err(|e| e.to_string())
        })
    };

    if a.mode != Mode::Par {
        time_engine("sequential", Engine::Sequential)?;
    }
    if a.mode != Mode::Seq {
        if a.executor == Engine::Stealing {
            // Plan once over the prepared weights (it is reusable and what a
            // serving deployment would cache); time only the pool executions.
            let prog = Arc::new(GraphProgram::new(&c.graph).map_err(|e| e.to_string())?);
            let weights = Arc::clone(&prepared.init_values);
            let plan = StealPlan::with_program(&prog, weights, &schedule.hyper());
            let plan = Arc::new(plan.map_err(|e| e.to_string())?);
            let pool = ramiel_runtime::StealPool::global();
            time_it("stealing  ", &|| {
                pool.run_plan(&plan, &inputs, &ctx, &run_opts)
                    .map(drop)
                    .map_err(|e| e.to_string())
            })?;
            println!("{}", pool.stats().text_summary());
        } else {
            time_engine("parallel  ", Engine::Channels)?;
        }
    }
    Ok(())
}

/// `ramiel run --chaos-seed N`: execute one supervised parallel inference
/// under a deterministic fault plan and report what the supervisor did.
fn chaos(
    c: &ScheduledModel,
    schedule: Schedule<'_>,
    inputs: &[Env],
    ctx: &ExecCtx,
    base_opts: RunOptions,
    seed: u64,
    a: &Args,
) -> Result<(), String> {
    use ramiel_runtime::{FaultInjector, FaultPlan, SupervisorConfig};
    // Injected panics are caught and reported below as `RT-INJECT`.
    ramiel_runtime::fault::quiet_injected_panics();
    let plan = FaultPlan::random(seed, c.graph.num_nodes(), inputs.len(), a.chaos_faults);
    println!("chaos plan (seed {seed}):");
    for fault in &plan.faults {
        println!(
            "    node {:4} exec {:2}: {}",
            fault.node, fault.exec_index, fault.kind
        );
    }
    let mut opts = base_opts
        .clone()
        .engine(a.executor)
        .supervisor(SupervisorConfig {
            max_retries: a.max_retries,
            fallback: a.fallback,
        });
    opts.injector = Some(FaultInjector::new(plan));
    let start = Instant::now();
    let r = run(&c.graph, schedule, inputs, ctx, &opts);
    let elapsed = start.elapsed();
    println!("attempts:              {}", r.report.attempts);
    println!("fell back:             {}", r.report.fell_back);
    println!("faults fired:          {}", r.report.faults_fired.len());
    for e in &r.report.errors {
        println!("    [{}] {e}", e.code());
    }
    let outs = r.outputs.map_err(|e| format!("[{}] {e}", e.code()))?;
    // Baseline with the same options, minus the injector.
    for (inp, out) in inputs.iter().zip(&outs) {
        let baseline =
            run_sequential_opts(&c.graph, inp, ctx, &base_opts).map_err(|e| e.to_string())?;
        if baseline != *out {
            return Err("supervised run diverged from the sequential baseline".into());
        }
    }
    println!("outcome:               ok in {elapsed:.2?} (matches sequential)");
    Ok(())
}
