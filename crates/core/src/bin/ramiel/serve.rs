//! `ramiel serve <model>`: schedule once, then serve inference over
//! newline-delimited JSON TCP with dynamic micro-batching into the plan's
//! standing hypercluster pool (its one executor) until a client sends
//! `{"op":"shutdown"}` (graceful drain). Start-up plans batch 1 only; the
//! pool runs at most one worker per core, which the banner states. A file
//! or URL goes to its plan by `Server::load_onnx`, the path TCP `load`
//! takes; a built-in model, or a graph `--prune`/`--clone` rewrote (its
//! bytes read by `Server::fetch`, so a pin is verified), by `Server::load`.
//!
//! Flags: `--tiny`, `--prune`, `--clone` and `--switched` (every batch
//! size is planned when met, so no `--batch`), `--port N` (default 7878, 0
//! = ephemeral), `--max-batch N` (default 8; a batch is whatever queued
//! while the previous one ran, never a timed wait), `--queue-cap N`
//! (default 128), `--shed` (reject on a full queue instead of blocking),
//! `--max-retries N` (default 2), `--sha256 H` (pin the digest; pulls
//! through the registry) and `--cache DIR` (as for `pull`). Kernels run
//! sequentially on the standing workers: `serve` starts no intra-op pool.

use crate::model::{builtin_kind, not_loadable, summarize, ModelArgs};
use ramiel_serve::{run_tcp, OverflowPolicy, PlanSpec, Pulled, ServeConfig, Server, Source};
use std::sync::Arc;
use std::time::Duration;

args!(Args "serve", model: ModelArgs ["--tiny", "--prune", "--clone", "--switched"];
    port: u16 = 7878, "--port";
    max_batch: usize = 8, "--max-batch";
    queue_cap: usize = 128, "--queue-cap";
    shed: bool = false, "--shed";
    max_retries: u32 = 2, "--max-retries";
    sha256: Option<String> = None, "--sha256";
    cache: Option<String> = None, "--cache";
);

pub fn main(model: &str, flags: &[String]) -> Result<(), String> {
    let a = Args::parse(flags)?;
    let registry = Arc::new(crate::registry::open(a.cache.as_deref()));
    let opts = a.model.options();
    let server = Arc::new(Server::new(ServeConfig {
        max_batch: a.max_batch,
        queue_capacity: a.queue_cap,
        policy: if a.shed {
            OverflowPolicy::Shed
        } else {
            OverflowPolicy::Block {
                max_wait: Duration::from_secs(1),
            }
        },
        supervisor: ramiel_runtime::SupervisorConfig {
            max_retries: a.max_retries,
            fallback: true,
        },
        ..Default::default()
    }));
    // A URL (or a checksum-pinned reference) is pulled through the registry
    // and any other file read as it is, so the pin is verified and
    // `stats.load` counts the read as a TCP `load` counts it. Bytes that
    // need no rewrite take the one bytes-to-plan path; a built-in graph, or
    // one that `--prune`/`--clone` rewrites, is installed as it is.
    let source = if model.contains("://") || a.sha256.is_some() {
        Some(Source::Pull {
            registry: &registry,
            reference: model,
            pin: a.sha256.as_deref(),
        })
    } else if builtin_kind(model).is_some() {
        None
    } else {
        Some(Source::File(model))
    };
    let is_file = matches!(source, Some(Source::File(_)));
    let refused = |e: String| if is_file { not_loadable(model, e) } else { e };
    let say_pulled = |pulled: Option<Pulled>| {
        if let Some(p) = pulled {
            println!("pulled {} (sha256 {})", p.source, p.sha256);
        }
    };
    let (plan, report) = match source {
        Some(source) if !opts.prune && opts.cloning.is_none() => {
            let (plan, pulled) = server
                .load_onnx(model, source, a.model.switched)
                .map_err(|e| refused(e.to_string()))?;
            say_pulled(pulled);
            let report = plan.report.clone();
            (plan, report)
        }
        source => {
            let mut graph = match source {
                Some(source) => {
                    let (bytes, pulled) =
                        server.fetch(source).map_err(|e| refused(e.to_string()))?;
                    say_pulled(pulled);
                    ramiel_onnx::import_model(&bytes).map_err(|e| refused(e.to_string()))?
                }
                None => a.model.graph(model)?,
            };
            let counts = ramiel::rewrite(&mut graph, &opts).map_err(|e| e.to_string())?;
            let spec = PlanSpec {
                switched: a.model.switched,
                ..PlanSpec::new(graph)
            };
            let plan = server.load(model, spec).map_err(|e| e.to_string())?;
            let mut report = plan.report.clone();
            counts.apply(&mut report);
            (plan, report)
        }
    };
    summarize(&report, plan.schedule_time);
    let workers = plan.num_clusters();
    println!(
        "serving `{model}` (max batch {}, queue {}, {workers} worker{}{})",
        a.max_batch,
        a.queue_cap,
        if workers == 1 { "" } else { "s" },
        if a.shed { ", shedding" } else { "" },
    );
    let listener = std::net::TcpListener::bind(("127.0.0.1", a.port))
        .map_err(|e| format!("bind 127.0.0.1:{}: {e}", a.port))?;
    run_tcp(&server, model, listener, registry).map_err(|e| e.to_string())?;
    let s = server.stats();
    println!(
        "served {} requests in {} batches (mean batch {:.2}, {} shed, {} failed)",
        s.completed,
        s.batches,
        s.mean_batch,
        s.shed_queue_full + s.shed_deadline,
        s.failed
    );
    Ok(())
}
