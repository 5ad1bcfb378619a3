//! Newline-delimited JSON over `std::net` TCP — the transport behind
//! `ramiel serve <model.json> --port N`. One JSON object per line in each
//! direction; one thread per connection (the server's own admission
//! control is the concurrency limiter, not the transport).
//!
//! ## Wire format
//!
//! Request: `{"id":1,"op":"infer","inputs":{"x":{"shape":[2],"payload":{"F32":[1.0,2.0]}}}}`
//!
//! Ops: `ping`, `infer` (named [`TensorData`] inputs), `infer_synth`
//! (server-side deterministic inputs from `seed` — lets load generators
//! skip shipping tensors), `stats` (a view of the metric registry that
//! resets nothing; includes per-model plan `versions` so hot swaps are
//! observable), `metrics` (Prometheus text exposition in the `metrics`
//! response field, scrape with `ramiel top`; each scrape starts a fresh
//! queue-peak window), `trace` (Chrome trace JSON of
//! recent requests in the `trace` field), `load` (pull `source` through the
//! registry — with optional `sha256` pin — and hot-swap it in as `model`;
//! the response carries the new plan `version` and the content digest),
//! `shutdown` (graceful drain, then the accept loop exits).
//!
//! When the server runs with a registry ([`run_tcp_with_registry`]), an
//! `infer`/`infer_synth` naming an unknown model whose name parses as a
//! model reference (a path or URL) is *autoloaded* on first request.
//!
//! Response: `{"id":1,"ok":true,...}` with `outputs` / `stats` on success,
//! `error` + `code` (SV-*/RT-*) on failure. `model` is optional everywhere
//! and defaults to the model the server was started with.

use crate::plan::PlanSpec;
use crate::registry::{Registry, RegistryError};
use crate::server::{ServeError, Server};
use ramiel_ir::TensorData;
use ramiel_runtime::Env;
use ramiel_tensor::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Deserialize)]
struct WireRequest {
    id: Option<u64>,
    op: String,
    /// Defaults to the model `run_tcp` was started with.
    model: Option<String>,
    /// `infer`: named input tensors.
    inputs: Option<BTreeMap<String, TensorData>>,
    /// `infer_synth`: seed for server-side deterministic inputs.
    seed: Option<u64>,
    /// Relative deadline; the request is shed if it can't start in time.
    deadline_ms: Option<u64>,
    /// `load`: model reference to pull (`file://…`, `http://…`, or a path).
    source: Option<String>,
    /// `load`: optional sha256 pin for the pulled bytes.
    sha256: Option<String>,
}

#[derive(Debug, Serialize)]
struct WireResponse {
    id: u64,
    ok: bool,
    outputs: Option<BTreeMap<String, TensorData>>,
    stats: Option<crate::stats::StatsSnapshot>,
    models: Option<Vec<String>>,
    /// `metrics` op: Prometheus text exposition.
    metrics: Option<String>,
    /// `trace` op: Chrome trace JSON (`{"traceEvents": [...]}`).
    trace: Option<serde_json::Value>,
    /// `stats` op: plan version per loaded model (hot-swap observable).
    versions: Option<BTreeMap<String, u64>>,
    /// `load` op: the new plan's version.
    version: Option<u64>,
    /// `load` op: content digest of the pulled model bytes.
    sha256: Option<String>,
    error: Option<String>,
    code: Option<String>,
}

impl WireResponse {
    fn ok(id: u64) -> WireResponse {
        WireResponse {
            id,
            ok: true,
            outputs: None,
            stats: None,
            models: None,
            metrics: None,
            trace: None,
            versions: None,
            version: None,
            sha256: None,
            error: None,
            code: None,
        }
    }

    fn err(id: u64, e: &ServeError) -> WireResponse {
        WireResponse {
            error: Some(e.to_string()),
            code: Some(e.code().to_string()),
            ok: false,
            ..WireResponse::ok(id)
        }
    }

    /// Failure with an explicit code — used for registry (`RG-*`) and
    /// importer (`ONNX-*`) failures surfaced through the `load` op, which
    /// have their own code namespaces.
    fn err_code(id: u64, code: &str, message: String) -> WireResponse {
        WireResponse {
            error: Some(message),
            code: Some(code.to_string()),
            ok: false,
            ..WireResponse::ok(id)
        }
    }
}

/// Serve `server` on `listener` until a client sends `{"op":"shutdown"}`.
/// Prints `listening on ADDR` so callers binding port 0 can discover the
/// port. Blocks the calling thread; connections each get their own.
pub fn run_tcp(
    server: &Arc<Server>,
    default_model: &str,
    listener: TcpListener,
) -> std::io::Result<()> {
    run_tcp_with_registry(server, default_model, listener, None)
}

/// [`run_tcp`] with an attached model registry: enables the `load` op and
/// autoload-on-first-request for unknown model names that parse as model
/// references.
pub fn run_tcp_with_registry(
    server: &Arc<Server>,
    default_model: &str,
    listener: TcpListener,
    registry: Option<Arc<Registry>>,
) -> std::io::Result<()> {
    let addr = listener.local_addr()?;
    println!("listening on {addr}");
    let stop = Arc::new(AtomicBool::new(false));
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let server = Arc::clone(server);
        let model = default_model.to_string();
        let stop = Arc::clone(&stop);
        let registry = registry.clone();
        std::thread::Builder::new()
            .name("ramiel-serve-conn".into())
            .spawn(move || {
                let shutdown_requested = handle_conn(&server, &model, registry.as_deref(), stream);
                if shutdown_requested {
                    server.shutdown();
                    stop.store(true, Ordering::SeqCst);
                    // Unblock the accept loop so it can observe `stop`.
                    let _ = TcpStream::connect(addr);
                }
            })
            .expect("spawn connection thread");
    }
    Ok(())
}

/// Serve one connection; returns true if the client requested shutdown.
fn handle_conn(
    server: &Server,
    default_model: &str,
    registry: Option<&Registry>,
    stream: TcpStream,
) -> bool {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return false,
    };
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break, // client hung up
        };
        if line.trim().is_empty() {
            continue;
        }
        let (resp, shutdown) = match serde_json::from_str::<WireRequest>(&line) {
            Ok(req) => handle_request(server, default_model, registry, req),
            Err(e) => (
                WireResponse::err(0, &ServeError::Internal(format!("bad request: {e}"))),
                false,
            ),
        };
        let mut out = serde_json::to_string(&resp).unwrap_or_else(|_| {
            r#"{"id":0,"ok":false,"error":"response serialization failed","code":"SV-INTERNAL"}"#
                .to_string()
        });
        out.push('\n');
        if writer.write_all(out.as_bytes()).is_err() || writer.flush().is_err() {
            break;
        }
        if shutdown {
            return true;
        }
    }
    false
}

fn handle_request(
    server: &Server,
    default_model: &str,
    registry: Option<&Registry>,
    req: WireRequest,
) -> (WireResponse, bool) {
    let id = req.id.unwrap_or(0);
    let model = req.model.as_deref().unwrap_or(default_model);
    match req.op.as_str() {
        "ping" => (WireResponse::ok(id), false),
        "stats" => {
            let mut r = WireResponse::ok(id);
            r.stats = Some(server.stats());
            r.models = Some(server.models());
            r.versions = Some(server.model_versions());
            (r, false)
        }
        "metrics" => {
            let mut r = WireResponse::ok(id);
            r.metrics = Some(server.metrics_text());
            (r, false)
        }
        "trace" => {
            let mut r = WireResponse::ok(id);
            r.trace = Some(server.trace_chrome());
            (r, false)
        }
        "shutdown" => (WireResponse::ok(id), true),
        "load" => {
            let Some(source) = req.source.as_deref() else {
                return (
                    WireResponse::err(id, &ServeError::Internal("load needs `source`".into())),
                    false,
                );
            };
            let Some(registry) = registry else {
                return (
                    WireResponse::err(
                        id,
                        &ServeError::Internal("server is running without a registry".into()),
                    ),
                    false,
                );
            };
            // The `model` name the plan is installed under defaults to the
            // lane the server was started with — a hot *swap*, not a new lane.
            match load_from_registry(server, registry, model, source, req.sha256.as_deref(), id) {
                Ok((version, digest)) => {
                    let mut r = WireResponse::ok(id);
                    r.version = Some(version);
                    r.sha256 = Some(digest);
                    (r, false)
                }
                Err(resp) => (*resp, false),
            }
        }
        "infer" => {
            let Some(wire_inputs) = req.inputs else {
                return (
                    WireResponse::err(id, &ServeError::Internal("infer needs `inputs`".into())),
                    false,
                );
            };
            let mut env = Env::new();
            for (name, td) in &wire_inputs {
                match Value::from_tensor_data(td) {
                    Ok(v) => {
                        env.insert(name.clone(), v);
                    }
                    Err(e) => {
                        return (
                            WireResponse::err(
                                id,
                                &ServeError::Internal(format!("bad tensor `{name}`: {e}")),
                            ),
                            false,
                        )
                    }
                }
            }
            if let Err(resp) = autoload(server, registry, model, id) {
                return (*resp, false);
            }
            (run_infer(server, model, env, req.deadline_ms, id), false)
        }
        "infer_synth" => {
            if let Err(resp) = autoload(server, registry, model, id) {
                return (*resp, false);
            }
            let Some(plan) = server.plan(model) else {
                return (
                    WireResponse::err(id, &ServeError::UnknownModel(model.to_string())),
                    false,
                );
            };
            let env = ramiel_runtime::synth_inputs(&plan.graph, req.seed.unwrap_or(0));
            (run_infer(server, model, env, req.deadline_ms, id), false)
        }
        other => (
            WireResponse::err(id, &ServeError::Internal(format!("unknown op `{other}`"))),
            false,
        ),
    }
}

/// Pull `source` through the registry, import it with the unified model
/// loader, and hot-swap it in as `name`. Returns the new plan's version and
/// the content digest, or a ready-to-send error response (registry failures
/// keep their `RG-*` codes, importer failures their `ONNX-*`/parse codes).
///
/// The model bytes are read once: the registry hashes and stores the buffer
/// it fetched and the importer decodes that same buffer. Each phase lands in
/// `ramiel_load_phase_ns`; a refused pin stops before anything is cached,
/// imported or installed.
fn load_from_registry(
    server: &Server,
    registry: &Registry,
    name: &str,
    source: &str,
    pin: Option<&str>,
    id: u64,
) -> Result<(u64, String), Box<WireResponse>> {
    let metrics = server.load_metrics();
    let registry_err = |e: RegistryError| {
        if matches!(e, RegistryError::Checksum { .. }) {
            metrics.pull_checksum_refused.inc();
        }
        Box::new(WireResponse::err_code(id, e.code(), e.to_string()))
    };
    let fetched = registry.fetch(source, pin).map_err(registry_err)?;
    metrics.fetch.record_duration(fetched.fetch_time());
    let pulled = registry.admit(&fetched).map_err(registry_err)?;
    if pulled.cache_hit {
        metrics.pull_hit.inc();
    } else {
        metrics.pull_miss.inc();
        metrics.hash.record_duration(pulled.hash);
        metrics.store.record_duration(pulled.store);
    }
    let start = Instant::now();
    let graph = ramiel_onnx::load_model_bytes(fetched.data()).map_err(|e| {
        let code = match &e {
            ramiel_onnx::LoadError::Onnx(oe) => oe.code(),
            ramiel_onnx::LoadError::Io { .. } => "RG-IO",
            ramiel_onnx::LoadError::Native(_) => "SV-MODEL",
        };
        Box::new(WireResponse::err_code(id, code, e.to_string()))
    })?;
    drop(fetched);
    let plan = server
        .load_prepared(name, PlanSpec::new(graph), start.elapsed(), Duration::ZERO)
        .map_err(|e| Box::new(WireResponse::err(id, &e)))?;
    Ok((plan.version, pulled.sha256))
}

/// Autoload-on-first-request: if `model` isn't loaded but the server has a
/// registry and the name parses as a model reference (a URL or an existing
/// path), pull and load it before the request proceeds. Missing models whose
/// names are *not* references fall through to the usual SV-MODEL error.
fn autoload(
    server: &Server,
    registry: Option<&Registry>,
    model: &str,
    id: u64,
) -> Result<(), Box<WireResponse>> {
    if server.plan(model).is_some() {
        return Ok(());
    }
    let Some(registry) = registry else {
        return Ok(());
    };
    let is_reference = model.contains("://") || std::path::Path::new(model).exists();
    if !is_reference {
        return Ok(());
    }
    load_from_registry(server, registry, model, model, None, id).map(|_| ())
}

fn run_infer(
    server: &Server,
    model: &str,
    env: Env,
    deadline_ms: Option<u64>,
    id: u64,
) -> WireResponse {
    let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let result = server
        .submit_with_deadline(model, env, deadline)
        .and_then(|ticket| ticket.wait());
    match result {
        Ok(outputs) => {
            let mut r = WireResponse::ok(id);
            r.outputs = Some(
                outputs
                    .iter()
                    .map(|(name, v)| (name.clone(), v.to_tensor_data()))
                    .collect(),
            );
            r
        }
        Err(e) => WireResponse::err(id, &e),
    }
}
