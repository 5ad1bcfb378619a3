//! Newline-delimited JSON over `std::net` TCP — the transport behind
//! `ramiel serve <model.onnx> --port N`. One JSON object per line in each
//! direction; one thread per connection (the server's own admission
//! control is the concurrency limiter, not the transport). A connection
//! whose thread cannot be spawned is closed and counted in
//! `ramiel_conn_spawn_failed_total`; the listener keeps accepting.
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
//! An `infer`/`infer_synth` looks its model up once; one naming an unknown
//! model whose name parses as a model reference (a path or URL) is
//! *autoloaded* through the registry on first request.
//!
//! Response: `{"id":1,"ok":true,...}` with `outputs` / `stats` on success,
//! `error` + `code` (SV-*/RT-*) on failure. `model` is optional everywhere
//! and defaults to the model the server was started with.
//!
//! A request line may hold at most [`MAX_LINE_BYTES`]; a longer one is
//! answered with `SV-LIMIT` and its connection closed, so no client can
//! make a connection thread buffer an unbounded line.

use crate::plan::CompiledPlan;
use crate::registry::{Pulled, Registry};
use crate::server::{ServeError, Server, Source, Ticket};
use ramiel_ir::TensorData;
use ramiel_runtime::Env;
use ramiel_tensor::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The longest request line (newline excluded) a connection may send:
/// 64 MiB, about a thousand times the largest request the benchmark sends.
pub const MAX_LINE_BYTES: usize = 64 << 20;

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
}

/// Serve `server` on `listener` until a client sends `{"op":"shutdown"}`.
/// Prints `listening on ADDR` so callers binding port 0 can discover the
/// port. Blocks the calling thread; connections each get their own.
/// `registry` is where the `load` op and autoload pull models through.
pub fn run_tcp(
    server: &Arc<Server>,
    default_model: &str,
    listener: TcpListener,
    registry: Arc<Registry>,
) -> std::io::Result<()> {
    accept_loop(server, default_model, listener, registry, |conn| {
        std::thread::Builder::new()
            .name("ramiel-serve-conn".into())
            .spawn(conn)
            .map(drop)
    })
}

/// A connection's whole life, handed to the spawner as one job.
type ConnJob = Box<dyn FnOnce() + Send>;

/// The accept loop behind [`run_tcp`], with the thread spawn as a
/// parameter so a test can make it fail. A connection whose job cannot be
/// spawned is dropped (closing its socket) and counted; the loop goes on.
fn accept_loop(
    server: &Arc<Server>,
    default_model: &str,
    listener: TcpListener,
    registry: Arc<Registry>,
    spawn: impl Fn(ConnJob) -> std::io::Result<()>,
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
        let conn_server = Arc::clone(server);
        let model = default_model.to_string();
        let stop = Arc::clone(&stop);
        let registry = Arc::clone(&registry);
        let job: ConnJob = Box::new(move || {
            let shutdown_requested =
                handle_conn(&conn_server, &model, &registry, stream, MAX_LINE_BYTES);
            if shutdown_requested {
                conn_server.shutdown();
                stop.store(true, Ordering::SeqCst);
                // Unblock the accept loop so it can observe `stop`.
                let _ = TcpStream::connect(addr);
            }
        });
        if spawn(job).is_err() {
            server.count_conn_spawn_failure();
        }
    }
    Ok(())
}

/// Serve one connection, reading lines of at most `max_line` bytes; returns
/// true if the client requested shutdown.
fn handle_conn(
    server: &Server,
    default_model: &str,
    registry: &Registry,
    stream: TcpStream,
    max_line: usize,
) -> bool {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return false,
    };
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // One byte past the cap tells a line that overran it from one that
        // filled it.
        let limit = (max_line as u64).saturating_add(1);
        match (&mut reader).take(limit).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break, // client hung up
            Ok(_) => {}
        }
        let overran = buf.last() != Some(&b'\n') && buf.len() > max_line;
        let (resp, shutdown) = if overran {
            let limit = max_line;
            (
                WireResponse::err(0, &ServeError::LineTooLong { limit }),
                false,
            )
        } else {
            let Ok(line) = std::str::from_utf8(&buf) else {
                break; // not text: hang up, as on a read error
            };
            if line.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<WireRequest>(line) {
                Ok(req) => handle_request(server, default_model, registry, req),
                Err(e) => (
                    WireResponse::err(0, &ServeError::Internal(format!("bad request: {e}"))),
                    false,
                ),
            }
        };
        let mut out = serde_json::to_string(&resp).unwrap_or_else(|_| {
            r#"{"id":0,"ok":false,"error":"response serialization failed","code":"SV-INTERNAL"}"#
                .to_string()
        });
        out.push('\n');
        if writer.write_all(out.as_bytes()).is_err() || writer.flush().is_err() || overran {
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
    registry: &Registry,
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
            // The `model` name the plan is installed under defaults to the
            // lane the server was started with — a hot *swap*, not a new lane.
            match load(server, registry, model, source, req.sha256.as_deref()) {
                Ok((plan, pulled)) => {
                    let mut r = WireResponse::ok(id);
                    r.version = Some(plan.version);
                    r.sha256 = Some(pulled.map(|p| p.sha256).unwrap_or_default());
                    (r, false)
                }
                Err(e) => (WireResponse::err(id, &e), false),
            }
        }
        "infer" => {
            let Some(wire_inputs) = req.inputs else {
                return (
                    WireResponse::err(id, &ServeError::Internal("infer needs `inputs`".into())),
                    false,
                );
            };
            let decode = |_: &CompiledPlan| decode_inputs(&wire_inputs);
            let ticket = submit(server, registry, model, req.deadline_ms, decode);
            (respond(ticket, id), false)
        }
        "infer_synth" => {
            let seed = req.seed.unwrap_or(0);
            let synth = |plan: &CompiledPlan| Ok(ramiel_runtime::synth_inputs(&plan.graph, seed));
            let ticket = submit(server, registry, model, req.deadline_ms, synth);
            (respond(ticket, id), false)
        }
        other => (
            WireResponse::err(id, &ServeError::Internal(format!("unknown op `{other}`"))),
            false,
        ),
    }
}

/// Pull `source` through the registry (with an optional `pin`) and hot-swap
/// it in as `name`.
fn load(
    server: &Server,
    registry: &Registry,
    name: &str,
    reference: &str,
    pin: Option<&str>,
) -> Result<(Arc<CompiledPlan>, Option<Pulled>), ServeError> {
    let source = Source::Pull {
        registry,
        reference,
        pin,
    };
    server.load_onnx(name, source, false)
}

/// Admit one request to `model`, its inputs built from the plan it is
/// served by, with a deadline `deadline_ms` from admission. A miss on a
/// name that parses as a model reference (a URL or an existing path)
/// autoloads it through the registry and admits again; any other miss is
/// the usual `SV-MODEL`.
fn submit(
    server: &Server,
    registry: &Registry,
    model: &str,
    deadline_ms: Option<u64>,
    inputs: impl Fn(&CompiledPlan) -> Result<Env, ServeError>,
) -> Result<Ticket, ServeError> {
    let admit = || {
        let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
        server.admit(model, deadline, &inputs)
    };
    match admit() {
        Err(ServeError::UnknownModel(_))
            if model.contains("://") || std::path::Path::new(model).exists() =>
        {
            load(server, registry, model, model, None)?;
            admit()
        }
        admitted => admitted,
    }
}

/// The named input tensors of an `infer` request.
fn decode_inputs(wire: &BTreeMap<String, TensorData>) -> Result<Env, ServeError> {
    let decode = |(name, td): (&String, &TensorData)| match Value::from_tensor_data(td) {
        Ok(v) => Ok((name.clone(), v)),
        Err(e) => Err(ServeError::Internal(format!("bad tensor `{name}`: {e}"))),
    };
    wire.iter().map(decode).collect()
}

/// Wait for an admitted request and answer with its outputs.
fn respond(ticket: Result<Ticket, ServeError>, id: u64) -> WireResponse {
    match ticket.and_then(Ticket::wait) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServeConfig;
    use std::sync::atomic::AtomicUsize;

    /// A registry under the temporary directory; these tests pull nothing,
    /// so it is never created.
    fn scratch_registry() -> Arc<Registry> {
        let root = std::env::temp_dir().join(format!("ramiel-tcp-{}", std::process::id()));
        Arc::new(Registry::new(root))
    }

    /// A refused spawn (a full thread table) closes that one connection and
    /// counts it; the next connection is served and the listener lives on.
    #[test]
    fn a_failed_connection_spawn_drops_only_that_connection() {
        let server = Arc::new(Server::new(ServeConfig::default()));
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let attempts = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let accepting = s.spawn(|| {
                accept_loop(&server, "m", listener, scratch_registry(), |job| {
                    if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                        return Err(std::io::Error::other("thread table full"));
                    }
                    std::thread::Builder::new().spawn(job).map(drop)
                })
            });
            let mut refused = BufReader::new(TcpStream::connect(addr).unwrap());
            let mut line = String::new();
            assert_eq!(refused.read_line(&mut line).unwrap(), 0, "{line}");

            let served = TcpStream::connect(addr).unwrap();
            let mut writer = served.try_clone().unwrap();
            let mut reader = BufReader::new(served);
            for (req, want) in [("ping", "\"ok\":true"), ("shutdown", "\"ok\":true")] {
                writeln!(writer, "{{\"id\":1,\"op\":\"{req}\"}}").unwrap();
                line.clear();
                reader.read_line(&mut line).unwrap();
                assert!(line.contains(want), "{req}: {line}");
            }
            accepting.join().unwrap().unwrap();
        });
        assert_eq!(attempts.load(Ordering::SeqCst), 2);
        let failed = server
            .metrics()
            .read(crate::stats::CONN_SPAWN_FAILED, &[])
            .sum;
        assert_eq!(failed, 1);
    }

    /// A request line may fill the cap but not overrun it: lines of cap - 1
    /// and cap bytes are answered; one of cap + 1 bytes is refused with
    /// `SV-LIMIT` and its connection closed, and the server keeps serving.
    #[test]
    fn a_line_past_the_cap_is_refused_and_closes_its_connection() {
        const CAP: usize = 64;
        let server = Server::new(ServeConfig::default());
        let registry = scratch_registry();
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let ping = r#"{"id":1,"op":"ping"}"#;
        for (len, answered) in [(CAP - 1, true), (CAP, true), (CAP + 1, false)] {
            let mut client = TcpStream::connect(addr).unwrap();
            client
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let (conn, _) = listener.accept().unwrap();
            let (reply, closed, shutdown) = std::thread::scope(|s| {
                let serving = s.spawn(|| handle_conn(&server, "m", &registry, conn, CAP));
                // The ping, padded with spaces to `len` bytes, in one write.
                let line = format!("{ping:<len$}\n");
                client.write_all(line.as_bytes()).unwrap();
                let mut reader = BufReader::new(client.try_clone().unwrap());
                let mut reply = String::new();
                reader.read_line(&mut reply).ok();
                // A refused line's connection is closed by the server: EOF
                // (or a reset), not the read timeout.
                let closed = (!answered).then(|| match reader.read_line(&mut String::new()) {
                    Ok(n) => n == 0,
                    Err(e) => e.kind() == std::io::ErrorKind::ConnectionReset,
                });
                // Hang up so a server that kept the connection returns.
                client.shutdown(std::net::Shutdown::Write).ok();
                (reply, closed, serving.join().unwrap())
            });
            let want = if answered {
                r#""ok":true"#
            } else {
                r#""code":"SV-LIMIT""#
            };
            assert!(reply.contains(want), "{len} bytes: {reply}");
            assert_ne!(closed, Some(false), "{len} bytes: connection left open");
            assert!(!shutdown, "{len} bytes: shutdown requested");
        }
    }
}
