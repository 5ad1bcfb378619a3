//! The four workloads and the closed-loop generator that drives them.
//!
//! Every workload is a closed loop: the paper's user is a caller that waits
//! for each answer. One thread per connection, at most `nproc` connections,
//! so the generator cannot build a queue deeper than that; queueing and
//! open-loop claims need an arrival-schedule workload this file does not
//! have.

use crate::gen::{self, Tensor, POOL};
use crate::layers::{self, Model};
use crate::server::{parse_reply, Conn, ServerChild, Stamps};
use crate::trace::{Span, Tracer};
use crate::DEFAULT_SEED;
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Batch-1 `infer` on one model from `conns` waiting callers.
    Infer { model: &'static str, conns: usize },
    /// One pinned `load` of the next model in a seeded cycle over all eight
    /// files, then one `infer` on it.
    ColdSwap,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Why the workload exists; `BENCHMARK.json` carries the same line.
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "b1_bert",
        kind: Kind::Infer {
            model: "bert",
            conns: 1,
        },
        why: "kernel-bound: one waiting caller on BERT, where tensor Gemm is most of the request and codec and batch-wait are little",
    },
    Workload {
        name: "b1_squeezenet",
        kind: Kind::Infer {
            model: "squeezenet",
            conns: 1,
        },
        why: "overhead-bound: 0.35 ms of compute behind a 65 KB JSON request, so batch-wait and codec set the latency and kernels do not",
    },
    Workload {
        name: "pair_nasnet",
        kind: Kind::Infer {
            model: "nasnet",
            conns: 2,
        },
        why: "scheduler-bound: two callers coalesce into batch-2 hypercluster runs of 1356 small nodes, so dispatch and channels dominate",
    },
    Workload {
        name: "cold_swap",
        kind: Kind::ColdSwap,
        why: "compile path: pinned load of the next of 8 models then one infer; 8 names over 4 plan slots, so every load evicts and recompiles",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `golden.json`: the sha256 of each exported `.onnx` file and, for
/// [`DEFAULT_SEED`], the digest of the reference outputs of every pool entry.
struct Golden(serde_json::Value);

struct GoldenModel {
    onnx_sha256: String,
    outputs: Vec<String>,
}

impl Golden {
    fn read(benchmark_dir: &Path) -> Result<Golden, String> {
        let path = benchmark_dir.join("golden.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let value: serde_json::Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if value.get("seed").and_then(|s| s.as_u64()) != Some(DEFAULT_SEED) {
            return Err(format!(
                "{}: not written for seed {DEFAULT_SEED}",
                path.display()
            ));
        }
        Ok(Golden(value))
    }

    fn model(&self, key: &str) -> Result<GoldenModel, String> {
        let m = self.0.get("models").and_then(|m| m.get(key));
        let sha = m
            .and_then(|m| m.get("onnx_sha256"))
            .and_then(|v| v.as_str());
        let outputs = m.and_then(|m| m.get("outputs")).and_then(|v| v.as_array());
        match (sha, outputs) {
            (Some(sha), Some(outputs)) => Ok(GoldenModel {
                onnx_sha256: sha.to_string(),
                outputs: outputs
                    .iter()
                    .filter_map(|d| d.as_str().map(str::to_string))
                    .collect(),
            }),
            _ => Err(format!("golden.json has no entry for {key}")),
        }
    }
}

pub struct ModelFixture {
    pub model: Model,
    /// Absolute path of the exported `.onnx` file.
    pub file: PathBuf,
    pub sha256: String,
    pub inputs: Vec<Vec<Tensor>>,
    /// Expected output digest per pool entry.
    pub expected: Vec<String>,
    /// Pre-serialized `infer` lines, one per pool entry; the line's `id` is
    /// its pool index.
    pub lines: Vec<Vec<u8>>,
    pub load_line: Vec<u8>,
    /// The lane name the server files this model's metrics under.
    pub lane: String,
}

/// Everything a workload needs, generated from the seed before any timing.
pub struct Fixture {
    pub workload: &'static Workload,
    pub models: Vec<ModelFixture>,
    /// `cold_swap`: the seeded order in which models are loaded.
    pub cycle: Vec<usize>,
}

impl Fixture {
    /// Export the workload's models into `dir`, check their digests against
    /// `golden.json` in `benchmark_dir`, generate the input pool from `seed`,
    /// and work out the expected outputs: the committed digests at
    /// [`DEFAULT_SEED`], the sequential scalar executor at any other seed.
    pub fn build(
        workload: &'static Workload,
        seed: u64,
        dir: &Path,
        benchmark_dir: &Path,
    ) -> Result<Fixture, String> {
        let golden = Golden::read(benchmark_dir)?;
        let keys: Vec<&'static str> = match workload.kind {
            Kind::Infer { model, .. } => vec![layers::ZOO
                .iter()
                .copied()
                .find(|k| *k == model)
                .expect("workload models are zoo models")],
            Kind::ColdSwap => layers::ZOO.to_vec(),
        };
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut models = Vec::new();
        for key in keys {
            let onnx = layers::export_zoo(key);
            let sha256 = layers::sha256_hex(&onnx);
            let committed = golden.model(key)?;
            if committed.onnx_sha256 != sha256 {
                return Err(format!(
                    "{key}.onnx has sha256 {sha256}, golden.json has {}: \
                     inputs differ; needs a benchmark issue",
                    committed.onnx_sha256
                ));
            }
            let file = dir.join(format!("{key}.onnx"));
            std::fs::write(&file, &onnx).map_err(|e| format!("{}: {e}", file.display()))?;
            let model = Model::import(key, onnx)?;
            let specs = model.input_specs();
            let inputs: Vec<Vec<Tensor>> = (0..POOL)
                .map(|i| gen::inputs(&specs, seed, key, i))
                .collect();
            let expected = if seed == DEFAULT_SEED {
                committed.outputs
            } else {
                model
                    .reference(&inputs)?
                    .iter()
                    .map(|out| gen::digest_tensors(out))
                    .collect()
            };
            if expected.len() != POOL {
                return Err(format!(
                    "{key}: golden.json holds {} digests, not {POOL}",
                    expected.len()
                ));
            }
            // A reply can only be told from another request's if their
            // references differ.
            let distinct: BTreeSet<&String> = expected.iter().collect();
            if distinct.len() != POOL {
                return Err(format!(
                    "{key}: only {} of the {POOL} reference outputs are distinct; \
                     the outputs do not depend on the inputs enough to check replies",
                    distinct.len()
                ));
            }
            // `cold_swap` names each lane after its model; the `b1_*` and
            // `pair_*` workloads use the lane `ramiel serve` starts with,
            // which it names after its model argument.
            let (wire_name, lane) = match workload.kind {
                Kind::Infer { .. } => (None, file.display().to_string()),
                Kind::ColdSwap => (Some(key), key.to_string()),
            };
            let lines = inputs
                .iter()
                .enumerate()
                .map(|(i, t)| gen::infer_line(i as u64, wire_name, t))
                .collect();
            let load_line = gen::load_line(0, key, &format!("file://{}", file.display()), &sha256);
            models.push(ModelFixture {
                model,
                file,
                sha256,
                inputs,
                expected,
                lines,
                load_line,
                lane,
            });
        }
        let cycle = gen::Rng::new(seed ^ 0xc01d_5a7b).permutation(models.len());
        Ok(Fixture {
            workload,
            models,
            cycle,
        })
    }

    pub fn conns(&self) -> usize {
        match self.workload.kind {
            Kind::Infer { conns, .. } => conns,
            Kind::ColdSwap => 1,
        }
    }

    /// (model, pool entry) of connection `conn`'s `n`-th operation.
    fn pick(&self, conn: usize, n: u64) -> (usize, usize) {
        match self.workload.kind {
            Kind::Infer { .. } => (0, (conn * (POOL / 2) + n as usize) % POOL),
            Kind::ColdSwap => {
                let k = self.cycle.len() as u64;
                (self.cycle[(n % k) as usize], ((n / k) as usize) % POOL)
            }
        }
    }

    /// Operations that touch every model once: what a cold start must
    /// answer before it counts as set up.
    fn first_touch_ops(&self) -> u64 {
        match self.workload.kind {
            Kind::Infer { .. } => 1,
            Kind::ColdSwap => self.cycle.len() as u64,
        }
    }
}

/// A connection records spans for this many of its requests; the rest of
/// the traced phase only feeds the latency samples and the server's own
/// counters. The cap keeps the trace small enough to validate in seconds.
const TRACED_REQUESTS: u64 = 100;

/// When a connection stops issuing operations.
#[derive(Clone, Copy)]
pub enum Stop {
    At(Instant),
    AfterOps(u64),
}

enum OpFail {
    /// The connection is out of step (error, timeout, hang-up): reconnect.
    Io(String),
    /// A reply arrived and is wrong: refused, malformed or a mismatch.
    Wrong(String),
}

struct OpDone {
    /// First byte written to last reply's newline read.
    latency: Duration,
    /// The op's round trips: (`load`|`infer`, stamps).
    trips: Vec<(&'static str, Stamps)>,
    verified: Instant,
}

struct Buffers {
    load_reply: Vec<u8>,
    reply: Vec<u8>,
}

fn check_infer(reply: &[u8], id: usize, expected: &str) -> Result<(), String> {
    let value = parse_reply(reply)?;
    if value.get("id").and_then(|v| v.as_u64()) != Some(id as u64) {
        return Err(format!("reply is not for request {id}"));
    }
    let got = gen::digest_reply_outputs(value.get("outputs").unwrap_or(&serde_json::Value::Null))?;
    if got != expected {
        return Err(format!(
            "output mismatch on input {id}: digest {got}, expected {expected}"
        ));
    }
    Ok(())
}

fn run_op(
    fx: &Fixture,
    conn: &mut Conn,
    conn_idx: usize,
    n: u64,
    buf: &mut Buffers,
) -> Result<OpDone, OpFail> {
    let (mi, pi) = fx.pick(conn_idx, n);
    let mf = &fx.models[mi];
    let io = |e: std::io::Error| OpFail::Io(e.to_string());
    let mut trips = Vec::with_capacity(2);
    if fx.workload.kind == Kind::ColdSwap {
        trips.push((
            "load",
            conn.roundtrip(&mf.load_line, &mut buf.load_reply)
                .map_err(io)?,
        ));
    }
    trips.push((
        "infer",
        conn.roundtrip(&mf.lines[pi], &mut buf.reply).map_err(io)?,
    ));
    let latency = trips[trips.len() - 1].1.done - trips[0].1.start;

    // Verification happens after the stamp.
    if fx.workload.kind == Kind::ColdSwap {
        let loaded = parse_reply(&buf.load_reply).map_err(OpFail::Wrong)?;
        if loaded.get("sha256").and_then(|v| v.as_str()) != Some(mf.sha256.as_str()) {
            return Err(OpFail::Wrong(format!(
                "load of {} answered another digest",
                mf.model.key
            )));
        }
    }
    check_infer(&buf.reply, pi, &mf.expected[pi]).map_err(OpFail::Wrong)?;
    Ok(OpDone {
        latency,
        trips,
        verified: Instant::now(),
    })
}

/// What one phase of a workload measured.
#[derive(Default)]
pub struct Phase {
    /// Latency of every verified-correct operation, milliseconds.
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    /// Errors + refusals + timeouts + output mismatches.
    pub failed: u64,
    /// Phase start to the last connection finishing.
    pub elapsed_s: f64,
    /// The first few failure messages, for the report.
    pub errors: Vec<String>,
    /// Per model, the first verified `infer` reply line.
    pub sample_replies: Vec<Option<Vec<u8>>>,
}

struct ConnOutcome {
    phase: Phase,
    finished: Instant,
    spans: Vec<Span>,
}

fn drive(
    fx: &Fixture,
    addr: SocketAddr,
    conn_idx: usize,
    stop: Stop,
    trace: Option<(&Tracer, u64)>,
) -> ConnOutcome {
    let tid = conn_idx as u32 + 1;
    let mut phase = Phase {
        sample_replies: vec![None; fx.models.len()],
        ..Phase::default()
    };
    let mut spans = Vec::new();
    let mut buf = Buffers {
        load_reply: Vec::new(),
        reply: Vec::new(),
    };
    let mut conn: Option<Conn> = None;
    let mut n = 0u64;
    let fail = |phase: &mut Phase, msg: String| {
        phase.failed += 1;
        if phase.errors.len() < 3 {
            phase.errors.push(msg);
        }
    };
    loop {
        match stop {
            Stop::At(t) if Instant::now() >= t => break,
            Stop::AfterOps(k) if n >= k => break,
            _ => {}
        }
        phase.attempted += 1;
        let op = n;
        n += 1;
        let c = match &mut conn {
            Some(c) => c,
            None => {
                let start = Instant::now();
                match Conn::connect(addr) {
                    Ok(c) => {
                        if let Some((tracer, parent)) = trace {
                            spans.push(Span {
                                id: tracer.next_id(),
                                parent,
                                name: "connect".into(),
                                cat: "bench",
                                tid,
                                start,
                                end: Instant::now(),
                                request: None,
                            });
                        }
                        conn.insert(c)
                    }
                    Err(e) => {
                        // A dead server fails every remaining op without
                        // spinning or hanging.
                        fail(&mut phase, format!("connect: {e}"));
                        std::thread::sleep(Duration::from_millis(10));
                        continue;
                    }
                }
            }
        };
        match run_op(fx, c, conn_idx, op, &mut buf) {
            Ok(done) => {
                phase.latencies_ms.push(done.latency.as_secs_f64() * 1e3);
                let mi = fx.pick(conn_idx, op).0;
                if phase.sample_replies[mi].is_none() {
                    phase.sample_replies[mi] = Some(buf.reply.clone());
                }
                if let Some((tracer, parent)) = trace.filter(|_| op < TRACED_REQUESTS) {
                    let request = tracer.next_id();
                    let mut span = |name: &str, cat: &'static str, parent, start, end| {
                        spans.push(Span {
                            id: if name == "request" {
                                request
                            } else {
                                tracer.next_id()
                            },
                            parent,
                            name: name.to_string(),
                            cat,
                            tid,
                            start,
                            end,
                            request: Some(request),
                        })
                    };
                    span(
                        "request",
                        "bench",
                        parent,
                        done.trips[0].1.start,
                        done.verified,
                    );
                    for (cat, s) in &done.trips {
                        span("send", cat, request, s.start, s.sent);
                        span("wait", cat, request, s.sent, s.first_byte);
                        span("recv", cat, request, s.first_byte, s.done);
                    }
                    let last = done.trips[done.trips.len() - 1].1.done;
                    span("verify", "bench", request, last, done.verified);
                }
            }
            Err(OpFail::Io(e)) => {
                fail(&mut phase, e);
                conn = None;
            }
            Err(OpFail::Wrong(e)) => fail(&mut phase, e),
        }
    }
    ConnOutcome {
        phase,
        finished: Instant::now(),
        spans,
    }
}

/// Run one closed-loop phase on `fx.conns()` connections. With a tracer the
/// phase is a span and every request a child of it.
pub fn run_phase(
    fx: &Fixture,
    addr: SocketAddr,
    stop: impl Fn(Instant) -> Stop,
    trace: Option<(&Tracer, &str)>,
) -> Phase {
    let body = |parent: Option<u64>| {
        let start = Instant::now();
        let stop = stop(start);
        let outcomes: Vec<ConnOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..fx.conns())
                .map(|i| {
                    let trace = trace.map(|(t, _)| (t, parent.unwrap_or(0)));
                    s.spawn(move || drive(fx, addr, i, stop, trace))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a connection thread panicked"))
                .collect()
        });
        let mut total = Phase {
            sample_replies: vec![None; fx.models.len()],
            ..Phase::default()
        };
        let mut finished = start;
        for o in outcomes {
            total.latencies_ms.extend(o.phase.latencies_ms);
            total.attempted += o.phase.attempted;
            total.failed += o.phase.failed;
            total.errors.extend(o.phase.errors);
            for (slot, reply) in total.sample_replies.iter_mut().zip(o.phase.sample_replies) {
                if slot.is_none() {
                    *slot = reply;
                }
            }
            finished = finished.max(o.finished);
            if let Some((tracer, _)) = trace {
                tracer.extend(o.spans);
            }
        }
        total.elapsed_s = (finished - start).as_secs_f64();
        total
    };
    match trace {
        Some((tracer, name)) => tracer.scope(name, "bench", 0, |id| body(Some(id))).0,
        None => body(None),
    }
}

/// One cold start: spawn `ramiel serve` on the workload's first model with
/// an empty registry cache, and time from `spawn` to the first verified
/// reply on every model the workload uses (for `cold_swap`: a ping, then
/// one load + infer of each file). One connection sends them, whatever the
/// workload's count: whether two first requests coalesce is a race, and the
/// set-up they time would be that of one plan or of two.
pub fn cold_start(fx: &Fixture, ramiel: &Path, cache: &Path) -> Result<(ServerChild, f64), String> {
    let start = Instant::now();
    let server = ServerChild::spawn(ramiel, &fx.models[0].file, cache)?;
    if fx.workload.kind == Kind::ColdSwap {
        Conn::connect(server.addr)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.call("ping"))
            .map_err(|e| format!("first ping: {e}"))?;
    }
    let ops = fx.first_touch_ops();
    let phase = drive(fx, server.addr, 0, Stop::AfterOps(ops), None).phase;
    let setup_s = start.elapsed().as_secs_f64();
    if phase.failed > 0 {
        return Err(format!(
            "set-up: {} of {} first replies failed: {}",
            phase.failed,
            phase.attempted,
            phase.errors.join("; ")
        ));
    }
    Ok((server, setup_s))
}
