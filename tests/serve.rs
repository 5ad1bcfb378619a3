//! Serving-layer integration: concurrent clients through [`Server`] must
//! get answers bit-identical to the reference sequential executor, and
//! shutdown must drain — every admitted request is answered, never dropped.
//! Hostile model files are refused with a coded reply at every TCP entry.

#[path = "support/hostile.rs"]
mod hostile;

use ramiel::PipelineOptions;
use ramiel_cluster::{bound_clusters, hypercluster, CostModel, StaticCost};
use ramiel_models::{build, synthetic, ModelConfig, ModelKind};
use ramiel_runtime::{run_sequential, synth_inputs, Env, HyperPool, PlannedBatch};
use ramiel_serve::{run_tcp, OverflowPolicy, PlanSpec, Registry, ServeConfig, Server, Ticket};
use ramiel_tensor::ExecCtx;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        max_batch: 4,
        ..ServeConfig::default()
    }
}

#[test]
fn concurrent_clients_get_bit_identical_results() {
    // The acceptance contract: N client threads hammer one Server; every
    // response equals run_sequential on the same inputs, bit for bit, no
    // matter how requests were coalesced into batches.
    let g = build(ModelKind::Squeezenet, &ModelConfig::tiny());
    let server = Arc::new(Server::new(serve_cfg()));
    server.load("sq", PlanSpec::new(g.clone())).unwrap();

    let graph = Arc::new(g);
    let threads = 8;
    let per_thread = 4;
    let mut handles = Vec::new();
    for t in 0..threads as u64 {
        let server = Arc::clone(&server);
        let graph = Arc::clone(&graph);
        handles.push(std::thread::spawn(move || {
            let ctx = ExecCtx::sequential();
            for i in 0..per_thread as u64 {
                let seed = t * 1000 + i;
                let inputs = synth_inputs(&graph, seed);
                let out = server.infer("sq", inputs.clone()).unwrap();
                let seq = run_sequential(&graph, &inputs, &ctx).unwrap();
                assert_eq!(seq, out, "thread {t} request {i} diverged");
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let s = server.stats();
    assert_eq!(s.completed, (threads * per_thread) as u64);
    assert_eq!(s.failed, 0);
    assert_eq!(s.shed_queue_full + s.shed_deadline, 0);
    // Batches were really formed (coalescing may vary run to run, but the
    // counters must account for every request exactly once).
    let hist_total: u64 = s
        .batch_histogram
        .iter()
        .map(|b| b.count * b.size as u64)
        .sum();
    assert_eq!(hist_total, s.completed);
    // The per-phase latency histograms saw every answered request and
    // report ordered quantiles.
    assert!(s.latency_max_ms > 0.0);
    assert!(s.latency_p50_ms <= s.latency_p99_ms);
    assert!(s.latency_p99_ms <= s.latency_max_ms * 1.0001);
    assert!(s.peak_queue_depth >= 1);
}

/// The paper's clustering folded to two workers (the fold every `serve`
/// plan takes on a two-core host) runs every zoo model on the standing
/// pool, at batch 1 and at batch 2, bit-identically to the sequential
/// executor.
#[test]
fn plans_folded_to_two_workers_serve_bit_identical_results() {
    let ctx = ExecCtx::sequential();
    for kind in ModelKind::all() {
        let scheduled = ramiel::schedule(
            build(kind, &ModelConfig::tiny()),
            &PipelineOptions::default(),
        )
        .unwrap();
        let g = &scheduled.graph;
        let cost: Vec<u64> = g.nodes.iter().map(|n| StaticCost.node_cost(g, n)).collect();
        let folded = bound_clusters(&scheduled.clustering, &scheduled.distances, &cost, 2);
        assert!(folded.num_clusters() <= 2, "{}", kind.name());
        let mut pool = HyperPool::new(g, folded.num_clusters(), &ctx).unwrap();
        for batch in [1, 2] {
            let plan = Arc::new(PlannedBatch::new(g, hypercluster(&folded, batch)).unwrap());
            let inputs: Vec<Env> = (0..batch as u64)
                .map(|seed| synth_inputs(g, seed))
                .collect();
            let outs = pool.run_batch(&plan, &Arc::new(inputs.clone())).unwrap();
            for (inputs, out) in inputs.iter().zip(&outs) {
                let expected = run_sequential(g, inputs, &ctx).unwrap();
                assert_eq!(out, &expected, "{} batch {batch}", kind.name());
            }
        }
    }
}

#[test]
fn shutdown_drains_in_flight_requests() {
    // Admit a burst of requests, then shut down while they are queued or
    // executing: all of them must still be answered (with outputs), and
    // post-shutdown submissions must be rejected.
    let g = synthetic::fork_join(3, 2, 2);
    let server = Arc::new(Server::new(ServeConfig {
        max_batch: 4,
        ..ServeConfig::default()
    }));
    server.load("fj", PlanSpec::new(g.clone())).unwrap();

    let tickets: Vec<(u64, Ticket)> = (0..16u64)
        .map(|seed| (seed, server.submit("fj", synth_inputs(&g, seed)).unwrap()))
        .collect();
    server.shutdown();

    let ctx = ExecCtx::sequential();
    for (seed, ticket) in tickets {
        let out = ticket
            .wait_timeout(Duration::from_secs(30))
            .unwrap_or_else(|e| panic!("admitted request {seed} was dropped: {e}"));
        let seq = run_sequential(&g, &synth_inputs(&g, seed), &ctx).unwrap();
        assert_eq!(seq, out, "drained request {seed} diverged");
    }
    let err = server.infer("fj", synth_inputs(&g, 99)).unwrap_err();
    assert_eq!(err.code(), "SV-SHUTDOWN");
    let s = server.stats();
    assert_eq!(s.completed, 16);
    assert_eq!(s.failed, 0);
}

#[test]
fn deadlines_shed_dead_on_arrival_work() {
    // With an already-expired deadline relative to the queue wait, requests
    // must be rejected (admission or queued stage), not executed.
    let g = synthetic::chain(3);
    let server = Server::new(ServeConfig {
        max_batch: 2,
        policy: OverflowPolicy::Shed,
        ..ServeConfig::default()
    });
    server.load("c", PlanSpec::new(g.clone())).unwrap();
    let mut shed = 0;
    for seed in 0..6u64 {
        let deadline = std::time::Instant::now() - Duration::from_millis(1);
        match server.submit_with_deadline("c", synth_inputs(&g, seed), Some(deadline)) {
            Err(e) => {
                assert_eq!(e.code(), "SV-DEADLINE");
                shed += 1;
            }
            Ok(t) => {
                // Raced past admission; the queued-stage check must get it.
                let e = t.wait_timeout(Duration::from_secs(10)).unwrap_err();
                assert_eq!(e.code(), "SV-DEADLINE");
                shed += 1;
            }
        }
    }
    assert_eq!(shed, 6);
    assert_eq!(server.stats().shed_deadline, 6);
    assert_eq!(server.stats().completed, 0);
}

/// Every way a model file reaches a plan over TCP — a `load` through the
/// registry and autoload on first request — imports it as ONNX: a JSON
/// graph and ONNX graphs with a cycle or a duplicate output are refused
/// with their `ONNX-*` code, no version is consumed, and the connection
/// keeps answering.
#[test]
fn hostile_models_are_refused_at_every_entry() {
    let dir = std::env::temp_dir().join(format!("ramiel-serve-hostile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let registry = Arc::new(Registry::new(dir.join("cache")));
    let server = Arc::new(Server::new(serve_cfg()));
    let base = build(ModelKind::Squeezenet, &ModelConfig::tiny());
    server.load("base", PlanSpec::new(base)).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let srv = Arc::clone(&server);
    let accept = std::thread::spawn(move || run_tcp(&srv, "base", listener, registry));
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut rpc = |line: String| -> serde_json::Value {
        writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        serde_json::from_str(&resp).unwrap_or_else(|e| panic!("no reply to {line}: {e}"))
    };

    let versions = server.model_versions();
    for (file, bytes, code) in hostile::cases() {
        let path = dir.join(file);
        std::fs::write(&path, bytes).unwrap();
        let path = path.to_str().unwrap();
        let requests = [
            // Hot swap of the resident model from a `file://` source.
            format!(r#"{{"id":1,"op":"load","model":"base","source":"file://{path}"}}"#),
            // Autoload: the model name is an existing path.
            format!(r#"{{"id":2,"op":"infer_synth","model":"{path}"}}"#),
        ];
        for request in requests {
            let resp = rpc(request);
            assert_eq!(resp["ok"].as_bool(), Some(false), "{file}: {resp}");
            assert_eq!(resp["code"].as_str(), Some(code), "{file}: {resp}");
            assert_eq!(server.model_versions(), versions, "{file}: a version moved");
            let pong = rpc(r#"{"id":3,"op":"ping"}"#.into());
            assert_eq!(pong["ok"].as_bool(), Some(true), "{file}: {pong}");
        }
        assert!(server.plan(path).is_none(), "{file} was installed");
    }
    rpc(r#"{"op":"shutdown"}"#.into());
    accept.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
