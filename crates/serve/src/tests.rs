use crate::plan::PlanSpec;
use crate::server::{OverflowPolicy, ServeConfig, ServeError, Server};
use ramiel_models::{build, synthetic, ModelConfig, ModelKind};
use ramiel_runtime::{run_sequential, synth_inputs};
use ramiel_tensor::ExecCtx;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn small_cfg() -> ServeConfig {
    ServeConfig {
        max_batch: 4,
        max_delay: Duration::from_millis(1),
        ..ServeConfig::default()
    }
}

#[test]
fn infer_matches_sequential() {
    let g = synthetic::fork_join(3, 2, 2);
    let server = Server::new(small_cfg());
    server.load("fj", PlanSpec::new(g.clone())).unwrap();
    let ctx = ExecCtx::sequential();
    for seed in 0..4u64 {
        let inputs = synth_inputs(&g, seed);
        let out = server.infer("fj", inputs.clone()).unwrap();
        let seq = run_sequential(&g, &inputs, &ctx).unwrap();
        assert_eq!(seq, out, "seed {seed}");
    }
    let snap = server.stats();
    assert_eq!(snap.completed, 4);
    assert_eq!(snap.failed, 0);
}

#[test]
fn unknown_model_is_rejected_at_admission() {
    let server = Server::new(small_cfg());
    let err = server.infer("nope", Default::default()).unwrap_err();
    assert_eq!(err.code(), "SV-MODEL");
}

#[test]
fn expired_deadline_is_rejected_before_execution() {
    let g = synthetic::chain(3);
    let server = Server::new(small_cfg());
    server.load("c", PlanSpec::new(g.clone())).unwrap();
    let past = Instant::now() - Duration::from_millis(5);
    let err = server
        .submit_with_deadline("c", synth_inputs(&g, 0), Some(past))
        .unwrap_err();
    assert_eq!(err.code(), "SV-DEADLINE");
    assert_eq!(server.stats().shed_deadline, 1);
}

#[test]
fn plan_cache_evicts_lru_and_drains_its_lane() {
    let server = Server::new(ServeConfig {
        plan_capacity: 2,
        ..small_cfg()
    });
    let a = synthetic::chain(3);
    let b = synthetic::fork_join(2, 2, 1);
    let c = synthetic::chain(4);
    server.load("a", PlanSpec::new(a.clone())).unwrap();
    server.load("b", PlanSpec::new(b)).unwrap();
    server.load("c", PlanSpec::new(c)).unwrap(); // evicts "a"
    assert_eq!(server.models(), vec!["c".to_string(), "b".to_string()]);
    let err = server.infer("a", synth_inputs(&a, 0)).unwrap_err();
    assert_eq!(err.code(), "SV-MODEL");
    // Survivors still serve.
    server
        .infer("b", synth_inputs(&synthetic::fork_join(2, 2, 1), 0))
        .unwrap();
}

#[test]
fn hot_reload_bumps_version_and_keeps_serving() {
    let g = synthetic::fork_join(2, 2, 2);
    let server = Server::new(small_cfg());
    let v1 = server.load("m", PlanSpec::new(g.clone())).unwrap().version;
    let inputs = synth_inputs(&g, 7);
    let before = server.infer("m", inputs.clone()).unwrap();
    let v2 = server.load("m", PlanSpec::new(g.clone())).unwrap().version;
    assert!(v2 > v1, "reload must bump the plan version");
    let after = server.infer("m", inputs.clone()).unwrap();
    assert_eq!(
        before, after,
        "same graph + inputs ⇒ same outputs across reload"
    );
}

#[test]
fn switched_plans_serve_correctly() {
    let g = build(ModelKind::Squeezenet, &ModelConfig::tiny());
    let server = Server::new(small_cfg());
    let spec = PlanSpec {
        switched: true,
        batch_sizes: vec![2, 4],
        ..PlanSpec::new(g.clone())
    };
    server.load("sq", PlanSpec { ..spec }).unwrap();
    let ctx = ExecCtx::sequential();
    let inputs = synth_inputs(&g, 3);
    let out = server.infer("sq", inputs.clone()).unwrap();
    assert_eq!(run_sequential(&g, &inputs, &ctx).unwrap(), out);
}

/// One slot resolution and one weight table per plan, whichever executor
/// a lane runs and whatever the batch size.
#[test]
fn steal_plans_share_the_plans_program_and_weights() {
    let g = build(ModelKind::Squeezenet, &ModelConfig::tiny());
    let server = Server::new(small_cfg());
    server.load("sq", PlanSpec::new(g)).unwrap();
    let plan = server.plan("sq").unwrap();
    for batch in [1usize, 3] {
        let sched = plan.schedule_for(batch).unwrap();
        let steal = plan.steal_plan_for(batch).unwrap();
        assert!(Arc::ptr_eq(sched.program(), steal.program()), "b{batch}");
        assert!(
            Arc::ptr_eq(&plan.init_values, steal.init_values()),
            "b{batch}"
        );
    }
}

#[test]
fn shutdown_rejects_new_work() {
    let g = synthetic::chain(3);
    let server = Server::new(small_cfg());
    server.load("c", PlanSpec::new(g.clone())).unwrap();
    server.shutdown();
    assert!(server.is_shutting_down());
    let err = server.infer("c", synth_inputs(&g, 0)).unwrap_err();
    assert_eq!(err.code(), "SV-SHUTDOWN");
    let err = server.load("d", PlanSpec::new(g)).unwrap_err();
    assert_eq!(err.code(), "SV-SHUTDOWN");
}

#[test]
fn shed_policy_reports_queue_full() {
    // Capacity-1 queue with shedding: saturate it from many threads while
    // the collector is busy; at least the queue bound must hold (no
    // unbounded growth), and any rejection must carry SV-FULL.
    let g = build(ModelKind::Squeezenet, &ModelConfig::tiny());
    let server = Arc::new(Server::new(ServeConfig {
        queue_capacity: 1,
        max_batch: 1,
        policy: OverflowPolicy::Shed,
        ..small_cfg()
    }));
    server.load("sq", PlanSpec::new(g.clone())).unwrap();
    let mut handles = Vec::new();
    for t in 0..8u64 {
        let server = Arc::clone(&server);
        let g = g.clone();
        handles.push(std::thread::spawn(move || {
            let mut shed = 0u32;
            for i in 0..4 {
                match server.infer("sq", synth_inputs(&g, t * 100 + i)) {
                    Ok(_) => {}
                    Err(ServeError::QueueFull { .. }) => shed += 1,
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
            shed
        }));
    }
    let shed: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let snap = server.stats();
    assert_eq!(snap.shed_queue_full, shed as u64);
    assert!(snap.peak_queue_depth <= 1, "bounded queue overflowed");
    assert_eq!(snap.completed + snap.failed, 32 - shed as u64);
}

#[test]
fn tcp_round_trip_ping_infer_stats_shutdown() {
    let g = synthetic::fork_join(2, 2, 2);
    let server = Arc::new(Server::new(small_cfg()));
    server.load("fj", PlanSpec::new(g.clone())).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let srv = Arc::clone(&server);
    let accept = std::thread::spawn(move || crate::tcp::run_tcp(&srv, "fj", listener));

    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut rpc = |line: &str| -> serde_json::Value {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        serde_json::from_str(&resp).unwrap()
    };

    let pong = rpc(r#"{"id":1,"op":"ping"}"#);
    assert_eq!(pong.get("ok").and_then(|v| v.as_bool()), Some(true));

    // Server-side synthetic inputs must agree with the reference executor.
    let resp = rpc(r#"{"id":2,"op":"infer_synth","seed":5}"#);
    assert_eq!(
        resp.get("ok").and_then(|v| v.as_bool()),
        Some(true),
        "{resp:?}"
    );
    let seq = run_sequential(&g, &synth_inputs(&g, 5), &ExecCtx::sequential()).unwrap();
    let outputs = resp.get("outputs").unwrap();
    for (name, v) in &seq {
        let wire = outputs
            .get(name)
            .unwrap_or_else(|| panic!("missing output {name}"));
        let want = serde_json::Value::from_serialize(&v.to_tensor_data());
        assert_eq!(&want, wire, "output {name}");
    }

    let bad = rpc(r#"{"id":3,"op":"infer"}"#);
    assert_eq!(bad.get("ok").and_then(|v| v.as_bool()), Some(false));

    let stats = rpc(r#"{"id":4,"op":"stats"}"#);
    assert_eq!(
        stats
            .get("stats")
            .and_then(|s| s.get("completed"))
            .and_then(|v| v.as_u64()),
        Some(1)
    );

    let bye = rpc(r#"{"id":5,"op":"shutdown"}"#);
    assert_eq!(bye.get("ok").and_then(|v| v.as_bool()), Some(true));
    accept.join().unwrap().unwrap();
    assert!(server.is_shutting_down());
}

#[test]
fn metrics_and_trace_verbs_over_tcp() {
    let g = synthetic::fork_join(2, 2, 2);
    let server = Arc::new(Server::new(small_cfg()));
    server.load("fj", PlanSpec::new(g.clone())).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let srv = Arc::clone(&server);
    let accept = std::thread::spawn(move || crate::tcp::run_tcp(&srv, "fj", listener));

    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut rpc = |line: &str| -> serde_json::Value {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        serde_json::from_str(&resp).unwrap()
    };

    for seed in 0..3 {
        let resp = rpc(&format!(
            r#"{{"id":{seed},"op":"infer_synth","seed":{seed}}}"#
        ));
        assert_eq!(resp.get("ok").and_then(|v| v.as_bool()), Some(true));
    }

    // `metrics`: well-formed Prometheus exposition with per-model latency
    // histograms and outcome counters.
    let resp = rpc(r#"{"id":10,"op":"metrics"}"#);
    assert_eq!(resp.get("ok").and_then(|v| v.as_bool()), Some(true));
    let text = resp.get("metrics").and_then(|m| m.as_str()).unwrap();
    let samples = ramiel_obs::parse_prometheus(text);
    assert!(!samples.is_empty(), "exposition parsed to zero samples");
    let completed = samples
        .iter()
        .find(|s| {
            s.name == "ramiel_requests_total"
                && s.label("model") == Some("fj")
                && s.label("outcome") == Some("completed")
        })
        .expect("completed counter for fj");
    assert_eq!(completed.value as u64, 3);
    assert!(
        samples.iter().any(|s| s.name == "ramiel_request_latency_ns_bucket"
            && s.label("model") == Some("fj")),
        "per-model latency histogram missing"
    );
    assert!(
        samples.iter().any(|s| s.name == "ramiel_steal_workers"),
        "steal-pool telemetry missing from exposition"
    );

    // `trace`: a valid Chrome trace with four spans per answered request.
    let resp = rpc(r#"{"id":11,"op":"trace"}"#);
    assert_eq!(resp.get("ok").and_then(|v| v.as_bool()), Some(true));
    let trace = resp.get("trace").unwrap();
    let stats = ramiel_obs::validate_chrome_trace(&trace.to_string()).expect("valid trace");
    assert_eq!(stats.complete_spans, 3 * 4);

    rpc(r#"{"id":12,"op":"shutdown"}"#);
    accept.join().unwrap().unwrap();
}

#[test]
fn latency_histograms_and_window_reset() {
    let g = synthetic::fork_join(2, 2, 2);
    let server = Server::new(small_cfg());
    server.load("fj", PlanSpec::new(g.clone())).unwrap();
    for seed in 0..6u64 {
        server.infer("fj", synth_inputs(&g, seed)).unwrap();
    }
    let snap = server.stats();
    assert_eq!(snap.completed, 6);
    // Phase/latency histograms populated with sane orderings.
    assert!(snap.latency_max_ms > 0.0, "latency max must be positive");
    assert!(snap.latency_p50_ms <= snap.latency_p99_ms);
    assert!(snap.latency_p99_ms <= snap.latency_max_ms * 1.0001);
    assert!(snap.queue_p50_ms <= snap.queue_p99_ms);
    assert!(snap.mean_queue_ms >= 0.0);
    assert!(
        snap.window_peak_queue_depth >= 1,
        "peak window never observed"
    );
    assert_eq!(snap.peak_queue_depth, snap.window_peak_queue_depth);

    // `stats` leaves the window running; the `metrics` scrape owns it.
    // With no new traffic the snapshot after a scrape reports zero, while
    // the lifetime peak persists.
    assert_eq!(
        server.stats().window_peak_queue_depth,
        snap.window_peak_queue_depth
    );
    server.metrics_text();
    let next = server.stats();
    assert_eq!(next.window_peak_queue_depth, 0);
    assert_eq!(next.peak_queue_depth, snap.peak_queue_depth);

    // The trace ring saw every answered request, newest retained.
    let ring = server.trace_ring().expect("tracing on by default");
    assert_eq!(ring.len(), 6);
    let chrome = server.trace_chrome().to_string();
    let stats = ramiel_obs::validate_chrome_trace(&chrome).expect("valid trace");
    assert_eq!(stats.complete_spans, 6 * 4);
}

#[test]
fn request_ids_are_unique_and_monotone() {
    let g = synthetic::chain(3);
    let server = Server::new(small_cfg());
    server.load("c", PlanSpec::new(g.clone())).unwrap();
    for seed in 0..5u64 {
        server.infer("c", synth_inputs(&g, seed)).unwrap();
    }
    let ring = server.trace_ring().unwrap();
    let ids: Vec<u64> = ring.snapshot().iter().map(|t| t.id).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), 5, "request ids must be unique: {ids:?}");
}

#[test]
fn disabled_trace_still_serves() {
    let g = synthetic::chain(3);
    let server = Server::new(ServeConfig {
        trace_capacity: 0,
        ..small_cfg()
    });
    server.load("c", PlanSpec::new(g.clone())).unwrap();
    server.infer("c", synth_inputs(&g, 1)).unwrap();
    assert!(server.trace_ring().is_none());
    // Metrics do not depend on the trace ring.
    let text = server.metrics_text();
    assert!(text.contains("ramiel_request_latency_ns"));
    assert!(text.contains("ramiel_server_models"));
    assert_eq!(server.stats().completed, 1);
    // Chrome trace degrades to a valid empty trace.
    let chrome = server.trace_chrome().to_string();
    ramiel_obs::validate_chrome_trace(&chrome).expect("empty trace is valid");
}

// ---- `stats` is a view of the metric registry -------------------------------

/// Sum of every sample named `name` carrying each of `with`'s labels.
fn registry_sum(samples: &[ramiel_obs::ParsedSample], name: &str, with: &[(&str, &str)]) -> u64 {
    samples
        .iter()
        .filter(|s| s.name == name && with.iter().all(|&(k, v)| s.label(k) == Some(v)))
        .map(|s| s.value as u64)
        .sum()
}

/// Two models through completions, a retried-then-fallen-back batch,
/// queue-full sheds, deadline sheds at admission and in the queue, and a
/// rejection after shutdown: every `stats` counter equals the matching
/// registry sum in the `metrics` exposition.
#[test]
fn stats_is_a_view_of_the_registry() {
    use ramiel_runtime::{Fault, FaultInjector, FaultKind, FaultPlan};
    let a = synthetic::chain(3);
    let b = synthetic::fork_join(2, 2, 2);
    // Node 0 of the first sample: the first execution stalls (so the queue
    // fills behind it), the next three fail retryably — the batch's two
    // retries included — and the sequential fallback after them succeeds.
    let fault = |exec_index, kind| Fault {
        node: 0,
        batch: 0,
        exec_index,
        kind,
    };
    let mut faults = vec![fault(0, FaultKind::RecvDelay { millis: 300 })];
    faults.extend((1..=3).map(|i| fault(i, FaultKind::KernelError)));
    let server = Server::new(ServeConfig {
        max_batch: 1,
        queue_capacity: 2,
        policy: OverflowPolicy::Shed,
        injector: Some(FaultInjector::new(FaultPlan { seed: 0, faults })),
        ..small_cfg()
    });
    server.load("a", PlanSpec::new(a.clone())).unwrap();
    server.load("b", PlanSpec::new(b.clone())).unwrap();

    let stalled = server.submit("a", synth_inputs(&a, 0)).unwrap();
    while server.stats().batches == 0 {
        std::thread::yield_now();
    }
    // Queued behind the stall: one that expires there, one that meets the
    // faults; the queue is then full.
    let soon = Instant::now() + Duration::from_millis(50);
    let expires = server
        .submit_with_deadline("a", synth_inputs(&a, 1), Some(soon))
        .unwrap();
    let retried = server.submit("a", synth_inputs(&a, 2)).unwrap();
    let full = server.submit("a", synth_inputs(&a, 3)).unwrap_err();
    assert_eq!(full.code(), "SV-FULL");
    let past = Instant::now() - Duration::from_millis(1);
    let late = server
        .submit_with_deadline("b", synth_inputs(&b, 0), Some(past))
        .unwrap_err();
    assert_eq!(late.code(), "SV-DEADLINE");
    stalled.wait().unwrap();
    let queued = expires.wait().unwrap_err();
    assert_eq!(queued, ServeError::DeadlineExceeded { stage: "queued" });
    retried.wait().unwrap();
    for seed in 1..4u64 {
        server.infer("a", synth_inputs(&a, seed)).unwrap();
        server.infer("b", synth_inputs(&b, seed)).unwrap();
    }
    server.shutdown();
    let refused = server.infer("b", synth_inputs(&b, 9)).unwrap_err();
    assert_eq!(refused.code(), "SV-SHUTDOWN");

    let s = server.stats();
    let samples = ramiel_obs::parse_prometheus(&server.metrics_text());
    let sum = |name, with: &[(&str, &str)]| registry_sum(&samples, name, with);
    let outcome = |o| sum("ramiel_requests_total", &[("outcome", o)]);
    let refused = |r| sum("ramiel_admission_rejected_total", &[("reason", r)]);
    assert_eq!(s.submitted, sum("ramiel_admitted_total", &[]));
    assert_eq!(s.completed, outcome("completed"));
    assert_eq!(s.failed, outcome("failed"));
    assert_eq!(s.shed_queue_full, outcome("shed_queue_full"));
    assert_eq!(
        s.shed_deadline,
        outcome("shed_deadline") + refused("deadline")
    );
    assert_eq!(
        s.rejected_shutdown,
        outcome("rejected_shutdown") + refused("shutdown")
    );
    assert_eq!(s.batches, sum("ramiel_batch_size_count", &[]));
    assert_eq!(s.retries, sum("ramiel_batch_retries_total", &[]));
    assert_eq!(s.fallbacks, sum("ramiel_batch_fallbacks_total", &[]));
    let window = |d| sum("ramiel_batch_window_total", &[("decision", d)]);
    assert_eq!(
        (s.windows_opened, s.windows_skipped),
        (window("opened"), window("skipped"))
    );
    assert_eq!(s.lane_builds, sum("ramiel_lane_build_ns_count", &[]));
    // ... and the workload reached every one of those counters.
    assert_eq!((s.submitted, s.completed, s.failed), (9, 8, 0));
    assert_eq!((s.shed_queue_full, s.shed_deadline), (1, 2));
    assert_eq!((s.retries, s.fallbacks, s.rejected_shutdown), (2, 1, 1));
    assert_eq!((s.batches, s.live_lanes), (8, 0));
}

/// Client-supplied model names never mint a series: 200 unknown names, in
/// process and over TCP `infer`, with past deadlines and after shutdown,
/// leave the exposition's set of (name, labels) pairs as it was.
#[test]
fn untrusted_names_mint_no_series() {
    let g = synthetic::chain(3);
    let server = Arc::new(Server::new(small_cfg()));
    server.load("c", PlanSpec::new(g.clone())).unwrap();
    await_lane_builds(&server, 1);
    // The steal-pool series are process-wide, shared with concurrent tests.
    let series = |server: &Server| -> Vec<(String, Vec<(String, String)>)> {
        let mut keys: Vec<_> = ramiel_obs::parse_prometheus(&server.metrics_text())
            .into_iter()
            .filter(|s| !s.name.starts_with("ramiel_steal_"))
            .map(|s| (s.name, s.labels))
            .collect();
        keys.sort();
        keys
    };
    let before = series(&server);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let srv = Arc::clone(&server);
    let accept = std::thread::spawn(move || crate::tcp::run_tcp(&srv, "c", listener));
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut rpc = |line: String| -> serde_json::Value {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        serde_json::from_str(&resp).unwrap()
    };
    let past = || Some(Instant::now() - Duration::from_millis(1));
    let mut send = |i: u32, [code, past_code]: [&str; 2]| {
        let name = format!("ghost-{i}\"{{le=\"1\"}}");
        let inputs = synth_inputs(&g, 0);
        let err = server.submit(&name, inputs.clone()).unwrap_err();
        assert_eq!(err.code(), code);
        let err = server
            .submit_with_deadline(&name, inputs, past())
            .unwrap_err();
        assert_eq!(err.code(), past_code);
        let model = serde_json::to_string(&name).unwrap();
        for deadline in ["", r#","deadline_ms":0"#] {
            let resp = rpc(format!(
                r#"{{"id":{i},"op":"infer","model":{model},"inputs":{{}}{deadline}}}"#
            ));
            assert_eq!(resp.get("ok").and_then(|v| v.as_bool()), Some(false));
        }
    };
    for i in 0..150 {
        send(i, ["SV-MODEL", "SV-DEADLINE"]);
    }
    server.shutdown();
    for i in 150..200 {
        send(i, ["SV-SHUTDOWN"; 2]);
    }
    assert_eq!(series(&server), before);
    rpc(r#"{"id":0,"op":"shutdown"}"#.to_string());
    accept.join().unwrap().unwrap();
}

/// The `stats` reply's keys, `load` included: the benchmark and `ci.sh`
/// read them by name.
#[test]
fn stats_wire_shape_is_pinned() {
    let server = Server::new(small_cfg());
    let json = serde_json::Value::from_serialize(&server.stats());
    let keys = |v: &serde_json::Value| -> Vec<String> {
        let mut k: Vec<String> = v.as_object().unwrap().iter().map(|e| e.0.clone()).collect();
        k.sort();
        k
    };
    assert_eq!(
        keys(&json),
        [
            "batch_histogram",
            "batches",
            "completed",
            "execute_p50_ms",
            "execute_p99_ms",
            "failed",
            "fallbacks",
            "lane_build_mean_ms",
            "lane_builds",
            "latency_max_ms",
            "latency_p50_ms",
            "latency_p90_ms",
            "latency_p99_ms",
            "live_lanes",
            "load",
            "mean_batch",
            "mean_queue_ms",
            "peak_queue_depth",
            "queue_p50_ms",
            "queue_p99_ms",
            "rejected_shutdown",
            "retries",
            "shed_deadline",
            "shed_queue_full",
            "submitted",
            "window_peak_queue_depth",
            "windows_opened",
            "windows_skipped",
        ]
    );
    assert_eq!(
        keys(json.get("load").unwrap()),
        [
            "compile_mean_ms",
            "fetch_mean_ms",
            "hash_mean_ms",
            "import_mean_ms",
            "loads",
            "plan_evictions",
            "pulls_checksum_refused",
            "pulls_hit",
            "pulls_miss",
            "store_mean_ms",
            "swap_mean_ms",
        ]
    );
}

// ---- the batch window opens only for company --------------------------------

/// `(opened, skipped)` from the registry's `ramiel_batch_window_total`.
fn window_counts(server: &Server, model: &str) -> (u64, u64) {
    let samples = ramiel_obs::parse_prometheus(&server.metrics().render_prometheus(false));
    let count = |decision: &str| {
        samples
            .iter()
            .find(|s| {
                s.name == "ramiel_batch_window_total"
                    && s.label("model") == Some(model)
                    && s.label("decision") == Some(decision)
            })
            .map_or(0, |s| s.value as u64)
    };
    (count("opened"), count("skipped"))
}

/// A server whose first execution of node 0 stalls for `millis`: whatever
/// is submitted meanwhile is queued before the collector comes back.
fn server_with_first_run_stalled(cfg: ServeConfig, millis: u64) -> Server {
    use ramiel_runtime::{Fault, FaultInjector, FaultKind, FaultPlan};
    Server::new(ServeConfig {
        injector: Some(FaultInjector::new(FaultPlan {
            seed: 0,
            faults: vec![Fault {
                node: 0,
                batch: 0,
                exec_index: 0,
                kind: FaultKind::RecvDelay { millis },
            }],
        })),
        ..cfg
    })
}

#[test]
fn lone_caller_never_opens_the_window() {
    let g = synthetic::fork_join(2, 2, 2);
    let window = Duration::from_millis(200);
    let server = Server::new(ServeConfig {
        max_delay: window,
        ..small_cfg()
    });
    server.load("fj", PlanSpec::new(g.clone())).unwrap();
    let start = Instant::now();
    for seed in 0..10u64 {
        server.infer("fj", synth_inputs(&g, seed)).unwrap();
    }
    let elapsed = start.elapsed();
    assert_eq!(window_counts(&server, "fj"), (0, 10));
    let snap = server.stats();
    assert_eq!((snap.windows_opened, snap.windows_skipped), (0, 10));
    assert_eq!(snap.mean_batch, 1.0);
    assert!(
        elapsed < window,
        "ten lone requests took {elapsed:?}: one of them waited for company"
    );
}

/// Two closed-loop callers, each sending its next request only once its
/// previous reply is in, driven from this thread in a fixed order so no
/// thread schedule decides the outcome: the lane starts busy (a stalled
/// warm-up run), both first requests queue behind it and leave as one
/// batch, and from then on every window the lane opens on that evidence is
/// closed by the partner's request. Nothing here depends on timing but the
/// 300 ms stall and the 200 ms window each outlasting two back-to-back
/// `submit` calls.
#[test]
fn two_callers_phase_lock_and_a_leaver_costs_one_window() {
    let g = synthetic::fork_join(2, 2, 2);
    let server = server_with_first_run_stalled(
        ServeConfig {
            max_batch: 2,
            max_delay: Duration::from_millis(200),
            ..ServeConfig::default()
        },
        300,
    );
    server.load("fj", PlanSpec::new(g.clone())).unwrap();
    let call = |t: u64, i: u64| server.submit("fj", synth_inputs(&g, t * 1000 + i)).unwrap();
    let warm_up = call(2, 0);
    while server.stats().batches == 0 {
        std::thread::yield_now();
    }
    let rounds = 50u64;
    let [mut a, mut b] = [call(0, 0), call(1, 0)];
    warm_up.wait().unwrap();
    for i in 1..rounds {
        a.wait().unwrap();
        a = call(0, i);
        b.wait().unwrap();
        b = call(1, i);
    }
    a.wait().unwrap();
    b.wait().unwrap();
    let snap = server.stats();
    assert_eq!(snap.completed, 2 * rounds + 1);
    let of_size = |n: usize| {
        snap.batch_histogram
            .iter()
            .find(|b| b.size == n)
            .map_or(0, |b| b.count)
    };
    assert_eq!(
        (of_size(1), of_size(2)),
        (1, rounds),
        "the warm-up runs alone and every round coalesces: {:?}",
        snap.batch_histogram
    );

    // One caller is gone. The survivor pays exactly one expired window
    // before the lane stops waiting for a partner that left.
    let before = window_counts(&server, "fj");
    for seed in 0..5u64 {
        server.infer("fj", synth_inputs(&g, 9000 + seed)).unwrap();
    }
    let after = window_counts(&server, "fj");
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        (1, 4),
        "(opened, skipped) windows for a lone survivor after its partner left"
    );
}

#[test]
fn queued_burst_still_coalesces_to_max_batch() {
    let g = synthetic::chain(3);
    let server = server_with_first_run_stalled(
        ServeConfig {
            max_batch: 4,
            max_delay: Duration::from_millis(1),
            ..ServeConfig::default()
        },
        300,
    );
    server.load("c", PlanSpec::new(g.clone())).unwrap();
    // The first request runs alone and stalls; the burst queues behind it.
    let first = server.submit("c", synth_inputs(&g, 0)).unwrap();
    while server.stats().batches == 0 {
        std::thread::yield_now();
    }
    let burst: Vec<_> = (1..=16u64)
        .map(|seed| server.submit("c", synth_inputs(&g, seed)).unwrap())
        .collect();
    first.wait().unwrap();
    for t in burst {
        t.wait().unwrap();
    }
    let snap = server.stats();
    let of_size = |n: usize| {
        snap.batch_histogram
            .iter()
            .find(|b| b.size == n)
            .map_or(0, |b| b.count)
    };
    assert_eq!(
        (of_size(1), of_size(4)),
        (1, 4),
        "{:?}",
        snap.batch_histogram
    );
    assert_eq!(snap.windows_opened, 0, "a full batch never waits");
}

// ---- lane lifecycle ----------------------------------------------------------

/// Poll `stats().lane_builds` until it reaches `want` (bounded).
fn await_lane_builds(server: &Server, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.stats().lane_builds < want {
        assert!(
            Instant::now() < deadline,
            "lane pool was never built: {} of {want} builds",
            server.stats().lane_builds
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn lane_pool_is_built_at_load_and_rebuilt_at_swap_without_requests() {
    let g = synthetic::fork_join(2, 2, 2);
    let server = Server::new(small_cfg());
    server.load("m", PlanSpec::new(g.clone())).unwrap();
    await_lane_builds(&server, 1);
    server.load("m", PlanSpec::new(g.clone())).unwrap();
    await_lane_builds(&server, 2);
    assert_eq!(server.stats().submitted, 0, "no request was ever submitted");
    let text = server.metrics().render_prometheus(false);
    let builds = ramiel_obs::parse_prometheus(&text)
        .into_iter()
        .find(|s| s.name == "ramiel_lane_build_ns_count" && s.label("model") == Some("m"))
        .expect("ramiel_lane_build_ns series for m");
    assert_eq!(builds.value as u64, 2);
    // Requests find the workers standing: nothing is built on their path.
    server.infer("m", synth_inputs(&g, 1)).unwrap();
    assert_eq!(server.stats().lane_builds, 2);
}

#[test]
fn evicted_lane_answers_its_requests_after_load_returned() {
    let g = synthetic::chain(3);
    let server = server_with_first_run_stalled(
        ServeConfig {
            plan_capacity: 1,
            ..small_cfg()
        },
        300,
    );
    server.load("a", PlanSpec::new(g.clone())).unwrap();
    // One request stalls in execution, five more queue behind it.
    let first = server.submit("a", synth_inputs(&g, 0)).unwrap();
    while server.stats().batches == 0 {
        std::thread::yield_now();
    }
    let mut tickets = vec![first];
    tickets.extend((1..6u64).map(|seed| server.submit("a", synth_inputs(&g, seed)).unwrap()));

    // Evicts `a` while all six are unanswered — and does not wait for them.
    server
        .load("b", PlanSpec::new(synthetic::chain(4)))
        .unwrap();
    assert_eq!(
        server.stats().completed,
        0,
        "`load` returned only after the evicted lane drained"
    );
    assert_eq!(
        server.infer("a", synth_inputs(&g, 9)).unwrap_err().code(),
        "SV-MODEL"
    );

    let ctx = ExecCtx::sequential();
    for (seed, t) in tickets.into_iter().enumerate() {
        let out = t
            .wait_timeout(Duration::from_secs(30))
            .unwrap_or_else(|e| panic!("request {seed} admitted to the evicted lane: {e}"));
        assert_eq!(
            run_sequential(&g, &synth_inputs(&g, seed as u64), &ctx).unwrap(),
            out
        );
    }
    assert!(server.stats().live_lanes >= 1);
    server.shutdown();
    // Collectors exit only after their pool's workers joined, and shutdown
    // joined every collector — the retired one included.
    assert_eq!(server.stats().live_lanes, 0);
}
