//! The cold-load path, end to end: `fetch → sha256 → cache → decode →
//! import → validate/shapes/verify → cluster → plan → swap`.
//!
//! - the single-pass import produces exactly the graph the staged pipeline
//!   (`validate`, then `infer_shapes`, then `verify_graph`) accepts, on the
//!   eight zoo topologies and the golden fixtures, and classifies every
//!   corrupted file as it did before the passes were merged;
//! - analyses handed one shared adjacency snapshot agree with the ones that
//!   build their own;
//! - a `load` over TCP reads the model bytes once, reports where its time
//!   went, and leaves no trace when the pin refuses it;
//! - each weight exists once between the importer and the plan: the buffer
//!   `import_model` returns is the buffer the plan's init table serves.

use ramiel_cluster::{
    cluster_graph, cluster_graph_with, distance_to_end, distance_to_end_with, hypercluster,
    linear_clustering, linear_clustering_with, StaticCost,
};
use ramiel_ir::topo::{topo_sort, topo_sort_with};
use ramiel_ir::validate::{validate, validate_with};
use ramiel_ir::Graph;
use ramiel_models::{build, ModelConfig, ModelKind};
use ramiel_onnx::{export_model, import_model};
use ramiel_runtime::{run_sequential, synth_inputs, PlannedBatch};
use ramiel_serve::{
    run_tcp_with_registry, sha256, CompiledPlan, PlanSpec, Registry, ServeConfig, Server, Source,
};
use ramiel_tensor::ExecCtx;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;

fn fixture(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The eight zoo graphs at full size, as the server sees them: imported
/// back from their exported bytes.
fn imported_zoo() -> Vec<(&'static str, Graph)> {
    ModelKind::all()
        .into_iter()
        .map(|kind| {
            let bytes = export_model(&build(kind, &ModelConfig::full()));
            let graph = import_model(&bytes)
                .unwrap_or_else(|e| panic!("{}: import failed: {e}", kind.name()));
            (kind.name(), graph)
        })
        .collect()
}

// ---- (b) single-pass import ------------------------------------------------

/// What the import used to do in separate passes, each building its own
/// adjacency: the imported graph must be a fixed point of all of them.
fn assert_staged_pipeline_agrees(name: &str, imported: &Graph) {
    validate(imported).unwrap_or_else(|e| panic!("{name}: validate: {e}"));
    let mut staged = imported.clone();
    staged.value_info.clear();
    ramiel_ir::shape::infer_shapes(&mut staged)
        .unwrap_or_else(|e| panic!("{name}: infer_shapes: {e}"));
    assert_eq!(&staged, imported, "{name}: value_info drifted");
    let errors: Vec<_> = ramiel_verify::verify_graph(imported)
        .into_iter()
        .filter(|d| d.severity == ramiel_verify::Severity::Error)
        .collect();
    assert!(errors.is_empty(), "{name}: {errors:?}");
}

#[test]
fn single_pass_import_equals_the_staged_pipeline() {
    for (name, graph) in imported_zoo() {
        assert_staged_pipeline_agrees(name, &graph);
    }
    for file in ["squeezenet_tiny.onnx", "bert_tiny.onnx"] {
        let graph = import_model(&fixture(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_staged_pipeline_agrees(file, &graph);
    }
    let err = import_model(&fixture("truncated.onnx")).unwrap_err();
    assert_eq!(err.code(), "ONNX-WIRE");
}

/// FNV-1a over the outcome (`ok` or the `ONNX-*` code) of importing every
/// variant of a sweep, in order.
fn outcome_digest(variants: impl Iterator<Item = Vec<u8>>) -> (u64, usize) {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut errors = 0;
    for bytes in variants {
        let outcome = match import_model(&bytes) {
            Ok(_) => "ok",
            Err(e) => {
                errors += 1;
                e.code()
            }
        };
        for b in outcome.bytes().chain([b'\n']) {
            hash = (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (hash, errors)
}

/// The truncation and single-byte xor sweeps of `onnx_golden.rs`, with the
/// outcome of every variant pinned to what the multi-pass importer reported
/// (digests taken at the parent commit, release build).
#[test]
fn corruption_sweeps_report_the_same_codes_as_before() {
    let bytes = fixture("squeezenet_tiny.onnx");
    let truncations = (0..bytes.len()).map(|cut| bytes[..cut].to_vec());
    assert_eq!(
        outcome_digest(truncations),
        (TRUNCATION_DIGEST, bytes.len()),
        "truncation sweep"
    );
    let flips = (0..bytes.len()).map(|i| {
        let mut copy = bytes.clone();
        copy[i] ^= 0xff;
        copy
    });
    assert_eq!(outcome_digest(flips), XOR_DIGEST, "xor sweep");
}

const TRUNCATION_DIGEST: u64 = 0x8abb_4a01_7af8_abe8;
const XOR_DIGEST: (u64, usize) = (0x7d82_c7d9_12ac_6ba5, 2158);

// ---- (d) one adjacency, many analyses --------------------------------------

#[test]
fn shared_adjacency_matches_per_call_adjacency() {
    for (name, g) in imported_zoo() {
        let adj = g.adjacency();

        // The snapshot itself, against the graph's slow edge queries.
        for node in &g.nodes {
            for out in &node.outputs {
                assert_eq!(adj.producer_of.get(out).copied(), g.producer(out), "{name}");
            }
        }
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for (u, succs) in adj.succs.iter().enumerate() {
            for &v in succs {
                assert!(
                    adj.preds[v].contains(&u),
                    "{name}: {u}->{v} has no pred entry"
                );
                edges.push((u, v));
            }
        }
        let mut want: Vec<(usize, usize)> = g.edges().iter().map(|&(u, v, _)| (u, v)).collect();
        want.sort_unstable();
        want.dedup();
        edges.sort_unstable();
        assert_eq!(edges, want, "{name}: succs disagree with Graph::edges");

        // Every analysis that takes the snapshot, against the one that
        // builds its own.
        assert_eq!(
            topo_sort_with(&g, &adj).unwrap(),
            topo_sort(&g).unwrap(),
            "{name}"
        );
        assert_eq!(
            validate_with(&g, &adj).unwrap(),
            topo_sort(&g).unwrap(),
            "{name}"
        );
        let dist = distance_to_end(&g, &StaticCost);
        assert_eq!(distance_to_end_with(&g, &adj, &StaticCost), dist, "{name}");
        let lc = linear_clustering(&g, &dist);
        assert_eq!(linear_clustering_with(&adj, &dist), lc, "{name}");
        let clustering = cluster_graph(&g, &StaticCost);
        assert_eq!(
            cluster_graph_with(&g, &adj, &StaticCost),
            clustering,
            "{name}"
        );
        let hc = hypercluster(&clustering, 2);
        assert_eq!(
            PlannedBatch::with_adjacency(&g, &adj, hc.clone()).unwrap(),
            PlannedBatch::new(&g, hc).unwrap(),
            "{name}: routing tables differ"
        );
    }
}

// ---- each weight exists once -----------------------------------------------

/// Name and data pointer of every f32 initializer payload of `graph`.
fn f32_buffers(graph: &Graph) -> Vec<(String, *const f32)> {
    graph
        .initializers
        .iter()
        .filter_map(|(name, t)| t.as_f32().map(|v| (name.clone(), v.as_ptr())))
        .collect()
}

/// `plan` serves each of `buffers` from the very allocation the importer
/// made, and its weight table answers for every weight by name.
fn assert_served_in_place(
    model: &str,
    path: &str,
    plan: &CompiledPlan,
    buffers: &[(String, *const f32)],
) {
    assert!(!buffers.is_empty(), "{model}: no f32 weights");
    assert!(plan.graph.initializers.is_empty(), "{model} via {path}");
    for (name, ptr) in buffers {
        let served = plan.weight(name).unwrap().f32().unwrap().data().as_ptr();
        assert_eq!(
            served, *ptr,
            "{model} via {path}: `{name}` was copied into the plan"
        );
    }
}

/// The two entry points that take a model to a plan: `Server::load` with a
/// graph the caller imported, and `Server::load_onnx` with the bytes (read
/// from a file). The
/// first plan serves the caller's import's own buffers; the second imports
/// inside the load, and its plan holds every weight in its table, none left
/// in its graph. Both share the plan build that moves the payloads. Each
/// plan answers bit-identically to the sequential executor on a graph
/// imported from the same bytes.
#[test]
fn each_weight_exists_once_from_import_to_the_plan() {
    let ctx = ExecCtx::sequential();
    for kind in [ModelKind::Bert, ModelKind::Squeezenet] {
        let model = kind.name();
        let bytes = export_model(&build(kind, &ModelConfig::full()));
        let reference = import_model(&bytes).unwrap();
        let inputs = synth_inputs(&reference, 5);
        let expected = run_sequential(&reference, &inputs, &ctx).unwrap();

        let server = Server::new(ServeConfig::default());
        let graph = import_model(&bytes).unwrap();
        let buffers = f32_buffers(&graph);
        let by_graph = server.load("graph", PlanSpec::new(graph)).unwrap();
        assert_served_in_place(model, "Server::load", &by_graph, &buffers);
        let path = std::env::temp_dir().join(format!(
            "ramiel-cold-load-once-{model}-{}.onnx",
            std::process::id()
        ));
        std::fs::write(&path, &bytes).unwrap();
        let source = Source::File(path.to_str().unwrap());
        let (by_bytes, _) = server.load_onnx("bytes", source, false).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(by_bytes.graph.initializers.is_empty(), "{model}");
        for (name, _) in &buffers {
            assert!(
                by_bytes.weight(name).unwrap().f32().is_ok(),
                "{model}: `{name}`"
            );
        }

        for (name, path) in [("graph", "Server::load"), ("bytes", "Server::load_onnx")] {
            let got = server.submit(name, inputs.clone()).unwrap().wait().unwrap();
            assert_eq!(got, expected, "{model} via {path}");
        }
        server.shutdown();
    }
}

// ---- (c) load semantics over TCP -------------------------------------------

struct Harness {
    server: Arc<Server>,
    registry: Registry,
    dir: PathBuf,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    accept: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Harness {
    /// A server with one resident model (`base`) behind a loopback socket
    /// and an empty registry cache.
    fn start(tag: &str) -> Harness {
        let dir =
            std::env::temp_dir().join(format!("ramiel-cold-load-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let registry = Registry::new(dir.join("cache"));
        let server = Arc::new(Server::new(ServeConfig::default()));
        let base = build(ModelKind::Squeezenet, &ModelConfig::tiny());
        server.load("base", PlanSpec::new(base)).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (srv, reg) = (Arc::clone(&server), Arc::new(registry.clone()));
        let accept =
            std::thread::spawn(move || run_tcp_with_registry(&srv, "base", listener, Some(reg)));
        let stream = TcpStream::connect(addr).unwrap();
        Harness {
            server,
            registry,
            dir,
            writer: stream.try_clone().unwrap(),
            reader: BufReader::new(stream),
            accept: Some(accept),
        }
    }

    /// Export a tiny model next to the cache; returns (`file://` url, sha256).
    fn model_file(&self, kind: ModelKind) -> (String, String) {
        let bytes = export_model(&build(kind, &ModelConfig::tiny()));
        let path = self.dir.join(format!("{}.onnx", kind.name()));
        std::fs::write(&path, &bytes).unwrap();
        (
            format!("file://{}", path.display()),
            sha256::hex_digest(&bytes),
        )
    }

    fn rpc(&mut self, line: &str) -> serde_json::Value {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        let mut resp = String::new();
        self.reader.read_line(&mut resp).unwrap();
        serde_json::from_str(&resp).unwrap()
    }

    fn load(&mut self, model: &str, source: &str, pin: &str) -> serde_json::Value {
        self.rpc(&format!(
            r#"{{"id":1,"op":"load","model":"{model}","source":"{source}","sha256":"{pin}"}}"#
        ))
    }

    /// Value of the first sample of `name` carrying `label` (any sample when
    /// `None`); 0 when the series has not been registered yet.
    fn metric(&mut self, name: &str, label: Option<(&str, &str)>) -> u64 {
        let resp = self.rpc(r#"{"id":2,"op":"metrics"}"#);
        let text = resp
            .get("metrics")
            .and_then(|m| m.as_str())
            .unwrap()
            .to_string();
        ramiel_obs::parse_prometheus(&text)
            .iter()
            .find(|s| s.name == name && label.is_none_or(|(k, v)| s.label(k) == Some(v)))
            .map_or(0, |s| s.value as u64)
    }

    fn phase_count(&mut self, phase: &str) -> u64 {
        self.metric("ramiel_load_phase_ns_count", Some(("phase", phase)))
    }

    fn pulls(&mut self, result: &str) -> u64 {
        self.metric("ramiel_registry_pulls_total", Some(("result", result)))
    }

    /// Everything under the cache root, temp files included.
    fn cache_files(&self) -> Vec<PathBuf> {
        fn walk(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
            for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
                let path = entry.path();
                if path.is_dir() {
                    walk(&path, out);
                } else {
                    out.push(path);
                }
            }
        }
        let mut out = Vec::new();
        walk(self.registry.root(), &mut out);
        out
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        let _ = self.writer.write_all(b"{\"op\":\"shutdown\"}\n");
        let mut bye = String::new();
        let _ = self.reader.read_line(&mut bye);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn refused_pin_leaves_no_blob_no_row_no_lane_no_version() {
    let mut h = Harness::start("refused");
    let (url, digest) = h.model_file(ModelKind::Googlenet);
    let versions_before = h.server.model_versions();

    let resp = h.load("fresh", &url, &"a".repeat(64));
    assert_eq!(
        resp.get("ok").and_then(|v| v.as_bool()),
        Some(false),
        "{resp:?}"
    );
    assert_eq!(
        resp.get("code").and_then(|v| v.as_str()),
        Some("RG-CHECKSUM")
    );

    // The pin is checked before anything is written or imported: nothing
    // on disk, nothing in the manifest, no lane, no version consumed.
    assert_eq!(h.cache_files(), Vec::<PathBuf>::new());
    assert!(h.registry.lookup(&digest).is_none());
    assert!(h.registry.manifest().unwrap().is_empty());
    assert_eq!(h.server.models(), vec!["base".to_string()]);
    assert_eq!(h.server.model_versions(), versions_before);
    assert!(h.server.plan("fresh").is_none());
    assert_eq!(h.pulls("checksum_refused"), 1);
    assert_eq!(h.pulls("miss") + h.pulls("hit"), 0);

    // The next accepted load takes the very next version: the refused one
    // did not burn it. Also under a hot swap of the resident lane.
    let next = versions_before["base"] + 1;
    let swapped = h.load("base", &url, &"b".repeat(64));
    assert_eq!(
        swapped.get("code").and_then(|v| v.as_str()),
        Some("RG-CHECKSUM")
    );
    assert_eq!(h.server.model_versions(), versions_before);
    let ok = h.load("fresh", &url, &digest);
    assert_eq!(ok.get("ok").and_then(|v| v.as_bool()), Some(true), "{ok:?}");
    assert_eq!(ok.get("version").and_then(|v| v.as_u64()), Some(next));
    assert_eq!(
        ok.get("sha256").and_then(|v| v.as_str()),
        Some(digest.as_str())
    );
}

#[test]
fn cache_hit_load_reads_the_model_once_and_phases_are_exported() {
    let mut h = Harness::start("phases");
    let (url, digest) = h.model_file(ModelKind::Googlenet);

    // Cold: one read of the source, one hash, one store.
    let first = h.load("m", &url, &digest);
    assert_eq!(
        first.get("ok").and_then(|v| v.as_bool()),
        Some(true),
        "{first:?}"
    );
    for phase in ["fetch", "hash", "store", "import"] {
        assert_eq!(h.phase_count(phase), 1, "cold load, phase {phase}");
    }
    assert_eq!((h.pulls("miss"), h.pulls("hit")), (1, 0));
    // `compile` and `swap` also saw the harness's own `Server::load`.
    assert_eq!((h.phase_count("compile"), h.phase_count("swap")), (2, 2));

    // Warm: the pinned digest is cached, so the only file read is the blob
    // (`fetch` is recorded once per read) and nothing is hashed or stored.
    // Delete the source to prove it is not touched.
    std::fs::remove_file(url.strip_prefix("file://").unwrap()).unwrap();
    let again = h.load("m", &url, &digest);
    assert_eq!(
        again.get("ok").and_then(|v| v.as_bool()),
        Some(true),
        "{again:?}"
    );
    assert_eq!(h.phase_count("fetch"), 2);
    assert_eq!((h.phase_count("hash"), h.phase_count("store")), (1, 1));
    assert_eq!(h.phase_count("import"), 2);
    assert_eq!((h.pulls("miss"), h.pulls("hit")), (1, 1));
    assert!(
        again.get("version").and_then(|v| v.as_u64())
            > first.get("version").and_then(|v| v.as_u64())
    );

    // `stats` carries the same story in summary form.
    let stats = h.rpc(r#"{"id":3,"op":"stats"}"#);
    let load = stats
        .get("stats")
        .and_then(|s| s.get("load"))
        .expect("load summary");
    let count = |k: &str| load.get(k).and_then(|v| v.as_u64());
    assert_eq!(count("loads"), Some(3));
    assert_eq!(
        (count("pulls_hit"), count("pulls_miss")),
        (Some(1), Some(1))
    );
    assert_eq!(count("pulls_checksum_refused"), Some(0));
    assert!(load.get("import_mean_ms").and_then(|v| v.as_f64()).unwrap() > 0.0);
}

#[test]
fn evictions_are_counted() {
    let mut h = Harness::start("evict");
    // plan_capacity is 4 and `base` holds one slot: the fifth name evicts.
    for (i, kind) in [
        ModelKind::Googlenet,
        ModelKind::InceptionV3,
        ModelKind::YoloV5,
        ModelKind::Bert,
    ]
    .into_iter()
    .enumerate()
    {
        let (url, digest) = h.model_file(kind);
        let resp = h.load(&format!("m{i}"), &url, &digest);
        assert_eq!(
            resp.get("ok").and_then(|v| v.as_bool()),
            Some(true),
            "{resp:?}"
        );
    }
    assert_eq!(h.server.models().len(), 4);
    assert_eq!(h.metric("ramiel_plan_evictions_total", None), 1);
    let stats = h.rpc(r#"{"id":3,"op":"stats"}"#);
    let evictions = stats
        .get("stats")
        .and_then(|s| s.get("load"))
        .and_then(|l| l.get("plan_evictions"))
        .and_then(|v| v.as_u64());
    assert_eq!(evictions, Some(1));
}
