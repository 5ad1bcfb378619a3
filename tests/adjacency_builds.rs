//! One adjacency snapshot per model between the file bytes and the first
//! reply: on `ramiel serve <file>`'s start-up path and on a TCP `load`, the
//! importer's checks, the schedule, the clustering and the plan's slot
//! program all read the snapshot the importer built.
//!
//! `adjacency_builds` counts for the whole process, so this binary holds
//! one test and nothing else runs beside it.

use ramiel_ir::graph::adjacency_builds;
use ramiel_models::{build, ModelConfig, ModelKind};
use ramiel_onnx::export_model;
use ramiel_serve::{run_tcp, Registry, ServeConfig, Server, Source};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

#[test]
fn start_up_and_tcp_load_build_one_adjacency_per_model() {
    let dir = std::env::temp_dir().join(format!("ramiel-adjacency-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let files: Vec<(ModelKind, std::path::PathBuf)> = ModelKind::all()
        .into_iter()
        .map(|kind| {
            let path = dir.join(format!("{}.onnx", kind.name()));
            std::fs::write(&path, export_model(&build(kind, &ModelConfig::tiny()))).unwrap();
            (kind, path)
        })
        .collect();

    // `ramiel serve <file>` with default flags: read, import, schedule, plan.
    let server = Arc::new(Server::new(ServeConfig::default()));
    for (kind, path) in &files {
        let before = adjacency_builds();
        let source = Source::File(path.to_str().unwrap());
        server.load_onnx(kind.name(), source, false).unwrap();
        let reply = server
            .infer(kind.name(), synth(&server, kind.name()))
            .unwrap();
        assert!(!reply.is_empty());
        assert_eq!(
            adjacency_builds() - before,
            1,
            "start-up of {}",
            kind.name()
        );
    }

    // A TCP `load` of each file, then its first `infer_synth`.
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let registry = Arc::new(Registry::new(dir.join("cache")));
    let accepting = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || run_tcp(&server, "", listener, registry))
    };
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut rpc = |line: String| {
        writeln!(writer, "{line}").unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        assert!(resp.contains("\"ok\":true"), "{line}: {resp}");
    };
    for (kind, path) in &files {
        let name = format!("tcp-{}", kind.name());
        let before = adjacency_builds();
        rpc(format!(
            r#"{{"id":1,"op":"load","model":"{name}","source":"file://{}"}}"#,
            path.display()
        ));
        rpc(format!(
            r#"{{"id":2,"op":"infer_synth","model":"{name}","seed":1}}"#
        ));
        assert_eq!(
            adjacency_builds() - before,
            1,
            "TCP load of {}",
            kind.name()
        );
    }
    rpc(r#"{"id":3,"op":"shutdown"}"#.to_string());
    accepting.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Deterministic inputs for a loaded model's graph.
fn synth(server: &Server, model: &str) -> ramiel_runtime::Env {
    ramiel_runtime::synth_inputs(&server.plan(model).unwrap().graph, 1)
}
