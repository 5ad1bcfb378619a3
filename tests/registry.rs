//! Registry + hot-swap integration tests: content-addressed pulls over
//! `file://` and loopback `http://`, sha256 pinning (including the
//! refuse-before-cache contract on mismatch), manifest provenance, and
//! checksum-pinned hot swap into a live `Server` with an observable plan
//! version bump — the programmatic twin of ci.sh's registry gate.

use ramiel_models::{build, ModelConfig, ModelKind};
use ramiel_serve::{sha256, PlanSpec, Registry, RegistryError, ServeConfig, Server};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Unique scratch dir per test so parallel tests don't share caches.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ramiel-registry-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Export a tiny model into `dir` and return (path, bytes, sha256 hex).
fn fixture_model(dir: &Path) -> (PathBuf, Vec<u8>, String) {
    let g = build(ModelKind::Squeezenet, &ModelConfig::tiny());
    let bytes = ramiel_onnx::export_model(&g);
    let path = dir.join("model.onnx");
    std::fs::write(&path, &bytes).unwrap();
    let digest = sha256::hex_digest(&bytes);
    (path, bytes, digest)
}

#[test]
fn file_pull_is_content_addressed_and_manifested() {
    let dir = scratch("file-pull");
    let (path, bytes, digest) = fixture_model(&dir);
    let registry = Registry::new(dir.join("cache"));

    let pulled = registry
        .pull(&format!("file://{}", path.display()), None)
        .unwrap();
    assert_eq!(pulled.sha256, digest);
    assert_eq!(pulled.bytes, bytes.len() as u64);
    assert!(!pulled.cache_hit);
    assert_eq!(std::fs::read(&pulled.path).unwrap(), bytes);
    // Blob lands under <root>/sha256/<hex>.
    assert!(pulled.path.ends_with(PathBuf::from("sha256").join(&digest)));

    // Manifest records provenance for the digest.
    let manifest = registry.manifest().unwrap();
    let entry = manifest.get(&digest).expect("manifest entry");
    assert!(entry.source.ends_with("model.onnx"));
    assert_eq!(entry.bytes, bytes.len() as u64);
}

#[test]
fn pinned_pull_hits_the_cache_without_refetching() {
    let dir = scratch("pin-hit");
    let (path, _, digest) = fixture_model(&dir);
    let registry = Registry::new(dir.join("cache"));
    let url = format!("file://{}", path.display());

    registry.pull(&url, Some(&digest)).unwrap();
    // Delete the source: a pinned re-pull must be served from cache alone.
    std::fs::remove_file(&path).unwrap();
    let again = registry.pull(&url, Some(&digest)).unwrap();
    assert!(again.cache_hit);
    assert_eq!(again.sha256, digest);
}

#[test]
fn checksum_mismatch_refuses_before_caching() {
    let dir = scratch("pin-miss");
    let (path, _, digest) = fixture_model(&dir);
    let registry = Registry::new(dir.join("cache"));
    let wrong = "a".repeat(64);

    let err = registry
        .pull(&format!("file://{}", path.display()), Some(&wrong))
        .unwrap_err();
    match &err {
        RegistryError::Checksum { expected, actual } => {
            assert_eq!(expected, &wrong);
            assert_eq!(actual, &digest);
        }
        other => panic!("expected RG-CHECKSUM, got {other:?}"),
    }
    assert_eq!(err.code(), "RG-CHECKSUM");
    // Nothing cached under either digest.
    assert!(registry.lookup(&digest).is_none());
    assert!(registry.lookup(&wrong).is_none());
}

#[test]
fn malformed_pin_and_unknown_scheme_are_structured() {
    let dir = scratch("bad-inputs");
    let registry = Registry::new(dir.join("cache"));
    // A malformed pin is a bad argument (RG-SCHEME), not a digest mismatch:
    // RG-CHECKSUM is reserved for bytes that hash to the wrong value.
    let err = registry
        .pull("file:///nope", Some("not-a-digest"))
        .unwrap_err();
    assert_eq!(err.code(), "RG-SCHEME");
    assert!(
        err.to_string().contains("not-a-digest"),
        "pin not named: {err}"
    );
    let err = registry.pull("ftp://host/model.onnx", None).unwrap_err();
    assert_eq!(err.code(), "RG-SCHEME");
    let err = registry.pull("https://host/model.onnx", None).unwrap_err();
    assert_eq!(err.code(), "RG-SCHEME"); // no TLS stack — must say so, not hang
    let err = registry
        .pull(
            &format!("file://{}", dir.join("absent.onnx").display()),
            None,
        )
        .unwrap_err();
    assert_eq!(err.code(), "RG-IO");
}

#[test]
fn http_pull_round_trips_over_loopback() {
    let dir = scratch("http-pull");
    let (_, bytes, digest) = fixture_model(&dir);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let root = dir.clone();
    std::thread::spawn(move || {
        let _ = ramiel_serve::registry::serve_dir(listener, root);
    });

    let registry = Registry::new(dir.join("cache"));
    let url = format!("http://{addr}/model.onnx");
    let pulled = registry.pull(&url, Some(&digest)).unwrap();
    assert_eq!(pulled.sha256, digest);
    assert_eq!(std::fs::read(&pulled.path).unwrap(), bytes);

    let err = registry
        .pull(&format!("http://{addr}/missing.onnx"), None)
        .unwrap_err();
    assert_eq!(err.code(), "RG-HTTP");
}

#[test]
fn hot_swap_bumps_the_plan_version_and_serves_the_new_graph() {
    let dir = scratch("hot-swap");
    let (path, _, digest) = fixture_model(&dir);
    let registry = Registry::new(dir.join("cache"));

    let server = Arc::new(Server::new(ServeConfig::default()));
    let g0 = build(ModelKind::Squeezenet, &ModelConfig::tiny());
    let v0 = server.load("m", PlanSpec::new(g0)).unwrap().version;

    // Pull with the correct pin, import, hot-swap under the same lane name.
    let pulled = registry
        .pull(&format!("file://{}", path.display()), Some(&digest))
        .unwrap();
    let graph = ramiel_onnx::load_model(&pulled.path).unwrap();
    let v1 = server.load("m", PlanSpec::new(graph)).unwrap().version;
    assert!(v1 > v0, "hot swap must bump the plan version ({v0} → {v1})");
    assert_eq!(server.model_versions().get("m"), Some(&v1));

    // The swapped-in plan answers inferences.
    let plan = server.plan("m").unwrap();
    let env = ramiel_runtime::synth_inputs(&plan.graph, 3);
    let out = server.submit("m", env).unwrap().wait().unwrap();
    assert!(!out.is_empty());

    // A mismatched pin refuses before any graph reaches the server: the
    // version must not move.
    let err = registry
        .pull(&format!("file://{}", path.display()), Some(&"b".repeat(64)))
        .unwrap_err();
    assert_eq!(err.code(), "RG-CHECKSUM");
    assert_eq!(server.model_versions().get("m"), Some(&v1));
}

#[test]
fn sha256_matches_the_nist_vector_through_the_public_api() {
    // Belt and braces at the integration level; the full vector suite lives
    // in the crate's unit tests.
    assert_eq!(
        sha256::hex_digest(b"abc"),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    );
}

#[test]
fn concurrent_pulls_keep_every_blob_and_every_manifest_row() {
    // Eight connection threads pulling at once used to name their manifest
    // temp file by pid alone and race its read-modify-write: rows were lost
    // and renames failed. Small files keep the pulls short, so released
    // together from a barrier their manifest updates collide; fresh caches
    // over several rounds make the collision near-certain without a sleep.
    const N: usize = 8;
    const ROUNDS: usize = 25;
    let dir = scratch("concurrent");
    let files: Vec<(PathBuf, String)> = (0..N)
        .map(|i| {
            let bytes: Vec<u8> = (0..1024).map(|j| (i * 31 + j % 251) as u8).collect();
            let path = dir.join(format!("model-{i}.bin"));
            std::fs::write(&path, &bytes).unwrap();
            (path, sha256::hex_digest(&bytes))
        })
        .collect();

    for round in 0..ROUNDS {
        let registry = Registry::new(dir.join(format!("cache-{round}")));
        let barrier = std::sync::Barrier::new(N);
        std::thread::scope(|s| {
            for (path, digest) in &files {
                // Clones share the root, as the server's connection threads do.
                let (registry, barrier) = (registry.clone(), &barrier);
                s.spawn(move || {
                    barrier.wait();
                    let pulled = registry
                        .pull(&format!("file://{}", path.display()), Some(digest))
                        .unwrap_or_else(|e| panic!("round {round}: {e}"));
                    assert_eq!(&pulled.sha256, digest);
                });
            }
        });

        let manifest = registry.manifest().unwrap();
        assert_eq!(manifest.len(), N, "round {round}: manifest rows lost");
        let blobs: Vec<_> = std::fs::read_dir(registry.root().join("sha256"))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(
            blobs.len(),
            N,
            "round {round}: stray or missing blobs: {blobs:?}"
        );
        for (_, digest) in &files {
            assert!(
                manifest.contains_key(digest),
                "round {round}: no row for {digest}"
            );
            let blob = std::fs::read(registry.lookup(digest).expect("blob")).unwrap();
            assert_eq!(
                &sha256::hex_digest(&blob),
                digest,
                "round {round}: torn blob"
            );
        }
    }
}
