//! Validates the paper's "readable and executable" codegen claim: every
//! generated module must be syntactically valid Python (checked with the
//! host's `python3 -m py_compile` when available, skipped otherwise) and
//! structurally consistent with the clustering it was generated from.

use ramiel::obs::Obs;
use ramiel::{schedule, PipelineOptions};
use ramiel_models::{build, ModelConfig, ModelKind};
use std::io::Write;
use std::process::Command;

fn python3() -> Option<&'static str> {
    static AVAILABLE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    let ok = *AVAILABLE.get_or_init(|| {
        Command::new("python3")
            .arg("--version")
            .output()
            .map(|o| o.status.success())
            .unwrap_or(false)
    });
    ok.then_some("python3")
}

/// Compile a code string with CPython; panics with the compiler's stderr on
/// a syntax error.
fn assert_valid_python(code: &str, what: &str) {
    let Some(py) = python3() else {
        eprintln!("python3 not available; skipping syntax check for {what}");
        return;
    };
    let dir = std::env::temp_dir().join(format!("ramiel_codegen_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{}.py", what.replace(' ', "_")));
    let mut f = std::fs::File::create(&path).expect("temp file");
    f.write_all(code.as_bytes()).expect("write code");
    drop(f);
    let out = Command::new(py)
        .args(["-m", "py_compile"])
        .arg(&path)
        .output()
        .expect("run python3");
    assert!(
        out.status.success(),
        "{what}: generated Python does not compile:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn generated_parallel_python_compiles_for_every_model() {
    let cfg = ModelConfig::tiny();
    for kind in ModelKind::all() {
        let c = schedule(build(kind, &cfg), &PipelineOptions::default()).unwrap();
        let code = c.emit(&Obs::disabled());
        assert_valid_python(&code.parallel, &format!("{}_parallel", kind.name()));
    }
}

#[test]
fn generated_sequential_python_compiles_for_every_model() {
    let cfg = ModelConfig::tiny();
    for kind in ModelKind::all() {
        let c = schedule(build(kind, &cfg), &PipelineOptions::default()).unwrap();
        let code = c.emit(&Obs::disabled());
        assert_valid_python(&code.sequential, &format!("{}_sequential", kind.name()));
    }
}

#[test]
fn optimized_codegen_also_compiles() {
    let c = schedule(
        build(ModelKind::YoloV5, &ModelConfig::tiny()),
        &PipelineOptions::all_optimizations(),
    )
    .unwrap();
    let code = c.emit(&Obs::disabled());
    assert_valid_python(&code.parallel, "yolo_optimized_parallel");
}

#[test]
fn generated_hypercluster_python_compiles() {
    for kind in ModelKind::all() {
        for opts in batch2_configs() {
            let c = schedule(build(kind, &ModelConfig::tiny()), &opts).unwrap();
            let code = c
                .emit(&Obs::disabled())
                .hyper
                .expect("hyper code generated");
            let what = format!("{}_hyper_{:?}_2", kind.name(), opts.hyper);
            assert_valid_python(&code, &what);
        }
    }
}

/// Batch 2 under plain and under switched hyperclustering.
fn batch2_configs() -> [PipelineOptions; 2] {
    use ramiel::HyperMode;
    [HyperMode::Plain, HyperMode::Switched].map(|hyper| PipelineOptions {
        batch: 2,
        hyper,
        ..Default::default()
    })
}

#[test]
fn puts_and_gets_match_cross_cluster_edge_count() {
    // structural consistency: the number of distinct (tensor, consumer)
    // queue keys — (tensor, sample, consumer) in a hyper module — equals
    // both the puts and the gets emitted
    let cfg = ModelConfig::tiny();
    for kind in [ModelKind::Squeezenet, ModelKind::NasNet] {
        for opts in batch2_configs() {
            let c = schedule(build(kind, &cfg), &opts).unwrap();
            let code = c.emit(&Obs::disabled());
            let hyper = code.hyper.expect("hyper code generated");
            for (module, code) in [("parallel", &code.parallel), ("hyper", &hyper)] {
                let what = format!("{} {module} {:?}", kind.name(), opts.hyper);
                let puts = code.matches(".put(").count();
                let gets = code.matches(".get()").count();
                let keys = code
                    .lines()
                    .skip_while(|l| !l.starts_with("MESSAGE_KEYS"))
                    .take_while(|l| !l.starts_with(']'))
                    .filter(|l| l.trim_start().starts_with('('))
                    .count();
                assert_eq!(puts, gets, "{what}");
                assert_eq!(puts, keys, "{what}");
            }
        }
    }
}

#[test]
fn generated_code_references_every_graph_input_and_output() {
    for opts in batch2_configs() {
        let c = schedule(build(ModelKind::Bert, &ModelConfig::tiny()), &opts).unwrap();
        let code = c.emit(&Obs::disabled());
        let hyper = code.hyper.expect("hyper code generated");
        // the parallel module names no sample; the hyper one indexes each
        let samples = [
            (&code.parallel, vec![String::new()]),
            (&hyper, (0..opts.batch).map(|b| format!("[{b}]")).collect()),
        ];
        for (code, ats) in samples {
            for at in ats {
                for inp in &c.graph.inputs {
                    let want = format!("inputs{at}['{}']", inp.name);
                    assert!(code.contains(&want), "missing {want}");
                }
                for out in &c.graph.outputs {
                    let want = format!("results{at}['{out}']");
                    assert!(code.contains(&want), "missing {want}");
                }
            }
        }
    }
}

/// `(configuration tag, options)` for every row of `codegen_golden.txt`:
/// batch 1, and batch 2 under plain and switched hyperclustering.
fn golden_configs() -> [(&'static str, PipelineOptions); 3] {
    use ramiel::HyperMode;
    let batch2 = |hyper| PipelineOptions {
        batch: 2,
        hyper,
        ..Default::default()
    };
    [
        ("b1", PipelineOptions::default()),
        ("b2-plain", batch2(HyperMode::Plain)),
        ("b2-switched", batch2(HyperMode::Switched)),
    ]
}

/// One line per emitted module of every tiny zoo model under every golden
/// configuration: `<model> <config> <module> <sha256 of the module>`. The
/// digests equal `sha256sum` of the files `ramiel compile <model> --tiny
/// [--batch 2 [--switched]] --out DIR` writes.
fn codegen_digests() -> String {
    let cfg = ModelConfig::tiny();
    let mut out = String::new();
    for kind in ModelKind::all() {
        for (tag, opts) in golden_configs() {
            let c = schedule(build(kind, &cfg), &opts).unwrap();
            let code = c.emit(&Obs::disabled());
            let modules = [
                ("parallel", Some(&code.parallel)),
                ("sequential", Some(&code.sequential)),
                ("hyper", code.hyper.as_ref()),
            ];
            for (module, code) in modules {
                if let Some(code) = code {
                    let digest = ramiel_serve::sha256::hex_digest(code.as_bytes());
                    out += &format!("{} {tag} {module} {digest}\n", kind.name());
                }
            }
        }
    }
    out
}

fn codegen_golden_path() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/codegen_golden.txt")
}

/// The emitted Python is pinned byte for byte. A change that moves a digest
/// changes what `ramiel compile` writes; if that is intended, regenerate
/// with `cargo test --test codegen_python regen_codegen_golden -- --ignored`
/// and say why in the change.
#[test]
fn emitted_python_matches_the_golden_digests() {
    let golden = std::fs::read_to_string(codegen_golden_path()).expect("codegen_golden.txt");
    let now = codegen_digests();
    for (want, got) in golden.lines().zip(now.lines()) {
        assert_eq!(got, want, "emitted Python differs from codegen_golden.txt");
    }
    assert_eq!(
        now, golden,
        "codegen_golden.txt and the emitted modules differ in length"
    );
}

/// Writes `codegen_golden.txt`. `#[ignore]`d: the file is checked in, and
/// this only needs to run when the emitted code intentionally changes.
#[test]
#[ignore]
fn regen_codegen_golden() {
    std::fs::write(codegen_golden_path(), codegen_digests()).expect("write codegen_golden.txt");
}
