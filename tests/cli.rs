//! End-to-end tests of the `ramiel` CLI binary.

#[path = "support/hostile.rs"]
mod hostile;

use std::path::PathBuf;
use std::process::Command;

fn ramiel_bin() -> PathBuf {
    // target/<profile>/ramiel next to the test executable
    let mut path = std::env::current_exe().expect("test exe path");
    path.pop(); // deps/
    path.pop(); // debug|release/
    path.push(format!("ramiel{}", std::env::consts::EXE_SUFFIX));
    path
}

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(ramiel_bin())
        .args(args)
        .output()
        .expect("spawn ramiel binary");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn models_lists_all_eight() {
    let (ok, stdout, _) = run(&["models"]);
    assert!(ok);
    for name in [
        "Squeezenet",
        "Googlenet",
        "Inception V3",
        "Inception V4",
        "Yolo V5",
        "BERT",
        "Retinanet",
        "NASNet",
    ] {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
}

#[test]
fn report_prints_table1_columns() {
    let (ok, stdout, _) = run(&["report"]);
    assert!(ok);
    assert!(stdout.contains("Wt.NodeCost"));
    assert!(stdout.contains("Parallelism"));
    assert!(stdout.contains("NASNet"));
}

#[test]
fn compile_writes_artifacts() {
    let dir = std::env::temp_dir().join(format!("ramiel_cli_{}", std::process::id()));
    let dir_s = dir.to_str().expect("utf8 temp dir");
    let (ok, stdout, stderr) = run(&[
        "compile",
        "squeezenet",
        "--tiny",
        "--prune",
        "--clone",
        "--out",
        dir_s,
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("clusters:"));
    for artifact in [
        "parallel.py",
        "sequential.py",
        "clusters.dot",
        "report.json",
    ] {
        assert!(dir.join(artifact).exists(), "missing {artifact}");
    }
    let report: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(dir.join("report.json")).unwrap()).unwrap();
    assert_eq!(report["model"], "Squeezenet");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_executes_both_modes() {
    let (ok, stdout, stderr) = run(&["run", "squeezenet", "--tiny", "--iters", "1"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("sequential:"));
    assert!(stdout.contains("parallel"));
    assert!(stdout.contains("ms/iter"));
}

#[test]
fn run_with_batch_runs_the_compiled_hyperclustering() {
    for extra in [&[][..], &["--switched"], &["--executor", "stealing"]] {
        let mut args = vec![
            "run",
            "squeezenet",
            "--tiny",
            "--batch",
            "2",
            "--iters",
            "1",
        ];
        args.extend_from_slice(extra);
        let (ok, stdout, stderr) = run(&args);
        assert!(ok, "{extra:?} stderr: {stderr}");
        for line in stdout.lines().filter(|l| l.contains("ms/iter")) {
            assert!(
                line.contains("batch 2") && line.contains("ms/sample"),
                "{extra:?}: not a batch-2 run: {line}"
            );
        }
        assert_eq!(stdout.matches("ms/iter").count(), 2, "{extra:?}:\n{stdout}");
    }
}

#[test]
fn unknown_mode_is_rejected() {
    let (ok, stdout, stderr) = run(&["run", "squeezenet", "--tiny", "--mode", "parallel"]);
    assert!(!ok, "ran with an unknown mode:\n{stdout}");
    assert!(stderr.contains("unknown mode `parallel`"), "{stderr}");
    assert!(stdout.is_empty(), "nothing may run before the rejection");
}

#[test]
fn profile_emits_valid_trace_and_reports() {
    let dir = std::env::temp_dir().join(format!("ramiel_cli_prof_{}", std::process::id()));
    let dir_s = dir.to_str().expect("utf8 temp dir");
    let (ok, stdout, stderr) = run(&["profile", "squeezenet", "--tiny", "--out", dir_s]);
    assert!(ok, "stderr: {stderr}");
    assert!(
        stdout.contains("cost-model prediction accuracy"),
        "{stdout}"
    );
    assert!(stdout.contains("profile-guided reclustering"), "{stdout}");
    assert!(stdout.contains("trace summary"), "{stdout}");
    let trace_path = dir.join("squeezenet-trace.json");
    let trace = std::fs::read_to_string(&trace_path).expect("trace written");
    // the binary validates before writing; double-check the artifact parses
    // and carries the executor tracks
    let parsed: serde_json::Value = serde_json::from_str(&trace).expect("trace parses");
    let events = parsed["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty());
    for name in [
        "compile pipeline",
        "sequential executor",
        "parallel executor",
        "hypercluster executor",
    ] {
        assert!(trace.contains(name), "missing process `{name}` in trace");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A model given by path used to name its trace `<out>/<path>-trace.json`,
/// a directory that does not exist; the trace is named after the file stem.
#[test]
fn profile_of_a_model_file_writes_its_trace_into_out() {
    let root = std::env::temp_dir().join(format!("ramiel_cli_prof_path_{}", std::process::id()));
    let models = root.join("models");
    std::fs::create_dir_all(&models).expect("create model dir");
    let model = models.join("squeeze.onnx");
    let model_s = model.to_str().expect("utf8 model path");
    let (ok, _, stderr) = run(&["export", "squeezenet", model_s, "--tiny"]);
    assert!(ok, "stderr: {stderr}");
    let out = root.join("prof"); // does not exist yet
    let (ok, stdout, stderr) = run(&[
        "profile",
        model_s,
        "--out",
        out.to_str().expect("utf8 out dir"),
    ]);
    assert!(ok, "stderr: {stderr}\nstdout: {stdout}");
    let trace = std::fs::read_to_string(out.join("squeeze-trace.json")).expect("trace written");
    let parsed: serde_json::Value = serde_json::from_str(&trace).expect("trace parses");
    let events = parsed["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty());
    assert!(trace.contains("sequential executor"), "executor tracks");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn export_then_compile_from_file() {
    let path = std::env::temp_dir().join(format!("ramiel_cli_model_{}.onnx", std::process::id()));
    let path_s = path.to_str().expect("utf8 path");
    let (ok, _, stderr) = run(&["export", "googlenet", path_s, "--tiny"]);
    assert!(ok, "stderr: {stderr}");
    let (ok, stdout, stderr) = run(&["compile", path_s]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("Googlenet"));
    std::fs::remove_file(&path).ok();
}

/// A model file argument is imported as ONNX whatever it holds: hostile
/// files make `run` and `serve` exit non-zero with the `ONNX-*` code on
/// stderr, never with a panic.
#[test]
fn hostile_files_fail_cleanly() {
    let dir = std::env::temp_dir().join(format!("ramiel_cli_hostile_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    for (file, bytes, code) in hostile::cases() {
        let path = dir.join(file);
        std::fs::write(&path, bytes).expect("write model");
        let path_s = path.to_str().expect("utf8 path");
        for args in [
            vec!["run", path_s, "--iters", "1"],
            vec!["serve", path_s, "--port", "0"],
        ] {
            let (ok, _, stderr) = run(&args);
            assert!(!ok, "{args:?} succeeded");
            assert!(stderr.contains(code), "{args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulate_prints_speedup() {
    let (ok, stdout, stderr) = run(&["simulate", "googlenet", "--tiny"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("simulated speedup"));
    assert!(stdout.contains("slack fraction"));
}

#[test]
fn compile_with_batch_writes_hyper_module() {
    let dir = std::env::temp_dir().join(format!("ramiel_cli_hyper_{}", std::process::id()));
    let dir_s = dir.to_str().expect("utf8 temp dir");
    let (ok, stdout, stderr) = run(&[
        "compile",
        "squeezenet",
        "--tiny",
        "--batch",
        "4",
        "--switched",
        "--out",
        dir_s,
    ]);
    assert!(ok, "stderr: {stderr}");
    let wrote =
        format!("wrote parallel.py, sequential.py, hyper.py, clusters.dot, report.json to {dir_s}");
    assert_eq!(stdout.lines().last(), Some(wrote.as_str()), "{stdout}");
    let hyper = std::fs::read_to_string(dir.join("hyper.py")).expect("hyper.py written");
    assert!(hyper.contains("SWITCHED"));
    assert!(hyper.contains("def hypercluster_0("));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_verifies_compiled_schedules() {
    let (ok, stdout, stderr) = run(&["check", "squeezenet", "--tiny"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("ok ("), "unexpected output:\n{stdout}");
    assert!(stdout.contains("0 errors"), "unexpected output:\n{stdout}");

    // Batched switched hyperclustering goes through the first-ready policy.
    let (ok, stdout, stderr) = run(&[
        "check",
        "squeezenet",
        "--tiny",
        "--batch",
        "4",
        "--switched",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("0 errors"), "unexpected output:\n{stdout}");
}

#[test]
fn check_deny_warnings_fails_on_findings() {
    // The default LC+merge clustering of googlenet produces a benign
    // quotient-cycle warning (RV0202); --deny-warnings must promote it to a
    // failing exit code while the default mode tolerates it.
    let (ok, _, _) = run(&["check", "googlenet", "--tiny"]);
    assert!(ok);
    let (ok, stdout, _) = run(&["check", "googlenet", "--tiny", "--deny-warnings"]);
    assert!(!ok);
    assert!(stdout.contains("RV0202"), "expected RV0202 in:\n{stdout}");
}

#[test]
fn unknown_args_fail_cleanly() {
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
    let (ok, _, stderr) = run(&["compile", "squeezenet", "--bogus"]);
    assert!(!ok);
    assert!(stderr.contains("--bogus") || stderr.contains("unknown"));
    let (ok, _, stderr) = run(&["compile", "not-a-model"]);
    assert!(!ok);
    assert!(stderr.contains("not a built-in model"));
}

/// `serve` schedules without emitting code; what it prints before
/// `listening on` is still the seven-line banner (the benchmark records it
/// in its manifest), with the numbers `compile` prints for the same model,
/// and start-up shows in `stats.load` like a TCP `load` does.
#[test]
fn serve_banner_keeps_its_lines_and_values() {
    let (ok, compiled, _) = run(&["compile", "squeezenet", "--tiny"]);
    assert!(ok);
    let (banner, load) = serve_start_up(&["squeezenet", "--tiny"]);

    let labels = [
        "model:",
        "nodes:",
        "clusters:",
        "cross-cluster edges:",
        "potential parallelism:",
        "compile time:",
        "serving `squeezenet`",
    ];
    assert_eq!(banner.len(), labels.len(), "{banner:?}");
    for (line, label) in banner.iter().zip(labels) {
        assert!(line.starts_with(label), "`{line}` should start `{label}`");
    }
    // Everything but the time is a count: identical to `compile`'s summary.
    let compiled: Vec<&str> = compiled.lines().take(5).collect();
    assert_eq!(banner[..5], compiled[..]);
    // The `serving` line ends with the plan's worker count: at most one
    // per core.
    let workers: usize = banner[6]
        .rsplit(", ")
        .next()
        .and_then(|tail| tail.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no worker count in `{}`", banner[6]));
    let cores = std::thread::available_parallelism().map_or(usize::MAX, |n| n.get());
    assert!((1..=cores).contains(&workers), "{}", banner[6]);

    // A built-in graph is installed as it is built: nothing to import.
    assert_eq!(load["loads"].as_u64(), Some(1), "{load}");
    assert_eq!(load["import_mean_ms"].as_f64(), Some(0.0), "{load}");
    assert!(load["compile_mean_ms"].as_f64().unwrap() > 0.0, "{load}");

    // A start from a file records its read as `fetch` and its decode as
    // `import`, as a TCP `load` does.
    let path = std::env::temp_dir().join(format!("ramiel_cli_serve_{}.onnx", std::process::id()));
    let path_s = path.to_str().expect("utf8 temp path");
    let (ok, _, stderr) = run(&["export", "squeezenet", path_s, "--tiny"]);
    assert!(ok, "{stderr}");
    let (_, load) = serve_start_up(&[path_s]);
    std::fs::remove_file(&path).ok();
    assert_eq!(load["loads"].as_u64(), Some(1), "{load}");
    assert!(load["fetch_mean_ms"].as_f64().unwrap() > 0.0, "{load}");
    assert!(load["import_mean_ms"].as_f64().unwrap() > 0.0, "{load}");
}

/// A start from a URL pulls the model through the registry and counts the
/// pull, its hash and its store in `stats.load`, as a TCP `load` of the same
/// URL does.
#[test]
fn serve_from_a_url_counts_its_pull() {
    let dir = std::env::temp_dir().join(format!("ramiel_cli_serve_url_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("m.onnx");
    let path_s = path.to_str().expect("utf8 temp path");
    let (ok, _, stderr) = run(&["export", "squeezenet", path_s, "--tiny"]);
    assert!(ok, "{stderr}");
    let url = format!("file://{path_s}");
    let cache = dir.join("cache");
    let (banner, load) = serve_start_up(&[&url, "--cache", cache.to_str().unwrap()]);
    std::fs::remove_dir_all(&dir).ok();
    assert!(banner[0].starts_with("pulled "), "{banner:?}");
    assert_eq!(load["loads"].as_u64(), Some(1), "{load}");
    assert_eq!(load["pulls_miss"].as_u64(), Some(1), "{load}");
    assert_eq!(load["pulls_hit"].as_u64(), Some(0), "{load}");
    for phase in [
        "fetch_mean_ms",
        "hash_mean_ms",
        "import_mean_ms",
        "compile_mean_ms",
    ] {
        assert!(load[phase].as_f64().unwrap() > 0.0, "{phase}: {load}");
    }
}

/// `serve` has one executor; asking it for the stealing one is an error
/// that names the flag, not a silently ignored switch.
#[test]
fn serve_refuses_the_stealing_executor() {
    let stderr = serve_refused(&["squeezenet", "--tiny", "--executor", "stealing"]);
    assert!(stderr.contains("--executor"), "{stderr}");
}

/// `serve` plans every batch size it meets, so `--batch` is a flag it would
/// ignore: it is refused by name, with the verb, before anything starts.
#[test]
fn serve_refuses_flags_it_would_ignore() {
    let stderr = serve_refused(&["squeezenet", "--tiny", "--batch", "8"]);
    assert!(stderr.contains("--batch"), "{stderr}");
    assert!(stderr.contains("`serve`"), "{stderr}");
}

/// `--prune` and `--clone` rewrite the graph before it is installed, but
/// its bytes still come through the registry: a wrong pin is refused
/// before anything is cached, and a `file://` start counts its pull.
#[test]
fn serve_rewrites_keep_the_pin_and_the_pull() {
    let dir = std::env::temp_dir().join(format!("ramiel_cli_serve_pin_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("m.onnx");
    let path_s = path.to_str().expect("utf8 temp path");
    let (ok, _, stderr) = run(&["export", "squeezenet", path_s, "--tiny"]);
    assert!(ok, "{stderr}");
    let cache = dir.join("cache");
    let cache_s = cache.to_str().expect("utf8 temp path");
    let wrong = "0".repeat(64);
    for flag in ["--prune", "--clone"] {
        let stderr = serve_refused(&[path_s, "--sha256", &wrong, flag, "--cache", cache_s]);
        assert!(stderr.contains("RG-CHECKSUM"), "{flag}: {stderr}");
    }
    assert!(!cache.join("sha256").join(&wrong).exists());

    let url = format!("file://{path_s}");
    let (banner, load) = serve_start_up(&[&url, "--prune", "--cache", cache_s]);
    std::fs::remove_dir_all(&dir).ok();
    assert!(banner[0].starts_with("pulled "), "{banner:?}");
    assert_eq!(load["pulls_miss"].as_u64(), Some(1), "{load}");
    assert!(load["fetch_mean_ms"].as_f64().unwrap() > 0.0, "{load}");
}

/// A server runs no steal pool: after an inference and a `metrics` scrape
/// it has no `ramiel-steal-*` thread and exports no `ramiel_steal_*`
/// series.
#[test]
#[cfg(target_os = "linux")]
fn serve_starts_no_steal_pool() {
    use std::io::{BufRead, BufReader, Write};

    let (mut child, _, addr) = spawn_serve(&["squeezenet", "--tiny"]);
    let mut conn = std::net::TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut rpc = |req: &str| -> serde_json::Value {
        writeln!(conn, "{req}").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        serde_json::from_str(&reply).unwrap()
    };
    let reply = rpc(r#"{"op":"infer_synth","seed":1}"#);
    assert_eq!(reply["ok"].as_bool(), Some(true), "{reply}");
    let reply = rpc(r#"{"op":"metrics"}"#);
    let metrics = reply["metrics"].as_str().expect("metrics text").to_string();
    let threads: Vec<String> = std::fs::read_dir(format!("/proc/{}/task", child.id()))
        .expect("server's task list")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .collect();
    rpc(r#"{"op":"shutdown"}"#);
    assert!(child.wait().expect("serve exits after shutdown").success());

    assert!(!threads.is_empty());
    assert!(
        threads.iter().all(|t| !t.starts_with("ramiel-steal")),
        "{threads:?}"
    );
    assert!(!metrics.contains("ramiel_steal_"), "{metrics}");
}

/// Start `ramiel serve <args> --port 0` and read its banner up to
/// `listening on`; returns (server, banner, address).
fn spawn_serve(args: &[&str]) -> (std::process::Child, Vec<String>, String) {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let mut child = Command::new(ramiel_bin())
        .arg("serve")
        .args(args)
        .args(["--port", "0"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn ramiel serve");
    let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    let mut banner = Vec::new();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve exited before `listening on`")
            .unwrap();
        match line.strip_prefix("listening on ") {
            Some(addr) => break addr.trim().to_string(),
            None => banner.push(line),
        }
    };
    // Keep reading: the server prints a summary when it exits.
    std::thread::spawn(move || lines.for_each(drop));
    (child, banner, addr)
}

/// Run `ramiel serve <args> --port 0`, which must refuse to start: returns
/// its stderr. A server that started instead would listen forever, so it is
/// killed after a bound and the test fails.
fn serve_refused(args: &[&str]) -> String {
    use std::io::Read;
    use std::process::Stdio;
    use std::time::{Duration, Instant};

    let mut child = Command::new(ramiel_bin())
        .arg("serve")
        .args(args)
        .args(["--port", "0"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ramiel serve");
    let give_up = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll serve") {
            break Some(status);
        }
        if Instant::now() > give_up {
            child.kill().ok();
            child.wait().ok();
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .ok();
    let status = status.unwrap_or_else(|| panic!("serve {args:?} started and kept serving"));
    assert!(!status.success(), "serve {args:?} exited 0: {stderr}");
    stderr
}

/// Start `ramiel serve <args> --port 0`, read its banner, take
/// `stats.load`, shut it down; returns (banner, load summary).
fn serve_start_up(args: &[&str]) -> (Vec<String>, serde_json::Value) {
    use std::io::{BufRead, BufReader, Write};

    let (mut child, banner, addr) = spawn_serve(args);
    let mut conn = std::net::TcpStream::connect(&addr).expect("connect");
    let mut reply = String::new();
    writeln!(conn, r#"{{"op":"stats"}}"#).unwrap();
    BufReader::new(conn.try_clone().unwrap())
        .read_line(&mut reply)
        .unwrap();
    let stats: serde_json::Value = serde_json::from_str(&reply).unwrap();

    writeln!(conn, r#"{{"op":"shutdown"}}"#).unwrap();
    assert!(child.wait().expect("serve exits after shutdown").success());
    (banner, stats["stats"]["load"].clone())
}
