//! Socket-to-socket benchmark for `ramiel serve`.
//!
//! `benchmark/run.sh` builds the `ramiel` binary of the commit under test
//! and this program, then runs this program, which spawns the real
//! `ramiel serve` and drives it over loopback TCP. See `README.md` for the
//! metrics, the workloads and what the benchmark depends on.

mod gen;
mod host;
mod layers;
mod load;
mod run;
mod scrape;
mod server;
mod stats;
mod trace;

use load::{Workload, WORKLOADS};
use run::{measured_run, traced_run, Config, Outcome, END_TO_END, EXACT, PER_LAYER};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// The seed `golden.json` is written for.
pub const DEFAULT_SEED: u64 = 1;

const USAGE: &str =
    "usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
[--smoke] [--repeat N] [--write-golden]
  no flags          all four workloads, measured run, every end-to-end metric
  --workload NAME   one of b1_bert, b1_squeezenet, pair_nasnet, cold_swap
  --seed N          inputs are generated from N (default 1, the committed golden digests)
  --seconds S       length of the timed phase (default: run_seconds of BENCHMARK.json)
  --trace 1         the traced run: per-layer metrics and out/trace-<workload>.json
  --smoke           all four workloads at 1 s each, to see that the benchmark still runs
  --repeat N        the whole set N times on one seed: the spread of every end-to-end metric against
                    its bound, and whether the exact per-layer counts repeat exactly
  --write-golden    rewrite golden.json (a benchmark issue, not a routine step)";

struct Args {
    ramiel: PathBuf,
    dir: PathBuf,
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: usize,
    write_golden: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        ramiel: PathBuf::new(),
        dir: PathBuf::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: 0,
        write_golden: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let number = |v: String| {
            v.parse::<f64>()
                .map_err(|_| format!("`{v}` is not a number\n{USAGE}"))
        };
        match flag.as_str() {
            "--ramiel" => a.ramiel = value()?.into(),
            "--dir" => a.dir = value()?.into(),
            "--workload" => {
                let name = value()?;
                a.workload = Some(
                    load::workload(&name)
                        .ok_or_else(|| format!("no workload `{name}`\n{USAGE}"))?,
                );
            }
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| format!("--seed takes a whole number\n{USAGE}"))?
            }
            "--seconds" => a.seconds = Some(number(value()?)?),
            "--trace" => a.trace = number(value()?)? != 0.0,
            "--repeat" => a.repeat = number(value()?)? as usize,
            "--smoke" => a.smoke = true,
            "--write-golden" => a.write_golden = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if a.ramiel.as_os_str().is_empty() || a.dir.as_os_str().is_empty() {
        return Err(format!(
            "run this through benchmark/run.sh, which passes --ramiel and --dir\n{USAGE}"
        ));
    }
    Ok(a)
}

/// The committed contract: bounds and run length live there and nowhere else.
struct Contract(serde_json::Value);

impl Contract {
    fn read(dir: &Path) -> Result<Contract, String> {
        let path = dir.join("..").join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        serde_json::from_str(&text)
            .map(Contract)
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    fn run_seconds(&self) -> Result<f64, String> {
        self.0
            .get("run_seconds")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| "BENCHMARK.json: no run_seconds".into())
    }

    /// The bound of an end-to-end metric.
    fn bound(&self, metric: &str) -> Option<f64> {
        let rows = self.0.get("end_to_end")?.as_array()?;
        rows.iter()
            .find(|m| m["name"] == metric)?
            .get("bound")?
            .as_f64()
    }

    fn names(&self, section: &str) -> Vec<String> {
        self.0
            .get(section)
            .and_then(|s| s.as_array())
            .map(|a| {
                a.iter()
                    .filter_map(|m| m.get("name")?.as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The benchmark and `BENCHMARK.json` must name the same things; of the
    /// end-to-end figures `BENCHMARK.json` lists the ones that are bounded.
    fn check_names(&self) -> Result<(), String> {
        let same = |section: &str, ours: Vec<&str>| {
            let theirs = self.names(section);
            if theirs.iter().map(String::as_str).eq(ours.iter().copied()) {
                Ok(())
            } else {
                Err(format!(
                    "BENCHMARK.json `{section}` and the benchmark disagree: {theirs:?} vs {ours:?}"
                ))
            }
        };
        same("workloads", WORKLOADS.iter().map(|w| w.name).collect())?;
        let bounded: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .filter(|name| self.bound(name).is_some())
            .collect();
        same("end_to_end", bounded)?;
        same("per_layer", PER_LAYER.iter().map(|m| m.0).collect())
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// What every output carries: enough to tell two result files apart.
fn manifest(cfg: &Config, o: &Outcome) -> serde_json::Value {
    let dir = cfg.dir.display().to_string();
    serde_json::json!({
        "git_sha": command_line("git", &["-C", &dir, "rev-parse", "HEAD"]),
        "rustc": command_line("rustc", &["-V"]),
        "nproc": host::nproc(),
        "cpu_model": host::cpu_model(),
        "server_command": "ramiel serve <model.onnx> --port 0 --cache <dir>",
        "server_resolved_flags": o.server_banner,
        "seed": o.seed,
        "warmup_s": cfg.warmup.as_secs_f64(),
        "timed_s": cfg.timed.as_secs_f64(),
        "cold_starts": cfg.cold_starts,
        "traced": o.traced,
    })
}

/// The contract's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics`. When several workloads ran, each metric name is prefixed
/// with its workload's.
fn result_line(contract: &Contract, outcomes: &[Outcome]) -> String {
    let mut metrics: Vec<(String, serde_json::Value)> = Vec::new();
    for o in outcomes {
        for &(name, value, unit, _) in &o.metrics {
            // Of a measured run, only the bounded figures are the contract's.
            if !o.traced && contract.bound(name).is_none() {
                continue;
            }
            let name = if outcomes.len() > 1 {
                format!("{}.{name}", o.workload)
            } else {
                name.to_string()
            };
            metrics.push((name, serde_json::json!({ "value": value, "unit": unit })));
        }
    }
    let attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|o| o.failed).sum();
    serde_json::json!({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": serde_json::Value::Object(metrics),
    })
    .to_string()
}

fn report(cfg: &Config, contract: &Contract, o: &Outcome) -> Result<(), String> {
    println!(
        "== {} (seed {}, {}, warm-up {:.1} s, timed {:.1} s, {} cores)",
        o.workload,
        o.seed,
        if o.traced {
            "traced run"
        } else {
            "measured run, tracing off"
        },
        cfg.warmup.as_secs_f64(),
        cfg.timed.as_secs_f64(),
        host::nproc(),
    );
    if let Some(w) = load::workload(o.workload) {
        println!("  why: {}", w.why);
    }
    for &(name, value, unit, samples) in &o.metrics {
        let n = if samples > 0 {
            format!("  (n={samples})")
        } else {
            String::new()
        };
        let bound = match contract.bound(name) {
            Some(b) => format!("  bound {:.0}%", b * 100.0),
            None if o.traced => String::new(),
            None => "  demoted: no bound".into(),
        };
        println!("  {name:<32} {value:>16.6} {unit}{n}{bound}");
    }
    for note in &o.notes {
        println!("  {note}");
    }
    for e in &o.errors {
        println!("  FAILED OP: {e}");
    }

    let mut metrics: Vec<(String, serde_json::Value)> = Vec::new();
    for &(name, value, unit, samples) in &o.metrics {
        metrics.push((
            name.to_string(),
            serde_json::json!({ "value": value, "unit": unit, "samples": samples }),
        ));
    }
    let summary = serde_json::json!({
        "manifest": manifest(cfg, o),
        "workload": o.workload,
        "attempted": o.attempted,
        "failed": o.failed,
        "metrics": serde_json::Value::Object(metrics),
        "notes": o.notes,
        "claim": null,
    });
    let path = cfg.dir.join("out").join(format!(
        "summary-{}-trace{}.json",
        o.workload,
        u8::from(o.traced)
    ));
    let text = serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn run_one(
    cfg: &Config,
    contract: &Contract,
    w: &'static Workload,
    seed: u64,
    trace: bool,
) -> Result<Outcome, String> {
    let outcome = if trace {
        traced_run(cfg, w, seed)
    } else {
        measured_run(cfg, w, seed)
    }?;
    report(cfg, contract, &outcome)?;
    Ok(outcome)
}

/// `--repeat N`: the whole set N times on one seed, each set a measured and
/// a traced run of every workload. Per end-to-end metric and workload the
/// median, quartiles and relative spread, and whether the spread stays
/// within the metric's bound; per exact count, whether it repeated exactly.
fn repeat(
    cfg: &Config,
    contract: &Contract,
    workloads: &[&'static Workload],
    seed: u64,
    n: usize,
) -> Result<bool, String> {
    if n < 2 {
        return Err("--repeat needs at least 2 sets to compare".into());
    }
    let mut values: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    let mut counts: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    let mut failed = 0;
    for _ in 0..n {
        for &w in workloads {
            let measured = run_one(cfg, contract, w, seed, false)?;
            for &(name, value, _, _) in &measured.metrics {
                values.entry((w.name, name)).or_default().push(value);
            }
            let traced = run_one(cfg, contract, w, seed, true)?;
            for &(name, value, _, _) in &traced.metrics {
                if EXACT.contains(&name) {
                    counts.entry((w.name, name)).or_default().push(value);
                }
            }
            failed += measured.failed + traced.failed;
        }
    }
    println!(
        "== repeatability over {n} sets at seed {seed} (spread = (q3 - q1) / median, as the driver computes it)"
    );
    println!(
        "  {:<14} {:<30} {:>12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "q1", "median", "q3", "spread", "bound"
    );
    let mut all_same = failed == 0;
    for ((workload, metric), xs) in &values {
        let [q1, q2, q3] = stats::quartiles(xs);
        let spread = stats::relative_spread(xs);
        let (bound, verdict) = match contract.bound(metric) {
            Some(b) if spread <= b => (format!("{:.0}%", b * 100.0), "same"),
            Some(b) => (format!("{:.0}%", b * 100.0), "DIFFERS"),
            None => ("none".into(), "demoted"),
        };
        all_same &= verdict != "DIFFERS";
        println!(
            "  {workload:<14} {metric:<30} {q1:>12.5} {q2:>12.5} {q3:>12.5} {:>7.2}% {bound:>6}  {verdict}",
            spread * 100.0,
        );
    }
    for ((workload, metric), xs) in &counts {
        let same = xs.iter().all(|x| *x == xs[0]);
        all_same &= same;
        println!(
            "  {workload:<14} {metric:<30} {:>12} {:>12} {:>12} {:>8} {:>6}  {}",
            "",
            xs[0],
            "",
            "",
            "exact",
            if same { "same" } else { "DIFFERS" }
        );
    }
    if failed > 0 {
        println!("  {failed} operations failed: DIFFERS");
    }
    Ok(all_same)
}

/// `--write-golden`: the model-file digests and, for [`DEFAULT_SEED`], the
/// reference output digest of every pool entry.
fn write_golden(dir: &Path) -> Result<(), String> {
    let mut models: Vec<(String, serde_json::Value)> = Vec::new();
    for key in layers::ZOO {
        let onnx = layers::export_zoo(key);
        let sha = layers::sha256_hex(&onnx);
        let bytes = onnx.len();
        let model = layers::Model::import(key, onnx)?;
        let specs = model.input_specs();
        let inputs: Vec<_> = (0..gen::POOL)
            .map(|i| gen::inputs(&specs, DEFAULT_SEED, key, i))
            .collect();
        let outputs: Vec<String> = model
            .reference(&inputs)?
            .iter()
            .map(|o| gen::digest_tensors(o))
            .collect();
        println!(
            "{key}: {} nodes, {bytes} bytes, sha256 {sha}",
            model.nodes()
        );
        models.push((
            key.to_string(),
            serde_json::json!({ "onnx_sha256": sha, "bytes": bytes, "outputs": outputs }),
        ));
    }
    let golden = serde_json::json!({
        "about": "sha256 of each exported zoo .onnx file, and the FNV-1a digest of the reference outputs for each of the 64 pool inputs at this seed. A change here means inputs differ: it needs a benchmark issue.",
        "seed": DEFAULT_SEED,
        "models": serde_json::Value::Object(models),
    });
    let path = dir.join("golden.json");
    let text = serde_json::to_string_pretty(&golden).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    if args.write_golden {
        return write_golden(&args.dir).map(|()| true);
    }
    let contract = Contract::read(&args.dir)?;
    contract.check_names()?;
    let seconds = match (args.seconds, args.smoke) {
        (Some(s), _) => s,
        (None, true) => 1.0,
        (None, false) => contract.run_seconds()?,
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let cfg = Config {
        ramiel: args.ramiel,
        dir: args.dir,
        warmup: Duration::from_secs_f64(if args.smoke { 0.3 } else { 3.0 }),
        timed: Duration::from_secs_f64(seconds),
        cold_starts: if args.smoke { 1 } else { 5 },
    };
    std::fs::create_dir_all(cfg.dir.join("out"))
        .map_err(|e| format!("{}/out: {e}", cfg.dir.display()))?;
    let workloads: Vec<&'static Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    if args.repeat > 0 {
        return repeat(&cfg, &contract, &workloads, args.seed, args.repeat);
    }
    let outcomes = workloads
        .iter()
        .map(|&w| run_one(&cfg, &contract, w, args.seed, args.trace))
        .collect::<Result<Vec<_>, String>>()?;
    println!("{}", result_line(&contract, &outcomes));
    Ok(outcomes.iter().all(|o| o.failed == 0))
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        // A result was printed, and it says `"correct": false` or DIFFERS.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
