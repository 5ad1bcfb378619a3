//! `ramiel compile <model>`: run the whole pipeline and emit Python. Flags:
//! the model group and `--out DIR`, which writes `parallel.py`,
//! `sequential.py` (and `hyper.py` under `--batch N`), `clusters.dot` and
//! `report.json` there.

use crate::model::{summarize, ModelArgs};
use std::path::Path;

args!(Args "compile", model: ModelArgs ["--tiny", "--prune", "--clone", "--batch", "--switched"];
    out: Option<String> = None, "--out";
);

pub fn main(model: &str, flags: &[String]) -> Result<(), String> {
    let a = Args::parse(flags)?;
    let c =
        ramiel::compile(a.model.graph(model)?, &a.model.options()).map_err(|e| e.to_string())?;
    summarize(&c.report, c.compile_time);
    let Some(dir) = &a.out else {
        return Ok(());
    };
    let write = |file: &str, contents: &str| {
        std::fs::write(Path::new(dir).join(file), contents).map_err(|e| e.to_string())
    };
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    write("parallel.py", &c.parallel_code)?;
    write("sequential.py", &c.sequential_code)?;
    if let Some(hyper_code) = &c.hyper_code {
        write("hyper.py", hyper_code)?;
    }
    let assignment = c.clustering.assignment();
    write(
        "clusters.dot",
        &ramiel_ir::dot::to_dot(&c.graph, Some(&assignment)),
    )?;
    let report = serde_json::to_string_pretty(&c.report).map_err(|e| e.to_string())?;
    write("report.json", &report)?;
    println!("wrote parallel.py, sequential.py, clusters.dot, report.json to {dir}");
    Ok(())
}
