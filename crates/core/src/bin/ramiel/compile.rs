//! `ramiel compile <model>`: run the whole pipeline and emit Python. Flags:
//! the model group and `--out DIR`, which writes `parallel.py`,
//! `sequential.py` (and `hyper.py` under `--batch N`), `clusters.dot` and
//! `report.json` there.

use crate::model::{summarize, ModelArgs};
use ramiel::obs::Obs;
use std::path::Path;
use std::time::Instant;

args!(Args "compile", model: ModelArgs ["--tiny", "--prune", "--clone", "--batch", "--switched"];
    out: Option<String> = None, "--out";
);

pub fn main(model: &str, flags: &[String]) -> Result<(), String> {
    let a = Args::parse(flags)?;
    let g = a.model.graph(model)?;
    let start = Instant::now();
    let c = ramiel::schedule(g, &a.model.options()).map_err(|e| e.to_string())?;
    let code = c.emit(&Obs::disabled());
    summarize(&c.report, start.elapsed());
    let Some(dir) = &a.out else {
        return Ok(());
    };
    let mut wrote = Vec::new();
    let mut write = |file: &'static str, contents: &str| {
        wrote.push(file);
        std::fs::write(Path::new(dir).join(file), contents).map_err(|e| e.to_string())
    };
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    write("parallel.py", &code.parallel)?;
    write("sequential.py", &code.sequential)?;
    if let Some(hyper_code) = &code.hyper {
        write("hyper.py", hyper_code)?;
    }
    let assignment = c.clustering.assignment();
    write(
        "clusters.dot",
        &ramiel_ir::dot::to_dot(&c.graph, Some(&assignment)),
    )?;
    let report = serde_json::to_string_pretty(&c.report).map_err(|e| e.to_string())?;
    write("report.json", &report)?;
    println!("wrote {} to {dir}", wrote.join(", "));
    Ok(())
}
