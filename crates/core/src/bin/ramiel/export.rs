//! `ramiel export <model> <path>`: save a model as an ONNX file. Flag:
//! `--tiny` (the reduced built-in model).

use crate::model::ModelArgs;

args!(Args "export", model: ModelArgs ["--tiny"];);

pub fn main(model: &str, path: &str, flags: &[String]) -> Result<(), String> {
    let g = Args::parse(flags)?.model.graph(model)?;
    ramiel_onnx::save_onnx(&g, path).map_err(|e| e.to_string())?;
    println!("wrote {} ({} nodes, ONNX)", path, g.num_nodes());
    Ok(())
}
