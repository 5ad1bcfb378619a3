//! Hostile model files for the trust-boundary tests (`#[path]`-included by
//! `serve.rs` and `cli.rs`, not a test target of its own): each entry is a
//! file name, its bytes and the `ONNX-*` code every entry point must refuse
//! it with.

use ramiel_ir::Graph;
use ramiel_models::{build, ModelConfig, ModelKind};

/// A two-node cycle (`a` reads `b`'s output, `b` reads `a`'s) in the serde
/// JSON graph encoding the loader once accepted without validation.
const JSON_CYCLE: &str = r#"{"name":"cycle","nodes":[
{"id":0,"name":"a","op":"Add","inputs":["x","b_out"],"outputs":["a_out"]},
{"id":1,"name":"b","op":"Relu","inputs":["a_out"],"outputs":["b_out"]}],
"inputs":[{"name":"x","dtype":"F32","shape":[1,4]}],"outputs":["b_out"],
"initializers":{},"value_info":{}}"#;

fn squeezenet() -> Graph {
    build(ModelKind::Squeezenet, &ModelConfig::tiny())
}

/// Tiny SqueezeNet whose first node reads the last node's output.
fn onnx_cycle() -> Vec<u8> {
    let mut g = squeezenet();
    let last = g.nodes.last().unwrap().outputs[0].clone();
    g.nodes[0].inputs[0] = last;
    ramiel_onnx::export_model(&g)
}

/// Tiny SqueezeNet whose second node writes the first node's output too.
fn onnx_duplicate_output() -> Vec<u8> {
    let mut g = squeezenet();
    g.nodes[1].outputs[0] = g.nodes[0].outputs[0].clone();
    ramiel_onnx::export_model(&g)
}

/// (file name, bytes, expected code) for every hostile model.
pub fn cases() -> Vec<(&'static str, Vec<u8>, &'static str)> {
    vec![
        (
            "json_cycle.json",
            JSON_CYCLE.as_bytes().to_vec(),
            "ONNX-WIRE",
        ),
        ("cycle.onnx", onnx_cycle(), "ONNX-VALIDATE"),
        (
            "duplicate_output.onnx",
            onnx_duplicate_output(),
            "ONNX-VALIDATE",
        ),
    ]
}
