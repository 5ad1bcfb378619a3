//! Serializing a `ramiel-ir` [`Graph`] as an ONNX `ModelProto`.
//!
//! The exporter emits the encoding generation the importer round-trips
//! exactly: attribute-form parameters (`Slice`/`Split`/`Squeeze`/… carry
//! their axes as attributes, opset ≤ 9 style), initializers as
//! little-endian `raw_data`, and float attributes as fixed32 bit patterns —
//! so `import(export(g)) == g` bit-for-bit for every supported graph. The
//! one exception to pure attribute form is `Resize`, which has no
//! attribute-form scales in any opset: it is exported in the two-input
//! `(X, scales)` shape with a synthesized constant operand that the
//! importer lifts back out.

use crate::proto::{
    data_type, AttributeProto, GraphProto, ModelProto, NodeProto, TensorProto, ValueInfoProto,
};
use ramiel_ir::tensor_data::Payload;
use ramiel_ir::{DType, Graph, OpKind, TensorData};
use std::borrow::Cow;
use std::path::Path;

/// The default-domain opset version stamped on exported models. The
/// attribute-form encodings used here are all legal at this version except
/// where noted in DESIGN §17 (the importer accepts both generations, so
/// the stamp is informational).
pub const EXPORT_OPSET: i64 = 13;

/// Serialize a graph to ONNX bytes. The graph is assumed validated (as
/// everything out of `GraphBuilder::finish` or the importer is); exporting
/// an ill-formed graph yields a file the importer will refuse with a
/// structured error rather than a panic here.
pub fn export_model(graph: &Graph) -> Vec<u8> {
    to_model_proto(graph).encode()
}

/// Write a graph to `path` as a binary `.onnx` file.
pub fn save_onnx(graph: &Graph, path: impl AsRef<Path>) -> std::io::Result<()> {
    std::fs::write(path, export_model(graph))
}

fn elem_of(dtype: DType) -> i64 {
    match dtype {
        DType::F32 => data_type::FLOAT,
        DType::I64 => data_type::INT64,
        DType::Bool => data_type::BOOL,
    }
}

/// Encode a [`TensorData`] as a `TensorProto` with a little-endian
/// `raw_data` payload (exact bytes, no float formatting round trip).
fn tensor_proto<'g>(name: impl Into<Cow<'g, str>>, data: &TensorData) -> TensorProto<'g> {
    let raw_data = match &data.payload {
        Payload::F32(v) => v.iter().flat_map(|x| x.to_bits().to_le_bytes()).collect(),
        Payload::I64(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
        Payload::Bool(v) => v.iter().map(|&b| b as u8).collect(),
    };
    TensorProto {
        name: name.into(),
        dims: data.shape.iter().map(|&d| d as i64).collect(),
        data_type: elem_of(data.dtype()),
        raw_data: Cow::Owned(raw_data),
        ..Default::default()
    }
}

/// Build the decoded proto tree for `graph` (exposed for tests that want
/// to corrupt specific fields before encoding). Names borrow from `graph`;
/// payloads are owned little-endian copies.
pub fn to_model_proto(graph: &Graph) -> ModelProto<'_> {
    let mut gp = GraphProto {
        name: graph.name.as_str().into(),
        ..Default::default()
    };

    for inp in &graph.inputs {
        gp.input.push(ValueInfoProto::tensor(
            &inp.name,
            elem_of(inp.dtype),
            &inp.shape,
        ));
    }
    for out in &graph.outputs {
        gp.output.push(match graph.tensor_info(out) {
            Some(info) => ValueInfoProto::tensor(out, elem_of(info.dtype), &info.shape),
            None => ValueInfoProto {
                name: out.as_str().into(),
                tensor_type: None,
            },
        });
    }

    // Constant-node payloads ride as `value` attributes, not initializer
    // entries — emitting both would make the names collide on reimport.
    let constant_outputs: std::collections::HashSet<&str> = graph
        .nodes
        .iter()
        .filter(|n| matches!(n.op, OpKind::Constant))
        .filter_map(|n| n.outputs.first().map(String::as_str))
        .collect();
    for (name, data) in &graph.initializers {
        if !constant_outputs.contains(name.as_str()) {
            gp.initializer.push(tensor_proto(name.as_str(), data));
        }
    }

    for node in &graph.nodes {
        let mut np = NodeProto {
            name: node.name.as_str().into(),
            op_type: node.op.name().into(),
            input: borrowed(&node.inputs),
            output: borrowed(&node.outputs),
            ..Default::default()
        };
        encode_attrs(graph, node, &mut np, &mut gp);
        gp.node.push(np);
    }

    ModelProto {
        ir_version: 8,
        producer_name: "ramiel".into(),
        producer_version: env!("CARGO_PKG_VERSION").into(),
        opset_import: vec![(String::new(), EXPORT_OPSET)],
        graph: Some(gp),
    }
}

fn borrowed(names: &[String]) -> Vec<Cow<'_, str>> {
    names.iter().map(|s| Cow::Borrowed(s.as_str())).collect()
}

fn encode_attrs<'g>(
    graph: &'g Graph,
    node: &ramiel_ir::Node,
    np: &mut NodeProto<'g>,
    gp: &mut GraphProto<'g>,
) {
    let a = &mut np.attribute;
    match &node.op {
        OpKind::Conv {
            kernel,
            stride,
            pads,
            groups,
        } => {
            a.push(AttributeProto::ints(
                "kernel_shape",
                vec![kernel.0 as i64, kernel.1 as i64],
            ));
            a.push(AttributeProto::ints(
                "strides",
                vec![stride.0 as i64, stride.1 as i64],
            ));
            a.push(AttributeProto::ints(
                "pads",
                vec![pads.0 as i64, pads.1 as i64, pads.0 as i64, pads.1 as i64],
            ));
            if *groups != 1 {
                a.push(AttributeProto::int("group", *groups as i64));
            }
        }
        OpKind::Gemm { trans_b } => a.push(AttributeProto::int("transB", *trans_b as i64)),
        OpKind::LeakyRelu { alpha } => a.push(AttributeProto::float("alpha", *alpha)),
        OpKind::Clip { min, max } => {
            a.push(AttributeProto::float("min", *min));
            a.push(AttributeProto::float("max", *max));
        }
        OpKind::Softmax { axis } => a.push(AttributeProto::int("axis", *axis as i64)),
        OpKind::BatchNorm { epsilon } | OpKind::LayerNorm { epsilon } => {
            a.push(AttributeProto::float("epsilon", *epsilon))
        }
        OpKind::ReduceMean { axes, keepdims } => {
            a.push(AttributeProto::ints(
                "axes",
                axes.iter().map(|&x| x as i64).collect(),
            ));
            a.push(AttributeProto::int("keepdims", *keepdims as i64));
        }
        OpKind::MaxPool(spec) | OpKind::AveragePool(spec) => {
            a.push(AttributeProto::ints(
                "kernel_shape",
                vec![spec.kernel.0 as i64, spec.kernel.1 as i64],
            ));
            a.push(AttributeProto::ints(
                "strides",
                vec![spec.stride.0 as i64, spec.stride.1 as i64],
            ));
            a.push(AttributeProto::ints(
                "pads",
                vec![
                    spec.pads.0 as i64,
                    spec.pads.1 as i64,
                    spec.pads.0 as i64,
                    spec.pads.1 as i64,
                ],
            ));
            if spec.ceil_mode {
                a.push(AttributeProto::int("ceil_mode", 1));
            }
        }
        OpKind::Concat { axis } | OpKind::Flatten { axis } | OpKind::Gather { axis } => {
            a.push(AttributeProto::int("axis", *axis as i64))
        }
        OpKind::Split { axis, parts } => {
            a.push(AttributeProto::int("axis", *axis as i64));
            a.push(AttributeProto::ints(
                "split",
                parts.iter().map(|&p| p as i64).collect(),
            ));
        }
        OpKind::Slice {
            axes,
            starts,
            ends,
            steps,
        } => {
            a.push(AttributeProto::ints("starts", starts.clone()));
            a.push(AttributeProto::ints("ends", ends.clone()));
            a.push(AttributeProto::ints(
                "axes",
                axes.iter().map(|&x| x as i64).collect(),
            ));
            a.push(AttributeProto::ints("steps", steps.clone()));
        }
        OpKind::Transpose { perm } => a.push(AttributeProto::ints(
            "perm",
            perm.iter().map(|&p| p as i64).collect(),
        )),
        OpKind::Unsqueeze { axes } | OpKind::Squeeze { axes } => a.push(AttributeProto::ints(
            "axes",
            axes.iter().map(|&x| x as i64).collect(),
        )),
        OpKind::Resize { scale } => {
            // No attribute-form scales exists in any opset; emit the
            // two-input `(X, scales)` form with a synthesized constant
            // operand (node names are unique, so the derived name is too).
            a.push(AttributeProto::string("mode", "nearest"));
            let scales_name = format!("{}__scales", node.name);
            let scales = TensorData::f32(vec![4], vec![1.0, 1.0, scale.0 as f32, scale.1 as f32]);
            np.input.push(Cow::Owned(scales_name.clone()));
            gp.initializer.push(tensor_proto(scales_name, &scales));
        }
        OpKind::Pad { pads } => a.push(AttributeProto::ints(
            "pads",
            vec![
                0,
                0,
                pads.0 as i64,
                pads.1 as i64,
                0,
                0,
                pads.2 as i64,
                pads.3 as i64,
            ],
        )),
        OpKind::Cast { to } => a.push(AttributeProto::int("to", elem_of(*to))),
        OpKind::Constant => {
            if let Some(data) = node.outputs.first().and_then(|o| graph.initializers.get(o)) {
                a.push(AttributeProto::tensor("value", tensor_proto("", data)));
            }
        }
        OpKind::ConstantOfShape { value } => {
            let data = TensorData::f32(vec![1], vec![*value]);
            a.push(AttributeProto::tensor("value", tensor_proto("", &data)));
        }
        // Attribute-free operators.
        OpKind::MatMul
        | OpKind::Relu
        | OpKind::Sigmoid
        | OpKind::Tanh
        | OpKind::Gelu
        | OpKind::Erf
        | OpKind::Sqrt
        | OpKind::Exp
        | OpKind::Neg
        | OpKind::Dropout
        | OpKind::Identity
        | OpKind::Add
        | OpKind::Sub
        | OpKind::Mul
        | OpKind::Div
        | OpKind::Pow
        | OpKind::Equal
        | OpKind::Where
        | OpKind::GlobalAveragePool
        | OpKind::Reshape
        | OpKind::Expand
        | OpKind::Shape => {}
    }
}
