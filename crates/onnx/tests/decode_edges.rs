//! Edge cases of the borrowed decode: payloads that sit at any offset of the
//! file, payload lengths that disagree with their dims, names that are not
//! UTF-8, `Constant`s that collide with initializers, and which error wins
//! when the initializer table and the node lowering both fail.

use ramiel_onnx::proto::{
    data_type, AttributeProto, GraphProto, ModelProto, NodeProto, TensorProto, ValueInfoProto,
};
use ramiel_onnx::{import_model, OnnxError};
use std::borrow::Cow;

/// Bit patterns a float-formatting or realigning copy would disturb:
/// signed zero, a subnormal, a NaN with payload, infinities, extremes.
const AWKWARD: [f32; 8] = [
    1.5,
    -0.0,
    f32::from_bits(0x0000_0001),
    f32::from_bits(0x7fc0_1234),
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::MAX,
    -3.25e-38,
];

fn node(op: &'static str, name: &'static str, inputs: &[&'static str]) -> NodeProto<'static> {
    NodeProto {
        name: name.into(),
        op_type: op.into(),
        input: inputs.iter().map(|&s| s.into()).collect(),
        output: vec!["y".into()],
        ..Default::default()
    }
}

fn f32_tensor(name: &'static str, dims: &[i64], values: &[f32]) -> TensorProto<'static> {
    TensorProto {
        name: name.into(),
        dims: dims.to_vec(),
        data_type: data_type::FLOAT,
        raw_data: values
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect::<Vec<u8>>()
            .into(),
        ..Default::default()
    }
}

/// `y = node(x, …)` over a `[1, 8]` f32 input `x`.
fn model(
    initializer: Vec<TensorProto<'static>>,
    nodes: Vec<NodeProto<'static>>,
) -> ModelProto<'static> {
    ModelProto {
        ir_version: 8,
        opset_import: vec![(String::new(), 13)],
        graph: Some(GraphProto {
            name: "g".into(),
            initializer,
            input: vec![ValueInfoProto::tensor("x", data_type::FLOAT, &[1, 8])],
            output: vec![ValueInfoProto::tensor("y", data_type::FLOAT, &[1, 8])],
            node: nodes,
            ..Default::default()
        }),
        ..Default::default()
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn raw_data_at_odd_offsets_decodes_bit_exactly() {
    let names = ["w", "w2", "w_3", "w__4", "w___5", "w____6", "w_____7"];
    let mut offsets = [false; 4];
    for name in names {
        let bytes = model(
            vec![f32_tensor(name, &[1, 8], &AWKWARD)],
            vec![node("Add", "add", &["x", name])],
        )
        .encode();
        // The same file at an aligned and at an odd address.
        let mut shifted = vec![0u8];
        shifted.extend_from_slice(&bytes);
        for file in [&bytes[..], &shifted[1..]] {
            let decoded = ModelProto::decode(file).unwrap();
            let raw = &decoded.graph.as_ref().unwrap().initializer[0].raw_data;
            let Cow::Borrowed(raw) = raw else {
                panic!("`{name}`: raw_data was copied out of the file")
            };
            let span = file.as_ptr_range();
            assert!(
                span.contains(&raw.as_ptr()),
                "`{name}`: raw_data outside the file"
            );
            offsets[raw.as_ptr() as usize % 4] = true;

            let graph = import_model(file).unwrap();
            let payload = graph.initializers[name].as_f32().unwrap();
            assert_eq!(bits(payload), bits(&AWKWARD), "`{name}`");
        }
    }
    assert_eq!(
        offsets, [true; 4],
        "not every alignment mod 4 was exercised"
    );
}

#[test]
fn raw_data_length_that_disagrees_with_dims_is_a_tensor_error() {
    let sized = |name: &'static str, data_type: i64, dims: &[i64], len: usize| TensorProto {
        name: name.into(),
        dims: dims.to_vec(),
        data_type,
        raw_data: vec![0u8; len].into(),
        ..Default::default()
    };
    for (t, what) in [
        (sized("w", data_type::FLOAT, &[1, 8], 28), "one f32 short"),
        (sized("w", data_type::FLOAT, &[1, 8], 36), "one f32 long"),
        (
            sized("w", data_type::FLOAT, &[1, 8], 31),
            "a ragged f32 tail",
        ),
        (
            sized("w", data_type::FLOAT, &[2, 8], 32),
            "half of the dims",
        ),
        (sized("w", data_type::INT64, &[3], 16), "one i64 short"),
    ] {
        let bytes = model(vec![t], vec![node("Add", "add", &["x", "w"])]).encode();
        let err = import_model(&bytes).unwrap_err();
        assert_eq!(err.code(), "ONNX-TENSOR", "{what}: {err}");
        assert!(err.to_string().contains("`w`"), "{what}: {err}");
    }
}

/// Replace the last occurrence of `marker` in `bytes` with bytes that are
/// not UTF-8; returns the offset of the string field's length prefix, the
/// position the wire reader reports.
fn poison(bytes: &mut [u8], marker: &str) -> usize {
    let at = bytes
        .windows(marker.len())
        .rposition(|w| w == marker.as_bytes())
        .unwrap_or_else(|| panic!("`{marker}` not in the file"));
    bytes[at..at + marker.len()].fill(0xff);
    // Every marker is shorter than 128 bytes: a one-byte length varint.
    at - 1
}

#[test]
fn non_utf8_names_are_wire_errors_at_the_length_prefix() {
    // `INIT_NAME` is also an input of `add`, earlier in the file: the last
    // occurrence is the initializer's own name.
    let mut relu = node("Relu", "NODE_NAME", &["x"]);
    relu.attribute.push(AttributeProto::int("ATTR_NAME", 1));
    relu.output = vec!["mid".into()];
    let add = node("Add", "add", &["mid", "INIT_NAME"]);
    let mut clean = model(
        vec![f32_tensor("INIT_NAME", &[1, 8], &AWKWARD)],
        vec![relu, add],
    );
    clean.graph.as_mut().unwrap().name = "GRAPH_NAME".into();
    clean.graph.as_mut().unwrap().input[0].name = "INPUT_NAME".into();
    let bytes = clean.encode();
    for marker in [
        "NODE_NAME",
        "ATTR_NAME",
        "INIT_NAME",
        "GRAPH_NAME",
        "INPUT_NAME",
    ] {
        let mut copy = bytes.clone();
        let offset = poison(&mut copy, marker);
        let err = import_model(&copy).unwrap_err();
        assert_eq!(
            err,
            OnnxError::Wire {
                offset,
                reason: "string field is not valid UTF-8".into()
            },
            "{marker}"
        );
    }
}

#[test]
fn a_constant_that_redefines_an_initializer_is_a_model_error() {
    let constant = |name: &'static str, out: &'static str| NodeProto {
        name: name.into(),
        op_type: "Constant".into(),
        output: vec![out.into()],
        attribute: vec![AttributeProto::tensor(
            "value",
            f32_tensor("", &[1, 8], &AWKWARD),
        )],
        ..Default::default()
    };
    // Over an initializer.
    let bytes = model(
        vec![f32_tensor("c", &[1, 8], &AWKWARD)],
        vec![constant("k", "c"), node("Add", "add", &["x", "c"])],
    )
    .encode();
    let err = import_model(&bytes).unwrap_err();
    assert_eq!(err.code(), "ONNX-MODEL", "{err}");
    assert!(
        err.to_string()
            .contains("Constant node `k` redefines initializer `c`"),
        "{err}"
    );
    // Over an earlier Constant.
    let bytes = model(
        vec![],
        vec![
            constant("k1", "c"),
            constant("k2", "c"),
            node("Add", "add", &["x", "c"]),
        ],
    )
    .encode();
    let err = import_model(&bytes).unwrap_err();
    assert!(
        err.to_string()
            .contains("Constant node `k2` redefines initializer `c`"),
        "{err}"
    );
}

#[test]
fn an_initializer_error_wins_over_a_lowering_error() {
    let mut short = f32_tensor("w", &[1, 8], &AWKWARD);
    short.raw_data = vec![0u8; 4].into();
    let bytes = model(vec![short], vec![node("NotAnOp", "odd", &["x", "w"])]).encode();
    assert_eq!(import_model(&bytes).unwrap_err().code(), "ONNX-TENSOR");
    // And the lowering error is the one reported once the table is fine.
    let bytes = model(
        vec![f32_tensor("w", &[1, 8], &AWKWARD)],
        vec![node("NotAnOp", "odd", &["x", "w"])],
    )
    .encode();
    assert_eq!(
        import_model(&bytes).unwrap_err().code(),
        "ONNX-UNSUPPORTED-OP"
    );
}

#[test]
fn lifted_operands_read_initializers_and_constants_and_are_pruned() {
    let scalar = |name: &'static str, v: f32| TensorProto {
        name: name.into(),
        data_type: data_type::FLOAT,
        raw_data: v.to_le_bytes().to_vec().into(),
        ..Default::default()
    };
    // Opset-11 Clip: min from an initializer, max from a Constant node.
    let max = NodeProto {
        name: "max".into(),
        op_type: "Constant".into(),
        output: vec!["hi".into()],
        attribute: vec![AttributeProto::tensor("value", scalar("", 2.5))],
        ..Default::default()
    };
    let bytes = model(
        vec![scalar("lo", -0.5)],
        vec![max, node("Clip", "clip", &["x", "lo", "hi"])],
    )
    .encode();
    let graph = import_model(&bytes).unwrap();
    let clip = graph.nodes.iter().find(|n| n.name == "clip").unwrap();
    assert_eq!(
        clip.op,
        ramiel_ir::OpKind::Clip {
            min: -0.5,
            max: 2.5
        }
    );
    assert_eq!(clip.inputs, vec!["x".to_string()]);
    // `lo` fed only the lifted operand; `hi` is the Constant node's output.
    assert!(!graph.initializers.contains_key("lo"));
    assert!(graph.initializers.contains_key("hi"));
}
