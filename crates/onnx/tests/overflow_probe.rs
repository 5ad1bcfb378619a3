use ramiel_onnx::proto::{
    data_type, GraphProto, ModelProto, NodeProto, TensorProto, ValueInfoProto,
};

#[test]
fn hostile_dims_product_overflow() {
    // dims whose product overflows u64/usize: (1<<33) * (1<<33) = 1<<66
    let t = TensorProto {
        name: "w".into(),
        dims: vec![1i64 << 33, 1i64 << 33],
        data_type: data_type::FLOAT,
        raw_data: vec![].into(),
        ..Default::default()
    };
    let gp = GraphProto {
        name: "g".into(),
        initializer: vec![t],
        input: vec![ValueInfoProto::tensor("x", data_type::FLOAT, &[1, 4])],
        output: vec![ValueInfoProto::tensor("y", data_type::FLOAT, &[1, 4])],
        node: vec![NodeProto {
            name: "relu".into(),
            op_type: "Relu".into(),
            input: vec!["x".into()],
            output: vec!["y".into()],
            ..Default::default()
        }],
        ..Default::default()
    };
    let m = ModelProto {
        ir_version: 8,
        opset_import: vec![(String::new(), 13)],
        graph: Some(gp),
        ..Default::default()
    };
    let bytes = m.encode();
    let res = ramiel_onnx::import_model(&bytes);
    eprintln!("import result: {:?}", res.as_ref().map(|_| "OK"));
    assert!(res.is_err(), "hostile dims were accepted");
}

#[test]
fn wrapped_numel_matching_short_raw_data_is_refused() {
    // (2^62 + 1) * 4 = 2^64 + 4, which wraps to 4 elements: with unchecked
    // arithmetic a 16-byte raw_data "matches" and the tensor imports with a
    // shape that lies about its size.
    let t = TensorProto {
        name: "w".into(),
        dims: vec![(1i64 << 62) + 1, 4],
        data_type: data_type::FLOAT,
        raw_data: vec![0u8; 16].into(),
        ..Default::default()
    };
    let gp = GraphProto {
        name: "g".into(),
        initializer: vec![t],
        input: vec![ValueInfoProto::tensor("x", data_type::FLOAT, &[1, 4])],
        output: vec![ValueInfoProto::tensor("y", data_type::FLOAT, &[1, 4])],
        node: vec![NodeProto {
            name: "add".into(),
            op_type: "Add".into(),
            input: vec!["x".into(), "w".into()],
            output: vec!["y".into()],
            ..Default::default()
        }],
        ..Default::default()
    };
    let m = ModelProto {
        ir_version: 8,
        opset_import: vec![(String::new(), 13)],
        graph: Some(gp),
        ..Default::default()
    };
    let err = ramiel_onnx::import_model(&m.encode()).expect_err("wrapped dims were accepted");
    assert_eq!(err.code(), "ONNX-TENSOR", "{err}");
}
