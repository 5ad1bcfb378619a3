//! The decoded ONNX message subset: `ModelProto`, `GraphProto`,
//! `NodeProto`, `AttributeProto`, `TensorProto`, `ValueInfoProto`.
//!
//! Field numbers follow `onnx/onnx.proto` (the frozen protobuf schema the
//! whole ONNX ecosystem serializes against). Only the fields the importer
//! consumes are materialized; unknown fields are skipped by wire type, so
//! models carrying metadata, docstrings, training info or quantization
//! annotations still decode — the importer then decides what it supports.
//!
//! Decoding borrows: every name, attribute string and `raw_data` payload of
//! a message decoded by [`ModelProto::decode`] is a `Cow::Borrowed` slice of
//! the input bytes, so a decode allocates the message vectors and no copy
//! of a weight or a name. The exporter fills the same fields with owned
//! data (`Cow::Owned`), or borrows the names from the graph it exports.

use crate::wire::{WireReader, WireWriter};
use crate::OnnxError;
use std::borrow::Cow;

/// `TensorProto.DataType` values for the element types the IR supports.
pub mod data_type {
    pub const FLOAT: i64 = 1;
    pub const INT64: i64 = 7;
    pub const BOOL: i64 = 9;
}

/// `AttributeProto.AttributeType` values.
pub mod attr_type {
    pub const FLOAT: i64 = 1;
    pub const INT: i64 = 2;
    pub const STRING: i64 = 3;
    pub const TENSOR: i64 = 4;
    pub const FLOATS: i64 = 6;
    pub const INTS: i64 = 7;
}

/// Top-level `.onnx` message.
#[derive(Debug, Default, Clone)]
pub struct ModelProto<'a> {
    pub ir_version: i64,
    pub producer_name: Cow<'a, str>,
    pub producer_version: Cow<'a, str>,
    /// `(domain, version)` pairs; the default domain is the empty string.
    pub opset_import: Vec<(String, i64)>,
    pub graph: Option<GraphProto<'a>>,
}

#[derive(Debug, Default, Clone)]
pub struct GraphProto<'a> {
    pub name: Cow<'a, str>,
    pub node: Vec<NodeProto<'a>>,
    pub initializer: Vec<TensorProto<'a>>,
    pub input: Vec<ValueInfoProto<'a>>,
    pub output: Vec<ValueInfoProto<'a>>,
    pub value_info: Vec<ValueInfoProto<'a>>,
}

#[derive(Debug, Default, Clone)]
pub struct NodeProto<'a> {
    pub name: Cow<'a, str>,
    pub op_type: Cow<'a, str>,
    pub domain: Cow<'a, str>,
    pub input: Vec<Cow<'a, str>>,
    pub output: Vec<Cow<'a, str>>,
    pub attribute: Vec<AttributeProto<'a>>,
}

#[derive(Debug, Default, Clone)]
pub struct AttributeProto<'a> {
    pub name: Cow<'a, str>,
    /// `AttributeProto.AttributeType`; 0 when the writer omitted it (the
    /// populated payload field then determines the type).
    pub r#type: i64,
    pub f: f32,
    pub i: i64,
    pub s: Cow<'a, [u8]>,
    /// Boxed: only `Constant`-like attributes carry a tensor, and inline it
    /// would double the size of every attribute of every node.
    pub t: Option<Box<TensorProto<'a>>>,
    pub floats: Vec<f32>,
    pub ints: Vec<i64>,
}

#[derive(Debug, Default, Clone)]
pub struct TensorProto<'a> {
    pub name: Cow<'a, str>,
    pub dims: Vec<i64>,
    /// `TensorProto.DataType` (see [`data_type`]).
    pub data_type: i64,
    /// Little-endian packed element bytes; the exporter always writes this
    /// form, the importer also accepts the typed `*_data` fields below.
    /// Decoded payloads sit at whatever offset the field had in the file,
    /// so they are read byte-wise, never cast to a wider element type.
    pub raw_data: Cow<'a, [u8]>,
    pub float_data: Vec<f32>,
    pub int64_data: Vec<i64>,
    pub int32_data: Vec<i64>,
}

#[derive(Debug, Default, Clone)]
pub struct ValueInfoProto<'a> {
    pub name: Cow<'a, str>,
    /// `(elem_type, dims)` from `type.tensor_type`; `None` when absent.
    /// Symbolic dimensions (`dim_param`) decode as `Err` in the dim slot.
    pub tensor_type: Option<(i64, Vec<Dim>)>,
}

/// One dimension of a `TensorShapeProto`: a concrete extent or a named
/// symbolic parameter (which this IR's fully-static shapes reject, with
/// the parameter name in the diagnostic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Dim {
    Value(i64),
    Param(String),
}

impl<'a> ModelProto<'a> {
    pub fn decode(bytes: &'a [u8]) -> Result<ModelProto<'a>, OnnxError> {
        let mut r = WireReader::new(bytes);
        let mut m = ModelProto::default();
        while !r.is_empty() {
            let (field, wt) = r.key()?;
            match field {
                1 => m.ir_version = r.varint_i64()?,
                2 => m.producer_name = r.string()?.into(),
                3 => m.producer_version = r.string()?.into(),
                7 => m.graph = Some(GraphProto::decode(r.message()?)?),
                8 => {
                    let mut sub = r.message()?;
                    let (mut domain, mut version) = (String::new(), 0i64);
                    while !sub.is_empty() {
                        let (f, w) = sub.key()?;
                        match f {
                            1 => domain = sub.string()?.to_string(),
                            2 => version = sub.varint_i64()?,
                            _ => sub.skip(w)?,
                        }
                    }
                    m.opset_import.push((domain, version));
                }
                _ => r.skip(wt)?,
            }
        }
        Ok(m)
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.field_i64(1, self.ir_version);
        if !self.producer_name.is_empty() {
            w.field_string(2, &self.producer_name);
        }
        if !self.producer_version.is_empty() {
            w.field_string(3, &self.producer_version);
        }
        for (domain, version) in &self.opset_import {
            let mut sub = WireWriter::new();
            if !domain.is_empty() {
                sub.field_string(1, domain);
            }
            sub.field_i64(2, *version);
            w.field_message(8, sub);
        }
        // The graph goes last (field order is free in protobuf): any strict
        // truncation of the file then clips the graph — either losing it
        // entirely (ONNX-MODEL) or cutting it mid-message (ONNX-WIRE) —
        // instead of silently dropping a trailing optional field.
        if let Some(g) = &self.graph {
            w.field_message(7, g.encode());
        }
        w.into_bytes()
    }
}

impl<'a> GraphProto<'a> {
    fn decode(mut r: WireReader<'a>) -> Result<GraphProto<'a>, OnnxError> {
        let mut g = GraphProto::default();
        while !r.is_empty() {
            let (field, wt) = r.key()?;
            match field {
                1 => g.node.push(NodeProto::decode(r.message()?)?),
                2 => g.name = r.string()?.into(),
                5 => g.initializer.push(TensorProto::decode(r.message()?)?),
                11 => g.input.push(ValueInfoProto::decode(r.message()?)?),
                12 => g.output.push(ValueInfoProto::decode(r.message()?)?),
                13 => g.value_info.push(ValueInfoProto::decode(r.message()?)?),
                _ => r.skip(wt)?,
            }
        }
        Ok(g)
    }

    fn encode(&self) -> WireWriter {
        let mut w = WireWriter::new();
        for n in &self.node {
            w.field_message(1, n.encode());
        }
        if !self.name.is_empty() {
            w.field_string(2, &self.name);
        }
        for t in &self.initializer {
            w.field_message(5, t.encode());
        }
        for v in &self.input {
            w.field_message(11, v.encode());
        }
        for v in &self.output {
            w.field_message(12, v.encode());
        }
        for v in &self.value_info {
            w.field_message(13, v.encode());
        }
        w
    }
}

impl<'a> NodeProto<'a> {
    fn decode(mut r: WireReader<'a>) -> Result<NodeProto<'a>, OnnxError> {
        let mut n = NodeProto::default();
        while !r.is_empty() {
            let (field, wt) = r.key()?;
            match field {
                1 => n.input.push(r.string()?.into()),
                2 => n.output.push(r.string()?.into()),
                3 => n.name = r.string()?.into(),
                4 => n.op_type = r.string()?.into(),
                5 => n.attribute.push(AttributeProto::decode(r.message()?)?),
                7 => n.domain = r.string()?.into(),
                _ => r.skip(wt)?,
            }
        }
        Ok(n)
    }

    fn encode(&self) -> WireWriter {
        let mut w = WireWriter::new();
        for i in &self.input {
            w.field_string(1, i);
        }
        for o in &self.output {
            w.field_string(2, o);
        }
        if !self.name.is_empty() {
            w.field_string(3, &self.name);
        }
        w.field_string(4, &self.op_type);
        for a in &self.attribute {
            w.field_message(5, a.encode());
        }
        if !self.domain.is_empty() {
            w.field_string(7, &self.domain);
        }
        w
    }
}

impl<'a> AttributeProto<'a> {
    fn decode(mut r: WireReader<'a>) -> Result<AttributeProto<'a>, OnnxError> {
        let mut a = AttributeProto::default();
        while !r.is_empty() {
            let (field, wt) = r.key()?;
            match field {
                1 => a.name = r.string()?.into(),
                2 => a.f = r.float()?,
                3 => a.i = r.varint_i64()?,
                4 => a.s = r.bytes()?.into(),
                5 => a.t = Some(Box::new(TensorProto::decode(r.message()?)?)),
                7 => r.repeated_f32(wt, &mut a.floats)?,
                8 => r.repeated_i64(wt, &mut a.ints)?,
                20 => a.r#type = r.varint_i64()?,
                _ => r.skip(wt)?,
            }
        }
        Ok(a)
    }

    fn encode(&self) -> WireWriter {
        let mut w = WireWriter::new();
        w.field_string(1, &self.name);
        match self.r#type {
            attr_type::FLOAT => w.field_f32(2, self.f),
            attr_type::INT => w.field_i64(3, self.i),
            attr_type::STRING => w.field_bytes(4, &self.s),
            attr_type::TENSOR => {
                if let Some(t) = &self.t {
                    w.field_message(5, t.encode());
                }
            }
            attr_type::FLOATS => w.field_packed_f32(7, &self.floats),
            attr_type::INTS => w.field_packed_i64(8, &self.ints),
            _ => {}
        }
        w.field_i64(20, self.r#type);
        w
    }

    /// Typed constructors used by the exporter.
    pub fn int(name: &'a str, v: i64) -> AttributeProto<'a> {
        AttributeProto {
            name: name.into(),
            r#type: attr_type::INT,
            i: v,
            ..Default::default()
        }
    }

    pub fn float(name: &'a str, v: f32) -> AttributeProto<'a> {
        AttributeProto {
            name: name.into(),
            r#type: attr_type::FLOAT,
            f: v,
            ..Default::default()
        }
    }

    pub fn string(name: &'a str, v: &'a str) -> AttributeProto<'a> {
        AttributeProto {
            name: name.into(),
            r#type: attr_type::STRING,
            s: v.as_bytes().into(),
            ..Default::default()
        }
    }

    pub fn ints(name: &'a str, vs: Vec<i64>) -> AttributeProto<'a> {
        AttributeProto {
            name: name.into(),
            r#type: attr_type::INTS,
            ints: vs,
            ..Default::default()
        }
    }

    pub fn tensor(name: &'a str, t: TensorProto<'a>) -> AttributeProto<'a> {
        AttributeProto {
            name: name.into(),
            r#type: attr_type::TENSOR,
            t: Some(Box::new(t)),
            ..Default::default()
        }
    }
}

impl<'a> TensorProto<'a> {
    fn decode(mut r: WireReader<'a>) -> Result<TensorProto<'a>, OnnxError> {
        let mut t = TensorProto::default();
        while !r.is_empty() {
            let (field, wt) = r.key()?;
            match field {
                1 => r.repeated_i64(wt, &mut t.dims)?,
                2 => t.data_type = r.varint_i64()?,
                4 => r.repeated_f32(wt, &mut t.float_data)?,
                5 => r.repeated_i64(wt, &mut t.int32_data)?,
                7 => r.repeated_i64(wt, &mut t.int64_data)?,
                8 => t.name = r.string()?.into(),
                9 => t.raw_data = r.bytes()?.into(),
                _ => r.skip(wt)?,
            }
        }
        Ok(t)
    }

    pub(crate) fn encode(&self) -> WireWriter {
        let mut w = WireWriter::new();
        w.field_packed_i64(1, &self.dims);
        w.field_i64(2, self.data_type);
        if !self.name.is_empty() {
            w.field_string(8, &self.name);
        }
        if !self.raw_data.is_empty() {
            w.field_bytes(9, &self.raw_data);
        }
        w.field_packed_f32(4, &self.float_data);
        w.field_packed_i64(5, &self.int32_data);
        w.field_packed_i64(7, &self.int64_data);
        w
    }
}

impl<'a> ValueInfoProto<'a> {
    fn decode(mut r: WireReader<'a>) -> Result<ValueInfoProto<'a>, OnnxError> {
        let mut v = ValueInfoProto::default();
        while !r.is_empty() {
            let (field, wt) = r.key()?;
            match field {
                1 => v.name = r.string()?.into(),
                2 => {
                    // TypeProto { tensor_type = 1 }
                    let mut ty = r.message()?;
                    while !ty.is_empty() {
                        let (f, w) = ty.key()?;
                        if f != 1 {
                            ty.skip(w)?;
                            continue;
                        }
                        // TypeProto.Tensor { elem_type = 1, shape = 2 }
                        let mut tt = ty.message()?;
                        let (mut elem, mut dims) = (0i64, Vec::new());
                        while !tt.is_empty() {
                            let (f2, w2) = tt.key()?;
                            match f2 {
                                1 => elem = tt.varint_i64()?,
                                2 => {
                                    // TensorShapeProto { dim = 1 }
                                    let mut sh = tt.message()?;
                                    while !sh.is_empty() {
                                        let (f3, w3) = sh.key()?;
                                        if f3 != 1 {
                                            sh.skip(w3)?;
                                            continue;
                                        }
                                        // Dimension { dim_value = 1, dim_param = 2 }
                                        let mut d = sh.message()?;
                                        let mut dim = Dim::Value(0);
                                        while !d.is_empty() {
                                            let (f4, w4) = d.key()?;
                                            match f4 {
                                                1 => dim = Dim::Value(d.varint_i64()?),
                                                2 => dim = Dim::Param(d.string()?.to_string()),
                                                _ => d.skip(w4)?,
                                            }
                                        }
                                        dims.push(dim);
                                    }
                                }
                                _ => tt.skip(w2)?,
                            }
                        }
                        v.tensor_type = Some((elem, dims));
                    }
                }
                _ => r.skip(wt)?,
            }
        }
        Ok(v)
    }

    fn encode(&self) -> WireWriter {
        let mut w = WireWriter::new();
        w.field_string(1, &self.name);
        if let Some((elem, dims)) = &self.tensor_type {
            let mut shape = WireWriter::new();
            for d in dims {
                let mut dim = WireWriter::new();
                match d {
                    Dim::Value(v) => dim.field_i64(1, *v),
                    Dim::Param(p) => dim.field_string(2, p),
                }
                shape.field_message(1, dim);
            }
            let mut tt = WireWriter::new();
            tt.field_i64(1, *elem);
            tt.field_message(2, shape);
            let mut ty = WireWriter::new();
            ty.field_message(1, tt);
            w.field_message(2, ty);
        }
        w
    }

    /// A fixed-shape tensor value info (the exporter's only form).
    pub fn tensor(name: &'a str, elem: i64, dims: &[usize]) -> ValueInfoProto<'a> {
        ValueInfoProto {
            name: name.into(),
            tensor_type: Some((elem, dims.iter().map(|&d| Dim::Value(d as i64)).collect())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_round_trip_through_bytes() {
        let model = ModelProto {
            ir_version: 8,
            producer_name: "ramiel".into(),
            producer_version: "0.1".into(),
            opset_import: vec![(String::new(), 13)],
            graph: Some(GraphProto {
                name: "g".into(),
                node: vec![NodeProto {
                    name: "relu0".into(),
                    op_type: "Relu".into(),
                    input: vec!["x".into()],
                    output: vec!["y".into()],
                    attribute: vec![
                        AttributeProto::float("alpha", 0.5),
                        AttributeProto::ints("axes", vec![-1, 2]),
                        AttributeProto::string("mode", "nearest"),
                    ],
                    ..Default::default()
                }],
                initializer: vec![TensorProto {
                    name: "w".into(),
                    dims: vec![2, 2],
                    data_type: data_type::FLOAT,
                    raw_data: 1.5f32
                        .to_le_bytes()
                        .iter()
                        .chain(2.5f32.to_le_bytes().iter())
                        .chain(3.5f32.to_le_bytes().iter())
                        .chain((-4.5f32).to_le_bytes().iter())
                        .copied()
                        .collect(),
                    ..Default::default()
                }],
                input: vec![ValueInfoProto::tensor("x", data_type::FLOAT, &[1, 4])],
                output: vec![ValueInfoProto::tensor("y", data_type::FLOAT, &[1, 4])],
                ..Default::default()
            }),
        };
        let bytes = model.encode();
        let back = ModelProto::decode(&bytes).unwrap();
        assert_eq!(back.ir_version, 8);
        assert_eq!(back.opset_import, vec![(String::new(), 13)]);
        let g = back.graph.unwrap();
        assert_eq!(g.name, "g");
        assert_eq!(g.node.len(), 1);
        assert_eq!(g.node[0].op_type, "Relu");
        assert_eq!(g.node[0].attribute.len(), 3);
        assert_eq!(g.node[0].attribute[0].f, 0.5);
        assert_eq!(g.node[0].attribute[1].ints, vec![-1, 2]);
        assert_eq!(g.node[0].attribute[2].s, b"nearest".to_vec());
        assert_eq!(g.initializer[0].dims, vec![2, 2]);
        assert_eq!(g.initializer[0].raw_data.len(), 16);
        assert_eq!(
            g.input[0].tensor_type,
            Some((data_type::FLOAT, vec![Dim::Value(1), Dim::Value(4)]))
        );
    }

    #[test]
    fn symbolic_dims_decode_as_params() {
        let v = ValueInfoProto {
            name: "x".into(),
            tensor_type: Some((
                data_type::FLOAT,
                vec![Dim::Param("batch".into()), Dim::Value(768)],
            )),
        };
        let mut w = WireWriter::new();
        w.field_message(11, v.encode());
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        r.key().unwrap();
        let back = ValueInfoProto::decode(r.message().unwrap()).unwrap();
        assert_eq!(
            back.tensor_type,
            Some((
                data_type::FLOAT,
                vec![Dim::Param("batch".into()), Dim::Value(768)]
            ))
        );
    }

    #[test]
    fn unknown_fields_are_skipped() {
        // A NodeProto with an unknown field 99 (varint) interleaved.
        let mut w = WireWriter::new();
        w.field_string(4, "Relu");
        w.field_i64(99, 7);
        w.field_string(2, "out");
        let mut outer = WireWriter::new();
        outer.field_message(1, w);
        let bytes = outer.into_bytes();
        let mut r = WireReader::new(&bytes);
        r.key().unwrap();
        let n = NodeProto::decode(r.message().unwrap()).unwrap();
        assert_eq!(n.op_type, "Relu");
        assert_eq!(n.output, vec!["out".to_string()]);
    }
}
