//! Lowering a decoded ONNX `ModelProto` onto the `ramiel-ir` graph.
//!
//! The importer covers the operator subset the IR models (the ops exercised
//! by the paper's eight topologies plus the shape-computation scaffolding
//! ONNX exporters emit around them). It accepts both encoding generations
//! for operators whose parameters migrated from attributes to constant
//! inputs across opsets (`Clip`, `Slice`, `Split`, `Squeeze`, `Unsqueeze`,
//! `ReduceMean`, `Resize`, `Pad`): constant-input forms are *lifted* back
//! into IR attributes, the lifted operands are dropped from the node, and
//! initializers referenced only by lifted operands are pruned.
//!
//! The decoded protos borrow every name and payload from the file bytes;
//! the importer allocates each name once, in the [`Graph`], and converts
//! each initializer payload once, into the `Vec` the graph keeps.
//!
//! Anything outside the subset fails with a structured [`OnnxError`] naming
//! the operator and node. Every successful import is pushed through
//! `ir::validate`, `ir::shape` inference and `ramiel_verify` — once each, over
//! one adjacency snapshot and one topological order — so an imported file
//! meets exactly the invariants natively built graphs do.

use crate::proto::{attr_type, data_type, AttributeProto, Dim, ModelProto, NodeProto, TensorProto};
use crate::{OnnxError, Result};
use ramiel_ir::graph::Adjacency;
use ramiel_ir::shape::checked_numel;
use ramiel_ir::tensor_data::Payload;
use ramiel_ir::{DType, Graph, OpKind, PoolSpec, TensorData, TensorInfo};
use ramiel_verify::Severity;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet};

/// Decode ONNX bytes and lower them to a validated, shape-inferred,
/// verifier-clean [`Graph`].
pub fn import_model(bytes: &[u8]) -> Result<Graph> {
    import_model_with(bytes, |_, _| ()).map(|(graph, ())| graph)
}

/// [`import_model`], then `then` over the checked graph and the adjacency
/// snapshot the import checked it with, so a caller that goes on to
/// schedule or plan the graph builds no snapshot of its own. Returns the
/// graph and what `then` returned; `then` runs only on a graph that passed
/// every check.
pub fn import_model_with<T>(
    bytes: &[u8],
    then: impl FnOnce(&Graph, &Adjacency<'_>) -> T,
) -> Result<(Graph, T)> {
    let model = ModelProto::decode(bytes)?;
    import_graph_with(&model, then)
}

/// Lower an already-decoded [`ModelProto`] (see [`import_model`]).
pub fn import_graph(model: &ModelProto<'_>) -> Result<Graph> {
    import_graph_with(model, |_, _| ()).map(|(graph, ())| graph)
}

/// [`import_graph`] followed by `then`, as in [`import_model_with`].
fn import_graph_with<T>(
    model: &ModelProto<'_>,
    then: impl FnOnce(&Graph, &Adjacency<'_>) -> T,
) -> Result<(Graph, T)> {
    let gp = model.graph.as_ref().ok_or_else(|| OnnxError::Model {
        reason: "model has no graph".into(),
    })?;
    let opset = model
        .opset_import
        .iter()
        .find(|(domain, _)| domain.is_empty() || domain == "ai.onnx")
        .map(|&(_, v)| v)
        .unwrap_or(13);

    let mut graph = Graph::new(if gp.name.is_empty() {
        "onnx-model"
    } else {
        &gp.name
    });

    for t in &gp.initializer {
        let data = tensor_data(t)?;
        if graph
            .initializers
            .insert(t.name.to_string(), data)
            .is_some()
        {
            return Err(OnnxError::Model {
                reason: format!("duplicate initializer `{}`", t.name),
            });
        }
    }

    // ONNX graph inputs include initializers (pre-IR-v4 style); runtime
    // inputs are the ones without a constant payload.
    for vi in &gp.input {
        if graph.initializers.contains_key(&*vi.name) {
            continue;
        }
        let (elem, dims) = vi.tensor_type.as_ref().ok_or_else(|| OnnxError::Shape {
            name: vi.name.to_string(),
            reason: "graph input has no tensor type".into(),
        })?;
        let dtype = dtype_of(*elem, &format!("graph input `{}`", vi.name))?;
        let mut shape = Vec::with_capacity(dims.len());
        for d in dims {
            match d {
                Dim::Value(v) if *v > 0 => shape.push(*v as usize),
                Dim::Value(v) => {
                    return Err(OnnxError::Shape {
                        name: vi.name.to_string(),
                        reason: format!("non-positive dimension {v} (shapes must be fully static)"),
                    })
                }
                Dim::Param(p) => {
                    return Err(OnnxError::Shape {
                        name: vi.name.to_string(),
                        reason: format!(
                            "symbolic dimension `{p}` — this IR requires fully static shapes; \
                             freeze the batch size before importing"
                        ),
                    })
                }
            }
        }
        graph.inputs.push(TensorInfo::new(&*vi.name, dtype, shape));
    }

    let mut used_names = None;
    for (i, n) in gp.node.iter().enumerate() {
        let name = node_name(&gp.node, i, &mut used_names);
        let lowered = lower_node(n, &name, opset, &graph.initializers)?;
        let outputs: Vec<String> = n
            .output
            .iter()
            .filter(|o| !o.is_empty())
            .map(|o| o.to_string())
            .collect();
        let expected = lowered.op.num_outputs();
        if outputs.len() != expected {
            return Err(OnnxError::Attr {
                op: n.op_type.to_string(),
                node: name,
                reason: format!(
                    "{} output(s) where the IR form takes {expected} \
                     (training/mask outputs are not supported)",
                    outputs.len()
                ),
            });
        }
        if let Some(value) = lowered.constant_payload {
            let out = outputs[0].clone();
            if graph.initializers.insert(out.clone(), value).is_some() {
                return Err(OnnxError::Model {
                    reason: format!("Constant node `{name}` redefines initializer `{out}`"),
                });
            }
        }
        graph.push_node(name, lowered.op, lowered.inputs, outputs);
    }

    if gp.output.is_empty() {
        return Err(OnnxError::Model {
            reason: "graph declares no outputs".into(),
        });
    }
    graph.outputs = gp.output.iter().map(|o| o.name.to_string()).collect();

    // The snapshot borrows `graph.nodes` only, which leaves `initializers`
    // and `value_info` free to be updated while it is alive.
    let adj = Adjacency::of(&graph.nodes);
    // Initializers that only fed lifted constant-input operands are no
    // longer referenced; drop them. (Serialized value_info is deliberately
    // ignored — shapes are re-derived below, so stale or hostile shape
    // annotations in the file cannot skew the pipeline.)
    // Every name a node reads or writes has an id in the snapshot's table.
    graph
        .initializers
        .retain(|name, _| adj.value_id(name).is_some() || graph.outputs.contains(name));
    let invalid = |e: ramiel_ir::IrError| OnnxError::Validate {
        reason: e.to_string(),
    };
    let order = ramiel_ir::validate::validate_with(&graph, &adj).map_err(invalid)?;
    let infos = ramiel_ir::shape::infer_in_order(&graph, &order, &adj).map_err(invalid)?;
    // `value_info` is empty here (serialized annotations are ignored), so
    // it is built in one sorted bulk load rather than by a search per
    // insert.
    graph.value_info = infos.into_iter().map(|i| (i.name.clone(), i)).collect();
    let errors: Vec<_> = ramiel_verify::lint_validated_graph(&graph, &adj, &order)
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    if let Some(first) = errors.first() {
        return Err(OnnxError::Verify {
            count: errors.len(),
            first: first.to_string(),
        });
    }
    let out = then(&graph, &adj);
    drop(adj);
    Ok((graph, out))
}

/// The IR name of node `index`: its own, or (when the file leaves it
/// empty) `<op_type>_<index>` made unique against every name in use. The
/// set of used names is built on the first unnamed node only.
fn node_name<'p>(
    nodes: &'p [NodeProto<'_>],
    index: usize,
    used: &mut Option<HashSet<Cow<'p, str>>>,
) -> String {
    let n = &nodes[index];
    if !n.name.is_empty() {
        // Duplicates among explicit names are a model error; leave them for
        // `ir::validate` to report with a proper diagnostic.
        return n.name.to_string();
    }
    let used = used.get_or_insert_with(|| {
        nodes
            .iter()
            .filter(|n| !n.name.is_empty())
            .map(|n| Cow::Borrowed(&*n.name))
            .collect()
    });
    let mut candidate = format!("{}_{}", n.op_type, index);
    while used.contains(candidate.as_str()) {
        candidate.push('_');
    }
    used.insert(Cow::Owned(candidate.clone()));
    candidate
}

/// Map an ONNX `TensorProto.DataType` onto the IR element types.
fn dtype_of(elem: i64, context: &str) -> Result<DType> {
    match elem {
        data_type::FLOAT => Ok(DType::F32),
        data_type::INT64 => Ok(DType::I64),
        data_type::BOOL => Ok(DType::Bool),
        other => Err(OnnxError::Dtype {
            context: context.to_string(),
            data_type: other,
        }),
    }
}

/// Decode a `TensorProto` into a checked [`TensorData`] (no panicking
/// constructors — every mismatch is a structured `ONNX-TENSOR` error). The
/// element count and the byte size it implies are computed with checked
/// arithmetic: dims whose product wraps must be refused, not matched against
/// a payload of the wrapped size.
pub(crate) fn tensor_data(t: &TensorProto<'_>) -> Result<TensorData> {
    let err = |reason: String| OnnxError::Tensor {
        name: if t.name.is_empty() {
            "<anonymous>".into()
        } else {
            t.name.to_string()
        },
        reason,
    };
    let mut shape = Vec::with_capacity(t.dims.len());
    for &d in &t.dims {
        let d = usize::try_from(d).map_err(|_| err(format!("negative dimension {d}")))?;
        shape.push(d);
    }
    let numel = checked_numel(&shape)
        .ok_or_else(|| err(format!("element count of shape {shape:?} overflows")))?;
    let dtype = dtype_of(t.data_type, "initializer")?;
    // `raw_data` as exactly `numel` little-endian elements of `width` bytes.
    let raw_elems = |width: usize| -> Result<std::slice::ChunksExact<'_, u8>> {
        let need = numel
            .checked_mul(width)
            .ok_or_else(|| err(format!("byte size of shape {shape:?} overflows")))?;
        if t.raw_data.len() != need {
            return Err(err(format!(
                "raw_data holds {} bytes, shape {:?} needs {need}",
                t.raw_data.len(),
                shape
            )));
        }
        Ok(t.raw_data.chunks_exact(width))
    };
    let count_err = |got: usize, what: &str| {
        err(format!(
            "{got} {what} element(s) for shape {shape:?} ({numel} expected)"
        ))
    };
    let payload = match dtype {
        DType::F32 if !t.raw_data.is_empty() => Payload::F32(
            raw_elems(4)?
                .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
                .collect(),
        ),
        DType::F32 if t.float_data.len() == numel => Payload::F32(t.float_data.clone()),
        DType::F32 => return Err(count_err(t.float_data.len(), "float")),
        DType::I64 if !t.raw_data.is_empty() => Payload::I64(
            raw_elems(8)?
                .map(|c| i64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                .collect(),
        ),
        DType::I64 if t.int64_data.len() == numel => Payload::I64(t.int64_data.clone()),
        DType::I64 => return Err(count_err(t.int64_data.len(), "int64")),
        DType::Bool => {
            // Bools arrive as raw bytes or (per the proto comments) packed
            // into int32_data.
            let data: Vec<bool> = if !t.raw_data.is_empty() {
                t.raw_data.iter().map(|&b| b != 0).collect()
            } else {
                t.int32_data.iter().map(|&b| b != 0).collect()
            };
            if data.len() != numel {
                return Err(count_err(data.len(), "bool"));
            }
            Payload::Bool(data)
        }
    };
    Ok(TensorData { shape, payload })
}

/// The result of lowering one ONNX node: the IR operator, the surviving
/// runtime inputs (constant-form operands lifted into attributes are
/// removed), and — for `Constant` — the payload to install in the
/// initializer table under the node's output name.
struct Lowered {
    op: OpKind,
    inputs: Vec<String>,
    constant_payload: Option<TensorData>,
}

impl Lowered {
    fn new(op: OpKind, inputs: Vec<String>) -> Lowered {
        Lowered {
            op,
            inputs,
            constant_payload: None,
        }
    }
}

/// Attribute accessor bound to one node, producing `ONNX-ATTR` errors that
/// name the operator and node.
struct Attrs<'a> {
    op: &'a str,
    node: &'a str,
    list: &'a [AttributeProto<'a>],
}

impl<'a> Attrs<'a> {
    fn err(&self, reason: impl Into<String>) -> OnnxError {
        OnnxError::Attr {
            op: self.op.to_string(),
            node: self.node.to_string(),
            reason: reason.into(),
        }
    }

    fn get(&self, name: &str) -> Option<&'a AttributeProto<'a>> {
        self.list.iter().find(|a| a.name == name)
    }

    fn check_type(&self, a: &AttributeProto<'_>, want: i64, what: &str) -> Result<()> {
        // Old writers may omit the type tag; only a conflicting tag fails.
        if a.r#type != 0 && a.r#type != want {
            return Err(self.err(format!(
                "attribute `{}` has type {} where {what} was expected",
                a.name, a.r#type
            )));
        }
        Ok(())
    }

    fn i(&self, name: &str, default: i64) -> Result<i64> {
        match self.get(name) {
            None => Ok(default),
            Some(a) => {
                self.check_type(a, attr_type::INT, "an int")?;
                Ok(a.i)
            }
        }
    }

    fn f(&self, name: &str, default: f32) -> Result<f32> {
        match self.get(name) {
            None => Ok(default),
            Some(a) => {
                self.check_type(a, attr_type::FLOAT, "a float")?;
                Ok(a.f)
            }
        }
    }

    fn s(&self, name: &str, default: &'a str) -> Result<&'a str> {
        match self.get(name) {
            None => Ok(default),
            Some(a) => {
                self.check_type(a, attr_type::STRING, "a string")?;
                std::str::from_utf8(&a.s)
                    .map_err(|_| self.err(format!("attribute `{name}` is not UTF-8")))
            }
        }
    }

    fn ints(&self, name: &str) -> Result<Option<&'a [i64]>> {
        match self.get(name) {
            None => Ok(None),
            Some(a) => {
                self.check_type(a, attr_type::INTS, "an int list")?;
                Ok(Some(&a.ints))
            }
        }
    }

    fn require_ints(&self, name: &str) -> Result<&'a [i64]> {
        self.ints(name)?
            .ok_or_else(|| self.err(format!("missing required attribute `{name}`")))
    }

    fn tensor(&self, name: &str) -> Result<Option<&'a TensorProto<'a>>> {
        match self.get(name) {
            None => Ok(None),
            Some(a) => {
                self.check_type(a, attr_type::TENSOR, "a tensor")?;
                a.t.as_deref()
                    .map(Some)
                    .ok_or_else(|| self.err(format!("attribute `{name}` has no tensor payload")))
            }
        }
    }

    /// Reject any attribute not in `handled` ∪ `ignorable` — an unknown
    /// attribute may change semantics, and a silently wrong graph is worse
    /// than a refused import.
    fn reject_unknown(&self, handled: &[&str], ignorable: &[&str]) -> Result<()> {
        for a in self.list {
            if !handled.contains(&&*a.name) && !ignorable.contains(&&*a.name) {
                return Err(self.err(format!("unhandled attribute `{}`", a.name)));
            }
        }
        Ok(())
    }
}

/// Optional input at `idx`: `None` when absent or the empty-string
/// "omitted operand" placeholder.
fn opt_input<'n>(n: &'n NodeProto<'_>, idx: usize) -> Option<&'n str> {
    n.input.get(idx).map(|s| &**s).filter(|s| !s.is_empty())
}

/// Resolve the optional input at `idx` to its constant payload, for
/// operators whose parameters travel as constant-input operands in newer
/// opsets. A non-constant operand in such a position is a structured error.
fn const_input<'g>(
    n: &NodeProto<'_>,
    idx: usize,
    what: &str,
    inits: &'g BTreeMap<String, TensorData>,
    attrs: &Attrs,
) -> Result<Option<&'g TensorData>> {
    match opt_input(n, idx) {
        None => Ok(None),
        Some(name) => inits.get(name).map(Some).ok_or_else(|| {
            attrs.err(format!(
                "{what} operand `{name}` must be a constant initializer \
                 (runtime-computed {what} is not supported)"
            ))
        }),
    }
}

fn const_i64s(
    n: &NodeProto<'_>,
    idx: usize,
    what: &str,
    inits: &BTreeMap<String, TensorData>,
    attrs: &Attrs,
) -> Result<Option<Vec<i64>>> {
    match const_input(n, idx, what, inits, attrs)? {
        None => Ok(None),
        Some(t) => t
            .as_i64()
            .map(|v| Some(v.to_vec()))
            .ok_or_else(|| attrs.err(format!("{what} operand must be an int64 tensor"))),
    }
}

fn const_scalar_f32(
    n: &NodeProto<'_>,
    idx: usize,
    what: &str,
    inits: &BTreeMap<String, TensorData>,
    attrs: &Attrs,
) -> Result<Option<f32>> {
    match const_input(n, idx, what, inits, attrs)? {
        None => Ok(None),
        Some(t) => match t.as_f32() {
            Some([v]) => Ok(Some(*v)),
            _ => Err(attrs.err(format!("{what} operand must be a scalar float"))),
        },
    }
}

/// `(kernel, stride, pads, ceil_mode)` shared by Conv and the pooling ops.
type Spatial2d = ((usize, usize), (usize, usize), (usize, usize), bool);

/// ONNX 2-D `pads` are `[begin_h, begin_w, end_h, end_w]`; the IR holds
/// symmetric pads, so asymmetric padding is refused.
fn spatial_2d(attrs: &Attrs) -> Result<Spatial2d> {
    let kernel = attrs.require_ints("kernel_shape")?;
    let [kh, kw] = kernel[..] else {
        return Err(attrs.err(format!(
            "kernel_shape has {} dims; only 2-D spatial operators are supported",
            kernel.len()
        )));
    };
    let strides = attrs.ints("strides")?.unwrap_or(&[1, 1]);
    let [sh, sw] = strides[..] else {
        return Err(attrs.err("strides must have 2 entries"));
    };
    let pads = attrs.ints("pads")?.unwrap_or(&[0, 0, 0, 0]);
    let [pt, pl, pb, pr] = pads[..] else {
        return Err(attrs.err("pads must have 4 entries for a 2-D operator"));
    };
    if pt != pb || pl != pr {
        return Err(attrs.err(format!(
            "asymmetric pads [{pt}, {pl}, {pb}, {pr}] are not supported"
        )));
    }
    if let Some(d) = attrs.ints("dilations")? {
        if d.iter().any(|&x| x != 1) {
            return Err(attrs.err(format!("dilations {d:?} are not supported")));
        }
    }
    let auto_pad = attrs.s("auto_pad", "NOTSET")?;
    if auto_pad != "NOTSET" {
        return Err(attrs.err(format!(
            "auto_pad `{auto_pad}` is not supported; use explicit pads"
        )));
    }
    let non_negative = |v: i64, what: &str| -> Result<usize> {
        usize::try_from(v).map_err(|_| attrs.err(format!("negative {what} {v}")))
    };
    let ceil_mode = attrs.i("ceil_mode", 0)? != 0;
    Ok((
        (non_negative(kh, "kernel")?, non_negative(kw, "kernel")?),
        (non_negative(sh, "stride")?, non_negative(sw, "stride")?),
        (non_negative(pt, "pad")?, non_negative(pl, "pad")?),
        ceil_mode,
    ))
}

fn lower_node(
    n: &NodeProto<'_>,
    name: &str,
    opset: i64,
    inits: &BTreeMap<String, TensorData>,
) -> Result<Lowered> {
    if !n.domain.is_empty() && n.domain != "ai.onnx" {
        return Err(OnnxError::UnsupportedOp {
            op: format!("{}::{}", n.domain, n.op_type),
            node: name.to_string(),
        });
    }
    let attrs = Attrs {
        op: &n.op_type,
        node: name,
        list: &n.attribute,
    };
    let all_inputs = || n.input.iter().map(|s| s.to_string()).collect();
    let first_input = || n.input.first().map(|s| s.to_string()).into_iter().collect();

    let lowered = match &*n.op_type {
        // ---- convolution / linear algebra ----------------------------------
        "Conv" => {
            let (kernel, stride, pads, ceil) = spatial_2d(&attrs)?;
            if ceil {
                return Err(attrs.err("ceil_mode is not a Conv attribute"));
            }
            let groups = usize::try_from(attrs.i("group", 1)?)
                .map_err(|_| attrs.err("negative group count"))?;
            attrs.reject_unknown(
                &[
                    "kernel_shape",
                    "strides",
                    "pads",
                    "dilations",
                    "auto_pad",
                    "group",
                ],
                &[],
            )?;
            Lowered::new(
                OpKind::Conv {
                    kernel,
                    stride,
                    pads,
                    groups,
                },
                all_inputs(),
            )
        }
        "MatMul" => {
            attrs.reject_unknown(&[], &[])?;
            Lowered::new(OpKind::MatMul, all_inputs())
        }
        "Gemm" => {
            if attrs.f("alpha", 1.0)? != 1.0 || attrs.f("beta", 1.0)? != 1.0 {
                return Err(attrs.err("alpha/beta scaling is not supported (must be 1.0)"));
            }
            if attrs.i("transA", 0)? != 0 {
                return Err(attrs.err("transA is not supported"));
            }
            let trans_b = attrs.i("transB", 0)? != 0;
            attrs.reject_unknown(&["alpha", "beta", "transA", "transB"], &[])?;
            Lowered::new(OpKind::Gemm { trans_b }, all_inputs())
        }

        // ---- activations / unary elementwise -------------------------------
        "Relu" | "Sigmoid" | "Tanh" | "Erf" | "Sqrt" | "Exp" | "Neg" | "Identity" => {
            attrs.reject_unknown(&[], &[])?;
            let op = match &*n.op_type {
                "Relu" => OpKind::Relu,
                "Sigmoid" => OpKind::Sigmoid,
                "Tanh" => OpKind::Tanh,
                "Erf" => OpKind::Erf,
                "Sqrt" => OpKind::Sqrt,
                "Exp" => OpKind::Exp,
                "Neg" => OpKind::Neg,
                _ => OpKind::Identity,
            };
            Lowered::new(op, all_inputs())
        }
        "LeakyRelu" => {
            let alpha = attrs.f("alpha", 0.01)?;
            attrs.reject_unknown(&["alpha"], &[])?;
            Lowered::new(OpKind::LeakyRelu { alpha }, all_inputs())
        }
        "Gelu" => {
            let approx = attrs.s("approximate", "none")?;
            if approx != "none" {
                return Err(attrs.err(format!(
                    "approximate=`{approx}` is not supported (erf formulation only)"
                )));
            }
            attrs.reject_unknown(&["approximate"], &[])?;
            Lowered::new(OpKind::Gelu, all_inputs())
        }
        "Clip" => {
            // Opset ≤ 6 carries min/max as attributes; opset ≥ 11 as
            // optional constant inputs. Accept either, lift to attributes.
            let min = match const_scalar_f32(n, 1, "min", inits, &attrs)? {
                Some(v) => v,
                None => attrs.f("min", f32::NEG_INFINITY)?,
            };
            let max = match const_scalar_f32(n, 2, "max", inits, &attrs)? {
                Some(v) => v,
                None => attrs.f("max", f32::INFINITY)?,
            };
            attrs.reject_unknown(&["min", "max"], &[])?;
            Lowered::new(OpKind::Clip { min, max }, first_input())
        }
        "Dropout" => {
            // Inference-mode identity; ratio/seed and the constant
            // ratio/training_mode inputs don't affect the result.
            if let Some(tm) = const_input(n, 2, "training_mode", inits, &attrs)? {
                let training = match &tm.payload {
                    Payload::Bool(v) => v.first().copied().unwrap_or(false),
                    Payload::I64(v) => v.first().is_some_and(|&x| x != 0),
                    Payload::F32(v) => v.first().is_some_and(|&x| x != 0.0),
                };
                if training {
                    return Err(attrs.err("training-mode Dropout is not supported"));
                }
            }
            attrs.reject_unknown(&[], &["ratio", "seed"])?;
            Lowered::new(OpKind::Dropout, first_input())
        }

        // ---- binary / ternary elementwise ----------------------------------
        "Add" | "Sub" | "Mul" | "Div" | "Pow" | "Equal" | "Where" => {
            attrs.reject_unknown(&[], &[])?;
            let op = match &*n.op_type {
                "Add" => OpKind::Add,
                "Sub" => OpKind::Sub,
                "Mul" => OpKind::Mul,
                "Div" => OpKind::Div,
                "Pow" => OpKind::Pow,
                "Equal" => OpKind::Equal,
                _ => OpKind::Where,
            };
            Lowered::new(op, all_inputs())
        }

        // ---- reductions / normalization ------------------------------------
        "Softmax" => {
            // The pre-13 default axis is 1 with flatten-to-2D semantics; the
            // explicit-axis form is identical across opsets.
            let default_axis = if opset >= 13 { -1 } else { 1 };
            let axis = attrs.i("axis", default_axis)? as isize;
            attrs.reject_unknown(&["axis"], &[])?;
            Lowered::new(OpKind::Softmax { axis }, all_inputs())
        }
        "BatchNormalization" => {
            if attrs.i("training_mode", 0)? != 0 {
                return Err(attrs.err("training-mode BatchNormalization is not supported"));
            }
            if attrs.i("spatial", 1)? != 1 {
                return Err(attrs.err("non-spatial BatchNormalization is not supported"));
            }
            let epsilon = attrs.f("epsilon", 1e-5)?;
            attrs.reject_unknown(&["epsilon", "training_mode", "spatial"], &["momentum"])?;
            Lowered::new(OpKind::BatchNorm { epsilon }, all_inputs())
        }
        "LayerNormalization" => {
            let axis = attrs.i("axis", -1)?;
            if axis != -1 {
                return Err(attrs.err(format!(
                    "axis {axis} is not supported (trailing-axis LayerNormalization only)"
                )));
            }
            let epsilon = attrs.f("epsilon", 1e-5)?;
            attrs.reject_unknown(&["axis", "epsilon"], &["stash_type"])?;
            Lowered::new(OpKind::LayerNorm { epsilon }, all_inputs())
        }
        "ReduceMean" => {
            if attrs.i("noop_with_empty_axes", 0)? != 0 {
                return Err(attrs.err("noop_with_empty_axes is not supported"));
            }
            let axes = match attrs.ints("axes")? {
                Some(v) => v.to_vec(),
                None => const_i64s(n, 1, "axes", inits, &attrs)?.ok_or_else(|| {
                    attrs.err("missing axes (neither attribute nor constant input)")
                })?,
            };
            let keepdims = attrs.i("keepdims", 1)? != 0;
            attrs.reject_unknown(&["axes", "keepdims", "noop_with_empty_axes"], &[])?;
            Lowered::new(
                OpKind::ReduceMean {
                    axes: axes.iter().map(|&a| a as isize).collect(),
                    keepdims,
                },
                first_input(),
            )
        }

        // ---- pooling -------------------------------------------------------
        "MaxPool" | "AveragePool" => {
            let (kernel, stride, pads, ceil_mode) = spatial_2d(&attrs)?;
            if attrs.i("storage_order", 0)? != 0 {
                return Err(attrs.err("column-major storage_order is not supported"));
            }
            if attrs.i("count_include_pad", 0)? != 0 {
                return Err(attrs.err("count_include_pad is not supported"));
            }
            attrs.reject_unknown(
                &[
                    "kernel_shape",
                    "strides",
                    "pads",
                    "dilations",
                    "auto_pad",
                    "ceil_mode",
                    "storage_order",
                    "count_include_pad",
                ],
                &[],
            )?;
            let spec = PoolSpec {
                kernel,
                stride,
                pads,
                ceil_mode,
            };
            let op = if n.op_type == "MaxPool" {
                OpKind::MaxPool(spec)
            } else {
                OpKind::AveragePool(spec)
            };
            Lowered::new(op, all_inputs())
        }
        "GlobalAveragePool" => {
            attrs.reject_unknown(&[], &[])?;
            Lowered::new(OpKind::GlobalAveragePool, all_inputs())
        }

        // ---- data movement -------------------------------------------------
        "Concat" => {
            let axis = attrs
                .get("axis")
                .ok_or_else(|| attrs.err("missing required attribute `axis`"))
                .and_then(|a| {
                    attrs.check_type(a, attr_type::INT, "an int")?;
                    Ok(a.i)
                })? as isize;
            attrs.reject_unknown(&["axis"], &[])?;
            Lowered::new(OpKind::Concat { axis }, all_inputs())
        }
        "Split" => {
            let axis = attrs.i("axis", 0)? as isize;
            let parts = match attrs.ints("split")? {
                Some(v) => v.to_vec(),
                None => const_i64s(n, 1, "split", inits, &attrs)?.ok_or_else(|| {
                    attrs.err(
                        "missing split sizes (implicit equal split is not supported; \
                         provide the `split` attribute or a constant input)",
                    )
                })?,
            };
            let parts: Vec<usize> = parts
                .iter()
                .map(|&p| {
                    usize::try_from(p).map_err(|_| attrs.err(format!("negative split size {p}")))
                })
                .collect::<Result<_>>()?;
            attrs.reject_unknown(&["axis", "split"], &["num_outputs"])?;
            Lowered::new(OpKind::Split { axis, parts }, first_input())
        }
        "Slice" => {
            // Opset ≤ 9: attributes. Opset ≥ 10: `[data, starts, ends,
            // axes?, steps?]` constant inputs.
            let (starts, ends, axes, steps) = if n.input.len() > 1 {
                let starts = const_i64s(n, 1, "starts", inits, &attrs)?
                    .ok_or_else(|| attrs.err("missing starts input"))?;
                let ends = const_i64s(n, 2, "ends", inits, &attrs)?
                    .ok_or_else(|| attrs.err("missing ends input"))?;
                let axes = const_i64s(n, 3, "axes", inits, &attrs)?
                    .unwrap_or_else(|| (0..starts.len() as i64).collect());
                let steps = const_i64s(n, 4, "steps", inits, &attrs)?
                    .unwrap_or_else(|| vec![1; starts.len()]);
                (starts, ends, axes, steps)
            } else {
                let starts = attrs.require_ints("starts")?.to_vec();
                let ends = attrs.require_ints("ends")?.to_vec();
                let axes = attrs
                    .ints("axes")?
                    .map_or_else(|| (0..starts.len() as i64).collect(), <[i64]>::to_vec);
                let steps = attrs
                    .ints("steps")?
                    .map_or_else(|| vec![1; starts.len()], <[i64]>::to_vec);
                (starts, ends, axes, steps)
            };
            attrs.reject_unknown(&["starts", "ends", "axes", "steps"], &[])?;
            Lowered::new(
                OpKind::Slice {
                    axes: axes.iter().map(|&a| a as isize).collect(),
                    starts,
                    ends,
                    steps,
                },
                first_input(),
            )
        }
        "Gather" => {
            let axis = attrs.i("axis", 0)? as isize;
            attrs.reject_unknown(&["axis"], &[])?;
            Lowered::new(OpKind::Gather { axis }, all_inputs())
        }
        "Reshape" => {
            if attrs.i("allowzero", 0)? != 0 {
                return Err(attrs.err("allowzero is not supported"));
            }
            attrs.reject_unknown(&["allowzero"], &[])?;
            Lowered::new(OpKind::Reshape, all_inputs())
        }
        "Transpose" => {
            let perm = attrs.require_ints("perm")?;
            let perm: Vec<usize> = perm
                .iter()
                .map(|&p| {
                    usize::try_from(p).map_err(|_| attrs.err(format!("negative perm entry {p}")))
                })
                .collect::<Result<_>>()?;
            attrs.reject_unknown(&["perm"], &[])?;
            Lowered::new(OpKind::Transpose { perm }, all_inputs())
        }
        "Flatten" => {
            let axis = attrs.i("axis", 1)? as isize;
            attrs.reject_unknown(&["axis"], &[])?;
            Lowered::new(OpKind::Flatten { axis }, all_inputs())
        }
        "Unsqueeze" | "Squeeze" => {
            let axes = match attrs.ints("axes")? {
                Some(v) => v.to_vec(),
                None => const_i64s(n, 1, "axes", inits, &attrs)?.ok_or_else(|| {
                    attrs.err("missing axes (neither attribute nor constant input)")
                })?,
            };
            attrs.reject_unknown(&["axes"], &[])?;
            let axes: Vec<isize> = axes.iter().map(|&a| a as isize).collect();
            let op = if n.op_type == "Unsqueeze" {
                OpKind::Unsqueeze { axes }
            } else {
                OpKind::Squeeze { axes }
            };
            Lowered::new(op, first_input())
        }
        "Expand" => {
            attrs.reject_unknown(&[], &[])?;
            Lowered::new(OpKind::Expand, all_inputs())
        }
        "Resize" | "Upsample" => {
            let mode = attrs.s("mode", "nearest")?;
            if mode != "nearest" {
                return Err(attrs.err(format!(
                    "mode `{mode}` is not supported (nearest-neighbour only)"
                )));
            }
            // Opset 10 / Upsample: `[x, scales]`. Opset ≥ 11:
            // `[x, roi?, scales?, sizes?]`. Integer-factor nearest
            // upsampling is invariant to the coordinate-transformation
            // mode, so those attributes are ignorable.
            let scales_data = if n.input.len() == 2 {
                const_input(n, 1, "scales", inits, &attrs)?
            } else {
                if opt_input(n, 3).is_some() {
                    return Err(attrs.err("sizes-driven Resize is not supported; use scales"));
                }
                const_input(n, 2, "scales", inits, &attrs)?
            };
            let scales = scales_data
                .and_then(|t| t.as_f32())
                .ok_or_else(|| attrs.err("missing constant float scales operand"))?;
            let [sn, sc, sh, sw] = scales[..] else {
                return Err(attrs.err(format!(
                    "scales must have 4 entries (NCHW), got {}",
                    scales.len()
                )));
            };
            if sn != 1.0 || sc != 1.0 {
                return Err(attrs.err("batch/channel scaling is not supported"));
            }
            let int_scale = |v: f32| -> Result<usize> {
                if v >= 1.0 && v.fract() == 0.0 {
                    Ok(v as usize)
                } else {
                    Err(attrs.err(format!("non-integer spatial scale {v} is not supported")))
                }
            };
            attrs.reject_unknown(
                &["mode"],
                &[
                    "coordinate_transformation_mode",
                    "nearest_mode",
                    "cubic_coeff_a",
                    "exclude_outside",
                    "extrapolation_value",
                    "antialias",
                ],
            )?;
            Lowered::new(
                OpKind::Resize {
                    scale: (int_scale(sh)?, int_scale(sw)?),
                },
                first_input(),
            )
        }
        "Pad" => {
            let mode = attrs.s("mode", "constant")?;
            if mode != "constant" {
                return Err(attrs.err(format!("mode `{mode}` is not supported")));
            }
            let pads = match attrs.ints("pads")? {
                Some(v) => v.to_vec(),
                None => const_i64s(n, 1, "pads", inits, &attrs)?.ok_or_else(|| {
                    attrs.err("missing pads (neither attribute nor constant input)")
                })?,
            };
            if let Some(v) = const_scalar_f32(n, 2, "constant_value", inits, &attrs)? {
                if v != 0.0 {
                    return Err(attrs.err("non-zero pad value is not supported"));
                }
            }
            if attrs.f("value", 0.0)? != 0.0 {
                return Err(attrs.err("non-zero pad value is not supported"));
            }
            if opt_input(n, 3).is_some() {
                return Err(attrs.err("the axes operand of Pad is not supported"));
            }
            // Rank-4 NCHW only: [n_b, c_b, h_b, w_b, n_e, c_e, h_e, w_e]
            // with zero batch/channel padding.
            let [nb, cb, t, l, ne, ce, b, r] = pads[..] else {
                return Err(attrs.err(format!(
                    "pads must have 8 entries (rank-4 NCHW), got {}",
                    pads.len()
                )));
            };
            if nb != 0 || cb != 0 || ne != 0 || ce != 0 {
                return Err(attrs.err("batch/channel padding is not supported"));
            }
            let u = |v: i64| -> Result<usize> {
                usize::try_from(v).map_err(|_| attrs.err(format!("negative pad {v}")))
            };
            attrs.reject_unknown(&["mode", "pads", "value"], &[])?;
            Lowered::new(
                OpKind::Pad {
                    pads: (u(t)?, u(l)?, u(b)?, u(r)?),
                },
                first_input(),
            )
        }
        "Cast" => {
            let to = attrs
                .get("to")
                .ok_or_else(|| attrs.err("missing required attribute `to`"))
                .and_then(|a| {
                    attrs.check_type(a, attr_type::INT, "an int")?;
                    Ok(a.i)
                })?;
            let to = dtype_of(to, &format!("Cast node `{name}`"))?;
            attrs.reject_unknown(&["to"], &["saturate"])?;
            Lowered::new(OpKind::Cast { to }, all_inputs())
        }

        // ---- constants / shape computation ---------------------------------
        "Constant" => {
            let payload = if let Some(t) = attrs.tensor("value")? {
                tensor_data(t)?
            } else if let Some(a) = attrs.get("value_float") {
                attrs.check_type(a, attr_type::FLOAT, "a float")?;
                TensorData::scalar_f32(a.f)
            } else if let Some(a) = attrs.get("value_int") {
                attrs.check_type(a, attr_type::INT, "an int")?;
                TensorData::i64(vec![], vec![a.i])
            } else if let Some(a) = attrs.get("value_floats") {
                attrs.check_type(a, attr_type::FLOATS, "a float list")?;
                TensorData::f32(vec![a.floats.len()], a.floats.clone())
            } else if let Some(a) = attrs.get("value_ints") {
                attrs.check_type(a, attr_type::INTS, "an int list")?;
                TensorData::vec_i64(a.ints.clone())
            } else {
                return Err(attrs.err(
                    "missing payload (supported: value, value_float, value_int, \
                     value_floats, value_ints)",
                ));
            };
            attrs.reject_unknown(
                &[
                    "value",
                    "value_float",
                    "value_int",
                    "value_floats",
                    "value_ints",
                ],
                &[],
            )?;
            Lowered {
                op: OpKind::Constant,
                inputs: Vec::new(),
                constant_payload: Some(payload),
            }
        }
        "Shape" => {
            if attrs.get("start").is_some() || attrs.get("end").is_some() {
                return Err(attrs.err("Shape slicing (start/end) is not supported"));
            }
            attrs.reject_unknown(&[], &[])?;
            Lowered::new(OpKind::Shape, all_inputs())
        }
        "ConstantOfShape" => {
            let value = match attrs.tensor("value")? {
                None => 0.0,
                Some(t) => {
                    let data = tensor_data(t)?;
                    match data.as_f32() {
                        Some([v]) => *v,
                        _ => {
                            return Err(attrs.err(
                                "value must be a one-element float tensor \
                                 (integer fills are not supported)",
                            ))
                        }
                    }
                }
            };
            attrs.reject_unknown(&["value"], &[])?;
            Lowered::new(OpKind::ConstantOfShape { value }, all_inputs())
        }

        other => {
            return Err(OnnxError::UnsupportedOp {
                op: other.to_string(),
                node: name.to_string(),
            })
        }
    };
    Ok(lowered)
}
