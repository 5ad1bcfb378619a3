//! Static shape (and dtype) inference for every supported operator.
//!
//! Inference walks the graph in topological order and fills
//! [`Graph::value_info`]. Shape operands (`Reshape`, `Expand`,
//! `ConstantOfShape`) must be compile-time constants — which is exactly the
//! state the constant-propagation pass establishes, mirroring how the paper
//! relies on onnxruntime to make these operands foldable.

use crate::error::IrError;
use crate::graph::{Adjacency, Graph, Node, NodeId, TensorInfo, TensorRef, ValueId};
use crate::op::{DType, OpKind};
use crate::topo::topo_sort_with;
use crate::Result;

/// Element count of `shape`, or `None` when the product does not fit a
/// `usize`. Shapes reach this crate from `.onnx` files and wire requests, so
/// anything that sizes or compares by element count goes through here: a
/// wrapped product could otherwise match a short payload.
pub fn checked_numel(shape: &[usize]) -> Option<usize> {
    shape.iter().try_fold(1usize, |n, &d| n.checked_mul(d))
}

/// [`checked_numel`] for statistics that must stay total: saturates at
/// `usize::MAX` instead of wrapping.
pub fn saturating_numel(shape: &[usize]) -> usize {
    checked_numel(shape).unwrap_or(usize::MAX)
}

/// Numpy-style broadcast of two shapes.
pub fn broadcast(a: &[usize], b: &[usize]) -> Option<Vec<usize>> {
    let rank = a.len().max(b.len());
    let mut out = vec![0usize; rank];
    for i in 0..rank {
        let da = if i < rank - a.len() {
            1
        } else {
            a[i - (rank - a.len())]
        };
        let db = if i < rank - b.len() {
            1
        } else {
            b[i - (rank - b.len())]
        };
        out[i] = if da == db {
            da
        } else if da == 1 {
            db
        } else if db == 1 {
            da
        } else {
            return None;
        };
    }
    Some(out)
}

/// Normalize a possibly-negative axis against a rank.
pub fn norm_axis(axis: isize, rank: usize) -> Result<usize> {
    let a = if axis < 0 { axis + rank as isize } else { axis };
    if a < 0 || a as usize >= rank {
        return Err(IrError::Invalid(format!(
            "axis {axis} out of range for rank {rank}"
        )));
    }
    Ok(a as usize)
}

fn err(node: &Node, reason: impl Into<String>) -> IrError {
    IrError::Shape {
        node: node.name.clone(),
        reason: reason.into(),
    }
}

/// What inference reads while it walks a graph: the graph, the infos derived
/// earlier in the same walk — consulted before `graph.value_info`, so a walk
/// writes into a side table instead of into (a clone of) the graph — and the
/// adjacency snapshot whose value ids index that table and whose producer
/// index constant-operand evaluation follows. Lookups lend what they find.
pub struct ShapeScope<'a> {
    graph: &'a Graph,
    adj: &'a Adjacency<'a>,
    /// Per value id: the info this walk derived, if any yet.
    derived: Vec<Option<TensorInfo>>,
}

impl<'a> ShapeScope<'a> {
    /// A scope with nothing derived yet. `adj` is a snapshot of `graph`.
    pub fn new(graph: &'a Graph, adj: &'a Adjacency<'a>) -> Self {
        ShapeScope {
            graph,
            adj,
            derived: vec![None; adj.num_values()],
        }
    }

    /// [`Graph::tensor_ref`] with this walk's results ahead of the graph's
    /// recorded `value_info`.
    pub fn tensor_ref(&self, tensor: &str) -> Option<TensorRef<'_>> {
        match self.adj.value_id(tensor) {
            Some(v) => self.value_ref(v),
            None => self.graph.tensor_ref(tensor),
        }
    }

    /// [`ShapeScope::tensor_ref`] of value `v` of the snapshot.
    fn value_ref(&self, v: ValueId) -> Option<TensorRef<'_>> {
        let name = self.adj.value_name(v);
        if let Some(i) = self.graph.inputs.iter().find(|i| i.name == name) {
            return Some(i.into());
        }
        match &self.derived[v as usize] {
            Some(info) => Some(info.into()),
            None => self.graph.tensor_ref(name),
        }
    }

    /// Record what [`infer_node`] returned for `node` (one info per output;
    /// each is given its output's name).
    pub fn record(&mut self, node: &'a Node, infos: Vec<TensorInfo>) {
        let results = self.adj.results(node.id);
        for ((out, &v), info) in node.outputs.iter().zip(results).zip(infos) {
            self.derived[v as usize] = Some(TensorInfo {
                name: out.clone(),
                ..info
            });
        }
    }

    /// Everything derived, in value-id order.
    pub fn into_infos(self) -> Vec<TensorInfo> {
        self.derived.into_iter().flatten().collect()
    }
}

/// Run shape inference over the whole graph, filling `value_info` for every
/// node output. Existing entries are overwritten.
pub fn infer_shapes(graph: &mut Graph) -> Result<()> {
    let infos = {
        let adj = graph.adjacency();
        let order = topo_sort_with(graph, &adj)?;
        infer_in_order(graph, &order, &adj)?
    };
    graph
        .value_info
        .extend(infos.into_iter().map(|i| (i.name.clone(), i)));
    Ok(())
}

/// The inference walk of [`infer_shapes`] as a function of an unmodified
/// graph: the info of every node output, for a caller that already holds the
/// topological `order` and the adjacency snapshot and installs the result
/// itself.
pub fn infer_in_order(
    graph: &Graph,
    order: &[NodeId],
    adj: &Adjacency<'_>,
) -> Result<Vec<TensorInfo>> {
    let mut scope = ShapeScope::new(graph, adj);
    for &id in order {
        let node = &graph.nodes[id];
        let infos = infer_node(&scope, node)?;
        if infos.len() != node.outputs.len() {
            return Err(err(node, "internal: output arity mismatch"));
        }
        scope.record(node, infos);
    }
    Ok(scope.into_infos())
}

/// Look up the info of one node input.
fn input_info<'s>(scope: &'s ShapeScope<'_>, node: &Node, idx: usize) -> Result<TensorRef<'s>> {
    let arity = || IrError::Arity {
        node: node.name.clone(),
        expected: idx + 1,
        got: node.inputs.len(),
    };
    let &v = scope.adj.operands(node.id).get(idx).ok_or_else(arity)?;
    scope
        .value_ref(v)
        .ok_or_else(|| IrError::UnknownTensor(node.inputs[idx].clone()))
}

/// Fetch a constant i64 vector operand (shape/axes style inputs). The
/// operand may be an initializer or a compile-time-evaluable expression of
/// `Shape`/`Gather`/`Concat`/… nodes — the pattern ONNX exporters emit
/// around `Reshape`, which onnxruntime (and our constant-propagation pass)
/// folds away.
fn const_i64_operand(scope: &ShapeScope<'_>, node: &Node, idx: usize) -> Result<Vec<i64>> {
    let name = node.inputs.get(idx).ok_or_else(|| IrError::Arity {
        node: node.name.clone(),
        expected: idx + 1,
        got: node.inputs.len(),
    })?;
    let v = scope.adj.operands(node.id)[idx];
    const_eval_value(scope, v, 64).ok_or_else(|| {
        err(
            node,
            format!("operand `{name}` must be a constant i64 tensor"),
        )
    })
}

/// Best-effort compile-time evaluation of an i64 tensor expression.
///
/// Handles the shape-computation idioms of ONNX exporters: `Shape` of a
/// statically-shaped tensor, `Gather`/`Slice`/`Concat`/`Unsqueeze`/`Squeeze`
/// over shape vectors, i64 arithmetic, `Cast` to i64 and `Identity`. Returns
/// `None` when the expression depends on runtime data. `fuel` bounds the
/// recursion.
pub fn const_eval_i64(scope: &ShapeScope<'_>, tensor: &str, fuel: usize) -> Option<Vec<i64>> {
    match scope.adj.value_id(tensor) {
        Some(v) => const_eval_value(scope, v, fuel),
        None => scope
            .graph
            .initializers
            .get(tensor)?
            .as_i64()
            .map(<[i64]>::to_vec),
    }
}

/// [`const_eval_i64`] of value `v` of the scope's snapshot.
fn const_eval_value(scope: &ShapeScope<'_>, v: ValueId, fuel: usize) -> Option<Vec<i64>> {
    if fuel == 0 {
        return None;
    }
    let graph = scope.graph;
    if let Some(init) = graph.initializers.get(scope.adj.value_name(v)) {
        return init.as_i64().map(|s| s.to_vec());
    }
    let node = &graph.nodes[scope.adj.producer(v)?];
    let operands = scope.adj.operands(node.id);
    let arg = |i: usize| -> Option<Vec<i64>> {
        operands
            .get(i)
            .and_then(|&t| const_eval_value(scope, t, fuel - 1))
    };
    match &node.op {
        OpKind::Shape => {
            let info = scope.value_ref(*operands.first()?)?;
            Some(info.shape.iter().map(|&d| d as i64).collect())
        }
        OpKind::Gather { axis: 0 } => {
            let data = arg(0)?;
            let idx = arg(1)?;
            let dim = data.len() as i64;
            idx.iter()
                .map(|&raw| {
                    let i = if raw < 0 { raw + dim } else { raw };
                    data.get(usize::try_from(i).ok()?).copied()
                })
                .collect()
        }
        OpKind::Concat { axis: 0 } => {
            let mut out = Vec::new();
            for i in 0..node.inputs.len() {
                out.extend(arg(i)?);
            }
            Some(out)
        }
        OpKind::Unsqueeze { .. }
        | OpKind::Squeeze { .. }
        | OpKind::Identity
        | OpKind::Cast { to: DType::I64 } => arg(0),
        OpKind::Slice {
            axes,
            starts,
            ends,
            steps,
        } if axes == &[0] && steps.iter().all(|&s| s > 0) => {
            let data = arg(0)?;
            let dim = data.len() as i64;
            let clamp = |v: i64| if v < 0 { v + dim } else { v }.clamp(0, dim);
            let (s, e) = (clamp(starts[0]), clamp(ends[0].min(dim)));
            let step = steps[0] as usize;
            if e <= s {
                return Some(Vec::new());
            }
            Some(
                data[s as usize..e as usize]
                    .iter()
                    .step_by(step)
                    .copied()
                    .collect(),
            )
        }
        OpKind::Add | OpKind::Sub | OpKind::Mul | OpKind::Div => {
            let a = arg(0)?;
            let b = arg(1)?;
            let n = a.len().max(b.len());
            if (a.len() != n && a.len() != 1) || (b.len() != n && b.len() != 1) {
                return None;
            }
            let pick = |v: &[i64], i: usize| if v.len() == 1 { v[0] } else { v[i] };
            (0..n)
                .map(|i| {
                    let (x, y) = (pick(&a, i), pick(&b, i));
                    match &node.op {
                        OpKind::Add => x.checked_add(y),
                        OpKind::Sub => x.checked_sub(y),
                        OpKind::Mul => x.checked_mul(y),
                        OpKind::Div => x.checked_div(y),
                        _ => unreachable!(),
                    }
                })
                .collect()
        }
        OpKind::Constant => graph
            .initializers
            .get(&node.outputs[0])
            .and_then(|t| t.as_i64().map(|s| s.to_vec())),
        _ => None,
    }
}

/// Infer output infos for a single node given the surrounding scope.
pub fn infer_node(scope: &ShapeScope<'_>, node: &Node) -> Result<Vec<TensorInfo>> {
    let unary = |scope: &ShapeScope<'_>| -> Result<Vec<TensorInfo>> {
        let x = input_info(scope, node, 0)?;
        Ok(vec![x.to_info("")])
    };
    let binary_bcast = |scope: &ShapeScope<'_>, dtype: Option<DType>| -> Result<Vec<TensorInfo>> {
        let a = input_info(scope, node, 0)?;
        let b = input_info(scope, node, 1)?;
        let shape = broadcast(a.shape, b.shape).ok_or_else(|| {
            err(
                node,
                format!("cannot broadcast {:?} with {:?}", a.shape, b.shape),
            )
        })?;
        Ok(vec![TensorInfo::new("", dtype.unwrap_or(a.dtype), shape)])
    };

    match &node.op {
        OpKind::Conv {
            kernel,
            stride,
            pads,
            groups,
        } => {
            let x = input_info(scope, node, 0)?;
            let w = input_info(scope, node, 1)?;
            if x.shape.len() != 4 || w.shape.len() != 4 {
                return Err(err(node, "Conv expects NCHW input and OIHW weight"));
            }
            let (n, c, h, wd) = (x.shape[0], x.shape[1], x.shape[2], x.shape[3]);
            let (m, cg) = (w.shape[0], w.shape[1]);
            if cg.checked_mul(*groups) != Some(c) {
                return Err(err(
                    node,
                    format!("Conv channels {c} != weight in-channels {cg} × groups {groups}"),
                ));
            }
            if (w.shape[2], w.shape[3]) != *kernel {
                return Err(err(
                    node,
                    "Conv kernel attribute disagrees with weight shape",
                ));
            }
            if stride.0 == 0 || stride.1 == 0 {
                // validate() rejects this as RV0002; guard here too so a
                // graph that skipped validation errors instead of panicking.
                return Err(err(node, format!("Conv stride {stride:?} must be nonzero")));
            }
            let out_extent = |n: usize, pad: usize, k: usize, s: usize| {
                let padded = pad.checked_mul(2)?.checked_add(n)?;
                Some(padded.checked_sub(k)? / s + 1)
            };
            let ho = out_extent(h, pads.0, kernel.0, stride.0);
            let wo = out_extent(wd, pads.1, kernel.1, stride.1);
            match (ho, wo) {
                (Some(ho), Some(wo)) => {
                    Ok(vec![TensorInfo::new("", DType::F32, vec![n, m, ho, wo])])
                }
                _ => Err(err(node, "Conv kernel larger than padded input")),
            }
        }
        OpKind::MatMul => {
            let a = input_info(scope, node, 0)?;
            let b = input_info(scope, node, 1)?;
            if a.shape.len() < 2 || b.shape.len() < 2 {
                return Err(err(node, "MatMul operands must have rank >= 2"));
            }
            let (m, k1) = (a.shape[a.shape.len() - 2], a.shape[a.shape.len() - 1]);
            let (k2, n) = (b.shape[b.shape.len() - 2], b.shape[b.shape.len() - 1]);
            if k1 != k2 {
                return Err(err(node, format!("MatMul inner dims {k1} != {k2}")));
            }
            let batch = broadcast(&a.shape[..a.shape.len() - 2], &b.shape[..b.shape.len() - 2])
                .ok_or_else(|| err(node, "MatMul batch dims do not broadcast"))?;
            let mut shape = batch;
            shape.push(m);
            shape.push(n);
            Ok(vec![TensorInfo::new("", DType::F32, shape)])
        }
        OpKind::Gemm { trans_b } => {
            let x = input_info(scope, node, 0)?;
            let w = input_info(scope, node, 1)?;
            if x.shape.len() != 2 || w.shape.len() != 2 {
                return Err(err(node, "Gemm operands must be 2-D"));
            }
            let (m, k) = (x.shape[0], x.shape[1]);
            let (n, kw) = if *trans_b {
                (w.shape[0], w.shape[1])
            } else {
                (w.shape[1], w.shape[0])
            };
            if k != kw {
                return Err(err(node, format!("Gemm inner dims {k} != {kw}")));
            }
            Ok(vec![TensorInfo::new("", DType::F32, vec![m, n])])
        }
        OpKind::Relu
        | OpKind::LeakyRelu { .. }
        | OpKind::Sigmoid
        | OpKind::Tanh
        | OpKind::Gelu
        | OpKind::Erf
        | OpKind::Sqrt
        | OpKind::Exp
        | OpKind::Neg
        | OpKind::Clip { .. }
        | OpKind::Dropout
        | OpKind::Identity
        | OpKind::Softmax { .. } => unary(scope),
        OpKind::Add | OpKind::Sub | OpKind::Mul | OpKind::Div | OpKind::Pow => {
            binary_bcast(scope, None)
        }
        OpKind::Equal => binary_bcast(scope, Some(DType::Bool)),
        OpKind::Where => {
            let c = input_info(scope, node, 0)?;
            let a = input_info(scope, node, 1)?;
            let b = input_info(scope, node, 2)?;
            let s1 = broadcast(c.shape, a.shape)
                .and_then(|s| broadcast(&s, b.shape))
                .ok_or_else(|| err(node, "Where operands do not broadcast"))?;
            Ok(vec![TensorInfo::new("", a.dtype, s1)])
        }
        OpKind::BatchNorm { .. } => {
            let x = input_info(scope, node, 0)?;
            if node.inputs.len() != 5 {
                return Err(IrError::Arity {
                    node: node.name.clone(),
                    expected: 5,
                    got: node.inputs.len(),
                });
            }
            Ok(vec![x.to_info("")])
        }
        OpKind::LayerNorm { .. } => unary(scope),
        OpKind::ReduceMean { axes, keepdims } => {
            let x = input_info(scope, node, 0)?;
            let rank = x.shape.len();
            let mut drop = vec![false; rank];
            for &a in axes {
                drop[norm_axis(a, rank)?] = true;
            }
            let mut shape = Vec::new();
            for (i, &d) in x.shape.iter().enumerate() {
                if drop[i] {
                    if *keepdims {
                        shape.push(1);
                    }
                } else {
                    shape.push(d);
                }
            }
            Ok(vec![TensorInfo::new("", x.dtype, shape)])
        }
        OpKind::MaxPool(p) | OpKind::AveragePool(p) => {
            let x = input_info(scope, node, 0)?;
            if x.shape.len() != 4 {
                return Err(err(node, "pooling expects NCHW input"));
            }
            let ho = p.out_extent(x.shape[2], 0);
            let wo = p.out_extent(x.shape[3], 1);
            if ho == 0 || wo == 0 {
                return Err(err(node, "pool kernel larger than padded input"));
            }
            Ok(vec![TensorInfo::new(
                "",
                x.dtype,
                vec![x.shape[0], x.shape[1], ho, wo],
            )])
        }
        OpKind::GlobalAveragePool => {
            let x = input_info(scope, node, 0)?;
            if x.shape.len() != 4 {
                return Err(err(node, "GlobalAveragePool expects NCHW input"));
            }
            Ok(vec![TensorInfo::new(
                "",
                x.dtype,
                vec![x.shape[0], x.shape[1], 1, 1],
            )])
        }
        OpKind::Concat { axis } => {
            let first = input_info(scope, node, 0)?;
            let rank = first.shape.len();
            let ax = norm_axis(*axis, rank)?;
            let mut shape = first.shape.to_vec();
            for i in 1..node.inputs.len() {
                let t = input_info(scope, node, i)?;
                if t.shape.len() != rank {
                    return Err(err(node, "Concat rank mismatch"));
                }
                for (d, (&a, &b)) in t.shape.iter().zip(shape.iter()).enumerate() {
                    if d != ax && a != b {
                        return Err(err(node, format!("Concat dim {d} mismatch: {a} vs {b}")));
                    }
                }
                shape[ax] = shape[ax]
                    .checked_add(t.shape[ax])
                    .ok_or_else(|| err(node, "Concat extent overflows"))?;
            }
            Ok(vec![TensorInfo::new("", first.dtype, shape)])
        }
        OpKind::Split { axis, parts } => {
            let x = input_info(scope, node, 0)?;
            let ax = norm_axis(*axis, x.shape.len())?;
            let total = parts.iter().try_fold(0usize, |n, &p| n.checked_add(p));
            if total != Some(x.shape[ax]) {
                return Err(err(node, "Split parts do not sum to the axis extent"));
            }
            Ok(parts
                .iter()
                .map(|&p| {
                    let mut s = x.shape.to_vec();
                    s[ax] = p;
                    TensorInfo::new("", x.dtype, s)
                })
                .collect())
        }
        OpKind::Slice {
            axes,
            starts,
            ends,
            steps,
        } => {
            let x = input_info(scope, node, 0)?;
            let mut shape = x.shape.to_vec();
            if axes.len() != starts.len() || starts.len() != ends.len() || ends.len() != steps.len()
            {
                return Err(err(node, "Slice attribute lengths disagree"));
            }
            for (((&axis, &start), &end), &step) in axes.iter().zip(starts).zip(ends).zip(steps) {
                let ax = norm_axis(axis, x.shape.len())?;
                let dim = x.shape[ax] as i64;
                if step <= 0 {
                    return Err(err(node, "Slice supports positive steps only"));
                }
                let clamp = |v: i64| -> i64 {
                    let v = if v < 0 { v + dim } else { v };
                    v.clamp(0, dim)
                };
                let (s, e) = (clamp(start), clamp(end.min(dim)));
                // ceil((e - s) / step) without forming `e - s + step`.
                let extent = if e > s { (e - s - 1) / step + 1 } else { 0 };
                shape[ax] = extent as usize;
            }
            Ok(vec![TensorInfo::new("", x.dtype, shape)])
        }
        OpKind::Gather { axis } => {
            let data = input_info(scope, node, 0)?;
            let idx = input_info(scope, node, 1)?;
            let ax = norm_axis(*axis, data.shape.len())?;
            let mut shape = Vec::new();
            shape.extend_from_slice(&data.shape[..ax]);
            shape.extend_from_slice(idx.shape);
            shape.extend_from_slice(&data.shape[ax + 1..]);
            Ok(vec![TensorInfo::new("", data.dtype, shape)])
        }
        OpKind::Reshape => {
            let x = input_info(scope, node, 0)?;
            let spec = const_i64_operand(scope, node, 1)?;
            let overflow = || err(node, "Reshape element count overflows");
            let numel = checked_numel(x.shape).ok_or_else(overflow)?;
            let mut shape: Vec<usize> = Vec::with_capacity(spec.len());
            let mut infer_at = None;
            for (i, &d) in spec.iter().enumerate() {
                match d {
                    -1 => {
                        if infer_at.is_some() {
                            return Err(err(node, "Reshape allows a single -1"));
                        }
                        infer_at = Some(i);
                        shape.push(1);
                    }
                    0 => shape.push(
                        *x.shape
                            .get(i)
                            .ok_or_else(|| err(node, "Reshape 0-dim copies past input rank"))?,
                    ),
                    d if d > 0 => shape.push(d as usize),
                    _ => return Err(err(node, "Reshape dims must be -1, 0 or positive")),
                }
            }
            let partial = checked_numel(&shape).ok_or_else(overflow)?;
            if let Some(i) = infer_at {
                if partial == 0 || !numel.is_multiple_of(partial) {
                    return Err(err(node, "Reshape cannot infer -1 dimension"));
                }
                shape[i] = numel / partial;
            } else if partial != numel {
                return Err(err(
                    node,
                    format!("Reshape element count mismatch: {numel} -> {partial}"),
                ));
            }
            Ok(vec![TensorInfo::new("", x.dtype, shape)])
        }
        OpKind::Transpose { perm } => {
            let x = input_info(scope, node, 0)?;
            if perm.len() != x.shape.len() {
                return Err(err(node, "Transpose perm rank mismatch"));
            }
            let shape = perm.iter().map(|&p| x.shape[p]).collect();
            Ok(vec![TensorInfo::new("", x.dtype, shape)])
        }
        OpKind::Flatten { axis } => {
            let x = input_info(scope, node, 0)?;
            let ax = if *axis == x.shape.len() as isize {
                x.shape.len()
            } else {
                norm_axis(*axis, x.shape.len())?
            };
            match (checked_numel(&x.shape[..ax]), checked_numel(&x.shape[ax..])) {
                (Some(lead), Some(tail)) => {
                    Ok(vec![TensorInfo::new("", x.dtype, vec![lead, tail])])
                }
                _ => Err(err(node, "Flatten element count overflows")),
            }
        }
        OpKind::Unsqueeze { axes } => {
            let x = input_info(scope, node, 0)?;
            let out_rank = x.shape.len() + axes.len();
            let mut at = vec![false; out_rank];
            for &a in axes {
                at[norm_axis(a, out_rank)?] = true;
            }
            let mut it = x.shape.iter();
            let shape = at
                .iter()
                .map(|&ins| if ins { 1 } else { *it.next().unwrap() })
                .collect();
            Ok(vec![TensorInfo::new("", x.dtype, shape)])
        }
        OpKind::Squeeze { axes } => {
            let x = input_info(scope, node, 0)?;
            let rank = x.shape.len();
            let mut drop = vec![false; rank];
            for &a in axes {
                let ax = norm_axis(a, rank)?;
                if x.shape[ax] != 1 {
                    return Err(err(node, format!("cannot squeeze non-unit axis {ax}")));
                }
                drop[ax] = true;
            }
            let shape = x
                .shape
                .iter()
                .enumerate()
                .filter(|(i, _)| !drop[*i])
                .map(|(_, &d)| d)
                .collect();
            Ok(vec![TensorInfo::new("", x.dtype, shape)])
        }
        OpKind::Expand => {
            let x = input_info(scope, node, 0)?;
            let spec = const_i64_operand(scope, node, 1)?;
            let target: Vec<usize> = spec.iter().map(|&d| d.max(0) as usize).collect();
            let shape = broadcast(x.shape, &target)
                .ok_or_else(|| err(node, "Expand target does not broadcast"))?;
            Ok(vec![TensorInfo::new("", x.dtype, shape)])
        }
        OpKind::Resize { scale } => {
            let x = input_info(scope, node, 0)?;
            if x.shape.len() != 4 {
                return Err(err(node, "Resize expects NCHW input"));
            }
            match (
                x.shape[2].checked_mul(scale.0),
                x.shape[3].checked_mul(scale.1),
            ) {
                (Some(h), Some(w)) => Ok(vec![TensorInfo::new(
                    "",
                    x.dtype,
                    vec![x.shape[0], x.shape[1], h, w],
                )]),
                _ => Err(err(node, "Resize extent overflows")),
            }
        }
        OpKind::Pad { pads } => {
            let x = input_info(scope, node, 0)?;
            if x.shape.len() != 4 {
                return Err(err(node, "Pad expects NCHW input"));
            }
            let padded =
                |n: usize, before: usize, after: usize| n.checked_add(before)?.checked_add(after);
            match (
                padded(x.shape[2], pads.0, pads.2),
                padded(x.shape[3], pads.1, pads.3),
            ) {
                (Some(h), Some(w)) => Ok(vec![TensorInfo::new(
                    "",
                    x.dtype,
                    vec![x.shape[0], x.shape[1], h, w],
                )]),
                _ => Err(err(node, "Pad extent overflows")),
            }
        }
        OpKind::Cast { to } => {
            let x = input_info(scope, node, 0)?;
            Ok(vec![TensorInfo::new("", *to, x.shape.to_vec())])
        }
        OpKind::Constant => {
            let out = &node.outputs[0];
            let data = scope
                .graph
                .initializers
                .get(out)
                .ok_or_else(|| err(node, "Constant payload missing from initializers"))?;
            Ok(vec![TensorInfo::new("", data.dtype(), data.shape.clone())])
        }
        OpKind::Shape => {
            let x = input_info(scope, node, 0)?;
            Ok(vec![TensorInfo::new("", DType::I64, vec![x.shape.len()])])
        }
        OpKind::ConstantOfShape { .. } => {
            let spec = const_i64_operand(scope, node, 0)?;
            let shape: Vec<usize> = spec.iter().map(|&d| d.max(0) as usize).collect();
            Ok(vec![TensorInfo::new("", DType::F32, shape)])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::op::PoolSpec;
    use crate::tensor_data::TensorData;

    #[test]
    fn broadcast_rules() {
        assert_eq!(broadcast(&[2, 3], &[3]), Some(vec![2, 3]));
        assert_eq!(broadcast(&[2, 1, 4], &[3, 1]), Some(vec![2, 3, 4]));
        assert_eq!(broadcast(&[2], &[3]), None);
        assert_eq!(broadcast(&[], &[5]), Some(vec![5]));
    }

    #[test]
    fn conv_pool_shapes() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", DType::F32, vec![1, 3, 32, 32]);
        let c = b.conv(&x, 3, 8, (3, 3), (2, 2), (1, 1), 1);
        let p = b.op(
            "mp",
            OpKind::MaxPool(PoolSpec {
                kernel: (3, 3),
                stride: (2, 2),
                pads: (0, 0),
                ceil_mode: true,
            }),
            vec![c.clone()],
        );
        b.output(&p);
        let g = b.finish().unwrap();
        assert_eq!(g.value_info[&c].shape, vec![1, 8, 16, 16]);
        assert_eq!(g.value_info[&p].shape, vec![1, 8, 8, 8]);
    }

    #[test]
    fn matmul_broadcasting_and_gemm() {
        let mut b = GraphBuilder::new("t");
        let a = b.input("a", DType::F32, vec![2, 4, 8, 16]);
        let w = b.weight("w", vec![16, 32], crate::builder::Init::Const(0.0));
        let y = b.op("mm", OpKind::MatMul, vec![a, w]);
        let f = b.op("fl", OpKind::Flatten { axis: 1 }, vec![y.clone()]);
        b.output(&f);
        let g = b.finish().unwrap();
        assert_eq!(g.value_info[&y].shape, vec![2, 4, 8, 32]);
        assert_eq!(g.value_info[&f].shape, vec![2, 4 * 8 * 32]);
    }

    #[test]
    fn reshape_with_inference_and_zero_copy() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", DType::F32, vec![2, 3, 4]);
        let spec = b.init("spec", TensorData::vec_i64(vec![0, -1]));
        let y = b.op("rs", OpKind::Reshape, vec![x, spec]);
        b.output(&y);
        let g = b.finish().unwrap();
        assert_eq!(g.value_info[&y].shape, vec![2, 12]);
    }

    #[test]
    fn concat_split_roundtrip_shapes() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", DType::F32, vec![1, 6, 4, 4]);
        let parts = b.op_multi(
            "sp",
            OpKind::Split {
                axis: 1,
                parts: vec![2, 4],
            },
            vec![x],
        );
        let y = b.op(
            "cc",
            OpKind::Concat { axis: 1 },
            vec![parts[0].clone(), parts[1].clone()],
        );
        b.output(&y);
        let g = b.finish().unwrap();
        assert_eq!(g.value_info[&parts[0]].shape, vec![1, 2, 4, 4]);
        assert_eq!(g.value_info[&y].shape, vec![1, 6, 4, 4]);
    }

    #[test]
    fn slice_negative_and_clamped() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", DType::F32, vec![1, 8, 10, 10]);
        let y = b.op(
            "sl",
            OpKind::Slice {
                axes: vec![1, 2],
                starts: vec![2, -4],
                ends: vec![i64::MAX, i64::MAX],
                steps: vec![1, 2],
            },
            vec![x],
        );
        b.output(&y);
        let g = b.finish().unwrap();
        assert_eq!(g.value_info[&y].shape, vec![1, 6, 2, 10]);
    }

    #[test]
    fn shape_and_gather_dtypes() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", DType::F32, vec![4, 5]);
        let s = b.op("sh", OpKind::Shape, vec![x.clone()]);
        let idx = b.const_i64("idx", vec![0]);
        let d = b.op("ga", OpKind::Gather { axis: 0 }, vec![s.clone(), idx]);
        b.output(&d);
        let g = b.finish().unwrap();
        assert_eq!(g.value_info[&s].dtype, DType::I64);
        assert_eq!(g.value_info[&s].shape, vec![2]);
        assert_eq!(g.value_info[&d].shape, vec![1]);
    }

    #[test]
    fn reduce_mean_keepdims() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", DType::F32, vec![2, 3, 4]);
        let y = b.op(
            "rm",
            OpKind::ReduceMean {
                axes: vec![-1],
                keepdims: true,
            },
            vec![x.clone()],
        );
        let z = b.op(
            "rm2",
            OpKind::ReduceMean {
                axes: vec![1],
                keepdims: false,
            },
            vec![x],
        );
        b.output(&y);
        b.output(&z);
        let g = b.finish().unwrap();
        assert_eq!(g.value_info[&y].shape, vec![2, 3, 1]);
        assert_eq!(g.value_info[&z].shape, vec![2, 4]);
    }

    #[test]
    fn bad_conv_channels_rejected() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", DType::F32, vec![1, 3, 8, 8]);
        let w = b.weight("w", vec![8, 4, 3, 3], crate::builder::Init::Const(0.0));
        let y = b.op(
            "c",
            OpKind::Conv {
                kernel: (3, 3),
                stride: (1, 1),
                pads: (1, 1),
                groups: 1,
            },
            vec![x, w],
        );
        b.output(&y);
        assert!(matches!(b.finish(), Err(IrError::Shape { .. })));
    }

    #[test]
    fn exporter_style_shape_chain_resolves() {
        // Reshape(x, Concat(Gather(Shape(x), 0), [-1])) — the ONNX exporter
        // idiom that CP+DCE folds.
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", DType::F32, vec![2, 3, 4]);
        let s = b.op("sh", OpKind::Shape, vec![x.clone()]);
        let i0 = b.const_i64("i0", vec![0]);
        let d0 = b.op("g0", OpKind::Gather { axis: 0 }, vec![s, i0]);
        let minus1 = b.const_i64("m1", vec![-1]);
        let spec = b.op("cc", OpKind::Concat { axis: 0 }, vec![d0, minus1]);
        let y = b.op("rs", OpKind::Reshape, vec![x, spec]);
        b.output(&y);
        let g = b.finish().unwrap();
        assert_eq!(g.value_info[&y].shape, vec![2, 12]);
    }

    #[test]
    fn const_eval_arithmetic_and_slice() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", DType::F32, vec![6, 8]);
        let s = b.op("sh", OpKind::Shape, vec![x.clone()]);
        let two = b.init("two", TensorData::vec_i64(vec![2]));
        let halved = b.op("dv", OpKind::Div, vec![s.clone(), two]);
        let first = b.op(
            "sl",
            OpKind::Slice {
                axes: vec![0],
                starts: vec![0],
                ends: vec![1],
                steps: vec![1],
            },
            vec![halved],
        );
        let rest = b.op(
            "sl2",
            OpKind::Slice {
                axes: vec![0],
                starts: vec![1],
                ends: vec![i64::MAX],
                steps: vec![1],
            },
            vec![s],
        );
        let spec = b.op("cc", OpKind::Concat { axis: 0 }, vec![first, rest]);
        // spec = [3, 8] → reshape fails (6·8 != 3·8)… use Expand target check
        // instead: just assert the const evaluation itself.
        b.output(&spec);
        let g = b.finish().unwrap();
        let adj = g.adjacency();
        let scope = ShapeScope::new(&g, &adj);
        assert_eq!(const_eval_i64(&scope, &spec, 64), Some(vec![3, 8]));
    }

    #[test]
    fn const_eval_gives_up_on_runtime_data() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", DType::I64, vec![2]);
        let y = b.op("id", OpKind::Identity, vec![x]);
        b.output(&y);
        let g = b.finish().unwrap();
        let adj = g.adjacency();
        let scope = ShapeScope::new(&g, &adj);
        assert_eq!(const_eval_i64(&scope, &y, 64), None);
    }

    #[test]
    fn element_counts_are_checked_not_wrapped() {
        assert_eq!(checked_numel(&[]), Some(1));
        assert_eq!(checked_numel(&[2, 3, 4]), Some(24));
        assert_eq!(checked_numel(&[1 << 33, 1 << 33]), None);
        // (2^62 + 1) * 4 wraps to 4.
        assert_eq!(checked_numel(&[(1 << 62) + 1, 4]), None);
        assert_eq!(saturating_numel(&[(1 << 62) + 1, 4]), usize::MAX);
    }

    #[test]
    fn hostile_extents_are_shape_errors_not_overflows() {
        // Each graph multiplies or adds its way past usize::MAX during
        // inference; built by hand because `finish` would run inference.
        let big = 1usize << 62;
        let infer = |op: OpKind, inputs: Vec<(&str, Vec<usize>)>| {
            let mut g = Graph::new("hostile");
            for (name, shape) in &inputs {
                g.inputs
                    .push(TensorInfo::new(*name, DType::F32, shape.clone()));
            }
            g.initializers
                .insert("spec".into(), TensorData::vec_i64(vec![i64::MAX, 4]));
            let mut names: Vec<String> = inputs.iter().map(|(n, _)| n.to_string()).collect();
            if matches!(op, OpKind::Reshape) {
                names.push("spec".into());
            }
            g.push_node("n", op, names, vec!["y".into()]);
            g.outputs.push("y".into());
            infer_shapes(&mut g)
        };
        let cases = [
            (OpKind::Reshape, vec![("x", vec![8])]),
            (OpKind::Flatten { axis: 1 }, vec![("x", vec![2, big, 8])]),
            (
                OpKind::Concat { axis: 0 },
                vec![("a", vec![usize::MAX]), ("b", vec![2])],
            ),
            (
                OpKind::Resize { scale: (big, 1) },
                vec![("x", vec![1, 1, 8, 8])],
            ),
            (
                OpKind::Pad {
                    pads: (usize::MAX, 0, 1, 0),
                },
                vec![("x", vec![1, 1, 8, 8])],
            ),
        ];
        for (op, inputs) in cases {
            let name = op.name();
            assert!(
                matches!(infer(op, inputs), Err(IrError::Shape { .. })),
                "{name} must report a shape error"
            );
        }
    }

    #[test]
    fn unsqueeze_squeeze_roundtrip() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", DType::F32, vec![3, 4]);
        let u = b.op("u", OpKind::Unsqueeze { axes: vec![0, 3] }, vec![x]);
        let s = b.op("s", OpKind::Squeeze { axes: vec![0, -1] }, vec![u.clone()]);
        b.output(&s);
        let g = b.finish().unwrap();
        assert_eq!(g.value_info[&u].shape, vec![1, 3, 4, 1]);
        assert_eq!(g.value_info[&s].shape, vec![3, 4]);
    }
}
