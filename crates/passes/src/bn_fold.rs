//! Batch-norm folding: `BatchNorm(Conv(x, W, b))` → `Conv(x, W′, b′)`.
//!
//! The classic inference-time graph reduction (the paper's conclusion calls
//! for "more powerful optimizations for graph reductions"; this is the
//! first one every production stack applies). With
//! `a_c = γ_c / √(σ²_c + ε)` per output channel `c`:
//!
//! ```text
//! W′[c, ..] = a_c · W[c, ..]
//! b′[c]     = a_c · (b[c] − μ_c) + β_c
//! ```
//!
//! Folding fires only when the convolution's result feeds *only* the
//! batch-norm (otherwise other consumers would observe changed values) and
//! all five BN parameters plus the conv weights are initializers.

use crate::PassReport;
use ramiel_ir::{Graph, OpKind, Result, TensorData};
use std::collections::HashMap;

/// Fold eligible Conv→BatchNorm pairs. Returns how many pairs folded.
pub fn fold_batch_norms(graph: &mut Graph) -> Result<PassReport> {
    let adj = graph.adjacency();
    let mut victims: Vec<usize> = Vec::new(); // BN node ids
    let mut rewires: HashMap<String, String> = HashMap::new(); // bn out → conv out
    let mut weight_updates: Vec<(String, TensorData)> = Vec::new();

    for bn in &graph.nodes {
        let OpKind::BatchNorm { epsilon } = bn.op else {
            continue;
        };
        // producer of the BN input must be a conv feeding only this BN
        let Some(&conv_id) = adj.producer_of.get(&bn.inputs[0]) else {
            continue;
        };
        let conv = &graph.nodes[conv_id];
        if !matches!(conv.op, OpKind::Conv { .. }) {
            continue;
        }
        if adj.consumers_of.get(&bn.inputs[0]).map(<[_]>::len) != Some(1)
            || graph.outputs.contains(&bn.inputs[0])
        {
            continue;
        }
        // all parameters must be constants
        let get = |name: &String| graph.initializers.get(name);
        let (Some(w), scale, bias, mean, var) = (
            conv.inputs.get(1).and_then(get),
            bn.inputs.get(1).and_then(get),
            bn.inputs.get(2).and_then(get),
            bn.inputs.get(3).and_then(get),
            bn.inputs.get(4).and_then(get),
        ) else {
            continue;
        };
        let (Some(scale), Some(bias), Some(mean), Some(var)) = (scale, bias, mean, var) else {
            continue;
        };
        let conv_bias = conv.inputs.get(2).and_then(get);
        let (Some(wf), Some(sf), Some(bf), Some(mf), Some(vf)) = (
            w.as_f32(),
            scale.as_f32(),
            bias.as_f32(),
            mean.as_f32(),
            var.as_f32(),
        ) else {
            continue;
        };
        let out_ch = w.shape[0];
        if sf.len() != out_ch {
            continue;
        }
        let per_ch: usize = w.shape[1..].iter().product();

        let a: Vec<f32> = (0..out_ch)
            .map(|c| sf[c] / (vf[c] + epsilon).sqrt())
            .collect();
        let mut new_w = wf.to_vec();
        for c in 0..out_ch {
            for v in &mut new_w[c * per_ch..(c + 1) * per_ch] {
                *v *= a[c];
            }
        }
        let old_b: Vec<f32> = match conv_bias.and_then(|b| b.as_f32()) {
            Some(b) => b.to_vec(),
            None => vec![0.0; out_ch],
        };
        let new_b: Vec<f32> = (0..out_ch)
            .map(|c| a[c] * (old_b[c] - mf[c]) + bf[c])
            .collect();

        weight_updates.push((
            conv.inputs[1].clone(),
            TensorData::f32(w.shape.clone(), new_w),
        ));
        // conv may have been bias-less; synthesize a bias initializer name
        let bias_name = conv
            .inputs
            .get(2)
            .cloned()
            .unwrap_or_else(|| format!("{}__folded_bias", conv.name));
        weight_updates.push((bias_name.clone(), TensorData::f32(vec![out_ch], new_b)));
        if conv.inputs.len() < 3 {
            // record the extra input via the rewire map sentinel handled below
            rewires.insert(format!("__addbias__{}", conv_id), bias_name.clone());
        }
        rewires.insert(bn.outputs[0].clone(), conv.outputs[0].clone());
        victims.push(bn.id);
    }

    if victims.is_empty() {
        return Ok(PassReport::default());
    }

    for (name, td) in weight_updates {
        graph.initializers.insert(name, td);
    }
    // attach synthesized biases
    let add_bias: Vec<(usize, String)> = rewires
        .iter()
        .filter_map(|(k, v)| {
            k.strip_prefix("__addbias__")
                .and_then(|id| id.parse::<usize>().ok())
                .map(|id| (id, v.clone()))
        })
        .collect();
    for (conv_id, bias_name) in add_bias {
        graph.nodes[conv_id].inputs.push(bias_name);
    }
    rewires.retain(|k, _| !k.starts_with("__addbias__"));
    // rewire BN consumers (and graph outputs) to the conv output
    for node in &mut graph.nodes {
        for inp in &mut node.inputs {
            if let Some(r) = rewires.get(inp) {
                *inp = r.clone();
            }
        }
    }
    for out in &mut graph.outputs {
        if let Some(r) = rewires.get(out) {
            *out = r.clone();
        }
    }
    let removed = victims.len();
    let victim_set: std::collections::HashSet<usize> = victims.into_iter().collect();
    graph.retain_nodes(|n| !victim_set.contains(&n.id));
    ramiel_ir::shape::infer_shapes(graph)?;
    Ok(PassReport {
        nodes_removed: removed,
        nodes_added: 0,
        changed: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ramiel_ir::{DType, GraphBuilder};
    use ramiel_runtime::{run_sequential, synth_inputs};
    use ramiel_tensor::{ExecCtx, Value};

    fn conv_bn_graph(with_bias: bool) -> Graph {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", DType::F32, vec![1, 3, 8, 8]);
        let w = b.weight(
            "w",
            vec![4, 3, 3, 3],
            ramiel_ir::builder::Init::Uniform(0.1),
        );
        let mut inputs = vec![x, w];
        if with_bias {
            inputs.push(b.weight("b", vec![4], ramiel_ir::builder::Init::Uniform(0.1)));
        }
        let conv = b.op(
            "conv",
            OpKind::Conv {
                kernel: (3, 3),
                stride: (1, 1),
                pads: (1, 1),
                groups: 1,
            },
            inputs,
        );
        let bn = b.batch_norm(&conv, 4);
        let out = b.op("relu", OpKind::Relu, vec![bn]);
        b.output(&out);
        b.finish().unwrap()
    }

    fn outputs_match(g0: &Graph, g1: &Graph) {
        let inputs = synth_inputs(g0, 5);
        let ctx = ExecCtx::sequential();
        let a = run_sequential(g0, &inputs, &ctx).unwrap();
        let b = run_sequential(g1, &inputs, &ctx).unwrap();
        for (k, va) in &a {
            let (Value::F32(x), Value::F32(y)) = (va, &b[k]) else {
                panic!("dtype change")
            };
            for (p, q) in x.data().iter().zip(y.data()) {
                assert!((p - q).abs() < 1e-4, "{k}: {p} vs {q}");
            }
        }
    }

    #[test]
    fn folds_conv_bn_with_bias() {
        let g0 = conv_bn_graph(true);
        let mut g1 = g0.clone();
        let rep = fold_batch_norms(&mut g1).unwrap();
        assert_eq!(rep.nodes_removed, 1);
        assert!(!g1
            .nodes
            .iter()
            .any(|n| matches!(n.op, OpKind::BatchNorm { .. })));
        ramiel_ir::validate::validate(&g1).unwrap();
        outputs_match(&g0, &g1);
    }

    #[test]
    fn folds_biasless_conv_by_synthesizing_bias() {
        let g0 = conv_bn_graph(false);
        let mut g1 = g0.clone();
        fold_batch_norms(&mut g1).unwrap();
        let conv = g1
            .nodes
            .iter()
            .find(|n| matches!(n.op, OpKind::Conv { .. }))
            .unwrap();
        assert_eq!(conv.inputs.len(), 3, "bias synthesized");
        ramiel_ir::validate::validate(&g1).unwrap();
        outputs_match(&g0, &g1);
    }

    #[test]
    fn shared_conv_output_blocks_folding() {
        // conv output also consumed directly → folding would corrupt it
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", DType::F32, vec![1, 2, 4, 4]);
        let conv = b.conv(&x, 2, 2, (1, 1), (1, 1), (0, 0), 1);
        let bn = b.batch_norm(&conv, 2);
        let direct = b.op("direct", OpKind::Relu, vec![conv]);
        let j = b.op("j", OpKind::Add, vec![bn, direct]);
        b.output(&j);
        let mut g = b.finish().unwrap();
        let rep = fold_batch_norms(&mut g).unwrap();
        assert!(!rep.changed);
    }

    #[test]
    fn bn_without_conv_producer_untouched() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", DType::F32, vec![1, 2, 4, 4]);
        let r = b.op("relu", OpKind::Relu, vec![x]);
        let bn = b.batch_norm(&r, 2);
        b.output(&bn);
        let mut g = b.finish().unwrap();
        assert!(!fold_batch_norms(&mut g).unwrap().changed);
    }

    #[test]
    fn folds_whole_model_and_preserves_semantics() {
        use ramiel_models::{build, ModelConfig, ModelKind};
        let g0 = build(ModelKind::Retinanet, &ModelConfig::tiny());
        let mut g1 = g0.clone();
        let rep = fold_batch_norms(&mut g1).unwrap();
        assert!(rep.changed);
        assert!(rep.nodes_removed > 10, "ResNet is full of Conv→BN pairs");
        outputs_match(&g0, &g1);
    }
}
