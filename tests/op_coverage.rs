//! Operator coverage: every `OpKind` variant must flow through the whole
//! stack — shape inference, sequential execution, clustering, parallel
//! execution, Python lowering and an ONNX export/import round trip — from
//! a single graph that uses all of them.

use ramiel::obs::Obs;
use ramiel::{schedule, PipelineOptions};
use ramiel_ir::{DType, Graph, GraphBuilder, OpKind, PoolSpec, TensorData};
use ramiel_runtime::{run, run_sequential, synth_inputs, RunOptions};
use ramiel_tensor::ExecCtx;
use std::slice::from_ref;

/// Build one graph that exercises every operator variant.
fn kitchen_sink() -> Graph {
    let mut b = GraphBuilder::new("kitchen_sink");
    let x = b.input("x", DType::F32, vec![1, 4, 8, 8]);
    let ids = b.input("ids", DType::I64, vec![1, 4]);

    // conv family
    let c = b.conv(&x, 4, 8, (3, 3), (1, 1), (1, 1), 1);
    let cg = b.conv(&c, 8, 8, (3, 3), (1, 1), (1, 1), 8); // depthwise
    let bn = b.batch_norm(&cg, 8);

    // activations
    let mut t = bn;
    for (name, op) in [
        ("relu", OpKind::Relu),
        ("lrelu", OpKind::LeakyRelu { alpha: 0.1 }),
        ("sig", OpKind::Sigmoid),
        ("tanh", OpKind::Tanh),
        ("gelu", OpKind::Gelu),
        ("erf", OpKind::Erf),
        ("exp", OpKind::Exp),
        ("neg", OpKind::Neg),
        (
            "clip",
            OpKind::Clip {
                min: -1.0,
                max: 1.0,
            },
        ),
        ("sqrtabs", OpKind::Mul), // placeholder replaced below
    ] {
        if name == "sqrtabs" {
            // sqrt needs non-negative input: square first
            let sq = b.op("square", op, vec![t.clone(), t.clone()]);
            t = b.op("sqrt", OpKind::Sqrt, vec![sq]);
        } else {
            t = b.op(name, op, vec![t]);
        }
    }
    let drop = b.op("drop", OpKind::Dropout, vec![t.clone()]);
    let ident = b.op("ident", OpKind::Identity, vec![drop]);

    // binary + where/equal
    let sum = b.op("add", OpKind::Add, vec![ident.clone(), t.clone()]);
    let dif = b.op("sub", OpKind::Sub, vec![sum.clone(), t.clone()]);
    let prd = b.op("mul", OpKind::Mul, vec![dif, sum.clone()]);
    let one = b.const_scalar("one", 1.0);
    let quo = b.op("div", OpKind::Div, vec![prd, one.clone()]);
    let two = b.const_scalar("two", 2.0);
    let pw = b.op("pow", OpKind::Pow, vec![quo.clone(), two]);
    let eq = b.op("eq", OpKind::Equal, vec![quo.clone(), pw.clone()]);
    let sel = b.op("where", OpKind::Where, vec![eq, quo.clone(), pw]);

    // pooling + norm + reduce
    let mp = b.op(
        "mp",
        OpKind::MaxPool(PoolSpec {
            kernel: (2, 2),
            stride: (2, 2),
            pads: (0, 0),
            ceil_mode: false,
        }),
        vec![sel.clone()],
    );
    let ap = b.op(
        "ap",
        OpKind::AveragePool(PoolSpec {
            kernel: (2, 2),
            stride: (2, 2),
            pads: (0, 0),
            ceil_mode: true,
        }),
        vec![sel.clone()],
    );
    let cat = b.op("cat", OpKind::Concat { axis: 1 }, vec![mp, ap]);
    let parts = b.op_multi(
        "split",
        OpKind::Split {
            axis: 1,
            parts: vec![8, 8],
        },
        vec![cat.clone()],
    );
    let sm = b.op(
        "softmax",
        OpKind::Softmax { axis: 1 },
        vec![parts[0].clone()],
    );
    let rm = b.op(
        "rmean",
        OpKind::ReduceMean {
            axes: vec![2, 3],
            keepdims: false,
        },
        vec![sm],
    );
    let gap = b.op("gap", OpKind::GlobalAveragePool, vec![parts[1].clone()]);
    let flat = b.op("flatten", OpKind::Flatten { axis: 1 }, vec![gap]);

    // movement ops
    let sl = b.op(
        "slice",
        OpKind::Slice {
            axes: vec![1],
            starts: vec![0],
            ends: vec![4],
            steps: vec![2],
        },
        vec![rm.clone()],
    );
    let usq = b.op("unsq", OpKind::Unsqueeze { axes: vec![0] }, vec![sl]);
    let sq = b.op("sq", OpKind::Squeeze { axes: vec![0] }, vec![usq]);
    let tr = b.op("tr", OpKind::Transpose { perm: vec![1, 0] }, vec![sq]);
    let spec = b.init("rs_spec", TensorData::vec_i64(vec![1, -1]));
    let rs = b.op("reshape", OpKind::Reshape, vec![tr, spec]);
    let ex_spec = b.init("ex_spec", TensorData::vec_i64(vec![3, 2]));
    let ex = b.op("expand", OpKind::Expand, vec![rs, ex_spec]);

    // shape-computation chain + cast
    let sh = b.op("shape", OpKind::Shape, vec![ex.clone()]);
    let shf = b.op("cast", OpKind::Cast { to: DType::F32 }, vec![sh]);

    // layernorm on a 2-D tensor (trailing dim 2)
    let lng = b.weight("ln_g", vec![2], ramiel_ir::builder::Init::Const(1.0));
    let lnb = b.weight("ln_b", vec![2], ramiel_ir::builder::Init::Const(0.0));
    let ln = b.op(
        "layernorm",
        OpKind::LayerNorm { epsilon: 1e-5 },
        vec![ex, lng, lnb],
    );

    // matmul / gemm path
    let w1 = b.weight("w1", vec![2, 3], ramiel_ir::builder::Init::Uniform(0.1));
    let mm = b.op("matmul", OpKind::MatMul, vec![ln, w1]);
    let gm = b.linear(&mm.clone(), 3, 3); // Gemm trans_b

    // gather with runtime indices, pad, resize, constant-of-shape
    let emb = b.weight("emb", vec![64, 3], ramiel_ir::builder::Init::Uniform(0.1));
    let ga = b.op("gather", OpKind::Gather { axis: 0 }, vec![emb, ids]);
    let cshape = b.init("cshape", TensorData::vec_i64(vec![1, 4, 3]));
    let cos = b.op("cos", OpKind::ConstantOfShape { value: 0.25 }, vec![cshape]);
    let gsum = b.op("gadd", OpKind::Add, vec![ga, cos]);
    let pad = b.op("pad", OpKind::Pad { pads: (1, 1, 0, 0) }, vec![cat.clone()]);
    let rz = b.op("resize", OpKind::Resize { scale: (2, 2) }, vec![pad]);
    let rz_gap = b.op("rz_gap", OpKind::GlobalAveragePool, vec![rz]);

    // a Constant node
    let cname = b.fresh("constnode");
    let cout = format!("{cname}:0");
    b.init(&cout, TensorData::scalar_f32(3.5));
    b.graph_mut()
        .push_node(cname, OpKind::Constant, vec![], vec![cout.clone()]);
    let final_mix = b.op("final_mul", OpKind::Mul, vec![gm.clone(), cout]);

    b.output(&final_mix);
    b.output(&gsum);
    b.output(&shf);
    b.output(&rz_gap);
    b.output(&flat);
    b.finish().expect("kitchen sink builds")
}

/// OpKinds exercised by the kitchen-sink graph, by ONNX-style name.
fn used_ops(g: &Graph) -> std::collections::HashSet<&'static str> {
    g.nodes.iter().map(|n| n.op.name()).collect()
}

#[test]
fn kitchen_sink_covers_every_operator() {
    let g = kitchen_sink();
    let used = used_ops(&g);
    // every OpKind variant name must appear
    let all = [
        "Conv",
        "MatMul",
        "Gemm",
        "Relu",
        "LeakyRelu",
        "Sigmoid",
        "Tanh",
        "Gelu",
        "Erf",
        "Sqrt",
        "Exp",
        "Neg",
        "Clip",
        "Dropout",
        "Identity",
        "Add",
        "Sub",
        "Mul",
        "Div",
        "Pow",
        "Equal",
        "Where",
        "Softmax",
        "BatchNormalization",
        "LayerNormalization",
        "ReduceMean",
        "MaxPool",
        "AveragePool",
        "GlobalAveragePool",
        "Concat",
        "Split",
        "Slice",
        "Gather",
        "Reshape",
        "Transpose",
        "Flatten",
        "Unsqueeze",
        "Squeeze",
        "Expand",
        "Resize",
        "Pad",
        "Cast",
        "Constant",
        "Shape",
        "ConstantOfShape",
    ];
    for op in all {
        assert!(used.contains(op), "kitchen sink is missing {op}");
    }
}

#[test]
fn kitchen_sink_runs_sequentially_and_in_parallel() {
    let g = kitchen_sink();
    let inputs = synth_inputs(&g, 3);
    let ctx = ExecCtx::sequential();
    let seq = run_sequential(&g, &inputs, &ctx).expect("sequential");
    let c = schedule(g, &PipelineOptions::default()).expect("pipeline");
    let par = run(
        &c.graph,
        &c.clustering,
        from_ref(&inputs),
        &ctx,
        &RunOptions::default(),
    )
    .single()
    .expect("parallel");
    assert_eq!(seq, par);
}

#[test]
fn kitchen_sink_survives_pruning_and_codegen() {
    let g = kitchen_sink();
    let inputs = synth_inputs(&g, 4);
    let ctx = ExecCtx::sequential();
    let baseline = run_sequential(&g, &inputs, &ctx).expect("sequential");
    let c = schedule(g, &PipelineOptions::all_optimizations()).expect("pipeline");
    let after = run_sequential(&c.graph, &inputs, &ctx).expect("pruned sequential");
    // pruning folds the Shape/Cast chain; compare surviving outputs by name
    for (name, v) in &after {
        if let Some(orig) = baseline.get(name) {
            assert_eq!(orig, v, "{name}");
        }
    }
    assert!(c.emit(&Obs::disabled()).parallel.contains("def cluster_0("));
}

#[test]
fn kitchen_sink_onnx_roundtrip() {
    let g = kitchen_sink();
    let g2 = ramiel_onnx::round_trip(&g).expect("export and import back");
    assert_eq!(g, g2);
}
