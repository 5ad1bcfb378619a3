//! Reference sequential executor.

use crate::fault::{node_error, Armed, FaultInjector, INJECT_MARKER};
use crate::profile::{OpRecord, ProfileDb, WorkerSpan};
use crate::reuse::{charge_bytes, Liveness};
use crate::run::RunOptions;
use crate::{Env, Result, RuntimeError};
use ramiel_ir::topo::topo_sort;
use ramiel_ir::{Graph, OpKind};
use ramiel_passes::{inplace_marks, InPlaceMarks};
use ramiel_tensor::{eval_op, eval_op_inplace, ExecCtx, ExecError, Value};
use std::collections::HashMap;
use std::time::Instant;

/// Execute the whole graph on the calling thread in topological order.
/// Returns the graph outputs. This is the baseline every parallel schedule
/// is validated against.
pub fn run_sequential(graph: &Graph, inputs: &Env, ctx: &ExecCtx) -> Result<Env> {
    run_sequential_opts(graph, inputs, ctx, &RunOptions::default())
}

/// [`run_sequential`] with [`RunOptions`] — the fault injector applies its
/// node-keyed faults here too (kernel errors via the kernel hook, delays as
/// sleeps, panics via [`crate::fault::InjectedPanic`]); channel faults
/// (`DropMessage`) have no transport to act on and are no-ops. This is what
/// lets the supervisor's sequential fallback stay subject to the same fault
/// plan.
pub fn run_sequential_opts(
    graph: &Graph,
    inputs: &Env,
    ctx: &ExecCtx,
    opts: &RunOptions,
) -> Result<Env> {
    run_sequential_inner(graph, inputs, ctx, opts, None)
}

/// [`run_sequential`] plus a single-worker [`ProfileDb`] — the same timeline
/// shape the parallel executors produce (one op record per node, a worker
/// span, zero slack and no channels), so executors can be compared like for
/// like.
pub fn run_sequential_profiled(
    graph: &Graph,
    inputs: &Env,
    ctx: &ExecCtx,
    opts: &RunOptions,
) -> Result<(Env, ProfileDb)> {
    let (mut outs, db) =
        run_sequential_batch(graph, std::slice::from_ref(inputs), ctx, opts, true)?;
    Ok((
        outs.pop().expect("one env in, one env out"),
        db.expect("profiled run builds a db"),
    ))
}

/// The sequential engine of [`crate::run`]: each batch element walked in
/// turn on the calling thread, onto one profile timeline when `profile`.
pub(crate) fn run_sequential_batch(
    graph: &Graph,
    inputs: &[Env],
    ctx: &ExecCtx,
    opts: &RunOptions,
    profile: bool,
) -> Result<(Vec<Env>, Option<ProfileDb>)> {
    let mut db = profile.then(|| {
        let mut db = ProfileDb::new(1, inputs.len());
        db.set_epoch_offset_ns(opts.obs.now_ns());
        db
    });
    let epoch = Instant::now();
    let outs = inputs
        .iter()
        .enumerate()
        .map(|(b, env)| {
            run_sequential_inner(graph, env, ctx, opts, db.as_mut().map(|db| (db, b, epoch)))
        })
        .collect::<Result<_>>()?;
    Ok((outs, db))
}

/// `profile` carries the db to record into, the batch element this walk is
/// and the epoch its timestamps count from.
fn run_sequential_inner(
    graph: &Graph,
    inputs: &Env,
    ctx: &ExecCtx,
    opts: &RunOptions,
    mut profile: Option<(&mut ProfileDb, usize, Instant)>,
) -> Result<Env> {
    let walk_start = Instant::now();
    let order = topo_sort(graph).map_err(|e| RuntimeError::Setup(e.to_string()))?;
    let mut env: HashMap<&str, Value> = HashMap::with_capacity(graph.num_nodes() * 2);
    for (name, v) in inputs {
        env.insert(name.as_str(), v.clone());
    }

    // Weights are converted to `Value`s at most once per run (or zero times
    // when the caller shares a table via `RunOptions::init_values`); each
    // fetch afterwards is a binary search by name and a refcount bump.
    let init_values = opts.weights(graph)?;

    let fetch = |env: &HashMap<&str, Value>, name: &str| -> Result<Value> {
        if let Some(v) = env.get(name) {
            return Ok(v.clone());
        }
        if let Some(v) = init_values.get(name) {
            return Ok(v.clone());
        }
        Err(RuntimeError::Setup(format!("tensor `{name}` unavailable")))
    };

    // Liveness bookkeeping: remaining reads per tensor (graph outputs carry
    // an extra pin so they survive to the final fetch). Dead tensors are
    // evicted from `env` after their last consumer, and a consumer marked by
    // the in-place pass takes its dying operand *out* of the env so the
    // kernel can overwrite a uniquely-owned buffer.
    let marks = if opts.reuse {
        inplace_marks(graph)
    } else {
        InPlaceMarks::empty()
    };
    let mut live = {
        let mut uses: HashMap<&str, usize> = HashMap::new();
        for node in &graph.nodes {
            for t in &node.inputs {
                *uses.entry(t.as_str()).or_insert(0) += 1;
            }
        }
        for name in &graph.outputs {
            *uses.entry(name.as_str()).or_insert(0) += 1;
        }
        Liveness::new(uses, ctx.mem_gauge().cloned())
    };

    for &id in &order {
        let node = &graph.nodes[id];
        // Channel faults (`DropMessage`) have no transport to act on here.
        let armed = match &opts.injector {
            Some(inj) => Armed::new(&inj.begin_node(id, 0), &opts.obs, None, id, 0),
            None => Armed::default(),
        };
        let delay = armed.recv_delay + armed.send_delay;
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        let op_start = profile.is_some().then(Instant::now);
        let outputs = if matches!(node.op, OpKind::Constant) {
            if armed.kernel_fault {
                let e = ExecError(INJECT_MARKER.into());
                return Err(node_error(None, id, &node.name, e));
            }
            let v = init_values.get(&node.outputs[0]).ok_or_else(|| {
                RuntimeError::Setup(format!("Constant `{}` missing payload", node.name))
            })?;
            vec![v.clone()]
        } else {
            // The marked operand is pulled out of the env at its last read
            // (remaining == 1 means this node is the sole surviving
            // consumer), dropping the env's handle so the kernel's
            // `Arc::get_mut` gate can succeed.
            let mark = marks.slot(id);
            let mut owned_slot = None;
            let ins: Result<Vec<Value>> = node
                .inputs
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    if mark == Some(i) && live.remaining(&t.as_str()) == 1 {
                        if let Some(v) = env.remove(t.as_str()) {
                            owned_slot = Some(i);
                            return Ok(v);
                        }
                    }
                    fetch(&env, t)
                })
                .collect();
            let hooked = armed
                .kernel_fault
                .then(|| FaultInjector::kernel_fault_ctx(ctx, None, id));
            let eval_ctx = hooked.as_ref().unwrap_or(ctx);
            match owned_slot {
                Some(s) => eval_op_inplace(eval_ctx, &node.op, ins?, s),
                None => eval_op(eval_ctx, &node.op, &ins?),
            }
            .map_err(|e| node_error(None, id, &node.name, e))?
        };
        if let Some((db, batch, epoch)) = profile.as_mut() {
            let start = op_start.expect("op_start is set whenever profiling");
            db.extend(vec![OpRecord {
                worker: 0,
                batch: *batch,
                node: id,
                start_ns: (start - *epoch).as_nanos() as u64,
                end_ns: epoch.elapsed().as_nanos() as u64,
                slack_after_ns: 0,
            }]);
        }
        for (name, v) in node.outputs.iter().zip(outputs) {
            live.charge(name.as_str(), charge_bytes(&node.op, &v));
            env.insert(name.as_str(), v);
        }
        if opts.reuse {
            // Inputs whose last read this was — and outputs nothing ever
            // reads — die here.
            for t in &node.inputs {
                if live.consume(&t.as_str()) {
                    env.remove(t.as_str());
                    live.discharge(&t.as_str());
                }
            }
            for name in &node.outputs {
                if live.remaining(&name.as_str()) == 0 {
                    env.remove(name.as_str());
                    live.discharge(&name.as_str());
                }
            }
        }
    }
    if let Some((db, _, epoch)) = profile {
        db.push_worker_span(WorkerSpan {
            worker: 0,
            start_ns: (walk_start - epoch).as_nanos() as u64,
            end_ns: epoch.elapsed().as_nanos() as u64,
        });
    }

    let mut out = Env::new();
    for name in &graph.outputs {
        out.insert(name.clone(), fetch(&env, name)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, FaultKind, FaultPlan};
    use crate::synth_inputs;
    use ramiel_ir::{DType, GraphBuilder};
    use ramiel_models::{build, ModelConfig, ModelKind};

    #[test]
    fn tiny_conv_net_runs() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", DType::F32, vec![1, 3, 8, 8]);
        let y = b.conv_relu(&x, 3, 4, 3, 1, 1);
        let z = b.op("gap", OpKind::GlobalAveragePool, vec![y]);
        b.output(&z);
        let g = b.finish().unwrap();
        let out = run_sequential(&g, &synth_inputs(&g, 1), &ExecCtx::sequential()).unwrap();
        let v = out[&z].f32().unwrap().clone();
        assert_eq!(v.shape(), &[1, 4, 1, 1]);
        // relu output means all GAP values are >= 0
        assert!(v.data().iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn outputs_match_inferred_shapes_for_every_model() {
        let cfg = ModelConfig::tiny();
        for kind in ModelKind::all() {
            let g = build(kind, &cfg);
            let out = run_sequential(&g, &synth_inputs(&g, 7), &ExecCtx::sequential())
                .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
            for name in &g.outputs {
                let expect = &g.value_info[name];
                assert_eq!(
                    out[name].shape(),
                    &expect.shape[..],
                    "{}: output {name} shape mismatch",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let g = build(ModelKind::Squeezenet, &ModelConfig::tiny());
        let inputs = synth_inputs(&g, 3);
        let a = run_sequential(&g, &inputs, &ExecCtx::sequential()).unwrap();
        let b = run_sequential(&g, &inputs, &ExecCtx::sequential()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn missing_input_is_an_error() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", DType::F32, vec![2]);
        let y = b.op("r", OpKind::Relu, vec![x]);
        b.output(&y);
        let g = b.finish().unwrap();
        let err = run_sequential(&g, &Env::new(), &ExecCtx::sequential()).unwrap_err();
        assert_eq!(err.code(), "RT-SETUP");
    }

    #[test]
    fn sequential_injection_fires_kernel_fault() {
        let g = ramiel_models::synthetic::chain(4);
        let inputs = synth_inputs(&g, 1);
        let inj = FaultInjector::new(FaultPlan {
            seed: 0,
            faults: vec![Fault {
                node: 2,
                batch: 0,
                exec_index: 0,
                kind: FaultKind::KernelError,
            }],
        });
        let opts = RunOptions::with_injector(inj);
        let err = run_sequential_opts(&g, &inputs, &ExecCtx::sequential(), &opts).unwrap_err();
        assert_eq!(err.code(), "RT-INJECT");
        assert!(
            matches!(err, RuntimeError::Injected { node: 2, .. }),
            "{err}"
        );
    }
}
