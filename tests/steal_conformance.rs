//! Scheduling-conformance harness for the work-stealing executor.
//!
//! Work stealing is the first executor whose schedule is *not statically
//! replayable*: which worker runs which node, and in what order, is decided
//! at runtime by readiness, steal order, and OS scheduling. That means the
//! usual "replay the schedule and compare" verification story does not
//! apply — the conformance argument is instead *adversarial sampling*: a
//! seeded [`StealChaos`] adversary perturbs the schedule (per-task stalls,
//! ready-successor rotation, forced diversions to the global injector) and
//! every sampled interleaving must
//!
//! 1. produce outputs **bit-identical** to the reference sequential
//!    executor (same kernels, same `Arc`-shared buffers → zero legitimate
//!    ulp drift), and
//! 2. **terminate** (the run returning at all is the liveness assertion:
//!    every deque drained, no lost wakeup, caller not parked forever —
//!    runaway cases are cut off by the executor's own recv-timeout
//!    deadline, which would surface as an `Err`, failing the test).
//!
//! The vendored proptest RNG is seeded from the test name, so a CI run
//! samples a fixed, reproducible set of interleaving seeds. The sample
//! *budget* is environment-tunable: `RAMIEL_CONFORMANCE_CASES` (default
//! 250 cases; each case drives every model in the matrix, so the default
//! is ≥1000 seeded interleavings across 4 models) — CI pins a bounded
//! budget, local soak runs can raise it arbitrarily.

use proptest::prelude::*;
use ramiel_cluster::{cluster_graph, switched_hypercluster, Clustering, StaticCost};
use ramiel_models::{build, ModelConfig, ModelKind};
use ramiel_runtime::{
    initializer_values, run_sequential, synth_inputs, Env, GraphProgram, RunOptions, StealChaos,
    StealPlan, StealPool,
};
use ramiel_tensor::{ExecCtx, Value};
use std::sync::{Arc, OnceLock};

/// Adversary sample budget. Each case exercises every model in
/// [`matrix`], so total interleavings = cases × models.
fn cases() -> u32 {
    std::env::var("RAMIEL_CONFORMANCE_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(250)
}

/// The model matrix: four structurally distinct graphs (fire modules,
/// inception branches, transformer blocks, detection head skip paths).
const MATRIX: [ModelKind; 4] = [
    ModelKind::Squeezenet,
    ModelKind::Googlenet,
    ModelKind::Bert,
    ModelKind::YoloV5,
];

struct Fixture {
    name: &'static str,
    graph: ramiel_ir::Graph,
    clustering: Clustering,
    /// Reusable batch-1 plan (also pins plan reuse across thousands of
    /// runs: a stale slot or counter would corrupt run N+1).
    plan: Arc<StealPlan>,
    /// Batch-3 plan from the switched hyperclustering.
    plan3: Arc<StealPlan>,
    inputs: Env,
    batch3: Vec<Env>,
    baseline: Env,
    baseline3: Vec<Env>,
}

/// Compile + baseline each model once; every proptest case reuses them.
fn matrix() -> &'static Vec<Fixture> {
    static FIXTURES: OnceLock<Vec<Fixture>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let cfg = ModelConfig::tiny();
        let ctx = ExecCtx::sequential();
        MATRIX
            .iter()
            .map(|&kind| {
                let graph = build(kind, &cfg);
                let clustering = cluster_graph(&graph, &StaticCost);
                let plan = Arc::new(StealPlan::new(&graph, &clustering, 1).unwrap());
                let hc = switched_hypercluster(&clustering, 3);
                let prog = Arc::new(GraphProgram::new(&graph).unwrap());
                let weights = initializer_values(&graph).unwrap();
                let plan3 = Arc::new(StealPlan::with_program(&prog, weights, &hc).unwrap());
                let inputs = synth_inputs(&graph, 42);
                let batch3: Vec<Env> = (0..3)
                    .map(|b| synth_inputs(&graph, 42 + b as u64))
                    .collect();
                let baseline = run_sequential(&graph, &inputs, &ctx).unwrap();
                let baseline3 = batch3
                    .iter()
                    .map(|inp| run_sequential(&graph, inp, &ctx).unwrap())
                    .collect();
                Fixture {
                    name: kind.name(),
                    graph,
                    clustering,
                    plan,
                    plan3,
                    inputs,
                    batch3,
                    baseline,
                    baseline3,
                }
            })
            .collect()
    })
}

/// First `(tensor, index)` where two envs differ in f32 bit patterns (or
/// any non-f32 value differs at all).
fn first_bit_divergence(expect: &Env, got: &Env) -> Option<(String, String)> {
    for (name, va) in expect {
        let Some(vb) = got.get(name) else {
            return Some((name.clone(), "missing from output".into()));
        };
        match (va, vb) {
            (Value::F32(x), Value::F32(y)) => {
                if x.shape() != y.shape() {
                    return Some((
                        name.clone(),
                        format!("shape {:?} vs {:?}", x.shape(), y.shape()),
                    ));
                }
                for (i, (p, q)) in x.data().iter().zip(y.data()).enumerate() {
                    if p.to_bits() != q.to_bits() {
                        return Some((
                            name.clone(),
                            format!("bits differ at flat index {i}: {p} vs {q}"),
                        ));
                    }
                }
            }
            (va, vb) => {
                if va != vb {
                    return Some((name.clone(), "non-f32 outputs differ".into()));
                }
            }
        }
    }
    if got.len() != expect.len() {
        return Some(("<extra>".into(), "extra outputs".into()));
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// The tentpole property: for ANY chaos seed and stall budget, every
    /// model's work-stealing run terminates and is bit-identical to
    /// sequential — at batch 1 on the reusable plan and at batch 3 on the
    /// hyperclustered plan.
    #[test]
    fn chaotic_interleavings_are_bit_identical_and_live(
        seed in any::<u64>(),
        stall_us in 0u64..200,
    ) {
        let ctx = ExecCtx::sequential();
        let opts = RunOptions::default().steal_chaos(StealChaos {
            seed,
            max_stall_us: stall_us,
        });
        let pool = StealPool::global();
        for fx in matrix() {
            let outs = pool
                .run_plan(&fx.plan, std::slice::from_ref(&fx.inputs), &ctx, &opts)
                .unwrap_or_else(|e| panic!("{}: seed {seed}: stealing failed: {e}", fx.name));
            if let Some((tensor, why)) = first_bit_divergence(&fx.baseline, &outs[0]) {
                panic!(
                    "{}: seed {seed} stall {stall_us}us: batch-1 output `{tensor}` \
                     diverged: {why}",
                    fx.name
                );
            }
        }
        // One model per case at batch 3 keeps the batched path under the
        // same adversary without tripling the budget.
        let fx = &matrix()[(seed % MATRIX.len() as u64) as usize];
        let outs = pool
            .run_plan(&fx.plan3, &fx.batch3, &ctx, &opts)
            .unwrap_or_else(|e| panic!("{}: seed {seed}: batch-3 stealing failed: {e}", fx.name));
        for (b, out) in outs.iter().enumerate() {
            if let Some((tensor, why)) = first_bit_divergence(&fx.baseline3[b], out) {
                panic!(
                    "{}: seed {seed} stall {stall_us}us: batch-3 element {b} output \
                     `{tensor}` diverged: {why}",
                    fx.name
                );
            }
        }
    }

    /// Steal-order permutations alone (zero stall budget — pure divert/
    /// rotate adversary) on freshly planned graphs: planning is itself
    /// deterministic and the executor conforms without any timing skew.
    #[test]
    fn pure_permutation_adversary_conforms(seed in any::<u64>()) {
        let ctx = ExecCtx::sequential();
        let opts = RunOptions::default().steal_chaos(StealChaos { seed, max_stall_us: 0 });
        let pool = StealPool::global();
        let fx = &matrix()[(seed % MATRIX.len() as u64) as usize];
        let plan = Arc::new(StealPlan::new(&fx.graph, &fx.clustering, 1).unwrap());
        let outs = pool
            .run_plan(&plan, std::slice::from_ref(&fx.inputs), &ctx, &opts)
            .unwrap_or_else(|e| panic!("{}: seed {seed}: stealing failed: {e}", fx.name));
        if let Some((tensor, why)) = first_bit_divergence(&fx.baseline, &outs[0]) {
            panic!("{}: seed {seed}: output `{tensor}` diverged: {why}", fx.name);
        }
    }
}

/// The budget arithmetic the acceptance criterion counts on: the default
/// case budget times the model matrix is at least 1000 interleavings.
#[test]
fn default_budget_covers_a_thousand_interleavings() {
    assert!(MATRIX.len() >= 4);
    assert!(
        cases() as usize * MATRIX.len() >= 1000,
        "conformance budget shrank below the acceptance floor: {} cases x {} models",
        cases(),
        MATRIX.len()
    );
}
