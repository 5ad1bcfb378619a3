//! Chaos suite: deterministic fault injection against the supervised
//! runtime.
//!
//! The liveness/correctness contract under test: for *any* seeded
//! [`FaultPlan`], a supervised run **terminates** (bounded recv timeouts,
//! no hangs) and either returns outputs identical to the fault-free
//! sequential baseline or a structured [`RuntimeError`] — never a bare
//! panic escaping to the caller. Golden scenarios then pin the exact error
//! code each fault kind surfaces as.

use proptest::prelude::*;
use ramiel_cluster::{cluster_graph, Clustering, StaticCost};
use ramiel_ir::Graph;
use ramiel_models::synthetic;
use ramiel_runtime::fault::quiet_injected_panics;
use ramiel_runtime::{
    run, run_sequential, run_sequential_opts, synth_inputs, Engine, Env, FaultInjector, FaultKind,
    FaultPlan, Run, RunOptions, RunReport, RuntimeError, SupervisorConfig,
};
use ramiel_tensor::ExecCtx;
use std::slice::from_ref;
use std::sync::Arc;
use std::time::Duration;

/// One supervised batch-1 run under `opts`: its outcome and its report.
fn supervised(
    g: &Graph,
    clustering: &Clustering,
    inputs: &Env,
    opts: RunOptions,
    cfg: SupervisorConfig,
) -> (Result<Env, RuntimeError>, RunReport) {
    let ctx = ExecCtx::sequential();
    let Run {
        outputs, report, ..
    } = run(g, clustering, from_ref(inputs), &ctx, &opts.supervisor(cfg));
    (outputs.map(|mut outs| outs.remove(0)), report)
}

fn one_fault(node: usize, exec_index: u32, kind: FaultKind) -> Arc<FaultInjector> {
    FaultInjector::new(FaultPlan {
        seed: 0,
        faults: vec![ramiel_runtime::Fault {
            node,
            batch: 0,
            exec_index,
            kind,
        }],
    })
}

/// A node whose output crosses a cluster boundary (so dropping its message
/// starves a peer), if the clustering has one.
fn cross_cluster_producer(g: &ramiel_ir::Graph, clustering: &Clustering) -> Option<usize> {
    let assign = clustering.assignment();
    let adj = g.adjacency();
    for node in &g.nodes {
        let me = assign[&node.id];
        for inp in &node.inputs {
            if let Some(&p) = adj.producer_of.get(inp) {
                if assign[&p] != me {
                    return Some(p);
                }
            }
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any seeded fault plan, on any small graph: the supervised run
    /// terminates with either the correct answer or a structured error.
    #[test]
    fn supervised_runs_terminate_correct_or_structured(
        gseed in any::<u64>(),
        fseed in any::<u64>(),
        layers in 2usize..6,
        width in 1usize..5,
        nfaults in 0usize..5,
    ) {
        quiet_injected_panics();
        let g = synthetic::layered_random(gseed, layers, width, 2);
        let clustering = cluster_graph(&g, &StaticCost);
        let ctx = ExecCtx::sequential();
        let inputs = synth_inputs(&g, gseed ^ 0x9e37);
        let baseline = run_sequential(&g, &inputs, &ctx).unwrap();

        let plan = FaultPlan::random(fseed, g.num_nodes(), 1, nfaults);
        let inj = FaultInjector::new(plan);
        let cfg = SupervisorConfig {
            max_retries: 2,
            fallback: true,
        };
        // Short enough that dropped messages resolve quickly, long enough
        // that injected delays (≤ ~30ms) never false-positive.
        let opts = RunOptions::with_injector(inj).recv_timeout(Duration::from_secs(2));
        let (res, report) = supervised(&g, &clustering, &inputs, opts, cfg);
        prop_assert!(report.attempts >= 1);
        match res {
            Ok(out) => prop_assert_eq!(out, baseline, "fault-free result must match baseline"),
            Err(e) => {
                // structured, attributable failure — never a bare panic
                let code = e.code();
                prop_assert!(
                    ["RT-KERNEL", "RT-CHANNEL", "RT-PANIC", "RT-TIMEOUT", "RT-INJECT", "RT-SETUP"]
                        .contains(&code),
                    "unknown error code {code}: {e}"
                );
            }
        }
    }

    /// The same liveness/correctness contract for the work-stealing
    /// executor: any seeded fault plan through the supervised stealing path
    /// terminates with the baseline answer or a structured error — no hung
    /// workers, no escaped panics, even though the schedule itself is
    /// decided at runtime.
    #[test]
    fn supervised_stealing_runs_terminate_correct_or_structured(
        gseed in any::<u64>(),
        fseed in any::<u64>(),
        layers in 2usize..6,
        width in 1usize..5,
        nfaults in 0usize..5,
    ) {
        quiet_injected_panics();
        let g = synthetic::layered_random(gseed, layers, width, 2);
        let clustering = cluster_graph(&g, &StaticCost);
        let ctx = ExecCtx::sequential();
        let inputs = synth_inputs(&g, gseed ^ 0x9e37);
        let baseline = run_sequential(&g, &inputs, &ctx).unwrap();

        let plan = FaultPlan::random(fseed, g.num_nodes(), 1, nfaults);
        let opts = RunOptions::with_injector(FaultInjector::new(plan))
            .engine(Engine::Stealing)
            .recv_timeout(Duration::from_secs(2));
        let cfg = SupervisorConfig {
            max_retries: 2,
            fallback: true,
        };
        let (res, report) = supervised(&g, &clustering, &inputs, opts, cfg);
        prop_assert!(report.attempts >= 1);
        match res {
            Ok(out) => prop_assert_eq!(out, baseline, "fault-free result must match baseline"),
            Err(e) => {
                let code = e.code();
                prop_assert!(
                    ["RT-KERNEL", "RT-CHANNEL", "RT-PANIC", "RT-TIMEOUT", "RT-INJECT", "RT-SETUP"]
                        .contains(&code),
                    "unknown error code {code}: {e}"
                );
            }
        }
    }

    /// The injector itself is deterministic: the same plan fires the same
    /// faults (same nodes, same kinds, same execution indices) on repeated
    /// runs. Exercised on the sequential executor, whose execution order is
    /// fixed — under the *parallel* executor a fatal fault aborts the run
    /// while peer workers race toward their own planned faults, so which
    /// subset fires there is legitimately scheduling-dependent (the
    /// liveness/correctness property above is the contract for that case).
    #[test]
    fn fault_plans_fire_deterministically(fseed in any::<u64>(), nfaults in 1usize..5) {
        quiet_injected_panics();
        let g = synthetic::layered_random(7, 4, 3, 2);
        let ctx = ExecCtx::sequential();
        let inputs = synth_inputs(&g, 1);
        let run = || {
            let inj = FaultInjector::new(FaultPlan::random(fseed, g.num_nodes(), 1, nfaults));
            let opts = RunOptions::with_injector(inj.clone());
            // An injected WorkerPanic unwinds out of the sequential executor
            // by design; the fired log is recorded before the panic.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_sequential_opts(&g, &inputs, &ctx, &opts)
            }));
            inj.fired()
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a, b, "same plan must fire identically");
    }
}

// ---- golden scenarios: exact code per fault kind --------------------------

#[test]
fn golden_injected_kernel_error_is_rt_inject_with_node() {
    let g = synthetic::fork_join(3, 2, 2);
    let clustering = cluster_graph(&g, &StaticCost);
    let inputs = synth_inputs(&g, 2);
    let opts = RunOptions::with_injector(one_fault(2, 0, FaultKind::KernelError))
        .recv_timeout(Duration::from_secs(5));
    let err = run(
        &g,
        &clustering,
        from_ref(&inputs),
        &ExecCtx::sequential(),
        &opts,
    )
    .single()
    .unwrap_err();
    assert_eq!(err.code(), "RT-INJECT");
    assert!(
        matches!(
            err,
            RuntimeError::Injected {
                node: 2,
                kind: FaultKind::KernelError,
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn golden_injected_panic_is_rt_inject_not_a_crash() {
    quiet_injected_panics();
    let g = synthetic::fork_join(3, 2, 2);
    let clustering = cluster_graph(&g, &StaticCost);
    let inputs = synth_inputs(&g, 3);
    let opts = RunOptions::with_injector(one_fault(1, 0, FaultKind::WorkerPanic))
        .recv_timeout(Duration::from_secs(5));
    let err = run(
        &g,
        &clustering,
        from_ref(&inputs),
        &ExecCtx::sequential(),
        &opts,
    )
    .single()
    .unwrap_err();
    assert_eq!(err.code(), "RT-INJECT");
    assert!(
        matches!(
            err,
            RuntimeError::Injected {
                node: 1,
                kind: FaultKind::WorkerPanic,
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn golden_dropped_cross_cluster_message_is_rt_timeout() {
    // Find a producer whose tensor crosses clusters; dropping its sends
    // starves the consumer, which must surface a bounded RT-TIMEOUT (not a
    // hang).
    let g = synthetic::fork_join(4, 3, 2);
    let clustering = cluster_graph(&g, &StaticCost);
    let producer = cross_cluster_producer(&g, &clustering)
        .expect("fork-join clustering has cross-cluster edges");
    let inputs = synth_inputs(&g, 4);
    let opts = RunOptions::with_injector(one_fault(producer, 0, FaultKind::DropMessage))
        .recv_timeout(Duration::from_millis(200));
    let start = std::time::Instant::now();
    let err = run(
        &g,
        &clustering,
        from_ref(&inputs),
        &ExecCtx::sequential(),
        &opts,
    )
    .single()
    .unwrap_err();
    assert_eq!(err.code(), "RT-TIMEOUT", "{err}");
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "timeout must be bounded, took {:?}",
        start.elapsed()
    );
}

#[test]
fn golden_supervised_retry_then_success() {
    // Fault keyed to the first execution only: the supervised retry must
    // converge to the correct answer on attempt 2 without falling back.
    let g = synthetic::fork_join(4, 3, 2);
    let clustering = cluster_graph(&g, &StaticCost);
    let ctx = ExecCtx::sequential();
    let inputs = synth_inputs(&g, 5);
    let expect = run_sequential(&g, &inputs, &ctx).unwrap();
    let cfg = SupervisorConfig {
        max_retries: 2,
        fallback: false,
    };
    let opts = RunOptions::with_injector(one_fault(0, 0, FaultKind::KernelError))
        .recv_timeout(Duration::from_secs(5));
    let (res, report) = supervised(&g, &clustering, &inputs, opts, cfg);
    assert_eq!(res.unwrap(), expect);
    assert_eq!(report.attempts, 2);
    assert!(!report.fell_back);
    assert_eq!(report.errors.len(), 1);
    assert_eq!(report.errors[0].code(), "RT-INJECT");
    assert_eq!(report.faults_fired.len(), 1);
}

// ---- golden scenarios: the work-stealing executor -------------------------

#[test]
fn golden_stealing_supervised_retry_then_success() {
    // Same convergence contract as the channel executor: a first-execution
    // fault is absorbed by one retry, no fallback needed.
    let g = synthetic::fork_join(4, 3, 2);
    let clustering = cluster_graph(&g, &StaticCost);
    let ctx = ExecCtx::sequential();
    let inputs = synth_inputs(&g, 5);
    let expect = run_sequential(&g, &inputs, &ctx).unwrap();
    let opts = RunOptions::with_injector(one_fault(0, 0, FaultKind::KernelError))
        .engine(Engine::Stealing)
        .recv_timeout(Duration::from_secs(5));
    let cfg = SupervisorConfig {
        max_retries: 2,
        fallback: false,
    };
    let (res, report) = supervised(&g, &clustering, &inputs, opts, cfg);
    assert_eq!(res.unwrap(), expect);
    assert_eq!(report.attempts, 2);
    assert!(!report.fell_back);
    assert_eq!(report.errors[0].code(), "RT-INJECT");
}

#[test]
fn golden_stealing_fallback_isolates_the_failure() {
    quiet_injected_panics();
    // Zero retries: the injected panic exhausts the retry budget on attempt
    // one and the supervisor degrades to the sequential fallback, which
    // still produces the right answer (the fault was keyed to execution 0
    // and has already fired).
    let g = synthetic::fork_join(4, 3, 2);
    let clustering = cluster_graph(&g, &StaticCost);
    let ctx = ExecCtx::sequential();
    let inputs = synth_inputs(&g, 6);
    let expect = run_sequential(&g, &inputs, &ctx).unwrap();
    let opts = RunOptions::with_injector(one_fault(1, 0, FaultKind::WorkerPanic))
        .engine(Engine::Stealing)
        .recv_timeout(Duration::from_secs(5));
    let cfg = SupervisorConfig {
        max_retries: 0,
        fallback: true,
    };
    let (res, report) = supervised(&g, &clustering, &inputs, opts, cfg);
    assert_eq!(res.unwrap(), expect);
    assert!(report.fell_back, "fallback should have engaged");
    assert_eq!(report.errors[0].code(), "RT-INJECT");
}

#[test]
fn golden_stealing_injected_stall_is_a_bounded_rt_timeout() {
    // A stall far past recv_timeout must surface as RT-TIMEOUT within a
    // small multiple of the timeout — the caller is freed even though it
    // participates in execution itself (no hung workers, no hung caller).
    let g = synthetic::fork_join(4, 3, 2);
    let clustering = cluster_graph(&g, &StaticCost);
    let inputs = synth_inputs(&g, 7);
    let opts = RunOptions::with_injector(one_fault(0, 0, FaultKind::RecvDelay { millis: 3000 }))
        .engine(Engine::Stealing)
        .recv_timeout(Duration::from_millis(150));
    let start = std::time::Instant::now();
    let err = run(
        &g,
        &clustering,
        from_ref(&inputs),
        &ExecCtx::sequential(),
        &opts,
    )
    .single()
    .unwrap_err();
    assert_eq!(err.code(), "RT-TIMEOUT", "{err}");
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "stealing timeout must be bounded, took {:?}",
        start.elapsed()
    );
}
