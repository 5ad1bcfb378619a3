//! Chaos suite for the serving layer: deterministic fault injection under
//! concurrent load.
//!
//! Contract: with any seeded [`FaultPlan`] wired into the server, (1) the
//! server stays live — every submitted request gets an answer within a
//! bounded time, (2) each answer is either bit-identical to the fault-free
//! sequential baseline or a structured error (SV-*/RT-* code), never a
//! bare panic or a hang, and (3) once the plan's faults are spent the
//! server keeps serving correct results.

use ramiel_models::{build, ModelConfig, ModelKind};
use ramiel_runtime::fault::quiet_injected_panics;
use ramiel_runtime::{run_sequential, synth_inputs, FaultInjector, FaultPlan, SupervisorConfig};
use ramiel_serve::{PlanSpec, ServeConfig, ServeError, Server};
use ramiel_tensor::ExecCtx;
use std::sync::Arc;
use std::time::Duration;

fn chaos_server(g: &ramiel_ir::Graph, fseed: u64, nfaults: usize) -> Server {
    let plan = FaultPlan::random(fseed, g.num_nodes(), 1, nfaults);
    Server::new(ServeConfig {
        max_batch: 4,
        injector: Some(FaultInjector::new(plan)),
        supervisor: SupervisorConfig {
            max_retries: 2,
            fallback: true,
        },
        // Bounded: a dropped cross-cluster message must surface RT-TIMEOUT
        // quickly instead of stalling the lane.
        recv_timeout: Some(Duration::from_millis(500)),
        ..ServeConfig::default()
    })
}

#[test]
fn server_survives_fault_plans_under_concurrent_load() {
    quiet_injected_panics();
    let g = build(ModelKind::Squeezenet, &ModelConfig::tiny());
    let baseline_ctx = ExecCtx::sequential();

    // Several plans, including fault-heavy ones; each gets a fresh server.
    for fseed in [3u64, 17, 99] {
        let server = Arc::new(chaos_server(&g, fseed, 4));
        server.load("sq", PlanSpec::new(g.clone())).unwrap();

        let mut handles = Vec::new();
        for t in 0..6u64 {
            let server = Arc::clone(&server);
            let g = g.clone();
            handles.push(std::thread::spawn(move || {
                let ctx = ExecCtx::sequential();
                for i in 0..3u64 {
                    let seed = t * 100 + i;
                    let inputs = synth_inputs(&g, seed);
                    let ticket = match server.submit("sq", inputs.clone()) {
                        Ok(t) => t,
                        Err(e) => {
                            // Admission-level shedding is a legal outcome.
                            assert!(e.code().starts_with("SV-"), "{e}");
                            continue;
                        }
                    };
                    // Liveness: bounded wait, never a hang.
                    match ticket.wait_timeout(Duration::from_secs(60)) {
                        Ok(out) => {
                            let seq = run_sequential(&g, &inputs, &ctx).unwrap();
                            assert_eq!(seq, out, "plan {fseed} thread {t} req {i} diverged");
                        }
                        Err(ServeError::Runtime(e)) => {
                            let code = e.code();
                            assert!(
                                [
                                    "RT-KERNEL",
                                    "RT-CHANNEL",
                                    "RT-PANIC",
                                    "RT-TIMEOUT",
                                    "RT-INJECT",
                                    "RT-SETUP"
                                ]
                                .contains(&code),
                                "unstructured failure {code}: {e}"
                            );
                        }
                        Err(e) => panic!("plan {fseed}: unexpected serve error {e}"),
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }

        // The plan's faults are keyed to first executions; after the storm
        // the same server must still produce correct answers.
        let inputs = synth_inputs(&g, 4242);
        let out = server.infer("sq", inputs.clone()).unwrap();
        let seq = run_sequential(&g, &inputs, &baseline_ctx).unwrap();
        assert_eq!(seq, out, "plan {fseed}: server did not recover");

        // Shutdown after chaos must still drain cleanly (no deadlock).
        server.shutdown();
        let s = server.stats();
        assert!(s.completed >= 1, "plan {fseed}: nothing completed");
    }
}

#[test]
fn fallback_isolates_poisoned_batches() {
    quiet_injected_panics();
    // A worker panic on the first execution forces the batch down the
    // retry → sequential-fallback path; the response must still be correct.
    let g = build(ModelKind::Squeezenet, &ModelConfig::tiny());
    let server = chaos_server(&g, 7, 3);
    server.load("sq", PlanSpec::new(g.clone())).unwrap();
    let ctx = ExecCtx::sequential();
    let mut structured_failures = 0;
    for seed in 0..8u64 {
        let inputs = synth_inputs(&g, seed);
        match server.infer("sq", inputs.clone()) {
            Ok(out) => {
                let seq = run_sequential(&g, &inputs, &ctx).unwrap();
                assert_eq!(seq, out, "seed {seed}");
            }
            Err(ServeError::Runtime(_)) => structured_failures += 1,
            Err(e) => panic!("unexpected serve error: {e}"),
        }
    }
    let s = server.stats();
    assert_eq!(s.completed + structured_failures, 8);
    // The storm must have exercised the supervisor path at least once
    // (retry or fallback) — otherwise the plan fired nothing and the test
    // proves nothing.
    assert!(
        s.retries + s.fallbacks > 0 || structured_failures > 0,
        "fault plan never fired"
    );
}
