//! The work-stealing executor's whole pitch is task parallelism cheap
//! enough to pay on a single request, with no batching. So at batch 1, on
//! every built-in model, the standing pool (plan prebuilt, workers
//! persistent) must be no slower than the sequential executor. Release
//! builds only: a debug build times the bounds checks, not the scheduler.

#![cfg(not(debug_assertions))]

use ramiel::{schedule, PipelineOptions};
use ramiel_models::{build, ModelConfig, ModelKind};
use ramiel_runtime::{run_sequential, synth_inputs, RunOptions, StealPlan, StealPool};
use ramiel_tensor::ExecCtx;
use std::sync::Arc;
use std::time::Instant;

#[test]
fn stealing_is_no_slower_than_sequential_at_batch_1_on_every_model() {
    const ROUNDS: usize = 8;
    let ctx = ExecCtx::sequential();
    let opts = RunOptions::default();
    let pool = StealPool::global();
    for kind in ModelKind::all() {
        let c = schedule(
            build(kind, &ModelConfig::tiny()),
            &PipelineOptions::default(),
        )
        .unwrap();
        let inputs = [synth_inputs(&c.graph, 42)];
        let plan = Arc::new(StealPlan::new(&c.graph, &c.clustering, 1).unwrap());
        let time = |f: &dyn Fn()| {
            let start = Instant::now();
            f();
            start.elapsed()
        };
        let seq = || drop(run_sequential(&c.graph, &inputs[0], &ctx).unwrap());
        let steal = || drop(pool.run_plan(&plan, &inputs, &ctx, &opts).unwrap());
        // Interleaved rounds after one warm-up each, minimum of each side:
        // the least-noise sample, so scheduler jitter can discard rounds
        // but cannot decide the comparison.
        let ratio = || {
            seq();
            steal();
            let (mut s, mut w) = (time(&seq), time(&steal));
            for _ in 1..ROUNDS {
                s = s.min(time(&seq));
                w = w.min(time(&steal));
            }
            (s.as_secs_f64() / w.as_secs_f64(), s, w)
        };
        // A real regression fails every attempt; a loaded host gets three
        // independent windows.
        let mut got = ratio();
        for _ in 0..2 {
            if got.0 >= 1.0 {
                break;
            }
            got = ratio();
        }
        let (speedup, s, w) = got;
        assert!(
            speedup >= 1.0,
            "{}: batch-1 stealing took {w:?} vs {s:?} sequential ({speedup:.2}x); \
             the stealing executor must not lose to sequential at batch 1",
            kind.name()
        );
    }
}
