//! Supervised execution: the one retry-and-fallback loop.
//!
//! Every engine already converts worker panics, timeouts and injected faults
//! into structured [`RuntimeError`]s; [`supervise`] decides what to do with
//! them, for [`crate::run`] and for `ramiel-serve`'s lanes alike. The caller
//! hands it two closures — one attempt at the whole batch, and one sample
//! run alone on the sequential executor — and gets one result per sample
//! back. Policy:
//!
//! 1. **Retry** transient-shaped failures (`RT-TIMEOUT`, `RT-PANIC`,
//!    `RT-CHANNEL`, `RT-INJECT`) up to [`SupervisorConfig::max_retries`]
//!    times, pausing between attempts (10 ms, doubling, capped at 1 s).
//!    Every cluster is idempotent — kernels are pure functions of their
//!    inputs and workers own disjoint node sets — so re-running a failed
//!    batch from scratch is safe. Injected faults are keyed to an execution
//!    index, so a retry advances past them by construction (which attempt a
//!    fault hits is a pure function of the [`crate::FaultPlan`]).
//! 2. **Never retry** deterministic failures (`RT-KERNEL`, `RT-SETUP`): a
//!    genuine kernel/data error or a broken schedule fails identically on
//!    every attempt.
//! 3. **Fall back** (with [`SupervisorConfig::fallback`]) to running each
//!    sample alone on the reference sequential executor: after a retryable
//!    failure outlived its retries, and after a deterministic failure of a
//!    batch of more than one sample, whose cause may be one sample's data —
//!    a poisoned sample then fails alone and its batch-mates still get
//!    answers.
//! 4. Otherwise every sample gets the batch's error as the engine reported
//!    it — at batch 1 a deterministic failure keeps its cluster, which the
//!    sequential executor could not name.

use crate::fault::{panic_to_error, Fault};
use crate::{Env, Result, RuntimeError};
use ramiel_obs::Obs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// First backoff pause; [`backoff`] doubles it per retry.
const BACKOFF_BASE: Duration = Duration::from_millis(10);
/// Backoff ceiling.
const BACKOFF_MAX: Duration = Duration::from_secs(1);

/// Supervision policy knobs.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Retry attempts after the first failure (0 = single attempt).
    pub max_retries: u32,
    /// Re-run each sample alone on the reference sequential executor when
    /// the batch could not be completed (see the module docs for when).
    pub fallback: bool,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_retries: 2,
            fallback: true,
        }
    }
}

/// Pause before retry number `retry` (0-based): [`BACKOFF_BASE`] doubled
/// per retry, capped at [`BACKOFF_MAX`].
fn backoff(retry: u32) -> Duration {
    let mult = 1u32.checked_shl(retry).unwrap_or(u32::MAX);
    BACKOFF_BASE
        .checked_mul(mult)
        .map_or(BACKOFF_MAX, |d| d.min(BACKOFF_MAX))
}

/// What happened during one supervised execution.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Attempts made at the whole batch (including the first).
    pub attempts: u32,
    /// Whether the samples were re-run alone on the sequential executor.
    pub fell_back: bool,
    /// Errors that triggered a retry or the fallback (or ended the run), in
    /// order; a failed fallback adds one per failed sample.
    pub errors: Vec<RuntimeError>,
    /// Faults the injector actually fired, across all attempts ([`crate::run`]
    /// fills it in).
    pub faults_fired: Vec<Fault>,
}

/// Run `batch` under `cfg`'s policy (see the module docs) and return one
/// result per sample of the `samples` it covers — one shared error when
/// there are none, so a failure is never lost — plus what happened. `solo`
/// runs sample `i` alone on the sequential executor. Panics escaping either
/// closure become structured errors.
pub fn supervise(
    samples: usize,
    cfg: &SupervisorConfig,
    obs: &Obs,
    mut batch: impl FnMut() -> Result<Vec<Env>>,
    solo: impl Fn(usize) -> Result<Env>,
) -> (Vec<Result<Env>>, RunReport) {
    fn guarded<T>(f: impl FnOnce() -> Result<T>) -> Result<T> {
        catch_unwind(AssertUnwindSafe(f))
            .unwrap_or_else(|payload| Err(panic_to_error(None, payload)))
    }
    let mut report = RunReport::default();
    let err = loop {
        report.attempts += 1;
        let e = match guarded(&mut batch) {
            Ok(outs) => return (outs.into_iter().map(Ok).collect(), report),
            Err(e) => e,
        };
        report.errors.push(e.clone());
        let retry = report.attempts - 1;
        if !e.is_retryable() || retry >= cfg.max_retries {
            break e;
        }
        obs.instant(
            0,
            format!("supervisor:retry (attempt {})", retry + 2),
            "supervisor",
            serde_json::json!({
                "error": e.code(),
                "backoff_ms": backoff(retry).as_millis() as u64,
            }),
        );
        std::thread::sleep(backoff(retry));
    };
    if !cfg.fallback || !(err.is_retryable() || samples > 1) {
        return (vec![Err(err); samples.max(1)], report);
    }
    report.fell_back = true;
    obs.instant(
        0,
        "supervisor:fallback to sequential".to_string(),
        "supervisor",
        serde_json::json!({ "error": err.code(), "attempts": report.attempts }),
    );
    let results: Vec<Result<Env>> = (0..samples).map(|i| guarded(|| solo(i))).collect();
    report
        .errors
        .extend(results.iter().filter_map(|r| r.as_ref().err().cloned()));
    (results, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{quiet_injected_panics, FaultInjector, FaultKind, FaultPlan};
    use crate::{run, run_sequential, synth_inputs, Run, RunOptions};
    use ramiel_cluster::{cluster_graph, StaticCost};
    use ramiel_models::synthetic;
    use ramiel_tensor::ExecCtx;
    use std::slice::from_ref;
    use std::sync::Arc;

    fn one_fault(node: usize, exec_index: u32, kind: FaultKind) -> Arc<FaultInjector> {
        FaultInjector::new(FaultPlan {
            seed: 0,
            faults: vec![Fault {
                node,
                batch: 0,
                exec_index,
                kind,
            }],
        })
    }

    #[test]
    fn retry_recovers_from_injected_kernel_fault() {
        let g = synthetic::fork_join(4, 3, 3);
        let clustering = cluster_graph(&g, &StaticCost);
        let inputs = synth_inputs(&g, 11);
        let ctx = ExecCtx::sequential();
        let expect = run_sequential(&g, &inputs, &ctx).unwrap();
        let inj = one_fault(2, 0, FaultKind::KernelError);
        let cfg = SupervisorConfig {
            max_retries: 1,
            fallback: false,
        };
        let opts = RunOptions::with_injector(inj)
            .recv_timeout(Duration::from_secs(5))
            .supervisor(cfg);
        let Run {
            outputs: res,
            report,
            ..
        } = run(&g, &clustering, from_ref(&inputs), &ctx, &opts);
        assert_eq!(res.unwrap(), [expect]);
        assert_eq!(report.attempts, 2);
        assert!(!report.fell_back);
        assert_eq!(report.errors.len(), 1);
        assert_eq!(report.faults_fired.len(), 1);
    }

    #[test]
    fn fallback_recovers_when_retries_exhausted() {
        quiet_injected_panics();
        let g = synthetic::fork_join(4, 3, 3);
        let clustering = cluster_graph(&g, &StaticCost);
        let inputs = synth_inputs(&g, 4);
        let ctx = ExecCtx::sequential();
        let expect = run_sequential(&g, &inputs, &ctx).unwrap();
        // panic on both the first AND the retry attempt
        let inj = FaultInjector::new(FaultPlan {
            seed: 0,
            faults: vec![
                Fault {
                    node: 1,
                    batch: 0,
                    exec_index: 0,
                    kind: FaultKind::WorkerPanic,
                },
                Fault {
                    node: 1,
                    batch: 0,
                    exec_index: 1,
                    kind: FaultKind::WorkerPanic,
                },
            ],
        });
        let cfg = SupervisorConfig {
            max_retries: 1,
            fallback: true,
        };
        let opts = RunOptions::with_injector(inj)
            .recv_timeout(Duration::from_secs(5))
            .supervisor(cfg);
        let Run {
            outputs: res,
            report,
            ..
        } = run(&g, &clustering, from_ref(&inputs), &ctx, &opts);
        assert_eq!(res.unwrap(), [expect]);
        assert_eq!(report.attempts, 2);
        assert!(report.fell_back);
        assert_eq!(report.faults_fired.len(), 2);
    }

    /// A graph whose Gather goes out of range at runtime: a deterministic
    /// data error (`RT-KERNEL`) on every engine.
    fn out_of_range_gather() -> ramiel_ir::Graph {
        use ramiel_ir::{DType, GraphBuilder, OpKind};
        let mut b = GraphBuilder::new("bad");
        let x = b.input("x", DType::F32, vec![2, 2]);
        let idx = b.init("idx", ramiel_ir::TensorData::vec_i64(vec![5]));
        let y = b.op("g", OpKind::Gather { axis: 0 }, vec![x, idx]);
        b.output(&y);
        b.finish().unwrap()
    }

    #[test]
    fn non_retryable_kernel_error_fails_without_retry() {
        // Batch 1: one attempt, no fallback masking.
        let g = out_of_range_gather();
        let clustering = cluster_graph(&g, &StaticCost);
        let inputs = synth_inputs(&g, 1);
        let cfg = SupervisorConfig {
            max_retries: 3,
            fallback: true,
        };
        let Run {
            outputs: res,
            report,
            ..
        } = run(
            &g,
            &clustering,
            from_ref(&inputs),
            &ExecCtx::sequential(),
            &RunOptions::default().supervisor(cfg),
        );
        let err = res.unwrap_err();
        assert_eq!(err.code(), "RT-KERNEL");
        assert_eq!(report.attempts, 1, "deterministic errors must not retry");
        assert!(!report.fell_back);
    }

    #[test]
    fn opts_variant_reuses_caller_init_table_through_fallback() {
        quiet_injected_panics();
        let g = synthetic::fork_join(4, 3, 3);
        let clustering = cluster_graph(&g, &StaticCost);
        let inputs = synth_inputs(&g, 4);
        let ctx = ExecCtx::sequential();
        let expect = run_sequential(&g, &inputs, &ctx).unwrap();
        let iv = crate::initializer_values(&g).unwrap();
        // Panic on every parallel attempt so the sequential fallback runs —
        // both paths must share the caller's table, not rebuild it.
        let inj = FaultInjector::new(FaultPlan {
            seed: 0,
            faults: vec![
                Fault {
                    node: 1,
                    batch: 0,
                    exec_index: 0,
                    kind: FaultKind::WorkerPanic,
                },
                Fault {
                    node: 1,
                    batch: 0,
                    exec_index: 1,
                    kind: FaultKind::WorkerPanic,
                },
            ],
        });
        let opts = RunOptions::with_injector(inj)
            .recv_timeout(Duration::from_secs(5))
            .init_values(Arc::clone(&iv));
        let cfg = SupervisorConfig {
            max_retries: 1,
            fallback: true,
        };
        let Run {
            outputs: res,
            report,
            ..
        } = run(
            &g,
            &clustering,
            from_ref(&inputs),
            &ctx,
            &opts.supervisor(cfg),
        );
        assert_eq!(res.unwrap(), [expect]);
        assert!(report.fell_back);
        // The shared table is still ours alone once the run finished: no
        // attempt squirreled away a rebuilt copy.
        assert_eq!(iv.len(), g.initializers.len());
    }

    #[test]
    fn non_retryable_batch_error_falls_back_per_sample_without_retry() {
        // Batch 2: the fault may be one sample's data, so each sample is
        // re-run alone after the one attempt (here both fail alone too).
        let g = out_of_range_gather();
        let hc = ramiel_cluster::hypercluster(&cluster_graph(&g, &StaticCost), 2);
        let inputs = [synth_inputs(&g, 1), synth_inputs(&g, 2)];
        let cfg = SupervisorConfig {
            max_retries: 3,
            fallback: true,
        };
        let Run {
            outputs: res,
            report,
            ..
        } = run(
            &g,
            &hc,
            &inputs,
            &ExecCtx::sequential(),
            &RunOptions::default().supervisor(cfg),
        );
        assert_eq!(res.unwrap_err().code(), "RT-KERNEL");
        assert_eq!(report.attempts, 1, "deterministic errors must not retry");
        assert!(report.fell_back);
        assert_eq!(
            report.errors.len(),
            3,
            "the batch's error and each sample's"
        );
    }

    #[test]
    fn backoff_is_bounded() {
        assert_eq!(backoff(0), Duration::from_millis(10));
        assert_eq!(backoff(1), Duration::from_millis(20));
        assert_eq!(backoff(6), Duration::from_millis(640));
        assert_eq!(backoff(7), BACKOFF_MAX);
        assert_eq!(backoff(40), BACKOFF_MAX);
    }
}
