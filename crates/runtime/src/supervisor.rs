//! Supervised execution: retry, backoff, and sequential fallback.
//!
//! Every engine already converts worker panics, timeouts and injected faults
//! into structured [`RuntimeError`]s; the supervisor — what [`crate::run`]
//! layers on top when [`RunOptions::supervisor`] is set — decides what to do
//! with them. Policy:
//!
//! 1. **Retry** transient-shaped failures (`RT-TIMEOUT`, `RT-PANIC`,
//!    `RT-CHANNEL`, `RT-INJECT`) up to [`SupervisorConfig::max_retries`]
//!    times with bounded exponential backoff. Every cluster is idempotent —
//!    kernels are pure functions of their inputs and workers own disjoint
//!    node sets — so re-running a failed inference from scratch is safe.
//!    Injected faults are keyed to an execution index, so a retry advances
//!    past them by construction (the determinism guarantee: which attempt a
//!    fault hits is a pure function of the [`crate::FaultPlan`]).
//! 2. **Fall back** to the reference sequential executor once retries are
//!    exhausted, re-executing the failed run's work on the calling thread so
//!    callers still get correct outputs with no channels left to fail.
//! 3. **Give up immediately** on deterministic failures (`RT-KERNEL`,
//!    `RT-SETUP`): a genuine kernel/data error or a broken schedule fails
//!    identically on every attempt, and papering over a schedule bug with
//!    the sequential executor would hide exactly what `ramiel check` exists
//!    to catch.

use crate::fault::{panic_to_error, Fault};
use crate::profile::ProfileDb;
use crate::run::{Engine, Run, RunOptions};
use crate::{Env, Result, RuntimeError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Supervision policy knobs.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Retry attempts after the first failure (0 = single attempt).
    pub max_retries: u32,
    /// First backoff pause; doubles per retry.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Re-execute on the reference sequential executor after retries are
    /// exhausted (retryable failures only).
    pub fallback: bool,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_retries: 2,
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_secs(1),
            fallback: true,
        }
    }
}

impl SupervisorConfig {
    /// Pause before retry number `retry` (0-based): `backoff_base` doubled
    /// per retry, capped at `backoff_max`.
    pub fn backoff(&self, retry: u32) -> Duration {
        let mult = 1u32.checked_shl(retry).unwrap_or(u32::MAX);
        self.backoff_base
            .checked_mul(mult)
            .unwrap_or(self.backoff_max)
            .min(self.backoff_max)
    }
}

/// What happened during one [`crate::run`].
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Attempts made on the requested engine (including the first).
    pub attempts: u32,
    /// Whether the sequential fallback produced the final result.
    pub fell_back: bool,
    /// Errors that triggered a retry or the fallback (or ended the run), in
    /// order.
    pub errors: Vec<RuntimeError>,
    /// Faults the injector actually fired, across all attempts.
    pub faults_fired: Vec<Fault>,
}

/// The supervision core: retry `attempt` on the requested engine with
/// bounded backoff while failures are retryable, then fall back to the
/// sequential engine. Panics escaping an attempt become structured errors.
pub(crate) fn supervise(
    opts: &RunOptions,
    cfg: &SupervisorConfig,
    attempt: impl Fn(Engine) -> Result<(Vec<Env>, Option<ProfileDb>)>,
) -> Run {
    let guarded = |engine| {
        catch_unwind(AssertUnwindSafe(|| attempt(engine)))
            .unwrap_or_else(|payload| Err(panic_to_error(None, payload)))
    };
    let mut report = RunReport::default();
    let mut result = Err(RuntimeError::Setup("no attempt made".into()));
    for retry in 0..=cfg.max_retries {
        report.attempts += 1;
        result = guarded(opts.engine);
        let Err(e) = &result else { break };
        report.errors.push(e.clone());
        if !e.is_retryable() {
            // Deterministic failure: neither retry nor fallback can
            // produce a different (honest) answer.
            break;
        }
        if retry < cfg.max_retries {
            opts.obs.instant(
                0,
                format!("supervisor:retry (attempt {})", retry + 2),
                "supervisor",
                serde_json::json!({
                    "error": e.code(),
                    "backoff_ms": cfg.backoff(retry).as_millis() as u64,
                }),
            );
            std::thread::sleep(cfg.backoff(retry));
        }
    }
    if let (Err(e), true) = (&result, cfg.fallback) {
        if e.is_retryable() {
            report.fell_back = true;
            opts.obs.instant(
                0,
                "supervisor:fallback to sequential".to_string(),
                "supervisor",
                serde_json::json!({ "error": e.code(), "attempts": report.attempts }),
            );
            result = guarded(Engine::Sequential);
            if let Err(e) = &result {
                report.errors.push(e.clone());
            }
        }
    }
    if let Some(inj) = &opts.injector {
        report.faults_fired = inj.fired();
    }
    let (outputs, profile) = match result {
        Ok((outs, db)) => (Ok(outs), db),
        Err(e) => (Err(e), None),
    };
    Run {
        outputs,
        report,
        profile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{quiet_injected_panics, FaultInjector, FaultKind, FaultPlan};
    use crate::{run, run_sequential, synth_inputs};
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
            backoff_base: Duration::from_millis(1),
            fallback: false,
            ..Default::default()
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
            backoff_base: Duration::from_millis(1),
            fallback: true,
            ..Default::default()
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

    #[test]
    fn non_retryable_kernel_error_fails_without_retry() {
        // A graph whose Gather goes out of range at runtime: deterministic
        // data error → one attempt, no fallback masking.
        use ramiel_ir::{DType, GraphBuilder, OpKind};
        let mut b = GraphBuilder::new("bad");
        let x = b.input("x", DType::F32, vec![2, 2]);
        let idx = b.init("idx", ramiel_ir::TensorData::vec_i64(vec![5]));
        let y = b.op("g", OpKind::Gather { axis: 0 }, vec![x, idx]);
        b.output(&y);
        let g = b.finish().unwrap();
        let clustering = cluster_graph(&g, &StaticCost);
        let inputs = synth_inputs(&g, 1);
        let cfg = SupervisorConfig {
            max_retries: 3,
            fallback: true,
            ..Default::default()
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
            backoff_base: Duration::from_millis(1),
            fallback: true,
            ..Default::default()
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
    fn backoff_is_bounded() {
        let cfg = SupervisorConfig {
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(40),
            ..Default::default()
        };
        assert_eq!(cfg.backoff(0), Duration::from_millis(10));
        assert_eq!(cfg.backoff(1), Duration::from_millis(20));
        assert_eq!(cfg.backoff(2), Duration::from_millis(40));
        assert_eq!(cfg.backoff(10), Duration::from_millis(40));
        assert_eq!(cfg.backoff(40), Duration::from_millis(40));
    }
}
