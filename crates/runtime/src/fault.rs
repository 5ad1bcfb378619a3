//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a seed-driven schedule of faults to inject into a run:
//! *kernel error on node N's k-th execution*, *worker panic*, *send/recv
//! delay*, *dropped message*. The plan is pure data — two runs with the same
//! plan over the same graph observe exactly the same faults, because every
//! fault is keyed by `(node, batch, exec_index)` and each worker executes a
//! given `(node, batch)` instance at most once per attempt. Retries advance
//! the execution count, so a fault with `exec_index = k` fires on the k-th
//! attempt and *only* then — which is what makes supervised retry converge.
//!
//! The [`FaultInjector`] is the runtime half: executors call
//! [`FaultInjector::begin_node`] before evaluating a node and act on the
//! armed [`FaultKind`]s. Kernel faults do not short-circuit in the executor;
//! they are threaded through [`ExecCtx::with_kernel_hook`] so the fault
//! travels the same path a real kernel failure would (`eval_op` → `ExecError`
//! → executor error mapping). With no injector installed the executors pay a
//! single `Option` check per node; with an empty plan, one `HashMap` lookup.

use crate::RuntimeError;
use parking_lot::Mutex;
use ramiel_obs::Obs;
use ramiel_tensor::{ExecCtx, ExecError};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Marker prefix carried by injected kernel faults through the tensor layer,
/// so executors can tell an injected `ExecError` from a genuine one.
pub const INJECT_MARKER: &str = "fault-injected:";

/// Panic payload used for injected worker panics (thrown via
/// `std::panic::panic_any` so supervisors can downcast instead of parsing
/// strings). Test harnesses can filter these out of the panic hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedPanic {
    pub node: usize,
    pub cluster: Option<usize>,
}

/// The kinds of fault the injector can arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The node's kernel evaluation fails with an injected `ExecError`.
    KernelError,
    /// The worker executing the node panics (via [`InjectedPanic`]).
    WorkerPanic,
    /// The worker sleeps before shipping the node's outputs (slow `put`).
    SendDelay { millis: u64 },
    /// The worker sleeps before evaluating the node (slow `get`/pickup).
    RecvDelay { millis: u64 },
    /// The node's outputs are not sent to remote consumers (lost message);
    /// consumers observe a recv timeout.
    DropMessage,
}

impl FaultKind {
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::KernelError => "kernel-error",
            FaultKind::WorkerPanic => "worker-panic",
            FaultKind::SendDelay { .. } => "send-delay",
            FaultKind::RecvDelay { .. } => "recv-delay",
            FaultKind::DropMessage => "drop-message",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::SendDelay { millis } => write!(f, "send-delay({millis}ms)"),
            FaultKind::RecvDelay { millis } => write!(f, "recv-delay({millis}ms)"),
            other => f.write_str(other.name()),
        }
    }
}

/// One scheduled fault: fire `kind` on the `exec_index`-th execution of
/// `(node, batch)` (0-based, counted across retries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    pub node: usize,
    pub batch: usize,
    pub exec_index: u32,
    pub kind: FaultKind,
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} at node {} (batch {}, exec #{})",
            self.kind, self.node, self.batch, self.exec_index
        )
    }
}

/// A deterministic schedule of faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed the plan was derived from (0 for hand-built plans).
    pub seed: u64,
    pub faults: Vec<Fault>,
}

/// splitmix64 — tiny, deterministic, no external dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// The empty plan: injection machinery armed, nothing fires. Used by the
    /// overhead guard bench.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Derive a plan of `count` faults over a graph of `num_nodes` nodes and
    /// `batch` batch elements, purely from `seed`. `exec_index` is drawn
    /// from {0, 1, 2} so retried runs can be re-faulted.
    pub fn random(seed: u64, num_nodes: usize, batch: usize, count: usize) -> Self {
        let mut st = seed ^ 0xda71_ef00_c0ff_ee00;
        let mut faults = Vec::with_capacity(count);
        if num_nodes == 0 {
            return FaultPlan { seed, faults };
        }
        for _ in 0..count {
            let node = (splitmix64(&mut st) as usize) % num_nodes;
            let b = (splitmix64(&mut st) as usize) % batch.max(1);
            let exec_index = (splitmix64(&mut st) % 3) as u32;
            let kind = match splitmix64(&mut st) % 5 {
                0 => FaultKind::KernelError,
                1 => FaultKind::WorkerPanic,
                2 => FaultKind::SendDelay {
                    millis: 1 + splitmix64(&mut st) % 20,
                },
                3 => FaultKind::RecvDelay {
                    millis: 1 + splitmix64(&mut st) % 20,
                },
                _ => FaultKind::DropMessage,
            };
            faults.push(Fault {
                node,
                batch: b,
                exec_index,
                kind,
            });
        }
        FaultPlan { seed, faults }
    }

    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// Runtime half of the fault model: tracks per-`(node, batch)` execution
/// counts and arms the planned faults at the right execution. Shared across
/// workers (and across supervised retries) behind an `Arc`.
pub struct FaultInjector {
    plan: FaultPlan,
    /// (node, batch) → planned (exec_index, kind) pairs. Only keys present
    /// here ever touch the counts mutex, so an empty plan costs one failed
    /// lookup per node.
    index: HashMap<(usize, usize), Vec<(u32, FaultKind)>>,
    counts: Mutex<HashMap<(usize, usize), u32>>,
    fired: Mutex<Vec<Fault>>,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan) -> Arc<FaultInjector> {
        let mut index: HashMap<(usize, usize), Vec<(u32, FaultKind)>> = HashMap::new();
        for f in &plan.faults {
            index
                .entry((f.node, f.batch))
                .or_default()
                .push((f.exec_index, f.kind));
        }
        Arc::new(FaultInjector {
            plan,
            index,
            counts: Mutex::new(HashMap::new()),
            fired: Mutex::new(Vec::new()),
        })
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Record one execution of `(node, batch)` and return the faults armed
    /// for exactly this execution (usually none). Deterministic: the n-th
    /// call for a given key always observes count n.
    pub fn begin_node(&self, node: usize, batch: usize) -> Vec<FaultKind> {
        let Some(entries) = self.index.get(&(node, batch)) else {
            return Vec::new();
        };
        let mut counts = self.counts.lock();
        let c = counts.entry((node, batch)).or_insert(0);
        let k = *c;
        *c += 1;
        drop(counts);
        let armed: Vec<FaultKind> = entries
            .iter()
            .filter(|(i, _)| *i == k)
            .map(|(_, kind)| *kind)
            .collect();
        if !armed.is_empty() {
            let mut fired = self.fired.lock();
            for kind in &armed {
                fired.push(Fault {
                    node,
                    batch,
                    exec_index: k,
                    kind: *kind,
                });
            }
        }
        armed
    }

    /// Every fault that has actually fired so far (across retries), in
    /// canonical `(node, batch, exec_index, kind)` order. Faults on
    /// *different* workers reach the log in scheduling order, so the raw
    /// append order is not reproducible across runs — the sort is what makes
    /// the report deterministic for a given plan.
    pub fn fired(&self) -> Vec<Fault> {
        let mut fired = self.fired.lock().clone();
        fired.sort_by_key(|f| (f.node, f.batch, f.exec_index, f.kind.name()));
        fired
    }

    /// Build an [`ExecCtx`] whose kernel hook fails the next evaluation with
    /// an injected error, so the fault flows through the real kernel path.
    pub fn kernel_fault_ctx(base: &ExecCtx, cluster: Option<usize>, node: usize) -> ExecCtx {
        let msg = match cluster {
            Some(c) => format!("{INJECT_MARKER} kernel fault at node {node} (cluster {c})"),
            None => format!("{INJECT_MARKER} kernel fault at node {node}"),
        };
        base.with_kernel_hook(Arc::new(move |_op| Some(msg.clone())))
    }
}

/// What one node execution has to do about the faults armed for it: the
/// part of fault handling every engine shares. Delays and dropped messages
/// come back as data because each engine applies them where its transport
/// sits (and the stealing engine bounds its sleeps by the job deadline).
#[derive(Debug, Default)]
pub(crate) struct Armed {
    pub kernel_fault: bool,
    pub drop_msgs: bool,
    /// Summed over the armed faults; zero when none.
    pub send_delay: Duration,
    pub recv_delay: Duration,
}

impl Armed {
    /// Fold the kinds [`FaultInjector::begin_node`] armed for this
    /// execution of `(node, batch)` on `worker` (`None`: the calling
    /// thread): one obs instant per fault, and an armed panic raised here.
    pub(crate) fn new(
        kinds: &[FaultKind],
        obs: &Obs,
        worker: Option<usize>,
        node: usize,
        batch: usize,
    ) -> Armed {
        let mut armed = Armed::default();
        for kind in kinds {
            obs.instant(
                worker.unwrap_or(0) as u32,
                format!("fault:{}", kind.name()),
                "fault",
                serde_json::json!({ "node": node, "batch": batch }),
            );
            match kind {
                FaultKind::KernelError => armed.kernel_fault = true,
                FaultKind::WorkerPanic => std::panic::panic_any(InjectedPanic {
                    node,
                    cluster: worker,
                }),
                FaultKind::SendDelay { millis } => {
                    armed.send_delay += Duration::from_millis(*millis)
                }
                FaultKind::RecvDelay { millis } => {
                    armed.recv_delay += Duration::from_millis(*millis)
                }
                FaultKind::DropMessage => armed.drop_msgs = true,
            }
        }
        armed
    }
}

/// The structured error for a failed evaluation of node `node` (`name`):
/// an injected kernel fault (recognised by [`INJECT_MARKER`]) or a genuine
/// kernel failure carrying the node-name-prefixed message.
pub(crate) fn node_error(
    cluster: Option<usize>,
    node: usize,
    name: &str,
    e: ExecError,
) -> RuntimeError {
    if e.0.starts_with(INJECT_MARKER) {
        RuntimeError::Injected {
            cluster,
            node,
            kind: FaultKind::KernelError,
        }
    } else {
        RuntimeError::Kernel {
            cluster,
            node: Some(node),
            msg: format!("{name}: {}", e.0),
        }
    }
}

/// Convert a caught panic payload into a structured [`crate::RuntimeError`]:
/// injected panics (thrown as [`InjectedPanic`]) become `Injected`, anything
/// else becomes `WorkerPanic` with the stringified payload.
pub fn panic_to_error(
    cluster: Option<usize>,
    payload: Box<dyn std::any::Any + Send>,
) -> crate::RuntimeError {
    match payload.downcast::<InjectedPanic>() {
        Ok(ip) => crate::RuntimeError::Injected {
            cluster: ip.cluster.or(cluster),
            node: ip.node,
            kind: FaultKind::WorkerPanic,
        },
        Err(payload) => {
            let detail = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic payload>".into());
            crate::RuntimeError::WorkerPanic {
                cluster,
                node: None,
                detail,
            }
        }
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &self.plan)
            .field("fired", &self.fired.lock().len())
            .finish()
    }
}

/// Keep injected panics off stderr: they are the expected chaos, caught
/// and turned into `RT-INJECT` errors, yet the default panic hook would
/// still print each one. Other panics reach the previous hook. Installed
/// once per process, however often it is called.
pub fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        let a = FaultPlan::random(42, 17, 4, 6);
        let b = FaultPlan::random(42, 17, 4, 6);
        assert_eq!(a, b);
        assert_eq!(a.faults.len(), 6);
        assert!(a.faults.iter().all(|f| f.node < 17 && f.batch < 4));
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::random(1, 50, 2, 8);
        let b = FaultPlan::random(2, 50, 2, 8);
        assert_ne!(a, b);
    }

    #[test]
    fn injector_fires_on_exact_execution_index() {
        let plan = FaultPlan {
            seed: 0,
            faults: vec![Fault {
                node: 3,
                batch: 0,
                exec_index: 1,
                kind: FaultKind::KernelError,
            }],
        };
        let inj = FaultInjector::new(plan);
        assert!(inj.begin_node(3, 0).is_empty(), "exec #0 must not fire");
        assert_eq!(inj.begin_node(3, 0), vec![FaultKind::KernelError]);
        assert!(inj.begin_node(3, 0).is_empty(), "exec #2 must not fire");
        assert!(inj.begin_node(4, 0).is_empty(), "other nodes untouched");
        assert_eq!(inj.fired().len(), 1);
    }

    #[test]
    fn empty_plan_fires_nothing() {
        let inj = FaultInjector::new(FaultPlan::none());
        for n in 0..100 {
            assert!(inj.begin_node(n, 0).is_empty());
        }
        assert!(inj.fired().is_empty());
    }

    #[test]
    fn kernel_fault_ctx_flows_through_eval() {
        use ramiel_ir::OpKind;
        use ramiel_tensor::{eval_op, Tensor, Value};
        let ctx = ExecCtx::sequential();
        let faulted = FaultInjector::kernel_fault_ctx(&ctx, Some(2), 7);
        let x = Value::F32(Tensor::new(vec![2], vec![1.0, -1.0]).unwrap());
        let err = eval_op(&faulted, &OpKind::Relu, std::slice::from_ref(&x)).unwrap_err();
        assert!(err.0.starts_with(INJECT_MARKER), "{}", err.0);
        assert!(
            err.0.contains("node 7") && err.0.contains("cluster 2"),
            "{}",
            err.0
        );
        // the clean ctx is unaffected
        assert!(eval_op(&ctx, &OpKind::Relu, &[x]).is_ok());
    }
}
