//! # ramiel-runtime
//!
//! Executes dataflow graphs — the stand-in for the paper's PyTorch + Python
//! substrate. Three engines, one entry point:
//!
//! - [`exec`] — the reference sequential executor (the paper's
//!   auto-generated single-core code path); every differential test compares
//!   against [`run_sequential`].
//! - [`hyperpool`] — the channel executor: one worker thread per
//!   (hyper)cluster, one inbox message per cross-cluster tensor (the paper's
//!   Python processes and bidirectional queues), compiled into
//!   index-addressed worker programs ([`PlannedBatch`]). [`HyperPool`] keeps
//!   the workers standing across jobs; it holds the crate's only channel
//!   worker loop.
//! - [`stealing`] — the work-stealing executor: a process-wide pool of
//!   deques ([`StealPool`]) running a dependency-counted [`StealPlan`], with
//!   clusters demoted to locality hints.
//! - [`run`] — the one-shot entry point: pick an [`Engine`] in
//!   [`RunOptions`], get outputs, a [`RunReport`] and (with `profile`) a
//!   [`ProfileDb`]; the channel engine is a [`HyperPool`] spawned for the
//!   run and joined at its end. [`supervisor`] holds the one retry /
//!   backoff / per-sample sequential-fallback loop, which `run` and
//!   `ramiel-serve`'s lanes both call.
//!
//! Around them:
//!
//! - [`Weights`] — a model's weights as runtime values, converted once
//!   ([`initializer_values`], or [`Weights::from_initializers`] over
//!   payloads moved out of a graph) and shared through
//!   [`RunOptions::init_values`] by every engine: the sequential walk looks
//!   a weight up by name, the standing executors by index.
//! - [`program`] — [`GraphProgram`], the slot-resolved form of a graph both
//!   standing executors consume.
//! - [`profile`] — the paper's profiling database: per-node times plus the
//!   *slack* spent blocked in `queue.get()` that motivates hyperclustering;
//!   [`predict`] compares it with the cost model that drove clustering.
//! - [`fault`] — deterministic fault plans and the injector every engine
//!   consults per node.
//! - [`reuse`] — liveness bookkeeping behind buffer reuse: what each
//!   executor charges to and discharges from the `MemGauge` in its
//!   `ExecCtx`, the measured peak `ramiel-verify`'s static estimate
//!   (`ramiel analyze`) sweeps the same lifetimes for.
//! - [`limits`] — recv timeout constants (the inbox capacity is
//!   [`ramiel_ir::runtime_model::DATA_CHANNEL_CAPACITY`]).
//! - [`sim`] — a deterministic discrete-event simulator over a cost model,
//!   used to regenerate the paper's tables bit-for-bit without timing noise.

pub mod exec;
pub mod fault;
pub mod hyperpool;
pub mod limits;
pub mod predict;
pub mod profile;
pub mod program;
pub mod reuse;
mod run;
pub mod sim;
pub mod stealing;
pub mod supervisor;

pub use exec::{run_sequential, run_sequential_opts, run_sequential_profiled};
pub use fault::{Fault, FaultInjector, FaultKind, FaultPlan};
pub use hyperpool::{HyperPool, PlannedBatch};
pub use predict::{predict_report, ClusterPrediction, KindPrediction, PredictionReport};
pub use profile::{OpRecord, ProfileDb, SlackReport, WorkerSpan};
pub use program::{GraphProgram, Operand};
pub use run::{run, Engine, Run, RunOptions, Schedule};
pub use sim::{
    simulate_clustering, simulate_hyper, simulate_sequential, SimConfig, SimEvent, SimResult,
};
pub use stealing::{StealChaos, StealPlan, StealPool, StealPoolStats};
pub use supervisor::{RunReport, SupervisorConfig};

use ramiel_ir::{Graph, TensorData};
use ramiel_tensor::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Named tensor environment used for graph inputs and outputs.
pub type Env = BTreeMap<String, Value>;

/// Payload size of a tensor value in bytes (used by channel metering and
/// the liveness gauge).
pub fn value_bytes(v: &Value) -> u64 {
    let elem = match v.dtype() {
        ramiel_ir::DType::F32 => 4,
        ramiel_ir::DType::I64 => 8,
        ramiel_ir::DType::Bool => 1,
    };
    (v.numel() as u64).saturating_mul(elem)
}

/// Bytes actually copied when a `Value` crosses a channel: the enum header
/// plus the tensor's shape vector. The element buffer itself is an
/// `Arc`-shared allocation, so cloning it is a refcount bump, not a copy —
/// this is the number `ChannelMeter` records as `copied_bytes` next to the
/// logical payload size from [`value_bytes`].
pub(crate) fn value_copied_bytes(v: &Value) -> u64 {
    (std::mem::size_of::<Value>() + std::mem::size_of_val(v.shape())) as u64
}

/// A model's weights as runtime `Value`s: the one table every executor
/// reads. Entry `k` is the `k`-th initializer of `Graph::initializers`, so
/// the slot program's weight index `k` addresses it directly and the names
/// are sorted: the sequential executor finds a weight by name with a binary
/// search. Built once per model and shared by `Arc`, so every weight fetch
/// is a refcount bump on the weight's buffer.
#[derive(Debug)]
pub struct Weights {
    names: Vec<String>,
    values: Vec<Value>,
}

impl Weights {
    /// Wrap a graph's initializers as runtime values: each payload becomes
    /// its value's buffer as it is, no element copied. The one conversion
    /// of initializers to runtime values ([`initializer_values`] feeds it
    /// a copy of a graph's; a serve plan build moves its graph's in).
    pub fn from_initializers(initializers: BTreeMap<String, TensorData>) -> Result<Weights> {
        let mut names = Vec::with_capacity(initializers.len());
        let mut values = Vec::with_capacity(initializers.len());
        for (name, data) in initializers {
            values.push(Value::from_owned_tensor_data(data)?);
            names.push(name);
        }
        Ok(Weights { names, values })
    }

    /// The weight named `name`.
    pub fn get(&self, name: &str) -> Option<&Value> {
        let k = self.names.binary_search_by(|n| n.as_str().cmp(name)).ok()?;
        self.values.get(k)
    }

    /// Weight `k`: what the slot program's `InSrc::Weight(k)` reads.
    pub(crate) fn at(&self, k: u32) -> Option<&Value> {
        self.values.get(k as usize)
    }

    /// Number of weights.
    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }
}

/// Convert `graph`'s initializers into a shared [`Weights`] table (a copy
/// of each payload). Build it once, hand the `Arc` to
/// [`RunOptions`](RunOptions::init_values), and every run, pool and
/// fallback shares it instead of converting again.
pub fn initializer_values(graph: &Graph) -> Result<Arc<Weights>> {
    let copies = graph.initializers.clone();
    Ok(Arc::new(Weights::from_initializers(copies)?))
}

/// Structured runtime error. Every variant names where the failure happened
/// (`cluster` is the worker/hypercluster index where applicable) so chaos
/// tests and supervisors can act on the *kind* of failure instead of parsing
/// strings. `Display` output keeps the historical `runtime error: …` prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// Kernel or data failure while evaluating a node. `msg` carries the
    /// node-name-prefixed kernel message (the pre-enum format string).
    Kernel {
        cluster: Option<usize>,
        node: Option<usize>,
        msg: String,
    },
    /// A channel endpoint disappeared: a peer hung up mid-send, or the run
    /// was aborted after a failure in another worker.
    ChannelClosed {
        cluster: Option<usize>,
        detail: String,
    },
    /// A worker thread panicked (payload captured by the supervisor).
    WorkerPanic {
        cluster: Option<usize>,
        node: Option<usize>,
        detail: String,
    },
    /// A worker (or the pool's result collector, `cluster: None`) gave up
    /// waiting for messages: deadlocked schedule, dropped message, or a peer
    /// too slow for the configured recv timeout.
    Timeout {
        cluster: Option<usize>,
        pending_ops: usize,
        detail: String,
    },
    /// A deliberately injected fault surfaced as this run's failure.
    Injected {
        cluster: Option<usize>,
        node: usize,
        kind: fault::FaultKind,
    },
    /// Setup/schedule-level failure before execution started (bad batch
    /// count, uncovered node, topology error, …).
    Setup(String),
}

/// Detail string marking secondary abort errors (peers torn down after the
/// first failure); the join path ranks these below the root cause.
pub(crate) const ABORT_DETAIL: &str = "aborted after failure in another worker";

impl RuntimeError {
    /// Stable machine-readable code, mirroring ramiel-verify's RV-codes.
    pub fn code(&self) -> &'static str {
        match self {
            RuntimeError::Kernel { .. } => "RT-KERNEL",
            RuntimeError::ChannelClosed { .. } => "RT-CHANNEL",
            RuntimeError::WorkerPanic { .. } => "RT-PANIC",
            RuntimeError::Timeout { .. } => "RT-TIMEOUT",
            RuntimeError::Injected { .. } => "RT-INJECT",
            RuntimeError::Setup(_) => "RT-SETUP",
        }
    }

    /// Whether a supervised retry can plausibly succeed. Genuine kernel
    /// errors and setup errors are deterministic, so retrying is futile —
    /// transient-shaped failures (timeouts, panics, closed channels) and
    /// injected faults (which are keyed to an execution index and thus
    /// don't re-fire) are retryable.
    pub fn is_retryable(&self) -> bool {
        !matches!(self, RuntimeError::Kernel { .. } | RuntimeError::Setup(_))
    }

    /// True for the secondary errors peers report after another worker
    /// already failed; the join path prefers the root cause over these.
    pub fn is_abort(&self) -> bool {
        matches!(self, RuntimeError::ChannelClosed { detail, .. } if detail == ABORT_DETAIL)
    }

    /// Ranking used when several workers fail in one run: lower is closer
    /// to the root cause.
    pub(crate) fn severity_rank(&self) -> u8 {
        if self.is_abort() {
            return 3;
        }
        match self {
            RuntimeError::Kernel { .. }
            | RuntimeError::WorkerPanic { .. }
            | RuntimeError::Injected { .. }
            | RuntimeError::Setup(_) => 0,
            RuntimeError::Timeout { .. } => 1,
            RuntimeError::ChannelClosed { .. } => 2,
        }
    }
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "runtime error: ")?;
        match self {
            RuntimeError::Kernel { cluster, msg, .. } => match cluster {
                Some(c) => write!(f, "{msg} (cluster {c})"),
                None => write!(f, "{msg}"),
            },
            RuntimeError::ChannelClosed { cluster, detail } => match cluster {
                Some(c) => write!(f, "{detail} (cluster {c})"),
                None => write!(f, "{detail}"),
            },
            RuntimeError::WorkerPanic {
                cluster,
                node,
                detail,
            } => {
                write!(f, "worker panicked")?;
                if let Some(c) = cluster {
                    write!(f, " (cluster {c}")?;
                    if let Some(n) = node {
                        write!(f, ", node {n}")?;
                    }
                    write!(f, ")")?;
                }
                if !detail.is_empty() {
                    write!(f, ": {detail}")?;
                }
                Ok(())
            }
            RuntimeError::Timeout {
                cluster,
                pending_ops,
                detail,
            } => match cluster {
                Some(c) => write!(f, "{detail} (cluster {c}, {pending_ops} ops left)"),
                None => write!(f, "{detail} ({pending_ops} ops left)"),
            },
            RuntimeError::Injected {
                cluster,
                node,
                kind,
            } => {
                write!(f, "injected {kind} at node {node}")?;
                if let Some(c) = cluster {
                    write!(f, " (cluster {c})")?;
                }
                Ok(())
            }
            RuntimeError::Setup(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<ramiel_tensor::ExecError> for RuntimeError {
    fn from(e: ramiel_tensor::ExecError) -> Self {
        RuntimeError::Kernel {
            cluster: None,
            node: None,
            msg: e.0,
        }
    }
}

/// Result alias for runtime operations.
pub type Result<T> = std::result::Result<T, RuntimeError>;

/// Fabricate deterministic inputs for a graph (random f32 activations,
/// small non-negative i64 ids) — used by tests, examples and benches.
pub fn synth_inputs(graph: &Graph, seed: u64) -> Env {
    use ramiel_ir::DType;
    let mut env = Env::new();
    for (i, inp) in graph.inputs.iter().enumerate() {
        let s = seed.wrapping_add(i as u64 * 7919);
        let v = match inp.dtype {
            DType::F32 => Value::random_f32(inp.shape.clone(), s),
            DType::I64 => {
                // ids in [0, 64) so embedding gathers stay in range
                let f = Value::random_f32(inp.shape.clone(), s);
                let data: Vec<i64> = f
                    .f32()
                    .expect("random_f32 yields f32")
                    .data()
                    .iter()
                    .map(|v| ((v.abs() * 1e4) as i64) % 64)
                    .collect();
                Value::I64(
                    ramiel_tensor::Tensor::new(inp.shape.clone(), data)
                        .expect("shape matches by construction"),
                )
            }
            DType::Bool => {
                let f = Value::random_f32(inp.shape.clone(), s);
                let data: Vec<bool> = f
                    .f32()
                    .expect("random_f32 yields f32")
                    .data()
                    .iter()
                    .map(|v| *v > 0.0)
                    .collect();
                Value::Bool(
                    ramiel_tensor::Tensor::new(inp.shape.clone(), data)
                        .expect("shape matches by construction"),
                )
            }
        };
        env.insert(inp.name.clone(), v);
    }
    env
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weight(v: f32) -> TensorData {
        TensorData::f32(vec![1], vec![v])
    }

    fn table(names: &[&str]) -> Weights {
        let initializers = names.iter().enumerate();
        let initializers = initializers.map(|(i, n)| (n.to_string(), weight(i as f32)));
        Weights::from_initializers(initializers.collect()).unwrap()
    }

    fn value_of(w: Option<&Value>) -> Option<f32> {
        w.map(|v| v.f32().unwrap().data()[0])
    }

    #[test]
    fn empty_table_answers_none() {
        let w = table(&[]);
        assert_eq!(w.len(), 0);
        assert!(w.get("").is_none());
        assert!(w.get("w").is_none());
        assert!(w.at(0).is_none());
    }

    #[test]
    fn names_and_indices_find_their_weight() {
        let w = table(&["a", "m", "z"]);
        assert_eq!(w.len(), 3);
        assert_eq!(value_of(w.get("a")), Some(0.0));
        assert_eq!(value_of(w.get("z")), Some(2.0));
        assert_eq!(value_of(w.at(1)), Some(1.0));
        for absent in ["", "b", "zz", "A"] {
            assert!(w.get(absent).is_none(), "`{absent}`");
        }
        assert!(w.at(3).is_none());
        assert!(w.at(u32::MAX).is_none());
    }

    #[test]
    fn graph_table_keeps_initializer_order() {
        use ramiel_models::{build, ModelConfig, ModelKind};
        let g = build(ModelKind::Squeezenet, &ModelConfig::tiny());
        let w = initializer_values(&g).unwrap();
        assert!(w.len() > 0);
        assert_eq!(w.len(), g.initializers.len());
        for (k, (name, td)) in g.initializers.iter().enumerate() {
            let v = w.get(name).unwrap();
            assert!(std::ptr::eq(v, w.at(k as u32).unwrap()), "{name}");
            assert_eq!(v.dtype(), td.dtype());
        }
    }
}
