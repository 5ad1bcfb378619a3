//! Execution context: the intra-op parallelism knob.
//!
//! The paper varies PyTorch's OpenMP thread count (`NUM_THREADS=2/4`) as a
//! downstream optimization after Linear Clustering. Here the same knob is a
//! rayon thread pool attached to the context; heavy kernels (`Conv`,
//! `MatMul`, `Gemm`) split their outermost loop across it.

use crate::pack::PackedWeightCache;
use ramiel_ir::OpKind;
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Allocation gauge for live activation bytes. Executors charge it when they
/// insert a value into an environment and discharge it when liveness analysis
/// evicts the value, so `peak_bytes` is the measured high-water mark the
/// static estimate in `ramiel-verify` must upper-bound. Thread-safe: all
/// workers of one run share a gauge through the [`ExecCtx`].
#[derive(Debug, Default)]
pub struct MemGauge {
    live: AtomicI64,
    peak: AtomicI64,
}

impl MemGauge {
    pub fn new() -> Arc<MemGauge> {
        Arc::new(MemGauge::default())
    }

    /// Charge `bytes` of newly live data and update the high-water mark.
    pub fn alloc(&self, bytes: usize) {
        let now = self.live.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Discharge `bytes` that liveness analysis proved dead.
    pub fn free(&self, bytes: usize) {
        self.live.fetch_sub(bytes as i64, Ordering::Relaxed);
    }

    /// Currently charged bytes.
    pub fn live_bytes(&self) -> i64 {
        self.live.load(Ordering::Relaxed)
    }

    /// High-water mark since construction or the last [`MemGauge::reset`].
    pub fn peak_bytes(&self) -> u64 {
        self.peak.load(Ordering::Relaxed).max(0) as u64
    }

    pub fn reset(&self) {
        self.live.store(0, Ordering::Relaxed);
        self.peak.store(0, Ordering::Relaxed);
    }
}

/// Pre-kernel hook: consulted by [`crate::eval_op`] before dispatching a
/// kernel. Returning `Some(msg)` fails the evaluation with that message —
/// this is how the runtime's fault injector makes an *injected* kernel error
/// travel the exact path a real kernel failure takes.
pub type KernelHook = Arc<dyn Fn(&OpKind) -> Option<String> + Send + Sync>;

/// Intra-op pools by thread count, shared process-wide. `with_intra_op` used
/// to build a fresh rayon pool per call, so repeated runs (differential
/// tests, benches) spawned dozens of short-lived pools; pools are stateless
/// given a thread count, so one per count serves everyone.
static INTRA_OP_POOLS: OnceLock<Mutex<HashMap<usize, Arc<rayon::ThreadPool>>>> = OnceLock::new();

/// Per-executor kernel context.
#[derive(Clone, Default)]
pub struct ExecCtx {
    pool: Option<Arc<rayon::ThreadPool>>,
    kernel_hook: Option<KernelHook>,
    packed: Arc<PackedWeightCache>,
    mem: Option<Arc<MemGauge>>,
}

impl ExecCtx {
    /// Fully sequential context (intra-op parallelism disabled). This is the
    /// default inside cluster worker threads so inter-op and intra-op
    /// parallelism do not multiply unintentionally.
    pub fn sequential() -> Self {
        ExecCtx::default()
    }

    /// Context with an intra-op pool of `threads` workers, memoized per
    /// thread count. `threads <= 1` yields a sequential context.
    pub fn with_intra_op(threads: usize) -> Self {
        if threads <= 1 {
            return ExecCtx::sequential();
        }
        let pool = {
            let mut pools = INTRA_OP_POOLS
                .get_or_init(Default::default)
                .lock()
                .expect("intra-op pool registry poisoned");
            Arc::clone(pools.entry(threads).or_insert_with(|| {
                Arc::new(
                    rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .thread_name(move |i| format!("intra-op-{threads}t-{i}"))
                        .build()
                        .expect("failed to build intra-op thread pool"),
                )
            }))
        };
        ExecCtx {
            pool: Some(pool),
            ..ExecCtx::default()
        }
    }

    /// Same context with a pre-kernel hook attached (fault injection). The
    /// packed-weight cache stays shared with the original context.
    pub fn with_kernel_hook(&self, hook: KernelHook) -> Self {
        ExecCtx {
            pool: self.pool.clone(),
            kernel_hook: Some(hook),
            packed: Arc::clone(&self.packed),
            mem: self.mem.clone(),
        }
    }

    /// Same context with an allocation gauge attached; executors report
    /// activation liveness to it (see [`MemGauge`]).
    pub fn with_mem_gauge(&self, gauge: Arc<MemGauge>) -> Self {
        ExecCtx {
            pool: self.pool.clone(),
            kernel_hook: self.kernel_hook.clone(),
            packed: Arc::clone(&self.packed),
            mem: Some(gauge),
        }
    }

    /// The attached allocation gauge, if any.
    pub fn mem_gauge(&self) -> Option<&Arc<MemGauge>> {
        self.mem.as_ref()
    }

    /// The per-plan packed-weight cache. Shared (not reset) by `clone` and
    /// `with_kernel_hook`, so every worker of one executor reuses the same
    /// packed buffers; independent `sequential()`/`with_intra_op()` contexts
    /// each start with an empty cache.
    pub fn packed(&self) -> &PackedWeightCache {
        &self.packed
    }

    /// Consult the kernel hook, if any. `Some(msg)` means the kernel layer
    /// must fail this evaluation with `msg`.
    #[inline]
    pub fn kernel_fault(&self, op: &OpKind) -> Option<String> {
        self.kernel_hook.as_ref().and_then(|h| h(op))
    }

    /// Number of intra-op threads (1 when sequential).
    pub fn intra_op_threads(&self) -> usize {
        self.pool.as_ref().map_or(1, |p| p.current_num_threads())
    }

    /// Run `f` inside the intra-op pool if one is attached, so rayon
    /// parallel iterators inside kernels use it; otherwise run inline.
    pub fn install<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        match &self.pool {
            Some(pool) => pool.install(f),
            None => f(),
        }
    }

    /// True if kernels should bother splitting work.
    pub fn parallel(&self) -> bool {
        self.pool.is_some()
    }
}

impl std::fmt::Debug for ExecCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecCtx")
            .field("intra_op_threads", &self.intra_op_threads())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_has_one_thread() {
        let ctx = ExecCtx::sequential();
        assert_eq!(ctx.intra_op_threads(), 1);
        assert!(!ctx.parallel());
        assert_eq!(ctx.install(|| 41 + 1), 42);
    }

    #[test]
    fn pool_sizes_respected() {
        let ctx = ExecCtx::with_intra_op(3);
        assert_eq!(ctx.intra_op_threads(), 3);
        assert!(ctx.parallel());
        // installing runs on the pool
        let n = ctx.install(rayon::current_num_threads);
        assert_eq!(n, 3);
    }

    #[test]
    fn one_thread_degenerates_to_sequential() {
        let ctx = ExecCtx::with_intra_op(1);
        assert!(!ctx.parallel());
    }

    #[test]
    fn intra_op_pools_are_memoized_per_thread_count() {
        let a = ExecCtx::with_intra_op(5);
        let b = ExecCtx::with_intra_op(5);
        let (pa, pb) = (a.pool.unwrap(), b.pool.unwrap());
        assert!(Arc::ptr_eq(&pa, &pb), "same thread count must share a pool");
        let c = ExecCtx::with_intra_op(6);
        assert!(!Arc::ptr_eq(&pa, &c.pool.unwrap()));
    }

    #[test]
    fn mem_gauge_tracks_high_water() {
        let g = MemGauge::new();
        g.alloc(100);
        g.alloc(50);
        g.free(120);
        g.alloc(10);
        assert_eq!(g.live_bytes(), 40);
        assert_eq!(g.peak_bytes(), 150);
        g.reset();
        assert_eq!(g.peak_bytes(), 0);
        let ctx = ExecCtx::sequential().with_mem_gauge(Arc::clone(&g));
        ctx.mem_gauge().unwrap().alloc(7);
        assert_eq!(g.peak_bytes(), 7);
    }

    #[test]
    fn packed_cache_shared_by_clone_and_hook_but_not_across_contexts() {
        let a = ExecCtx::sequential();
        let b = a.clone();
        let hooked = a.with_kernel_hook(Arc::new(|_| None));
        assert!(Arc::ptr_eq(&a.packed, &b.packed));
        assert!(Arc::ptr_eq(&a.packed, &hooked.packed));
        let other = ExecCtx::sequential();
        assert!(!Arc::ptr_eq(&a.packed, &other.packed));
    }
}
