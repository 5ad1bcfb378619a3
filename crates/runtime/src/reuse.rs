//! Liveness bookkeeping: the name-keyed tracker of the sequential executor
//! and the byte-charging rules every engine follows.
//!
//! Each executor (or worker thread) tracks, per environment key, how many
//! reads remain before the value is dead. Dead values are evicted from the
//! environment — which both releases real memory early and is what lets the
//! in-place rewrite (`ramiel_passes::inplace`) find a uniquely-owned buffer
//! at its last use. The tracker also charges/discharges the optional
//! [`MemGauge`] on the [`ramiel_tensor::ExecCtx`], so measured peak live
//! bytes line up with the accounting model `ramiel-verify` uses for its
//! static estimate (both read [`ramiel_ir::runtime_model`]): a value is
//! charged from the step that materializes it in an environment to the
//! step after its last read, graph outputs stay charged to the end, and
//! alias-producing ops (reshape family, `Identity`/`Dropout`, `Constant`
//! fetches) charge zero because they share an existing buffer.

use ramiel_ir::runtime_model::is_alias_op;
use ramiel_ir::OpKind;
use ramiel_tensor::{MemGauge, Value};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// Bytes to charge for one produced output of `op`.
pub(crate) fn charge_bytes(op: &OpKind, v: &Value) -> u64 {
    if is_alias_op(op) {
        0
    } else {
        crate::value_bytes(v)
    }
}

/// Per-worker liveness tracker over environment keys of type `K`.
pub(crate) struct Liveness<K> {
    /// Remaining reads per key (graph outputs carry one extra pin).
    uses: HashMap<K, usize>,
    /// Gauge-charged bytes per currently-live key.
    charged: HashMap<K, u64>,
    gauge: Option<Arc<MemGauge>>,
}

impl<K: Hash + Eq + Clone> Liveness<K> {
    pub fn new(uses: HashMap<K, usize>, gauge: Option<Arc<MemGauge>>) -> Self {
        Liveness {
            uses,
            charged: HashMap::new(),
            gauge,
        }
    }

    /// Remaining reads of `k` (0 when the key is unknown to this worker).
    pub fn remaining(&self, k: &K) -> usize {
        self.uses.get(k).copied().unwrap_or(0)
    }

    /// Record that a value was materialized in the environment under `k`,
    /// charging `bytes` to the gauge. A no-op when no gauge is attached —
    /// eviction itself needs no byte accounting.
    pub fn charge(&mut self, k: K, bytes: u64) {
        let Some(g) = &self.gauge else {
            return;
        };
        g.alloc(bytes as usize);
        // Re-materializing a key (a duplicate channel delivery) must not
        // leak the previous charge.
        if let Some(prev) = self.charged.insert(k, bytes) {
            g.free(prev as usize);
        }
    }

    /// Record one read of `k`; returns `true` when that was the last read
    /// and the caller should evict the env entry and call
    /// [`Liveness::discharge`].
    pub fn consume(&mut self, k: &K) -> bool {
        match self.uses.get_mut(k) {
            Some(n) if *n > 1 => {
                *n -= 1;
                false
            }
            Some(_) => {
                self.uses.remove(k);
                true
            }
            None => false,
        }
    }

    /// Release the gauge charge for an evicted key (no-op for keys that
    /// were never charged, e.g. graph inputs seeded by the caller).
    pub fn discharge(&mut self, k: &K) {
        if let Some(bytes) = self.charged.remove(k) {
            if let Some(g) = &self.gauge {
                g.free(bytes as usize);
            }
        }
    }
}

/// Dropping the tracker frees every remaining charge (pinned graph outputs,
/// values kept alive by `reuse: false`, anything live on an error path), so
/// a gauge shared across runs — a pool serving many jobs — doesn't
/// accumulate phantom live bytes. Peaks recorded earlier are unaffected.
impl<K> Drop for Liveness<K> {
    fn drop(&mut self) {
        if let Some(g) = &self.gauge {
            for (_, bytes) in self.charged.drain() {
                g.free(bytes as usize);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consume_counts_down_and_reports_death() {
        let mut uses = HashMap::new();
        uses.insert("a", 2usize);
        let mut live = Liveness::new(uses, None);
        assert_eq!(live.remaining(&"a"), 2);
        assert!(!live.consume(&"a"));
        assert!(live.consume(&"a"));
        assert!(!live.consume(&"a"), "dead keys never report again");
        assert_eq!(live.remaining(&"b"), 0);
    }

    #[test]
    fn charge_discharge_round_trips_through_gauge() {
        let g = MemGauge::new();
        let mut live = Liveness::new(HashMap::new(), Some(Arc::clone(&g)));
        live.charge("x", 100);
        live.charge("y", 40);
        assert_eq!(g.live_bytes(), 140);
        live.discharge(&"x");
        live.discharge(&"x"); // double-discharge is a no-op
        assert_eq!(g.live_bytes(), 40);
        assert_eq!(g.peak_bytes(), 140);
    }

    #[test]
    fn alias_ops_charge_zero() {
        assert!(is_alias_op(&OpKind::Reshape));
        assert!(is_alias_op(&OpKind::Identity));
        assert!(!is_alias_op(&OpKind::Relu));
        assert!(!is_alias_op(&OpKind::Transpose { perm: vec![] }));
    }
}
