//! Per-plan packed-weight cache: one map from a `transB` `Gemm` weight to
//! its `[k, n]` transpose.
//!
//! `Gemm` with `transB=1` (the layout every fully-connected layer uses) needs
//! its weight in `[k, n]` order so [`crate::kernels::gemm::mm`] can stream
//! rows. A weight buffer is Arc-backed, so it has a stable identity for as
//! long as any handle is alive: the transpose is materialized once per plan
//! and looked up by buffer pointer afterwards.
//!
//! ## Keying and safety
//!
//! Entries are keyed by `(buffer address, k, n)`. A raw address is only a
//! sound key if the allocation cannot be freed and reused while the entry
//! exists, so every entry *anchors* the source buffer with an `Arc` clone.
//! Copy-on-write keeps keys honest from the other direction: a shared buffer
//! is never mutated in place (`Tensor::data_mut` unshares first), so the
//! bytes behind a cached address can never change.
//!
//! The cache is carried by [`crate::ExecCtx`] and shared by `clone` — one
//! plan's workers (which all clone one context) share one cache, while
//! independent plans stay isolated.

use crate::tensor::Tensor;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    ptr: usize,
    k: usize,
    n: usize,
}

struct Entry {
    /// Keeps the source buffer alive so `Key::ptr` cannot be recycled by a
    /// later allocation while this entry exists.
    _anchor: Arc<Vec<f32>>,
    packed: Arc<Vec<f32>>,
}

/// Entry cap: a plan has one entry per distinct `Gemm` weight, so real
/// models sit far below this; a pathological caller (fresh weight buffers
/// every call) flushes rather than growing without bound.
const MAX_ENTRIES: usize = 512;

/// The `[k, n]` copies of `transB` weights, keyed by source buffer, with
/// hit/miss/race counters.
#[derive(Default)]
pub struct PackedWeightCache {
    entries: Mutex<HashMap<Key, Entry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    races: AtomicU64,
}

impl PackedWeightCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// The `[n, k]` (transB) weight `w` repacked as `[k, n]`, materialized on
    /// first use and shared afterwards.
    pub fn gemm_kn(&self, w: &Tensor<f32>, k: usize, n: usize) -> Arc<Vec<f32>> {
        let key = Key {
            ptr: w.data_ptr(),
            k,
            n,
        };
        if let Some(e) = self.entries.lock().expect("cache poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(&e.packed);
        }
        // Pack outside the lock: transposing a large weight under a shared
        // mutex would serialize every worker's first call.
        let wd = w.data();
        let mut t = vec![0.0f32; k * n];
        for j in 0..n {
            let wrow = &wd[j * k..(j + 1) * k];
            for (kk, &v) in wrow.iter().enumerate() {
                t[kk * n + j] = v;
            }
        }
        let packed = Arc::new(t);
        let mut entries = self.entries.lock().expect("cache poisoned");
        if entries.len() >= MAX_ENTRIES {
            entries.clear();
        }
        // Re-check under the lock: a racing worker may have inserted while
        // we packed outside it. The loser's transpose is redundant work but
        // must not count as a miss — `misses` is "how many times was this
        // weight materialized into the cache", and the answer stays 1.
        match entries.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.races.fetch_add(1, Ordering::Relaxed);
                Arc::clone(&e.get().packed)
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let e = v.insert(Entry {
                    _anchor: Arc::clone(w.data_arc()),
                    packed: Arc::clone(&packed),
                });
                Arc::clone(&e.packed)
            }
        }
    }

    /// `(hits, misses)` so far — a warmed plan should be all hits.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// First-call races lost so far: lookups that packed a weight but found
    /// another worker's entry already inserted when they re-took the lock.
    /// Each such call is also counted as a hit, never as a miss.
    pub fn races(&self) -> u64 {
        self.races.load(Ordering::Relaxed)
    }

    /// Number of distinct packed weights currently materialized.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache poisoned").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_lookup_hits_and_shares() {
        let cache = PackedWeightCache::new();
        let w = Tensor::new(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let p1 = cache.gemm_kn(&w, 3, 2);
        // [2,3] transB → [3,2]: columns of w become rows
        assert_eq!(p1.as_slice(), &[1., 4., 2., 5., 3., 6.]);
        let p2 = cache.gemm_kn(&w, 3, 2);
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn clones_share_the_entry_but_fresh_buffers_do_not() {
        let cache = PackedWeightCache::new();
        let w = Tensor::new(vec![2, 2], vec![1., 2., 3., 4.]).unwrap();
        let w2 = w.clone(); // same buffer
        let p1 = cache.gemm_kn(&w, 2, 2);
        let p2 = cache.gemm_kn(&w2, 2, 2);
        assert!(Arc::ptr_eq(&p1, &p2));
        // same bytes, different allocation → distinct entry
        let w3 = Tensor::new(vec![2, 2], vec![1., 2., 3., 4.]).unwrap();
        let p3 = cache.gemm_kn(&w3, 2, 2);
        assert_eq!(p1.as_slice(), p3.as_slice());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn racing_first_calls_count_one_miss() {
        // Regression: `gemm_kn` used to bump `misses` unconditionally after
        // re-locking, so every worker racing the first call counted a miss
        // (and the stats claimed the weight was packed N times).
        let cache = Arc::new(PackedWeightCache::new());
        let w = crate::value::Value::random_f32(vec![32, 48], 5)
            .f32()
            .unwrap()
            .clone();
        let threads = 8u64;
        let barrier = Arc::new(std::sync::Barrier::new(threads as usize));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (cache, w, barrier) = (Arc::clone(&cache), w.clone(), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    cache.gemm_kn(&w, 48, 32)
                })
            })
            .collect();
        let packs: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for p in &packs {
            assert!(Arc::ptr_eq(&packs[0], p), "all callers share one buffer");
        }
        let (hits, misses) = cache.stats();
        assert_eq!(misses, 1, "racing workers must materialize the weight once");
        assert_eq!(hits, threads - 1);
        assert!(cache.races() <= hits, "races are a subset of hits");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cow_mutation_cannot_poison_a_cached_key() {
        let cache = PackedWeightCache::new();
        let w = Tensor::new(vec![1, 2], vec![7., 8.]).unwrap();
        let p1 = cache.gemm_kn(&w, 2, 1);
        // The cache anchors the buffer, so data_mut must copy-on-write and
        // the mutated tensor gets a *new* address → new entry, old intact.
        let mut w2 = w.clone();
        w2.data_mut()[0] = 0.0;
        assert_ne!(w2.data_ptr(), w.data_ptr());
        let p2 = cache.gemm_kn(&w2, 2, 1);
        assert_eq!(p1.as_slice(), &[7., 8.]);
        assert_eq!(p2.as_slice(), &[0., 8.]);
    }
}
