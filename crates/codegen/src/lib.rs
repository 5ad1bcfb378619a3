//! # ramiel-codegen
//!
//! Generates **readable, runnable PyTorch + Python** from a clustered
//! dataflow graph — the paper's headline differentiator ("contrary to other
//! work, we generate readable and executable parallel Pytorch+Python code").
//!
//! [`generate_parallel`] implements Algorithm 4 over a
//! [`HyperClustering`](ramiel_cluster::HyperClustering): each
//! (hyper)cluster becomes a Python method; every cross-cluster tensor
//! instance becomes a `queues[...].put(...)` in the producer and a matching
//! `queues[...].get()` in the consumer; node outputs get fresh SSA names;
//! each node lowers to the equivalent `torch` call. A `__main__` harness
//! forks one `multiprocessing.Process` per cluster (the paper avoids Python
//! threads because of the GIL). It is the one parallel generator: a
//! clustering is emitted as its batch-1 hyperclustering
//! (`hypercluster(&c, 1)`), whose module names no sample; past batch 1
//! (Section III-E) every SSA name, queue key, input and result carries its
//! sample index.
//!
//! [`generate_sequential`] emits the single-core reference version the paper
//! uses as its baseline ("to ensure completeness … a single core
//! non-parallel version of the code is also generated").

mod pyop;
mod python;

pub use python::{generate_parallel, generate_sequential};

use std::collections::HashMap;

/// Maps IR tensor names to valid, unique Python identifiers (the paper's
/// "new SSA-name for the output variable").
#[derive(Debug, Default)]
struct SsaNamer {
    assigned: HashMap<String, String>,
    used: std::collections::HashSet<String>,
    counter: usize,
}

impl SsaNamer {
    fn new() -> Self {
        Self::default()
    }

    /// The Python identifier for an IR tensor name (stable per name).
    fn name(&mut self, tensor: &str) -> String {
        if let Some(n) = self.assigned.get(tensor) {
            return n.clone();
        }
        let mut base: String = tensor
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        if base
            .chars()
            .next()
            .map(|c| c.is_ascii_digit())
            .unwrap_or(true)
        {
            base.insert(0, 'v');
        }
        let mut candidate = base.clone();
        while !self.used.insert(candidate.clone()) {
            candidate = format!("{base}_{}", self.counter);
            self.counter += 1;
        }
        self.assigned.insert(tensor.to_string(), candidate.clone());
        candidate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssa_names_are_valid_and_unique() {
        let mut n = SsaNamer::new();
        let a = n.name("conv_1:0");
        assert_eq!(a, "conv_1_0");
        // stable
        assert_eq!(n.name("conv_1:0"), a);
        // collision gets a suffix
        let b = n.name("conv_1.0");
        assert_ne!(a, b);
        // leading digit prefixed
        let c = n.name("0weird");
        assert!(c.starts_with('v'));
    }
}
