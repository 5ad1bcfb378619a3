//! An allocation budget for `import_model`, counted by a global allocator.
//!
//! Between the `.onnx` bytes and the returned graph each weight byte is
//! allocated once: the decoder borrows names and `raw_data` from the input
//! slice, and the one f32 conversion writes the payload the graph keeps. So
//! the bytes `import_model` allocates stay within 1.15× the payload it
//! returns, plus a measured allowance per node for the graph itself (names,
//! node lists, value_info) and the passes that check it. A decoder that
//! copies `raw_data` before converting it allocates the payload twice and
//! fails on BERT; one that also owns a copy of every name fails on NASNet's
//! 1,356 nodes.
//!
//! One test only: the counter is process-wide, so a second test running
//! beside it would be counted too.

use ramiel_ir::tensor_data::Payload;
use ramiel_ir::TensorData;
use ramiel_models::{build, ModelConfig, ModelKind};
use ramiel_onnx::{export_model, import_model};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Bytes handed out since start: every allocation's size, and what a
/// `realloc` grew by.
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every method forwards its own arguments to `System`, so the
// `GlobalAlloc` contract `System` keeps is kept unchanged; the counter is a
// relaxed atomic add that touches none of the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size.saturating_sub(layout.size()), Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes per node the import may allocate besides the payload: the decoded
/// message vectors, the graph's own strings and vectors, and the validate
/// and shape passes' temporaries. Measured past 1.15x the payload at 2.0
/// KB per node on BERT and 2.7 KB on NASNet, debug and release alike. A
/// decoder that owns a `String` per name and an inline tensor per attribute
/// needs 3.8 KB on NASNet.
const PER_NODE: usize = 3584;

fn payload_bytes(t: &TensorData) -> usize {
    match &t.payload {
        Payload::F32(v) => v.len() * 4,
        Payload::I64(v) => v.len() * 8,
        Payload::Bool(v) => v.len(),
    }
}

#[test]
fn import_allocates_each_weight_once_plus_a_per_node_allowance() {
    for kind in [ModelKind::Bert, ModelKind::NasNet] {
        let bytes = export_model(&build(kind, &ModelConfig::full()));
        let before = ALLOCATED.load(Relaxed);
        let graph = import_model(&bytes).unwrap();
        let allocated = ALLOCATED.load(Relaxed) - before;

        let payload: usize = graph.initializers.values().map(payload_bytes).sum();
        let nodes = graph.num_nodes();
        let budget = payload + payload * 15 / 100 + PER_NODE * nodes;
        println!(
            "{}: {allocated} B allocated for {payload} B of weights and {nodes} nodes \
             ({:.0} B per node past the payload); budget {budget} B",
            kind.name(),
            allocated.saturating_sub(payload) as f64 / nodes as f64,
        );
        assert!(
            allocated <= budget,
            "{}: import allocated {allocated} B, over the budget of {budget} B \
             (1.15 x {payload} B of weights + {PER_NODE} B x {nodes} nodes)",
            kind.name()
        );
    }
}
