//! An allocation budget for one model load: `Server::load_onnx` of a file,
//! from the read to the installed plan, counted by a global allocator.
//!
//! A load resolves every tensor name once — the importer's adjacency gives
//! each a dense id that validation, shape inference and the plan's slot
//! program all index — and moves each weight into the plan's
//! table once. A pass that builds its own name map or set again, clones a
//! `TensorInfo` per operand, or re-keys the weights by name pays about one
//! allocation per tensor and breaks the budget on NASNet's 1,356 nodes.
//!
//! Only the loading thread is counted: the lane's collector starts on its
//! own thread and builds the worker pool there. Release builds only: debug
//! builds re-run shape inference and other invariant checks on the load
//! path. One test only: a second test would run beside it.

use ramiel_models::{build, ModelConfig, ModelKind};
use ramiel_onnx::export_model;
use ramiel_serve::{ServeConfig, Server, Source};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Allocations (`alloc`, `alloc_zeroed` and `realloc` calls) made by
/// threads that have counting on.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Relaxed);
    }
}

struct Counting;

// SAFETY: every method forwards its own arguments to `System`, so the
// `GlobalAlloc` contract `System` keeps is kept unchanged; the counter reads
// a const-initialized thread-local `Cell` (no allocation, no destructor) and
// touches none of the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations one `Server::load_onnx` of `kind`'s full model makes on the
/// loading thread, on a fresh server.
fn load_allocations(kind: ModelKind) -> usize {
    let path = std::env::temp_dir().join(format!(
        "ramiel-load-alloc-{}-{}.onnx",
        kind.name(),
        std::process::id()
    ));
    std::fs::write(&path, export_model(&build(kind, &ModelConfig::full()))).unwrap();
    let server = Server::new(ServeConfig::default());
    let source = Source::File(path.to_str().unwrap());
    let before = ALLOCATIONS.load(Relaxed);
    COUNTING.with(|c| c.set(true));
    let loaded = server.load_onnx(kind.name(), source, false);
    COUNTING.with(|c| c.set(false));
    let allocations = ALLOCATIONS.load(Relaxed) - before;
    loaded.unwrap();
    server.shutdown();
    std::fs::remove_file(&path).ok();
    allocations
}

#[cfg_attr(
    debug_assertions,
    ignore = "release only: debug builds add invariant checks"
)]
#[test]
fn a_load_allocates_within_its_budget() {
    for (kind, budget) in [(ModelKind::NasNet, 34_000), (ModelKind::Bert, 15_500)] {
        let allocations = load_allocations(kind);
        println!("{}: {allocations} allocations per load", kind.name());
        assert!(
            allocations <= budget,
            "{}: a load made {allocations} allocations, over the budget of {budget}",
            kind.name()
        );
    }
}
