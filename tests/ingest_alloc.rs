//! A stopwatch-free guard that ingesting a newborn vertex allocates
//! nothing of its own.
//!
//! Applying a growth batch appends slots, labels and list entries to
//! buffers that grow by doubling, so a whole batch costs a handful of
//! allocations however many vertices it adds. Anything built per newborn —
//! a capacity model to read one partition's limit, a scratch list — shows
//! up as one allocation per vertex. A `#[global_allocator]` wrapper counts
//! allocation **calls** (a byte count would hide many small buffers under
//! one large doubling), and the bound sits far below one per newborn.
//!
//! This binary holds exactly one test, so nothing else allocates into the
//! counter while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use apg::core::{AdaptiveConfig, AdaptivePartitioner};
use apg::graph::{gen, DynGraph, Graph};
use apg::partition::InitialStrategy;
use apg::streams::{PowerLawGrowth, StreamSource};

struct CountingAllocator;

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) since process
/// start.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocation calls `f` made, and its result.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

const NEWBORNS: usize = 500;
const EDGES_PER_NEWBORN: usize = 8;

/// At most this many allocations per applied batch: buffer doublings (the
/// graph's slot, liveness and arena vectors, the partitioning's labels, the
/// per-slot marks, the report's id list), each at most once or twice.
const ALLOCATIONS_PER_BATCH: usize = 32;

#[test]
fn a_growth_batch_allocates_per_buffer_not_per_newborn() {
    // The benchmark's growth set-up in miniature: a converged power law
    // growing by preferential attachment, one batch per iteration.
    let graph = gen::holme_kim(4_000, EDGES_PER_NEWBORN, 0.1, 42);
    let cfg = AdaptiveConfig::builder(8).build().unwrap();
    let mut p = AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &cfg, 42);
    p.run_to_convergence();
    let mut source = PowerLawGrowth::new(
        &DynGraph::from_graph(&graph),
        EDGES_PER_NEWBORN,
        NEWBORNS,
        7,
    );

    let mut counts = Vec::new();
    for _ in 0..4 {
        let batch = source.next_batch().expect("growth never ends");
        let (allocations, report) = allocations_of(|| p.apply_batch(&batch));
        assert_eq!(report.new_vertices.len(), NEWBORNS);
        assert!(report.edges_added >= NEWBORNS * (EDGES_PER_NEWBORN - 1));
        counts.push(allocations);
        p.iterate();
    }
    p.audit();
    assert_eq!(p.graph().num_live_vertices(), 4_000 + 4 * NEWBORNS);
    assert!(
        counts.iter().all(|&n| n <= ALLOCATIONS_PER_BATCH),
        "allocation calls per {NEWBORNS}-newborn batch: {counts:?} (bound {ALLOCATIONS_PER_BATCH})"
    );
}
