//! A stopwatch-free guard that a steady-state iteration allocates per
//! phase, not per shard.
//!
//! The decision sweep fans out over one work item per dirtied shard. Its
//! kernels and its outcome buffers (proposals, candidates, retirees) are
//! kept across iterations, so a growth step's iteration — which sweeps the
//! shards a batch of newborns touched, tens of them on a large graph —
//! allocates a fixed handful of work lists, plus at most one per parked
//! pair, whatever the shard count.
//! Anything rebuilt per shard shows up as several allocations per shard
//! swept: three buffers, each grown by doubling. A `#[global_allocator]`
//! wrapper counts allocation **calls**, and the bound sits far below what
//! rebuilding the outcomes costs at the shard counts measured (~200 calls
//! per iteration at 25 shards).
//!
//! This binary holds exactly one test, so nothing else allocates into the
//! counter while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use apg::core::{AdaptiveConfig, AdaptivePartitioner};
use apg::graph::{gen, DynGraph};
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

const K: usize = 8;
const VERTICES: usize = 100_000;
const EDGES_PER_NEWBORN: usize = 8;
const NEWBORNS: usize = 500;

/// Shards every measured iteration must sweep, so that rebuilding the
/// outcomes per shard (~9 allocation calls each) costs well over twice
/// the bound.
const MIN_SHARDS_SWEPT: usize = 20;

/// At most this many allocation calls per iteration, however many shards
/// it sweeps: the decide phase's work list, admission's parked-queue merge,
/// the apply phase's shard plan, outcome and relabel record, the odd
/// growth of a kept buffer, and the settling of each `(home, candidate)`
/// queue that gained parked slots — one per ordered pair of partitions at
/// most (30–60 measured at `K = 8`).
const ALLOCATIONS_PER_ITERATION: usize = 16 + K * (K - 1);

#[test]
fn a_steady_state_iteration_allocates_per_phase_not_per_shard() {
    // The benchmark's growth set-up, scaled so a 500-newborn batch dirties
    // tens of 4096-slot shards: a converged power law growing by
    // preferential attachment on one thread.
    let graph = gen::holme_kim(VERTICES, EDGES_PER_NEWBORN, 0.1, 42);
    let cfg = AdaptiveConfig::builder(K as u16)
        .parallelism(1)
        .build()
        .unwrap();
    let mut p = AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &cfg, 42);
    p.run_to_convergence();
    let mut source = PowerLawGrowth::new(
        &DynGraph::from_graph(&graph),
        EDGES_PER_NEWBORN,
        NEWBORNS,
        7,
    );

    let mut measured = Vec::new();
    for batch in 0..6 {
        p.apply_batch(&source.next_batch().expect("growth never ends"));
        for _ in 0..2 {
            let (allocations, (_, profile)) = allocations_of(|| p.iterate_profiled());
            // The first batch grows the kept buffers to their working size.
            if batch > 0 {
                measured.push((profile.shards_swept, allocations));
            }
        }
    }
    p.audit();
    assert!(
        measured
            .iter()
            .all(|&(shards, _)| shards >= MIN_SHARDS_SWEPT),
        "(shards swept, allocation calls) per iteration: {measured:?}: too few shards swept"
    );
    assert!(
        measured
            .iter()
            .all(|&(_, allocations)| allocations <= ALLOCATIONS_PER_ITERATION),
        "(shards swept, allocation calls) per iteration: {measured:?} \
         (bound {ALLOCATIONS_PER_ITERATION})"
    );
}
