//! A stopwatch-free guard that serving costs O(visited), not O(graph).
//!
//! A query that discovers a few hundred vertices must not pay for the
//! hundred thousand it never looks at. Timing cannot pin that on a shared
//! machine; allocation can: a `#[global_allocator]` wrapper counts the
//! **cumulative** bytes requested (a peak would miss a per-query buffer,
//! which is freed before the next query allocates its own), and the bounds
//! below sit two orders of magnitude under what one graph-sized buffer per
//! query costs.
//!
//! This binary holds exactly one test, so nothing else allocates into the
//! counter while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use apg::graph::{DynGraph, Graph, VertexId};
use apg::partition::Partitioning;
use apg::prelude::{Query, QueryMix, QueryRouter, QueryWorkload};

struct CountingAllocator;

/// Bytes requested since process start, frees not subtracted.
static ALLOCATED_BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Bytes `f` allocated, and its result.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATED_BYTES.load(Ordering::Relaxed) - before, out)
}

const SLOTS: usize = 120_000;
const QUERIES: usize = 2_000;

/// A ring lattice (every vertex linked to the next five) with a long-range
/// chord per vertex: degree ~12, 2-hop neighbourhoods of ~100 vertices
/// spread over the whole slot range.
fn lattice() -> DynGraph {
    let n = SLOTS as u64;
    let mut g = DynGraph::with_vertices(SLOTS);
    for v in 0..n {
        for step in 1..=5 {
            g.add_edge(v as VertexId, ((v + step) % n) as VertexId);
        }
        g.add_edge(v as VertexId, ((v * 7_919 + 13) % n) as VertexId);
    }
    g
}

#[test]
fn serving_allocates_in_proportion_to_what_it_visits() {
    let graph = lattice();
    let slots = graph.num_vertices();
    assert!(slots >= 100_000);
    let assignment = Partitioning::from_assignment((0..slots).map(|v| (v % 8) as u16).collect(), 8);
    let router = QueryRouter::new(&graph, &assignment);

    // All k-hop, depth 2: every query runs the traversal kernel.
    let workload = QueryWorkload::new(QueryMix::Uniform, QUERIES, 7)
        .khop_depth(2)
        .weights(0, 0, 1);
    let mut rounds = Vec::new();
    for parallelism in [1, 2] {
        let (bytes, stats) = allocated_by(|| router.serve_round(&workload, 3, parallelism));
        assert_eq!(stats.queries, QUERIES);
        assert_eq!(stats.khops, QUERIES);
        assert!(
            stats.hops > 50 * QUERIES,
            "only {} hops: the round is too quiet to prove anything",
            stats.hops
        );
        assert!(
            bytes < 32 * slots,
            "serve_round at parallelism {parallelism} allocated {bytes} bytes for {QUERIES} \
             queries over {slots} slots: a graph-sized buffer per query is back"
        );
        rounds.push(stats);
    }
    assert_eq!(rounds[0], rounds[1]);

    let query = Query::KHop {
        anchor: 60_000,
        k: 2,
    };
    let (bytes, outcome) = allocated_by(|| router.answer(&query));
    assert!(outcome.found);
    assert!(
        (50..1_000).contains(&outcome.hops),
        "{} hops: not the small query this bound is about",
        outcome.hops
    );
    assert!(
        bytes < slots / 2,
        "one {}-hop query allocated {bytes} bytes over {slots} slots",
        outcome.hops
    );
}
