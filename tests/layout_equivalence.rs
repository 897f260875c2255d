//! Layout-equivalence regression suite: the slab-backed `DynGraph`
//! adjacency must behave exactly like the boxed `Vec<Vec<_>>` layout it
//! replaced, under arbitrary batched churn — tombstones, re-additions and
//! forced compaction included. The slab is a memory layout, not a graph
//! semantics change and not a wire-format change, so this file also pins
//! the persisted format version.

use proptest::prelude::*;

use apg::graph::delta::DeltaTarget;
use apg::graph::{gen, CsrGraph, DynGraph, Graph, UpdateBatch, VertexId};

/// The pre-slab adjacency layout — one heap allocation per vertex — kept
/// as an executable reference model of `DynGraph`'s mutation semantics.
#[derive(Debug, Default)]
struct BoxedGraph {
    adj: Vec<Vec<VertexId>>,
    alive: Vec<bool>,
    num_edges: usize,
}

impl BoxedGraph {
    fn with_vertices(n: usize) -> Self {
        BoxedGraph {
            adj: vec![Vec::new(); n],
            alive: vec![true; n],
            num_edges: 0,
        }
    }

    fn is_live(&self, v: VertexId) -> bool {
        (v as usize) < self.alive.len() && self.alive[v as usize]
    }

    fn insert_sorted(list: &mut Vec<VertexId>, w: VertexId) -> bool {
        match list.binary_search(&w) {
            Ok(_) => false,
            Err(i) => {
                list.insert(i, w);
                true
            }
        }
    }

    fn remove_sorted(list: &mut Vec<VertexId>, w: VertexId) -> bool {
        match list.binary_search(&w) {
            Ok(i) => {
                list.remove(i);
                true
            }
            Err(_) => false,
        }
    }
}

impl DeltaTarget for BoxedGraph {
    fn delta_add_vertex(&mut self) -> VertexId {
        let id = self.adj.len() as VertexId;
        self.adj.push(Vec::new());
        self.alive.push(true);
        id
    }

    fn delta_add_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if u == v || !self.is_live(u) || !self.is_live(v) {
            return false;
        }
        if !Self::insert_sorted(&mut self.adj[u as usize], v) {
            return false;
        }
        Self::insert_sorted(&mut self.adj[v as usize], u);
        self.num_edges += 1;
        true
    }

    fn delta_remove_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if u == v || !self.is_live(u) || !self.is_live(v) {
            return false;
        }
        if !Self::remove_sorted(&mut self.adj[u as usize], v) {
            return false;
        }
        Self::remove_sorted(&mut self.adj[v as usize], u);
        self.num_edges -= 1;
        true
    }

    fn delta_remove_vertex(&mut self, v: VertexId) -> Option<usize> {
        if !self.is_live(v) {
            return None;
        }
        let nbrs = std::mem::take(&mut self.adj[v as usize]);
        for &w in &nbrs {
            Self::remove_sorted(&mut self.adj[w as usize], v);
        }
        self.num_edges -= nbrs.len();
        self.alive[v as usize] = false;
        Some(nbrs.len())
    }
}

/// Asserts the slab graph and the boxed reference agree slot-for-slot.
fn assert_same(slab: &DynGraph, boxed: &BoxedGraph) {
    assert_eq!(slab.num_vertices(), boxed.adj.len());
    assert_eq!(slab.num_edges(), boxed.num_edges);
    for v in 0..boxed.adj.len() as VertexId {
        assert_eq!(slab.is_vertex(v), boxed.is_live(v), "liveness at slot {v}");
        assert_eq!(
            slab.neighbors(v),
            boxed.adj[v as usize].as_slice(),
            "adjacency at slot {v}"
        );
    }
}

/// Turns a fuzzed op-stream into `UpdateBatch`es of at most `chunk` deltas
/// (same idiom as `proptest_invariants.rs`).
fn batches_from_ops(ops: &[(u8, u32, u32)], base_slots: usize, chunk: usize) -> Vec<UpdateBatch> {
    let mut out = Vec::new();
    let mut batch = UpdateBatch::new();
    let mut slots = base_slots;
    for &(op, a, b) in ops {
        let range = (slots + batch.num_new_vertices()).max(1) as u32;
        match op {
            0 => {
                batch.add_vertex(vec![a % range]);
            }
            1 => batch.add_edge(a % range, b % range),
            2 => batch.remove_edge(a % range, b % range),
            3 => batch.remove_vertex(a % range),
            _ => {
                let n = batch.num_new_vertices();
                if n >= 2 {
                    batch.connect_new(a as usize % n, b as usize % n);
                }
            }
        }
        if batch.len() >= chunk {
            slots += batch.num_new_vertices();
            out.push(std::mem::take(&mut batch));
        }
    }
    if !batch.is_empty() {
        out.push(batch);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batched churn — vertex/edge adds, removals into tombstones, edges
    /// into freed slots — produces the same graph and the same
    /// `ApplyReport` in both layouts, with forced slab compaction
    /// interleaved mid-sequence so relocation/garbage-reclaim paths are
    /// exercised, not just the append path.
    #[test]
    fn slab_graph_matches_boxed_reference(
        ops in proptest::collection::vec((0u8..5, 0u32..48, 0u32..48), 1..220),
        base in 1usize..12,
        compact_every in 1usize..4,
    ) {
        let mut slab = DynGraph::with_vertices(base);
        let mut boxed = BoxedGraph::with_vertices(base);
        for (i, batch) in batches_from_ops(&ops, base, 11).into_iter().enumerate() {
            let slab_report = batch.apply(&mut slab);
            let boxed_report = batch.apply_to(&mut boxed);
            prop_assert_eq!(&slab_report, &boxed_report, "reports diverged at batch {}", i);
            if i % compact_every == 0 {
                slab.compact_adjacency();
            }
            assert_same(&slab, &boxed);
        }
    }

    /// `compact_adjacency` is observation-free: logical equality (`==`),
    /// every neighbour slice and the edge/vertex counts are unchanged by a
    /// forced compaction at any point in a mutation history.
    #[test]
    fn compaction_is_unobservable(
        ops in proptest::collection::vec((0u8..5, 0u32..40, 0u32..40), 1..120),
        base in 1usize..10,
    ) {
        let mut compacted = DynGraph::with_vertices(base);
        let mut untouched = DynGraph::with_vertices(base);
        for batch in batches_from_ops(&ops, base, 7) {
            batch.apply(&mut compacted);
            batch.apply(&mut untouched);
            compacted.compact_adjacency();
            prop_assert_eq!(&compacted, &untouched, "compaction changed the logical graph");
        }
    }
}

/// The graph the bulk copy must reproduce, built the slow way: one
/// `add_edge` per edge onto `n` live slots, then the source's removals.
fn replayed<G: Graph>(g: &G) -> DynGraph {
    let n = g.num_vertices() as VertexId;
    let mut replay = DynGraph::with_vertices(n as usize);
    for v in 0..n {
        for &w in g.neighbors(v) {
            if w > v {
                assert!(
                    replay.add_edge(v, w),
                    "source lists edge {{{v}, {w}}} twice"
                );
            }
        }
    }
    for v in (0..n).filter(|&v| !g.is_vertex(v)) {
        replay.remove_vertex(v);
    }
    replay
}

/// Asserts `DynGraph::from_graph(g)` is the replayed graph, count for
/// count, and freezes to `frozen`, the source's own CSR.
fn assert_copy_equals_replay<G: Graph>(g: &G, frozen: &CsrGraph) {
    let copy = DynGraph::from_graph(g);
    assert_eq!(copy, replayed(g));
    assert_eq!(copy.num_live_vertices(), g.num_live_vertices());
    assert_eq!(copy.num_edges(), g.num_edges());
    assert_eq!(&copy.to_csr(), frozen);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The bulk copy of a fuzzed `CsrGraph` (duplicate and loop edges in
    /// the input list, isolated vertices) equals the per-edge replay and
    /// freezes back to the same CSR.
    #[test]
    fn bulk_copy_of_a_csr_equals_the_edge_replay(
        n in 1usize..40,
        edges in proptest::collection::vec((0u32..40, 0u32..40), 0..160),
    ) {
        let edges: Vec<_> = edges
            .into_iter()
            .map(|(u, v)| (u % n as u32, v % n as u32))
            .collect();
        let csr = CsrGraph::from_edges(n, &edges);
        assert_copy_equals_replay(&csr, &csr);
        prop_assert_eq!(DynGraph::from(&csr), DynGraph::from_graph(&csr));
    }

    /// The bulk copy of a churned `DynGraph` — tombstones, newborn slots,
    /// spans relocated past each other, optionally compacted — equals the
    /// source itself and the per-edge replay plus the source's removals.
    #[test]
    fn bulk_copy_of_a_churned_graph_equals_the_edge_replay(
        ops in proptest::collection::vec((0u8..5, 0u32..48, 0u32..48), 1..220),
        base in 1usize..12,
        compact in 0u8..2,
    ) {
        let mut churned = DynGraph::with_vertices(base);
        for batch in batches_from_ops(&ops, base, 11) {
            batch.apply(&mut churned);
        }
        if compact == 1 {
            churned.compact_adjacency();
        }
        assert_copy_equals_replay(&churned, &churned.to_csr());
        prop_assert_eq!(&DynGraph::from_graph(&churned), &churned);
    }
}

/// The degree-prepass CSR import produces exactly the CSR's adjacency and
/// round-trips back to an identical CSR.
#[test]
fn csr_round_trip_preserves_adjacency() {
    let csr = gen::holme_kim(2_000, 6, 0.2, 9);
    let dyn_graph = DynGraph::from(&csr);
    assert_eq!(dyn_graph.num_vertices(), csr.num_vertices());
    assert_eq!(dyn_graph.num_edges(), csr.num_edges());
    for v in 0..csr.num_vertices() as VertexId {
        assert_eq!(dyn_graph.neighbors(v), csr.neighbors(v));
    }
    assert_eq!(dyn_graph.to_csr(), csr);
}

/// A scale-free burst followed by a deletion wave matches the boxed
/// reference even when the slab has relocated and compacted heavily —
/// the deterministic, larger-scale cousin of the proptest above.
#[test]
fn burst_and_deletion_wave_match_reference() {
    let csr: CsrGraph = gen::holme_kim(5_000, 8, 0.1, 31);
    let n = csr.num_vertices();
    let mut slab = DynGraph::from(&csr);
    let mut boxed = BoxedGraph::with_vertices(n);
    let mut seed_batch = UpdateBatch::new();
    for v in 0..n as VertexId {
        for &w in csr.neighbors(v) {
            if w > v {
                seed_batch.add_edge(v, w);
            }
        }
    }
    seed_batch.apply_to(&mut boxed);

    let mut churn = UpdateBatch::new();
    for v in (0..n as VertexId).step_by(3) {
        churn.remove_vertex(v);
    }
    for v in (1..n as VertexId).step_by(5) {
        if let Some(&w) = csr.neighbors(v).first() {
            churn.remove_edge(v, w);
        }
    }
    let a = churn.add_vertex(vec![1, 4]);
    let b = churn.add_vertex(vec![7]);
    churn.connect_new(a, b);
    let slab_report = churn.apply(&mut slab);
    let boxed_report = churn.apply_to(&mut boxed);
    assert_eq!(slab_report, boxed_report);
    slab.compact_adjacency();
    assert_same(&slab, &boxed);
}

/// The slab rework is layout-only: the persisted snapshot format must not
/// move as a side effect of an in-memory layout change. Bumping this
/// constant requires re-blessing the golden fixtures (see
/// `persist_fixtures.rs`) — v5 is the format without the settings no caller
/// varied (placement policy, drain floor, the runner's `record` flag) and
/// without the checkpoint's recorded replay log; an *intentional* bump,
/// re-blessed with it.
#[test]
fn wire_format_version_unchanged() {
    assert_eq!(apg::persist::format::VERSION, 5);
}
