//! Mutable adjacency-list graph for dynamic workloads.

use serde::{Deserialize, Serialize};

use crate::adj_pool::AdjPool;
use crate::csr::CsrGraph;
use crate::types::{Graph, VertexId};

/// A mutable undirected simple graph.
///
/// Supports the four mutations the paper's dynamic scenarios need — vertex
/// insertion, vertex removal, edge insertion, edge removal — while keeping
/// neighbour lists sorted so the migration heuristic's neighbour scans stay
/// cache-friendly and deterministic.
///
/// # Memory layout
///
/// Adjacency lives in an [`AdjPool`]: one flat arena of `VertexId`s with a
/// `{offset, len, cap}` span per vertex slot, instead of one heap `Vec`
/// per vertex. Every consumer still reads through
/// [`Graph::neighbors`]` -> &[VertexId]`, but a sequential sweep now walks
/// a single contiguous allocation and a random lookup costs one
/// indirection — CSR-like locality with mutability. Layout is invisible to
/// behaviour: lists stay sorted under churn, equality compares logical
/// lists only, and the snapshot codec encodes per-vertex lists, so wire
/// bytes are identical to the boxed-per-vertex representation's.
///
/// Removed vertices leave a *tombstone*: the id is never reused within one
/// graph's lifetime, mirroring how real systems (and the paper's Pregel-like
/// implementation) keep vertex identity stable across mutations.
///
/// # Example
///
/// ```
/// use apg_graph::{DynGraph, Graph};
///
/// let mut g = DynGraph::new();
/// let a = g.add_vertex();
/// let b = g.add_vertex();
/// assert!(g.add_edge(a, b));
/// assert_eq!(g.num_edges(), 1);
/// g.remove_vertex(b);
/// assert_eq!(g.num_edges(), 0);
/// assert!(!g.is_vertex(b));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DynGraph {
    adj: AdjPool,
    alive: Vec<bool>,
    num_live: usize,
    num_edges: usize,
}

impl DynGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assembles a graph from already-validated parts (the snapshot
    /// decoder's entry point; see `crate::persist`).
    pub(crate) fn from_raw_parts(
        adj: AdjPool,
        alive: Vec<bool>,
        num_live: usize,
        num_edges: usize,
    ) -> Self {
        debug_assert_eq!(adj.num_slots(), alive.len());
        DynGraph {
            adj,
            alive,
            num_live,
            num_edges,
        }
    }

    /// Creates a graph with `n` live, isolated vertices.
    pub fn with_vertices(n: usize) -> Self {
        DynGraph {
            adj: AdjPool::with_slots(n),
            alive: vec![true; n],
            num_live: n,
            num_edges: 0,
        }
    }

    /// Copies any [`Graph`] into a `DynGraph`: same slots, same liveness,
    /// same neighbour lists, so the copy of a `DynGraph` equals its source.
    ///
    /// The bulk constructor: one counting pass sizes the arena exactly,
    /// then each list is appended to it as one exact-fit span in slot order
    /// — no zero fill, search, shift or relocation per edge. It relies on
    /// the list contract stated on [`Graph`] and takes the live and edge
    /// counts from the source.
    pub fn from_graph<G: Graph>(g: &G) -> Self {
        let slots = 0..g.num_vertices() as VertexId;
        let total = slots.clone().map(|v| g.degree(v)).sum();
        let adj = AdjPool::from_lists(total, slots.clone().map(|v| g.neighbors(v)));
        let alive = slots.map(|v| g.is_vertex(v)).collect();
        DynGraph {
            adj,
            alive,
            num_live: g.num_live_vertices(),
            num_edges: g.num_edges(),
        }
    }

    /// Adds a new vertex and returns its id.
    pub fn add_vertex(&mut self) -> VertexId {
        let id = self.adj.push_slot() as VertexId;
        self.alive.push(true);
        self.num_live += 1;
        id
    }

    /// Removes vertex `v` and all incident edges.
    ///
    /// Returns `false` if `v` was already removed or never existed.
    pub fn remove_vertex(&mut self, v: VertexId) -> bool {
        if !self.is_vertex(v) {
            return false;
        }
        // Walk v's list by index: removing v from a neighbour's span never
        // moves v's own span (no relocation or compaction inside the loop).
        let degree = self.adj.len_of(v as usize);
        for i in 0..degree {
            let w = self.adj.neighbors(v as usize)[i];
            let removed = self.adj.remove_sorted(w as usize, v);
            debug_assert!(removed, "asymmetric adjacency at {{{v}, {w}}}");
        }
        self.adj.clear_slot(v as usize);
        self.adj.maybe_compact();
        self.num_edges -= degree;
        self.alive[v as usize] = false;
        self.num_live -= 1;
        true
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// Returns `false` (and changes nothing) for self-loops, dead endpoints,
    /// or already-present edges.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if u == v || !self.is_vertex(u) || !self.is_vertex(v) {
            return false;
        }
        if !self.adj.insert_sorted(u as usize, v) {
            return false;
        }
        let inserted = self.adj.insert_sorted(v as usize, u);
        debug_assert!(inserted, "asymmetric adjacency at {{{u}, {v}}}");
        self.num_edges += 1;
        self.adj.maybe_compact();
        true
    }

    /// Removes the undirected edge `{u, v}`.
    ///
    /// Returns `false` if the edge did not exist.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if u == v || !self.is_vertex(u) || !self.is_vertex(v) {
            return false;
        }
        if !self.adj.remove_sorted(u as usize, v) {
            return false;
        }
        let removed = self.adj.remove_sorted(v as usize, u);
        debug_assert!(removed, "asymmetric adjacency at {{{u}, {v}}}");
        self.num_edges -= 1;
        true
    }

    /// Whether the edge `{u, v}` exists.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.is_vertex(u)
            && self.is_vertex(v)
            && self.adj.neighbors(u as usize).binary_search(&v).is_ok()
    }

    /// Forces an adjacency-arena compaction, rebuilding the slab in slot
    /// order with tight spans.
    ///
    /// Compaction normally fires automatically once churn has turned more
    /// than half the arena into garbage; this entry point hands memory back
    /// eagerly (and restores perfect sequential-scan locality) at a moment
    /// the caller chooses, e.g. after a large deletion burst. Purely a
    /// layout operation — no observable behaviour changes.
    pub fn compact_adjacency(&mut self) {
        self.adj.compact();
    }

    /// Rewrites the slots a validated [`GraphDiff`](crate::GraphDiff)
    /// names and installs the pre-checked bookkeeping totals. Infallible
    /// by contract: callers run `GraphDiff::validate_against` first, so
    /// every list is sorted, symmetric in the final state, and consistent
    /// with `new_live`/`new_edges`.
    pub(crate) fn apply_validated_diff(
        &mut self,
        new_slots: usize,
        changed: &[crate::diff::ResolvedSlot],
        new_live: usize,
        new_edges: usize,
    ) {
        self.grow_slots_to(new_slots);
        for entry in changed {
            self.overwrite_slot(entry.slot, entry.alive, &entry.neighbors);
        }
        self.num_live = new_live;
        self.num_edges = new_edges;
        self.adj.maybe_compact();
    }

    /// Brings a stale copy up to date with `live`, the graph it was cloned
    /// from, by copying only `slots`: liveness and neighbour list of each
    /// listed slot, every slot `live` has allocated since, and the
    /// bookkeeping totals. `O(listed slots × degree)`, not `O(graph)` — how
    /// a checkpoint base follows the graph it shadows.
    ///
    /// `slots` must cover every slot whose liveness or adjacency differs
    /// between the two (a superset is fine, as is any order); the result
    /// then equals `live`.
    ///
    /// # Panics
    ///
    /// Panics if `live` has fewer slots than `self` (ids are never reused).
    pub fn sync_slots_from(&mut self, live: &DynGraph, slots: impl IntoIterator<Item = usize>) {
        let stale_slots = self.num_vertices();
        assert!(live.num_vertices() >= stale_slots, "live graph lost slots");
        self.grow_slots_to(live.num_vertices());
        let newborn = stale_slots..live.num_vertices();
        for slot in slots
            .into_iter()
            .filter(|&slot| slot < stale_slots)
            .chain(newborn)
        {
            self.overwrite_slot(slot, live.alive[slot], live.adj.neighbors(slot));
        }
        self.num_live = live.num_live;
        self.num_edges = live.num_edges;
        self.adj.maybe_compact();
    }

    /// Appends dead, empty slots until the slot space has `n` of them.
    fn grow_slots_to(&mut self, n: usize) {
        while self.adj.num_slots() < n {
            self.adj.push_slot();
            self.alive.push(false);
        }
    }

    /// Sets one slot's liveness and whole neighbour list. A dead slot
    /// releases its span (it never grows back).
    fn overwrite_slot(&mut self, slot: usize, alive: bool, neighbors: &[VertexId]) {
        if alive {
            self.adj.replace(slot, neighbors);
        } else {
            debug_assert!(neighbors.is_empty(), "dead slot {slot} given adjacency");
            self.adj.clear_slot(slot);
        }
        self.alive[slot] = alive;
    }

    /// Freezes the current live subgraph into a [`CsrGraph`].
    ///
    /// Tombstoned ids are preserved as isolated vertices so that ids remain
    /// stable between the two representations. The CSR offsets and targets
    /// are built directly from the borrowed neighbour spans — the graph's
    /// adjacency is read once, never cloned.
    pub fn to_csr(&self) -> CsrGraph {
        CsrGraph::from_sorted_neighbor_slices(self.adj.num_slots(), |v| self.adj.neighbors(v))
    }

    /// The full vertex-slot range `0..num_vertices()`, tombstones included.
    ///
    /// This is the domain the parallel execution layer shards: it depends
    /// only on how many ids were ever allocated, so a shard plan over it is
    /// stable across thread counts (pair with [`Graph::is_vertex`] to skip
    /// tombstones inside a shard).
    pub fn slot_range(&self) -> std::ops::Range<usize> {
        0..self.adj.num_slots()
    }

    /// Live vertices within a slot sub-range, ascending — the read-only
    /// shard view the parallel decision sweep iterates.
    ///
    /// # Panics
    ///
    /// Panics if `slots.end > num_vertices()`.
    pub fn live_in(&self, slots: std::ops::Range<usize>) -> impl Iterator<Item = VertexId> + '_ {
        self.alive[slots.clone()]
            .iter()
            .zip(slots)
            .filter_map(|(&alive, slot)| alive.then_some(slot as VertexId))
    }

    /// Audits the structural invariants: every list sorted, free of
    /// self-loops and symmetric over live endpoints, tombstones holding no
    /// adjacency, and the live and edge counts matching a recount.
    ///
    /// # Panics
    ///
    /// Panics when an invariant is violated.
    pub fn audit(&self) {
        let mut endpoints = 0usize;
        for v in 0..self.num_vertices() as VertexId {
            let list = self.adj.neighbors(v as usize);
            assert!(
                self.is_vertex(v) || list.is_empty(),
                "tombstone {v} has edges"
            );
            assert!(list.windows(2).all(|w| w[0] < w[1]), "unsorted list at {v}");
            for &w in list {
                assert!(w != v && self.is_vertex(w), "bad edge {v} -> {w}");
                assert!(self.has_edge(w, v), "asymmetric edge {v} -> {w}");
            }
            endpoints += list.len();
        }
        assert_eq!(endpoints, 2 * self.num_edges, "edge count drifted");
        let live = self.alive.iter().filter(|&&a| a).count();
        assert_eq!(live, self.num_live, "live count drifted");
    }

    /// Returns every undirected edge once, with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.adj.num_slots()).flat_map(move |u| {
            let u = u as VertexId;
            self.adj
                .neighbors(u as usize)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }
}

impl From<&CsrGraph> for DynGraph {
    fn from(g: &CsrGraph) -> Self {
        DynGraph::from_graph(g)
    }
}

impl Graph for DynGraph {
    fn num_vertices(&self) -> usize {
        self.adj.num_slots()
    }

    fn num_live_vertices(&self) -> usize {
        self.num_live
    }

    fn num_edges(&self) -> usize {
        self.num_edges
    }

    fn is_vertex(&self, v: VertexId) -> bool {
        (v as usize) < self.alive.len() && self.alive[v as usize]
    }

    /// Neighbours of `v` in ascending order.
    ///
    /// **Tombstone semantics:** calling this on a *removed* vertex returns
    /// the empty slice — [`DynGraph::remove_vertex`] strips the adjacency
    /// when it tombstones the id — so tombstones look like isolated
    /// vertices, never like their former selves. Ids that were never
    /// allocated (`v >= num_vertices()`) panic.
    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let list = self.adj.neighbors(v as usize);
        debug_assert!(
            self.alive[v as usize] || list.is_empty(),
            "tombstone {v} still holds adjacency"
        );
        list
    }

    /// Degree of `v`.
    ///
    /// **Tombstone semantics:** 0 for a removed vertex (its adjacency was
    /// stripped at removal); panics for ids that were never allocated.
    fn degree(&self, v: VertexId) -> usize {
        debug_assert!(
            self.alive[v as usize] || self.adj.len_of(v as usize) == 0,
            "tombstone {v} still holds adjacency"
        );
        self.adj.len_of(v as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_remove_edges() {
        let mut g = DynGraph::with_vertices(3);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(0, 1), "duplicate edge rejected");
        assert!(!g.add_edge(1, 0), "reverse duplicate rejected");
        assert!(!g.add_edge(1, 1), "self-loop rejected");
        assert_eq!(g.num_edges(), 1);
        assert!(g.remove_edge(1, 0));
        assert!(!g.remove_edge(0, 1));
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn remove_vertex_cleans_incident_edges() {
        let mut g = DynGraph::with_vertices(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(0, 3);
        g.add_edge(1, 2);
        assert!(g.remove_vertex(0));
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.num_live_vertices(), 3);
        assert!(!g.is_vertex(0));
        assert!(!g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
        // Operations on a tombstone are no-ops.
        assert!(!g.remove_vertex(0));
        assert!(!g.add_edge(0, 1));
    }

    #[test]
    fn ids_are_never_reused() {
        let mut g = DynGraph::new();
        let a = g.add_vertex();
        g.remove_vertex(a);
        let b = g.add_vertex();
        assert_ne!(a, b);
    }

    #[test]
    fn vertices_skips_tombstones() {
        let mut g = DynGraph::with_vertices(4);
        g.remove_vertex(1);
        let live: Vec<_> = g.vertices().collect();
        assert_eq!(live, vec![0, 2, 3]);
    }

    #[test]
    fn csr_round_trip_preserves_structure() {
        let mut g = DynGraph::with_vertices(5);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(3, 4);
        let csr = g.to_csr();
        assert_eq!(csr.num_edges(), 3);
        let back = DynGraph::from(&csr);
        assert_eq!(back.num_edges(), 3);
        assert_eq!(back.neighbors(1), g.neighbors(1));
    }

    #[test]
    fn tombstones_read_as_isolated() {
        let mut g = DynGraph::with_vertices(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.remove_vertex(1);
        // Documented semantics: neighbors/degree on a tombstone are empty/0.
        assert_eq!(g.neighbors(1), &[] as &[VertexId]);
        assert_eq!(g.degree(1), 0);
        assert!(!g.is_vertex(1));
    }

    #[test]
    fn live_in_matches_vertices_per_shard() {
        let mut g = DynGraph::with_vertices(10);
        g.remove_vertex(2);
        g.remove_vertex(7);
        assert_eq!(g.slot_range(), 0..10);
        let stitched: Vec<VertexId> = g.live_in(0..5).chain(g.live_in(5..10)).collect();
        let whole: Vec<VertexId> = g.vertices().collect();
        assert_eq!(stitched, whole);
        assert_eq!(g.live_in(2..3).count(), 0);
    }

    #[test]
    fn neighbors_stay_sorted_under_churn() {
        let mut g = DynGraph::with_vertices(10);
        for v in [5, 2, 9, 1, 7] {
            g.add_edge(0, v);
        }
        assert_eq!(g.neighbors(0), &[1, 2, 5, 7, 9]);
        g.remove_edge(0, 5);
        assert_eq!(g.neighbors(0), &[1, 2, 7, 9]);
        g.audit();
    }

    #[test]
    #[should_panic(expected = "edge count drifted")]
    fn audit_catches_a_drifted_edge_count() {
        let mut g = DynGraph::with_vertices(3);
        g.add_edge(0, 1);
        g.remove_vertex(2);
        g.audit();
        g.num_edges += 1;
        g.audit();
    }

    #[test]
    fn equality_is_layout_invariant() {
        // Build the same logical graph twice: once via bulk construction,
        // once via churn heavy enough to relocate spans and compact.
        let mut churned = DynGraph::with_vertices(6);
        for u in 0..6u32 {
            for w in (u + 1)..6 {
                churned.add_edge(u, w);
            }
        }
        for u in 0..6u32 {
            for w in (u + 1)..6 {
                if (u + w) % 2 == 0 {
                    churned.remove_edge(u, w);
                }
            }
        }
        churned.compact_adjacency();

        let mut fresh = DynGraph::with_vertices(6);
        for u in 0..6u32 {
            for w in (u + 1)..6 {
                if (u + w) % 2 != 0 {
                    fresh.add_edge(u, w);
                }
            }
        }
        assert_eq!(churned, fresh);
        fresh.remove_vertex(3);
        assert_ne!(churned, fresh);
    }
}
