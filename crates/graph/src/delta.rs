//! The canonical graph-mutation event model.
//!
//! Every way the graph changes — synthetic stream generators, the Pregel
//! engine's superstep mutations, churn injected by experiments — is
//! expressed as [`GraphDelta`] events grouped into [`UpdateBatch`]es. A
//! batch applies to a [`DynGraph`] deterministically (same batch, same base
//! graph, same result — always), reports what it did in an
//! [`ApplyReport`], and can be recorded into a [`DeltaLog`] for replay.
//!
//! This is the shape the paper's systems view takes: a stream of buffered
//! update batches interleaved with repartitioning rounds, rather than
//! ad-hoc mutation calls scattered through the code.
//!
//! # Id assignment
//!
//! [`GraphDelta::AddVertex`] does not carry an id: the vertex receives the
//! next free slot when the batch is applied, exactly as
//! [`DynGraph::add_vertex`] would assign it. Because slots are allocated
//! sequentially and never reused, producers that track their own dense id
//! space (the stream generators do) stay aligned with the graph as long as
//! every batch they emit is applied in order to a graph seeded with the
//! same initial population.
//!
//! Edges between two vertices added in the *same* batch are expressed with
//! [`GraphDelta::ConnectNew`], which names them by placeholder index (their
//! position among the batch's `AddVertex` events) — no future id needs to
//! be known at build time. Alternatively, since ids are deterministic, a
//! producer that knows the base slot count may reference an
//! earlier-in-batch vertex by its concrete future id from a later
//! `AddVertex`'s neighbour list; both spellings apply identically.
//!
//! # Example
//!
//! ```
//! use apg_graph::{DynGraph, Graph, UpdateBatch};
//!
//! let mut g = DynGraph::with_vertices(2);
//! let mut batch = UpdateBatch::new();
//! let a = batch.add_vertex(vec![0]); // new vertex, linked to existing 0
//! let b = batch.add_vertex(vec![1]);
//! batch.connect_new(a, b); // edge between the two new vertices
//! batch.add_edge(0, 1);
//! let report = batch.apply(&mut g);
//! assert_eq!(report.new_vertices, vec![2, 3]);
//! assert_eq!(report.edges_added, 4);
//! assert_eq!(g.num_edges(), 4);
//! ```

use serde::{Deserialize, Serialize};

use crate::dynamic::DynGraph;
use crate::types::{Graph, VertexId};

/// A single change to a dynamic graph.
///
/// Deltas are data, not actions: building one never touches a graph. They
/// take effect through [`UpdateBatch::apply`] (or the mirrored application
/// paths in `apg-core` / `apg-pregel`, which preserve these semantics while
/// maintaining their own incremental accounting).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum GraphDelta {
    /// Add a new vertex; its id is assigned at apply time (next free slot).
    /// `neighbors` lists existing vertices to connect it to — entries that
    /// are dead or unknown at apply time are skipped and counted as
    /// rejected, mirroring a stream racing with removals.
    AddVertex {
        /// Endpoints of the new vertex's initial edges.
        neighbors: Vec<VertexId>,
    },
    /// Connect two vertices added earlier in the *same batch*, by
    /// placeholder index (their position among the batch's `AddVertex`
    /// events).
    ConnectNew {
        /// Placeholder index of one endpoint.
        a: usize,
        /// Placeholder index of the other endpoint.
        b: usize,
    },
    /// Add the undirected edge `{u, v}` between existing vertices.
    AddEdge {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
    },
    /// Remove the undirected edge `{u, v}`.
    RemoveEdge {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
    },
    /// Remove a vertex and all its incident edges (the id becomes a
    /// tombstone and is never reused).
    RemoveVertex {
        /// The vertex to remove.
        vertex: VertexId,
    },
}

/// What applying a batch (or replaying a log) actually did.
///
/// Deltas that change nothing — duplicate edges, dead endpoints, unknown
/// ids, self-loops — are counted as `rejected` rather than failing the
/// whole batch: update streams legitimately race with removals, and the
/// paper's system tolerates exactly this.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ApplyReport {
    /// Ids assigned to the batch's new vertices, in event order.
    pub new_vertices: Vec<VertexId>,
    /// Vertices removed (tombstoned).
    pub vertices_removed: usize,
    /// Edges created, including a new vertex's initial edges.
    pub edges_added: usize,
    /// Edges removed, including edges dropped by vertex removal.
    pub edges_removed: usize,
    /// Deltas (or neighbour entries) that changed nothing.
    pub rejected: usize,
}

impl ApplyReport {
    /// Folds another report into this one (used when replaying a log).
    pub fn merge(&mut self, other: &ApplyReport) {
        self.new_vertices.extend_from_slice(&other.new_vertices);
        self.vertices_removed += other.vertices_removed;
        self.edges_added += other.edges_added;
        self.edges_removed += other.edges_removed;
        self.rejected += other.rejected;
    }
}

/// A mutable graph-like structure the delta model can apply onto.
///
/// There is exactly **one** application loop in the workspace —
/// [`UpdateBatch::apply_to`] — and every consumer (a bare [`DynGraph`],
/// `apg-core`'s partitioner with its incremental cut accounting,
/// `apg-pregel`'s engine with its worker placement) plugs into it through
/// this trait, so their application semantics cannot drift.
///
/// Implementations must mirror [`DynGraph`]'s mutation semantics: dense
/// sequential id allocation, duplicate/self-loop/dead-endpoint edges
/// rejected with `false`, vertex removal dropping incident edges.
pub trait DeltaTarget {
    /// Reads, and discards, what a coming mutation at `v` will read first,
    /// so its cache misses overlap the deltas applied meanwhile (see
    /// [`READ_AHEAD`]). `v` may be any id — dead, unknown, or not yet
    /// allocated — and must never panic. A pure hint: it changes nothing,
    /// and the default does nothing.
    fn delta_warm(&self, _v: VertexId) {}
    /// Allocates the next vertex slot and returns its id.
    fn delta_add_vertex(&mut self) -> VertexId;
    /// Adds the undirected edge `{u, v}`; `false` if it changed nothing.
    fn delta_add_edge(&mut self, u: VertexId, v: VertexId) -> bool;
    /// Removes the undirected edge `{u, v}`; `false` if absent.
    fn delta_remove_edge(&mut self, u: VertexId, v: VertexId) -> bool;
    /// Removes `v`, returning how many incident edges were dropped, or
    /// `None` if `v` was not a live vertex.
    fn delta_remove_vertex(&mut self, v: VertexId) -> Option<usize>;
}

impl DeltaTarget for DynGraph {
    fn delta_warm(&self, v: VertexId) {
        self.warm_slot(v);
    }

    fn delta_add_vertex(&mut self) -> VertexId {
        self.add_vertex()
    }

    fn delta_add_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        self.add_edge(u, v)
    }

    fn delta_remove_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        self.remove_edge(u, v)
    }

    fn delta_remove_vertex(&mut self, v: VertexId) -> Option<usize> {
        if !self.is_vertex(v) {
            return None;
        }
        let degree = self.degree(v);
        self.remove_vertex(v);
        Some(degree)
    }
}

/// How many deltas ahead of the one it applies [`UpdateBatch::apply_to`]
/// warms through [`DeltaTarget::delta_warm`].
///
/// On a graph larger than the last-level cache every edge to a random hub
/// misses twice, on the hub's span and on its list, and applying deltas
/// strictly one after another serialises those misses. Warming the slots
/// of delta `i + READ_AHEAD` before applying delta `i` keeps about that
/// many deltas' misses in flight at once: on a power-law growth stream,
/// 16 newborns are ~128 endpoint reads. On a graph that fits in cache the
/// warm hits and costs a few loads.
pub const READ_AHEAD: usize = 16;

impl GraphDelta {
    /// Warms every existing vertex this delta will touch. `ConnectNew`
    /// names only vertices born in the same batch, which are hot already.
    fn warm<T: DeltaTarget + ?Sized>(&self, target: &T) {
        match self {
            GraphDelta::AddVertex { neighbors } => {
                for &w in neighbors {
                    target.delta_warm(w);
                }
            }
            GraphDelta::AddEdge { u, v } | GraphDelta::RemoveEdge { u, v } => {
                target.delta_warm(*u);
                target.delta_warm(*v);
            }
            GraphDelta::RemoveVertex { vertex } => target.delta_warm(*vertex),
            GraphDelta::ConnectNew { .. } => {}
        }
    }
}

/// An ordered batch of [`GraphDelta`]s applied atomically between
/// repartitioning rounds (or supersteps).
///
/// Deltas apply **in the order they were scheduled**; there is no
/// adds-before-removals regrouping. Placeholder indices returned by
/// [`UpdateBatch::add_vertex`] are stable under [`UpdateBatch::extend`]
/// (the appended batch's placeholders are offset).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UpdateBatch {
    deltas: Vec<GraphDelta>,
    /// Count of `AddVertex` deltas, for placeholder accounting.
    num_new: usize,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a new vertex attached to `neighbors` (existing ids).
    /// Returns its placeholder index within this batch.
    pub fn add_vertex(&mut self, neighbors: Vec<VertexId>) -> usize {
        self.deltas.push(GraphDelta::AddVertex { neighbors });
        self.num_new += 1;
        self.num_new - 1
    }

    /// Schedules an edge between two vertices added earlier in *this*
    /// batch, by placeholder index.
    ///
    /// # Panics
    ///
    /// Panics if either placeholder has not been returned by
    /// [`UpdateBatch::add_vertex`] on this batch yet.
    pub fn connect_new(&mut self, a: usize, b: usize) {
        assert!(
            a < self.num_new && b < self.num_new,
            "placeholder out of range: ({a}, {b}) with {} new vertices",
            self.num_new
        );
        self.deltas.push(GraphDelta::ConnectNew { a, b });
    }

    /// Schedules an edge between existing vertices.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        self.deltas.push(GraphDelta::AddEdge { u, v });
    }

    /// Schedules an edge removal.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) {
        self.deltas.push(GraphDelta::RemoveEdge { u, v });
    }

    /// Schedules a vertex removal.
    pub fn remove_vertex(&mut self, v: VertexId) {
        self.deltas.push(GraphDelta::RemoveVertex { vertex: v });
    }

    /// Appends a raw delta.
    ///
    /// # Panics
    ///
    /// Panics if a [`GraphDelta::ConnectNew`] references a placeholder this
    /// batch has not allocated yet.
    pub fn push(&mut self, delta: GraphDelta) {
        match delta {
            GraphDelta::AddVertex { neighbors } => {
                self.add_vertex(neighbors);
            }
            GraphDelta::ConnectNew { a, b } => self.connect_new(a, b),
            other => self.deltas.push(other),
        }
    }

    /// The scheduled deltas, in application order.
    pub fn deltas(&self) -> &[GraphDelta] {
        &self.deltas
    }

    /// Number of scheduled deltas.
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// Whether the batch schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// Number of scheduled vertex additions.
    pub fn num_new_vertices(&self) -> usize {
        self.num_new
    }

    /// Number of scheduled vertex removals.
    pub fn num_vertex_removals(&self) -> usize {
        self.deltas
            .iter()
            .filter(|d| matches!(d, GraphDelta::RemoveVertex { .. }))
            .count()
    }

    /// Number of scheduled edge additions (`AddEdge` and `ConnectNew`
    /// events plus new vertices' initial neighbour entries).
    pub fn num_edge_additions(&self) -> usize {
        self.deltas
            .iter()
            .map(|d| match d {
                GraphDelta::AddVertex { neighbors } => neighbors.len(),
                GraphDelta::ConnectNew { .. } | GraphDelta::AddEdge { .. } => 1,
                _ => 0,
            })
            .sum()
    }

    /// Number of scheduled edge removals (vertex removals not included —
    /// how many edges those drop depends on the graph at apply time).
    pub fn num_edge_removals(&self) -> usize {
        self.deltas
            .iter()
            .filter(|d| matches!(d, GraphDelta::RemoveEdge { .. }))
            .count()
    }

    /// Appends `other` after this batch, **in place**: the receiver's
    /// buffer is extended (no clone, no rebuild), and `other`'s placeholder
    /// indices are offset past this batch's vertex additions so every
    /// `ConnectNew` keeps naming the vertices it named before.
    pub fn extend(&mut self, mut other: UpdateBatch) {
        let offset = self.num_new;
        if offset > 0 {
            for delta in &mut other.deltas {
                if let GraphDelta::ConnectNew { a, b } = delta {
                    *a += offset;
                    *b += offset;
                }
            }
        }
        self.num_new += other.num_new;
        self.deltas.append(&mut other.deltas);
    }

    /// Applies the batch to any [`DeltaTarget`], in scheduled order, and
    /// reports what changed.
    ///
    /// This is the **only** application loop: the partitioner's and the
    /// engine's batch paths both run through it. Application is
    /// deterministic: the same batch applied to structurally equal targets
    /// produces structurally equal targets and identical reports. Deltas
    /// that change nothing are counted as rejected, never errors.
    ///
    /// Before applying each delta it warms the slots of the delta
    /// [`READ_AHEAD`] places later, a read-only hint that cannot change
    /// what is applied.
    pub fn apply_to<T: DeltaTarget + ?Sized>(&self, target: &mut T) -> ApplyReport {
        let mut report = ApplyReport::default();
        let mut new_ids: Vec<VertexId> = Vec::with_capacity(self.num_new);
        for (i, delta) in self.deltas.iter().enumerate() {
            if let Some(ahead) = self.deltas.get(i + READ_AHEAD) {
                ahead.warm(target);
            }
            match delta {
                GraphDelta::AddVertex { neighbors } => {
                    let v = target.delta_add_vertex();
                    new_ids.push(v);
                    report.new_vertices.push(v);
                    for &w in neighbors {
                        if target.delta_add_edge(v, w) {
                            report.edges_added += 1;
                        } else {
                            report.rejected += 1;
                        }
                    }
                }
                GraphDelta::ConnectNew { a, b } => {
                    // Out-of-range placeholders cannot be built through the
                    // batch API, but a log that bypassed it (hand-edited,
                    // externally produced) must reject, not panic.
                    match (new_ids.get(*a), new_ids.get(*b)) {
                        (Some(&x), Some(&y)) if target.delta_add_edge(x, y) => {
                            report.edges_added += 1;
                        }
                        _ => report.rejected += 1,
                    }
                }
                GraphDelta::AddEdge { u, v } => {
                    if target.delta_add_edge(*u, *v) {
                        report.edges_added += 1;
                    } else {
                        report.rejected += 1;
                    }
                }
                GraphDelta::RemoveEdge { u, v } => {
                    if target.delta_remove_edge(*u, *v) {
                        report.edges_removed += 1;
                    } else {
                        report.rejected += 1;
                    }
                }
                GraphDelta::RemoveVertex { vertex } => match target.delta_remove_vertex(*vertex) {
                    Some(dropped_edges) => {
                        report.vertices_removed += 1;
                        report.edges_removed += dropped_edges;
                    }
                    None => report.rejected += 1,
                },
            }
        }
        report
    }

    /// Applies the batch to a bare graph — [`UpdateBatch::apply_to`] with
    /// `graph` as the target.
    pub fn apply(&self, graph: &mut DynGraph) -> ApplyReport {
        self.apply_to(graph)
    }
}

impl From<GraphDelta> for UpdateBatch {
    /// A single-delta batch. `ConnectNew` is batch-scoped and meaningless
    /// alone, so it panics here like it would in [`UpdateBatch::push`].
    fn from(delta: GraphDelta) -> Self {
        let mut batch = UpdateBatch::new();
        batch.push(delta);
        batch
    }
}

/// A recorded sequence of [`UpdateBatch`]es.
///
/// Because batch application is deterministic, replaying a log onto a
/// fresh graph with the same initial population reproduces the original
/// graph exactly — the foundation for snapshots, replication, and
/// reproducible dynamic-workload experiments.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeltaLog {
    batches: Vec<UpdateBatch>,
}

impl DeltaLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a batch at the end of the log.
    pub fn record(&mut self, batch: UpdateBatch) {
        self.batches.push(batch);
    }

    /// The recorded batches, oldest first.
    pub fn batches(&self) -> &[UpdateBatch] {
        &self.batches
    }

    /// Number of recorded batches.
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Total deltas across all recorded batches.
    pub fn total_deltas(&self) -> usize {
        self.batches.iter().map(UpdateBatch::len).sum()
    }

    /// Unwraps into the recorded batches, oldest first.
    pub fn into_batches(self) -> Vec<UpdateBatch> {
        self.batches
    }

    /// Replays every batch, in order, onto `graph`; returns the merged
    /// report.
    pub fn replay(&self, graph: &mut DynGraph) -> ApplyReport {
        let mut total = ApplyReport::default();
        for batch in &self.batches {
            total.merge(&batch.apply(graph));
        }
        total
    }
}

impl From<Vec<UpdateBatch>> for DeltaLog {
    /// A log over an existing batch sequence (oldest first).
    fn from(batches: Vec<UpdateBatch>) -> Self {
        DeltaLog { batches }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use super::*;

    /// The batch applied delta by delta through the graph's own mutators,
    /// with no read-ahead: what [`UpdateBatch::apply_to`] must equal.
    fn apply_one_by_one(graph: &mut DynGraph, batch: &UpdateBatch) -> ApplyReport {
        let mut report = ApplyReport::default();
        let count = |changed: bool, report: &mut ApplyReport| {
            if changed {
                report.edges_added += 1;
            } else {
                report.rejected += 1;
            }
        };
        for delta in batch.deltas() {
            match delta {
                GraphDelta::AddVertex { neighbors } => {
                    let v = graph.add_vertex();
                    report.new_vertices.push(v);
                    for &w in neighbors {
                        count(graph.add_edge(v, w), &mut report);
                    }
                }
                GraphDelta::ConnectNew { a, b } => {
                    let (x, y) = (report.new_vertices[*a], report.new_vertices[*b]);
                    count(graph.add_edge(x, y), &mut report);
                }
                GraphDelta::AddEdge { u, v } => count(graph.add_edge(*u, *v), &mut report),
                GraphDelta::RemoveEdge { u, v } => {
                    if graph.remove_edge(*u, *v) {
                        report.edges_removed += 1;
                    } else {
                        report.rejected += 1;
                    }
                }
                GraphDelta::RemoveVertex { vertex } => {
                    let degree = graph.is_vertex(*vertex).then(|| graph.degree(*vertex));
                    if graph.remove_vertex(*vertex) {
                        report.vertices_removed += 1;
                        report.edges_removed += degree.unwrap();
                    } else {
                        report.rejected += 1;
                    }
                }
            }
        }
        report
    }

    /// What a [`Watched`] target saw, in order.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Seen {
        /// `delta_warm(v)` while the graph had `slots` slots.
        Warm { v: VertexId, slots: usize },
        /// Any mutator call.
        Mutate,
    }

    /// A bare graph that logs every hook call.
    struct Watched {
        graph: DynGraph,
        seen: RefCell<Vec<Seen>>,
    }

    impl Watched {
        fn new(graph: DynGraph) -> Self {
            Watched {
                graph,
                seen: RefCell::new(Vec::new()),
            }
        }

        fn log(&self, event: Seen) {
            self.seen.borrow_mut().push(event);
        }
    }

    impl DeltaTarget for Watched {
        fn delta_warm(&self, v: VertexId) {
            let slots = self.graph.num_vertices();
            self.log(Seen::Warm { v, slots });
            self.graph.delta_warm(v);
        }

        fn delta_add_vertex(&mut self) -> VertexId {
            self.log(Seen::Mutate);
            self.graph.delta_add_vertex()
        }

        fn delta_add_edge(&mut self, u: VertexId, v: VertexId) -> bool {
            self.log(Seen::Mutate);
            self.graph.delta_add_edge(u, v)
        }

        fn delta_remove_edge(&mut self, u: VertexId, v: VertexId) -> bool {
            self.log(Seen::Mutate);
            self.graph.delta_remove_edge(u, v)
        }

        fn delta_remove_vertex(&mut self, v: VertexId) -> Option<usize> {
            self.log(Seen::Mutate);
            self.graph.delta_remove_vertex(v)
        }
    }

    /// Applies `batch` to a copy of `base` through the read-ahead loop and
    /// one by one, asserts both graphs and reports are equal, and returns
    /// what the read-ahead loop's target saw.
    fn assert_read_ahead_is_invisible(base: &DynGraph, batch: &UpdateBatch) -> Vec<Seen> {
        let mut watched = Watched::new(base.clone());
        let report = batch.apply_to(&mut watched);
        let mut reference = base.clone();
        assert_eq!(report, apply_one_by_one(&mut reference, batch));
        assert_eq!(watched.graph, reference);
        watched.graph.audit();
        watched.seen.into_inner()
    }

    /// A ring of `n` vertices.
    fn ring(n: usize) -> DynGraph {
        let mut g = DynGraph::with_vertices(n);
        for v in 0..n as VertexId {
            g.add_edge(v, (v + 1) % n as VertexId);
        }
        g
    }

    #[test]
    fn a_batch_shorter_than_the_window_warms_nothing() {
        let base = ring(8);
        let mut batch = UpdateBatch::new();
        let a = batch.add_vertex(vec![0, 3, 99]);
        let b = batch.add_vertex(vec![8, 5]);
        batch.connect_new(a, b);
        batch.add_edge(1, 5);
        batch.remove_edge(2, 3);
        batch.remove_vertex(6);
        batch.add_edge(6, 0);
        assert!(batch.len() < READ_AHEAD);
        let seen = assert_read_ahead_is_invisible(&base, &batch);
        assert!(seen.iter().all(|e| *e == Seen::Mutate), "{seen:?}");
    }

    #[test]
    fn a_newborn_named_inside_the_window_is_warmed_as_unallocated() {
        // Each newborn links to the previous one by its concrete future id,
        // as `PowerLawGrowth` emits: the warm of newborn j runs while newborn
        // j - 1 does not exist yet.
        let base = ring(16);
        let n = base.num_vertices() as VertexId;
        let mut batch = UpdateBatch::new();
        batch.add_vertex(vec![0]);
        for j in 1..3 * READ_AHEAD as VertexId {
            batch.add_vertex(vec![n + j - 1, j % n, n + j + 5]);
        }
        let seen = assert_read_ahead_is_invisible(&base, &batch);
        let unallocated = seen
            .iter()
            .filter(|e| matches!(e, Seen::Warm { v, slots } if *v as usize >= *slots))
            .count();
        // Every warm of a newborn (and of the never-born `n + j + 5`) names
        // a slot that does not exist yet.
        assert_eq!(unallocated, 2 * (2 * READ_AHEAD));
    }

    #[test]
    fn edges_at_a_tombstone_inside_the_window_reject_alike() {
        let base = ring(32);
        let mut batch = UpdateBatch::new();
        batch.remove_vertex(5);
        for _ in 0..READ_AHEAD / 2 {
            batch.add_edge(5, 9);
            batch.remove_edge(4, 5);
        }
        batch.add_vertex(vec![5, 6, 4]);
        batch.add_edge(6, 4);
        batch.remove_vertex(5);
        batch.add_edge(5, 5);
        assert!(batch.len() > READ_AHEAD);
        let seen = assert_read_ahead_is_invisible(&base, &batch);
        assert!(seen.contains(&Seen::Warm { v: 5, slots: 32 }));
        let mut reference = base.clone();
        let report = apply_one_by_one(&mut reference, &batch);
        assert_eq!((report.vertices_removed, report.edges_removed), (1, 2));
        assert_eq!(report.edges_added, 3);
        assert_eq!(report.rejected, READ_AHEAD + 3);
    }

    #[test]
    fn each_delta_past_the_window_is_warmed_once_ahead_of_time() {
        let base = DynGraph::with_vertices(200);
        let mut batch = UpdateBatch::new();
        let edges: Vec<(VertexId, VertexId)> = (0..40).map(|i| (i, 100 + i)).collect();
        for &(u, v) in &edges {
            batch.add_edge(u, v);
        }
        let seen = assert_read_ahead_is_invisible(&base, &batch);
        let mut expect = Vec::new();
        for i in 0..edges.len() {
            if let Some(&(u, v)) = edges.get(i + READ_AHEAD) {
                expect.push(Seen::Warm { v: u, slots: 200 });
                expect.push(Seen::Warm { v, slots: 200 });
            }
            expect.push(Seen::Mutate);
        }
        assert_eq!(seen, expect);
    }

    #[test]
    fn applies_in_scheduled_order() {
        let mut g = DynGraph::with_vertices(3);
        g.add_edge(0, 1);
        let mut batch = UpdateBatch::new();
        batch.remove_edge(0, 1);
        batch.add_edge(0, 1); // re-add after removal: order matters
        let report = batch.apply(&mut g);
        assert_eq!(report.edges_removed, 1);
        assert_eq!(report.edges_added, 1);
        assert!(g.has_edge(0, 1));
    }

    #[test]
    fn placeholders_resolve_to_assigned_ids() {
        let mut g = DynGraph::with_vertices(2);
        let mut batch = UpdateBatch::new();
        let a = batch.add_vertex(vec![0]);
        let b = batch.add_vertex(vec![]);
        batch.connect_new(a, b);
        let report = batch.apply(&mut g);
        assert_eq!(report.new_vertices, vec![2, 3]);
        assert!(g.has_edge(2, 3));
        assert!(g.has_edge(0, 2));
    }

    #[test]
    fn rejects_are_counted_not_fatal() {
        let mut g = DynGraph::with_vertices(3);
        g.remove_vertex(2);
        let mut batch = UpdateBatch::new();
        batch.add_edge(0, 2); // dead endpoint
        batch.add_edge(0, 0); // self loop
        batch.remove_edge(0, 1); // absent edge
        batch.remove_vertex(2); // already dead
        batch.add_vertex(vec![0, 2]); // one live, one dead neighbour
        let report = batch.apply(&mut g);
        assert_eq!(report.rejected, 5);
        assert_eq!(report.edges_added, 1);
        assert_eq!(report.new_vertices.len(), 1);
    }

    #[test]
    fn remove_vertex_counts_dropped_edges() {
        let mut g = DynGraph::with_vertices(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(0, 3);
        let mut batch = UpdateBatch::new();
        batch.remove_vertex(0);
        let report = batch.apply(&mut g);
        assert_eq!(report.vertices_removed, 1);
        assert_eq!(report.edges_removed, 3);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn extend_appends_in_place_and_offsets_placeholders() {
        let mut first = UpdateBatch::new();
        first.add_vertex(vec![]);
        let mut second = UpdateBatch::new();
        let x = second.add_vertex(vec![]);
        let y = second.add_vertex(vec![]);
        second.connect_new(x, y);
        first.extend(second);
        assert_eq!(first.num_new_vertices(), 3);
        assert_eq!(
            first.deltas().last(),
            Some(&GraphDelta::ConnectNew { a: 1, b: 2 })
        );
        // The offset placeholders connect the *second* batch's vertices.
        let mut g = DynGraph::new();
        let report = first.apply(&mut g);
        assert_eq!(report.new_vertices, vec![0, 1, 2]);
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    fn extend_appends_without_rebuilding_the_receiver() {
        let mut first = UpdateBatch::new();
        for v in 0..8 {
            first.add_edge(v, v + 1);
        }
        // With reserved spare capacity, Vec guarantees the buffer does not
        // move on append — so a moved pointer would mean extend rebuilt or
        // cloned the receiver's buffer instead of appending in place.
        first.deltas.reserve(16);
        let head_before = first.deltas.as_ptr();
        let mut second = UpdateBatch::new();
        second.remove_edge(0, 1);
        second.add_vertex(vec![0]);
        first.extend(second);
        assert_eq!(first.deltas.as_ptr(), head_before);
        assert_eq!(first.len(), 10);
    }

    #[test]
    #[should_panic(expected = "placeholder out of range")]
    fn connect_new_validates_placeholders() {
        let mut batch = UpdateBatch::new();
        batch.connect_new(0, 1);
    }

    #[test]
    fn counts_summarise_composition() {
        let mut batch = UpdateBatch::new();
        let a = batch.add_vertex(vec![1, 2]);
        let b = batch.add_vertex(vec![]);
        batch.connect_new(a, b);
        batch.add_edge(3, 4);
        batch.remove_edge(5, 6);
        batch.remove_vertex(7);
        assert_eq!(batch.num_new_vertices(), 2);
        assert_eq!(batch.num_vertex_removals(), 1);
        assert_eq!(batch.num_edge_additions(), 4);
        assert_eq!(batch.num_edge_removals(), 1);
        assert_eq!(batch.len(), 6);
    }

    #[test]
    fn log_replay_reproduces_graph() {
        let mut live = DynGraph::with_vertices(4);
        let mut log = DeltaLog::new();

        let mut b1 = UpdateBatch::new();
        b1.add_edge(0, 1);
        b1.add_vertex(vec![0, 2]);
        b1.apply(&mut live);
        log.record(b1);

        let mut b2 = UpdateBatch::new();
        b2.remove_vertex(1);
        b2.add_vertex(vec![4]);
        b2.apply(&mut live);
        log.record(b2);

        let mut fresh = DynGraph::with_vertices(4);
        let report = log.replay(&mut fresh);
        assert_eq!(fresh, live);
        assert_eq!(report.new_vertices, vec![4, 5]);
        assert_eq!(log.total_deltas(), 4);
    }

    #[test]
    fn single_delta_batch_via_from() {
        let batch = UpdateBatch::from(GraphDelta::AddEdge { u: 0, v: 1 });
        let mut g = DynGraph::with_vertices(2);
        assert_eq!(batch.apply(&mut g).edges_added, 1);
    }
}
