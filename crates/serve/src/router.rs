//! The query router: read-only execution over a partitioned graph
//! snapshot.

use std::time::Instant;

use apg_exec::{fanout, ShardPlan};
use apg_graph::{DynGraph, Graph, VertexId};
use apg_partition::Partitioning;

use crate::query::{Query, QueryOutcome};
use crate::stats::ServeStats;
use crate::workload::QueryWorkload;

/// Reusable working memory of the traversal kernel: a visited bitset (one
/// bit per vertex slot — 14 KB at 116 k slots, so it stays cache-resident)
/// and one flat vertex buffer.
///
/// The buffer is the whole traversal state: `buf[0]` is the anchor,
/// `buf[1..len]` the discovered vertices in breadth-first discovery order,
/// each level a contiguous index range that is the next level's frontier.
/// After a query the same buffer is the undo list — only the bits it names
/// are cleared — so a query costs O(vertices visited + edges
/// scanned) however large the graph is, and the bitset is all-zero between
/// queries (see [`TraversalScratch::is_clear`]).
///
/// A scratch is sized on first use and grows with the graph, so one scratch
/// can serve any sequence of queries against any sequence of snapshots.
/// [`QueryRouter::serve_round`] builds one per worker;
/// [`QueryRouter::answer_with`] lets a caller that answers many queries
/// one at a time do the same.
#[derive(Debug, Clone, Default)]
pub struct TraversalScratch {
    /// Visited bitset: bit `v % 64` of word `v / 64`.
    visited: Vec<u64>,
    /// Anchor, then discovered vertices. Kept at its high-water length (the
    /// live prefix is tracked by the kernel) so growing ahead of a
    /// neighbour list is a length check, not a fill.
    buf: Vec<VertexId>,
}

impl TraversalScratch {
    /// An empty scratch; it sizes itself to the graph on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether every visited bit is clear — true between any two queries.
    /// The kernel's undo pass is what keeps one query's visits from leaking
    /// into the next; tests pin it through this.
    pub fn is_clear(&self) -> bool {
        self.visited.iter().all(|&word| word == 0)
    }

    /// The traversal kernel: every vertex within `k` hops of `anchor`
    /// (anchor excluded) in breadth-first discovery order. Neighbour lists
    /// are sorted, so discovery order — and with it every outcome — is
    /// deterministic.
    ///
    /// Runs level by level over index ranges of the flat buffer, appending
    /// each newly discovered vertex. The inner scan is branch-light: every
    /// scanned neighbour is stored at the write position and the position
    /// advances only when its bit was clear, so an already-seen vertex is
    /// simply overwritten by the next store.
    ///
    /// Before scanning a level wider than one vertex, the kernel warms it
    /// ([`DynGraph::warm_lists`]): every frontier vertex's span, then every
    /// list head, so the level's cache misses overlap instead of each scan
    /// waiting on its own. The anchor's list is warmed by whoever queued the
    /// query ([`QueryRouter::serve_round`] does, a few queries ahead).
    fn traverse(&mut self, graph: &DynGraph, anchor: VertexId, k: usize) -> &[VertexId] {
        let words = graph.num_vertices().div_ceil(64);
        if self.visited.len() < words {
            self.visited.resize(words, 0);
        }
        let visited = &mut self.visited[..];
        match self.buf.first_mut() {
            Some(first) => *first = anchor,
            None => self.buf.push(anchor),
        }
        visited[anchor as usize / 64] |= 1 << (anchor % 64);
        let mut len = 1;
        let mut level = 0..1;
        for _ in 0..k {
            if level.is_empty() {
                break;
            }
            if level.len() > 1 {
                graph.warm_lists(&self.buf[level.clone()]);
            }
            for i in level.clone() {
                let neighbors = graph.neighbors(self.buf[i]);
                // Grow ahead of the whole list so the scan below never
                // reallocates; doubling keeps growth amortised.
                if self.buf.len() < len + neighbors.len() {
                    let grown = (len + neighbors.len()).next_power_of_two();
                    self.buf.resize(grown, 0);
                }
                let out = &mut self.buf[len..len + neighbors.len()];
                let mut new = 0;
                for &w in neighbors {
                    let word = &mut visited[w as usize / 64];
                    let bit = 1u64 << (w % 64);
                    out[new] = w;
                    new += usize::from(*word & bit == 0);
                    *word |= bit;
                }
                len += new;
            }
            level = level.end..len;
        }
        // Undo: the buffer names every bit this traversal set, and only
        // those.
        for &v in &self.buf[..len] {
            visited[v as usize / 64] &= !(1 << (v % 64));
        }
        &self.buf[1..len]
    }
}

/// Queries a [`QueryRouter::serve_round`] worker generates ahead of the one
/// it answers. Each query's anchor list is warmed when it is generated, so
/// that miss overlaps the answers to the `AHEAD` queries before it.
pub const AHEAD: usize = 4;

/// Routes queries to their anchor's serving domain and executes them
/// against a borrowed `(graph, assignment)` snapshot.
///
/// The router holds shared borrows only — it can never mutate the graph or
/// the assignment, which is what lets the streaming runner interleave serve
/// rounds between batches and assert afterwards that serving dirtied
/// nothing. Each query executes at the partition owning its anchor; every
/// vertex the traversal reaches is one *hop*, **local** when that vertex
/// lives in the anchor's partition and **remote** otherwise.
///
/// See the [crate docs](crate) for a worked example.
pub struct QueryRouter<'a> {
    graph: &'a DynGraph,
    assignment: &'a Partitioning,
}

impl<'a> QueryRouter<'a> {
    /// A router over the given snapshot. The assignment must cover every
    /// vertex slot of the graph (checked here, once, in debug builds;
    /// a short assignment panics on the first query that reaches an
    /// uncovered slot in any build).
    pub fn new(graph: &'a DynGraph, assignment: &'a Partitioning) -> Self {
        debug_assert!(
            assignment.num_vertices() >= graph.num_vertices(),
            "assignment covers {} slots but the graph has {}",
            assignment.num_vertices(),
            graph.num_vertices()
        );
        QueryRouter { graph, assignment }
    }

    /// Answers one query. Tombstoned anchors yield
    /// [`QueryOutcome::missing`]; the query stream may race with removals,
    /// so this is an expected outcome, not an error.
    ///
    /// Builds a one-off [`TraversalScratch`] (allocated only if the query
    /// traverses deeper than one hop); callers answering many queries
    /// should keep one and use [`QueryRouter::answer_with`].
    pub fn answer(&self, query: &Query) -> QueryOutcome {
        self.answer_with(&mut TraversalScratch::new(), query)
    }

    /// [`QueryRouter::answer`] on a caller-held scratch: the same outcome,
    /// at a cost proportional to what the query visits. The scratch is left
    /// clear, so any sequence of queries may share it.
    pub fn answer_with(&self, scratch: &mut TraversalScratch, query: &Query) -> QueryOutcome {
        let anchor = query.anchor();
        if !self.graph.is_vertex(anchor) {
            return QueryOutcome::missing();
        }
        // Each *discovered* vertex is one hop — a traversal fetches every
        // discovered vertex exactly once, from whichever partition owns it.
        let reached = match *query {
            Query::VertexLookup(_) => {
                return QueryOutcome {
                    found: true,
                    result_size: 1,
                    hops: 0,
                    local_hops: 0,
                }
            }
            // A neighborhood read is exactly a 1-hop traversal; routing
            // both through `reach` keeps the accounting semantics identical
            // by construction.
            Query::Neighborhood(_) => self.reach(scratch, anchor, 1),
            Query::KHop { k, .. } => self.reach(scratch, anchor, k),
        };
        let labels = self.assignment.as_slice();
        let home = labels[anchor as usize];
        QueryOutcome {
            found: true,
            result_size: reached.len(),
            hops: reached.len(),
            local_hops: reached
                .iter()
                .filter(|&&v| labels[v as usize] == home)
                .count(),
        }
    }

    /// Every live vertex within `k` hops of `anchor` (anchor excluded), in
    /// breadth-first discovery order. The reference result the correctness
    /// tests pin [`Query::KHop`] outcomes against.
    pub fn k_hop_vertices(&self, anchor: VertexId, k: usize) -> Vec<VertexId> {
        if !self.graph.is_vertex(anchor) {
            return Vec::new();
        }
        self.reach(&mut TraversalScratch::new(), anchor, k).to_vec()
    }

    /// The vertices within `k` hops of a live `anchor`, in discovery order.
    ///
    /// Depth 1 touches no scratch: adjacency is sorted, duplicate-free and
    /// loop-free (`DynGraph::add_edge` rejects both), so the anchor's
    /// neighbour list *is* the breadth-first result. Deeper traversals run
    /// the one kernel.
    fn reach<'s>(
        &'s self,
        scratch: &'s mut TraversalScratch,
        anchor: VertexId,
        k: usize,
    ) -> &'s [VertexId] {
        match k {
            0 => &[],
            1 => self.graph.neighbors(anchor),
            _ => scratch.traverse(self.graph, anchor, k),
        }
    }

    /// Serves one round of `workload` and aggregates the outcomes.
    ///
    /// The round's query indices `0..queries_per_round` are split into one
    /// contiguous range per worker (up to `parallelism` of them, via the
    /// ordered [`fanout`] primitive). Each worker builds one
    /// [`TraversalScratch`], generates each of its queries from that
    /// query's own `(seed, query, round)` stream, answers it and folds the
    /// outcome into a partial [`ServeStats`]; the partials are then summed.
    /// No per-query collection is ever built: a worker generates [`AHEAD`]
    /// queries in front of the one it answers, into a fixed ring on its
    /// stack, and warms each anchor's list as its query enters the ring
    /// (a hint; answers come out in index order all the same).
    ///
    /// Every deterministic field of [`ServeStats`] is an integer sum over
    /// the round's queries, and a query's outcome depends only on its own
    /// index — not on the worker that ran it or on the queries before it
    /// (the scratch is clear between queries). Integer addition is
    /// associative and commutative, so the total is independent of how the
    /// indices were split: the result is identical at every parallelism
    /// level (only `wall_ms`, which equality ignores, may differ).
    ///
    /// A workload with no live vertex to anchor on, or with all-zero
    /// [`kind_weights`](QueryWorkload::kind_weights), serves an empty round
    /// (`queries == 0`).
    pub fn serve_round(
        &self,
        workload: &QueryWorkload,
        round: u64,
        parallelism: usize,
    ) -> ServeStats {
        let started = Instant::now();
        let mut stats = ServeStats {
            round,
            ..ServeStats::default()
        };
        let total = workload.round_len(self.graph);
        if total > 0 {
            let workers = parallelism.clamp(1, total);
            let plan = ShardPlan::new(total, total.div_ceil(workers));
            let partials = fanout::map_shards(parallelism, &plan, |_, range| {
                self.serve_range(range, |q| {
                    workload.generate_one(self.graph, q as u64, round)
                })
            });
            for partial in &partials {
                stats.merge(partial);
            }
        }
        stats.wall_ms = started.elapsed().as_secs_f64() * 1e3;
        stats
    }

    /// One worker's share of a round: queries `query(q)` for `q` in
    /// `range`, answered in index order on one scratch and folded into a
    /// partial. Each query is generated [`AHEAD`] steps before it is
    /// answered, into a fixed ring, and its anchor's list is warmed then.
    fn serve_range(
        &self,
        range: std::ops::Range<usize>,
        query: impl Fn(usize) -> Query,
    ) -> ServeStats {
        let mut scratch = TraversalScratch::new();
        let mut partial = ServeStats::default();
        let mut ring = [Query::VertexLookup(0); AHEAD];
        // Step `q` answers query `q - AHEAD` from its ring slot, then
        // generates query `q` into the slot it freed.
        for q in range.start..range.end + AHEAD {
            let slot = &mut ring[q % AHEAD];
            if q >= range.start + AHEAD {
                partial.absorb(slot.kind(), &self.answer_with(&mut scratch, slot));
            }
            if q < range.end {
                *slot = query(q);
                self.graph.warm_lists(&[slot.anchor()]);
            }
        }
        partial
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::QueryMix;

    /// Two triangles bridged by one edge, split across two partitions:
    ///
    /// ```text
    ///   0 - 1        3 - 4
    ///    \ /    ==    \ /
    ///     2 ---------- 5
    ///   [p0 p0 p0]  [p1 p1 p1]
    /// ```
    fn bridged_triangles() -> (DynGraph, Partitioning) {
        let mut g = DynGraph::with_vertices(6);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 5)] {
            g.add_edge(u, v);
        }
        let p = Partitioning::from_assignment(vec![0, 0, 0, 1, 1, 1], 2);
        (g, p)
    }

    #[test]
    fn lookup_has_no_hops() {
        let (g, p) = bridged_triangles();
        let r = QueryRouter::new(&g, &p);
        let o = r.answer(&Query::VertexLookup(4));
        assert!(o.found);
        assert_eq!((o.result_size, o.hops, o.local_hops), (1, 0, 0));
    }

    #[test]
    fn neighborhood_counts_each_neighbor_as_a_hop() {
        let (g, p) = bridged_triangles();
        let r = QueryRouter::new(&g, &p);
        // Vertex 2's neighbours: 0, 1 (local) and 5 (remote).
        let o = r.answer(&Query::Neighborhood(2));
        assert_eq!((o.result_size, o.hops, o.local_hops), (3, 3, 2));
        assert_eq!(o.remote_hops(), 1);
    }

    #[test]
    fn khop_counts_discovery_hops_against_the_anchor_domain() {
        let (g, p) = bridged_triangles();
        let r = QueryRouter::new(&g, &p);
        // From 0: depth 1 reaches {1, 2}, depth 2 reaches {5}. 5 is remote.
        let o = r.answer(&Query::KHop { anchor: 0, k: 2 });
        assert_eq!((o.hops, o.local_hops), (3, 2));
        // Depth 3 pulls in the rest of the far triangle.
        let o = r.answer(&Query::KHop { anchor: 0, k: 3 });
        assert_eq!((o.hops, o.local_hops), (5, 2));
    }

    #[test]
    fn khop_one_equals_neighborhood() {
        let (g, p) = bridged_triangles();
        let r = QueryRouter::new(&g, &p);
        for v in 0..6 {
            assert_eq!(
                r.answer(&Query::Neighborhood(v)),
                r.answer(&Query::KHop { anchor: v, k: 1 }),
                "anchor {v}"
            );
        }
    }

    #[test]
    fn khop_zero_reaches_nothing() {
        let (g, p) = bridged_triangles();
        let r = QueryRouter::new(&g, &p);
        let o = r.answer(&Query::KHop { anchor: 0, k: 0 });
        assert!(o.found);
        assert_eq!((o.result_size, o.hops), (0, 0));
    }

    #[test]
    fn tombstoned_anchor_misses() {
        let (mut g, p) = bridged_triangles();
        g.remove_vertex(3);
        let r = QueryRouter::new(&g, &p);
        for q in [
            Query::VertexLookup(3),
            Query::Neighborhood(3),
            Query::KHop { anchor: 3, k: 2 },
        ] {
            assert_eq!(r.answer(&q), QueryOutcome::missing());
        }
        // Traversals route around the tombstone: from 4, depth 2 now only
        // reaches 5 then 2.
        let reached = r.k_hop_vertices(4, 2);
        assert_eq!(reached, vec![5, 2]);
    }

    #[test]
    fn k_hop_vertices_is_discovery_ordered() {
        let (g, p) = bridged_triangles();
        let r = QueryRouter::new(&g, &p);
        assert_eq!(r.k_hop_vertices(0, 1), vec![1, 2]);
        assert_eq!(r.k_hop_vertices(0, 2), vec![1, 2, 5]);
        assert_eq!(r.k_hop_vertices(0, 9), vec![1, 2, 5, 3, 4]);
    }

    #[test]
    fn zero_weight_workload_serves_an_empty_round() {
        let (g, p) = bridged_triangles();
        let r = QueryRouter::new(&g, &p);
        let mut w = QueryWorkload::new(QueryMix::Uniform, 64, 11);
        w.kind_weights = [0, 0, 0];
        for parallelism in [1, 4] {
            let stats = r.serve_round(&w, 2, parallelism);
            assert_eq!((stats.queries, stats.hops, stats.round), (0, 0, 2));
        }
        let empty = DynGraph::new();
        let none = Partitioning::from_assignment(Vec::new(), 2);
        let w = QueryWorkload::new(QueryMix::Uniform, 64, 11);
        assert_eq!(
            QueryRouter::new(&empty, &none)
                .serve_round(&w, 0, 4)
                .queries,
            0
        );
    }

    #[test]
    fn the_kernel_agrees_with_the_depth_one_fast_path() {
        let (g, _) = bridged_triangles();
        let mut scratch = TraversalScratch::new();
        for v in 0..6 {
            assert_eq!(scratch.traverse(&g, v, 1), g.neighbors(v), "anchor {v}");
            assert!(scratch.traverse(&g, v, 0).is_empty());
            assert!(scratch.is_clear());
        }
    }

    /// [`bridged_triangles`] with vertex 3 tombstoned, an isolated vertex 6
    /// and a leaf 7 hanging off vertex 0: anchors with frontiers of zero and
    /// one vertex, and a traversal that routes around a tombstone.
    fn ragged_graph() -> (DynGraph, Partitioning) {
        let (mut g, _) = bridged_triangles();
        let (isolated, leaf) = (g.add_vertex(), g.add_vertex());
        assert_eq!((isolated, leaf), (6, 7));
        g.add_edge(0, leaf);
        g.remove_vertex(3);
        let p = Partitioning::from_assignment(vec![0, 0, 0, 1, 1, 1, 1, 0], 2);
        (g, p)
    }

    /// The reference a served range must equal: `answer` folded over the
    /// queries one at a time.
    fn fold_answers(r: &QueryRouter<'_>, queries: &[Query], round: u64) -> ServeStats {
        let mut stats = ServeStats {
            round,
            ..ServeStats::default()
        };
        for query in queries {
            stats.absorb(query.kind(), &r.answer(query));
        }
        stats
    }

    #[test]
    fn short_rounds_equal_the_fold_of_their_answers() {
        let (g, p) = ragged_graph();
        let r = QueryRouter::new(&g, &p);
        for len in 1..=AHEAD + 1 {
            let w = QueryWorkload::new(QueryMix::Uniform, len, 3).khop_depth(3);
            for round in 0..16 {
                let expect = fold_answers(&r, &w.generate(&g, round), round);
                for parallelism in [1, 2, 3] {
                    assert_eq!(
                        r.serve_round(&w, round, parallelism),
                        expect,
                        "{len} queries, round {round}, parallelism {parallelism}"
                    );
                }
            }
        }
    }

    #[test]
    fn ranges_with_ragged_anchors_equal_the_fold_of_their_answers() {
        let (g, p) = ragged_graph();
        let r = QueryRouter::new(&g, &p);
        // Tombstoned (3), isolated (6, frontier 0), leaf (7, frontier 1)
        // and ordinary anchors, each under every kind.
        let anchors = [3, 6, 7, 0, 3, 4];
        let queries: Vec<Query> = anchors
            .iter()
            .flat_map(|&v| {
                [
                    Query::VertexLookup(v),
                    Query::Neighborhood(v),
                    Query::KHop { anchor: v, k: 2 },
                    Query::KHop { anchor: v, k: 3 },
                ]
            })
            .collect();
        for len in 1..=AHEAD + 1 {
            for window in queries.windows(len) {
                let served = r.serve_range(0..len, |q| window[q]);
                assert_eq!(served, fold_answers(&r, window, 0), "{window:?}");
            }
        }
        assert_eq!(
            r.serve_range(0..0, |_| unreachable!()),
            ServeStats::default()
        );
    }

    #[test]
    fn serve_round_is_parallelism_invariant() {
        let (g, p) = bridged_triangles();
        let r = QueryRouter::new(&g, &p);
        let w = QueryWorkload::new(QueryMix::Uniform, 64, 11);
        let serial = r.serve_round(&w, 5, 1);
        assert_eq!(serial, r.serve_round(&w, 5, 2));
        assert_eq!(serial, r.serve_round(&w, 5, 8));
        assert_eq!(serial.queries, 64);
        assert_eq!(serial.round, 5);
    }
}
