//! Deterministic query-workload generation.
//!
//! A [`QueryWorkload`] turns `(graph, round)` into a vector of queries with
//! every random draw keyed by `(seed, query, round)` through
//! [`vertex_rng`] — the workspace's data-keyed RNG discipline. Nothing is
//! keyed by thread, and no query's draws depend on any other query's, so a
//! served round is byte-reproducible at any parallelism and the generation
//! order is irrelevant. Generation reads the graph only (never the
//! assignment), so every partitioner arm of a comparison serves the
//! *identical* query stream.

use apg_exec::vertex_rng;
use apg_graph::{DynGraph, Graph, VertexId};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::query::Query;

/// Salt folded into the workload seed so query draws live on a different
/// stream than the decision sweep's per-vertex draws, even under equal
/// seeds.
const QUERY_SALT: u64 = 0x5e_7e_5a_17_5e_7e_5a_17;

/// Salt for the hotspot table of [`QueryMix::CommunityBiased`].
const HOTSPOT_SALT: u64 = 0x9e_37_79_b9_7f_4a_7c_15;

/// Number of hotspot anchors a community-biased workload concentrates on.
const HOTSPOTS: u64 = 16;

/// How query anchors are drawn from the live vertex population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryMix {
    /// Anchors uniform over live vertices — every user equally active.
    Uniform,
    /// Anchors biased towards high-degree vertices (best-of-four uniform
    /// candidates by degree) — traffic concentrates on hubs.
    DegreeBiased,
    /// Anchors concentrated on a small fixed set of hotspot vertices and
    /// their immediate neighbourhoods, with a skew towards the first
    /// hotspots — traffic concentrates on a few communities.
    CommunityBiased,
}

/// A reproducible query stream: `generate(graph, round)` yields the round's
/// queries as a pure function of `(graph, seed, round)`.
///
/// The kind of each query is drawn from the configured
/// lookup/neighborhood/k-hop weights (default 1 : 2 : 2), its anchor from
/// the configured [`QueryMix`].
///
/// # Example
///
/// ```
/// use apg_graph::DynGraph;
/// use apg_serve::{QueryMix, QueryWorkload};
///
/// let g = {
///     let mut g = DynGraph::with_vertices(10);
///     for v in 1..10 {
///         g.add_edge(0, v);
///     }
///     g
/// };
/// let w = QueryWorkload::new(QueryMix::DegreeBiased, 8, 42).khop_depth(3);
/// let round0 = w.generate(&g, 0);
/// assert_eq!(round0.len(), 8);
/// assert_eq!(round0, w.generate(&g, 0), "same key, same queries");
/// assert_ne!(round0, w.generate(&g, 1), "rounds draw distinct streams");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryWorkload {
    /// Anchor distribution.
    pub mix: QueryMix,
    /// Queries generated per round.
    pub queries_per_round: usize,
    /// Traversal depth of generated [`Query::KHop`] queries.
    pub khop_k: usize,
    /// Relative weights of lookup / neighborhood / k-hop queries.
    pub kind_weights: [u32; 3],
    /// Workload seed (independent of the partitioner's seed).
    pub seed: u64,
}

impl QueryWorkload {
    /// A workload with the default kind mix (1 lookup : 2 neighborhood :
    /// 2 k-hop) and 2-hop traversals.
    pub fn new(mix: QueryMix, queries_per_round: usize, seed: u64) -> Self {
        QueryWorkload {
            mix,
            queries_per_round,
            khop_k: 2,
            kind_weights: [1, 2, 2],
            seed,
        }
    }

    /// Sets the traversal depth of generated k-hop queries.
    pub fn khop_depth(mut self, k: usize) -> Self {
        self.khop_k = k;
        self
    }

    /// Sets the relative lookup / neighborhood / k-hop weights.
    ///
    /// # Panics
    ///
    /// Panics if all three weights are zero.
    pub fn weights(mut self, lookup: u32, neighborhood: u32, khop: u32) -> Self {
        assert!(
            lookup != 0 || neighborhood != 0 || khop != 0,
            "at least one query kind must have weight"
        );
        self.kind_weights = [lookup, neighborhood, khop];
        self
    }

    /// Generates round `round`'s queries against the current graph.
    ///
    /// Pure in `(graph, seed, round)`: query `q` draws only from its own
    /// `(seed, q, round)` RNG stream. A graph with no live vertex yields an
    /// empty round, and so do all-zero [`kind_weights`] (the field is
    /// public, so [`QueryWorkload::weights`]' assert can be bypassed): with
    /// no kind to draw there is no query to generate.
    ///
    /// [`kind_weights`]: QueryWorkload::kind_weights
    pub fn generate(&self, graph: &DynGraph, round: u64) -> Vec<Query> {
        (0..self.round_len(graph) as u64)
            .map(|q| self.generate_one(graph, q, round))
            .collect()
    }

    /// Queries a round against `graph` holds: `queries_per_round`, or 0
    /// when there is no live vertex to anchor on or no query kind has
    /// weight. Decided once per round, so [`QueryWorkload::generate_one`]
    /// may assume both.
    pub(crate) fn round_len(&self, graph: &DynGraph) -> usize {
        if graph.num_live_vertices() == 0 || self.total_weight() == 0 {
            0
        } else {
            self.queries_per_round
        }
    }

    /// Sum of the three kind weights, in `u64` so that it cannot overflow.
    fn total_weight(&self) -> u64 {
        self.kind_weights.iter().map(|&w| u64::from(w)).sum()
    }

    /// Generates the single query with index `q` of round `round`. The
    /// caller has checked [`QueryWorkload::round_len`] is non-zero.
    pub(crate) fn generate_one(&self, graph: &DynGraph, q: u64, round: u64) -> Query {
        let mut rng = vertex_rng(self.seed ^ QUERY_SALT, q, round);
        let anchor = self.pick_anchor(graph, &mut rng);
        let [lookup, neighborhood, _] = self.kind_weights.map(u64::from);
        let roll = rng.gen_range(0..self.total_weight());
        if roll < lookup {
            Query::VertexLookup(anchor)
        } else if roll < lookup + neighborhood {
            Query::Neighborhood(anchor)
        } else {
            Query::KHop {
                anchor,
                k: self.khop_k,
            }
        }
    }

    /// Draws one anchor according to the mix. The graph is guaranteed
    /// non-empty by the caller.
    fn pick_anchor(&self, graph: &DynGraph, rng: &mut StdRng) -> VertexId {
        match self.mix {
            QueryMix::Uniform => pick_live(graph, rng),
            QueryMix::DegreeBiased => {
                // Best-of-four by degree: cheap, deterministic, and biased
                // towards hubs without needing a global degree table. Ties
                // keep the earlier draw.
                let mut best = pick_live(graph, rng);
                for _ in 0..3 {
                    let candidate = pick_live(graph, rng);
                    if graph.degree(candidate) > graph.degree(best) {
                        best = candidate;
                    }
                }
                best
            }
            QueryMix::CommunityBiased => {
                // Two draws, keep the minimum: hotspot 0 is ~2x hotter than
                // the median one — a coarse popularity skew.
                let j = rng.gen_range(0..HOTSPOTS).min(rng.gen_range(0..HOTSPOTS));
                let hot = self.hotspot(graph, j);
                // Anchor on the hotspot itself or one of its neighbours, so
                // the round's traffic pounds a few neighbourhoods.
                let neighbors = graph.neighbors(hot);
                let pick = rng.gen_range(0..neighbors.len() + 1);
                if pick == 0 {
                    hot
                } else {
                    let w = neighbors[pick - 1];
                    if graph.is_vertex(w) {
                        w
                    } else {
                        hot
                    }
                }
            }
        }
    }

    /// Hotspot `j`'s current vertex: a fixed per-workload draw (round is
    /// *not* in the key, so hotspots are stable across rounds), resolved to
    /// the nearest live vertex at query time in case it was churned out.
    fn hotspot(&self, graph: &DynGraph, j: u64) -> VertexId {
        let mut rng = vertex_rng(self.seed ^ HOTSPOT_SALT, j, 0);
        pick_live(graph, &mut rng)
    }
}

/// Uniform live vertex: a uniform slot draw, advanced (wrapping) to the
/// next live slot. Deterministic given the RNG stream; the forward scan
/// only engages when the draw lands on a tombstone.
///
/// # Panics
///
/// Panics if the graph has no live vertices (callers guard).
fn pick_live(graph: &DynGraph, rng: &mut StdRng) -> VertexId {
    let slots = graph.num_vertices();
    assert!(
        graph.num_live_vertices() > 0,
        "cannot sample an anchor from an empty graph"
    );
    let mut slot = rng.gen_range(0..slots);
    loop {
        if graph.is_vertex(slot as VertexId) {
            return slot as VertexId;
        }
        slot = (slot + 1) % slots;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star_graph(n: usize) -> DynGraph {
        let mut g = DynGraph::with_vertices(n);
        for v in 1..n as VertexId {
            g.add_edge(0, v);
        }
        g
    }

    #[test]
    fn generation_is_reproducible_and_round_keyed() {
        let g = star_graph(50);
        for mix in [
            QueryMix::Uniform,
            QueryMix::DegreeBiased,
            QueryMix::CommunityBiased,
        ] {
            let w = QueryWorkload::new(mix, 40, 9);
            assert_eq!(w.generate(&g, 3), w.generate(&g, 3), "{mix:?}");
            assert_ne!(w.generate(&g, 3), w.generate(&g, 4), "{mix:?}");
        }
    }

    #[test]
    fn generation_is_independent_of_query_order() {
        // Query 7's draws must not depend on queries 0..6 being generated —
        // the per-(seed, query, round) keying, observed end to end.
        let g = star_graph(30);
        let w = QueryWorkload::new(QueryMix::Uniform, 10, 5);
        let full = w.generate(&g, 2);
        assert_eq!(full[7], w.generate_one(&g, 7, 2));
    }

    #[test]
    fn degree_bias_prefers_the_hub() {
        let g = star_graph(100);
        let w = QueryWorkload::new(QueryMix::DegreeBiased, 200, 1);
        let hub_hits = w.generate(&g, 0).iter().filter(|q| q.anchor() == 0).count();
        // Uniform would hit the hub ~2 times in 200; best-of-four makes it
        // ~8. Anything clearly above uniform proves the bias.
        assert!(hub_hits > 4, "hub hit only {hub_hits}/200 times");
    }

    #[test]
    fn community_bias_concentrates_anchors() {
        let mut g = DynGraph::with_vertices(1000);
        for v in 1..1000u32 {
            g.add_edge(v - 1, v); // a long path: neighbourhoods are tiny
        }
        let w = QueryWorkload::new(QueryMix::CommunityBiased, 300, 3);
        let mut anchors: Vec<VertexId> = w.generate(&g, 0).iter().map(|q| q.anchor()).collect();
        anchors.sort_unstable();
        anchors.dedup();
        // 300 uniform anchors over 1000 vertices would leave ~260 distinct;
        // 16 hotspots with path neighbourhoods leave at most 48.
        assert!(
            anchors.len() <= 3 * HOTSPOTS as usize,
            "{} distinct anchors for a hotspot workload",
            anchors.len()
        );
    }

    #[test]
    fn tombstoned_slots_are_never_anchors() {
        let mut g = star_graph(40);
        for v in (1..40u32).step_by(2) {
            g.remove_vertex(v);
        }
        for mix in [
            QueryMix::Uniform,
            QueryMix::DegreeBiased,
            QueryMix::CommunityBiased,
        ] {
            let w = QueryWorkload::new(mix, 100, 13);
            for q in w.generate(&g, 1) {
                assert!(g.is_vertex(q.anchor()), "{mix:?} anchored a tombstone");
            }
        }
    }

    #[test]
    fn weights_steer_the_kind_mix() {
        let g = star_graph(20);
        let w = QueryWorkload::new(QueryMix::Uniform, 100, 2).weights(0, 1, 0);
        assert!(w
            .generate(&g, 0)
            .iter()
            .all(|q| matches!(q, Query::Neighborhood(_))));
        let w = QueryWorkload::new(QueryMix::Uniform, 100, 2).weights(0, 0, 3);
        assert!(w
            .generate(&g, 0)
            .iter()
            .all(|q| matches!(q, Query::KHop { k: 2, .. })));
    }

    #[test]
    #[should_panic(expected = "at least one query kind")]
    fn zero_weights_are_rejected() {
        let _ = QueryWorkload::new(QueryMix::Uniform, 10, 1).weights(0, 0, 0);
    }

    #[test]
    fn zero_total_weight_is_an_empty_round_not_a_panic() {
        // The field is public, so the builder's assert can be bypassed.
        let g = star_graph(20);
        let mut w = QueryWorkload::new(QueryMix::Uniform, 10, 1);
        w.kind_weights = [0, 0, 0];
        assert!(w.generate(&g, 0).is_empty());
        assert_eq!(w.round_len(&g), 0);
    }

    #[test]
    fn weights_past_u32_range_do_not_overflow() {
        let g = star_graph(20);
        let w = QueryWorkload::new(QueryMix::Uniform, 300, 4).weights(u32::MAX, u32::MAX, u32::MAX);
        let queries = w.generate(&g, 0);
        assert_eq!(queries.len(), 300);
        // Equal weights: each kind draws about a third of the round.
        for kind in [
            crate::QueryKind::VertexLookup,
            crate::QueryKind::Neighborhood,
            crate::QueryKind::KHop,
        ] {
            let share = queries.iter().filter(|q| q.kind() == kind).count();
            assert!((60..=140).contains(&share), "{kind:?}: {share}/300");
        }
    }

    #[test]
    fn empty_graph_yields_empty_rounds() {
        let g = DynGraph::new();
        let w = QueryWorkload::new(QueryMix::Uniform, 10, 1);
        assert!(w.generate(&g, 0).is_empty());
    }
}
