//! Single-source shortest paths (hop distance), with a min-combiner.
//!
//! Not part of the paper's evaluation, but the canonical Pregel workload —
//! used here to exercise the engine's combiner support and as a fourth
//! example application.

use apg_graph::VertexId;
use apg_pregel::{Context, VertexProgram};

/// Distance from the source; `UNREACHED` until a path arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Distance(pub u32);

impl Distance {
    /// No path known yet.
    pub const UNREACHED: Distance = Distance(u32::MAX);
}

impl Default for Distance {
    fn default() -> Self {
        Distance::UNREACHED
    }
}

/// Breadth-first shortest paths from a fixed source vertex.
///
/// Messages carry candidate distances; the min-combiner collapses them at
/// the sending worker, which on high-degree graphs removes most traffic.
#[derive(Debug, Clone, Copy)]
pub struct Sssp {
    source: VertexId,
}

impl Sssp {
    /// Shortest paths from `source`.
    pub fn new(source: VertexId) -> Self {
        Sssp { source }
    }
}

impl VertexProgram for Sssp {
    type Value = Distance;
    type Message = u32;

    fn compute(&self, ctx: &mut Context<'_, '_, Distance, u32>, messages: &[u32]) {
        let mut best = ctx.value().0;
        if ctx.superstep() == 0 && ctx.id() == self.source {
            best = 0;
        }
        for &m in messages {
            best = best.min(m);
        }
        if best < ctx.value().0 {
            *ctx.value_mut() = Distance(best);
            ctx.send_to_neighbors(best.saturating_add(1));
        } else if ctx.superstep() == 0 && ctx.id() == self.source {
            // Source with distance already 0 (restart case): re-announce.
            ctx.send_to_neighbors(1);
        }
        ctx.vote_to_halt();
    }

    fn combine(&self, a: &u32, b: &u32) -> Option<u32> {
        Some(*a.min(b))
    }

    fn has_combiner(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apg_graph::{algo, gen, Graph};
    use apg_pregel::EngineBuilder;

    #[test]
    fn distances_match_bfs() {
        let g = gen::mesh3d(5, 5, 5);
        let mut e = EngineBuilder::new(4).build(&g, Sssp::new(0));
        e.run_until_halt(40);
        let reference = algo::bfs_distances(&g, 0);
        for v in g.vertices() {
            assert_eq!(
                e.vertex_value(v).unwrap().0,
                reference[v as usize],
                "vertex {v}"
            );
        }
    }

    #[test]
    fn unreachable_stays_unreached() {
        let g = apg_graph::CsrGraph::from_edges(4, &[(0, 1)]);
        let mut e = EngineBuilder::new(2).build(&g, Sssp::new(0));
        e.run_until_halt(10);
        assert_eq!(e.vertex_value(3), Some(&Distance::UNREACHED));
    }

    #[test]
    fn combiner_cuts_message_volume() {
        // Star graph: many frontier vertices message the same hub.
        let hub_edges: Vec<(u32, u32)> = (1..200u32).map(|v| (0, v)).collect();
        let g = apg_graph::CsrGraph::from_edges(200, &hub_edges);
        let mut e = EngineBuilder::new(2).build(&g, Sssp::new(1));
        let reports = e.run_until_halt(10);
        // Superstep 1: the hub (distance 1) floods 199 leaves; superstep 2:
        // 198 leaves all message the hub back with candidate 3 — combined,
        // the hub-bound traffic collapses to at most one message per worker.
        let step2 = &reports[2];
        assert!(
            step2.messages_local + step2.messages_remote <= 4,
            "combiner failed: {} messages",
            step2.messages_local + step2.messages_remote
        );
    }

    #[test]
    fn works_under_adaptive_migration() {
        use apg_core::AdaptiveConfig;
        let g = gen::mesh3d(4, 4, 4);
        let mut e = EngineBuilder::new(4)
            .adaptive(AdaptiveConfig::builder(4).willingness(1.0).build().unwrap())
            .seed(9)
            .build(&g, Sssp::new(0));
        e.run_until_halt(40);
        let reference = algo::bfs_distances(&g, 0);
        for v in g.vertices() {
            assert_eq!(e.vertex_value(v).unwrap().0, reference[v as usize]);
        }
    }
}
