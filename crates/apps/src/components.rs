//! Connected components by min-label propagation.

use apg_graph::VertexId;
use apg_pregel::{Context, VertexProgram};

/// A component label; `UNSET` marks a vertex that has not computed yet
/// (needed because vertices can be streamed in at any superstep, where the
/// usual "superstep 0 means fresh" trick no longer works).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CcLabel(pub VertexId);

impl CcLabel {
    /// Label of a vertex that has never computed.
    pub const UNSET: CcLabel = CcLabel(VertexId::MAX);
}

impl Default for CcLabel {
    fn default() -> Self {
        CcLabel::UNSET
    }
}

/// Dynamic connected components: every vertex repeatedly adopts the
/// smallest vertex id it has heard of; at quiescence each component is
/// labelled by its minimum live id.
///
/// Works on *mutating* graphs: a vertex woken without messages (which only
/// happens at superstep 0, after a topology change touching it, or after
/// crash recovery) re-broadcasts its label so new edges learn it. A vertex
/// woken by messages that do not improve its label halts silently, which is
/// what lets the computation quiesce.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConnectedComponents;

impl ConnectedComponents {
    /// Creates the program.
    pub fn new() -> Self {
        ConnectedComponents
    }
}

impl VertexProgram for ConnectedComponents {
    type Value = CcLabel;
    type Message = VertexId;

    fn compute(&self, ctx: &mut Context<'_, '_, CcLabel, VertexId>, messages: &[VertexId]) {
        let current = if *ctx.value() == CcLabel::UNSET {
            ctx.id()
        } else {
            ctx.value().0
        };
        let mut label = current;
        for &m in messages {
            label = label.min(m);
        }
        let improved = *ctx.value() == CcLabel::UNSET || label < ctx.value().0;
        let woken_by_topology = messages.is_empty() && ctx.superstep() > 0;
        *ctx.value_mut() = CcLabel(label);
        if ctx.superstep() == 0 || improved || woken_by_topology {
            ctx.send_to_neighbors(label);
        }
        ctx.vote_to_halt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apg_graph::{algo, gen, CsrGraph, Graph, UpdateBatch};
    use apg_pregel::EngineBuilder;

    fn label<P: VertexProgram<Value = CcLabel>>(
        e: &apg_pregel::Engine<P>,
        v: VertexId,
    ) -> VertexId {
        e.vertex_value(v).expect("live vertex").0
    }

    #[test]
    fn labels_two_components() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let mut e = EngineBuilder::new(2).build(&g, ConnectedComponents::new());
        e.run_until_halt(20);
        assert_eq!(label(&e, 2), 0);
        assert_eq!(label(&e, 4), 3);
        assert_eq!(label(&e, 5), 5);
    }

    #[test]
    fn agrees_with_union_find() {
        let g = gen::erdos_renyi(200, 0.008, 9);
        let mut e = EngineBuilder::new(4).build(&g, ConnectedComponents::new());
        e.run_until_halt(100);
        let reference = algo::connected_components(&g);
        for u in g.vertices() {
            for v in g.vertices() {
                let same_ref = reference.labels[u as usize] == reference.labels[v as usize];
                let same_bsp = label(&e, u) == label(&e, v);
                assert_eq!(same_ref, same_bsp, "vertices {u}, {v} disagree");
            }
        }
    }

    #[test]
    fn halts_quickly_on_connected_mesh() {
        let g = gen::mesh3d(4, 4, 4);
        let mut e = EngineBuilder::new(4).build(&g, ConnectedComponents::new());
        let reports = e.run_until_halt(50);
        assert!(reports.len() <= 15, "took {} supersteps", reports.len());
        for v in 0..64 {
            assert_eq!(label(&e, v), 0);
        }
    }

    #[test]
    fn works_under_adaptive_migration() {
        use apg_core::AdaptiveConfig;
        let g = gen::mesh3d(5, 5, 5);
        let mut e = EngineBuilder::new(5)
            .adaptive(AdaptiveConfig::builder(5).willingness(1.0).build().unwrap())
            .seed(3)
            .build(&g, ConnectedComponents::new());
        e.run_until_halt(60);
        for v in 0..125 {
            assert_eq!(label(&e, v), 0, "vertex {v} mislabelled");
        }
    }

    #[test]
    fn merging_components_relabels() {
        // Two components; then a bridge edge merges them.
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let mut e = EngineBuilder::new(2).build(&g, ConnectedComponents::new());
        e.run_until_halt(20);
        assert_eq!(label(&e, 5), 3);
        let mut batch = UpdateBatch::new();
        batch.add_edge(2, 3);
        e.apply_batch(&batch);
        e.run_until_halt(20);
        for v in 0..6 {
            assert_eq!(label(&e, v), 0, "vertex {v} not merged");
        }
    }

    #[test]
    fn late_vertices_join_components() {
        let g = CsrGraph::from_edges(3, &[(0, 1)]);
        let mut e = EngineBuilder::new(2).build(&g, ConnectedComponents::new());
        e.run_until_halt(10);
        let mut batch = UpdateBatch::new();
        batch.add_vertex(vec![1, 2]); // bridges both components
        e.apply_batch(&batch);
        e.run_until_halt(10);
        for v in 0..4 {
            assert_eq!(label(&e, v), 0, "vertex {v} not merged");
        }
    }
}
