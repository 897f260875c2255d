//! PageRank over undirected adjacency.

use apg_pregel::{Context, VertexProgram};

/// Classic Pregel PageRank with damping 0.85.
///
/// Runs a fixed number of power iterations, then halts. Over an undirected
/// graph each vertex distributes its rank equally to all neighbours.
///
/// # Example
///
/// ```
/// use apg_apps::PageRank;
/// use apg_pregel::EngineBuilder;
/// use apg_graph::gen;
///
/// let g = gen::mesh3d(4, 4, 4);
/// let mut engine = EngineBuilder::new(4).build(&g, PageRank::new(20));
/// engine.run_until_halt(25);
/// let total: f64 = (0..64).map(|v| engine.vertex_value(v).unwrap()).sum();
/// assert!((total - 1.0).abs() < 1e-6); // ranks stay a distribution
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PageRank {
    iterations: usize,
}

/// The damping factor (the probability of following a link).
const DAMPING: f64 = 0.85;

impl PageRank {
    /// PageRank for the given number of power iterations (damping 0.85).
    pub fn new(iterations: usize) -> Self {
        PageRank { iterations }
    }
}

impl VertexProgram for PageRank {
    type Value = f64;
    type Message = f64;

    fn compute(&self, ctx: &mut Context<'_, '_, f64, f64>, messages: &[f64]) {
        let n = ctx.num_vertices() as f64;
        if ctx.superstep() == 0 {
            *ctx.value_mut() = 1.0 / n;
        } else {
            let incoming: f64 = messages.iter().sum();
            // Dangling mass (degree-0 vertices hold their rank) is ignored;
            // meshes and social graphs here have no isolated vertices.
            *ctx.value_mut() = (1.0 - DAMPING) / n + DAMPING * incoming;
        }
        if ctx.superstep() < self.iterations {
            let share = *ctx.value() / ctx.degree().max(1) as f64;
            ctx.send_to_neighbors(share);
        } else {
            ctx.vote_to_halt();
        }
    }

    /// Rank contributions sum at the receiver, so they can be pre-summed at
    /// the sender — the textbook Pregel combiner.
    fn combine(&self, a: &f64, b: &f64) -> Option<f64> {
        Some(a + b)
    }

    fn has_combiner(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apg_graph::CsrGraph;
    use apg_pregel::EngineBuilder;

    #[test]
    fn ranks_sum_to_one_on_path() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut e = EngineBuilder::new(2).build(&g, PageRank::new(30));
        e.run_until_halt(40);
        let total: f64 = (0..4).map(|v| e.vertex_value(v).unwrap()).sum();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn symmetric_vertices_get_equal_rank() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut e = EngineBuilder::new(2).build(&g, PageRank::new(30));
        e.run_until_halt(40);
        let r0 = e.vertex_value(0).unwrap();
        let r3 = e.vertex_value(3).unwrap();
        assert!((r0 - r3).abs() < 1e-9);
        let r1 = e.vertex_value(1).unwrap();
        assert!(r1 > r0, "middle of a path outranks the ends");
    }

    #[test]
    fn star_centre_dominates() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let mut e = EngineBuilder::new(2).build(&g, PageRank::new(25));
        e.run_until_halt(30);
        let centre = *e.vertex_value(0).unwrap();
        for leaf in 1..5 {
            assert!(centre > *e.vertex_value(leaf).unwrap() * 2.0);
        }
    }

    #[test]
    fn combiner_preserves_results_and_reduces_traffic() {
        use apg_pregel::VertexProgram;
        // A multigraph-ish case: vertex 0 neighbours everything, so several
        // messages share destinations within one worker's outbox.
        let g = apg_graph::gen::mesh3d(4, 4, 4);
        let with = {
            let mut e = EngineBuilder::new(2).build(&g, PageRank::new(20));
            let reports = e.run_until_halt(25);
            let traffic: u64 = reports
                .iter()
                .map(|r| r.messages_local + r.messages_remote)
                .sum();
            (
                traffic,
                (0..64)
                    .map(|v| *e.vertex_value(v).unwrap())
                    .collect::<Vec<f64>>(),
            )
        };
        // Sanity: the combiner is declared.
        assert!(PageRank::new(20).has_combiner());
        assert_eq!(PageRank::new(20).combine(&0.25, &0.5), Some(0.75));
        // Ranks still sum to 1.
        let total: f64 = with.1.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
