//! TunkRank — "a Twitter analog to PageRank" (Tunkelang, 2009), the
//! influence measure the paper runs continuously over its live mention
//! graph (Figure 8).

use apg_pregel::{Context, VertexProgram};

/// Iterative TunkRank over the (undirected) mention graph.
///
/// The influence of a user is the expected number of people who read a
/// tweet they post, directly or via retweets:
/// `influence(v) = Σ_{w ∈ followers(v)} (1 + p · influence(w)) / |friends(w)|`,
/// with retweet probability `p`. On the mention graph, edges are treated
/// symmetrically (a mention implies attention in both directions).
///
/// Runs a fixed number of iterations; in the paper's deployment it simply
/// never stops, recomputing as the graph changes — call
/// [`apg_pregel::Engine::run`] repeatedly for the same effect.
#[derive(Debug, Clone, Copy)]
pub struct TunkRank {
    iterations: usize,
}

/// The retweet probability `p` (a common literature choice).
const RETWEET_PROB: f64 = 0.05;

impl TunkRank {
    /// TunkRank for a fixed number of iterations with retweet probability
    /// `p = 0.05`.
    pub fn new(iterations: usize) -> Self {
        TunkRank { iterations }
    }
}

impl VertexProgram for TunkRank {
    type Value = f64;
    type Message = f64;

    fn compute(&self, ctx: &mut Context<'_, '_, f64, f64>, messages: &[f64]) {
        if ctx.superstep() > 0 {
            *ctx.value_mut() = messages.iter().sum();
        }
        if ctx.superstep() < self.iterations {
            let contribution = (1.0 + RETWEET_PROB * *ctx.value()) / ctx.degree().max(1) as f64;
            ctx.send_to_neighbors(contribution);
        } else {
            ctx.vote_to_halt();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apg_graph::{gen, CsrGraph};
    use apg_pregel::EngineBuilder;

    #[test]
    fn hub_is_most_influential() {
        // Star: the centre is mentioned by everyone.
        let g = CsrGraph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        let mut e = EngineBuilder::new(2).build(&g, TunkRank::new(15));
        e.run_until_halt(20);
        let centre = *e.vertex_value(0).unwrap();
        for leaf in 1..6 {
            assert!(centre > *e.vertex_value(leaf).unwrap());
        }
    }

    #[test]
    fn influence_grows_with_degree_on_powerlaw() {
        let g = gen::preferential_attachment(300, 3, 5);
        let mut e = EngineBuilder::new(3).build(&g, TunkRank::new(12));
        e.run_until_halt(15);
        // Vertex 0 is in the seed clique of a BA graph: highest degree tier.
        let hub = *e.vertex_value(0).unwrap();
        let tail = *e.vertex_value(299).unwrap();
        assert!(hub > tail, "hub {hub} vs tail {tail}");
    }

    #[test]
    fn converges_to_fixed_point_on_regular_graph() {
        // On a cycle every vertex is symmetric: influence must be equal.
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let mut e = EngineBuilder::new(2).build(&g, TunkRank::new(25));
        e.run_until_halt(30);
        let v0 = *e.vertex_value(0).unwrap();
        for v in 1..5 {
            assert!((*e.vertex_value(v).unwrap() - v0).abs() < 1e-9);
        }
        // Fixed point of x = (1 + p x) for degree-2 cycle: each neighbour
        // contributes (1 + p x)/2, two neighbours -> x = 1 + p x.
        let expected = 1.0 / (1.0 - 0.05);
        assert!(
            (v0 - expected).abs() < 1e-6,
            "got {v0}, expected {expected}"
        );
    }
}
