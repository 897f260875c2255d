//! Degree and clustering statistics.

use crate::types::Graph;

/// Summary statistics of the live-vertex degree distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Mean degree (`2|E| / |V|` for live vertices).
    pub mean: f64,
    /// Population standard deviation of degree.
    pub std_dev: f64,
}

/// Computes [`DegreeStats`] over the live vertices.
///
/// Returns all-zero stats for an empty graph.
pub fn degree_stats<G: Graph>(graph: &G) -> DegreeStats {
    let mut min = usize::MAX;
    let mut max = 0usize;
    let mut sum = 0f64;
    let mut sum_sq = 0f64;
    let mut count = 0usize;
    for v in graph.vertices() {
        let d = graph.degree(v);
        min = min.min(d);
        max = max.max(d);
        sum += d as f64;
        sum_sq += (d * d) as f64;
        count += 1;
    }
    if count == 0 {
        return DegreeStats {
            min: 0,
            max: 0,
            mean: 0.0,
            std_dev: 0.0,
        };
    }
    let mean = sum / count as f64;
    let var = (sum_sq / count as f64 - mean * mean).max(0.0);
    DegreeStats {
        min,
        max,
        mean,
        std_dev: var.sqrt(),
    }
}

/// Global clustering coefficient (transitivity): `3 * triangles / open triads`.
///
/// Exact, `O(sum of d(v)^2)`; fine for the dataset sizes in this repo's test
/// and bench suites. The paper's Holme–Kim graphs are generated with
/// "approximate average clustering", which this verifies.
pub fn global_clustering<G: Graph>(graph: &G) -> f64 {
    let mut triangles = 0u64; // each triangle counted 3 times (once per apex)
    let mut triads = 0u64;
    for v in graph.vertices() {
        let nbrs = graph.neighbors(v);
        let d = nbrs.len() as u64;
        triads += d.saturating_sub(1) * d / 2;
        for (i, &a) in nbrs.iter().enumerate() {
            for &b in &nbrs[i + 1..] {
                // nbrs sorted ascending, a < b
                if graph.neighbors(a).binary_search(&b).is_ok() {
                    triangles += 1;
                }
            }
        }
    }
    if triads == 0 {
        0.0
    } else {
        triangles as f64 / triads as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrGraph;

    #[test]
    fn degree_stats_on_star() {
        // Star with centre 0 and 4 leaves.
        let g = CsrGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let s = degree_stats(&g);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 4);
        assert!((s.mean - 1.6).abs() < 1e-12);
    }

    #[test]
    fn degree_stats_empty() {
        let g = CsrGraph::from_edges(0, &[]);
        let s = degree_stats(&g);
        assert_eq!(
            s,
            DegreeStats {
                min: 0,
                max: 0,
                mean: 0.0,
                std_dev: 0.0
            }
        );
    }

    #[test]
    fn clustering_of_triangle_is_one() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        assert!((global_clustering(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clustering_of_star_is_zero() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(global_clustering(&g), 0.0);
    }

    #[test]
    fn clustering_of_triangle_plus_pendant() {
        // Triangle {0,1,2} plus pendant 3 on 0: 3 closed / (3 + 3 extra open
        // triads at vertex 0 choose pairs with 3) -> triangles=3, triads:
        // v0: C(3,2)=3, v1: 1, v2: 1, v3: 0 => 5. 3/5.
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (0, 3)]);
        assert!((global_clustering(&g) - 0.6).abs() < 1e-12);
    }
}
