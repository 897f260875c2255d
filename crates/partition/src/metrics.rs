//! Partition quality metrics.
//!
//! The paper's gold standard (§4.2) is the **cut ratio**: cut edges
//! normalised by total edges. Balance metrics quantify the "node
//! densification" effect the capacity quotas exist to prevent.

use apg_graph::Graph;

use crate::partitioning::Partitioning;

/// Number of edges whose endpoints lie in different partitions.
///
/// Counts each undirected edge once. Tombstoned vertices contribute nothing
/// (their adjacency is empty in a [`apg_graph::DynGraph`]).
pub fn cut_edges<G: Graph>(graph: &G, partitioning: &Partitioning) -> usize {
    let mut cut = 0usize;
    for v in graph.vertices() {
        let pv = partitioning.partition_of(v);
        for &w in graph.neighbors(v) {
            if w > v && partitioning.partition_of(w) != pv {
                cut += 1;
            }
        }
    }
    cut
}

/// [`cut_edges`] on up to `threads` fan-out threads (`apg-exec`).
///
/// The slot range is cut into fixed-size shards; each shard counts the cut
/// edges whose *lower* endpoint falls in its range against the frozen
/// graph + assignment, and the per-shard counts are summed in shard order.
/// Every edge has exactly one lower endpoint, so the total is exactly what
/// the serial walk counts — the result is a pure function of the data, the
/// thread count only trades wall-clock. Tombstoned slots have empty
/// adjacency and contribute nothing, exactly as in [`cut_edges`].
///
/// This is the recount behind partitioner construction and
/// checkpoint-resume on multi-million-vertex graphs, where a serial
/// `O(|E|)` walk dominates start-up cost.
pub fn cut_edges_sharded<G: Graph + Sync>(
    graph: &G,
    partitioning: &Partitioning,
    threads: usize,
) -> usize {
    let plan = apg_exec::ShardPlan::with_default_size(graph.num_vertices());
    apg_exec::fanout::map_shards(threads, &plan, |_, slots| {
        let mut cut = 0usize;
        for slot in slots {
            let v = slot as apg_graph::VertexId;
            let pv = partitioning.partition_of(v);
            for &w in graph.neighbors(v) {
                if w > v && partitioning.partition_of(w) != pv {
                    cut += 1;
                }
            }
        }
        cut
    })
    .into_iter()
    .sum()
}

/// Cut edges normalised by total edges — the paper's quality measure.
///
/// Returns 0 for edgeless graphs.
pub fn cut_ratio<G: Graph>(graph: &G, partitioning: &Partitioning) -> f64 {
    let e = graph.num_edges();
    if e == 0 {
        0.0
    } else {
        cut_edges(graph, partitioning) as f64 / e as f64
    }
}

/// Vertex imbalance: `max_i |P(i)| / (|V| / k)`.
///
/// 1.0 is perfectly balanced; the paper's capacity setting bounds this at
/// the capacity factor (1.10 in the evaluation).
pub fn vertex_imbalance(partitioning: &Partitioning) -> f64 {
    let total: usize = partitioning.sizes().iter().sum();
    if total == 0 {
        return 1.0;
    }
    let k = partitioning.num_partitions() as f64;
    let max = *partitioning.sizes().iter().max().expect("k >= 1") as f64;
    max / (total as f64 / k)
}

/// Edge-endpoint imbalance: `max_i deg(P(i)) / (2|E| / k)`.
///
/// The quantity the paper's §6 future-work extension balances.
pub fn edge_imbalance<G: Graph>(graph: &G, partitioning: &Partitioning) -> f64 {
    let k = partitioning.num_partitions() as usize;
    let mut degree_mass = vec![0usize; k];
    for v in graph.vertices() {
        degree_mass[partitioning.partition_of(v) as usize] += graph.degree(v);
    }
    let total: usize = degree_mass.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let max = *degree_mass.iter().max().expect("k >= 1") as f64;
    max / (total as f64 / k as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apg_graph::CsrGraph;

    fn path4() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn cut_edges_counts_cross_partition_edges_once() {
        let g = path4();
        let p = Partitioning::from_assignment(vec![0, 0, 1, 1], 2);
        assert_eq!(cut_edges(&g, &p), 1);
        assert!((cut_ratio(&g, &p) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn all_in_one_partition_cuts_nothing() {
        let g = path4();
        let p = Partitioning::new(4, 2);
        assert_eq!(cut_edges(&g, &p), 0);
        assert_eq!(cut_ratio(&g, &p), 0.0);
    }

    #[test]
    fn alternating_assignment_cuts_everything() {
        let g = path4();
        let p = Partitioning::from_assignment(vec![0, 1, 0, 1], 2);
        assert_eq!(cut_edges(&g, &p), 3);
        assert_eq!(cut_ratio(&g, &p), 1.0);
    }

    #[test]
    fn cut_ratio_of_edgeless_graph_is_zero() {
        let g = CsrGraph::from_edges(3, &[]);
        let p = Partitioning::new(3, 2);
        assert_eq!(cut_ratio(&g, &p), 0.0);
    }

    #[test]
    fn vertex_imbalance_detects_densification() {
        let balanced = Partitioning::from_assignment(vec![0, 0, 1, 1], 2);
        assert!((vertex_imbalance(&balanced) - 1.0).abs() < 1e-12);
        let skewed = Partitioning::from_assignment(vec![0, 0, 0, 1], 2);
        assert!((vertex_imbalance(&skewed) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn edge_imbalance_weights_by_degree() {
        // Star centred at 0: all degree mass concentrates with the centre.
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        let p = Partitioning::from_assignment(vec![0, 1, 1, 1], 2);
        // degree mass: p0 = 3, p1 = 3 -> balanced.
        assert!((edge_imbalance(&g, &p) - 1.0).abs() < 1e-12);
        let p2 = Partitioning::from_assignment(vec![0, 0, 0, 1], 2);
        // p0 = 3 + 1 + 1 = 5, p1 = 1 -> 5 / 3.
        assert!((edge_imbalance(&g, &p2) - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn tombstones_do_not_affect_cut() {
        use apg_graph::DynGraph;
        let mut g = DynGraph::with_vertices(4);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        let p = Partitioning::from_assignment(vec![0, 1, 0, 1], 2);
        assert_eq!(cut_edges(&g, &p), 2);
        g.remove_vertex(3);
        assert_eq!(cut_edges(&g, &p), 1);
    }

    #[test]
    fn sharded_recount_matches_serial_at_any_thread_count() {
        use apg_graph::DynGraph;
        // Span several shards so the fan-out genuinely decomposes, and
        // leave tombstones behind so dead slots are exercised too.
        let n = 3 * apg_exec::DEFAULT_SHARD_SIZE + 17;
        let mut g = DynGraph::with_vertices(n);
        for v in 0..n as u32 {
            g.add_edge(v, (v.wrapping_mul(2654435761) % n as u32).max(1));
            g.add_edge(v, ((v as usize + 1) % n) as u32);
        }
        for v in (0..n as u32).step_by(97) {
            g.remove_vertex(v);
        }
        let assignment: Vec<u16> = (0..n).map(|v| (v % 5) as u16).collect();
        let p = Partitioning::from_assignment(assignment, 5);
        let serial = cut_edges(&g, &p);
        assert!(serial > 0);
        for threads in [1, 2, 8] {
            assert_eq!(cut_edges_sharded(&g, &p, threads), serial, "{threads}");
        }
    }

    #[test]
    fn sharded_recount_of_empty_graph_is_zero() {
        let g = CsrGraph::from_edges(0, &[]);
        let p = Partitioning::new(0, 2);
        assert_eq!(cut_edges_sharded(&g, &p, 4), 0);
    }
}
