//! Fundamental graph types shared across the workspace.

/// Identifier of a vertex.
///
/// The paper's graphs range up to 10^8 vertices; `u32` covers that with half
/// the memory of `usize` in adjacency arrays, which matters for the CSR
/// representation of multi-million-edge graphs.
pub type VertexId = u32;

/// A list of undirected edges `(u, v)`.
///
/// Self-loops and duplicate edges are permitted in an `EdgeList`; graph
/// constructors deduplicate and drop self-loops.
pub type EdgeList = Vec<(VertexId, VertexId)>;

/// Common read-only interface over graph representations.
///
/// Both [`crate::CsrGraph`] and [`crate::DynGraph`] implement this trait, so
/// the partitioning layers (initial strategies, the adaptive heuristic, the
/// METIS-like baseline) are written once against `G: Graph`.
///
/// Vertices are identified by dense ids `0..num_vertices()`. A dynamic graph
/// may contain *removed* ids inside this range; [`Graph::is_vertex`]
/// distinguishes live vertices from tombstones.
///
/// # The list contract
///
/// Every implementation lends neighbour lists that are **strictly
/// ascending** (sorted, duplicate-free), **loop-free** (`v` is never in
/// `neighbors(v)`) and **symmetric** (`w` is in `neighbors(v)` iff `v` is
/// in `neighbors(w)`), and a tombstone lends the **empty slice**, so no
/// live list names one. [`Graph::num_edges`] is half the sum of the list
/// lengths. Consumers rely on this without re-checking:
/// [`crate::DynGraph::from_graph`] copies the lists slice by slice and
/// takes the counts as given, and membership tests binary-search.
pub trait Graph {
    /// Total number of vertex slots, i.e. the exclusive upper bound on ids.
    ///
    /// For dynamic graphs this counts tombstones too; use
    /// [`Graph::num_live_vertices`] for the live population.
    fn num_vertices(&self) -> usize;

    /// Number of live vertices.
    fn num_live_vertices(&self) -> usize;

    /// Number of undirected edges between live vertices.
    fn num_edges(&self) -> usize;

    /// Whether `v` is a live vertex.
    fn is_vertex(&self, v: VertexId) -> bool;

    /// Neighbours of `v` in strictly ascending order; empty for a
    /// tombstone (see the list contract on [`Graph`]).
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vertices() as VertexId`.
    fn neighbors(&self, v: VertexId) -> &[VertexId];

    /// Degree of `v` (0 for tombstoned vertices).
    fn degree(&self, v: VertexId) -> usize {
        self.neighbors(v).len()
    }

    /// Iterator over live vertex ids in ascending order.
    fn vertices(&self) -> LiveVertices<'_, Self>
    where
        Self: Sized,
    {
        LiveVertices {
            graph: self,
            next: 0,
        }
    }
}

/// Iterator over the live vertices of a [`Graph`], produced by
/// [`Graph::vertices`].
#[derive(Debug, Clone)]
pub struct LiveVertices<'a, G> {
    graph: &'a G,
    next: VertexId,
}

impl<G: Graph> Iterator for LiveVertices<'_, G> {
    type Item = VertexId;

    fn next(&mut self) -> Option<VertexId> {
        while (self.next as usize) < self.graph.num_vertices() {
            let v = self.next;
            self.next += 1;
            if self.graph.is_vertex(v) {
                return Some(v);
            }
        }
        None
    }
}

/// Normalises an edge so the smaller endpoint comes first.
///
/// Useful for deduplicating undirected edge lists.
#[inline]
pub fn ordered(u: VertexId, v: VertexId) -> (VertexId, VertexId) {
    if u <= v {
        (u, v)
    } else {
        (v, u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrGraph;

    #[test]
    fn ordered_normalises() {
        assert_eq!(ordered(3, 1), (1, 3));
        assert_eq!(ordered(1, 3), (1, 3));
        assert_eq!(ordered(2, 2), (2, 2));
    }

    #[test]
    fn live_vertices_iterates_all_for_csr() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]);
        let vs: Vec<_> = g.vertices().collect();
        assert_eq!(vs, vec![0, 1, 2, 3]);
    }
}
