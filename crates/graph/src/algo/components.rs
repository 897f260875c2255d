//! Connected components via weighted union-find.

use crate::types::Graph;

/// Result of a connected-components computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    /// Component label per vertex slot; tombstones get `u32::MAX`.
    pub labels: Vec<u32>,
    /// Number of components among live vertices.
    pub count: usize,
    /// Size of the largest component.
    pub giant_size: usize,
}

/// Computes connected components of the live subgraph.
pub fn connected_components<G: Graph>(graph: &G) -> Components {
    let n = graph.num_vertices();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    let mut rank = vec![0u8; n];

    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }

    for v in graph.vertices() {
        for &w in graph.neighbors(v) {
            if w < v {
                continue;
            }
            let (a, b) = (find(&mut parent, v), find(&mut parent, w));
            if a != b {
                match rank[a as usize].cmp(&rank[b as usize]) {
                    std::cmp::Ordering::Less => parent[a as usize] = b,
                    std::cmp::Ordering::Greater => parent[b as usize] = a,
                    std::cmp::Ordering::Equal => {
                        parent[b as usize] = a;
                        rank[a as usize] += 1;
                    }
                }
            }
        }
    }

    let mut labels = vec![u32::MAX; n];
    let mut sizes: Vec<usize> = Vec::new();
    let mut remap = std::collections::HashMap::new();
    for v in graph.vertices() {
        let root = find(&mut parent, v);
        let next = sizes.len() as u32;
        let label = *remap.entry(root).or_insert_with(|| {
            sizes.push(0);
            next
        });
        labels[v as usize] = label;
        sizes[label as usize] += 1;
    }
    Components {
        labels,
        count: sizes.len(),
        giant_size: sizes.iter().copied().max().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CsrGraph, DynGraph};

    #[test]
    fn two_components() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let c = connected_components(&g);
        assert_eq!(c.count, 3); // {0,1,2}, {3,4}, {5}
        assert_eq!(c.giant_size, 3);
        assert_eq!(c.labels[0], c.labels[2]);
        assert_ne!(c.labels[0], c.labels[3]);
    }

    #[test]
    fn tombstones_excluded() {
        let mut g = DynGraph::with_vertices(4);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        g.remove_vertex(3);
        let c = connected_components(&g);
        assert_eq!(c.count, 2); // {0,1}, {2}
        assert_eq!(c.labels[3], u32::MAX);
    }

    #[test]
    fn connected_mesh_is_one_giant_component() {
        let g = crate::gen::mesh3d(5, 5, 5);
        let c = connected_components(&g);
        assert_eq!(c.count, 1);
        assert_eq!(c.giant_size, 125);
    }

    #[test]
    fn empty_graph_has_zero_components() {
        let g = CsrGraph::from_edges(0, &[]);
        let c = connected_components(&g);
        assert_eq!(c.count, 0);
        assert_eq!(c.giant_size, 0);
    }
}
