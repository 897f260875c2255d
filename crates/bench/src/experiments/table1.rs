//! Table 1: the dataset inventory.

use apg_graph::datasets::{Dataset, TABLE1};
use apg_graph::{algo, Graph};

use crate::Scale;

/// One reproduced row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Dataset name as in the paper.
    pub name: &'static str,
    /// Family ("FEM"/"pwlaw").
    pub kind: String,
    /// |V| the paper lists.
    pub paper_v: usize,
    /// |E| the paper lists.
    pub paper_e: usize,
    /// |V| of the graph we actually build.
    pub built_v: usize,
    /// |E| of the graph we actually build.
    pub built_e: usize,
    /// Mean degree of the built graph.
    pub mean_degree: f64,
    /// Substitution note, if the original is not reproducible offline.
    pub substitution: Option<&'static str>,
}

/// Datasets to materialise at the given scale. At quick scale the two
/// largest (1e8-class) datasets are skipped.
pub fn selected(scale: Scale) -> Vec<&'static Dataset> {
    TABLE1
        .iter()
        .filter(|d| match scale {
            Scale::Paper => true,
            Scale::Quick => d.default_vertices() <= 200_000,
            Scale::Tiny => d.default_vertices() <= 20_000,
        })
        .collect()
}

/// Builds every selected dataset and measures it.
pub fn run(scale: Scale, seed: u64) -> Vec<Table1Row> {
    selected(scale)
        .into_iter()
        .map(|d| {
            let g = d.build(seed);
            let stats = algo::degree_stats(&g);
            Table1Row {
                name: d.name,
                kind: d.kind.to_string(),
                paper_v: d.paper_vertices,
                paper_e: d.paper_edges,
                built_v: g.num_vertices(),
                built_e: g.num_edges(),
                mean_degree: stats.mean,
                substitution: d.substitution,
            }
        })
        .collect()
}

/// Prints the table like the paper's Table 1, with built columns appended.
pub fn print(rows: &[Table1Row]) {
    println!("Table 1: datasets (paper listing vs built graph)");
    println!(
        "{:<14} {:>12} {:>12} {:>6} | {:>12} {:>12} {:>8}  substitution",
        "name", "paper |V|", "paper |E|", "type", "built |V|", "built |E|", "deg"
    );
    for r in rows {
        println!(
            "{:<14} {:>12} {:>12} {:>6} | {:>12} {:>12} {:>8.2}  {}",
            r.name,
            r.paper_v,
            r.paper_e,
            r.kind,
            r.built_v,
            r.built_e,
            r.mean_degree,
            r.substitution.unwrap_or("-")
        );
    }
}
