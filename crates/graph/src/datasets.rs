//! The named datasets of the paper's Table 1.
//!
//! The synthetic graphs (`1e4`, `64kcube`, `1e6`, `plc*`) are regenerated
//! with the same models and parameters the paper used. The real-world graphs
//! (`3elt`, `4elt`, `wikivote`, `epinions`, `uk-2007-05-u`) cannot be
//! downloaded in this offline environment, so each is substituted by a
//! synthetic analogue matched on vertex count, edge count and family (FEM
//! mesh vs power law); every substitution is recorded in
//! [`Dataset::substitution`].
//!
//! The paper's `1e8` (10^8-vertex heart mesh, 3 TB in RAM on a 63-blade
//! cluster) is listed with a 1/100 scale default.

use crate::csr::CsrGraph;
use crate::gen;

/// Graph family, as listed in the paper's Table 1 "Type" column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphKind {
    /// Finite-element mesh (homogeneous degree distribution).
    Fem,
    /// Power-law degree distribution.
    PowerLaw,
}

impl std::fmt::Display for GraphKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphKind::Fem => write!(f, "FEM"),
            GraphKind::PowerLaw => write!(f, "pwlaw"),
        }
    }
}

/// A named dataset from the paper's Table 1.
#[derive(Debug, Clone, Copy)]
pub struct Dataset {
    /// Name as printed in Table 1.
    pub name: &'static str,
    /// Family of the graph.
    pub kind: GraphKind,
    /// |V| reported in the paper.
    pub paper_vertices: usize,
    /// |E| reported in the paper.
    pub paper_edges: usize,
    /// Source string from Table 1.
    pub paper_source: &'static str,
    /// How this repo realises the dataset (None = same model & parameters).
    pub substitution: Option<&'static str>,
    /// Default downscale denominator (1 = full size).
    pub default_scale_down: usize,
    builder: fn(usize, u64) -> CsrGraph,
}

impl Dataset {
    /// Builds the dataset at its default scale with the given seed.
    ///
    /// Synthetic datasets are deterministic for a fixed seed; mesh datasets
    /// ignore the seed entirely.
    pub fn build(&self, seed: u64) -> CsrGraph {
        (self.builder)(self.default_scale_down, seed)
    }

    /// Vertex count at the default scale.
    pub fn default_vertices(&self) -> usize {
        self.paper_vertices / self.default_scale_down
    }
}

fn b_1e4(_s: usize, _seed: u64) -> CsrGraph {
    gen::mesh3d(100, 10, 10)
}
fn b_64kcube(_s: usize, _seed: u64) -> CsrGraph {
    gen::mesh3d(40, 40, 40)
}
fn b_1e6(_s: usize, _seed: u64) -> CsrGraph {
    gen::mesh3d(100, 100, 100)
}
fn b_1e8(s: usize, _seed: u64) -> CsrGraph {
    // Paper: ~464^3. Default 1/100 scale: 10^6 vertices in cube form.
    let side = (1e8_f64 / s as f64).cbrt().round() as usize;
    gen::mesh3d(side, side, side)
}
fn b_3elt(_s: usize, _seed: u64) -> CsrGraph {
    gen::mesh2d_tri(59, 80) // 4720 vertices, 13883 edges (paper: 4720/13722)
}
fn b_4elt(_s: usize, _seed: u64) -> CsrGraph {
    gen::mesh2d_tri(102, 153) // 15606 vertices, 46309 edges (paper: 15606/45878)
}
fn b_plc1000(_s: usize, seed: u64) -> CsrGraph {
    gen::holme_kim(1000, 10, 0.1, seed)
}
fn b_plc10000(_s: usize, seed: u64) -> CsrGraph {
    gen::holme_kim(10_000, 13, 0.1, seed)
}
fn b_plc50000(_s: usize, seed: u64) -> CsrGraph {
    gen::holme_kim(50_000, 25, 0.1, seed)
}
fn b_wikivote(_s: usize, seed: u64) -> CsrGraph {
    gen::preferential_attachment(7115, 15, seed)
}
fn b_epinions(_s: usize, seed: u64) -> CsrGraph {
    gen::preferential_attachment(75_879, 7, seed)
}
fn b_uk2007(s: usize, seed: u64) -> CsrGraph {
    // Paper: 10^6 vertices, 41.2M edges. Keep vertex count, scale edges.
    let m = (41usize / s).max(1);
    gen::preferential_attachment(1_000_000, m, seed)
}

/// All datasets of Table 1, in the paper's row order.
pub const TABLE1: &[Dataset] = &[
    Dataset {
        name: "1e4",
        kind: GraphKind::Fem,
        paper_vertices: 10_000,
        paper_edges: 27_900,
        paper_source: "synth",
        substitution: None,
        default_scale_down: 1,
        builder: b_1e4,
    },
    Dataset {
        name: "64kcube",
        kind: GraphKind::Fem,
        paper_vertices: 64_000,
        paper_edges: 187_200,
        paper_source: "synth",
        substitution: None,
        default_scale_down: 1,
        builder: b_64kcube,
    },
    Dataset {
        name: "1e6",
        kind: GraphKind::Fem,
        paper_vertices: 1_000_000,
        paper_edges: 2_970_000,
        paper_source: "synth",
        substitution: None,
        default_scale_down: 1,
        builder: b_1e6,
    },
    Dataset {
        name: "1e8",
        kind: GraphKind::Fem,
        paper_vertices: 100_000_000,
        paper_edges: 297_000_000,
        paper_source: "synth",
        substitution: Some("scaled 1/100 by default; single-host reproduction of a 3 TB cluster graph"),
        default_scale_down: 100,
        builder: b_1e8,
    },
    Dataset {
        name: "3elt",
        kind: GraphKind::Fem,
        paper_vertices: 4720,
        paper_edges: 13_722,
        paper_source: "[34]",
        substitution: Some("Walshaw-archive mesh replaced by 59x80 triangulated grid (same |V|, |E| within 1.2%)"),
        default_scale_down: 1,
        builder: b_3elt,
    },
    Dataset {
        name: "4elt",
        kind: GraphKind::Fem,
        paper_vertices: 15_606,
        paper_edges: 45_878,
        paper_source: "[34]",
        substitution: Some("Walshaw-archive mesh replaced by 102x153 triangulated grid (same |V|, |E| within 1%)"),
        default_scale_down: 1,
        builder: b_4elt,
    },
    Dataset {
        name: "plc1000",
        kind: GraphKind::PowerLaw,
        paper_vertices: 1000,
        paper_edges: 9879,
        paper_source: "synth",
        substitution: None,
        default_scale_down: 1,
        builder: b_plc1000,
    },
    Dataset {
        name: "plc10000",
        kind: GraphKind::PowerLaw,
        paper_vertices: 10_000,
        paper_edges: 129_774,
        paper_source: "synth",
        substitution: None,
        default_scale_down: 1,
        builder: b_plc10000,
    },
    Dataset {
        name: "plc50000",
        kind: GraphKind::PowerLaw,
        paper_vertices: 50_000,
        paper_edges: 1_249_061,
        paper_source: "synth",
        substitution: None,
        default_scale_down: 1,
        builder: b_plc50000,
    },
    Dataset {
        name: "wikivote",
        kind: GraphKind::PowerLaw,
        paper_vertices: 7115,
        paper_edges: 103_689,
        paper_source: "[19]",
        substitution: Some("SNAP wiki-Vote replaced by preferential attachment m=15 (|V| exact, |E| within 3%)"),
        default_scale_down: 1,
        builder: b_wikivote,
    },
    Dataset {
        name: "epinion",
        kind: GraphKind::PowerLaw,
        paper_vertices: 75_879,
        paper_edges: 508_837,
        paper_source: "[30]",
        substitution: Some("Epinions trust graph replaced by preferential attachment m=7 (|V| exact, |E| within 5%)"),
        default_scale_down: 1,
        builder: b_epinions,
    },
    Dataset {
        name: "uk-2007-05-u",
        kind: GraphKind::PowerLaw,
        paper_vertices: 1_000_000,
        paper_edges: 41_247_159,
        paper_source: "[2]",
        substitution: Some("LAW webgraph replaced by preferential attachment; |V| exact, |E| scaled 1/10 by default"),
        default_scale_down: 10,
        builder: b_uk2007,
    },
];

/// Looks a dataset up by its Table 1 name.
pub fn by_name(name: &str) -> Option<&'static Dataset> {
    TABLE1.iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Graph;

    #[test]
    fn synthetic_mesh_sizes_match_paper_exactly() {
        for (name, v, e) in [("1e4", 10_000, 27_900), ("64kcube", 64_000, 187_200)] {
            let d = by_name(name).unwrap();
            let g = d.build(0);
            assert_eq!(g.num_vertices(), v, "{name} |V|");
            assert_eq!(g.num_edges(), e, "{name} |E|");
        }
    }

    #[test]
    fn analogue_sizes_close_to_paper() {
        for name in ["3elt", "4elt", "plc1000", "wikivote"] {
            let d = by_name(name).unwrap();
            let g = d.build(1);
            let dv =
                (g.num_vertices() as f64 - d.paper_vertices as f64).abs() / d.paper_vertices as f64;
            let de = (g.num_edges() as f64 - d.paper_edges as f64).abs() / d.paper_edges as f64;
            assert!(dv < 0.01, "{name}: |V| off by {dv}");
            assert!(de < 0.06, "{name}: |E| off by {de}");
        }
    }

    #[test]
    fn substituted_datasets_are_documented() {
        for d in TABLE1 {
            if d.paper_source != "synth" || d.default_scale_down > 1 {
                assert!(
                    d.substitution.is_some(),
                    "{} needs a substitution note",
                    d.name
                );
            }
        }
    }

    #[test]
    fn by_name_misses_gracefully() {
        assert!(by_name("nope").is_none());
        assert_eq!(by_name("epinion").unwrap().paper_vertices, 75_879);
    }

    #[test]
    fn kinds_display_like_table1() {
        assert_eq!(GraphKind::Fem.to_string(), "FEM");
        assert_eq!(GraphKind::PowerLaw.to_string(), "pwlaw");
    }
}
