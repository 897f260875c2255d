//! One module per experiment: `table1` and `fig1`…`fig9` reproduce the
//! paper's evaluation (§4).

pub mod fig1;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;

use apg_graph::CsrGraph;

use crate::Scale;

/// The two graphs the paper uses for Figures 1 and 4: `64kcube` (FEM) and
/// `epinions` (power law) — shrunk at quick scale.
pub fn headline_graphs(scale: Scale, seed: u64) -> Vec<(&'static str, CsrGraph)> {
    match scale {
        Scale::Paper => vec![
            ("64kcube", apg_graph::gen::mesh3d(40, 40, 40)),
            (
                "epinions",
                apg_graph::gen::preferential_attachment(75_879, 7, seed),
            ),
        ],
        Scale::Quick => vec![
            ("64kcube@quick", apg_graph::gen::mesh3d(16, 16, 16)),
            (
                "epinions@quick",
                apg_graph::gen::preferential_attachment(8_000, 7, seed),
            ),
        ],
        Scale::Tiny => vec![
            ("64kcube@tiny", apg_graph::gen::mesh3d(8, 8, 8)),
            (
                "epinions@tiny",
                apg_graph::gen::preferential_attachment(1_500, 7, seed),
            ),
        ],
    }
}

/// Formats a float with a fixed number of decimals, right-aligned.
pub fn fmt(v: f64, decimals: usize, width: usize) -> String {
    format!(
        "{:>width$.decimals$}",
        v,
        width = width,
        decimals = decimals
    )
}
