//! Figure 5: final cut ratio of the iterative heuristic across the dataset
//! zoo, for each of the four initial strategies.

use apg_core::{mean_and_sem, AdaptiveConfig, AdaptivePartitioner, Summary};
use apg_graph::{datasets, CsrGraph};
use apg_partition::InitialStrategy;

use crate::Scale;

/// All strategy results for one graph.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Dataset name.
    pub graph: String,
    /// Final cut ratio per strategy, in [`InitialStrategy::ALL`] order.
    pub cuts: Vec<(InitialStrategy, Summary)>,
}

/// The paper's Figure 5 graph list (quick scale trims the biggest two).
pub fn graphs(scale: Scale, seed: u64) -> Vec<(String, CsrGraph)> {
    let names: &[&str] = match scale {
        Scale::Paper => &[
            "1e4", "3elt", "4elt", "64kcube", "plc1000", "plc10000", "epinion", "wikivote",
        ],
        Scale::Quick => &["1e4", "3elt", "plc1000", "wikivote"],
        Scale::Tiny => &["3elt", "plc1000"],
    };
    names
        .iter()
        .map(|n| {
            let d = datasets::by_name(n).expect("known dataset");
            (n.to_string(), d.build(seed))
        })
        .collect()
}

/// Runs the full grid.
pub fn run(scale: Scale, reps: usize, seed: u64) -> Vec<Fig5Row> {
    graphs(scale, seed)
        .into_iter()
        .map(|(name, graph)| {
            let cuts = InitialStrategy::ALL
                .iter()
                .map(|&strategy| {
                    let mut vals = Vec::with_capacity(reps);
                    for rep in 0..reps {
                        let cfg = AdaptiveConfig::builder(9)
                            .max_iterations(600)
                            .build()
                            .unwrap();
                        let mut p = AdaptivePartitioner::with_strategy(
                            &graph,
                            strategy,
                            &cfg,
                            seed.wrapping_add(rep as u64 * 31 + 7),
                        );
                        let report = p.run_to_convergence();
                        vals.push(report.final_cut_ratio());
                    }
                    (strategy, mean_and_sem(&vals))
                })
                .collect();
            Fig5Row { graph: name, cuts }
        })
        .collect()
}

/// Prints the grid in the paper's grouped-bar layout.
pub fn print(rows: &[Fig5Row]) {
    println!("Figure 5: iterative-algorithm cut ratio per graph and initial strategy");
    print!("{:<10}", "graph");
    for s in InitialStrategy::ALL {
        print!(" {:>16}", s.label());
    }
    println!();
    for r in rows {
        print!("{:<10}", r.graph);
        for (_, summary) in &r.cuts {
            print!(" {:>9.4} ±{:<5.4}", summary.mean, summary.sem);
        }
        println!();
    }
}
