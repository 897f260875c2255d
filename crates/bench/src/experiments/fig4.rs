//! Figure 4: cut ratio of the four initial strategies, before and after the
//! iterative algorithm, against the METIS benchmark (9 partitions, capacity
//! 110%).

use apg_core::{mean_and_sem, AdaptiveConfig, AdaptivePartitioner, Summary};
use apg_graph::CsrGraph;
use apg_partition::{cut_ratio, InitialStrategy};

/// Result for one initial strategy on one graph.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// The strategy (DGR / HSH / MNN / RND).
    pub strategy: InitialStrategy,
    /// Cut ratio straight after initial partitioning.
    pub initial: Summary,
    /// Cut ratio after running the iterative algorithm to convergence.
    pub iterative: Summary,
}

/// Runs all four strategies on `graph` with `k = 9`.
pub fn run(graph: &CsrGraph, reps: usize, seed: u64) -> Vec<Fig4Row> {
    InitialStrategy::ALL
        .iter()
        .map(|&strategy| {
            let mut initial = Vec::with_capacity(reps);
            let mut iterative = Vec::with_capacity(reps);
            for rep in 0..reps {
                let rep_seed = seed.wrapping_add(rep as u64 * 104_729);
                let cfg = AdaptiveConfig::builder(9)
                    .max_iterations(800)
                    .build()
                    .unwrap();
                let mut p = AdaptivePartitioner::with_strategy(graph, strategy, &cfg, rep_seed);
                initial.push(p.cut_ratio());
                let report = p.run_to_convergence();
                iterative.push(report.final_cut_ratio());
            }
            Fig4Row {
                strategy,
                initial: mean_and_sem(&initial),
                iterative: mean_and_sem(&iterative),
            }
        })
        .collect()
}

/// The centralised METIS-style benchmark line (dashed in the paper).
pub fn metis_baseline(graph: &CsrGraph, seed: u64) -> f64 {
    let p = apg_metis::partition(graph, 9, 1.10, seed);
    cut_ratio(graph, &p)
}

/// Prints one graph's bars plus the METIS line.
pub fn print(name: &str, rows: &[Fig4Row], metis: f64) {
    println!("Figure 4 ({name}): cut ratio by initial strategy (9 partitions, cap 110%)");
    println!(
        "{:>6} {:>20} {:>20}",
        "init", "initial cut", "iterative cut"
    );
    for r in rows {
        println!(
            "{:>6} {:>12.4} ± {:<5.4} {:>12.4} ± {:<5.4}",
            r.strategy.label(),
            r.initial.mean,
            r.initial.sem,
            r.iterative.mean,
            r.iterative.sem
        );
    }
    println!("{:>6} {:>20.4} (centralised benchmark)", "METIS", metis);
}
