//! Figure 1: effect of the willingness-to-move `s` on convergence time and
//! cut ratio (64kcube and epinions, 9 partitions, 10 repetitions).

use apg_core::{mean_and_sem, AdaptiveConfig, AdaptivePartitioner, Summary};
use apg_graph::CsrGraph;
use apg_partition::InitialStrategy;

/// One point of the Figure 1 series.
#[derive(Debug, Clone)]
pub struct SPoint {
    /// Willingness to move.
    pub s: f64,
    /// Convergence time in iterations (mean ± SEM over reps).
    pub convergence_time: Summary,
    /// Final cut ratio (mean ± SEM over reps).
    pub cut_ratio: Summary,
}

/// The s values the paper sweeps (0 would never migrate; 1 has no damping).
pub const S_VALUES: [f64; 10] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// Sweeps `s` on one graph with `k = 9` partitions.
pub fn sweep(graph: &CsrGraph, s_values: &[f64], reps: usize, seed: u64) -> Vec<SPoint> {
    s_values
        .iter()
        .map(|&s| {
            let mut conv = Vec::with_capacity(reps);
            let mut cuts = Vec::with_capacity(reps);
            for rep in 0..reps {
                let cfg = AdaptiveConfig::builder(9)
                    .willingness(s)
                    .max_iterations(800)
                    .build()
                    .unwrap();
                let mut p = AdaptivePartitioner::with_strategy(
                    graph,
                    InitialStrategy::Hash,
                    &cfg,
                    seed.wrapping_add(rep as u64 * 7919),
                );
                let report = p.run_to_convergence();
                conv.push(report.convergence_time() as f64);
                cuts.push(report.final_cut_ratio());
            }
            SPoint {
                s,
                convergence_time: mean_and_sem(&conv),
                cut_ratio: mean_and_sem(&cuts),
            }
        })
        .collect()
}

/// Prints one graph's series in the paper's two-axis layout.
pub fn print(name: &str, points: &[SPoint]) {
    println!("Figure 1 ({name}): willingness to move vs convergence time / cut ratio");
    println!(
        "{:>5} {:>22} {:>22}",
        "s", "convergence (iters)", "cut ratio"
    );
    for p in points {
        println!(
            "{:>5.1} {:>14.1} ± {:<5.1} {:>14.4} ± {:<6.4}",
            p.s, p.convergence_time.mean, p.convergence_time.sem, p.cut_ratio.mean, p.cut_ratio.sem
        );
    }
}
