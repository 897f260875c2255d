//! Quickstart: partition the paper's `64kcube` mesh adaptively and compare
//! against hash partitioning and the centralised METIS-style baseline.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use apg::prelude::*;

fn main() {
    // The paper's 64kcube dataset: a 40x40x40 FEM heart-tissue mesh.
    let graph = apg::graph::gen::mesh3d(40, 40, 40);
    println!(
        "graph: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    // Paper defaults: k = 9 partitions, willingness s = 0.5, capacity 110%
    // of the balanced load, convergence after 30 quiet iterations.
    let config = AdaptiveConfig::builder(9).build().unwrap();
    let mut partitioner =
        AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &config, 42);

    println!("initial (hash) cut ratio: {:.4}", partitioner.cut_ratio());
    let report = partitioner.run_to_convergence();
    println!(
        "adaptive cut ratio:       {:.4}  (converged after {} iterations, {} migrations)",
        report.final_cut_ratio(),
        report.convergence_time(),
        report.total_migrations()
    );

    // The centralised benchmark the paper compares against (Figure 4).
    let metis = apg::metis::partition(&graph, 9, 1.10, 42);
    println!(
        "METIS-style baseline:     {:.4}  (requires global graph knowledge)",
        cut_ratio(&graph, &metis)
    );

    let balance = apg::partition::vertex_imbalance(partitioner.partitioning());
    println!("vertex imbalance:         {balance:.3}  (capacity factor 1.10 bounds this)");
}
