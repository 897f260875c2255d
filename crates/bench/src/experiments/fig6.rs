//! Figure 6: scalability — cut ratio and convergence time as graphs grow
//! (mesh and power-law families, 9 partitions, s = 0.5).

use apg_core::{mean_and_sem, AdaptiveConfig, AdaptivePartitioner, Summary};
use apg_graph::gen;
use apg_partition::InitialStrategy;

use crate::Scale;

/// Measurements for one family at one size.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Vertex count.
    pub n: usize,
    /// Final cut ratio.
    pub cut_ratio: Summary,
    /// Convergence time in iterations.
    pub convergence_time: Summary,
}

/// The paper's Figure 6 sizes.
pub fn sizes(scale: Scale) -> &'static [usize] {
    match scale {
        Scale::Paper => &[1000, 3000, 9900, 29700, 99000, 300_000],
        Scale::Quick => &[1000, 3000, 9900],
        Scale::Tiny => &[1000, 3000],
    }
}

/// Runs the mesh family (rectangular 3-D grids at each size).
pub fn run_mesh(scale: Scale, reps: usize, seed: u64) -> Vec<ScalePoint> {
    sizes(scale)
        .iter()
        .map(|&n| {
            let (a, b, c) = gen::rect_mesh_dims(n);
            let graph = gen::mesh3d(a, b, c);
            measure(&graph, n, reps, seed)
        })
        .collect()
}

/// Runs the power-law family (`m = log2-ish` for the paper's
/// `D = log |V|` average degree, triad probability 0.1).
pub fn run_powerlaw(scale: Scale, reps: usize, seed: u64) -> Vec<ScalePoint> {
    sizes(scale)
        .iter()
        .map(|&n| {
            // Average degree D = ln(n) => m = D / 2.
            let m = (((n as f64).ln()) / 2.0).round().max(2.0) as usize;
            let graph = gen::holme_kim(n, m, 0.1, seed);
            measure(&graph, n, reps, seed)
        })
        .collect()
}

fn measure(graph: &apg_graph::CsrGraph, n: usize, reps: usize, seed: u64) -> ScalePoint {
    let mut cuts = Vec::with_capacity(reps);
    let mut conv = Vec::with_capacity(reps);
    for rep in 0..reps {
        let cfg = AdaptiveConfig::builder(9)
            .willingness(0.5)
            .max_iterations(800)
            .build()
            .unwrap();
        let mut p = AdaptivePartitioner::with_strategy(
            graph,
            InitialStrategy::Hash,
            &cfg,
            seed.wrapping_add(rep as u64 * 613),
        );
        let report = p.run_to_convergence();
        cuts.push(report.final_cut_ratio());
        conv.push(report.convergence_time() as f64);
    }
    ScalePoint {
        n,
        cut_ratio: mean_and_sem(&cuts),
        convergence_time: mean_and_sem(&conv),
    }
}

/// Prints both families side by side, as in the paper's dual-axis plot.
pub fn print(mesh: &[ScalePoint], plaw: &[ScalePoint]) {
    println!("Figure 6: scalability (9 partitions, s = 0.5)");
    println!(
        "{:>8} | {:>18} {:>18} | {:>18} {:>18}",
        "|V|", "mesh cut", "mesh conv", "plaw cut", "plaw conv"
    );
    for (m, p) in mesh.iter().zip(plaw) {
        println!(
            "{:>8} | {:>10.4} ±{:<5.4} {:>12.1} ±{:<4.1} | {:>10.4} ±{:<5.4} {:>12.1} ±{:<4.1}",
            m.n,
            m.cut_ratio.mean,
            m.cut_ratio.sem,
            m.convergence_time.mean,
            m.convergence_time.sem,
            p.cut_ratio.mean,
            p.cut_ratio.sem,
            p.convergence_time.mean,
            p.convergence_time.sem,
        );
    }
}
