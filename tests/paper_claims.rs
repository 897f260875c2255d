//! Integration tests asserting the paper's *qualitative* claims, one per
//! figure — the same checks EXPERIMENTS.md reports at full scale, here at
//! test-friendly sizes.

use apg::core::{AdaptiveConfig, AdaptivePartitioner};
use apg::graph::{gen, Graph};
use apg::partition::{cut_ratio, vertex_imbalance, InitialStrategy};

fn converge(
    graph: &apg::graph::CsrGraph,
    strategy: InitialStrategy,
    s: f64,
    seed: u64,
) -> apg::core::ConvergenceReport {
    let cfg = AdaptiveConfig::builder(9)
        .willingness(s)
        .max_iterations(600)
        .build()
        .unwrap();
    let mut p = AdaptivePartitioner::with_strategy(graph, strategy, &cfg, seed);
    p.run_to_convergence()
}

/// Figure 1: the cut ratio is insensitive to `s`, but convergence time is
/// worst at the extremes (slow at s→0, non-convergent chasing at s = 1).
#[test]
fn fig1_willingness_shapes_convergence_not_quality() {
    let graph = gen::mesh3d(12, 12, 12);
    let low = converge(&graph, InitialStrategy::Hash, 0.1, 1);
    let mid = converge(&graph, InitialStrategy::Hash, 0.5, 1);
    let one = converge(&graph, InitialStrategy::Hash, 1.0, 1);

    // Quality: no meaningful difference across s (paper: "no statistical
    // difference in the number of cuts").
    let cuts = [
        low.final_cut_ratio(),
        mid.final_cut_ratio(),
        one.final_cut_ratio(),
    ];
    let spread = cuts.iter().cloned().fold(f64::MIN, f64::max)
        - cuts.iter().cloned().fold(f64::MAX, f64::min);
    assert!(spread < 0.08, "cut ratios vary too much across s: {cuts:?}");

    // Convergence: s = 0.1 is much slower than s = 0.5; s = 1.0 chases
    // forever.
    assert!(
        low.convergence_time() > 2 * mid.convergence_time(),
        "low s should converge slowly: {} vs {}",
        low.convergence_time(),
        mid.convergence_time()
    );
    assert!(
        !one.converged(),
        "s = 1.0 must not converge (neighbour chasing)"
    );
}

/// Figure 4: the iterative algorithm improves HSH/RND/MNN substantially
/// (0.2–0.4 cut-ratio drop in the paper) and DGR only slightly; METIS
/// remains the lower bound on meshes.
#[test]
fn fig4_initial_strategies_converge_to_similar_quality() {
    let graph = gen::mesh3d(12, 12, 12);
    let mut finals = Vec::new();
    for strategy in InitialStrategy::ALL {
        let cfg = AdaptiveConfig::builder(9)
            .max_iterations(600)
            .build()
            .unwrap();
        let mut p = AdaptivePartitioner::with_strategy(&graph, strategy, &cfg, 5);
        let initial = p.cut_ratio();
        let report = p.run_to_convergence();
        let improvement = initial - report.final_cut_ratio();
        match strategy {
            InitialStrategy::DeterministicGreedy => assert!(
                improvement < 0.2,
                "DGR should improve only slightly, got {improvement}"
            ),
            _ => assert!(
                improvement > 0.2,
                "{strategy} should improve by > 0.2, got {improvement}"
            ),
        }
        finals.push(report.final_cut_ratio());
    }
    // All strategies land in the same quality band (Figure 5's point).
    let spread = finals.iter().cloned().fold(f64::MIN, f64::max)
        - finals.iter().cloned().fold(f64::MAX, f64::min);
    assert!(spread < 0.1, "final cuts spread too wide: {finals:?}");

    // METIS (global knowledge) still wins on meshes.
    let metis = apg::metis::partition(&graph, 9, 1.10, 5);
    let metis_cut = cut_ratio(&graph, &metis);
    assert!(
        metis_cut < finals.iter().cloned().fold(f64::MAX, f64::min),
        "METIS {metis_cut} should beat the decentralised heuristic on meshes"
    );
}

/// Figure 5: FEM graphs partition better than dense power-law graphs.
#[test]
fn fig5_fem_beats_powerlaw_quality() {
    let mesh = gen::mesh3d(10, 10, 10);
    let plc = gen::holme_kim(1000, 10, 0.1, 2);
    let mesh_cut = converge(&mesh, InitialStrategy::Hash, 0.5, 3).final_cut_ratio();
    let plc_cut = converge(&plc, InitialStrategy::Hash, 0.5, 3).final_cut_ratio();
    assert!(
        mesh_cut + 0.15 < plc_cut,
        "mesh ({mesh_cut}) should partition much better than dense power law ({plc_cut})"
    );
}

/// Figure 6: convergence time grows slowly (the paper reports O(log N) for
/// meshes), and the cut ratio does not degrade with size.
#[test]
fn fig6_convergence_grows_sublinearly() {
    let small = gen::mesh3d(10, 10, 10); // 1 000
    let large = gen::mesh3d(30, 30, 30); // 27 000
    let t_small = converge(&small, InitialStrategy::Hash, 0.5, 7).convergence_time() as f64;
    let t_large = converge(&large, InitialStrategy::Hash, 0.5, 7).convergence_time() as f64;
    // 27x the vertices must cost far less than 27x the iterations.
    assert!(
        t_large < t_small * 6.0,
        "convergence time grew too fast: {t_small} -> {t_large}"
    );

    let c_small = converge(&small, InitialStrategy::Hash, 0.5, 8).final_cut_ratio();
    let c_large = converge(&large, InitialStrategy::Hash, 0.5, 8).final_cut_ratio();
    assert!(
        c_large < c_small + 0.05,
        "cut ratio degraded with size: {c_small} -> {c_large}"
    );
}

/// Figure 7's headline: ~50% cut reduction from hash on the heart mesh,
/// with balance maintained throughout.
#[test]
fn fig7_cut_halves_with_bounded_imbalance() {
    let graph = gen::mesh3d(14, 14, 14);
    let cfg = AdaptiveConfig::builder(9)
        .max_iterations(400)
        .build()
        .unwrap();
    let mut p = AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &cfg, 11);
    let initial = p.cut_ratio();
    p.run_to_convergence();
    assert!(
        p.cut_ratio() < 0.55 * initial,
        "expected ~50% cut reduction: {initial} -> {}",
        p.cut_ratio()
    );
    assert!(vertex_imbalance(p.partitioning()) <= 1.11);
}

/// The dynamic absorption claim (Figure 7b): a +10% forest-fire burst
/// raises the cut, then the heuristic absorbs the peak.
#[test]
fn fig7b_burst_is_absorbed() {
    let graph = gen::mesh3d(12, 12, 12);
    let cfg = AdaptiveConfig::builder(9)
        .max_iterations(400)
        .build()
        .unwrap();
    let mut p = AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &cfg, 13);
    p.run_to_convergence();
    let settled = p.cut_edges();

    // Inject the burst through the partitioner's mutation API.
    let mut shadow = p.graph().clone();
    let before_slots = shadow.num_vertices();
    let new_ids = apg::streams::forest_fire_burst(&mut shadow, 17);
    for &v in &new_ids {
        let nbrs: Vec<u32> = shadow
            .neighbors(v)
            .iter()
            .copied()
            .filter(|&w| (w as usize) < before_slots || w < v)
            .collect();
        p.add_vertex_with_edges(&nbrs);
    }
    let spiked = p.cut_edges();
    assert!(
        spiked > settled,
        "burst must raise the cut: {settled} -> {spiked}"
    );

    p.run_to_convergence();
    let absorbed = p.cut_edges();
    assert!(
        (absorbed as f64) < settled as f64 * 1.25,
        "peak not absorbed: settled {settled}, spiked {spiked}, absorbed {absorbed}"
    );
    p.audit();
}
