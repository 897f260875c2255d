//! Figure 7: the biomedical use case — re-arranging a hash-partitioned
//! heart mesh (a), then absorbing a +10% forest-fire burst (b).
//!
//! The paper ran a 100 M-vertex mesh on 63 blades (3 TB in RAM); this
//! driver runs the same generator family at single-host scale and measures
//! time through the engine's cost model, normalised to a static-hash
//! baseline exactly as the paper normalises its Figure 7. The burst
//! reproduces the paper's ratios: +10% vertices, ~3 edges per new vertex.

use apg_apps::HeartSim;
use apg_core::AdaptiveConfig;
use apg_graph::{gen, DynGraph, Graph, UpdateBatch};
use apg_pregel::{CostModel, Engine, EngineBuilder};

use crate::Scale;

/// One superstep's observables (the three series of Figure 7).
#[derive(Debug, Clone, Copy)]
pub struct Fig7Point {
    /// Superstep index (continuous across phases).
    pub superstep: usize,
    /// Cut edges after this superstep.
    pub cut_edges: usize,
    /// Vertex states physically moved this superstep.
    pub migrations: u64,
    /// Simulated time, normalised to the static-hash baseline.
    pub time_norm: f64,
}

/// Full two-phase result.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// Phase (a): optimisation of the initial hash partitioning.
    pub phase_a: Vec<Fig7Point>,
    /// Phase (b): absorption of the forest-fire burst.
    pub phase_b: Vec<Fig7Point>,
    /// Static-hash baseline simulated time per superstep (phase a graph).
    pub baseline_a: f64,
    /// Static-hash baseline after the burst (phase b graph).
    pub baseline_b: f64,
    /// Mesh vertices before the burst.
    pub vertices_before: usize,
    /// Mesh edges before the burst.
    pub edges_before: usize,
}

/// Mesh side length per scale: `Paper` uses 64³ ≈ 262 k vertices (the
/// documented single-host substitute for the paper's 100 M), `Quick` 20³.
pub fn mesh_side(scale: Scale) -> usize {
    match scale {
        Scale::Paper => 64,
        Scale::Quick => 20,
        Scale::Tiny => 10,
    }
}

const WORKERS: u16 = 9;
const QUIET_WINDOW: usize = 30;

/// Runs both phases.
pub fn run(scale: Scale, seed: u64) -> Fig7Result {
    let side = mesh_side(scale);
    let (cap_a, cap_b) = match scale {
        Scale::Paper => (450, 550),
        Scale::Quick => (150, 200),
        Scale::Tiny => (60, 80),
    };
    let mesh = gen::mesh3d(side, side, side);
    let vertices_before = mesh.num_live_vertices();
    let edges_before = mesh.num_edges();

    // Static-hash baseline engine: same program, no adaptive algorithm.
    let mut static_engine = EngineBuilder::new(WORKERS)
        .seed(seed)
        .cost_model(CostModel::heartsim())
        .build(&mesh, HeartSim::new());
    let baseline_a = mean_time(&mut static_engine, 5);

    let mut engine = EngineBuilder::new(WORKERS)
        .seed(seed)
        .cost_model(CostModel::heartsim())
        .adaptive(AdaptiveConfig::builder(WORKERS).build().unwrap())
        .build(&mesh, HeartSim::new());

    let phase_a = run_phase(&mut engine, baseline_a, cap_a);

    // Phase b: the paper's "huge increase in load" — inject the burst into
    // both engines and re-baseline on the grown graph.
    let batch = burst_batch(engine.graph(), seed ^ 0xF1FE);
    engine.apply_batch(&batch);
    static_engine.apply_batch(&batch);
    let baseline_b = mean_time(&mut static_engine, 5);
    let phase_b = run_phase(&mut engine, baseline_b, cap_b);

    Fig7Result {
        phase_a,
        phase_b,
        baseline_a,
        baseline_b,
        vertices_before,
        edges_before,
    }
}

/// Builds the +10% forest-fire burst as an update batch. The base graph
/// is borrowed, not advanced; engine vertex ids and the batch's ids stay
/// aligned because both allocate sequentially.
pub fn burst_batch(base: &DynGraph, seed: u64) -> UpdateBatch {
    let burst = base.num_live_vertices() / 10;
    apg_streams::forest_fire_delta(base, &apg_streams::ForestFireConfig::burst(burst, seed))
}

fn run_phase(engine: &mut Engine<HeartSim>, baseline: f64, cap: usize) -> Vec<Fig7Point> {
    let mut points = Vec::new();
    let mut quiet = 0usize;
    for _ in 0..cap {
        let r = engine.superstep();
        points.push(Fig7Point {
            superstep: r.superstep,
            cut_edges: engine.cut_edges(),
            migrations: r.migrations_completed,
            time_norm: r.sim_time / baseline,
        });
        if r.migrations_started == 0 && r.migrations_completed == 0 {
            quiet += 1;
            if quiet >= QUIET_WINDOW {
                break;
            }
        } else {
            quiet = 0;
        }
    }
    points
}

fn mean_time(engine: &mut Engine<HeartSim>, supersteps: usize) -> f64 {
    let reports = engine.run(supersteps);
    reports.iter().map(|r| r.sim_time).sum::<f64>() / supersteps as f64
}

/// Prints the two phases, thinned to every `stride`th superstep.
pub fn print(result: &Fig7Result, stride: usize) {
    println!(
        "Figure 7: biomedical mesh ({} vertices, {} edges), 9 workers",
        result.vertices_before, result.edges_before
    );
    for (phase, series, baseline) in [
        (
            "(a) hash re-arrangement",
            &result.phase_a,
            result.baseline_a,
        ),
        (
            "(b) forest-fire absorption",
            &result.phase_b,
            result.baseline_b,
        ),
    ] {
        println!("--- {phase} (baseline sim-time {baseline:.0}) ---");
        println!(
            "{:>9} {:>12} {:>12} {:>10}",
            "superstep", "cuts", "migrations", "time/hash"
        );
        for p in series.iter().step_by(stride.max(1)) {
            println!(
                "{:>9} {:>12} {:>12} {:>10.2}",
                p.superstep, p.cut_edges, p.migrations, p.time_norm
            );
        }
        if let (Some(first), Some(last)) = (series.first(), series.last()) {
            println!(
                "summary: cuts {} -> {} ({:.0}% kept), peak time x{:.1}, final time x{:.2}",
                first.cut_edges,
                last.cut_edges,
                100.0 * last.cut_edges as f64 / first.cut_edges as f64,
                series.iter().map(|p| p.time_norm).fold(0.0f64, f64::max),
                last.time_norm
            );
        }
    }
}
