//! The paper's biomedical scenario (Figure 7), miniaturised: a cardiac
//! tissue simulation on a FEM mesh whose hash partitioning is re-arranged
//! by the background algorithm, followed by a +10% forest-fire growth burst
//! that the partitioning absorbs.
//!
//! ```text
//! cargo run --release --example biomedical
//! ```

use apg::apps::HeartSim;
use apg::core::AdaptiveConfig;
use apg::graph::{gen, DynGraph, Graph};
use apg::pregel::{CostModel, EngineBuilder, MutationBatch};
use apg::streams::{forest_fire_delta, ForestFireConfig};

fn main() {
    let mesh = gen::mesh3d(16, 16, 16);
    let shadow = DynGraph::from(&mesh);
    println!(
        "heart mesh: {} cells, {} gap junctions",
        mesh.num_vertices(),
        mesh.num_edges()
    );

    let mut engine = EngineBuilder::new(9)
        .seed(5)
        .cost_model(CostModel::heartsim())
        .adaptive(AdaptiveConfig::builder(9).build().unwrap())
        .build(&mesh, HeartSim::new());

    println!("\nphase (a): optimising the initial hash partitioning");
    println!(
        "{:>6} {:>10} {:>12} {:>12}",
        "step", "cuts", "migrations", "sim time"
    );
    let mut last_cut = 0;
    for step in 0..60 {
        let r = engine.superstep();
        last_cut = r.cut_edges.unwrap_or(last_cut);
        if step % 10 == 0 {
            println!(
                "{:>6} {:>10} {:>12} {:>12.0}",
                step, last_cut, r.migrations_completed, r.sim_time
            );
        }
    }

    println!("\nphase (b): +10% forest-fire burst");
    // The burst is computed as an UpdateBatch against a shadow copy and
    // fed to the engine through the shared delta model — ids align because
    // engine and shadow allocate slots identically.
    let burst = shadow.num_live_vertices() / 10;
    let batch = forest_fire_delta(&shadow, &ForestFireConfig::burst(burst, 99));
    let new_ids = engine.apply_mutations(MutationBatch::from(batch));
    println!(
        "injected {} new cells; graph now {} vertices / {} edges",
        new_ids.len(),
        engine.num_live_vertices(),
        engine.num_edges()
    );

    println!(
        "{:>6} {:>10} {:>12} {:>12}",
        "step", "cuts", "migrations", "sim time"
    );
    for step in 0..40 {
        let r = engine.superstep();
        last_cut = r.cut_edges.unwrap_or(last_cut);
        if step % 10 == 0 {
            println!(
                "{:>6} {:>10} {:>12} {:>12.0}",
                60 + step,
                last_cut,
                r.migrations_completed,
                r.sim_time
            );
        }
    }
    println!("\nfinal cut ratio: {:.4}", engine.cut_ratio());
    // A cell's voltage proves the tissue is actually simulating throughout.
    let probe = engine.vertex_value(2048).expect("cell state");
    println!("probe cell voltage: {:.3} (tissue active)", probe.voltage);
}
