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
use apg::graph::{gen, Graph};
use apg::pregel::{CostModel, EngineBuilder};
use apg::streams::{forest_fire_delta, ForestFireConfig};

fn main() {
    let mesh = gen::mesh3d(16, 16, 16);
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
    for step in 0..60 {
        let r = engine.superstep();
        if step % 10 == 0 {
            println!(
                "{:>6} {:>10} {:>12} {:>12.0}",
                step,
                engine.cut_edges(),
                r.migrations_completed,
                r.sim_time
            );
        }
    }

    println!("\nphase (b): +10% forest-fire burst");
    // The burst is computed as an UpdateBatch against the engine's own
    // graph and fed back through the shared delta model.
    let burst = engine.num_live_vertices() / 10;
    let batch = forest_fire_delta(engine.graph(), &ForestFireConfig::burst(burst, 99));
    let new_ids = engine.apply_batch(&batch);
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
        if step % 10 == 0 {
            println!(
                "{:>6} {:>10} {:>12} {:>12.0}",
                60 + step,
                engine.cut_edges(),
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
