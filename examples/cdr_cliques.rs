//! The paper's mobile-network scenario (Figure 9), miniaturised: maximal
//! cliques over a fortnight of call-detail records with weekly churn, on
//! adaptive vs static clusters.
//!
//! Ingestion goes through the canonical path: the CDR generator is a
//! `StreamSource` emitting one `UpdateBatch` per buffered call batch
//! (joiners open each week, departures close it), and both engines consume
//! the same batches through `Engine::apply_batch` — no hand-rolled
//! mutation loops.
//!
//! ```text
//! cargo run --release --example cdr_cliques
//! ```

use apg::apps::{maxclique::global_max_clique, MaxClique};
use apg::core::AdaptiveConfig;
use apg::graph::DynGraph;
use apg::pregel::{CostModel, Engine, EngineBuilder};
use apg::streams::{CdrConfig, CdrStream, StreamSource};

fn clique_round(engine: &mut Engine<MaxClique>) -> f64 {
    engine.wake_all();
    engine.run(2).iter().map(|r| r.sim_time).sum()
}

fn main() {
    let config = CdrConfig {
        initial_subscribers: 2500,
        ..CdrConfig::default()
    };
    let mut stream = CdrStream::new(config, 11);
    let initial = DynGraph::with_vertices(config.initial_subscribers);

    let mut dynamic = EngineBuilder::new(5)
        .seed(11)
        .cost_model(CostModel::lan_10gbe())
        .adaptive(AdaptiveConfig::builder(5).build().unwrap())
        .build(&initial, MaxClique::new());
    let mut fixed = EngineBuilder::new(5)
        .seed(11)
        .cost_model(CostModel::lan_10gbe())
        .build(&initial, MaxClique::new());

    for week in 1..=2 {
        let (mut joined, mut departed, mut calls) = (0usize, 0usize, 0usize);
        let mut dyn_time = 0.0;
        let mut fix_time = 0.0;
        // One pull per buffered call batch; topology freezes during each
        // clique round (the paper's batching discipline).
        for _ in 0..config.batches_per_week {
            let batch = stream.next_batch().expect("CDR stream is open-ended");
            joined += batch.num_new_vertices();
            departed += batch.num_vertex_removals();
            calls += batch.num_edge_additions();

            dynamic.apply_batch(&batch);
            fixed.apply_batch(&batch);
            dyn_time += clique_round(&mut dynamic);
            fix_time += clique_round(&mut fixed);
        }

        println!("week {week}: +{joined} subscribers, -{departed} departed, {calls} calls");
        println!(
            "  cut ratio  dynamic {:.3} vs static {:.3}",
            dynamic.cut_ratio(),
            fixed.cut_ratio()
        );
        println!(
            "  round time dynamic {:.0} vs static {:.0}  ({:.0}% of static)",
            dyn_time,
            fix_time,
            100.0 * dyn_time / fix_time
        );
        println!("  largest clique observed: {}", global_max_clique(&dynamic));
    }
}
