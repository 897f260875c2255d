//! The paper's online-social-network scenario (Figure 8), miniaturised:
//! TunkRank influence over a live mention stream on two clusters — one with
//! the background adaptive partitioner, one static hash — for six simulated
//! hours of a London day.
//!
//! Ingestion goes through the canonical path: the Twitter generator is a
//! `StreamSource` emitting `UpdateBatch`es, each batch feeds both Pregel
//! engines (`Engine::apply_batch`) *and* a logical-level
//! `StreamingRunner`, whose per-batch `TimelineStats` show the cut being
//! absorbed as the stream lands.
//!
//! ```text
//! cargo run --release --example social_stream
//! ```

use apg::apps::TunkRank;
use apg::core::{AdaptiveConfig, AdaptivePartitioner, StreamingRunner};
use apg::graph::DynGraph;
use apg::partition::InitialStrategy;
use apg::pregel::{CostModel, EngineBuilder};
use apg::streams::{StreamSource, TwitterConfig, TwitterStream};

fn main() {
    let config = TwitterConfig {
        initial_users: 1200,
        ..TwitterConfig::default()
    };
    // 30-minute windows through the evening ramp-up, pulled as batches.
    let mut stream = TwitterStream::new(config, 7).with_clock(17.0, 1800.0);

    let initial = DynGraph::with_vertices(config.initial_users);
    let program = TunkRank::new(usize::MAX); // runs continuously
    let mut adaptive = EngineBuilder::new(9)
        .seed(7)
        .cost_model(CostModel::lan_10gbe())
        .adaptive(AdaptiveConfig::builder(9).build().unwrap())
        .build(&initial, program);
    let mut hash = EngineBuilder::new(9)
        .seed(7)
        .cost_model(CostModel::lan_10gbe())
        .build(&initial, program);
    let mut runner = StreamingRunner::new(AdaptivePartitioner::with_strategy(
        &initial,
        InitialStrategy::Hash,
        &AdaptiveConfig::builder(9).build().unwrap(),
        7,
    ))
    .iterations_per_batch(3);

    println!(
        "{:>6} {:>8} {:>16} {:>11} {:>10} {:>10} {:>9}",
        "hour", "deltas", "cut in->out", "migrations", "hash t", "adapt t", "speedup"
    );
    for _ in 0..12 {
        let hour = stream.clock_hour();
        let batch = stream.next_batch().expect("stream is open-ended");

        // One batch, three consumers — same deltas everywhere.
        adaptive.apply_batch(&batch);
        hash.apply_batch(&batch);
        let timeline = runner.ingest(&batch);

        let ra = adaptive.run(3);
        let rh = hash.run(3);
        let mean = |rs: &[apg::pregel::SuperstepReport]| {
            rs.iter().map(|r| r.sim_time).sum::<f64>() / rs.len() as f64
        };
        let (ta, th) = (mean(&ra), mean(&rh));
        println!(
            "{:>6.1} {:>8} {:>8.3} ->{:>5.3} {:>11} {:>10.0} {:>10.0} {:>8.2}x",
            hour,
            timeline.deltas,
            timeline.cut_ratio_after_ingest(),
            timeline.cut_ratio_after(),
            timeline.migrations,
            th,
            ta,
            th / ta
        );
    }

    // Who is influential? Report the top user by TunkRank.
    let (best, score) = (0..adaptive.num_total_slots() as u32)
        .filter_map(|v| adaptive.vertex_value(v).map(|s| (v, *s)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("graph is non-empty");
    println!("most influential user: #{best} (influence {score:.2})");
    println!(
        "final cut ratio: adaptive {:.3} vs hash {:.3} (logical runner {:.3})",
        adaptive.cut_ratio(),
        hash.cut_ratio(),
        runner.partitioner().cut_ratio()
    );
}
