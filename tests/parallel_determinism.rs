//! Determinism regression: for a fixed seed, the adaptive partitioner's
//! full [`IterationStats`] history must be byte-identical at `parallelism`
//! = 1, 2 and 8, on a power-law graph with interleaved mutations.
//!
//! This is the contract the `apg-exec` layer exists to uphold: shard plans
//! and RNG streams are keyed by data and shard index, never by thread, so
//! the thread count trades wall-clock only.

use apg::core::{AdaptiveConfig, AdaptivePartitioner, IterationStats};
use apg::exec::ShardPlan;
use apg::graph::{Graph, VertexId};
use apg::partition::{InitialStrategy, PartitionId};

const SEED: u64 = 21;
const VERTICES: usize = 20_000;

/// Runs the scripted scenario — power-law refinement with vertex/edge
/// insertions and removals interleaved between iteration blocks — and
/// returns everything observable about the run.
fn run_scenario(parallelism: usize) -> (Vec<IterationStats>, Vec<PartitionId>, usize) {
    let g = apg::graph::gen::holme_kim(VERTICES, 6, 0.1, 9);
    let cfg = AdaptiveConfig::builder(8)
        .willingness(0.5)
        .parallelism(parallelism)
        .build()
        .unwrap();
    let mut p = AdaptivePartitioner::with_strategy(&g, InitialStrategy::Hash, &cfg, SEED);

    let mut history = p.run_for(6);
    // Interleave scripted mutations with iteration blocks (the paper's
    // dynamic scenarios, deterministic so every run sees the same stream).
    for round in 0u32..3 {
        let anchor = 17 * (round + 1);
        let v = p.add_vertex_with_edges(&[anchor, anchor + 7, anchor + 13, anchor + 29]);
        p.add_edge(v, anchor + 41);
        p.remove_edge(anchor, anchor + 1);
        p.remove_vertex(500 * (round + 1));
        history.extend(p.run_for(4));
    }
    p.audit();
    (history, p.partitioning().as_slice().to_vec(), p.cut_edges())
}

#[test]
fn history_is_byte_identical_across_parallelism_1_2_8() {
    // Guard: the graph must span several shards, otherwise parallelism
    // never actually fans out and the test proves nothing.
    assert!(
        ShardPlan::with_default_size(VERTICES).num_shards() >= 4,
        "test graph no longer spans multiple shards"
    );

    let baseline = run_scenario(1);
    for parallelism in [2usize, 8] {
        let run = run_scenario(parallelism);
        assert_eq!(
            baseline.0, run.0,
            "IterationStats history diverged at parallelism {parallelism}"
        );
        // Byte-identical, literally: compare the serialised form too.
        assert_eq!(
            format!("{:?}", baseline.0),
            format!("{:?}", run.0),
            "debug serialisation diverged at parallelism {parallelism}"
        );
        assert_eq!(
            baseline.1, run.1,
            "final assignment diverged at parallelism {parallelism}"
        );
        assert_eq!(
            baseline.2, run.2,
            "cut count diverged at parallelism {parallelism}"
        );
    }

    // The scenario must exercise real work: migrations happened and the
    // mutations changed the population.
    let migrations: usize = baseline.0.iter().map(|s| s.migrations).sum();
    assert!(migrations > 100, "scenario too quiet: {migrations}");
    let last = baseline.0.last().unwrap();
    assert_eq!(last.live_vertices, VERTICES + 3 - 3);
}

/// The knob must also not alter what the heuristic achieves: same final
/// quality regardless of how many threads computed it.
#[test]
fn quality_is_parallelism_independent() {
    let g = apg::graph::gen::holme_kim(8_192, 4, 0.1, 3);
    let run = |parallelism: usize| {
        let cfg = AdaptiveConfig::builder(4)
            .parallelism(parallelism)
            .build()
            .unwrap();
        let mut p = AdaptivePartitioner::with_strategy(&g, InitialStrategy::Random, &cfg, 11);
        p.run_for(20);
        (p.cut_ratio(), p.partitioning().sizes().to_vec())
    };
    assert_eq!(run(1), run(5));
}

/// Tombstone handling inside shards: removed vertices must be skipped
/// identically whether their shard runs alone or among eight.
#[test]
fn tombstone_heavy_graph_stays_deterministic() {
    let run = |parallelism: usize| {
        let g = apg::graph::gen::holme_kim(12_000, 5, 0.1, 4);
        let cfg = AdaptiveConfig::builder(6)
            .parallelism(parallelism)
            .build()
            .unwrap();
        let mut p = AdaptivePartitioner::with_strategy(&g, InitialStrategy::Hash, &cfg, 13);
        // Kill every 10th vertex, creating tombstones across every shard.
        for v in (0..12_000u32).step_by(10) {
            p.remove_vertex(v as VertexId);
        }
        let history = p.run_for(8);
        p.audit();
        assert_eq!(p.graph().num_live_vertices(), 12_000 - 1_200);
        history
    };
    assert_eq!(run(1), run(8));
}
