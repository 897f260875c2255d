//! Determinism regression for the streaming ingestion layer: for a fixed
//! seed, the per-batch [`TimelineStats`] timeline must be identical at
//! `parallelism` = 1, 2 and 8 for every stream source — CDR weeks, Twitter
//! windows, a chunked forest-fire burst, and power-law growth.
//!
//! This extends PR 2's contract to the streaming path: delta application
//! and the quota merge are single-threaded and ordered, the decision sweep
//! is sharded by data (never by thread), so the thread count trades
//! wall-clock only. `TimelineStats` equality deliberately ignores
//! `wall_ms`; the projection check below pins every deterministic field
//! byte-for-byte.

use apg::core::{AdaptiveConfig, AdaptivePartitioner, StreamingRunner, TimelineStats};
use apg::exec::ShardPlan;
use apg::graph::{gen, DynGraph};
use apg::partition::InitialStrategy;
use apg::streams::{
    CdrConfig, CdrStream, ForestFireConfig, ForestFireSource, PowerLawGrowth, TwitterConfig,
    TwitterStream,
};

const SEED: u64 = 23;

fn runner(graph: &DynGraph, parallelism: usize) -> StreamingRunner {
    let cfg = AdaptiveConfig::builder(8)
        .parallelism(parallelism)
        .build()
        .unwrap();
    StreamingRunner::new(AdaptivePartitioner::with_strategy(
        graph,
        InitialStrategy::Hash,
        &cfg,
        SEED,
    ))
    .iterations_per_batch(3)
}

/// Runs all four sources at the given parallelism; returns the
/// concatenated timelines, tagged by scenario.
fn run_all(parallelism: usize) -> Vec<(&'static str, Vec<TimelineStats>)> {
    let mut out = Vec::new();

    // CDR churn, 1.5 weeks of call batches.
    let cdr_config = CdrConfig {
        initial_subscribers: 12_000,
        ..CdrConfig::default()
    };
    let graph = DynGraph::with_vertices(cdr_config.initial_subscribers);
    let mut r = runner(&graph, parallelism);
    r.drive(&mut CdrStream::new(cdr_config, SEED), 21);
    out.push(("cdr", r.timeline().to_vec()));

    // Twitter mentions, ten 10-minute windows from mid-morning.
    let tw_config = TwitterConfig {
        initial_users: 6_000,
        ..TwitterConfig::default()
    };
    let graph = DynGraph::with_vertices(tw_config.initial_users);
    let mut r = runner(&graph, parallelism);
    r.drive(
        &mut TwitterStream::new(tw_config, SEED).with_clock(10.0, 600.0),
        10,
    );
    out.push(("twitter", r.timeline().to_vec()));

    // Forest-fire burst over a power-law base, chunked into 8 batches.
    let base = DynGraph::from(&gen::holme_kim(16_000, 6, 0.1, 9));
    let cfg = ForestFireConfig::burst(1_600, SEED);
    let mut r = runner(&base, parallelism);
    r.drive(&mut ForestFireSource::new(&base, &cfg, 200), usize::MAX);
    out.push(("forest-fire", r.timeline().to_vec()));

    // Open-ended preferential-attachment growth.
    let mut r = runner(&base, parallelism);
    r.drive(&mut PowerLawGrowth::new(&base, 5, 400, SEED), 6);
    out.push(("powerlaw-growth", r.timeline().to_vec()));

    out
}

#[test]
fn timelines_are_identical_across_parallelism_1_2_8() {
    // Guard: the graphs must span several shards, otherwise parallelism
    // never actually fans out and the test proves nothing.
    assert!(
        ShardPlan::with_default_size(12_000).num_shards() >= 2,
        "test graphs no longer span multiple shards"
    );

    let baseline = run_all(1);
    for parallelism in [2usize, 8] {
        let run = run_all(parallelism);
        for ((name, base_tl), (_, run_tl)) in baseline.iter().zip(&run) {
            assert_eq!(
                base_tl, run_tl,
                "{name} timeline diverged at parallelism {parallelism}"
            );
            // Byte-identical, literally: every deterministic field, in
            // order, in serialised form.
            let project = |tl: &[TimelineStats]| -> String {
                tl.iter()
                    .map(|s| format!("{:?}", s.deterministic_fields()))
                    .collect::<Vec<_>>()
                    .join("\n")
            };
            assert_eq!(
                project(base_tl),
                project(run_tl),
                "{name} projection diverged at parallelism {parallelism}"
            );
        }
    }

    // The scenarios must exercise real work: every source mutated the
    // graph and the partitioner actually migrated vertices.
    for (name, timeline) in &baseline {
        let deltas: usize = timeline.iter().map(|s| s.deltas).sum();
        let migrations: usize = timeline.iter().map(|s| s.migrations).sum();
        assert!(deltas > 0, "{name} ingested nothing");
        assert!(migrations > 0, "{name} too quiet to prove anything");
    }
}

/// The quality the heuristic reaches through a streaming run must also be
/// independent of the thread count, not just the bookkeeping.
#[test]
fn streaming_quality_is_parallelism_independent() {
    let run = |parallelism: usize| {
        let config = CdrConfig {
            initial_subscribers: 9_000,
            ..CdrConfig::default()
        };
        let graph = DynGraph::with_vertices(config.initial_subscribers);
        let mut r = runner(&graph, parallelism);
        r.drive(&mut CdrStream::new(config, 31), 14);
        let p = r.into_partitioner();
        (p.cut_edges(), p.partitioning().sizes().to_vec())
    };
    assert_eq!(run(1), run(5));
}
