//! Cross-crate tests of the distributed protocol (paper §3 / Figures 2–3):
//! the Pregel engine's deferred migration must deliver every message, agree
//! with the logical-level algorithm on quality, and keep its accounting
//! consistent under mutation churn.

use apg::apps::{components::CcLabel, ConnectedComponents, PageRank};
use apg::core::AdaptiveConfig;
use apg::graph::gen;
use apg::pregel::{Context, EngineBuilder, MutationBatch, VertexProgram};

/// Each vertex checks it receives exactly one message per neighbour per
/// superstep — the Figure 3 message-delivery guarantee — while the
/// background partitioner migrates aggressively.
struct Conservation;
impl VertexProgram for Conservation {
    type Value = u64;
    type Message = u8;
    fn compute(&self, ctx: &mut Context<'_, '_, u64, u8>, messages: &[u8]) {
        if ctx.superstep() > 0 {
            assert_eq!(
                messages.len(),
                ctx.degree(),
                "vertex {} at {}",
                ctx.id(),
                ctx.superstep()
            );
        }
        *ctx.value_mut() += messages.len() as u64;
        ctx.send_to_neighbors(1);
    }
}

#[test]
fn deferred_migration_never_loses_messages() {
    let graph = gen::mesh3d(8, 8, 8);
    let mut engine = EngineBuilder::new(8)
        .seed(2)
        .adaptive(AdaptiveConfig::builder(8).willingness(1.0).build().unwrap())
        .build(&graph, Conservation);
    let reports = engine.run(25);
    let migrated: u64 = reports.iter().map(|r| r.migrations_completed).sum();
    assert!(migrated > 200, "churn too low to be meaningful: {migrated}");
    assert!(reports.iter().all(|r| r.messages_dropped == 0));
    engine.audit();
}

#[test]
fn engine_and_logical_partitioner_agree_on_quality() {
    use apg::core::AdaptivePartitioner;
    use apg::partition::InitialStrategy;

    let graph = gen::mesh3d(10, 10, 10);

    // Logical level (paper §2).
    let cfg = AdaptiveConfig::builder(9)
        .max_iterations(300)
        .build()
        .unwrap();
    let mut logical = AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &cfg, 3);
    logical.run_to_convergence();

    // Distributed level (paper §3) with the same parameters.
    let mut engine = EngineBuilder::new(9)
        .seed(3)
        .adaptive(AdaptiveConfig::builder(9).build().unwrap())
        .cut_every(0)
        .build(&graph, Conservation);
    let mut quiet = 0;
    for _ in 0..300 {
        let r = engine.superstep();
        if r.migrations_started == 0 && r.migrations_completed == 0 {
            quiet += 1;
            if quiet >= 30 {
                break;
            }
        } else {
            quiet = 0;
        }
    }

    let lr = logical.cut_ratio();
    let er = engine.cut_ratio();
    assert!(
        (lr - er).abs() < 0.08,
        "logical ({lr}) and distributed ({er}) quality diverged"
    );
}

#[test]
fn applications_survive_continuous_churn() {
    // Run PageRank while the graph mutates and vertices migrate; ranks must
    // remain a distribution over the live population after re-running.
    let graph = gen::mesh3d(6, 6, 6);
    let mut engine = EngineBuilder::new(4)
        .seed(9)
        .adaptive(AdaptiveConfig::builder(4).build().unwrap())
        .build(&graph, PageRank::new(60));
    engine.run(10);

    let mut batch = MutationBatch::new();
    let a = batch.add_vertex(vec![0, 1, 5]);
    let b = batch.add_vertex(vec![2]);
    batch.connect_new(a, b);
    batch.remove_vertex(100);
    engine.apply_mutations(batch);
    engine.run_until_halt(80);
    engine.audit();

    let total: f64 = (0..engine.num_total_slots() as u32)
        .filter_map(|v| engine.vertex_value(v))
        .sum();
    assert!((total - 1.0).abs() < 0.05, "rank mass drifted: {total}");
}

#[test]
fn components_correct_under_migration_and_mutation() {
    let graph = gen::erdos_renyi(300, 0.01, 4);
    let mut engine = EngineBuilder::new(5)
        .seed(5)
        .adaptive(AdaptiveConfig::builder(5).build().unwrap())
        .build(&graph, ConnectedComponents::new());
    engine.run_until_halt(60);

    // Join everything into one component through a hub vertex.
    let mut batch = MutationBatch::new();
    let hub = batch.add_vertex((0..300).collect());
    assert_eq!(hub, 0);
    engine.apply_mutations(batch);
    engine.run_until_halt(60);

    for v in 0..300u32 {
        assert_eq!(
            engine.vertex_value(v),
            Some(&CcLabel(0)),
            "vertex {v} not merged"
        );
    }
    engine.audit();
}

/// Like [`Conservation`] but tolerant of topology changes (counts are not
/// asserted) — usable while mutations land between supersteps.
struct Gossip;
impl VertexProgram for Gossip {
    type Value = u64;
    type Message = u8;
    fn compute(&self, ctx: &mut Context<'_, '_, u64, u8>, messages: &[u8]) {
        *ctx.value_mut() += messages.len() as u64;
        ctx.send_to_neighbors(1);
    }
}

#[test]
fn partition_sizes_respect_capacity_under_growth() {
    let graph = gen::mesh3d(6, 6, 6);
    let cfg = AdaptiveConfig::builder(4).willingness(1.0).build().unwrap();
    let mut engine = EngineBuilder::new(4)
        .seed(6)
        .adaptive(cfg)
        .build(&graph, Gossip);
    for round in 0..10 {
        let mut batch = MutationBatch::new();
        for i in 0..12u32 {
            batch.add_vertex(vec![(round * 12 + i) % 216]);
        }
        engine.apply_mutations(batch);
        let r = engine.superstep();
        let cap = ((engine.num_live_vertices() as f64 / 4.0).ceil() * 1.10).round() as usize + 1;
        for (w, &size) in r.partition_sizes.iter().enumerate() {
            assert!(size <= cap, "worker {w} holds {size} > cap {cap}");
        }
    }
    engine.audit();
}
