//! Cross-crate tests of the distributed protocol (paper §3 / Figures 2–3):
//! the Pregel engine's deferred migration must deliver every message, agree
//! with the logical-level algorithm on quality, and keep its accounting
//! consistent under mutation churn.

use apg::apps::{components::CcLabel, ConnectedComponents, PageRank};
use apg::core::AdaptiveConfig;
use apg::graph::{gen, UpdateBatch};
use apg::pregel::{Context, Engine, EngineBuilder, FaultPlan, SuperstepReport, VertexProgram};

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

    let mut batch = UpdateBatch::new();
    let a = batch.add_vertex(vec![0, 1, 5]);
    let b = batch.add_vertex(vec![2]);
    batch.connect_new(a, b);
    batch.remove_vertex(100);
    engine.apply_batch(&batch);
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
    let mut batch = UpdateBatch::new();
    let hub = batch.add_vertex((0..300).collect());
    assert_eq!(hub, 0);
    engine.apply_batch(&batch);
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
        let mut batch = UpdateBatch::new();
        for i in 0..12u32 {
            batch.add_vertex(vec![(round * 12 + i) % 216]);
        }
        engine.apply_batch(&batch);
        let r = engine.superstep();
        let cap = ((engine.num_live_vertices() as f64 / 4.0).ceil() * 1.10).round() as usize + 1;
        for (w, &size) in r.partition_sizes.iter().enumerate() {
            assert!(size <= cap, "worker {w} holds {size} > cap {cap}");
        }
    }
    engine.audit();
}

// ---- recorded histories ---------------------------------------------------
//
// The three constants below were recorded at the commit before the engine
// was rebuilt on the workspace's `DynGraph` and `Partitioning`, by this same
// code (every call it makes existed there). They pin that the rebuild moved
// nothing: not a report field, not a routing entry, not a vertex value.

/// [`Gossip`] plus one letter per superstep to an id computed from the
/// sender's own — often a removed vertex or an id never allocated, so the
/// send-side drop accounting is part of the history.
struct PenPal;
impl VertexProgram for PenPal {
    type Value = u64;
    type Message = u8;
    fn compute(&self, ctx: &mut Context<'_, '_, u64, u8>, messages: &[u8]) {
        *ctx.value_mut() += messages.len() as u64;
        ctx.send_to_neighbors(1);
        let pal = (ctx.id() * 7 + ctx.superstep() as u32) % 520;
        ctx.send(pal, 1);
    }
}

/// FNV-1a over little-endian words.
struct Fnv(u64);
impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Runs one superstep and folds everything it reported (floats by bit
/// pattern), plus the cut read back from the engine, into `h`.
fn step_into<P: VertexProgram>(engine: &mut Engine<P>, h: &mut Fnv) -> SuperstepReport {
    let r = engine.superstep();
    for x in [
        r.superstep as u64,
        r.active_vertices,
        r.compute_units,
        r.messages_local,
        r.messages_remote,
        r.messages_dropped,
        r.migrations_started,
        r.migrations_completed,
        engine.cut_edges() as u64,
        r.live_vertices as u64,
        r.num_edges as u64,
    ] {
        h.word(x);
    }
    r.partition_sizes.iter().for_each(|&s| h.word(s as u64));
    r.worker_times.iter().for_each(|t| h.word(t.to_bits()));
    h.word(r.sim_time.to_bits());
    r
}

/// Folds the final state in: every live id with its partition and value.
fn finish<P: VertexProgram<Value = u64>>(engine: &Engine<P>, mut h: Fnv) -> u64 {
    engine.audit();
    let partitioning = engine.partitioning();
    for v in 0..engine.num_total_slots() as u32 {
        if let Some(&value) = engine.vertex_value(v) {
            h.word(v as u64);
            h.word(partitioning.partition_of(v) as u64);
            h.word(value);
        }
    }
    h.0
}

fn adaptive_mesh_history() -> u64 {
    let graph = gen::mesh3d(6, 6, 6);
    let mut engine = EngineBuilder::new(4)
        .seed(11)
        .adaptive(AdaptiveConfig::builder(4).build().unwrap())
        .build(&graph, Gossip);
    let mut h = Fnv::new();
    for _ in 0..30 {
        step_into(&mut engine, &mut h);
    }
    finish(&engine, h)
}

fn cdr_churn_history() -> u64 {
    use apg::graph::DynGraph;
    use apg::streams::{CdrConfig, CdrStream, StreamSource};

    let config = CdrConfig {
        initial_subscribers: 400,
        ..CdrConfig::default()
    };
    let mut stream = CdrStream::new(config, 7);
    let initial = DynGraph::with_vertices(config.initial_subscribers);
    let mut engine = EngineBuilder::new(5)
        .seed(7)
        .adaptive(AdaptiveConfig::builder(5).willingness(0.8).build().unwrap())
        .build(&initial, PenPal);
    let mut h = Fnv::new();
    let (mut born, mut died, mut dropped) = (0, 0, 0);
    for _ in 0..3 * config.batches_per_week {
        let batch = stream.next_batch().unwrap();
        born += batch.num_new_vertices();
        died += batch.num_vertex_removals();
        engine.apply_batch(&batch);
        for _ in 0..2 {
            dropped += step_into(&mut engine, &mut h).messages_dropped;
        }
    }
    assert!(
        born > 0 && died > 0,
        "the scenario needs both kinds of churn"
    );
    assert!(dropped > 0, "the scenario needs mail to dead ids");
    finish(&engine, h)
}

fn crash_history() -> u64 {
    let graph = gen::mesh3d(5, 5, 5);
    let mut engine = EngineBuilder::new(3)
        .seed(5)
        .fault_plan(FaultPlan::crash(4, 1))
        .adaptive(AdaptiveConfig::builder(3).willingness(1.0).build().unwrap())
        .build(&graph, Gossip);
    let mut h = Fnv::new();
    for _ in 0..12 {
        step_into(&mut engine, &mut h);
    }
    finish(&engine, h)
}

#[test]
fn histories_match_the_recorded_parent() {
    assert_eq!(
        adaptive_mesh_history(),
        0x10fc_40ff_a891_60ec,
        "adaptive mesh"
    );
    assert_eq!(cdr_churn_history(), 0xea5f_f51e_7beb_191d, "CDR churn");
    assert_eq!(crash_history(), 0xd2a7_24cf_1447_c64a, "worker crash");
}
