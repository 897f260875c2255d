//! Workspace smoke test: the `apg::prelude` quickstart from the facade
//! rustdoc (src/lib.rs) must run end-to-end, exercising the re-export chain
//! graph → partition → core that every downstream consumer starts from.
//! Kept in sync with the rustdoc example, which also runs as a doctest.

use apg::prelude::*;

#[test]
fn prelude_quickstart_runs_end_to_end() {
    // The paper's 64kcube dataset at reduced scale, 9 partitions, defaults
    // from the paper (s = 0.5, capacity = 110% of balanced load).
    let graph = apg::graph::gen::mesh3d(20, 20, 20);
    let config = AdaptiveConfig::builder(9).build().unwrap();
    let mut partitioner =
        AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &config, 42);
    let report = partitioner.run_to_convergence();
    assert!(report.final_cut_ratio() < report.initial_cut_ratio());
}

#[test]
fn prelude_covers_the_cross_crate_surface() {
    let graph = apg::graph::gen::mesh3d(6, 6, 6);

    // partition: metrics over an initial assignment.
    let caps = apg::partition::CapacityModel::vertex_balanced(graph.num_vertices(), 4, 1.10);
    let assignment = InitialStrategy::Hash.assign(&graph, &caps, 7);
    assert_eq!(assignment.num_vertices(), graph.num_vertices());
    assert!(cut_ratio(&graph, &assignment) > 0.0);
    assert_eq!(
        cut_edges(&graph, &assignment) as f64 / graph.num_edges() as f64,
        cut_ratio(&graph, &assignment)
    );

    // pregel: the engine builder path from the prelude.
    struct Noop;
    impl VertexProgram for Noop {
        type Value = u32;
        type Message = u8;
        fn compute(&self, ctx: &mut Context<'_, '_, u32, u8>, messages: &[u8]) {
            *ctx.value_mut() += messages.len() as u32;
        }
    }
    let mut engine = EngineBuilder::new(4)
        .seed(1)
        .adaptive(AdaptiveConfig::builder(4).build().unwrap())
        .build(&graph, Noop);
    engine.superstep();
    engine.apply_batch(&UpdateBatch::new());
    engine.audit();
}
