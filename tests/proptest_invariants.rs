//! Property-based tests of the core invariants, over randomly generated
//! graphs, configurations and mutation sequences.

use proptest::prelude::*;

use apg::core::{AdaptiveConfig, AdaptivePartitioner, QuotaRule, StreamingRunner};
use apg::graph::{gen, CsrGraph, DeltaLog, DynGraph, Graph, UpdateBatch};
use apg::partition::{cut_edges, CapacityModel, InitialStrategy, Partitioning};

/// Turns a fuzzed op-stream into `UpdateBatch`es of at most `chunk` deltas,
/// tracking the slot count a consumer graph would have so generated ids
/// stay in a meaningful range (dangling ids are still legal — they reject).
fn batches_from_ops(ops: &[(u8, u32, u32)], base_slots: usize, chunk: usize) -> Vec<UpdateBatch> {
    let mut out = Vec::new();
    let mut batch = UpdateBatch::new();
    let mut slots = base_slots;
    for &(op, a, b) in ops {
        let range = (slots + batch.num_new_vertices()).max(1) as u32;
        match op {
            0 => {
                batch.add_vertex(vec![a % range]);
            }
            1 => batch.add_edge(a % range, b % range),
            2 => batch.remove_edge(a % range, b % range),
            3 => batch.remove_vertex(a % range),
            _ => {
                let n = batch.num_new_vertices();
                if n >= 2 {
                    batch.connect_new(a as usize % n, b as usize % n);
                }
            }
        }
        if batch.len() >= chunk {
            slots += batch.num_new_vertices();
            out.push(std::mem::take(&mut batch));
        }
    }
    if !batch.is_empty() {
        out.push(batch);
    }
    out
}

/// Random simple graph as an edge list over `n` vertices.
fn arb_graph(max_n: usize) -> impl Strategy<Value = CsrGraph> {
    (2usize..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..n * 4)
            .prop_map(move |edges| CsrGraph::from_edges(n, &edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSR construction produces a simple symmetric graph.
    #[test]
    fn csr_is_simple_and_symmetric(g in arb_graph(60)) {
        let mut seen_arcs = 0usize;
        for v in g.vertices() {
            let nbrs = g.neighbors(v);
            prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "sorted, no duplicates");
            prop_assert!(!nbrs.contains(&v), "no self loops");
            for &w in nbrs {
                prop_assert!(g.neighbors(w).contains(&v), "symmetric");
            }
            seen_arcs += nbrs.len();
        }
        prop_assert_eq!(seen_arcs, 2 * g.num_edges());
    }

    /// Every initial strategy yields a complete, in-range assignment, and
    /// the streaming strategies respect capacities.
    #[test]
    fn initial_strategies_are_well_formed(g in arb_graph(60), seed in 0u64..1000) {
        let caps = CapacityModel::vertex_balanced(g.num_vertices(), 5, 1.10);
        for strategy in InitialStrategy::ALL {
            let p = strategy.assign(&g, &caps, seed);
            prop_assert_eq!(p.num_vertices(), g.num_vertices());
            let total: usize = p.sizes().iter().sum();
            prop_assert_eq!(total, g.num_vertices());
            if matches!(strategy, InitialStrategy::DeterministicGreedy | InitialStrategy::MinNeighbors) {
                for part in 0..5u16 {
                    prop_assert!(p.size(part) <= caps.capacity(part));
                }
            }
        }
    }

    /// After any number of iterations, the partitioner's incremental
    /// accounting (cut edges, sizes, degree mass) matches a recount, and
    /// capacities hold.
    #[test]
    fn partitioner_invariants_hold(
        g in arb_graph(50),
        iters in 0usize..40,
        s in 0.1f64..1.0,
        seed in 0u64..500,
    ) {
        let cfg = AdaptiveConfig::builder(4).willingness(s).build().unwrap();
        let mut p = AdaptivePartitioner::with_strategy(&g, InitialStrategy::Hash, &cfg, seed);
        p.run_for(iters);
        p.audit(); // cut + sizes + degree mass
        prop_assert_eq!(p.cut_edges(), cut_edges(p.graph(), p.partitioning()));
    }

    /// Arbitrary interleavings of mutations and iterations never corrupt
    /// the accounting.
    #[test]
    fn mutations_preserve_invariants(
        ops in proptest::collection::vec(0u8..6, 1..60),
        seed in 0u64..500,
    ) {
        let g = gen::mesh3d(4, 4, 4);
        let cfg = AdaptiveConfig::builder(3).build().unwrap();
        let mut p = AdaptivePartitioner::with_strategy(&g, InitialStrategy::Random, &cfg, seed);
        let mut rng_state = seed;
        let mut next = move |m: usize| {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((rng_state >> 33) as usize) % m
        };
        for op in ops {
            let slots = p.graph().num_vertices() as u32;
            match op {
                0 => { p.iterate(); }
                1 => { p.add_vertex_with_edges(&[next(slots as usize) as u32]); }
                2 => { p.add_edge(next(slots as usize) as u32, next(slots as usize) as u32); }
                3 => { p.remove_edge(next(slots as usize) as u32, next(slots as usize) as u32); }
                4 => { p.remove_vertex(next(slots as usize) as u32); }
                _ => { p.run_for(2); }
            }
            // The graph must never lose its last vertex for placement to work.
            if p.graph().num_live_vertices() == 0 {
                p.add_vertex_with_edges(&[]);
            }
        }
        p.audit();
    }

    /// The quota rule really is worst-case safe: admitted migrations can
    /// never overflow any destination, whatever the demand pattern.
    #[test]
    fn quota_admissions_never_overflow(
        remaining in proptest::collection::vec(0usize..50, 2..8),
        demands in proptest::collection::vec((0u16..8, 0u16..8), 0..300),
    ) {
        use apg::core::QuotaTable;
        let k = remaining.len() as u16;
        let mut q = QuotaTable::new(QuotaRule::PerSourceSplit, &remaining);
        let mut admitted = vec![0usize; k as usize];
        for (from, to) in demands {
            let (from, to) = (from % k, to % k);
            if from != to && q.try_consume(from, to) {
                admitted[to as usize] += 1;
            }
        }
        for (to, &count) in admitted.iter().enumerate() {
            prop_assert!(count <= remaining[to], "destination {to} overflowed");
        }
    }

    /// METIS-style partitioning covers every vertex with a valid id and
    /// respects its imbalance bound (plus rounding slack on tiny graphs).
    #[test]
    fn metis_output_is_well_formed(g in arb_graph(40), k in 2u16..6) {
        let p = apg::metis::partition(&g, k, 1.10, 7);
        prop_assert_eq!(p.num_vertices(), g.num_vertices());
        let total: usize = p.sizes().iter().sum();
        prop_assert_eq!(total, g.num_vertices());
        let bound = ((g.num_vertices() as f64 / k as f64) * 1.10).ceil() as usize + 2;
        for part in 0..k {
            prop_assert!(p.size(part) <= bound, "partition {part} holds {}", p.size(part));
        }
    }

    /// DynGraph mutations keep adjacency sorted, symmetric and tombstone-
    /// consistent under arbitrary operation sequences.
    #[test]
    fn dyngraph_consistency(ops in proptest::collection::vec((0u8..4, 0u32..30, 0u32..30), 0..200)) {
        let mut g = DynGraph::with_vertices(10);
        for (op, a, b) in ops {
            match op {
                0 => { g.add_vertex(); }
                1 => { g.add_edge(a % g.num_vertices().max(1) as u32, b % g.num_vertices().max(1) as u32); }
                2 => { g.remove_edge(a % g.num_vertices().max(1) as u32, b % g.num_vertices().max(1) as u32); }
                _ => { g.remove_vertex(a % g.num_vertices().max(1) as u32); }
            }
        }
        let mut arcs = 0usize;
        for v in g.vertices() {
            let nbrs = g.neighbors(v);
            prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]));
            for &w in nbrs {
                prop_assert!(g.is_vertex(w), "edge to tombstone {w}");
                prop_assert!(g.neighbors(w).contains(&v));
            }
            arcs += nbrs.len();
        }
        prop_assert_eq!(arcs, 2 * g.num_edges());
    }

    /// Replaying a recorded delta log onto a fresh graph with the same
    /// initial population reproduces an identical graph — the delta
    /// model's replay contract.
    #[test]
    fn delta_log_replay_reproduces_graph(
        ops in proptest::collection::vec((0u8..5, 0u32..40, 0u32..40), 1..150),
        base in 2usize..12,
    ) {
        let mut live = DynGraph::with_vertices(base);
        let mut log = DeltaLog::new();
        for batch in batches_from_ops(&ops, base, 13) {
            batch.apply(&mut live);
            log.record(batch);
        }
        let mut fresh = DynGraph::with_vertices(base);
        let replay_report = log.replay(&mut fresh);
        prop_assert_eq!(&fresh, &live, "replayed graph diverged");
        prop_assert_eq!(replay_report.new_vertices.len() + base, live.num_vertices());
    }

    /// The partitioner's `apply_batch` is the same function as
    /// `UpdateBatch::apply` on a bare graph (identical graph and report),
    /// and the incrementally-maintained cut equals a `cut_edges` recount
    /// after every batch of a streaming run.
    #[test]
    fn streaming_ingestion_keeps_cut_exact(
        ops in proptest::collection::vec((0u8..5, 0u32..60, 0u32..60), 1..100),
        seed in 0u64..300,
    ) {
        let g = gen::mesh3d(3, 3, 3);
        let cfg = AdaptiveConfig::builder(3).build().unwrap();
        let mut runner = StreamingRunner::new(
            AdaptivePartitioner::with_strategy(&g, InitialStrategy::Random, &cfg, seed),
        )
        .iterations_per_batch(1);
        let mut plain = DynGraph::from(&g);
        for batch in batches_from_ops(&ops, plain.num_vertices(), 9) {
            let plain_report = batch.apply(&mut plain);
            let stats = runner.ingest(&batch);
            prop_assert_eq!(stats.vertices_added, plain_report.new_vertices.len());
            prop_assert_eq!(stats.vertices_removed, plain_report.vertices_removed);
            prop_assert_eq!(stats.edges_added, plain_report.edges_added);
            prop_assert_eq!(stats.edges_removed, plain_report.edges_removed);
            prop_assert_eq!(runner.partitioner().graph(), &plain, "mutation paths drifted");
            prop_assert_eq!(
                runner.partitioner().cut_edges(),
                cut_edges(runner.partitioner().graph(), runner.partitioner().partitioning()),
                "incremental cut drifted from recount"
            );
            runner.partitioner().audit();
        }
    }

    /// Cut ratio is invariant under partition relabelling.
    #[test]
    fn cut_invariant_under_relabel(g in arb_graph(40), seed in 0u64..100) {
        let caps = CapacityModel::vertex_balanced(g.num_vertices(), 4, 1.5);
        let p = InitialStrategy::Random.assign(&g, &caps, seed);
        // Swap labels 0 <-> 3.
        let relabeled: Vec<u16> = p.as_slice().iter().map(|&x| match x {
            0 => 3,
            3 => 0,
            other => other,
        }).collect();
        let q = Partitioning::from_assignment(relabeled, 4);
        prop_assert_eq!(cut_edges(&g, &p), cut_edges(&g, &q));
    }
}

/// Engine-level property: arbitrary interleavings of supersteps and
/// mutation batches keep the engine's accounting consistent and deliver
/// messages only to live vertices.
mod engine_props {
    use super::*;
    use apg::pregel::{Context, EngineBuilder, VertexProgram};

    struct Gossip;
    impl VertexProgram for Gossip {
        type Value = u64;
        type Message = u8;
        fn compute(&self, ctx: &mut Context<'_, '_, u64, u8>, messages: &[u8]) {
            *ctx.value_mut() += messages.len() as u64;
            ctx.send_to_neighbors(1);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Whatever is thrown at it — down to removing every vertex and
        /// growing again from nothing — the engine's topology equals a
        /// bare `DynGraph` that applied the same batches.
        #[test]
        fn engine_survives_random_op_sequences(
            ops in proptest::collection::vec((0u8..5, 0u32..40, 0u32..40), 1..40),
            seed in 0u64..200,
        ) {
            let g = gen::mesh3d(3, 3, 3);
            let mut e = EngineBuilder::new(3)
                .seed(seed)
                .adaptive(AdaptiveConfig::builder(3).build().unwrap())
                .build(&g, Gossip);
            let mut bare = DynGraph::from(&g);
            for (op, a, b) in ops {
                let slots = e.num_total_slots() as u32;
                let mut batch = UpdateBatch::new();
                match op {
                    0 => { e.superstep(); }
                    1 => { batch.add_vertex(vec![a % slots]); }
                    2 => batch.add_edge(a % slots, b % slots),
                    3 => batch.remove_edge(a % slots, b % slots),
                    _ => batch.remove_vertex(a % slots),
                }
                let ids = e.apply_batch(&batch);
                prop_assert_eq!(ids, batch.apply(&mut bare).new_vertices);
                prop_assert_eq!(e.graph(), &bare);
                e.audit();
            }
            e.superstep();
            e.audit();
        }
    }
}
