//! Correctness and determinism of the partition-aware serving layer.
//!
//! Three contracts:
//!
//! 1. **Traversal correctness** — `Query::KHop` answered by the router is
//!    equivalent to a brute-force BFS over the same snapshot: the same
//!    vertex set, and hop/locality accounting that re-derives from the
//!    assignment. Pinned by proptest over random graphs with interleaved
//!    `UpdateBatch` churn, so the equivalence holds mid-stream, not just on
//!    pristine graphs.
//! 2. **Serve-timeline determinism** — a streaming run with an interleaved
//!    serve phase produces a byte-identical `ServeStats` timeline at
//!    `parallelism` = 1, 2 and 8 (same pinning style as
//!    `streaming_determinism.rs`).
//! 3. **A round is the fold of its queries** — `serve_round`, which
//!    generates and answers inside its workers on a reused
//!    `TraversalScratch`, equals folding the public per-query API
//!    (`generate` then `answer`) in order, at even and uneven splits; and a
//!    reused scratch leaks nothing from one query into the next, across
//!    graph growth included.
//!
//! And the claim the layer exists for: on a CDR churn stream the adaptive
//! partitioner keeps more of the same queries' hops local than hash.

use std::collections::BTreeSet;

use proptest::prelude::*;

use apg::core::{AdaptiveConfig, AdaptivePartitioner, StreamingRunner};
use apg::graph::{DynGraph, Graph, UpdateBatch, VertexId};
use apg::partition::{InitialStrategy, PartitionId, Partitioning};
use apg::prelude::{Query, QueryMix, QueryRouter, QueryWorkload, ServeStats};
use apg::serve::TraversalScratch;
use apg::streams::{CdrConfig, CdrStream};

/// Reference implementation: plain BFS to depth `k`, no shared code with
/// the router's traversal beyond the graph API.
fn brute_force_khop(g: &DynGraph, anchor: VertexId, k: usize) -> BTreeSet<VertexId> {
    let mut reached = BTreeSet::new();
    if !g.is_vertex(anchor) {
        return reached;
    }
    let mut frontier = vec![anchor];
    let mut seen: BTreeSet<VertexId> = [anchor].into();
    for _ in 0..k {
        let mut next = Vec::new();
        for &v in &frontier {
            for &w in g.neighbors(v) {
                if seen.insert(w) {
                    reached.insert(w);
                    next.push(w);
                }
            }
        }
        frontier = next;
    }
    reached
}

/// Turns a fuzzed op-stream into `UpdateBatch`es of at most `chunk` deltas
/// (same scheme as `proptest_invariants.rs`).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After every churn batch, `KHop` answered by the router equals a
    /// brute-force BFS on the same snapshot — same vertex set, hop count =
    /// set size, and local hops re-derived from the assignment.
    #[test]
    fn khop_matches_brute_force_bfs_under_churn(
        n in 4usize..40,
        edges in proptest::collection::vec((0u32..40, 0u32..40), 1..120),
        ops in proptest::collection::vec((0u8..5, 0u32..64, 0u32..64), 0..80),
        k in 0usize..5,
        seed in 0u64..500,
    ) {
        let mut graph = DynGraph::with_vertices(n);
        for &(u, v) in &edges {
            if (u as usize) < n && (v as usize) < n {
                graph.add_edge(u, v);
            }
        }
        let config = AdaptiveConfig::builder(3).parallelism(1).build().unwrap();
        let mut partitioner =
            AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &config, seed);

        for batch in batches_from_ops(&ops, n, 16) {
            partitioner.apply_batch(&batch);
            partitioner.iterate();
            let g = partitioner.graph();
            let p = partitioner.partitioning();
            let router = QueryRouter::new(g, p);
            for anchor in g.vertices().take(12) {
                let reference = brute_force_khop(g, anchor, k);
                let reached: BTreeSet<VertexId> =
                    router.k_hop_vertices(anchor, k).into_iter().collect();
                prop_assert_eq!(&reached, &reference, "anchor {} depth {}", anchor, k);

                let outcome = router.answer(&Query::KHop { anchor, k });
                prop_assert!(outcome.found);
                prop_assert_eq!(outcome.result_size, reference.len());
                prop_assert_eq!(outcome.hops, reference.len());
                let home = p.partition_of(anchor);
                let local = reference
                    .iter()
                    .filter(|&&v| p.partition_of(v) == home)
                    .count();
                prop_assert_eq!(outcome.local_hops, local);
            }
        }
    }

    /// `Neighborhood` is exactly `KHop { k: 1 }` — both results and
    /// accounting — on any churned snapshot.
    #[test]
    fn neighborhood_is_one_hop(
        n in 4usize..32,
        edges in proptest::collection::vec((0u32..32, 0u32..32), 1..80),
        seed in 0u64..500,
    ) {
        let mut graph = DynGraph::with_vertices(n);
        for &(u, v) in &edges {
            if (u as usize) < n && (v as usize) < n {
                graph.add_edge(u, v);
            }
        }
        let config = AdaptiveConfig::builder(4).parallelism(1).build().unwrap();
        let partitioner =
            AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &config, seed);
        let router = QueryRouter::new(partitioner.graph(), partitioner.partitioning());
        for anchor in partitioner.graph().vertices() {
            prop_assert_eq!(
                router.answer(&Query::Neighborhood(anchor)),
                router.answer(&Query::KHop { anchor, k: 1 })
            );
        }
    }

    /// On every churned snapshot, for every mix, `serve_round` equals the
    /// public per-query API folded in query order — at parallelism 1, 2, 3
    /// (uneven ranges) and 8. Pins in-worker generation, scratch reuse and
    /// range folding against `generate` + `answer`.
    #[test]
    fn serve_round_is_the_fold_of_its_queries(
        n in 4usize..40,
        edges in proptest::collection::vec((0u32..40, 0u32..40), 1..120),
        ops in proptest::collection::vec((0u8..5, 0u32..64, 0u32..64), 0..60),
        queries in 0usize..50,
        k in 0usize..4,
        seed in 0u64..500,
    ) {
        let mut graph = DynGraph::with_vertices(n);
        for &(u, v) in &edges {
            if (u as usize) < n && (v as usize) < n {
                graph.add_edge(u, v);
            }
        }
        let config = AdaptiveConfig::builder(3).parallelism(1).build().unwrap();
        let mut partitioner =
            AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &config, seed);

        for (round, batch) in batches_from_ops(&ops, n, 16).iter().enumerate() {
            let round = round as u64;
            partitioner.apply_batch(batch);
            partitioner.iterate();
            let g = partitioner.graph();
            let router = QueryRouter::new(g, partitioner.partitioning());
            for mix in [QueryMix::Uniform, QueryMix::DegreeBiased, QueryMix::CommunityBiased] {
                let workload = QueryWorkload::new(mix, queries, seed ^ 0xF01D).khop_depth(k);
                let mut folded = ServeStats { round, ..ServeStats::default() };
                for query in workload.generate(g, round) {
                    folded.absorb(query.kind(), &router.answer(&query));
                }
                for parallelism in [1, 2, 3, 8] {
                    let served = router.serve_round(&workload, round, parallelism);
                    prop_assert_eq!(
                        served.deterministic_fields(),
                        folded.deterministic_fields(),
                        "{:?} round {} parallelism {}", mix, round, parallelism
                    );
                }
            }
        }
    }
}

/// A hub (vertex 0) with eight spokes, each spoke the head of a three-vertex
/// tail, plus a ring through the spokes so neighbourhoods overlap; vertex 40
/// is tombstoned. Diameter well under 20.
fn hub_graph() -> (DynGraph, Partitioning) {
    let mut g = DynGraph::with_vertices(48);
    for spoke in 1..=8u32 {
        g.add_edge(0, spoke);
        g.add_edge(spoke, spoke % 8 + 1);
        let tail = 8 + (spoke - 1) * 3;
        g.add_edge(spoke, tail + 1);
        g.add_edge(tail + 1, tail + 2);
        g.add_edge(tail + 2, tail + 3);
    }
    g.add_edge(40, 0);
    g.add_edge(40, 41);
    g.remove_vertex(40);
    let p = Partitioning::from_assignment((0..48).map(|v| v % 4).collect(), 4);
    (g, p)
}

/// One scratch answering a shuffled sequence of overlapping queries gives
/// the outcomes a fresh scratch gives each time, and is all-clear after
/// every query: the undo pass leaks no visited bit into the next query.
#[test]
fn scratch_reuse_leaks_nothing_between_queries() {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    let (g, p) = hub_graph();
    let router = QueryRouter::new(&g, &p);
    let mut queries = vec![
        Query::KHop { anchor: 0, k: 2 },
        Query::KHop { anchor: 0, k: 3 },
        Query::KHop { anchor: 0, k: 2 },  // the hub again
        Query::KHop { anchor: 40, k: 2 }, // tombstoned
        Query::Neighborhood(40),
        Query::KHop { anchor: 0, k: 0 },
        Query::KHop { anchor: 5, k: 0 },
        Query::KHop {
            anchor: 0,
            k: 1_000,
        }, // far past the diameter
        Query::KHop {
            anchor: 32,
            k: 1_000,
        },
        Query::KHop { anchor: 41, k: 5 }, // isolated since 40 was removed
        Query::VertexLookup(0),
        Query::Neighborhood(0),
    ];
    for spoke in 1..=8 {
        queries.push(Query::KHop {
            anchor: spoke,
            k: 2,
        });
        queries.push(Query::KHop {
            anchor: spoke,
            k: 4,
        });
        queries.push(Query::Neighborhood(spoke));
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let mut shared = TraversalScratch::new();
    for pass in 0..4 {
        queries.shuffle(&mut rng);
        for query in &queries {
            let reused = router.answer_with(&mut shared, query);
            assert_eq!(reused, router.answer(query), "pass {pass}: {query:?}");
            assert!(shared.is_clear(), "pass {pass}: {query:?} left bits set");
            if let Query::KHop { anchor, k } = *query {
                assert_eq!(reused.hops, brute_force_khop(&g, anchor, k).len());
            }
        }
    }
}

/// A router built after the graph grew answers anchors in the new slots —
/// with a fresh scratch and with one last used on the smaller snapshot
/// (its bitset was sized for fewer slots and must grow, across a 64-bit
/// word boundary here).
#[test]
fn router_after_growth_answers_anchors_in_new_slots() {
    const BASE: usize = 60;
    let mut graph = DynGraph::with_vertices(BASE);
    for v in 1..BASE as VertexId {
        graph.add_edge(v - 1, v);
    }
    let config = AdaptiveConfig::builder(3).parallelism(1).build().unwrap();
    let mut partitioner =
        AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &config, 5);
    let workload = QueryWorkload::new(QueryMix::Uniform, 40, 9).khop_depth(3);

    let mut carried = TraversalScratch::new();
    {
        let router = QueryRouter::new(partitioner.graph(), partitioner.partitioning());
        let before = router.serve_round(&workload, 0, 2);
        assert_eq!(before.queries, 40);
        let warm = Query::KHop { anchor: 30, k: 3 };
        assert_eq!(
            router.answer_with(&mut carried, &warm),
            router.answer(&warm)
        );
    }

    // 100 new vertices, each attached to an old vertex and chained to the
    // previous new one: slots 60..160, past the first two bitset words.
    let mut batch = UpdateBatch::new();
    for i in 0..100usize {
        batch.add_vertex(vec![(i % BASE) as VertexId]);
        if i > 0 {
            batch.connect_new(i - 1, i);
        }
    }
    partitioner.apply_batch(&batch);
    partitioner.iterate();
    let g = partitioner.graph();
    assert_eq!(g.num_vertices(), BASE + 100);

    let router = QueryRouter::new(g, partitioner.partitioning());
    for anchor in [60, 63, 64, 100, 127, 128, 159] {
        for k in [1, 2, 4] {
            let reference = brute_force_khop(g, anchor, k);
            assert!(!reference.is_empty());
            let reached: BTreeSet<VertexId> =
                router.k_hop_vertices(anchor, k).into_iter().collect();
            assert_eq!(reached, reference, "anchor {anchor} depth {k}");
            let query = Query::KHop { anchor, k };
            assert_eq!(router.answer(&query).hops, reference.len());
            assert_eq!(
                router.answer_with(&mut carried, &query),
                router.answer(&query)
            );
            assert!(carried.is_clear());
        }
    }
    let after = router.serve_round(&workload, 1, 2);
    assert_eq!(after, router.serve_round(&workload, 1, 1));
    assert_eq!(after.queries, 40);
}

/// One streaming run with an interleaved serve phase; returns the serve
/// timeline.
fn serve_timeline(parallelism: usize, mix: QueryMix) -> Vec<ServeStats> {
    const SEED: u64 = 31;
    let config = CdrConfig {
        initial_subscribers: 3_000,
        ..CdrConfig::default()
    };
    let graph = DynGraph::with_vertices(config.initial_subscribers);
    let cfg = AdaptiveConfig::builder(8)
        .parallelism(parallelism)
        .build()
        .unwrap();
    let mut runner = StreamingRunner::new(AdaptivePartitioner::with_strategy(
        &graph,
        InitialStrategy::Hash,
        &cfg,
        SEED,
    ))
    .iterations_per_batch(3)
    .serve_workload(QueryWorkload::new(mix, 96, SEED ^ 0xBEEF).khop_depth(3));
    runner.drive(&mut CdrStream::new(config, SEED), 12);
    runner.serve_timeline().to_vec()
}

/// The serve timeline is byte-identical at parallelism 1, 2 and 8, for
/// every query mix — and the projection check pins every deterministic
/// field, not just `ServeStats` equality.
#[test]
fn serve_timeline_is_parallelism_invariant() {
    for mix in [
        QueryMix::Uniform,
        QueryMix::DegreeBiased,
        QueryMix::CommunityBiased,
    ] {
        let sequential = serve_timeline(1, mix);
        assert_eq!(sequential.len(), 12);
        for parallelism in [2, 8] {
            let parallel = serve_timeline(parallelism, mix);
            assert_eq!(sequential, parallel, "{mix:?} at parallelism {parallelism}");
            for (a, b) in sequential.iter().zip(&parallel) {
                assert_eq!(
                    a.deterministic_fields(),
                    b.deterministic_fields(),
                    "{mix:?} round {} fields drifted",
                    a.round
                );
            }
        }
        let hops: usize = sequential.iter().map(|s| s.hops).sum();
        assert!(hops > 0, "{mix:?} scenario too quiet to prove anything");
    }
}

/// The assignments the locality comparison serves under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    /// Hash start, converged on the initial graph, then 5 iterations per
    /// batch.
    Adaptive,
    /// `H(v) mod k`, never adapted.
    Hash,
    /// Contiguous slot ranges, never adapted.
    StaticRange,
}

/// One arm's serve timeline, summed over its rounds.
#[derive(Debug)]
struct ArmTotals {
    rounds: usize,
    queries: usize,
    hops: usize,
    local_hops: usize,
}

impl ArmTotals {
    fn local_pct(&self) -> f64 {
        100.0 * self.local_hops as f64 / self.hops as f64
    }
}

const LOCALITY_QUERIES_PER_ROUND: usize = 64;
const LOCALITY_BATCHES: usize = 8;

/// Streams `cdr` for [`LOCALITY_BATCHES`] batches at k = 8 and serves
/// [`LOCALITY_QUERIES_PER_ROUND`] queries of `mix` (k-hop depth 2) after
/// each one, under `arm`'s assignment.
fn serve_locality(arm: Arm, cdr: CdrConfig, mix: QueryMix) -> ArmTotals {
    const SEED: u64 = 42;
    const K: PartitionId = 8;
    let graph = DynGraph::with_vertices(cdr.initial_subscribers);
    // Every arm shares the config, so all three place streamed-in
    // vertices the same way.
    let cfg = AdaptiveConfig::builder(K)
        .parallelism(2)
        .max_iterations(120)
        .build()
        .unwrap();
    let mut partitioner = match arm {
        Arm::Adaptive | Arm::Hash => {
            AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &cfg, SEED)
        }
        Arm::StaticRange => {
            let n = graph.num_vertices();
            let ranges = (0..n)
                .map(|v| (v * K as usize / n) as PartitionId)
                .collect();
            let ranges = Partitioning::from_assignment(ranges, K);
            AdaptivePartitioner::from_partitioning(&graph, ranges, &cfg, SEED)
        }
    };
    let iterations_per_batch = if arm == Arm::Adaptive {
        partitioner.run_to_convergence();
        5
    } else {
        0
    };
    let workload = QueryWorkload::new(mix, LOCALITY_QUERIES_PER_ROUND, SEED ^ 0x5e7e).khop_depth(2);
    let mut runner = StreamingRunner::new(partitioner)
        .iterations_per_batch(iterations_per_batch)
        .serve_workload(workload);
    runner.drive(&mut CdrStream::new(cdr, SEED), LOCALITY_BATCHES);
    let timeline = runner.serve_timeline();
    let sum = |field: fn(&ServeStats) -> usize| timeline.iter().map(field).sum();
    ArmTotals {
        rounds: timeline.len(),
        queries: sum(|s| s.queries),
        hops: sum(|s| s.hops),
        local_hops: sum(|s| s.local_hops),
    }
}

/// Over three query mixes × two churn rates (the paper's weekly turnover
/// and three times it), on a 2,000-subscriber CDR stream, the adaptive
/// arm keeps more hops inside the anchor's partition than hash somewhere,
/// and by more than 10 points on community-biased queries at the paper's
/// churn. All arms answer the identical queries — generation reads only
/// `(graph, seed, round)` — so their hop counts agree.
#[test]
fn adaptive_keeps_more_hops_local_than_hash() {
    let paper = CdrConfig {
        initial_subscribers: 2_000,
        ..CdrConfig::default()
    };
    let hot = CdrConfig {
        weekly_addition_rate: paper.weekly_addition_rate * 3.0,
        weekly_removal_rate: paper.weekly_removal_rate * 3.0,
        dormancy_rate: paper.dormancy_rate * 3.0,
        ..paper
    };
    let mut leads = 0;
    for mix in [
        QueryMix::Uniform,
        QueryMix::DegreeBiased,
        QueryMix::CommunityBiased,
    ] {
        for (churn, cdr) in [("paper", paper), ("hot", hot)] {
            let [adaptive, hash, range] = [Arm::Adaptive, Arm::Hash, Arm::StaticRange]
                .map(|arm| serve_locality(arm, cdr, mix));
            for (arm, totals) in [
                ("adaptive", &adaptive),
                ("hash", &hash),
                ("static-range", &range),
            ] {
                assert_eq!(totals.rounds, LOCALITY_BATCHES, "{mix:?}/{churn} {arm}");
                assert_eq!(
                    totals.queries,
                    LOCALITY_BATCHES * LOCALITY_QUERIES_PER_ROUND,
                    "{mix:?}/{churn} {arm}"
                );
                assert!(totals.hops > 0, "{mix:?}/{churn} {arm} served no hops");
                assert_eq!(
                    totals.hops, hash.hops,
                    "{mix:?}/{churn} {arm}: the queries depend on the assignment"
                );
            }
            let lead = adaptive.local_pct() - hash.local_pct();
            if lead > 0.0 {
                leads += 1;
            }
            if mix == QueryMix::CommunityBiased && churn == "paper" {
                assert!(lead > 10.0, "adaptive leads hash by only {lead:.1} points");
            }
        }
    }
    assert!(leads > 0, "adaptive never beat hash on local hops");
}
