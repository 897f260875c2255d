//! Property tests pinning the parallel apply's equivalence contract: the
//! sharded apply phase (fan migrants over a `ShardPlan`, merge per-shard
//! outcomes in shard order) must produce **exactly** the state the serial
//! `apply_move` loop produces — same `IterationStats` history, same
//! assignment, same incremental cut, same degree-mass vector, same active
//! set — for any graph, seed, willingness, parallelism and interleaved
//! `UpdateBatch` churn. The migration set is fixed before the apply phase
//! and each vertex moves at most once, which is what makes the fan-out
//! exact rather than approximate.
//!
//! The serial reference is `apg::core::reference::iterate_serial_apply`:
//! the same phases as `AdaptivePartitioner::iterate` with the apply phase
//! swapped for the per-migrant loop, so the two drivers differ only in how
//! the pending migration set is committed.
//!
//! The same file pins the adaptive iteration budget: skipping provably
//! no-op iterations (the active set is empty) must never change the
//! recorded `TimelineStats` relative to a fixed budget —
//! the oracle being a bare `AdaptivePartitioner` that applies each batch
//! and then executes every budgeted iteration.

use proptest::prelude::*;

use apg::core::{
    reference, AdaptiveConfig, AdaptivePartitioner, IterationStats, QuotaRule, StreamingRunner,
    TimelineStats,
};
use apg::graph::{gen, CsrGraph, DynGraph, Graph, UpdateBatch};
use apg::partition::{InitialStrategy, Partitioning};
use apg::streams::{CdrConfig, CdrStream, PowerLawGrowth, StreamSource};

/// Random simple graph as an edge list over `n` vertices.
fn arb_graph(max_n: usize) -> impl Strategy<Value = CsrGraph> {
    (2usize..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..n * 4)
            .prop_map(move |edges| CsrGraph::from_edges(n, &edges))
    })
}

/// Everything the apply phase can influence.
#[derive(Debug, Clone, PartialEq)]
struct Observed {
    history: Vec<IterationStats>,
    assignment: Vec<u16>,
    cut: usize,
    degree_mass: Vec<usize>,
    active: Vec<u32>,
}

/// Builds one fuzzed churn batch. `apply_batch` routes through the
/// tolerant mutators (unknown endpoints and duplicate edges are ignored),
/// so arbitrary op tuples are safe.
fn churn_batch(ops: &[(u8, u32, u32)], range: u32) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    for &(op, a, b) in ops {
        let (a, b) = (a % range, b % range);
        match op % 4 {
            0 => {
                let v = batch.add_vertex(vec![a, b]);
                if op % 8 >= 4 {
                    let w = batch.add_vertex(vec![]);
                    batch.connect_new(v, w);
                }
            }
            1 => batch.add_edge(a, b),
            2 => batch.remove_edge(a, b),
            _ => batch.remove_vertex(a),
        }
    }
    batch
}

/// One iteration of either driver.
type Iterate = fn(&mut AdaptivePartitioner) -> IterationStats;

/// Runs iteration blocks interleaved with `UpdateBatch` churn under one
/// apply driver at one parallelism; returns everything observable.
fn run_scenario(
    graph: &CsrGraph,
    ops: &[(u8, u32, u32)],
    parallelism: usize,
    s: f64,
    seed: u64,
    iterate: Iterate,
) -> Observed {
    let cfg = AdaptiveConfig::builder(4)
        .willingness(s)
        .parallelism(parallelism)
        .build()
        .unwrap();
    let mut p = AdaptivePartitioner::with_strategy(graph, InitialStrategy::Hash, &cfg, seed);
    let run_for = |p: &mut AdaptivePartitioner, n: usize| -> Vec<IterationStats> {
        (0..n).map(|_| iterate(p)).collect()
    };
    let mut history = run_for(&mut p, 3);
    for chunk in ops.chunks(3) {
        let range = p.graph().num_vertices().max(1) as u32;
        p.apply_batch(&churn_batch(chunk, range));
        history.extend(run_for(&mut p, 2));
    }
    history.extend(run_for(&mut p, 3));
    observe(&p, history)
}

/// Audits `p` and captures everything the apply phase can influence.
fn observe(p: &AdaptivePartitioner, history: Vec<IterationStats>) -> Observed {
    p.audit();
    let active = (0..p.graph().num_vertices() as u32)
        .filter(|&v| p.is_active(v))
        .collect();
    Observed {
        history,
        assignment: p.partitioning().as_slice().to_vec(),
        cut: p.cut_edges(),
        degree_mass: p.degree_mass().to_vec(),
        active,
    }
}

/// Asserts `scenario` observes the same thing under the serial reference
/// driver and under the sharded apply at parallelism 1, 2 and 8; returns
/// that observation.
fn assert_sharded_equals_serial<T: PartialEq + std::fmt::Debug>(
    scenario: impl Fn(usize, Iterate) -> T,
) -> T {
    let serial = scenario(1, |p| reference::iterate_serial_apply(p).0);
    for parallelism in [1usize, 2, 8] {
        assert_eq!(
            scenario(parallelism, AdaptivePartitioner::iterate),
            serial,
            "sharded apply diverged at parallelism {parallelism}"
        );
    }
    serial
}

/// The fixed-budget oracle: pulls `batches` batches from `source` into a
/// bare partitioner, executing all `budget` iterations after each, and
/// records what a `StreamingRunner` would have recorded — every
/// deterministic `TimelineStats` field (`wall_ms` is ignored by `==`).
fn fixed_budget_timeline(
    p: &mut AdaptivePartitioner,
    source: &mut impl StreamSource,
    batches: usize,
    budget: usize,
) -> Vec<TimelineStats> {
    (0..batches)
        .map(|batch_index| {
            let batch = source.next_batch().expect("stream ended early");
            let cut_before = p.cut_edges();
            let report = p.apply_batch(&batch);
            let cut_after_ingest = p.cut_edges();
            let migrations = p.run_for(budget).iter().map(|s| s.migrations).sum();
            TimelineStats {
                batch: batch_index,
                deltas: batch.len(),
                vertices_added: report.new_vertices.len(),
                vertices_removed: report.vertices_removed,
                edges_added: report.edges_added,
                edges_removed: report.edges_removed,
                cut_before,
                cut_after_ingest,
                cut_after: p.cut_edges(),
                migrations,
                iterations: budget,
                live_vertices: p.graph().num_live_vertices(),
                num_edges: p.graph().num_edges(),
                wall_ms: 0.0,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sharded apply ≡ serial apply at parallelism 1, 2 and 8: identical
    /// histories (including `max_partition`, the live-size peak), final
    /// assignments, cut counts, degree-mass vectors and active sets under
    /// interleaved `UpdateBatch` churn.
    #[test]
    fn parallel_apply_equals_serial_apply(
        g in arb_graph(48),
        ops in proptest::collection::vec((0u8..8, 0u32..64, 0u32..64), 0..24),
        seed in 0u64..1000,
        s_percent in 10u32..101,
    ) {
        let s = s_percent as f64 / 100.0;
        let reference =
            run_scenario(&g, &ops, 1, s, seed, |p| reference::iterate_serial_apply(p).0);
        for parallelism in [1usize, 2, 8] {
            let sharded =
                run_scenario(&g, &ops, parallelism, s, seed, AdaptivePartitioner::iterate);
            prop_assert_eq!(&sharded.history, &reference.history,
                "histories diverged at parallelism {}", parallelism);
            prop_assert_eq!(&sharded.assignment, &reference.assignment,
                "assignments diverged at parallelism {}", parallelism);
            prop_assert_eq!(sharded.cut, reference.cut,
                "cut counts diverged at parallelism {}", parallelism);
            prop_assert_eq!(&sharded.degree_mass, &reference.degree_mass,
                "degree masses diverged at parallelism {}", parallelism);
            prop_assert_eq!(&sharded.active, &reference.active,
                "active sets diverged at parallelism {}", parallelism);
        }
    }

    /// The adaptive budget records exactly the fixed budget's timeline on
    /// growth streams, whether or not any iterations were skippable: only
    /// provably no-op iterations (empty active set) are skipped, and the
    /// skipped iterations are still charged to the budget and the RNG
    /// iteration counter.
    #[test]
    fn adaptive_budget_never_changes_the_timeline(seed in 0u64..200) {
        let base = DynGraph::from(&gen::mesh3d(4, 4, 3));
        let cfg = AdaptiveConfig::builder(3).build().unwrap();
        let fresh = || AdaptivePartitioner::with_strategy(&base, InitialStrategy::Hash, &cfg, seed);
        let source = || PowerLawGrowth::new(&base, 2, 5, seed ^ 0xAB);

        let mut adaptive = StreamingRunner::new(fresh()).iterations_per_batch(12);
        adaptive.drive(&mut source(), 6);
        let mut fixed = fresh();
        let fixed_timeline = fixed_budget_timeline(&mut fixed, &mut source(), 6, 12);

        prop_assert_eq!(adaptive.timeline(), fixed_timeline.as_slice());
        prop_assert_eq!(adaptive.partitioner().iteration(), fixed.iteration());
        prop_assert_eq!(adaptive.partitioner().partitioning(), fixed.partitioning());
        adaptive.partitioner().audit();
    }
}

/// A clique spread evenly over the partitions with unbounded quotas: every
/// vertex sees one neighbour fewer at home than anywhere else, so in the
/// first iteration **all** of them migrate. Each migrant's neighbours are
/// then all migrants and every edge is a migrant–migrant edge, counted
/// once, by its lower-id endpoint, through a target-stamp read. The
/// hash-initialised clique beside it mixes migrants with stayers.
#[test]
fn a_clique_of_migrants_applies_like_the_serial_loop() {
    const N: usize = 64;
    const K: u16 = 8;
    let edges: Vec<(u32, u32)> = (0..N as u32)
        .flat_map(|u| (u + 1..N as u32).map(move |v| (u, v)))
        .collect();
    let clique = CsrGraph::from_edges(N, &edges);
    let config = |parallelism: usize| {
        AdaptiveConfig::builder(K)
            .willingness(1.0)
            .quota_rule(QuotaRule::Unbounded)
            .parallelism(parallelism)
            .build()
            .unwrap()
    };
    let run = |mut p: AdaptivePartitioner, iterate: Iterate| {
        let history = (0..6).map(|_| iterate(&mut p)).collect();
        observe(&p, history)
    };

    let round_robin = Partitioning::from_assignment((0..N).map(|v| v as u16 % K).collect(), K);
    let even = assert_sharded_equals_serial(|parallelism, iterate| {
        let cfg = config(parallelism);
        let p = AdaptivePartitioner::from_partitioning(&clique, round_robin.clone(), &cfg, 5);
        run(p, iterate)
    });
    assert_eq!(
        even.history[0].migrations, N,
        "some vertex stayed: not every edge was migrant–migrant"
    );

    let hashed = assert_sharded_equals_serial(|parallelism, iterate| {
        let cfg = config(parallelism);
        let p = AdaptivePartitioner::with_strategy(&clique, InitialStrategy::Hash, &cfg, 5);
        run(p, iterate)
    });
    assert!(
        hashed.history[0].migrations > 0,
        "the hashed clique was quiet"
    );
}

/// More migrants in one iteration than one apply shard holds: with
/// unbounded quotas and willingness 1 a hash start on a 12k-vertex power
/// law moves most of its vertices at once, so the merge folds several
/// shards' cut deltas, degree-mass deltas and dirty lists — which no
/// fuzzed graph above is large enough to do.
#[test]
fn a_multi_shard_apply_merges_like_the_serial_loop() {
    let graph = gen::holme_kim(12_000, 8, 0.1, 23);
    let observed = assert_sharded_equals_serial(|parallelism, iterate| {
        let cfg = AdaptiveConfig::builder(8)
            .willingness(1.0)
            .quota_rule(QuotaRule::Unbounded)
            .parallelism(parallelism)
            .build()
            .unwrap();
        let mut p = AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &cfg, 23);
        let history = (0..4).map(|_| iterate(&mut p)).collect();
        observe(&p, history)
    });
    let widest = observed.history.iter().map(|s| s.migrations).max();
    assert!(
        widest > Some(apg::exec::DEFAULT_SHARD_SIZE),
        "at most {widest:?} migrants in one iteration: the apply never spanned two shards"
    );
}

/// The slot range grows between two applies: newborn vertices, each wired
/// into one partition, migrate on the next iterations, so both a migrant
/// and a migrant's neighbour index the target stamp past the length it had
/// during the previous apply.
#[test]
fn the_apply_follows_the_slot_range_as_it_grows() {
    const BASE: usize = 6 * 6 * 6;
    let mesh = gen::mesh3d(6, 6, 6);
    let (grown, newborn_moves) = assert_sharded_equals_serial(|parallelism, iterate| {
        let cfg = AdaptiveConfig::builder(4)
            .willingness(1.0)
            .capacity_factor(2.0)
            .parallelism(parallelism)
            .build()
            .unwrap();
        let mut p = AdaptivePartitioner::with_strategy(&mesh, InitialStrategy::Hash, &cfg, 19);
        let mut history: Vec<_> = (0..4).map(|_| iterate(&mut p)).collect();
        let mut newborn_moves = 0;
        for round in 0..3u16 {
            let mut batch = UpdateBatch::new();
            for newborn in 0..24u16 {
                let home = (newborn + round) % 4;
                let anchors = (0..BASE as u32)
                    .filter(|&v| p.partitioning().partition_of(v) == home)
                    .take(3)
                    .collect();
                batch.add_vertex(anchors);
            }
            let born = p.apply_batch(&batch).new_vertices;
            p.audit();
            let placed: Vec<_> = born
                .iter()
                .map(|&v| p.partitioning().partition_of(v))
                .collect();
            history.extend((0..2).map(|_| iterate(&mut p)));
            newborn_moves += born
                .iter()
                .zip(placed)
                .filter(|&(&v, at)| p.partitioning().partition_of(v) != at)
                .count();
        }
        (observe(&p, history), newborn_moves)
    });
    assert_eq!(grown.assignment.len(), BASE + 3 * 24);
    assert!(
        newborn_moves >= 24,
        "only {newborn_moves} newborn migrations: the grown slots were barely applied"
    );
}

/// A converged stream where the adaptive budget provably skips: the
/// regression pin for the "identical timelines, less work" claim (the
/// seed/scale pair is chosen so the active set fully drains mid-batch).
#[test]
fn adaptive_budget_skips_on_a_converged_stream() {
    let config = CdrConfig {
        initial_subscribers: 300,
        ..CdrConfig::default()
    };
    let graph = DynGraph::with_vertices(config.initial_subscribers);
    let cfg = AdaptiveConfig::builder(2).willingness(1.0).build().unwrap();
    let fresh = || AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &cfg, 7);

    let mut adaptive = StreamingRunner::new(fresh()).iterations_per_batch(25);
    adaptive.drive(&mut CdrStream::new(config, 7), 8);
    let mut fixed = fresh();
    let fixed_timeline = fixed_budget_timeline(&mut fixed, &mut CdrStream::new(config, 7), 8, 25);

    assert!(
        adaptive.iterations_skipped() > 0,
        "budget never drained — scenario no longer converges"
    );
    assert_eq!(adaptive.timeline(), fixed_timeline);
    assert_eq!(adaptive.partitioner().iteration(), fixed.iteration());
    assert_eq!(adaptive.partitioner().partitioning(), fixed.partitioning());
}
