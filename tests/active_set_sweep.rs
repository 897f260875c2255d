//! Property tests pinning the active-set sweep's exactness contract:
//! visiting only active vertices must produce **exactly** the history an
//! exhaustive every-live-vertex sweep produces, for any graph, seed,
//! willingness and interleaved mutation schedule — because randomness is
//! keyed per `(seed, vertex, iteration)` and skipped vertices provably
//! decide *Stay*.
//!
//! The exhaustive reference is `apg::core::reference::iterate_exhaustive`:
//! the same phases as `AdaptivePartitioner::iterate` with the work list and
//! the visit swapped for "every live vertex of every shard", so the two
//! drivers differ only in which slots the decision phase visits.

use proptest::prelude::*;

use apg::core::{reference, AdaptiveConfig, AdaptivePartitioner, IterationStats, SweepProfile};
use apg::exec::DEFAULT_SHARD_SIZE;
use apg::graph::{gen, CsrGraph, DynGraph, Graph};
use apg::partition::InitialStrategy;
use apg::streams::{PowerLawGrowth, StreamSource};

/// Random simple graph as an edge list over `n` vertices.
fn arb_graph(max_n: usize) -> impl Strategy<Value = CsrGraph> {
    (2usize..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..n * 4)
            .prop_map(move |edges| CsrGraph::from_edges(n, &edges))
    })
}

/// One iteration of either driver.
type Iterate = fn(&mut AdaptivePartitioner) -> IterationStats;

/// Runs the scripted scenario — iteration blocks interleaved with a fuzzed
/// mutation stream — under one sweep driver; returns everything observable.
fn run_scenario(
    graph: &CsrGraph,
    ops: &[(u8, u32, u32)],
    k: u16,
    s: f64,
    seed: u64,
    iterate: Iterate,
) -> (Vec<IterationStats>, Vec<u16>, usize) {
    let cfg = AdaptiveConfig::builder(k)
        .willingness(s)
        .parallelism(2)
        .build()
        .unwrap();
    let mut p = AdaptivePartitioner::with_strategy(graph, InitialStrategy::Hash, &cfg, seed);
    let run_for = |p: &mut AdaptivePartitioner, n: usize| -> Vec<IterationStats> {
        (0..n).map(|_| iterate(p)).collect()
    };
    let mut history = run_for(&mut p, 3);
    for chunk in ops.chunks(3) {
        for &(op, a, b) in chunk {
            let range = p.graph().num_vertices().max(1) as u32;
            match op % 4 {
                0 => {
                    p.add_vertex_with_edges(&[a % range, b % range]);
                }
                1 => {
                    p.add_edge(a % range, b % range);
                }
                2 => {
                    p.remove_edge(a % range, b % range);
                }
                _ => {
                    p.remove_vertex(a % range);
                }
            }
        }
        history.extend(run_for(&mut p, 2));
    }
    history.extend(run_for(&mut p, 3));
    p.audit();
    (history, p.partitioning().as_slice().to_vec(), p.cut_edges())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Active-set sweep ≡ exhaustive sweep: identical `IterationStats`
    /// histories, final assignments and cut counts under interleaved
    /// mutations, for any seed and willingness.
    #[test]
    fn active_sweep_equals_exhaustive_sweep(
        g in arb_graph(48),
        ops in proptest::collection::vec((0u8..5, 0u32..64, 0u32..64), 0..24),
        seed in 0u64..1000,
        s_percent in 10u32..101,
    ) {
        let s = s_percent as f64 / 100.0;
        let active = run_scenario(&g, &ops, 4, s, seed, AdaptivePartitioner::iterate);
        let exhaustive =
            run_scenario(&g, &ops, 4, s, seed, |p| reference::iterate_exhaustive(p).0);
        prop_assert_eq!(&active.0, &exhaustive.0, "histories diverged");
        prop_assert_eq!(&active.1, &exhaustive.1, "assignments diverged");
        prop_assert_eq!(active.2, exhaustive.2, "cut counts diverged");
    }

    /// The active-set invariant holds at every observation point, not just
    /// at the end: every *inactive* vertex provably decides Stay — no
    /// partition outweighs its current one among its neighbours
    /// (`audit()` checks exactly this, plus the set's own accounting).
    #[test]
    fn active_set_invariant_holds_under_churn(
        g in arb_graph(40),
        ops in proptest::collection::vec((0u8..5, 0u32..64, 0u32..64), 0..20),
        seed in 0u64..1000,
    ) {
        let cfg = AdaptiveConfig::builder(3).willingness(0.6).parallelism(2).build().unwrap();
        let mut p = AdaptivePartitioner::with_strategy(&g, InitialStrategy::Hash, &cfg, seed);
        p.audit();
        for &(op, a, b) in &ops {
            let range = p.graph().num_vertices().max(1) as u32;
            match op % 4 {
                0 => {
                    p.add_vertex_with_edges(&[a % range, b % range]);
                }
                1 => {
                    p.add_edge(a % range, b % range);
                }
                2 => {
                    p.remove_edge(a % range, b % range);
                }
                _ => {
                    p.remove_vertex(a % range);
                }
            }
            p.audit();
            p.iterate();
            p.audit();
        }
    }

    /// Once quiet, the sweep's work tracks the boundary, not the graph:
    /// a converged mesh keeps iterating without visiting interior
    /// vertices, and the visited count equals the active set.
    #[test]
    fn quiet_iterations_visit_only_the_active_set(seed in 0u64..200) {
        let g = gen::mesh3d(6, 6, 6);
        let cfg = AdaptiveConfig::builder(4).max_iterations(400).build().unwrap();
        let mut p = AdaptivePartitioner::with_strategy(&g, InitialStrategy::Hash, &cfg, seed);
        p.run_to_convergence();
        let live = p.graph().num_live_vertices();
        for _ in 0..3 {
            let before = p.num_active_vertices();
            let (_, profile) = p.iterate_profiled();
            prop_assert_eq!(profile.active_before, before);
            prop_assert!(profile.visited <= before);
            prop_assert!(profile.visited < live, "quiet sweep still O(|V|)");
        }
        p.audit();
    }
}

/// The fuzzed graphs above all fit in one shard. A power law spanning four
/// shards, refined from hash until quiet and then grown by `PowerLawGrowth`
/// batches, makes the active sweep schedule several shards, each trimmed
/// to its active region — and must still equal the exhaustive sweep.
#[test]
fn multi_shard_sweep_equals_exhaustive_sweep_under_growth() {
    let graph = gen::holme_kim(3 * DEFAULT_SHARD_SIZE + 500, 8, 0.1, 17);
    let shadow = DynGraph::from(&graph);
    let mut source = PowerLawGrowth::new(&shadow, 4, 32, 17);
    let batches: Vec<_> = (0..4)
        .map(|_| source.next_batch().expect("growth streams never end"))
        .collect();
    // Counting itself makes a vertex sticky, so the refine goes quiet and
    // the few vertices still active leave the work list's ranges trimmed.
    let cfg = AdaptiveConfig::builder(4)
        .count_self(true)
        .parallelism(2)
        .build()
        .unwrap();
    let run = |iterate: fn(&mut AdaptivePartitioner) -> (IterationStats, SweepProfile)| {
        let mut p = AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &cfg, 17);
        let mut steps: Vec<_> = (0..30).map(|_| iterate(&mut p)).collect();
        for batch in &batches {
            p.apply_batch(batch);
            steps.extend((0..3).map(|_| iterate(&mut p)));
        }
        p.audit();
        let (history, profiles): (Vec<_>, Vec<_>) = steps.into_iter().unzip();
        let observed = (history, p.partitioning().as_slice().to_vec(), p.cut_edges());
        (observed, profiles)
    };
    let (active, profiles) = run(AdaptivePartitioner::iterate_profiled);
    let (exhaustive, _) = run(reference::iterate_exhaustive);
    assert_eq!(active.0, exhaustive.0, "histories diverged");
    assert_eq!(active.1, exhaustive.1, "assignments diverged");
    assert_eq!(active.2, exhaustive.2, "cut counts diverged");
    // Every swept shard but the last is full width, so fewer slots than
    // all-but-one full shards means some range was trimmed.
    assert!(
        profiles.iter().any(|p| p.shards_swept >= 2
            && p.slots_scheduled < (p.shards_swept - 1) * DEFAULT_SHARD_SIZE),
        "no sweep scheduled trimmed ranges in two or more shards"
    );
}
