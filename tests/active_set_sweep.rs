//! Property tests pinning the active-set sweep's exactness contract:
//! visiting only active vertices must produce **exactly** the history an
//! exhaustive every-live-vertex sweep produces, for any graph, seed,
//! willingness and interleaved mutation schedule — because randomness is
//! keyed per `(seed, vertex, iteration)` and skipped vertices provably
//! decide *Stay*.
//!
//! The exhaustive reference is `apg::core::reference::iterate_exhaustive`:
//! the same phases as `AdaptivePartitioner::iterate` with the work list and
//! the visit swapped for "walk every live vertex of every shard", so the
//! two drivers differ only in which slots the decision phase visits and
//! whether a refused proposer's candidate memo may stand in for its walk.
//!
//! The sweep's work is also pinned without a stopwatch: after a growth
//! batch on a converged graph it reads fewer neighbour labels than the
//! older rule (every event re-activates) would have, a quota-starved pair's
//! parked proposers are read only as far as the pair's budget lasts, and
//! the counters are the same at every parallelism. Once a power law goes
//! quiet, the sweep visits a fraction of what the exhaustive driver does.

use proptest::prelude::*;
use rand::Rng;

use apg::core::{
    reference, AdaptiveConfig, AdaptivePartitioner, DecisionKernel, IterationStats,
    MigrationDecision, QuotaRule, SweepProfile,
};
use apg::exec::{vertex_rng, DEFAULT_SHARD_SIZE};
use apg::graph::{gen, CsrGraph, DynGraph, Graph, UpdateBatch, VertexId};
use apg::partition::capacity::BalanceObjective;
use apg::partition::{CapacityModel, InitialStrategy, Partitioning};
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
    assert!(
        profiles.iter().any(|p| p.parked > 0 && p.parked_reads > 0),
        "no refused proposer was parked and read back from its queue"
    );
}

/// One iteration of the production sweep, and the neighbour labels the
/// older marking rule would have read in it: a vertex stays active from
/// any event in its view until it next decides *Stay* — an edge activates
/// both endpoints, a move the migrant and every neighbour, and nothing is
/// remembered from a refused proposal. `old` is that rule's active set; it
/// is decided against the same iteration-start state the production sweep
/// sees (the rule cannot change the history) and updated from the moves.
fn iterate_beside_the_old_rule(
    p: &mut AdaptivePartitioner,
    seed: u64,
    old: &mut [bool],
) -> ((IterationStats, SweepProfile), usize) {
    let config = p.config().clone();
    let round = p.iteration() as u64;
    let s = config.willingness_at(p.iteration());
    let mut kernel = DecisionKernel::new(config.num_partitions, config.count_self);
    let (graph, labels) = (p.graph(), p.partitioning());
    let mut read = 0;
    for v in graph.vertices() {
        if !old[v as usize] {
            continue;
        }
        let mut rng = vertex_rng(seed, u64::from(v), round);
        if s < 1.0 && !rng.gen_bool(s) {
            continue;
        }
        let neighbours = graph.neighbors(v);
        read += neighbours.len();
        let view = neighbours.iter().map(|&w| labels.partition_of(w));
        if kernel.decide(labels.partition_of(v), view, &mut rng) == MigrationDecision::Stay {
            old[v as usize] = false;
        }
    }
    let before = labels.as_slice().to_vec();
    let step = p.iterate_profiled();
    for v in p.graph().vertices() {
        if p.partitioning().partition_of(v) != before[v as usize] {
            old[v as usize] = true;
            for &w in p.graph().neighbors(v) {
                old[w as usize] = true;
            }
        }
    }
    (step, read)
}

/// The machine-independent guard on what the sweep re-reads: on a
/// converged power law, a growth batch wakes hubs that gained one edge and
/// leaves quota-refused newcomers proposing, and the sweep reads fewer
/// labels than the older rule would have — starting that rule from this
/// sweep's own (smaller) active set, so its count is a lower bound on what
/// the rule really read. The history equals the exhaustive sweep's, and
/// the work counters are the same at parallelism 1, 2 and 8.
#[test]
fn a_growth_batch_rereads_less_than_the_old_marking_rule() {
    let graph = gen::holme_kim(6_000, 8, 0.1, 17);
    let shadow = DynGraph::from(&graph);
    let batch = PowerLawGrowth::new(&shadow, 8, 400, 17)
        .next_batch()
        .expect("growth streams never end");
    let run = |threads: usize, exhaustive: bool| {
        let cfg = AdaptiveConfig::builder(8)
            .parallelism(threads)
            .build()
            .unwrap();
        let mut p = AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &cfg, 17);
        assert!(p.run_to_convergence().converged());
        let base = p.graph().num_vertices();
        let mut old: Vec<bool> = (0..base as VertexId).map(|v| p.is_active(v)).collect();
        p.apply_batch(&batch);
        old.resize(p.graph().num_vertices(), true);
        for v in base as VertexId..p.graph().num_vertices() as VertexId {
            for &w in p.graph().neighbors(v) {
                old[w as usize] = true;
            }
        }
        let mut old_reads = 0;
        let steps: Vec<_> = (0..4)
            .map(|_| {
                if exhaustive {
                    reference::iterate_exhaustive(&mut p)
                } else {
                    let (step, read) = iterate_beside_the_old_rule(&mut p, 17, &mut old);
                    old_reads += read;
                    step
                }
            })
            .collect();
        p.audit();
        let (history, profiles): (Vec<_>, Vec<_>) = steps.into_iter().unzip();
        let work: Vec<_> = profiles
            .iter()
            .map(|q| (q.visited, q.labels_read, q.memo_hits))
            .collect();
        (
            (history, p.partitioning().as_slice().to_vec()),
            work,
            old_reads,
        )
    };
    let (observed, work, old_reads) = run(2, false);
    assert_eq!(observed, run(2, true).0, "the exhaustive sweep diverged");
    for threads in [1, 8] {
        assert_eq!(
            run(threads, false).1,
            work,
            "counters moved at parallelism {threads}"
        );
    }
    let reads: usize = work.iter().map(|w| w.1).sum();
    let memo_hits: usize = work.iter().map(|w| w.2).sum();
    assert!(
        memo_hits > 0,
        "no refused proposer re-proposed from its memo"
    );
    assert!(
        reads < old_reads,
        "the sweep read {reads} labels, the old rule at least {old_reads}"
    );
}

/// An iteration that moves more than a shard's worth of vertices and a
/// large share of the graph folds its relabels en masse — every neighbour
/// re-enters, memos are forgotten — and stays exact: unbounded quotas on a
/// hash start move most of a 12k-vertex power law at once.
#[test]
fn a_mass_move_keeps_the_sweep_exact() {
    let graph = gen::holme_kim(12_000, 8, 0.1, 23);
    let run = |iterate: fn(&mut AdaptivePartitioner) -> (IterationStats, SweepProfile)| {
        let cfg = AdaptiveConfig::builder(8)
            .quota_rule(QuotaRule::Unbounded)
            .parallelism(2)
            .build()
            .unwrap();
        let mut p = AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &cfg, 23);
        let mut history: Vec<_> = (0..6).map(|_| iterate(&mut p).0).collect();
        let mut batch = UpdateBatch::new();
        for v in 0..200 {
            batch.add_edge(v, 11_999 - v);
        }
        p.apply_batch(&batch);
        history.extend((0..4).map(|_| iterate(&mut p).0));
        p.audit();
        (history, p.partitioning().as_slice().to_vec())
    };
    let active = run(AdaptivePartitioner::iterate_profiled);
    assert_eq!(active, run(reference::iterate_exhaustive));
    assert!(
        active.0.iter().any(|s| s.migrations > DEFAULT_SHARD_SIZE),
        "no iteration moved more than a shard's worth"
    );
}

/// Budget of the starved pair `(0, 1)`, in vertices per iteration.
const STARVED_BUDGET: usize = 8;

/// One iteration of `iterate` with the pairs into partition 1 topped up to
/// [`STARVED_BUDGET`] each and every other pair at 0: partition 1 gets room
/// for two budgets (quota splits a partition's room over its `k − 1 = 2`
/// sources), every other partition none.
fn starved_step(
    p: &mut AdaptivePartitioner,
    iterate: fn(&mut AdaptivePartitioner) -> (IterationStats, SweepProfile),
) -> (IterationStats, SweepProfile) {
    let mut caps = p.partitioning().sizes().to_vec();
    caps[1] += 2 * STARVED_BUDGET;
    p.set_fixed_capacities(CapacityModel::explicit(caps, BalanceObjective::Vertices));
    iterate(p)
}

/// Hundreds of leaves in partition 0 each hang off one hub in partition 1
/// and one in partition 2, so each proposes to 1 or 2 at random — and
/// only the pairs into 1 have budget, a few units an iteration (the hubs,
/// wanting partition 0, park on dead pairs). Once the first refusal parks
/// them, admission reads a leaf only while `(0, 1)` has
/// budget left: never the whole queue, and never through the dead `(0, 2)`.
/// The history equals the exhaustive sweep's, and the counters are the
/// same at parallelism 1, 2 and 8.
#[test]
fn a_starved_pair_reads_only_its_budget() {
    // Leaves every 20th slot over three shards; the rest are isolated.
    let n = 2 * DEFAULT_SHARD_SIZE + 1_000;
    let hubs: [[VertexId; 4]; 2] = [[1, 2, 3, 4], [5, 6, 7, 8]];
    let leaves: Vec<VertexId> = (20..n as VertexId).step_by(20).collect();
    let mut graph = DynGraph::with_vertices(n);
    for (i, &leaf) in leaves.iter().enumerate() {
        graph.add_edge(leaf, hubs[0][i % 4]);
        graph.add_edge(leaf, hubs[1][i % 4]);
    }
    let labels = (0..n as VertexId).map(|v| match v {
        1..=4 => 1,
        5..=8 => 2,
        _ => 0,
    });
    let labels = Partitioning::from_assignment(labels.collect(), 3);
    let run =
        |threads: usize,
         iterate: fn(&mut AdaptivePartitioner) -> (IterationStats, SweepProfile)| {
            let cfg = AdaptiveConfig::builder(3)
                .willingness(1.0)
                .parallelism(threads)
                .build()
                .unwrap();
            let mut p = AdaptivePartitioner::from_partitioning(&graph, labels.clone(), &cfg, 5);
            let steps: Vec<_> = (0..20).map(|_| starved_step(&mut p, iterate)).collect();
            p.audit();
            let (history, profiles): (Vec<_>, Vec<_>) = steps.into_iter().unzip();
            let work: Vec<_> = profiles
                .iter()
                .map(|q| {
                    (
                        q.visited,
                        q.labels_read,
                        q.parked,
                        q.parked_reads,
                        q.memo_hits,
                    )
                })
                .collect();
            ((history, p.partitioning().as_slice().to_vec()), work)
        };
    let (observed, work) = run(2, AdaptivePartitioner::iterate_profiled);
    assert_eq!(
        observed,
        run(2, reference::iterate_exhaustive).0,
        "the exhaustive sweep diverged"
    );
    for threads in [1, 8] {
        assert_eq!(
            run(threads, AdaptivePartitioner::iterate_profiled).1,
            work,
            "counters moved at parallelism {threads}"
        );
    }
    assert!(
        observed.0.iter().all(|s| s.migrations == STARVED_BUDGET),
        "each iteration admits exactly the budget: {:?}",
        observed.0.iter().map(|s| s.migrations).collect::<Vec<_>>()
    );
    for (i, &(_, _, parked, reads, memo_hits)) in work.iter().enumerate().skip(1) {
        // A leaf reached draws partition 1 with probability 1/2.
        assert!(
            parked >= 200 && reads > 0,
            "iteration {i}: {parked} parked, {reads} read"
        );
        assert!(
            reads <= 4 * STARVED_BUDGET,
            "iteration {i} read {reads} of {parked} parked for a budget of {STARVED_BUDGET}"
        );
        assert_eq!(memo_hits, reads, "everyone is willing");
    }
}

/// A power law refined from hash for 40 iterations has gone quiet, and
/// its active set has decayed to under a quarter of the graph. The next
/// 20 iterations visit under a quarter of the slots the exhaustive driver
/// visits from the same start, which walks at least half the graph.
#[test]
fn the_quiet_sweep_decays_on_a_power_law() {
    const REFINE: usize = 40;
    const CONVERGED: usize = 20;
    let graph = gen::holme_kim(8_000, 8, 0.1, 11);
    let live = graph.num_vertices();
    let cfg = AdaptiveConfig::builder(8).build().unwrap();
    let run = |iterate: fn(&mut AdaptivePartitioner) -> (IterationStats, SweepProfile)| {
        let mut p = AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &cfg, 11);
        let refine: Vec<_> = (0..REFINE).map(|_| iterate(&mut p).0).collect();
        assert!(
            refine.iter().any(|stats| stats.migrations == 0),
            "the refine never went quiet"
        );
        let active = p.num_active_vertices();
        let visited: usize = (0..CONVERGED).map(|_| iterate(&mut p).1.visited).sum();
        p.audit();
        (active, visited)
    };
    let (active, visited) = run(AdaptivePartitioner::iterate_profiled);
    let (_, exhaustive) = run(reference::iterate_exhaustive);
    assert!(
        active < live / 4,
        "active set barely decayed: {active} of {live}"
    );
    assert!(
        visited * 4 < exhaustive,
        "converged sweeps visited {visited} slots against the exhaustive {exhaustive}"
    );
    assert!(
        exhaustive / CONVERGED >= live / 2,
        "the exhaustive driver visited only {} slots per iteration",
        exhaustive / CONVERGED
    );
}
