//! The adaptive iterative vertex-migration partitioner.
//!
//! One iteration is a fixed sequence of private phases — budgets → work
//! list → decide fan-out → admission into `pending` → apply → finish —
//! composed by [`AdaptivePartitioner::iterate_profiled`] with no mode
//! switch. The naive counterparts the equivalence suites compare against
//! live in the hidden child module `reference` (`reference.rs`), which
//! recomposes the same phases with exactly one swapped out.

use std::time::Instant;

use rand::Rng;
use serde::{Deserialize, Serialize};

use apg_exec::{fanout, vertex_rng, ShardPlan};
use apg_graph::delta::DeltaTarget;
use apg_graph::{ApplyReport, DynGraph, Graph, UpdateBatch, VertexId};
use apg_partition::{
    cut_edges, cut_edges_sharded, initial::hash_vertex, CapacityModel, InitialStrategy,
    PartitionId, Partitioning,
};

use crate::candidates::{DecisionKernel, MigrationDecision};
use crate::config::AdaptiveConfig;
use crate::marks::SlotMarks;
use crate::quota::QuotaTable;
use crate::runner::ConvergenceReport;

/// Metrics recorded after each iteration of the algorithm.
///
/// These are exactly the series the paper plots in Figure 7: number of cut
/// edges, number of migrations, and the graph population they refer to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IterationStats {
    /// Iteration index (0-based).
    pub iteration: usize,
    /// Vertices migrated during this iteration.
    pub migrations: usize,
    /// Cut edges after this iteration.
    pub cut_edges: usize,
    /// Live vertices after this iteration.
    pub live_vertices: usize,
    /// Edges after this iteration.
    pub num_edges: usize,
    /// Largest partition size after this iteration.
    pub max_partition: usize,
}

impl IterationStats {
    /// Cut edges normalised by total edges (0 for edgeless graphs).
    pub fn cut_ratio(&self) -> f64 {
        if self.num_edges == 0 {
            0.0
        } else {
            self.cut_edges as f64 / self.num_edges as f64
        }
    }
}

/// Where one iteration spent its effort — phase wall-clock plus how much
/// work the active-set sweep actually scheduled. Returned by
/// [`AdaptivePartitioner::iterate_profiled`]; everything here is a
/// measurement or a sweep-internal count, deliberately **not** part of
/// [`IterationStats`] (whose equality pins deterministic history, which
/// must not depend on whether the active-set skip was enabled).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SweepProfile {
    /// Active slots when the iteration started.
    pub active_before: usize,
    /// Active slots when the iteration finished.
    pub active_after: usize,
    /// Vertices the decision phase visited: the live active ones (all live
    /// vertices under the exhaustive reference driver).
    pub visited: usize,
    /// Shards the fan-out scheduled (shards with no active slot are
    /// skipped outright).
    pub shards_swept: usize,
    /// Total shards in the iteration's plan.
    pub num_shards: usize,
    /// Total slots inside the scheduled shard ranges. Each scheduled
    /// shard is trimmed to its dirtied region
    /// (first..=last active slot), so this measures the slot footprint the
    /// sweep actually covered — after a local batch it is proportional to
    /// where the batch landed, not to `num_shards x shard_size`.
    pub slots_scheduled: usize,
    /// Wall-clock of the parallel decision phase, milliseconds.
    pub decide_ms: f64,
    /// Wall-clock of the quota-admission merge, milliseconds.
    pub merge_ms: f64,
    /// Wall-clock of the move-application phase, milliseconds.
    pub apply_ms: f64,
}

/// The partitioner's five persisted scalars, declared here once. The live
/// [`AdaptivePartitioner`] holds the block; a partitioner state, a
/// checkpoint view and a checkpoint delta (see [`crate::persist`]) each
/// carry a copy, and [`AdaptivePartitioner::restore`] takes it back whole.
/// Exactly the fields the determinism contract needs, and none of the
/// derived accounting (cut, degree mass), which restore recomputes.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionerScalars {
    /// Full configuration, `parallelism` included (results are identical
    /// at every parallelism level, so restoring it is a wall-clock choice,
    /// not a correctness one).
    pub config: AdaptiveConfig,
    /// RNG seed.
    pub seed: u64,
    /// Iterations executed so far (keys the RNG streams and the anneal
    /// schedule).
    pub iteration: usize,
    /// Consecutive migration-free iterations.
    pub quiet_streak: usize,
    /// Fixed, caller-supplied capacity limits. `None` is the automatic
    /// mode: limits recomputed every iteration as `factor x` the balanced
    /// load of the *current* live population — capacities track graph
    /// growth, which is what lets the heuristic absorb the paper's +10%
    /// forest-fire burst.
    pub fixed_capacities: Option<CapacityModel>,
}

impl PartitionerScalars {
    /// The scalars before the first iteration, capacities automatic.
    fn fresh(config: &AdaptiveConfig, seed: u64) -> Self {
        PartitionerScalars {
            config: config.clone(),
            seed,
            iteration: 0,
            quiet_streak: 0,
            fixed_capacities: None,
        }
    }
}

/// The partition the newborn vertex `v` starts in: `H(v) mod k`, the
/// lightweight placement of the paper's Pregel-like system, or the
/// least-loaded partition (lowest id on ties) when the hashed one has no
/// room left. `loads` must count in `caps`'s units — vertices, or degree
/// mass when balancing edges. The one statement of the rule, shared by the
/// logical-level partitioner and the BSP engine.
pub fn place_new_vertex(v: VertexId, loads: &[usize], caps: &CapacityModel) -> PartitionId {
    let hashed = (hash_vertex(v) % loads.len() as u64) as PartitionId;
    if caps.remaining(hashed, loads[usize::from(hashed)]) > 0 {
        return hashed;
    }
    (0..loads.len()).min_by_key(|&p| loads[p]).expect("k >= 1") as PartitionId
}

/// The paper's adaptive partitioner at the logical level (§2).
///
/// Owns a [`DynGraph`] and its [`Partitioning`] and advances them one
/// iteration at a time; graph mutations may be interleaved with iterations,
/// which is the "adaptive" part. The cut-edge count is maintained
/// incrementally, so per-iteration cost is `O(|V| + Σ deg(migrants))`, not
/// `O(|E|)`.
///
/// # Parallel execution
///
/// Each iteration's decision phase runs on up to
/// [`AdaptiveConfig::parallelism`] threads: the vertex-slot range is cut
/// into fixed-size shards (`apg-exec`), every shard evaluates its vertices
/// with a private [`DecisionKernel`], all against the **frozen snapshot**
/// of the graph and assignment taken at the start of the iteration (the
/// `&self` borrow guarantees no mutation can interleave). Quota admission
/// happens afterwards in a single-threaded merge, in ascending vertex
/// order; the admitted moves are then applied on the same sharded fan-out,
/// each migrant reading a neighbour's post-apply label in `O(1)` from a
/// slot-indexed target stamp, so an apply costs its neighbour reads and
/// nothing else. Every random draw a vertex consumes — its
/// willingness roll, its tie-breaks — comes from a private RNG keyed by
/// `(seed, vertex, iteration)`, so no draw depends on which other vertices
/// were evaluated, in what grouping, or on what thread: the migration
/// history for a fixed seed is identical at every parallelism level.
///
/// # The active-set sweep
///
/// The decision rule is deterministic whenever it says *Stay*: the current
/// partition wins every tie, so randomness only ever picks *which other*
/// partition to chase. A vertex that decided Stay therefore keeps deciding
/// Stay — on every future iteration, under every RNG outcome — until
/// something in its view changes: a neighbour's label, its own label, or
/// its incident edges. The partitioner exploits this with an
/// [`ActiveSet`](apg_exec::ActiveSet):
/// a vertex is active iff it has not yet been evaluated to a Stay since it
/// was last *dirtied*, and the decision phase visits **only active
/// vertices** (whole shards with no active slot are skipped).
///
/// Evaluating a vertex that decides Stay retires it; a vertex that
/// proposes a migration stays active (its tie-break re-rolls each round,
/// and a quota-blocked proposal must be re-made). Migrations re-dirty the
/// migrant and its whole neighbourhood (every neighbour sees the label
/// change), and the mutation hooks re-dirty exactly the vertices whose
/// incident-edge multiset changed: an edge add/remove marks its two
/// endpoints, a vertex removal marks every former neighbour, an insertion
/// marks the newcomer — so streaming churn reactivates exactly the
/// region it perturbed. Note that *cut-incident* is deliberately **not**
/// the activity criterion: on a high-cut power-law graph nearly every
/// vertex touches the cut, yet at convergence they all stably decide Stay
/// — stay-stability is what lets converged iterations cost near zero
/// instead of `O(|V|)`.
///
/// Because per-vertex RNG keying makes skipping exact, the history is
/// *identical* to an exhaustive sweep's
/// (`apg_core::reference::iterate_exhaustive` pins this); a converged, quiet
/// partitioner iterates in `O(shards)` bookkeeping, and a streaming one
/// pays per batch in proportion to the region the batch dirtied.
///
/// # Example
///
/// ```
/// use apg_core::{AdaptiveConfig, AdaptivePartitioner};
/// use apg_graph::gen;
/// use apg_partition::InitialStrategy;
///
/// let g = gen::mesh3d(8, 8, 8);
/// let cfg = AdaptiveConfig::builder(4).build().unwrap();
/// let mut p = AdaptivePartitioner::with_strategy(&g, InitialStrategy::Random, &cfg, 7);
/// let before = p.cut_edges();
/// p.run_for(50);
/// assert!(p.cut_edges() < before);
/// ```
#[derive(Debug, Clone)]
pub struct AdaptivePartitioner {
    graph: DynGraph,
    partitioning: Partitioning,
    scalars: PartitionerScalars,
    cut: usize,
    /// Per-partition degree mass (edge endpoints), maintained for the
    /// edge-balanced extension and load diagnostics.
    degree_mass: Vec<usize>,
    pending: Vec<(VertexId, PartitionId)>,
    /// Which vertex slots the decision sweep still needs to visit (see the
    /// type-level docs) and which have mutated since the last checkpoint.
    /// Every mutation site reports what happened to a slot here and nowhere
    /// else. Not persisted: restore starts from the conservative saturated
    /// record.
    marks: SlotMarks,
    /// Reusable per-iteration scratch; see [`IterScratch`].
    scratch: IterScratch,
}

/// Per-iteration scratch buffers, hoisted out of the iteration loop so
/// their capacity survives across iterations instead of being reallocated
/// each round. Contents are dead between [`AdaptivePartitioner::iterate`]
/// calls — nothing here is logical state (clones just carry the capacity
/// along).
#[derive(Debug, Clone)]
struct IterScratch {
    /// Per-partition remaining capacity at iteration start.
    remaining: Vec<usize>,
    /// Work list of `(shard index, slot range)` pairs the decide fan-out
    /// sweeps this iteration (trimmed to each shard's dirtied region).
    shards: Vec<(usize, std::ops::Range<usize>)>,
    /// One reusable [`DecisionKernel`] per scheduled shard: the k-length
    /// label histogram every vertex evaluation tallies into, hoisted here
    /// so its O(k) buffers survive across iterations instead of being
    /// reallocated per shard per round. Every `decide` call walks its
    /// neighbour labels a second time to zero what it tallied, so reuse
    /// cannot leak counts across vertices.
    kernels: Vec<DecisionKernel>,
    /// Quota admission table, rebuilt in place each iteration.
    quota: QuotaTable,
    /// Slot-indexed migration targets for the apply fan-out: `targets[w]`
    /// is `w`'s admitted target while `pending` is being applied and
    /// [`NOT_MIGRATING`] otherwise. Stamped from `pending` before the
    /// fan-out and cleared from it after, so both cost `O(migrants)`; grows
    /// with the slot range and never shrinks.
    targets: Vec<PartitionId>,
}

/// The [`IterScratch::targets`] entry of a slot that is not migrating. No
/// partition can carry it: ids stay below `num_partitions`, itself a
/// [`PartitionId`].
const NOT_MIGRATING: PartitionId = PartitionId::MAX;

/// Active-vertex count below which the active-set sweep stays on the calling
/// thread. `fanout::map_items` spawns its scoped threads per call — 80-110 µs
/// for two on the 2-vCPU reference box — while an active vertex costs
/// ~0.2-0.4 µs to evaluate, so below a few hundred vertices the whole sweep
/// is cheaper than the spawn that would halve it (the tail of a refinement
/// job: ~145 quota-blocked vertices, 0.11-0.28 ms fanned out against
/// 0.03-0.06 ms inline).
const INLINE_SWEEP_BELOW: usize = 512;

impl AdaptivePartitioner {
    /// Creates a partitioner over a copy of `graph`, initialised with the
    /// given strategy and automatic capacities
    /// (`config.capacity_factor x` balanced load, tracking graph size).
    pub fn with_strategy<G: Graph>(
        graph: &G,
        strategy: InitialStrategy,
        config: &AdaptiveConfig,
        seed: u64,
    ) -> Self {
        let caps = CapacityModel::vertex_balanced(
            graph.num_live_vertices(),
            config.num_partitions,
            config.capacity_factor,
        );
        let partitioning = strategy.assign(graph, &caps, seed);
        Self::from_parts(
            DynGraph::from_graph(graph),
            partitioning,
            PartitionerScalars::fresh(config, seed),
        )
    }

    /// Creates a partitioner from an existing assignment (e.g. produced by
    /// `apg-metis`, or resumed from a snapshot).
    ///
    /// # Panics
    ///
    /// Panics if the assignment length differs from the graph's vertex-slot
    /// count or its `k` differs from the config's.
    pub fn from_partitioning<G: Graph>(
        graph: &G,
        partitioning: Partitioning,
        config: &AdaptiveConfig,
        seed: u64,
    ) -> Self {
        assert_eq!(
            partitioning.num_vertices(),
            graph.num_vertices(),
            "assignment does not cover the graph"
        );
        assert_eq!(
            partitioning.num_partitions(),
            config.num_partitions,
            "partition count mismatch"
        );
        Self::from_parts(
            DynGraph::from_graph(graph),
            partitioning,
            PartitionerScalars::fresh(config, seed),
        )
    }

    /// Replaces automatic capacity tracking with fixed explicit limits.
    pub fn set_fixed_capacities(&mut self, caps: CapacityModel) {
        assert_eq!(
            caps.num_partitions(),
            self.scalars.config.num_partitions,
            "partition count mismatch"
        );
        self.scalars.fixed_capacities = Some(caps);
    }

    fn from_parts(
        graph: DynGraph,
        mut partitioning: Partitioning,
        scalars: PartitionerScalars,
    ) -> Self {
        let config = &scalars.config;
        partitioning.recount_live(&graph);
        // Construction and restore pay one full-graph recount; shard it so
        // multi-million-vertex start-up does not serially walk every
        // adjacency list (`audit` keeps the serial walk as the independent
        // cross-check).
        let cut = cut_edges_sharded(&graph, &partitioning, config.parallelism);
        let mut degree_mass = vec![0usize; config.num_partitions as usize];
        for v in graph.vertices() {
            degree_mass[partitioning.partition_of(v) as usize] += graph.degree(v);
        }
        let marks = SlotMarks::saturated(&graph);
        let k = config.num_partitions as usize;
        let scratch = IterScratch {
            remaining: Vec::with_capacity(k),
            shards: Vec::new(),
            kernels: Vec::new(),
            quota: QuotaTable::new(config.quota_rule, &vec![0; k]),
            targets: Vec::new(),
        };
        AdaptivePartitioner {
            graph,
            partitioning,
            scalars,
            cut,
            degree_mass,
            pending: Vec::new(),
            marks,
            scratch,
        }
    }

    /// The graph being partitioned.
    pub fn graph(&self) -> &DynGraph {
        &self.graph
    }

    /// The current assignment.
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// The configuration in use.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.scalars.config
    }

    /// Current number of cut edges (maintained incrementally).
    pub fn cut_edges(&self) -> usize {
        self.cut
    }

    /// Current cut ratio.
    pub fn cut_ratio(&self) -> f64 {
        if self.graph.num_edges() == 0 {
            0.0
        } else {
            self.cut as f64 / self.graph.num_edges() as f64
        }
    }

    /// Iterations executed so far.
    pub fn iteration(&self) -> usize {
        self.scalars.iteration
    }

    /// Consecutive migration-free iterations.
    pub fn quiet_streak(&self) -> usize {
        self.scalars.quiet_streak
    }

    /// Vertices the next decision sweep will visit (the active set): every
    /// vertex with a cut-incident edge plus everything dirtied by
    /// mutations or migrations since its last evaluation. This is the
    /// per-iteration cost driver — `O(active)`, not `O(|V|)`.
    pub fn num_active_vertices(&self) -> usize {
        self.marks.sweep().num_active()
    }

    /// Whether vertex `v` is in the active set (will be visited by the
    /// next decision sweep).
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the slot range.
    pub fn is_active(&self, v: VertexId) -> bool {
        self.marks.sweep().contains(v as usize)
    }

    /// Vertex slots mutated (liveness, adjacency, or label) since the last
    /// [`AdaptivePartitioner::clear_changed`], ascending — the slot
    /// superset an incremental checkpoint re-encodes, `O(changed)` not
    /// `O(|V|)`. Reading does not reset the record: a checkpoint writer
    /// keeps the marks until its install is durable.
    pub fn changed_slots(&self) -> Vec<usize> {
        self.marks.changed_slots()
    }

    /// Resets the changed-slot record: the current state just became the
    /// durable checkpoint base (an install succeeded), or was just
    /// restored from it.
    pub fn clear_changed(&mut self) {
        self.marks.checkpointed();
    }

    /// Whether the convergence criterion (no migrations for
    /// `config.convergence_window` iterations) currently holds.
    pub fn is_converged(&self) -> bool {
        self.scalars.quiet_streak >= self.scalars.config.convergence_window
    }

    /// Current capacity limits (vertex- or degree-mass-denominated,
    /// depending on [`AdaptiveConfig::balance_edges`]).
    pub fn capacities(&self) -> CapacityModel {
        match &self.scalars.fixed_capacities {
            Some(caps) => caps.clone(),
            None if self.scalars.config.balance_edges => CapacityModel::edge_balanced(
                self.graph.num_edges().max(1),
                self.scalars.config.num_partitions,
                self.scalars.config.capacity_factor,
            ),
            None => CapacityModel::vertex_balanced(
                self.graph.num_live_vertices(),
                self.scalars.config.num_partitions,
                self.scalars.config.capacity_factor,
            ),
        }
    }

    /// Per-partition degree mass (edge endpoints).
    pub fn degree_mass(&self) -> &[usize] {
        &self.degree_mass
    }

    /// Per-partition load in the units of [`capacities`](Self::capacities):
    /// degree mass when balancing edges, live vertex counts otherwise.
    pub fn loads(&self) -> &[usize] {
        if self.scalars.config.balance_edges {
            &self.degree_mass
        } else {
            self.partitioning.sizes()
        }
    }

    /// Runs one iteration of the algorithm and reports its metrics.
    ///
    /// All migration decisions observe the assignment as it stood at the
    /// start of the iteration (the paper's iteration semantics); moves are
    /// applied together afterwards. The decision phase visits only the
    /// active set, on up to [`AdaptiveConfig::parallelism`] threads, with
    /// results independent of both the thread count and the skip (see the
    /// type-level docs).
    pub fn iterate(&mut self) -> IterationStats {
        self.iterate_profiled().0
    }

    /// [`AdaptivePartitioner::iterate`], additionally reporting where the
    /// iteration spent its time and how much work the active-set sweep
    /// scheduled (benchmark instrumentation; the stats are identical to
    /// what `iterate` would have produced). This is the production
    /// composition of the phases; see the module docs.
    pub fn iterate_profiled(&mut self) -> (IterationStats, SweepProfile) {
        self.iterate_with(Self::decide_active, Self::apply_pending_sharded)
    }

    /// The iteration skeleton: `decide` schedules the work list and runs
    /// the fan-out over it, `apply` commits the admitted `pending` set.
    fn iterate_with(
        &mut self,
        decide: impl FnOnce(&mut Self, &mut SweepProfile) -> Vec<ShardOutcome>,
        apply: impl FnOnce(&mut Self),
    ) -> (IterationStats, SweepProfile) {
        let mut profile = self.prepare_iteration();
        let outcomes = decide(self, &mut profile);
        self.admit(&outcomes, &mut profile);
        let apply_start = Instant::now();
        apply(self);
        profile.apply_ms = ms_since(apply_start);
        self.finish_iteration(profile)
    }

    /// The shard decomposition of the current slot range.
    fn shard_plan(&self) -> ShardPlan {
        ShardPlan::with_default_size(self.graph.slot_range().len())
    }

    /// Budget phase: per-partition remaining capacity at iteration start
    /// and the quota table derived from it. Also empties the work list and
    /// opens the iteration's profile.
    fn prepare_iteration(&mut self) -> SweepProfile {
        let caps = self.capacities();
        let mut remaining = std::mem::take(&mut self.scratch.remaining);
        remaining.clear();
        remaining.extend(
            self.loads()
                .iter()
                .enumerate()
                .map(|(p, &load)| caps.remaining(p as PartitionId, load)),
        );
        self.scratch
            .quota
            .rebuild(self.scalars.config.quota_rule, &remaining);
        self.scratch.remaining = remaining;

        let plan = self.shard_plan();
        let active = self.marks.sweep();
        debug_assert_eq!(active.len(), plan.len(), "active set out of sync");
        debug_assert_eq!(active.shard_size(), plan.shard_size());
        self.scratch.shards.clear();
        SweepProfile {
            active_before: active.num_active(),
            num_shards: plan.num_shards(),
            ..SweepProfile::default()
        }
    }

    /// Work-list and decide phases as production runs them: the
    /// dirtied-region work list — only shards with active slots, each
    /// trimmed to its first..=last active slot, so the fan-out covers the
    /// region recent churn touched and nothing else — swept by visiting
    /// each range's active slots.
    fn decide_active(&mut self, profile: &mut SweepProfile) -> Vec<ShardOutcome> {
        self.marks
            .sweep()
            .collect_dirty_shards(&mut self.scratch.shards);
        // A sweep cheaper than the spawn runs inline; the fan-out returns
        // the same outcomes at any thread count, so histories cannot tell.
        let threads = if profile.active_before < INLINE_SWEEP_BELOW {
            1
        } else {
            self.scalars.config.parallelism
        };
        self.decide(profile, threads, |frozen, slots, eval| {
            for slot in frozen.marks.sweep().iter_in(slots) {
                let v = slot as VertexId;
                debug_assert!(frozen.graph.is_vertex(v), "tombstone {v} in active set");
                eval.evaluate(v);
            }
        })
    }

    /// Decide phase: fans the work list in `scratch.shards` over up to
    /// `threads` threads (the caller knows how many vertices it is about
    /// to visit, so the caller sizes the fan-out); `sweep_shard` evaluates
    /// the vertices it chooses to visit within one slot range. Shards
    /// propose migrations against the frozen graph + assignment. Every
    /// vertex draws from its own (seed, vertex, iteration) RNG, so visiting
    /// a subset draws exactly what a full sweep would have drawn for each
    /// visited vertex. Read-only, embarrassingly parallel; proposals come
    /// back in shard order = vertex order.
    fn decide<F>(
        &mut self,
        profile: &mut SweepProfile,
        threads: usize,
        sweep_shard: F,
    ) -> Vec<ShardOutcome>
    where
        F: Fn(&Self, std::ops::Range<usize>, &mut Evaluator<'_>) + Sync,
    {
        profile.shards_swept = self.scratch.shards.len();
        profile.slots_scheduled = self.scratch.shards.iter().map(|(_, r)| r.len()).sum();

        // One reusable kernel per scheduled shard (grown on demand, kept
        // across iterations). Kernels are interchangeable — decide() leaves
        // no state behind — so pairing kernel i with work item i is safe.
        // They leave the scratch for the fan-out so the workers can share
        // `&self` beside them.
        let mut kernels = std::mem::take(&mut self.scratch.kernels);
        if kernels.len() < profile.shards_swept {
            let (k, count_self) = (self.config().num_partitions, self.config().count_self);
            kernels.resize_with(profile.shards_swept, || DecisionKernel::new(k, count_self));
        }
        let frozen = &*self;
        let s = frozen.config().willingness_at(frozen.iteration());
        let round = frozen.scalars.iteration as u64;
        let work: Vec<_> = kernels.iter_mut().zip(&frozen.scratch.shards).collect();

        let decide_start = Instant::now();
        let outcomes = fanout::map_items(threads, work, |_, (kernel, (_, slots))| {
            let mut eval = Evaluator {
                s,
                seed: frozen.scalars.seed,
                round,
                graph: &frozen.graph,
                partitioning: &frozen.partitioning,
                kernel,
                out: ShardOutcome::default(),
            };
            sweep_shard(frozen, slots.clone(), &mut eval);
            eval.out
        });
        profile.decide_ms = ms_since(decide_start);
        self.scratch.kernels = kernels;
        outcomes
    }

    /// Merge phase: single-threaded and deterministic. First retire the
    /// vertices the sweep proved interior — the apply phase re-dirties
    /// every neighbourhood its moves perturb, so anything whose boundary
    /// status changes is re-marked immediately after. Then admit proposals
    /// into `pending` against the quota table in ascending vertex order
    /// (exactly what a sequential sweep would have consumed).
    fn admit(&mut self, outcomes: &[ShardOutcome], profile: &mut SweepProfile) {
        let merge_start = Instant::now();
        for outcome in outcomes {
            profile.visited += outcome.visited;
            for &v in &outcome.retire {
                self.marks.retire(v as usize);
            }
        }
        self.pending.clear();
        for (v, to) in outcomes.iter().flat_map(|o| o.proposals.iter().copied()) {
            let current = self.partitioning.partition_of(v);
            let units = if self.scalars.config.balance_edges {
                self.graph.degree(v)
            } else {
                1
            };
            if self.scratch.quota.try_consume_units(current, to, units) {
                self.pending.push((v, to));
            }
        }
        profile.merge_ms = ms_since(merge_start);
    }

    /// Finish phase: the applied `pending` set becomes the iteration's
    /// migration count, the counters advance and the profile closes.
    fn finish_iteration(&mut self, mut profile: SweepProfile) -> (IterationStats, SweepProfile) {
        let migrations = self.pending.len();
        self.scalars.iteration += 1;
        if migrations == 0 {
            self.scalars.quiet_streak += 1;
        } else {
            self.scalars.quiet_streak = 0;
        }
        profile.active_after = self.marks.sweep().num_active();
        (self.stats_snapshot(migrations), profile)
    }

    /// Applies every admitted migration at once on the sharded fan-out.
    ///
    /// The migration set is frozen after admission and each vertex moves at
    /// most once, so a migrant's cut and degree-mass deltas are pure
    /// functions of the iteration-start labels plus the migration list: a
    /// neighbour's post-apply label is its own migration target if it is
    /// migrating (one read of the slot-indexed `scratch.targets` stamp,
    /// filled from `pending` for the duration of the fan-out), its frozen
    /// label otherwise. Shards of the migrant list therefore compute
    /// independent `{cut delta, degree-mass delta, dirty list}` outcomes
    /// against the frozen snapshot — each migrant–migrant edge is counted
    /// by its lower-id endpoint, every other edge by its migrant — and the
    /// single-threaded merge folds them in shard order, then replays the
    /// label/size bookkeeping in admission order. The resulting state is
    /// identical to moving one migrant at a time in admission order
    /// (dirty-marking is idempotent and the deltas are exact) — the loop
    /// `apg_core::reference::iterate_serial_apply` keeps alive as the
    /// reference.
    fn apply_pending_sharded(&mut self) {
        let k = self.scalars.config.num_partitions as usize;
        let targets = &mut self.scratch.targets;
        targets.resize(self.graph.num_vertices(), NOT_MIGRATING);
        for &(v, to) in &self.pending {
            targets[v as usize] = to;
        }
        let targets = &self.scratch.targets;
        let graph = &self.graph;
        let partitioning = &self.partitioning;
        let pending = &self.pending;
        debug_assert!(
            pending.windows(2).all(|w| w[0].0 < w[1].0),
            "pending not sorted by vertex id"
        );
        let plan = ShardPlan::with_default_size(pending.len());
        let outcomes = fanout::map_shards(self.scalars.config.parallelism, &plan, |_, migrants| {
            let reads = migrants.clone().map(|i| graph.degree(pending[i].0)).sum();
            let mut out = ApplyOutcome {
                cut_delta: 0,
                mass_delta: vec![0i64; k],
                relabelled_neighbours: Vec::with_capacity(reads),
            };
            for i in migrants {
                let (v, to) = pending[i];
                let from = partitioning.partition_of(v);
                if from == to {
                    continue;
                }
                for &w in graph.neighbors(v) {
                    // The neighbour sees v's label change: it re-enters
                    // the active set.
                    out.relabelled_neighbours.push(w);
                    let old_w = partitioning.partition_of(w);
                    let (new_w, counts_edge) = match targets[w as usize] {
                        NOT_MIGRATING => (old_w, true),
                        // A migrant–migrant edge contributes one delta,
                        // owned by the lower-id endpoint.
                        target => (target, v < w),
                    };
                    if counts_edge {
                        out.cut_delta += (to != new_w) as i64 - (from != old_w) as i64;
                    }
                }
                let deg = graph.degree(v) as i64;
                out.mass_delta[from as usize] -= deg;
                out.mass_delta[to as usize] += deg;
            }
            out
        });
        for &(v, _) in &self.pending {
            self.scratch.targets[v as usize] = NOT_MIGRATING;
        }

        let mut cut = self.cut as i64;
        for out in &outcomes {
            cut += out.cut_delta;
            for (p, delta) in out.mass_delta.iter().enumerate() {
                self.degree_mass[p] = (self.degree_mass[p] as i64 + delta) as usize;
            }
            for &w in &out.relabelled_neighbours {
                self.marks.neighbour_relabelled(w as usize);
            }
        }
        self.cut = cut as usize;
        for i in 0..self.pending.len() {
            let (v, to) = self.pending[i];
            let from = self.partitioning.partition_of(v);
            if from == to {
                continue;
            }
            self.partitioning.move_vertex(v, to);
            self.marks.mutated(v as usize);
        }
    }

    fn stats_snapshot(&self, migrations: usize) -> IterationStats {
        IterationStats {
            iteration: self.scalars.iteration - 1,
            migrations,
            cut_edges: self.cut,
            live_vertices: self.graph.num_live_vertices(),
            num_edges: self.graph.num_edges(),
            max_partition: self.partitioning.sizes().iter().copied().max().unwrap_or(0),
        }
    }

    /// Fast-forwards the counters over `n` skipped iterations that are
    /// provably migration-free — the adaptive per-batch budget's way of
    /// charging iterations it never executes (a drained active set means
    /// every remaining budgeted iteration would visit nothing and migrate
    /// nothing). The iteration counter keys the per-vertex RNG streams, so
    /// charging keeps every future draw aligned with a run that executed
    /// the skipped iterations; the quiet streak advances exactly as `n`
    /// migration-free [`AdaptivePartitioner::iterate`] calls would have.
    pub(crate) fn charge_quiet_iterations(&mut self, n: usize) {
        self.scalars.iteration += n;
        self.scalars.quiet_streak += n;
    }

    /// Runs exactly `n` iterations, returning their stats.
    pub fn run_for(&mut self, n: usize) -> Vec<IterationStats> {
        (0..n).map(|_| self.iterate()).collect()
    }

    /// Runs until convergence (no migrations for
    /// `config.convergence_window` consecutive iterations) or until
    /// `config.max_iterations` iterations have been executed in this call.
    pub fn run_to_convergence(&mut self) -> ConvergenceReport {
        let initial_cut = self.cut;
        let initial_edges = self.graph.num_edges();
        let mut history = Vec::new();
        for _ in 0..self.scalars.config.max_iterations {
            history.push(self.iterate());
            if self.is_converged() {
                break;
            }
        }
        ConvergenceReport::new(
            history,
            initial_cut,
            initial_edges,
            self.scalars.config.convergence_window,
        )
    }

    // ---- dynamic graph mutations -------------------------------------
    //
    // The canonical mutation path is [`AdaptivePartitioner::apply_batch`];
    // the per-delta methods below are its building blocks and remain
    // public for tests and fine-grained callers. Every path maintains the
    // incremental cut, partition sizes, and degree mass.

    /// Applies an [`UpdateBatch`] through the partitioner: the resulting
    /// graph and [`ApplyReport`] are identical to [`UpdateBatch::apply`] on
    /// a bare [`DynGraph`] (the application loop is literally shared, via
    /// [`DeltaTarget`]), while the incremental accounting is maintained
    /// across every delta and new vertices are placed by
    /// [`place_new_vertex`].
    pub fn apply_batch(&mut self, batch: &UpdateBatch) -> ApplyReport {
        batch.apply_to(self)
    }

    /// Streams in a new vertex with the given neighbours, placing it by
    /// [`place_new_vertex`]. Returns its id.
    ///
    /// Edges to tombstoned or unknown endpoints are ignored (the stream may
    /// race with removals, as in the paper's CDR scenario).
    pub fn add_vertex_with_edges(&mut self, neighbors: &[VertexId]) -> VertexId {
        let v = self.insert_vertex();
        for &w in neighbors {
            self.add_edge(v, w);
        }
        v
    }

    /// Adds an isolated vertex and places it; resets the quiet streak. The
    /// new vertex starts active (it owes a first evaluation).
    fn insert_vertex(&mut self) -> VertexId {
        let v = self.graph.add_vertex();
        let p = place_new_vertex(v, self.loads(), &self.capacities());
        self.partitioning.grow_to(v as usize + 1, p);
        self.marks.born(v as usize);
        self.scalars.quiet_streak = 0;
        v
    }

    /// Adds an undirected edge; returns whether the graph changed. Both
    /// endpoints re-enter the active set — and only they: an edge flip
    /// changes the endpoints' own neighbour multisets, while every other
    /// vertex's candidate counts are untouched (their neighbour sets and
    /// neighbour *labels* did not move), so marking just `u` and `v` is
    /// already exact and keeps hub-incident churn cheap.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        let added = self.graph.add_edge(u, v);
        if added {
            if self.partitioning.partition_of(u) != self.partitioning.partition_of(v) {
                self.cut += 1;
            }
            self.degree_mass[self.partitioning.partition_of(u) as usize] += 1;
            self.degree_mass[self.partitioning.partition_of(v) as usize] += 1;
            self.marks.mutated(u as usize);
            self.marks.mutated(v as usize);
            self.scalars.quiet_streak = 0;
        }
        added
    }

    /// Removes an undirected edge; returns whether the graph changed. Both
    /// endpoints re-enter the active set (and only they — see
    /// [`AdaptivePartitioner::add_edge`] for why that is exact).
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        let removed = self.graph.remove_edge(u, v);
        if removed {
            if self.partitioning.partition_of(u) != self.partitioning.partition_of(v) {
                self.cut -= 1;
            }
            self.degree_mass[self.partitioning.partition_of(u) as usize] -= 1;
            self.degree_mass[self.partitioning.partition_of(v) as usize] -= 1;
            self.marks.mutated(u as usize);
            self.marks.mutated(v as usize);
            self.scalars.quiet_streak = 0;
        }
        removed
    }

    /// Removes a vertex and its incident edges; returns whether the graph
    /// changed. Every former neighbour re-enters the active set (each lost
    /// an edge); the tombstone itself leaves it.
    pub fn remove_vertex(&mut self, v: VertexId) -> bool {
        if !self.graph.is_vertex(v) {
            return false;
        }
        let pv = self.partitioning.partition_of(v);
        for &w in self.graph.neighbors(v) {
            if self.partitioning.partition_of(w) != pv {
                self.cut -= 1;
            }
            self.degree_mass[self.partitioning.partition_of(w) as usize] -= 1;
            self.marks.mutated(w as usize);
        }
        self.degree_mass[pv as usize] -= self.graph.degree(v);
        self.graph.remove_vertex(v);
        self.partitioning.forget_vertex(v);
        self.marks.tombstoned(v as usize);
        self.scalars.quiet_streak = 0;
        true
    }

    /// Captures the partitioner's complete logical state for persistence:
    /// graph (tombstones included), assignment with live sizes, config,
    /// seed, iteration counter and quiet streak, plus fixed capacities if
    /// any were set.
    ///
    /// The capture is *complete* in the determinism sense:
    /// [`AdaptivePartitioner::restore`] on the returned state yields a
    /// partitioner whose future [`AdaptivePartitioner::iterate`] history is
    /// identical to this one's — the iteration counter keys the per-shard
    /// RNG streams, so it must survive the trip. The incremental
    /// accounting (cut, degree mass) is *not* captured: it is a pure
    /// function of graph + assignment and is recomputed on restore.
    pub fn snapshot_state(&self) -> crate::persist::PartitionerState {
        crate::persist::PartitionerState {
            graph: self.graph.clone(),
            partitioning: self.partitioning.clone(),
            scalars: self.scalars.clone(),
        }
    }

    /// The persisted scalars: everything [`AdaptivePartitioner::restore`]
    /// needs besides the graph and the assignment.
    pub(crate) fn scalars(&self) -> &PartitionerScalars {
        &self.scalars
    }

    /// Rebuilds a partitioner from state captured by
    /// [`AdaptivePartitioner::snapshot_state`] (possibly on a previous
    /// process), recomputing the incremental accounting. The active set is
    /// not part of the captured state: restore conservatively marks every
    /// live vertex active, which is exact — the vertices the original had
    /// retired would all have decided *Stay*, so kill-and-resume timelines
    /// stay byte-equal (the extra first-sweep evaluations retire them
    /// again without producing migrations).
    ///
    /// # Panics
    ///
    /// Panics if the state fails the cross-field checks every decoded
    /// [`PartitionerState`](crate::persist::PartitionerState) has already
    /// passed (assignment covering the graph, matching partition counts).
    pub fn restore(state: crate::persist::PartitionerState) -> Self {
        if let Err(violation) = state.validate() {
            panic!("inconsistent partitioner state: {violation}");
        }
        Self::from_parts(state.graph, state.partitioning, state.scalars)
    }

    /// Audits internal invariants (incremental cut vs recount, size
    /// accounting, max-partition tracking, the active-set invariant, the
    /// apply stamp being clear); used by tests and debug assertions.
    ///
    /// # Panics
    ///
    /// Panics when an invariant is violated.
    pub fn audit(&self) {
        let recount = cut_edges(&self.graph, &self.partitioning);
        assert_eq!(self.cut, recount, "incremental cut drifted");
        let mut sizes = vec![0usize; self.scalars.config.num_partitions as usize];
        let mut mass = vec![0usize; self.scalars.config.num_partitions as usize];
        for v in self.graph.vertices() {
            sizes[self.partitioning.partition_of(v) as usize] += 1;
            mass[self.partitioning.partition_of(v) as usize] += self.graph.degree(v);
        }
        assert_eq!(
            sizes.as_slice(),
            self.partitioning.sizes(),
            "size accounting drifted"
        );
        assert_eq!(mass, self.degree_mass, "degree-mass accounting drifted");
        // Active-set exactness invariant: every *inactive* live vertex must
        // provably decide Stay — no partition may outweigh its current one
        // among its neighbours (ties resolve to Stay deterministically, so
        // equality is safe; randomness only enters once another partition
        // strictly wins). This is precisely what makes skipping inactive
        // vertices indistinguishable from evaluating them.
        self.marks.audit(&self.graph);
        // Between iterations the apply stamp names no migrant, so a stale
        // target cannot leak into the next apply.
        assert!(
            self.scratch.targets.len() <= self.graph.num_vertices()
                && self.scratch.targets.iter().all(|&t| t == NOT_MIGRATING),
            "apply target stamp not cleared"
        );
        let mut counts = vec![0u32; self.scalars.config.num_partitions as usize];
        for v in self.graph.vertices() {
            if self.marks.sweep().contains(v as usize) {
                continue;
            }
            counts.iter_mut().for_each(|c| *c = 0);
            for &w in self.graph.neighbors(v) {
                counts[self.partitioning.partition_of(w) as usize] += 1;
            }
            let pv = self.partitioning.partition_of(v);
            let own = counts[pv as usize] + self.scalars.config.count_self as u32;
            for (p, &count) in counts.iter().enumerate() {
                assert!(
                    p == pv as usize || count <= own,
                    "inactive vertex {v} could migrate: partition {p} holds \
                     {count} of its neighbours vs {own} at home"
                );
            }
        }
    }
}

/// The partitioner as a delta target: [`UpdateBatch::apply_to`]'s single
/// shared application loop drives these hooks, so the partitioner's batch
/// path cannot drift from a bare graph's.
impl DeltaTarget for AdaptivePartitioner {
    fn delta_add_vertex(&mut self) -> VertexId {
        self.insert_vertex()
    }

    fn delta_add_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        self.add_edge(u, v)
    }

    fn delta_remove_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        self.remove_edge(u, v)
    }

    fn delta_remove_vertex(&mut self, v: VertexId) -> Option<usize> {
        if !self.graph.is_vertex(v) {
            return None;
        }
        let degree = self.graph.degree(v);
        self.remove_vertex(v);
        Some(degree)
    }
}

/// What one shard's decision pass produced: migration proposals (ascending
/// vertex order), vertices proven interior (to retire from the active
/// set), and how many slots it visited.
#[derive(Debug, Default)]
struct ShardOutcome {
    proposals: Vec<(VertexId, PartitionId)>,
    retire: Vec<VertexId>,
    visited: usize,
}

/// What one shard of the parallel apply produced: the cut and degree-mass
/// deltas of its migrants' moves, computed against the frozen
/// iteration-start labels, plus the neighbours that saw a label change
/// (the migrants themselves are marked by the merge). Folding the
/// outcomes in shard order reproduces the serial per-migrant loop's final
/// state exactly.
#[derive(Debug)]
struct ApplyOutcome {
    cut_delta: i64,
    mass_delta: Vec<i64>,
    relabelled_neighbours: Vec<VertexId>,
}

/// One shard's view of the decide phase: the frozen iteration-start
/// snapshot, the shard's kernel and the outcome it is filling.
struct Evaluator<'a> {
    /// Effective willingness this iteration.
    s: f64,
    seed: u64,
    round: u64,
    graph: &'a DynGraph,
    partitioning: &'a Partitioning,
    kernel: &'a mut DecisionKernel,
    out: ShardOutcome,
}

impl Evaluator<'_> {
    /// Evaluates one vertex against the frozen iteration-start snapshot.
    ///
    /// Every draw comes from the vertex's own `(seed, vertex, round)` RNG —
    /// first the willingness roll, then any tie-breaks inside the kernel —
    /// so the outcome is independent of which other vertices were visited.
    /// A vertex that decides *Stay* is retired from the active set: Stay is
    /// deterministic (the current partition wins every tie), so with an
    /// unchanged neighbourhood the vertex would decide Stay on every future
    /// iteration too.
    ///
    /// There is no pre-scan for an interior vertex: the kernel's tally is
    /// also the early-out. A vertex whose neighbours all share its label
    /// makes its own partition the unique best, so the kernel returns Stay
    /// — without a random draw — and the vertex retires. The kernel only
    /// consumes randomness when several *foreign* partitions tie for best,
    /// which an interior vertex cannot produce. Each evaluation reads
    /// `neighbors(v)` and the labels behind it twice (tally, then
    /// zero-and-collect; see [`DecisionKernel`]) and nothing else, so a
    /// sweep costs its neighbour reads.
    #[inline]
    fn evaluate(&mut self, v: VertexId) {
        self.out.visited += 1;
        let mut rng = vertex_rng(self.seed, v as u64, self.round);
        if self.s < 1.0 && !rng.gen_bool(self.s) {
            // Declined to evaluate this round: it stays active and re-rolls
            // next iteration, exactly as an exhaustive sweep would.
            return;
        }
        let (graph, partitioning) = (self.graph, self.partitioning);
        let current = partitioning.partition_of(v);
        match self.kernel.decide(
            current,
            graph
                .neighbors(v)
                .iter()
                .map(|&w| partitioning.partition_of(w)),
            &mut rng,
        ) {
            MigrationDecision::Stay => self.out.retire.push(v),
            MigrationDecision::Migrate(to) => self.out.proposals.push((v, to)),
        }
    }
}

/// Milliseconds elapsed since `start`.
fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

// Reference drivers for the equivalence suites — a child module so they
// can drive the private phases above without widening their visibility.
#[doc(hidden)]
#[path = "reference.rs"]
pub mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use apg_graph::gen;
    use apg_partition::vertex_imbalance;

    fn mesh_partitioner(s: f64, seed: u64) -> AdaptivePartitioner {
        let g = gen::mesh3d(8, 8, 8);
        let cfg = AdaptiveConfig::builder(4).willingness(s).build().unwrap();
        AdaptivePartitioner::with_strategy(&g, InitialStrategy::Hash, &cfg, seed)
    }

    #[test]
    fn cut_decreases_markedly_on_mesh() {
        let mut p = mesh_partitioner(0.5, 1);
        let before = p.cut_ratio();
        p.run_for(60);
        let after = p.cut_ratio();
        assert!(after < 0.5 * before, "cut only went {before} -> {after}");
        p.audit();
    }

    #[test]
    fn willingness_zero_freezes_everything() {
        let mut p = mesh_partitioner(0.0, 2);
        let before = p.partitioning().clone();
        let stats = p.run_for(5);
        assert!(stats.iter().all(|s| s.migrations == 0));
        assert_eq!(p.partitioning(), &before);
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut p = mesh_partitioner(1.0, 3);
        for _ in 0..40 {
            p.iterate();
            let caps = p.capacities();
            for part in 0..4u16 {
                assert!(
                    p.partitioning().size(part) <= caps.capacity(part),
                    "partition {part} exceeded capacity at iteration {}",
                    p.iteration()
                );
            }
        }
    }

    #[test]
    fn balance_stays_bounded() {
        let mut p = mesh_partitioner(0.5, 4);
        p.run_for(80);
        let imb = vertex_imbalance(p.partitioning());
        assert!(imb <= 1.11, "imbalance {imb} above capacity factor");
    }

    #[test]
    fn converges_on_small_mesh() {
        let g = gen::mesh3d(6, 6, 6);
        let cfg = AdaptiveConfig::builder(4)
            .max_iterations(600)
            .build()
            .unwrap();
        let mut p = AdaptivePartitioner::with_strategy(&g, InitialStrategy::Hash, &cfg, 5);
        let report = p.run_to_convergence();
        assert!(report.converged(), "did not converge in 600 iterations");
        assert!(p.is_converged());
    }

    #[test]
    fn incremental_cut_matches_recount_under_churn() {
        let mut p = mesh_partitioner(0.7, 6);
        p.run_for(10);
        // Interleave mutations with iterations.
        let v1 = p.add_vertex_with_edges(&[0, 1, 2, 3]);
        p.add_edge(v1, 10);
        p.remove_edge(0, 1);
        p.remove_vertex(5);
        p.run_for(5);
        p.audit();
    }

    #[test]
    fn mutations_reset_convergence() {
        let g = gen::mesh3d(4, 4, 4);
        let cfg = AdaptiveConfig::builder(2)
            .max_iterations(400)
            .build()
            .unwrap();
        let mut p = AdaptivePartitioner::with_strategy(&g, InitialStrategy::Hash, &cfg, 7);
        p.run_to_convergence();
        assert!(p.is_converged());
        p.add_vertex_with_edges(&[0, 1]);
        assert!(!p.is_converged(), "mutation must reset the quiet streak");
    }

    #[test]
    fn new_vertex_migrates_towards_neighbours() {
        let g = gen::mesh3d(6, 6, 6);
        let cfg = AdaptiveConfig::builder(3).willingness(1.0).build().unwrap();
        let mut p = AdaptivePartitioner::with_strategy(&g, InitialStrategy::Hash, &cfg, 8);
        p.run_for(100);
        // Attach a vertex entirely to partition owners of vertex 0's area.
        let anchor = 0u32;
        let target_part = p.partitioning().partition_of(anchor);
        let neighbours: Vec<VertexId> = std::iter::once(anchor)
            .chain(p.graph().neighbors(anchor).iter().copied())
            .filter(|&w| p.partitioning().partition_of(w) == target_part)
            .collect();
        let v = p.add_vertex_with_edges(&neighbours);
        p.run_for(20);
        assert_eq!(
            p.partitioning().partition_of(v),
            target_part,
            "vertex should have migrated to its neighbourhood"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = mesh_partitioner(0.5, 11);
        let mut b = mesh_partitioner(0.5, 11);
        a.run_for(20);
        b.run_for(20);
        assert_eq!(a.partitioning(), b.partitioning());
        assert_eq!(a.cut_edges(), b.cut_edges());
    }

    #[test]
    fn parallel_sweep_is_thread_count_invariant() {
        // 8000 slots span multiple shards, so parallelism > 1 genuinely
        // fans out; the histories must be identical anyway.
        let g = gen::mesh3d(20, 20, 20);
        let run = |threads: usize| {
            let cfg = AdaptiveConfig::builder(4)
                .parallelism(threads)
                .build()
                .unwrap();
            let mut p = AdaptivePartitioner::with_strategy(&g, InitialStrategy::Hash, &cfg, 17);
            let history = p.run_for(25);
            p.audit();
            (history, p.partitioning().clone(), p.cut_edges())
        };
        let sequential = run(1);
        assert_eq!(sequential, run(3));
        assert_eq!(sequential, run(8));
    }

    #[test]
    fn inline_sweeps_keep_the_history() {
        // A run that starts with every vertex active (fanned out) and ends
        // with a handful spread over both shards (swept inline): the switch
        // is a wall-clock choice, never a history one.
        let g = gen::mesh3d(20, 20, 20);
        let run = |threads: usize| {
            let cfg = AdaptiveConfig::builder(4)
                .parallelism(threads)
                .build()
                .unwrap();
            let mut p = AdaptivePartitioner::with_strategy(&g, InitialStrategy::Hash, &cfg, 17);
            let (mut fanned_out, mut inline) = (0, 0);
            let history: Vec<_> = (0..120)
                .map(|_| {
                    let (stats, profile) = p.iterate_profiled();
                    if profile.active_before >= INLINE_SWEEP_BELOW {
                        fanned_out += 1;
                    } else if profile.shards_swept > 1 {
                        inline += 1;
                    }
                    stats
                })
                .collect();
            assert!(fanned_out > 0 && inline > 0, "{fanned_out} / {inline}");
            p.audit();
            (history, p.partitioning().clone())
        };
        let sequential = run(1);
        assert_eq!(sequential, run(2));
        assert_eq!(sequential, run(8));
    }

    #[test]
    fn sharded_apply_matches_serial_apply() {
        let g = gen::mesh3d(12, 12, 12);
        let run = |iterate: fn(&mut AdaptivePartitioner) -> IterationStats, threads: usize| {
            let cfg = AdaptiveConfig::builder(4)
                .willingness(1.0)
                .parallelism(threads)
                .build()
                .unwrap();
            let mut p = AdaptivePartitioner::with_strategy(&g, InitialStrategy::Hash, &cfg, 41);
            let mut history: Vec<_> = (0..12).map(|_| iterate(&mut p)).collect();
            let v = p.add_vertex_with_edges(&[0, 5, 9]);
            p.add_edge(v, 100);
            p.remove_vertex(200);
            history.extend((0..12).map(|_| iterate(&mut p)));
            p.audit();
            (
                history,
                p.partitioning().clone(),
                p.cut_edges(),
                p.degree_mass().to_vec(),
            )
        };
        let reference = run(|p| reference::iterate_serial_apply(p).0, 1);
        assert_eq!(reference, run(AdaptivePartitioner::iterate, 1));
        assert_eq!(reference, run(AdaptivePartitioner::iterate, 8));
    }

    #[test]
    fn from_partitioning_resumes() {
        let g = gen::mesh3d(4, 4, 4);
        let cfg = AdaptiveConfig::builder(2).build().unwrap();
        let p1 = AdaptivePartitioner::with_strategy(&g, InitialStrategy::Random, &cfg, 1);
        let assignment = p1.partitioning().clone();
        let p2 = AdaptivePartitioner::from_partitioning(&g, assignment.clone(), &cfg, 2);
        assert_eq!(p2.partitioning(), &assignment);
        assert_eq!(p2.cut_edges(), cut_edges(&g, &assignment));
    }

    #[test]
    fn newborns_are_placed_against_edge_capacity_when_balancing_edges() {
        // Every edge sits inside the partition the next id hashes to: it
        // holds all the degree mass (over its edge capacity) but only 4 of
        // the 10 vertices (under a vertex capacity). Placement must compare
        // like with like and send the newborn to the other partition.
        const N: usize = 10;
        let hashed = (hash_vertex(N as VertexId) % 2) as PartitionId;
        let mut g = DynGraph::with_vertices(N);
        for (u, v) in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
            g.add_edge(u, v);
        }
        let labels = (0..N).map(|v| if v < 4 { hashed } else { 1 - hashed });
        let partitioning = Partitioning::from_assignment(labels.collect(), 2);
        let cfg = AdaptiveConfig::builder(2)
            .willingness(0.0)
            .balance_on_edges(true)
            .build()
            .unwrap();
        let mut p = AdaptivePartitioner::from_partitioning(&g, partitioning, &cfg, 1);
        assert_eq!(p.loads(), p.degree_mass());
        assert_eq!(
            p.capacities().remaining(hashed, p.loads()[hashed as usize]),
            0
        );
        let v = p.add_vertex_with_edges(&[]);
        assert_eq!(v as usize, N);
        assert_eq!(p.partitioning().partition_of(v), 1 - hashed);
        p.audit();
    }

    #[test]
    fn tombstones_in_the_source_stay_tombstones() {
        // A 6-vertex path with vertex 2 removed: 5 live vertices, and the
        // partitioner's graph is its input — the dead id stays dead,
        // inactive and uncounted.
        let mut g = DynGraph::with_vertices(6);
        for v in 0..5 {
            g.add_edge(v, v + 1);
        }
        g.remove_vertex(2);
        let cfg = AdaptiveConfig::builder(2).build().unwrap();
        let built = AdaptivePartitioner::with_strategy(&g, InitialStrategy::Hash, &cfg, 3);
        let assignment = built.partitioning().clone();
        let resumed = AdaptivePartitioner::from_partitioning(&g, assignment, &cfg, 3);
        for mut p in [built, resumed] {
            assert_eq!(p.graph(), &g);
            assert_eq!(p.graph().num_live_vertices(), 5);
            assert!(!p.graph().is_vertex(2) && !p.is_active(2));
            assert_eq!(p.partitioning().sizes().iter().sum::<usize>(), 5);
            p.audit();
            p.run_for(4);
            p.audit();
            assert!(!p.graph().is_vertex(2));
        }
    }

    #[test]
    fn active_sweep_matches_exhaustive_sweep() {
        // The tentpole contract: with per-vertex RNG keying, skipping
        // interior vertices is exact — histories are identical whether the
        // sweep visits the active set (production) or every live vertex
        // (the reference driver).
        let g = gen::mesh3d(10, 10, 10);
        let run = |iterate: fn(&mut AdaptivePartitioner) -> IterationStats| {
            let cfg = AdaptiveConfig::builder(4).willingness(0.7).build().unwrap();
            let mut p = AdaptivePartitioner::with_strategy(&g, InitialStrategy::Hash, &cfg, 23);
            let mut history: Vec<_> = (0..8).map(|_| iterate(&mut p)).collect();
            let v = p.add_vertex_with_edges(&[0, 1, 5, 17]);
            p.add_edge(v, 40);
            p.remove_edge(2, 3);
            p.remove_vertex(77);
            history.extend((0..8).map(|_| iterate(&mut p)));
            p.audit();
            (history, p.partitioning().clone(), p.cut_edges())
        };
        assert_eq!(
            run(AdaptivePartitioner::iterate),
            run(|p| reference::iterate_exhaustive(p).0)
        );
    }

    #[test]
    fn stay_deciders_retire_from_the_active_set() {
        let g = gen::mesh3d(8, 8, 8);
        let cfg = AdaptiveConfig::builder(4)
            .max_iterations(500)
            .build()
            .unwrap();
        let mut p = AdaptivePartitioner::with_strategy(&g, InitialStrategy::Hash, &cfg, 9);
        let all = p.num_active_vertices();
        assert_eq!(all, 512, "everything starts active");
        let report = p.run_to_convergence();
        assert!(report.converged(), "mesh refinement did not go quiet");
        p.audit();
        // Quiet for the whole convergence window means every vertex has
        // long since evaluated to a stable Stay and retired — boundary
        // vertices included (Stay is deterministic, so sitting on the cut
        // does not keep a vertex active). Only quota-starved would-be
        // migrants could linger, and a converged mesh has none.
        assert!(
            p.num_active_vertices() <= all / 50,
            "converged mesh still has {} of {all} vertices active",
            p.num_active_vertices()
        );
        // The sweep visits exactly the active set.
        let active = p.num_active_vertices();
        let (_, profile) = p.iterate_profiled();
        assert_eq!(profile.active_before, active);
        assert_eq!(profile.visited, active);
        assert!(profile.shards_swept <= profile.num_shards);
        // The scheduled slot footprint is trimmed to the dirtied region:
        // never wider than the full plan, never narrower than the slots it
        // must visit.
        assert!(profile.slots_scheduled <= profile.num_shards * apg_exec::DEFAULT_SHARD_SIZE);
        assert!(profile.slots_scheduled >= profile.visited);
    }

    #[test]
    fn dirty_region_trims_the_scheduled_footprint() {
        let g = gen::mesh3d(8, 8, 8);
        let cfg = AdaptiveConfig::builder(4)
            .max_iterations(500)
            .build()
            .unwrap();
        let mut p = AdaptivePartitioner::with_strategy(&g, InitialStrategy::Hash, &cfg, 9);
        // First iteration: everything is dirty, so the scheduled footprint
        // is the full slot range.
        let (_, first) = p.iterate_profiled();
        assert_eq!(first.slots_scheduled, 512);
        p.run_to_convergence();
        // Perturb two distant vertices: the next sweep schedules only the
        // slivers around them, not whole 4096-wide shards (the mesh fits in
        // one shard, so without trimming this would be 512 slots).
        let mut batch = apg_graph::UpdateBatch::new();
        batch.remove_edge(0, 1);
        p.apply_batch(&batch);
        let dirtied = p.num_active_vertices();
        let (_, profile) = p.iterate_profiled();
        assert!(dirtied > 0);
        assert!(
            profile.slots_scheduled < 512,
            "footprint {} not trimmed below the full slot range",
            profile.slots_scheduled
        );
        assert!(profile.slots_scheduled >= dirtied);
    }

    #[test]
    fn mutations_reactivate_the_perturbed_region() {
        let g = gen::mesh3d(8, 8, 8);
        let cfg = AdaptiveConfig::builder(4)
            .willingness(1.0)
            .max_iterations(400)
            .build()
            .unwrap();
        let mut p = AdaptivePartitioner::with_strategy(&g, InitialStrategy::Hash, &cfg, 31);
        p.run_to_convergence();
        let quiet = p.num_active_vertices();
        // An edge between two vertices re-activates both neighbourhoods.
        let (u, v) = (0u32, 300u32);
        assert!(p.add_edge(u, v) || p.remove_edge(u, v));
        assert!(p.is_active(u) && p.is_active(v));
        assert!(p.num_active_vertices() > quiet);
        p.audit();
    }

    #[test]
    fn restore_reactivates_all_live_vertices() {
        let g = gen::mesh3d(6, 6, 6);
        let cfg = AdaptiveConfig::builder(3).willingness(1.0).build().unwrap();
        let mut p = AdaptivePartitioner::with_strategy(&g, InitialStrategy::Hash, &cfg, 12);
        p.run_for(20);
        assert!(p.num_active_vertices() < p.graph().num_live_vertices());
        let restored = AdaptivePartitioner::restore(p.snapshot_state());
        assert_eq!(
            restored.num_active_vertices(),
            restored.graph().num_live_vertices(),
            "restore must conservatively re-mark every live vertex"
        );
        // ... and the conservative re-marking is exact: both futures agree.
        let mut a = p;
        let mut b = restored;
        assert_eq!(a.run_for(10), b.run_for(10));
        b.audit();
    }

    #[test]
    fn max_partition_tracking_matches_rescan() {
        let mut p = mesh_partitioner(0.8, 15);
        for _ in 0..25 {
            let stats = p.iterate();
            let rescan = p.partitioning().sizes().iter().copied().max().unwrap();
            assert_eq!(stats.max_partition, rescan);
        }
        p.remove_vertex(3);
        p.remove_vertex(100);
        let v = p.add_vertex_with_edges(&[0, 1]);
        p.add_edge(v, 2);
        let stats = p.iterate();
        let rescan = p.partitioning().sizes().iter().copied().max().unwrap();
        assert_eq!(stats.max_partition, rescan);
        p.audit();
    }

    #[test]
    fn fixed_capacities_are_respected() {
        let g = gen::mesh3d(4, 4, 4);
        let cfg = AdaptiveConfig::builder(2).willingness(1.0).build().unwrap();
        let mut p = AdaptivePartitioner::with_strategy(&g, InitialStrategy::Random, &cfg, 3);
        let tight = CapacityModel::vertex_balanced(64, 2, 1.0);
        p.set_fixed_capacities(tight.clone());
        p.run_for(30);
        for part in 0..2u16 {
            assert!(p.partitioning().size(part) <= tight.capacity(part));
        }
    }
}
