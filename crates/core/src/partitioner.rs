//! The adaptive iterative vertex-migration partitioner.
//!
//! One iteration is a fixed sequence of private phases — budgets → work
//! list → decide fan-out → admission into `pending` → apply → finish —
//! composed by [`AdaptivePartitioner::iterate_profiled`] with no mode
//! switch. The naive counterparts the equivalence suites compare against
//! live in the hidden child module `reference` (`reference.rs`), which
//! recomposes the same phases with exactly one swapped out.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use apg_exec::{fanout, vertex_rng, ShardPlan};
use apg_graph::delta::DeltaTarget;
use apg_graph::{ApplyReport, DynGraph, Graph, UpdateBatch, VertexId};
use apg_partition::{
    cut_edges, cut_edges_sharded, initial::hash_vertex, CapacityModel, InitialStrategy,
    PartitionId, Partitioning,
};

use crate::candidates::{pick_candidate, DecisionKernel, MigrationDecision};
use crate::config::AdaptiveConfig;
use crate::marks::{Journal, ParkedMerge, Relabels, SlotMarks, RELABEL_SLOT_LIMIT};
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
    /// Active slots when the iteration started: the sweep's plus the
    /// parked ones.
    pub active_before: usize,
    /// Active slots when the iteration finished: the sweep's plus the
    /// parked ones.
    pub active_after: usize,
    /// Parked slots when the iteration started: refused proposers waiting
    /// in their quota pairs' queues, out of the sweep.
    pub parked: usize,
    /// Vertices the decision phase visited: the sweep's, parked slots not
    /// included (all live vertices under the exhaustive reference driver).
    pub visited: usize,
    /// Shards the fan-out scheduled (shards with no active slot are
    /// skipped outright).
    pub shards_swept: usize,
    /// Total shards in the iteration's plan.
    pub num_shards: usize,
    /// Neighbour labels the decision kernel read: the degree of every
    /// vertex it walked. Deterministic — identical at every parallelism.
    pub labels_read: usize,
    /// Parked slots admission rolled the willingness draw for: those it
    /// reached while one of their pairs still had budget. Deterministic —
    /// identical at every parallelism.
    pub parked_reads: usize,
    /// Evaluations answered from a parked slot's candidate memo, with no
    /// neighbour read: the parked reads that were willing. Deterministic —
    /// identical at every parallelism.
    pub memo_hits: usize,
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
/// room left. `capacity` gives a partition's limit, and `loads` must count
/// in its units — vertices, or degree mass when balancing edges. The one
/// statement of the rule, shared by the logical-level partitioner and the
/// BSP engine.
pub fn place_new_vertex(
    v: VertexId,
    loads: &[usize],
    capacity: impl Fn(PartitionId) -> usize,
) -> PartitionId {
    let hashed = (hash_vertex(v) % loads.len() as u64) as PartitionId;
    if capacity(hashed) > loads[usize::from(hashed)] {
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
/// Stay — on every future iteration, under every RNG outcome — for as long
/// as its home count (plus itself, under `count_self`) still reaches its
/// best foreign count. The partitioner exploits this with an
/// [`ActiveSet`](apg_exec::ActiveSet): a vertex is active iff its last
/// evaluation no longer proves Stay, and the decision phase visits **only
/// active vertices** (whole shards with no active slot are skipped).
///
/// Each slot's record keeps what its last evaluation proved (see the
/// `marks` module). A vertex that decides Stay retires with its *stay
/// margin* — home count minus best foreign count, which the kernel reports
/// from the walk it already does — and every event in its view spends that
/// margin by the most the event can move the tally: a foreign edge gained
/// −1, a home edge gained +1, a home edge lost −1, a foreign edge lost 0, a
/// neighbour relabelled away from home −2, into home +1, between two
/// foreign partitions −1. It re-enters the sweep only when the margin goes
/// negative, so a hub that gains one edge is not walked again. A vertex
/// that proposes a migration stays active (its tie-break re-rolls each
/// round). If quota refuses a proposal its fresh walk found, it is
/// *parked*: it leaves the sweep with its candidates as a *memo* and waits
/// in the queue of each quota pair `(home, candidate)` until any event
/// touches its view. Quota admits in ascending vertex order, so admission
/// merges the sweep's proposals with the heads of the queues whose pair
/// still has budget; a parked vertex it reaches is evaluated from its memo
/// — the willingness roll plus the kernel's tie-break, draw for draw what a
/// walk would do, with no neighbour read — and one it does not reach would
/// have been refused whatever it drew. A quota-starved pair therefore costs
/// what its budget admits, not what its queue holds. "Active" means the
/// sweep plus the parked slots.
///
/// The mutation hooks report exactly what changed: an edge add/remove to
/// its two endpoints (with whether the other end is home or foreign), a
/// vertex removal to every former neighbour, an insertion marks the
/// newcomer, and a migration the migrant itself; the apply phase reports
/// each relabel to the migrant's neighbours, summing an iteration's events
/// per neighbour so the outcome does not depend on their order. An
/// iteration that moves a large share of the graph (a mass move, see
/// `MASS_MOVE_FRACTION`) re-activates every neighbour of a migrant and
/// unparks every parked vertex instead. Note that *cut-incident* is
/// deliberately **not** the activity criterion: on a high-cut power-law
/// graph nearly every vertex touches the cut, yet at convergence they all
/// stably decide Stay — stay-stability is what lets converged iterations
/// cost near zero instead of `O(|V|)`.
///
/// Because per-vertex RNG keying makes skipping exact, the history is
/// *identical* to an exhaustive sweep's
/// (`apg_core::reference::iterate_exhaustive` pins this, walking every
/// live vertex, parked ones included, with no memo and no queue); `audit`
/// proves every retired vertex's margin and every parked vertex's memo
/// against a fresh count, and every parked vertex reachable from the queue
/// of each pair its memo names. A converged, quiet partitioner iterates in
/// `O(shards)` bookkeeping, and a streaming one pays per batch in
/// proportion to the views the batch actually changed.
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
    /// One reusable [`ShardOutcome`] per scheduled shard, beside its
    /// kernel: each is cleared (and reserved, see
    /// [`ShardOutcome::clear_for`]) before its shard is swept, so proposal,
    /// candidate and retire buffers keep their capacity across iterations
    /// and a steady-state sweep allocates nothing per shard.
    outcomes: Vec<ShardOutcome>,
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

/// Sweep size (parked slots not counted: the sweep does not visit them)
/// below which the active-set sweep stays on the calling thread.
/// `fanout::map_items` spawns its scoped threads per call — 40-46 µs for
/// two on a quiet 2-vCPU Intel Xeon VM, 61-70 µs on the same VM under load
/// (`machine_probe`'s empty two-thread fan-out) — while a swept vertex
/// costs ~0.2-0.4 µs to evaluate, so below a few hundred vertices the whole
/// sweep is cheaper
/// than the spawn that would halve it (the tail of a refinement job: ~145
/// vertices, 0.11-0.28 ms fanned out against 0.03-0.06 ms inline).
const INLINE_SWEEP_BELOW: usize = 512;

/// An iteration that moves more than one apply shard of vertices
/// ([`DEFAULT_SHARD_SIZE`](apg_exec::DEFAULT_SHARD_SIZE)) and more than one
/// live vertex in this many is a *mass move*: its migrants' neighbours all
/// re-enter the sweep instead of spending their stay margins, and every
/// parked vertex is unparked (so admission parks none). Exact either way; a
/// wall-clock choice. In a refinement of 500k vertices from a hash start
/// the first dozen iterations each move up to 10% of the graph, and there
/// the margin bookkeeping — a bitmap probe per neighbour read, a margin
/// update per event, memos the next moves invalidate — cost more than the
/// re-walks it saved; a streaming batch moves a few hundred vertices of
/// hundreds of thousands, and a small graph never moves a shard's worth.
const MASS_MOVE_FRACTION: usize = 64;

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
            outcomes: Vec::new(),
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

    /// Vertices in the active set: those the next decision sweep will
    /// visit — everything whose last evaluation no longer proves *Stay* —
    /// plus the parked refused proposers admission may read. Zero means
    /// every further iteration migrates nothing.
    pub fn num_active_vertices(&self) -> usize {
        self.marks.sweep().num_active() + self.marks.num_parked()
    }

    /// Whether vertex `v` is in the active set: in the next decision sweep,
    /// or parked.
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the slot range.
    pub fn is_active(&self, v: VertexId) -> bool {
        self.marks.sweep().contains(v as usize) || self.marks.is_parked(v as usize)
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
    /// restored from it. It also starts the journal: each slot's first
    /// change from here copies what the slot was, the base side of the
    /// next delta. A record never cleared journals nothing.
    pub fn clear_changed(&mut self) {
        self.marks.checkpointed();
    }

    /// What each changed slot was at the last `clear_changed`.
    pub(crate) fn journal(&self) -> &Journal {
        &self.marks.journal
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

    /// Partition `p`'s entry in [`AdaptivePartitioner::capacities`], read
    /// without building the model: placing a newborn needs one limit, and
    /// must not allocate `k` of them.
    fn capacity_of(&self, p: PartitionId) -> usize {
        let config = &self.scalars.config;
        match &self.scalars.fixed_capacities {
            Some(caps) => caps.capacity(p),
            None if config.balance_edges => CapacityModel::balanced_limit(
                2 * self.graph.num_edges().max(1),
                config.num_partitions,
                config.capacity_factor,
            ),
            None => CapacityModel::balanced_limit(
                self.graph.num_live_vertices(),
                config.num_partitions,
                config.capacity_factor,
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
        self.iterate_with(
            Self::decide_active,
            ParkedBy::Queues,
            Self::apply_pending_sharded,
        )
    }

    /// The iteration skeleton: `decide` schedules the work list and runs
    /// the fan-out over it, admission reads the parked slots as `parked`
    /// says, `apply` commits the admitted `pending` set.
    fn iterate_with(
        &mut self,
        decide: impl FnOnce(&mut Self, &mut SweepProfile),
        parked: ParkedBy,
        apply: impl FnOnce(&mut Self),
    ) -> (IterationStats, SweepProfile) {
        let mut profile = self.prepare_iteration();
        decide(self, &mut profile);
        let outcomes = std::mem::take(&mut self.scratch.outcomes);
        self.admit(&outcomes[..profile.shards_swept], parked, &mut profile);
        self.scratch.outcomes = outcomes;
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
        let mut remaining = std::mem::take(&mut self.scratch.remaining);
        remaining.clear();
        remaining.extend(
            self.loads()
                .iter()
                .enumerate()
                .map(|(p, &load)| self.capacity_of(p as PartitionId).saturating_sub(load)),
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
            active_before: self.num_active_vertices(),
            parked: self.marks.num_parked(),
            num_shards: plan.num_shards(),
            ..SweepProfile::default()
        }
    }

    /// Work-list and decide phases as production runs them: the
    /// dirtied-region work list — only shards with slots in the sweep, each
    /// trimmed to its first..=last such slot, so the fan-out covers the
    /// region recent churn touched and nothing else — swept by walking
    /// each range's sweep slots. Parked slots are not in the sweep;
    /// admission reads them.
    fn decide_active(&mut self, profile: &mut SweepProfile) {
        let sweep = self.marks.sweep();
        sweep.collect_dirty_shards(&mut self.scratch.shards);
        // A sweep cheaper than the spawn runs inline; the fan-out returns
        // the same outcomes at any thread count, so histories cannot tell.
        let threads = if sweep.num_active() < INLINE_SWEEP_BELOW {
            1
        } else {
            self.scalars.config.parallelism
        };
        self.decide(profile, threads, |frozen, slots, eval| {
            for slot in frozen.marks.sweep().iter_in(slots) {
                let v = slot as VertexId;
                debug_assert!(frozen.graph.is_vertex(v), "tombstone {v} in active set");
                if let Some(mut rng) = eval.roll(v) {
                    eval.walk(v, &mut rng);
                }
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
    /// visited vertex. Read-only, embarrassingly parallel; the outcomes
    /// land in `scratch.outcomes[..shards_swept]`, in shard order = vertex
    /// order.
    fn decide<F>(&mut self, profile: &mut SweepProfile, threads: usize, sweep_shard: F)
    where
        F: Fn(&Self, std::ops::Range<usize>, &mut Evaluator<'_>) + Sync,
    {
        profile.shards_swept = self.scratch.shards.len();
        profile.slots_scheduled = self.scratch.shards.iter().map(|(_, r)| r.len()).sum();

        // One reusable kernel and outcome per scheduled shard (grown on
        // demand, kept across iterations). Kernels are interchangeable —
        // decide() leaves no state behind — and each outcome is cleared
        // before its shard fills it, so pairing both with work item i is
        // safe. They leave the scratch for the fan-out so the workers can
        // share `&self` beside them.
        let mut kernels = std::mem::take(&mut self.scratch.kernels);
        if kernels.len() < profile.shards_swept {
            let (k, count_self) = (self.config().num_partitions, self.config().count_self);
            kernels.resize_with(profile.shards_swept, || DecisionKernel::new(k, count_self));
        }
        let mut outcomes = std::mem::take(&mut self.scratch.outcomes);
        if outcomes.len() < profile.shards_swept {
            outcomes.resize_with(profile.shards_swept, ShardOutcome::default);
        }
        for (out, (_, slots)) in outcomes.iter_mut().zip(&self.scratch.shards) {
            out.clear_for(slots.len());
        }
        let frozen = &*self;
        let s = frozen.config().willingness_at(frozen.iteration());
        let round = frozen.scalars.iteration as u64;
        let work: Vec<_> = kernels
            .iter_mut()
            .zip(&mut outcomes)
            .zip(&frozen.scratch.shards)
            .collect();

        let decide_start = Instant::now();
        fanout::map_items(threads, work, |_, ((kernel, out), (_, slots))| {
            let mut eval = Evaluator {
                s,
                seed: frozen.scalars.seed,
                round,
                graph: &frozen.graph,
                partitioning: &frozen.partitioning,
                kernel,
                out,
            };
            sweep_shard(frozen, slots.clone(), &mut eval);
        });
        profile.decide_ms = ms_since(decide_start);
        self.scratch.kernels = kernels;
        self.scratch.outcomes = outcomes;
    }

    /// Merge phase: single-threaded and deterministic. First retire the
    /// vertices the sweep proved would stay, each with its stay margin —
    /// the apply phase spends the margins its moves can erode, so a vertex
    /// whose decision could change is re-marked immediately after. Then
    /// admit proposals into `pending` against the quota table in ascending
    /// vertex order (exactly what a sequential sweep would have consumed):
    /// with `parked` = [`ParkedBy::Queues`], the sweep's proposals merged
    /// with the heads of the parked queues whose pair still has budget,
    /// each parked vertex reached evaluated from its memo. Only the order
    /// within a pair matters, since budgets are per pair, and a parked
    /// vertex the merge does not reach would have been refused whatever it
    /// drew. Unless the admitted set is a mass move, whose apply unparks
    /// everyone, a proposer quota refused after a fresh walk is then
    /// parked.
    fn admit(&mut self, outcomes: &[ShardOutcome], parked: ParkedBy, profile: &mut SweepProfile) {
        let merge_start = Instant::now();
        for outcome in outcomes {
            profile.visited += outcome.visited;
            profile.labels_read += outcome.labels_read;
            for &(v, margin) in &outcome.retire {
                self.marks.retired(v as usize, margin);
            }
        }
        self.pending.clear();
        let config = &self.scalars.config;
        let units = |v| {
            if config.balance_edges {
                self.graph.degree(v)
            } else {
                1
            }
        };
        let (s, round) = (
            config.willingness_at(self.scalars.iteration),
            self.scalars.iteration as u64,
        );
        let quota = &mut self.scratch.quota;
        let mut queues = match parked {
            ParkedBy::Queues if self.marks.num_parked() > 0 => Some(self.marks.parked_merge()),
            _ => None,
        };
        let mut fresh = outcomes.iter().flat_map(|o| &o.proposals).peekable();
        loop {
            let next_parked = queues
                .as_mut()
                .and_then(|q| q.peek(|from, to| quota.available(from, to) > 0));
            // The sweep never holds a parked slot, so the ids differ.
            let (v, to) = match next_parked {
                Some(v) if fresh.peek().is_none_or(|f| v < f.v) => {
                    queues.as_mut().expect("peeked").handled(v);
                    profile.parked_reads += 1;
                    let Some(mut rng) = roll(self.scalars.seed, v, round, s) else {
                        continue;
                    };
                    profile.memo_hits += 1;
                    let candidates = self.marks.memo(v as usize).expect("parked slot");
                    (v, pick_candidate(candidates, &mut rng))
                }
                _ => match fresh.next() {
                    Some(&Proposal { v, to, .. }) => (v, to),
                    None => break,
                },
            };
            let from = self.partitioning.partition_of(v);
            if quota.try_consume_units(from, to, units(v)) {
                self.pending.push((v, to));
            }
        }
        let passed = queues.map_or_else(Vec::new, ParkedMerge::finish);
        if !self.is_mass_move() {
            // `pending` is ascending — admitted proposals of the sweep
            // between admitted parked slots — so a proposal was admitted
            // iff `pending` holds its id.
            let mut admitted = self.pending.iter().map(|&(v, _)| v).peekable();
            for outcome in outcomes {
                let mut walked = outcome.candidates.as_slice();
                for &Proposal { v, candidates, .. } in &outcome.proposals {
                    let (fresh, rest) = walked.split_at(usize::from(candidates));
                    walked = rest;
                    while admitted.next_if(|&a| a < v).is_some() {}
                    if admitted.next_if_eq(&v).is_none() {
                        let home = self.partitioning.partition_of(v);
                        self.marks.refused(v as usize, home, fresh);
                    }
                }
            }
        }
        self.marks.parked_settled(&passed);
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
        profile.active_after = self.num_active_vertices();
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
    /// independent `{cut delta, degree-mass delta, relabel events}`
    /// outcomes against the frozen snapshot — each migrant–migrant edge is
    /// counted by its lower-id endpoint, every other edge by its migrant,
    /// and a neighbour gets an event unless it already awaits the sweep
    /// (the sweep record is frozen during the fan-out, so the skip is
    /// exact) — and the single-threaded merge folds them, then
    /// replays the label/size bookkeeping in admission order. The resulting
    /// state is identical to moving one migrant at a time in admission
    /// order (the deltas are exact and the relabel fold is
    /// order-independent) — the loop
    /// `apg_core::reference::iterate_serial_apply` keeps alive as the
    /// reference.
    fn apply_pending_sharded(&mut self) {
        let k = self.scalars.config.num_partitions as usize;
        let mass = self.is_mass_move();
        assert!(
            self.graph.num_vertices() <= RELABEL_SLOT_LIMIT,
            "slot range past {RELABEL_SLOT_LIMIT}"
        );
        let targets = &mut self.scratch.targets;
        targets.resize(self.graph.num_vertices(), NOT_MIGRATING);
        for &(v, to) in &self.pending {
            targets[v as usize] = to;
        }
        let targets = &self.scratch.targets;
        let graph = &self.graph;
        let partitioning = &self.partitioning;
        let marks = &self.marks;
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
                relabels: Relabels::with_reads(reads, mass),
            };
            for i in migrants {
                let (v, to) = pending[i];
                let from = partitioning.partition_of(v);
                if from == to {
                    continue;
                }
                for &w in graph.neighbors(v) {
                    let old_w = partitioning.partition_of(w);
                    // The neighbour sees v's label change.
                    out.relabels
                        .record(w, old_w, from, to, || marks.wants_relabel(w as usize));
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
        }
        self.cut = cut as usize;
        self.marks
            .neighbours_relabelled(outcomes.iter().map(|out| &out.relabels));
        for i in 0..self.pending.len() {
            let (v, to) = self.pending[i];
            let from = self.partitioning.partition_of(v);
            if from == to {
                continue;
            }
            self.marks
                .relabelled(v as usize, (&self.graph, &self.partitioning));
            self.partitioning.move_vertex(v, to);
        }
    }

    /// Whether the admitted `pending` set is a mass move (see
    /// [`MASS_MOVE_FRACTION`]). Both apply paths ask here, so they record
    /// and fold their relabels by the same rule.
    fn is_mass_move(&self) -> bool {
        let migrants = self.pending.len();
        migrants > apg_exec::DEFAULT_SHARD_SIZE
            && migrants * MASS_MOVE_FRACTION > self.graph.num_live_vertices()
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
        let p = place_new_vertex(v, self.loads(), |p| self.capacity_of(p));
        self.partitioning.grow_to(v as usize + 1, p);
        self.marks.born(v as usize);
        self.scalars.quiet_streak = 0;
        v
    }

    /// Adds an undirected edge; returns whether the graph changed. Both
    /// endpoints are marked changed, and each spends its stay margin by
    /// what the edge can move its tally (see the type-level docs) — no
    /// other vertex's view moved (their neighbour sets and neighbour
    /// *labels* did not), so hub-incident churn stays cheap.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        let added = self.graph.add_edge(u, v);
        if added {
            let (pu, pv) = (
                self.partitioning.partition_of(u),
                self.partitioning.partition_of(v),
            );
            if pu != pv {
                self.cut += 1;
            }
            self.degree_mass[pu as usize] += 1;
            self.degree_mass[pv as usize] += 1;
            let live = (&self.graph, &self.partitioning);
            self.marks.edge_gained(u as usize, v, live);
            self.marks.edge_gained(v as usize, u, live);
            self.scalars.quiet_streak = 0;
        }
        added
    }

    /// Removes an undirected edge; returns whether the graph changed. Both
    /// endpoints are marked changed and spend their margins (and only they
    /// — see [`AdaptivePartitioner::add_edge`]).
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        let removed = self.graph.remove_edge(u, v);
        if removed {
            let (pu, pv) = (
                self.partitioning.partition_of(u),
                self.partitioning.partition_of(v),
            );
            if pu != pv {
                self.cut -= 1;
            }
            self.degree_mass[pu as usize] -= 1;
            self.degree_mass[pv as usize] -= 1;
            let live = (&self.graph, &self.partitioning);
            self.marks.edge_lost(u as usize, v, live);
            self.marks.edge_lost(v as usize, u, live);
            self.scalars.quiet_streak = 0;
        }
        removed
    }

    /// Removes a vertex and its incident edges; returns whether the graph
    /// changed. Every former neighbour lost an edge (marked changed, margin
    /// spent); the tombstone itself leaves the active set.
    pub fn remove_vertex(&mut self, v: VertexId) -> bool {
        if !self.graph.is_vertex(v) {
            return false;
        }
        let pv = self.partitioning.partition_of(v);
        let live = (&self.graph, &self.partitioning);
        self.marks.tombstoned(v as usize, live);
        for &w in self.graph.neighbors(v) {
            let pw = self.partitioning.partition_of(w);
            if pw != pv {
                self.cut -= 1;
            }
            self.degree_mass[pw as usize] -= 1;
            self.marks.edge_lost(w as usize, v, live);
        }
        self.degree_mass[pv as usize] -= self.graph.degree(v);
        self.graph.remove_vertex(v);
        self.partitioning.forget_vertex(v);
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
    /// accounting, max-partition tracking, the apply stamp being clear, and
    /// what the sweep relies on: every retired vertex's stay margin is at
    /// most its true margin, every parked vertex's memo is what a fresh
    /// walk would find, and the parked set is disjoint from the sweep with
    /// every parked vertex in the queue of each pair its memo names); used
    /// by tests and debug assertions.
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
        self.marks.audit(&self.graph, &self.partitioning);
        // Between iterations the apply stamp names no migrant, so a stale
        // target cannot leak into the next apply.
        assert!(
            self.scratch.targets.len() <= self.graph.num_vertices()
                && self.scratch.targets.iter().all(|&t| t == NOT_MIGRATING),
            "apply target stamp not cleared"
        );
        // Each inactive vertex's recorded stay margin is at most its true
        // margin (home count, plus itself under `count_self`, minus the
        // best foreign count) — so, margins being non-negative, no
        // partition outweighs its current one among its neighbours.
        let mut counts = vec![0u32; self.scalars.config.num_partitions as usize];
        for v in self.graph.vertices() {
            if self.marks.sweep().contains(v as usize) || self.marks.is_parked(v as usize) {
                continue;
            }
            counts.iter_mut().for_each(|c| *c = 0);
            for &w in self.graph.neighbors(v) {
                counts[self.partitioning.partition_of(w) as usize] += 1;
            }
            let pv = self.partitioning.partition_of(v);
            let own = counts[pv as usize] + self.scalars.config.count_self as u32;
            let (p, best_foreign) = counts
                .iter()
                .enumerate()
                .filter(|&(p, _)| p != pv as usize)
                .map(|(p, &count)| (p, count))
                .max_by_key(|&(_, count)| count)
                .unwrap_or((pv as usize, 0));
            let margin = self.marks.margin(v as usize);
            assert!(
                best_foreign + u32::from(margin) <= own,
                "inactive vertex {v} claims margin {margin}, but partition {p} holds \
                 {best_foreign} of its neighbours vs {own} at home"
            );
        }
        // Every parked vertex's memo is what a fresh walk would find, in
        // order (and `SlotMarks::audit` found it in those pairs' queues).
        let k = self.scalars.config.num_partitions;
        let mut kernel = DecisionKernel::new(k, self.scalars.config.count_self);
        for slot in self.marks.parked_slots() {
            let v = slot as VertexId;
            let memo = self.marks.memo(slot).expect("listed memo");
            let labels = self
                .graph
                .neighbors(v)
                .iter()
                .map(|&w| self.partitioning.partition_of(w));
            let decision = kernel.decide(
                self.partitioning.partition_of(v),
                labels,
                &mut vertex_rng(0, 0, 0),
            );
            assert!(
                matches!(decision, MigrationDecision::Migrate(_)) && kernel.candidates() == memo,
                "vertex {v}'s memo {memo:?} is stale: a fresh walk gives {decision:?} over {:?}",
                kernel.candidates()
            );
        }
    }
}

/// The partitioner as a delta target: [`UpdateBatch::apply_to`]'s single
/// shared application loop drives these hooks, so the partitioner's batch
/// path cannot drift from a bare graph's.
impl DeltaTarget for AdaptivePartitioner {
    fn delta_warm(&self, v: VertexId) {
        self.graph.delta_warm(v);
    }

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
/// vertex order) with their candidates, vertices proven to stay with their
/// stay margins (to retire from the active set), and what the pass cost.
#[derive(Debug, Clone, Default)]
struct ShardOutcome {
    proposals: Vec<Proposal>,
    /// The proposals' candidate lists, back to back in proposal order.
    candidates: Vec<PartitionId>,
    retire: Vec<(VertexId, u8)>,
    visited: usize,
    labels_read: usize,
}

impl ShardOutcome {
    /// Empties the outcome for a sweep of `slots` slots, keeping its
    /// capacity, and reserves room for the whole sweep: a visited vertex
    /// adds one retiree or one proposal at most, and the candidate room
    /// covers one per slot. The decide phase calls this on the calling
    /// thread before the fan-out, so the workers fill buffers that are
    /// already there and allocate nothing even while the buffers still
    /// grow — bar a shard whose proposers average more than one candidate
    /// per slot swept.
    fn clear_for(&mut self, slots: usize) {
        self.proposals.clear();
        self.candidates.clear();
        self.retire.clear();
        self.proposals.reserve(slots);
        self.candidates.reserve(slots);
        self.retire.reserve(slots);
        self.visited = 0;
        self.labels_read = 0;
    }
}

/// Who evaluates the parked slots in an iteration.
#[derive(Debug, Clone, Copy)]
enum ParkedBy {
    /// Admission, from their pairs' queues: production.
    Queues,
    /// The decide phase, which walked them with every other live vertex:
    /// the exhaustive reference.
    Sweep,
}

/// One migration proposal. `candidates` counts the entries it owns in its
/// [`ShardOutcome::candidates`] — the list its walk drew from, which
/// becomes its memo if quota refuses it. (A list never holds the home
/// partition, so its length fits a partition id.)
#[derive(Debug, Clone, Copy)]
struct Proposal {
    v: VertexId,
    to: PartitionId,
    candidates: PartitionId,
}

/// What one shard of the parallel apply produced: the cut and degree-mass
/// deltas of its migrants' moves, computed against the frozen
/// iteration-start labels, plus the relabel events its neighbours saw
/// (the migrants themselves are marked by the merge). Folding the
/// outcomes reproduces the serial per-migrant loop's final state exactly.
#[derive(Debug)]
struct ApplyOutcome {
    cut_delta: i64,
    mass_delta: Vec<i64>,
    relabels: Relabels,
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
    out: &'a mut ShardOutcome,
}

impl Evaluator<'_> {
    /// Opens one vertex's evaluation against the frozen iteration-start
    /// snapshot: counts the visit and rolls the willingness draw from the
    /// vertex's own `(seed, vertex, round)` RNG. `None` means the vertex
    /// declined this round — it stays active and re-rolls next iteration,
    /// exactly as an exhaustive sweep would; the RNG, when returned, goes on
    /// to any tie-break.
    ///
    /// Every draw a vertex consumes comes from that RNG, so the outcome is
    /// independent of which other vertices were visited.
    #[inline]
    fn roll(&mut self, v: VertexId) -> Option<StdRng> {
        self.out.visited += 1;
        roll(self.seed, v, self.round, self.s)
    }

    /// Decides by walking `v`'s neighbour labels through the kernel. A
    /// vertex that decides *Stay* is retired with its stay margin: Stay is
    /// deterministic (the current partition wins every tie), so until
    /// events spend that margin it would decide Stay on every future
    /// iteration too. A vertex that migrates proposes, keeping its
    /// candidates in case quota refuses it.
    ///
    /// There is no pre-scan for an interior vertex: the kernel's tally is
    /// also the early-out, and it only consumes randomness when several
    /// *foreign* partitions tie for best. Each walk reads `neighbors(v)`
    /// and the labels behind it twice (tally, then zero-and-collect; see
    /// [`DecisionKernel`]) and nothing else, so a sweep costs its neighbour
    /// reads.
    #[inline]
    fn walk(&mut self, v: VertexId, rng: &mut StdRng) {
        let (graph, partitioning) = (self.graph, self.partitioning);
        let neighbours = graph.neighbors(v);
        self.out.labels_read += neighbours.len();
        let current = partitioning.partition_of(v);
        let labels = neighbours.iter().map(|&w| partitioning.partition_of(w));
        match self.kernel.decide(current, labels, rng) {
            MigrationDecision::Stay => self.out.retire.push((v, self.kernel.stay_margin())),
            MigrationDecision::Migrate(to) => {
                let candidates = self.kernel.candidates();
                self.out.candidates.extend_from_slice(candidates);
                self.out.proposals.push(Proposal {
                    v,
                    to,
                    candidates: candidates.len() as PartitionId,
                });
            }
        }
    }
}

/// `v`'s willingness roll in `round` at willingness `s`, from its own
/// `(seed, vertex, round)` RNG: the RNG, for any tie-break, if `v` is
/// willing. The one roll of the sweep and of admission's parked reads.
#[inline]
fn roll(seed: u64, v: VertexId, round: u64, s: f64) -> Option<StdRng> {
    let mut rng = vertex_rng(seed, v as u64, round);
    (s >= 1.0 || rng.gen_bool(s)).then_some(rng)
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
        // The sweep visits exactly the active set's unparked part.
        let active = p.num_active_vertices();
        let (_, profile) = p.iterate_profiled();
        assert_eq!(profile.active_before, active);
        assert_eq!(profile.visited + profile.parked, active);
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
        // Tie vertex 0 to more foreign low-id vertices than any margin
        // absorbs: the next sweep schedules only the sliver around them,
        // not whole 4096-wide shards (the mesh fits in one shard, so
        // without trimming this would be 512 slots).
        let home = p.partitioning().partition_of(0);
        let mut batch = apg_graph::UpdateBatch::new();
        for x in (2..64)
            .filter(|&x| p.partitioning().partition_of(x) != home && !p.graph().has_edge(0, x))
            .take(8)
        {
            batch.add_edge(0, x);
        }
        p.apply_batch(&batch);
        let dirtied = p.marks.sweep().num_active();
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
    fn an_edge_reactivates_an_endpoint_exactly_when_its_margin_is_spent() {
        let g = gen::mesh3d(8, 8, 8);
        let cfg = AdaptiveConfig::builder(4)
            .willingness(1.0)
            .max_iterations(400)
            .build()
            .unwrap();
        let mut p = AdaptivePartitioner::with_strategy(&g, InitialStrategy::Hash, &cfg, 31);
        p.run_to_convergence();
        // A retired vertex with something to spend, and one more foreign
        // non-neighbour than its margin.
        let label = |p: &AdaptivePartitioner, v: VertexId| p.partitioning().partition_of(v);
        let u = (0..512u32)
            .find(|&v| !p.is_active(v) && p.marks.margin(v as usize) >= 2)
            .expect("a converged mesh has interior vertices");
        let m = p.marks.margin(u as usize);
        let foreign: Vec<VertexId> = (0..512u32)
            .filter(|&x| label(&p, x) != label(&p, u) && !p.graph().has_edge(u, x))
            .take(usize::from(m) + 1)
            .collect();
        assert_eq!(foreign.len(), usize::from(m) + 1);
        for (i, &x) in foreign.iter().enumerate() {
            p.clear_changed();
            assert!(p.add_edge(u, x));
            // Both endpoints are always changed; u re-enters the sweep on
            // edge m + 1 and not before.
            assert_eq!(
                p.changed_slots(),
                vec![u.min(x) as usize, u.max(x) as usize]
            );
            let spent = i + 1 > usize::from(m);
            assert_eq!(p.is_active(u), spent, "after {} foreign edges", i + 1);
            if !spent {
                assert_eq!(
                    usize::from(p.marks.margin(u as usize)),
                    usize::from(m) - i - 1
                );
            }
            p.audit();
        }
        // A home edge lost spends one, a foreign one nothing.
        let w = (0..512u32).find(|&w| {
            !p.is_active(w)
                && p.marks.margin(w as usize) == 1
                && p.graph()
                    .neighbors(w)
                    .iter()
                    .any(|&x| label(&p, x) == label(&p, w))
                && p.graph()
                    .neighbors(w)
                    .iter()
                    .any(|&x| label(&p, x) != label(&p, w))
        });
        if let Some(w) = w {
            let far = |home: bool| {
                p.graph()
                    .neighbors(w)
                    .iter()
                    .copied()
                    .find(|&x| (label(&p, x) == label(&p, w)) == home)
                    .unwrap()
            };
            let (away, near) = (far(false), far(true));
            assert!(p.remove_edge(w, away));
            assert!(!p.is_active(w));
            assert!(p.remove_edge(w, near));
            assert!(!p.is_active(w), "margin 1 absorbs one home edge");
            p.audit();
        }
    }

    #[test]
    fn a_refused_proposer_re_proposes_from_its_memo() {
        use apg_partition::capacity::BalanceObjective;
        let g = gen::mesh3d(6, 6, 6);
        let cfg = AdaptiveConfig::builder(4).willingness(1.0).build().unwrap();
        let mut p = AdaptivePartitioner::with_strategy(&g, InitialStrategy::Hash, &cfg, 21);
        // No room anywhere: quota refuses every proposal and parks it.
        let full = p.partitioning().sizes().to_vec();
        let caps = |room: usize| {
            let caps = full.iter().map(|&size| size + room).collect();
            CapacityModel::explicit(caps, BalanceObjective::Vertices)
        };
        p.set_fixed_capacities(caps(0));
        let (stats, walked) = p.iterate_profiled();
        assert_eq!((stats.migrations, walked.memo_hits), (0, 0));
        assert!(walked.labels_read > 0);
        let proposers = p.marks.num_parked();
        assert!(proposers > 0, "nobody proposed");
        assert_eq!(p.num_active_vertices(), proposers, "the rest retired");
        p.audit();

        // Every pair is dead: nothing is swept and nothing is read.
        let (stats, starved) = p.iterate_profiled();
        assert_eq!(stats.migrations, 0);
        assert_eq!(
            (starved.visited, starved.parked, starved.parked_reads),
            (0, proposers, 0)
        );

        // One unit per pair: admission reads parked slots from their memos,
        // never a neighbour label, and only while their pairs have budget —
        // drawing exactly what fresh walks draw.
        p.set_fixed_capacities(caps(3));
        let mut exhaustive = p.clone();
        let (stats, from_memos) = p.iterate_profiled();
        assert_eq!((from_memos.visited, from_memos.labels_read), (0, 0));
        assert_eq!(from_memos.memo_hits, from_memos.parked_reads);
        assert!(stats.migrations > 0 && from_memos.parked_reads < proposers);
        assert_eq!(reference::iterate_exhaustive(&mut exhaustive).0, stats);
        assert_eq!(exhaustive.partitioning(), p.partitioning());
        p.audit();
        exhaustive.audit();
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
