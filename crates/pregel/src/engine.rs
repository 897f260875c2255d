//! The BSP engine: superstep orchestration, message routing and deferred
//! migration — the protocol of paper §3, and nothing else.
//!
//! The state the protocol runs over is the workspace's own. Topology is one
//! [`DynGraph`]; the logical routing table is one [`Partitioning`] (sizes
//! count live vertices; a removed vertex keeps a stale label, and liveness
//! is the graph's to answer). What the engine adds is `state_at`, the
//! *physical* table that lags routing by one superstep for in-flight
//! vertices, and the per-worker application state it indexes.

use std::collections::HashSet;

use apg_core::{place_new_vertex, AdaptiveConfig, DEFAULT_CAPACITY_FACTOR};
use apg_graph::delta::DeltaTarget;
use apg_graph::{DynGraph, Graph, UpdateBatch, VertexId};
use apg_partition::{CapacityModel, InitialStrategy, PartitionId, Partitioning};

use crate::cost::{CostModel, SuperstepReport};
use crate::fault::FaultPlan;
use crate::migrate::{InFlight, MigrationController};
use crate::program::{Context, VertexProgram};
use crate::worker::{VertexState, WorkerCounters, WorkerId, WorkerState};

/// Builder for [`Engine`]; start from [`EngineBuilder::new`].
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    k: WorkerId,
    seed: u64,
    cost_model: CostModel,
    fault_plan: FaultPlan,
    initial: InitialStrategy,
    adaptive: Option<AdaptiveConfig>,
}

impl EngineBuilder {
    /// Starts building an engine with `k` workers (= partitions).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: WorkerId) -> EngineBuilder {
        assert!(k > 0, "need at least one worker");
        EngineBuilder {
            k,
            seed: 0,
            cost_model: CostModel::default(),
            fault_plan: FaultPlan::none(),
            initial: InitialStrategy::Hash,
            adaptive: None,
        }
    }

    /// Sets the RNG seed (initial partitioning, migration tie-breaks).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the cluster cost model (default [`CostModel::lan_10gbe`]).
    pub fn cost_model(mut self, m: CostModel) -> Self {
        self.cost_model = m;
        self
    }

    /// Schedules worker failures.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Sets the initial partitioning strategy (default hash, as in most
    /// large-scale systems — paper §2).
    pub fn initial_strategy(mut self, s: InitialStrategy) -> Self {
        self.initial = s;
        self
    }

    /// Enables the background adaptive partitioning algorithm. The
    /// configuration's capacity factor also governs where streamed-in
    /// vertices start.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.num_partitions` differs from the engine's worker count.
    pub fn adaptive(mut self, cfg: AdaptiveConfig) -> Self {
        assert_eq!(cfg.num_partitions, self.k, "partitions must equal workers");
        self.adaptive = Some(cfg);
        self
    }

    /// Builds an engine over `graph` running `program`, partitioned by the
    /// configured initial strategy.
    pub fn build<G: Graph, P: VertexProgram>(self, graph: &G, program: P) -> Engine<P> {
        let caps = CapacityModel::vertex_balanced(
            graph.num_live_vertices(),
            self.k,
            DEFAULT_CAPACITY_FACTOR,
        );
        let partitioning = self.initial.assign(graph, &caps, self.seed);
        self.build_with_partitioning(graph, program, &partitioning)
    }

    /// Builds an engine with an explicit initial assignment.
    ///
    /// # Panics
    ///
    /// Panics if the assignment's `k` differs from the worker count or it
    /// does not cover the graph.
    pub fn build_with_partitioning<G: Graph, P: VertexProgram>(
        self,
        graph: &G,
        program: P,
        partitioning: &Partitioning,
    ) -> Engine<P> {
        assert_eq!(partitioning.num_partitions(), self.k, "k mismatch");
        assert_eq!(
            partitioning.num_vertices(),
            graph.num_vertices(),
            "coverage mismatch"
        );
        let k = self.k as usize;
        let graph = DynGraph::from_graph(graph);
        let mut routing = partitioning.clone();
        routing.recount_live(&graph);
        let mut workers: Vec<WorkerState<P::Value>> = (0..k).map(|_| WorkerState::new()).collect();
        for v in graph.vertices() {
            let w = routing.partition_of(v) as usize;
            workers[w].vertices.insert(v, VertexState::default());
        }
        let controller = self
            .adaptive
            .map(|cfg| MigrationController::new(cfg, self.seed ^ 0xADA0_0517));
        Engine {
            program,
            graph,
            state_at: routing.as_slice().to_vec(),
            routing,
            workers,
            inboxes: (0..k).map(|_| Vec::new()).collect(),
            controller,
            in_flight_set: HashSet::new(),
            cost_model: self.cost_model,
            fault_plan: self.fault_plan,
            superstep: 0,
            total_sim_time: 0.0,
        }
    }
}

/// The Pregel-like engine. See the crate docs for the model.
pub struct Engine<P: VertexProgram> {
    program: P,
    /// Topology, shared read-only by every worker during a superstep.
    graph: DynGraph,
    /// Routing table: vertex -> logical worker (updated at decision time).
    routing: Partitioning,
    /// Physical table: vertex -> worker holding its state (lags `routing`
    /// by one superstep for in-flight vertices; stale for removed ones).
    state_at: Vec<WorkerId>,
    workers: Vec<WorkerState<P::Value>>,
    /// Messages awaiting delivery at the next superstep, per worker.
    inboxes: Vec<Vec<(VertexId, P::Message)>>,
    controller: Option<MigrationController>,
    in_flight_set: HashSet<VertexId>,
    cost_model: CostModel,
    fault_plan: FaultPlan,
    superstep: usize,
    total_sim_time: f64,
}

struct WorkerOutput<M> {
    outboxes: Vec<Vec<(VertexId, M)>>,
    counters: WorkerCounters,
    decided: Vec<InFlight>,
}

/// What every worker reads, and none writes, during one superstep.
struct SuperstepView<'a, P> {
    program: &'a P,
    graph: &'a DynGraph,
    routing: &'a Partitioning,
    in_flight: &'a HashSet<VertexId>,
    controller: Option<&'a MigrationController>,
    caps: &'a CapacityModel,
    superstep: usize,
}

impl<P: VertexProgram> Engine<P> {
    /// Executes one superstep and reports what happened.
    pub fn superstep(&mut self) -> SuperstepReport {
        let t = self.superstep;
        let k = self.workers.len();

        // Scheduled worker crashes: in-memory values and undelivered
        // messages are lost; the victim restarts from zeroed state.
        let crashes: Vec<WorkerId> = self.fault_plan.crashes_at(t).map(|e| e.worker).collect();
        for w in crashes {
            for state in self.workers[w as usize].vertices.values_mut() {
                *state = VertexState::default();
            }
            self.inboxes[w as usize].clear();
        }

        // Adaptive prep: predicted capacities for this superstep's quotas —
        // physical loads plus in-flight deltas, i.e. the paper's
        // C^{t+1}(i) = C^t(i) - V_out + V_in.
        let caps = self.capacities();
        let physical: Vec<usize> = self.workers.iter().map(|w| w.len()).collect();
        if let Some(ctrl) = &mut self.controller {
            ctrl.refresh_predictions(&physical);
        }

        let inboxes: Vec<Vec<(VertexId, P::Message)>> =
            self.inboxes.iter_mut().map(std::mem::take).collect();
        let view = SuperstepView {
            program: &self.program,
            graph: &self.graph,
            routing: &self.routing,
            in_flight: &self.in_flight_set,
            controller: self.controller.as_ref(),
            caps: &caps,
            superstep: t,
        };

        // Worker fan-out over the shared execution layer: one scoped thread
        // per worker, outputs returned in worker order (same primitive the
        // logical-level partitioner shards its decision sweep with, so the
        // two realisations cannot drift).
        let items: Vec<_> = self.workers.iter_mut().zip(inboxes).collect();
        let outputs: Vec<WorkerOutput<P::Message>> =
            apg_exec::map_items(k, items, |w, (worker, inbox)| {
                run_worker(&view, w as WorkerId, worker, inbox)
            });

        // ---- merge phase (single-threaded, at the barrier) ----
        let mut counters_total = WorkerCounters::default();
        let mut per_worker_counters = Vec::with_capacity(k);
        let mut decided_all: Vec<InFlight> = Vec::new();
        for out in &outputs {
            counters_total.merge(&out.counters);
            per_worker_counters.push(out.counters);
            decided_all.extend_from_slice(&out.decided);
        }
        // Route new messages (worker-order concatenation keeps it
        // deterministic).
        for out in outputs {
            for (dest, msgs) in out.outboxes.into_iter().enumerate() {
                self.inboxes[dest].extend(msgs);
            }
        }

        // Publish this superstep's decisions (routing changes now), move
        // last superstep's batch (states follow one superstep later).
        let migrations_started = decided_all.len() as u64;
        let mut mig_traffic = vec![0u64; k];
        let moved = if let Some(ctrl) = &mut self.controller {
            for m in &decided_all {
                self.routing.move_vertex(m.vertex, m.to);
            }
            ctrl.publish(decided_all.clone())
        } else {
            Vec::new()
        };
        let mut migrations_completed = 0u64;
        for m in &moved {
            self.in_flight_set.remove(&m.vertex);
            if let Some(state) = self.workers[m.from as usize].vertices.remove(&m.vertex) {
                self.workers[m.to as usize].vertices.insert(m.vertex, state);
                self.state_at[m.vertex as usize] = m.to;
                mig_traffic[m.from as usize] += 1;
                mig_traffic[m.to as usize] += 1;
                migrations_completed += 1;
            }
        }
        for m in &decided_all {
            self.in_flight_set.insert(m.vertex);
        }

        // Simulated time: barrier = slowest worker, plus fault penalties.
        let worker_times: Vec<f64> = per_worker_counters
            .iter()
            .enumerate()
            .map(|(w, c)| self.cost_model.worker_time(c, mig_traffic[w]))
            .collect();
        let worker_max = worker_times.iter().copied().fold(0.0f64, f64::max);
        let sim_time =
            self.cost_model.superstep_overhead + worker_max + self.fault_plan.penalty_at(t);
        self.total_sim_time += sim_time;

        self.superstep += 1;
        SuperstepReport {
            superstep: t,
            active_vertices: counters_total.active_vertices,
            compute_units: counters_total.compute_units,
            messages_local: counters_total.messages_local,
            messages_remote: counters_total.messages_remote,
            messages_dropped: counters_total.messages_dropped,
            migrations_started,
            migrations_completed,
            live_vertices: self.graph.num_live_vertices(),
            num_edges: self.graph.num_edges(),
            partition_sizes: self.routing.sizes().to_vec(),
            worker_times,
            sim_time,
        }
    }

    /// Runs exactly `n` supersteps.
    pub fn run(&mut self, n: usize) -> Vec<SuperstepReport> {
        (0..n).map(|_| self.superstep()).collect()
    }

    /// Runs until every vertex has halted and no messages are pending, or
    /// `max` supersteps have executed — the classic Pregel termination.
    pub fn run_until_halt(&mut self, max: usize) -> Vec<SuperstepReport> {
        let mut reports = Vec::new();
        for _ in 0..max {
            let r = self.superstep();
            let quiesced = r.active_vertices == 0;
            reports.push(r);
            if quiesced {
                break;
            }
        }
        reports
    }

    /// Applies an [`UpdateBatch`] at the superstep boundary — the one way
    /// topology changes, sharing the literal application loop
    /// ([`UpdateBatch::apply_to`]) with the logical-level
    /// `AdaptivePartitioner::apply_batch` and bare-graph
    /// [`UpdateBatch::apply`]. Returns the ids assigned to the batch's new
    /// vertices.
    ///
    /// Deltas apply in scheduled order; edges to endpoints that do not
    /// exist (or died earlier in this batch) are skipped.
    pub fn apply_batch(&mut self, batch: &UpdateBatch) -> Vec<VertexId> {
        batch.apply_to(self).new_vertices
    }

    // ---- observers -----------------------------------------------------

    /// Number of workers (= partitions).
    pub fn num_workers(&self) -> WorkerId {
        self.workers.len() as WorkerId
    }

    /// Supersteps executed so far.
    pub fn superstep_index(&self) -> usize {
        self.superstep
    }

    /// The topology every worker computes over.
    pub fn graph(&self) -> &DynGraph {
        &self.graph
    }

    /// Live vertices.
    pub fn num_live_vertices(&self) -> usize {
        self.graph.num_live_vertices()
    }

    /// Total vertex-id slots ever allocated (live + tombstoned); ids are
    /// `0..num_total_slots()`.
    pub fn num_total_slots(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Re-activates every vertex. Used by round-based workloads (like the
    /// paper's clique computation) that rerun over the mutated graph after
    /// the previous round has halted.
    pub fn wake_all(&mut self) {
        for worker in &mut self.workers {
            for state in worker.vertices.values_mut() {
                state.halted = false;
            }
        }
    }

    /// Undirected edges.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Total simulated time so far.
    pub fn total_sim_time(&self) -> f64 {
        self.total_sim_time
    }

    /// Current value of a vertex, if it exists.
    pub fn vertex_value(&self, v: VertexId) -> Option<&P::Value> {
        let w = *self.state_at.get(v as usize)?;
        self.workers[w as usize].vertices.get(&v).map(|s| &s.value)
    }

    /// The logical partition assignment (the routing table). Sizes count
    /// live vertices; a removed vertex's entry is stale.
    pub fn partitioning(&self) -> &Partitioning {
        &self.routing
    }

    /// Counts edges whose endpoints live on different workers (by the
    /// routing table, i.e. the logical partitioning).
    pub fn cut_edges(&self) -> usize {
        apg_partition::cut_edges(&self.graph, &self.routing)
    }

    /// Current cut ratio.
    pub fn cut_ratio(&self) -> f64 {
        apg_partition::cut_ratio(&self.graph, &self.routing)
    }

    /// Audits internal invariants: every live vertex is hosted by exactly
    /// the worker `state_at` names, the routing table's sizes count the
    /// live vertices, and the graph passes its own [`DynGraph::audit`].
    ///
    /// # Panics
    ///
    /// Panics when an invariant is violated.
    pub fn audit(&self) {
        let mut hosted = 0usize;
        for (w, worker) in self.workers.iter().enumerate() {
            for &v in worker.vertices.keys() {
                assert!(self.graph.is_vertex(v), "hosted vertex {v} is dead");
                assert_eq!(
                    self.state_at[v as usize] as usize, w,
                    "state_at drifted for {v}"
                );
                hosted += 1;
            }
        }
        assert_eq!(hosted, self.num_live_vertices(), "live vertex unhosted");
        let mut recount = self.routing.clone();
        recount.recount_live(&self.graph);
        assert_eq!(recount, self.routing, "logical sizes drifted");
        self.graph.audit();
    }

    // ---- internals -------------------------------------------------------

    fn adaptive_config(&self) -> Option<&AdaptiveConfig> {
        self.controller.as_ref().map(|c| c.config())
    }

    fn capacities(&self) -> CapacityModel {
        CapacityModel::vertex_balanced(
            self.num_live_vertices().max(1),
            self.workers.len() as PartitionId,
            self.adaptive_config()
                .map_or(DEFAULT_CAPACITY_FACTOR, |c| c.capacity_factor),
        )
    }

    /// A topology change touched `v`: it owes a computation.
    fn wake(&mut self, v: VertexId) {
        let w = self.state_at[v as usize] as usize;
        let state = self.workers[w].vertices.get_mut(&v);
        state.expect("live vertex is hosted").halted = false;
    }
}

/// The engine as a delta target: [`UpdateBatch::apply_to`]'s single shared
/// application loop drives these hooks, and each is the graph's own
/// operation followed by waking the endpoints on their hosting workers —
/// so the engine's mutation semantics are a bare graph's by construction.
/// A new vertex is placed by [`place_new_vertex`] against the routing
/// table's live vertex counts at the moment of insertion — the units the
/// engine's capacities count in.
impl<P: VertexProgram> DeltaTarget for Engine<P> {
    fn delta_warm(&self, v: VertexId) {
        self.graph.delta_warm(v);
    }

    fn delta_add_vertex(&mut self) -> VertexId {
        let caps = self.capacities();
        let v = self.graph.add_vertex();
        let w = place_new_vertex(v, self.routing.sizes(), |p| caps.capacity(p));
        self.routing.grow_to(v as usize + 1, w);
        self.state_at.push(w);
        self.workers[w as usize]
            .vertices
            .insert(v, VertexState::default());
        v
    }

    fn delta_add_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        let added = self.graph.add_edge(u, v);
        if added {
            self.wake(u);
            self.wake(v);
        }
        added
    }

    fn delta_remove_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        let removed = self.graph.remove_edge(u, v);
        if removed {
            self.wake(u);
            self.wake(v);
        }
        removed
    }

    fn delta_remove_vertex(&mut self, v: VertexId) -> Option<usize> {
        if !self.graph.is_vertex(v) {
            return None;
        }
        let degree = self.graph.degree(v);
        for i in 0..degree {
            self.wake(self.graph.neighbors(v)[i]);
        }
        self.graph.remove_vertex(v);
        self.routing.forget_vertex(v);
        let w = self.state_at[v as usize] as usize;
        self.workers[w].vertices.remove(&v);
        self.in_flight_set.remove(&v);
        if let Some(ctrl) = &mut self.controller {
            ctrl.forget(v);
        }
        Some(degree)
    }
}

fn run_worker<P: VertexProgram>(
    view: &SuperstepView<'_, P>,
    worker_id: WorkerId,
    worker: &mut WorkerState<P::Value>,
    mut inbox: Vec<(VertexId, P::Message)>,
) -> WorkerOutput<P::Message> {
    let program = view.program;
    let k = view.routing.num_partitions() as usize;
    inbox.sort_by_key(|&(v, _)| v);
    let (ids, msgs): (Vec<VertexId>, Vec<P::Message>) = inbox.into_iter().unzip();

    let mut outboxes: Vec<Vec<(VertexId, P::Message)>> = (0..k).map(|_| Vec::new()).collect();
    let mut counters = WorkerCounters::default();

    let mut cursor = 0usize;
    for (&v, state) in worker.vertices.iter_mut() {
        while cursor < ids.len() && ids[cursor] < v {
            cursor += 1;
            counters.messages_dropped += 1;
        }
        let start = cursor;
        while cursor < ids.len() && ids[cursor] == v {
            cursor += 1;
        }
        let vertex_msgs = &msgs[start..cursor];
        if state.halted && vertex_msgs.is_empty() {
            continue;
        }
        state.halted = false;
        counters.active_vertices += 1;
        counters.compute_units += 1;
        let mut ctx = Context {
            vertex: v,
            superstep: view.superstep,
            home: worker_id,
            value: &mut state.value,
            halted: &mut state.halted,
            outboxes: &mut outboxes,
            graph: view.graph,
            routing: view.routing,
            counters: &mut counters,
        };
        program.compute(&mut ctx, vertex_msgs);
    }
    counters.messages_dropped += (ids.len() - cursor) as u64;

    // Background partitioning pass (the Partitioning API of Figure 2).
    let mut decided = Vec::new();
    if let Some(ctrl) = view.controller {
        let mut kernel = ctrl.kernel();
        let mut quota = ctrl.quotas(view.caps);
        let mut rng = ctrl.worker_rng(worker_id, view.superstep);
        for &v in worker.vertices.keys() {
            if view.in_flight.contains(&v) {
                continue; // already migrating (Figure 3's dashed state)
            }
            let neighbors = view.graph.neighbors(v);
            let neighbor_parts = neighbors.iter().map(|&w| view.routing.partition_of(w));
            if let Some(to) =
                ctrl.evaluate_vertex(&mut kernel, &mut quota, &mut rng, worker_id, neighbor_parts)
            {
                decided.push(InFlight {
                    vertex: v,
                    from: worker_id,
                    to,
                });
            }
        }
    }

    // Sender-side combining (Pregel combiners): merge messages bound for
    // the same vertex before they cross the wire, and refund their cost.
    if program.has_combiner() {
        for (dest, outbox) in outboxes.iter_mut().enumerate() {
            let before = outbox.len();
            if before < 2 {
                continue;
            }
            outbox.sort_by_key(|&(v, _)| v);
            let mut combined: Vec<(VertexId, P::Message)> = Vec::with_capacity(before);
            for (v, m) in outbox.drain(..) {
                let merged = match combined.last_mut() {
                    Some((lv, lm)) if *lv == v => program.combine(lm, &m).map(|new| *lm = new),
                    _ => None,
                };
                if merged.is_none() {
                    combined.push((v, m));
                }
            }
            let removed = (before - combined.len()) as u64;
            if dest == worker_id as usize {
                counters.messages_local -= removed;
            } else {
                counters.messages_remote -= removed;
            }
            *outbox = combined;
        }
    }

    WorkerOutput {
        outboxes,
        counters,
        decided,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apg_graph::gen;

    /// Every superstep each vertex sends one token to every neighbour and
    /// checks it received exactly `degree` tokens — any lost or duplicated
    /// message under migration churn trips the assertion (Figure 3's
    /// correctness property).
    struct TokenConservation;
    impl VertexProgram for TokenConservation {
        type Value = u64;
        type Message = u8;
        fn compute(&self, ctx: &mut Context<'_, '_, u64, u8>, messages: &[u8]) {
            if ctx.superstep() > 0 {
                assert_eq!(
                    messages.len(),
                    ctx.degree(),
                    "vertex {} lost messages at superstep {}",
                    ctx.id(),
                    ctx.superstep()
                );
                *ctx.value_mut() += messages.len() as u64;
            }
            ctx.send_to_neighbors(1);
        }
    }

    /// Sends one token to every neighbour each superstep and accumulates
    /// what it receives — no assertions, usable when topology changes or
    /// crashes legitimately alter delivery counts.
    struct Gossip;
    impl VertexProgram for Gossip {
        type Value = u64;
        type Message = u8;
        fn compute(&self, ctx: &mut Context<'_, '_, u64, u8>, messages: &[u8]) {
            *ctx.value_mut() += messages.len() as u64;
            ctx.send_to_neighbors(1);
        }
    }

    /// One round of degree counting, then halt.
    struct DegreeOnce;
    impl VertexProgram for DegreeOnce {
        type Value = u32;
        type Message = ();
        fn compute(&self, ctx: &mut Context<'_, '_, u32, ()>, messages: &[()]) {
            if ctx.superstep() == 0 {
                ctx.send_to_neighbors(());
            } else {
                *ctx.value_mut() = messages.len() as u32;
                ctx.vote_to_halt();
            }
        }
    }

    fn adaptive_cfg(k: WorkerId) -> AdaptiveConfig {
        AdaptiveConfig::builder(k).willingness(1.0).build().unwrap()
    }

    #[test]
    fn messages_survive_heavy_migration_churn() {
        let g = gen::mesh3d(6, 6, 6);
        let mut e = EngineBuilder::new(4)
            .seed(3)
            .adaptive(adaptive_cfg(4))
            .build(&g, TokenConservation);
        let reports = e.run(20);
        let migrated: u64 = reports.iter().map(|r| r.migrations_completed).sum();
        assert!(
            migrated > 50,
            "test needs churn, only {migrated} migrations"
        );
        e.audit();
    }

    #[test]
    fn degree_count_halts_and_is_correct() {
        let g = gen::mesh3d(4, 4, 4);
        let mut e = EngineBuilder::new(4).build(&g, DegreeOnce);
        let reports = e.run_until_halt(10);
        assert!(reports.len() <= 3, "should halt after 2-3 supersteps");
        assert_eq!(e.vertex_value(0), Some(&3)); // corner

        // Centre vertex of a 4^3 mesh has full degree 6.
        let centre = (4 + 1) * 4 + 1;
        assert_eq!(e.vertex_value(centre), Some(&6));
    }

    #[test]
    fn adaptive_partitioning_reduces_cut() {
        let g = gen::mesh3d(8, 8, 8);
        let mut e = EngineBuilder::new(8)
            .seed(5)
            .adaptive(AdaptiveConfig::builder(8).build().unwrap())
            .build(&g, TokenConservation);
        e.superstep();
        let initial_cut = e.cut_edges();
        e.run(60);
        let final_cut = e.cut_edges();
        assert!(
            (final_cut as f64) < 0.6 * initial_cut as f64,
            "cut only went {initial_cut} -> {final_cut}"
        );
        e.audit();
    }

    #[test]
    fn migration_preserves_vertex_values() {
        let g = gen::mesh3d(5, 5, 5);
        let mut e = EngineBuilder::new(5)
            .seed(7)
            .adaptive(adaptive_cfg(5))
            .build(&g, TokenConservation);
        e.run(10);
        // Values accumulate degree per superstep (starting at superstep 1),
        // so after 10 supersteps each vertex holds 9 * degree, proving no
        // state was lost while its owner changed.
        for v in 0..125u32 {
            let degree = e.graph().degree(v) as u64;
            assert_eq!(e.vertex_value(v), Some(&(9 * degree)), "vertex {v}");
        }
    }

    #[test]
    fn capacities_never_exceeded_logically() {
        let g = gen::mesh3d(6, 6, 6);
        let mut e = EngineBuilder::new(4)
            .seed(11)
            .adaptive(adaptive_cfg(4))
            .build(&g, TokenConservation);
        for _ in 0..25 {
            let r = e.superstep();
            let caps = e.capacities();
            for (w, &size) in r.partition_sizes.iter().enumerate() {
                assert!(
                    size <= caps.capacity(w as u16),
                    "worker {w} over capacity: {size}"
                );
            }
        }
    }

    #[test]
    fn mutations_apply_and_audit() {
        let g = gen::mesh3d(4, 4, 4);
        let mut e = EngineBuilder::new(4)
            .seed(2)
            .adaptive(adaptive_cfg(4))
            .build(&g, Gossip);
        e.run(5);
        let mut batch = UpdateBatch::new();
        let a = batch.add_vertex(vec![0, 1, 2]);
        let b = batch.add_vertex(vec![5]);
        batch.connect_new(a, b);
        batch.add_edge(10, 20);
        batch.remove_edge(0, 1);
        batch.remove_vertex(30);
        let before_live = e.num_live_vertices();
        let new_ids = e.apply_batch(&batch);
        assert_eq!(new_ids.len(), 2);
        assert_eq!(e.num_live_vertices(), before_live + 2 - 1);
        e.audit();
        e.run(5);
        e.audit();
    }

    #[test]
    fn removing_vertex_mid_flight_is_safe() {
        let g = gen::mesh3d(4, 4, 4);
        let mut e = EngineBuilder::new(4)
            .seed(13)
            .adaptive(adaptive_cfg(4))
            .build(&g, Gossip);
        e.superstep();
        // Remove whatever is currently in flight.
        let flying: Vec<VertexId> = e.in_flight_set.iter().copied().collect();
        assert!(!flying.is_empty(), "need in-flight vertices for this test");
        let mut batch = UpdateBatch::new();
        for v in flying.iter().take(3) {
            batch.remove_vertex(*v);
        }
        e.apply_batch(&batch);
        e.run(3);
        e.audit();
    }

    #[test]
    fn partitioning_counts_only_live_vertices() {
        let g = gen::mesh3d(4, 4, 4);
        let mut e = EngineBuilder::new(4)
            .seed(13)
            .adaptive(adaptive_cfg(4))
            .build(&g, Gossip);
        e.superstep();
        // Two vertices in flight and three settled ones: wherever it was
        // routed, a tombstone must not be counted anywhere.
        let mut doomed: Vec<VertexId> = e.in_flight_set.iter().copied().take(2).collect();
        assert_eq!(doomed.len(), 2, "need in-flight vertices for this test");
        let settled = (0..64).filter(|v| !e.in_flight_set.contains(v));
        doomed.extend(settled.take(3));
        let mut batch = UpdateBatch::new();
        for &v in &doomed {
            batch.remove_vertex(v);
        }
        e.apply_batch(&batch);
        let report = e.superstep();
        assert_eq!(e.num_live_vertices(), 64 - 5);
        assert_eq!(e.partitioning().sizes(), report.partition_sizes);
        assert_eq!(e.partitioning().sizes().iter().sum::<usize>(), 59);
        e.audit();
    }

    #[test]
    fn tombstoned_neighbours_are_ignored() {
        // Vertex 1's only neighbour sits on the other worker, then dies:
        // isolated, 1 has nothing to follow and stays where it is.
        let mut g = DynGraph::with_vertices(2);
        g.add_edge(0, 1);
        let mut routing = Partitioning::new(2, 2);
        routing.assign_all(&[0, 1]);
        let mut e = EngineBuilder::new(2)
            .adaptive(adaptive_cfg(2))
            .build_with_partitioning(&g, Gossip, &routing);
        let mut batch = UpdateBatch::new();
        batch.remove_vertex(0);
        e.apply_batch(&batch);
        let reports = e.run(4);
        assert!(reports.iter().all(|r| r.migrations_started == 0));
        assert_eq!(e.partitioning().partition_of(1), 1);
        e.audit();
    }

    #[test]
    fn cut_ratio_handles_empty() {
        let e = EngineBuilder::new(2).build(&DynGraph::with_vertices(4), Gossip);
        assert_eq!(e.cut_edges(), 0);
        assert_eq!(e.cut_ratio(), 0.0);
    }

    #[test]
    fn fault_injection_resets_values_and_costs_time() {
        let g = gen::mesh3d(4, 4, 4);
        let plan = FaultPlan::crash(3, 0);
        let mut baseline = EngineBuilder::new(2).seed(1).build(&g, Gossip);
        let mut faulty = EngineBuilder::new(2)
            .seed(1)
            .fault_plan(plan)
            .build(&g, Gossip);
        let base_reports = baseline.run(6);
        let fault_reports = faulty.run(6);
        assert!(
            fault_reports[3].sim_time > base_reports[3].sim_time + 1000.0,
            "crash superstep must show the recovery penalty"
        );
        // The crashed worker's values restarted: some vertex accumulated
        // less than the fault-free run.
        let lossy = (0..64u32).any(|v| faulty.vertex_value(v) < baseline.vertex_value(v));
        assert!(lossy, "crash should have reset some values");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = gen::mesh3d(5, 5, 5);
        let run = |seed: u64| {
            let mut e = EngineBuilder::new(4)
                .seed(seed)
                .adaptive(adaptive_cfg(4))
                .build(&g, TokenConservation);
            let reports = e.run(12);
            (
                reports
                    .iter()
                    .map(|r| r.migrations_completed)
                    .collect::<Vec<_>>(),
                e.cut_edges(),
            )
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn no_adaptive_means_no_migrations() {
        let g = gen::mesh3d(4, 4, 4);
        let mut e = EngineBuilder::new(4).seed(1).build(&g, TokenConservation);
        let reports = e.run(5);
        assert!(reports.iter().all(|r| r.migrations_started == 0));
    }
}

#[cfg(test)]
mod crash_tests {
    use super::*;
    use apg_graph::gen;

    struct Accumulate;
    impl VertexProgram for Accumulate {
        type Value = u64;
        type Message = u8;
        fn compute(&self, ctx: &mut Context<'_, '_, u64, u8>, messages: &[u8]) {
            *ctx.value_mut() += 1 + messages.len() as u64;
            ctx.send_to_neighbors(1);
        }
    }

    #[test]
    fn unaffected_workers_keep_state_through_crash() {
        let g = gen::mesh3d(4, 4, 4);
        let mut healthy = EngineBuilder::new(2).seed(2).build(&g, Accumulate);
        let mut faulty = EngineBuilder::new(2)
            .seed(2)
            .fault_plan(FaultPlan::crash(5, 1))
            .build(&g, Accumulate);
        healthy.run(10);
        faulty.run(10);
        // Vertices on worker 0 (not crashed) accumulate identically up to
        // message noise from the crashed side; at minimum they must retain
        // strictly more than a from-scratch run of 5 supersteps would.
        let p = faulty.partitioning();
        let on_w0: Vec<u32> = (0..64u32).filter(|&v| p.partition_of(v) == 0).collect();
        assert!(!on_w0.is_empty());
        for v in on_w0 {
            assert!(
                *faulty.vertex_value(v).unwrap() > 5,
                "vertex {v} on surviving worker lost state"
            );
        }
    }
}
