//! The BSP engine: superstep orchestration, message routing, deferred
//! migration and mutation application.

use std::collections::HashSet;

use apg_core::AdaptiveConfig;
use apg_graph::delta::DeltaTarget;
use apg_graph::{Graph, UpdateBatch, VertexId};
use apg_partition::{
    initial::hash_vertex, CapacityModel, InitialStrategy, PartitionId, Partitioning,
};

use crate::cost::{CostModel, SuperstepReport};
use crate::fault::FaultPlan;
use crate::migrate::{InFlight, MigrationController};
use crate::mutation::MutationBatch;
use crate::program::{Aggregates, Context, VertexProgram};
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
    cut_every: usize,
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
            cut_every: 1,
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

    /// Enables the background adaptive partitioning algorithm.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.num_partitions` differs from the engine's worker count.
    pub fn adaptive(mut self, cfg: AdaptiveConfig) -> Self {
        assert_eq!(cfg.num_partitions, self.k, "partitions must equal workers");
        self.adaptive = Some(cfg);
        self
    }

    /// Computes cut edges every `n` supersteps (0 = never, 1 = always;
    /// default 1). Cut tracking costs `O(|E|)` per measured superstep.
    pub fn cut_every(mut self, n: usize) -> Self {
        self.cut_every = n;
        self
    }

    /// Builds an engine over `graph` running `program`, partitioned by the
    /// configured initial strategy.
    pub fn build<G: Graph, P: VertexProgram>(self, graph: &G, program: P) -> Engine<P> {
        let caps = CapacityModel::vertex_balanced(graph.num_live_vertices(), self.k, 1.10);
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
        let mut workers: Vec<WorkerState<P::Value>> = (0..k).map(|_| WorkerState::new()).collect();
        let mut locations = vec![WorkerId::MAX; graph.num_vertices()];
        let mut logical_sizes = vec![0usize; k];
        for v in graph.vertices() {
            let w = partitioning.partition_of(v);
            locations[v as usize] = w;
            logical_sizes[w as usize] += 1;
            workers[w as usize]
                .vertices
                .insert(v, VertexState::new(graph.neighbors(v).to_vec()));
        }
        let controller = self
            .adaptive
            .map(|cfg| MigrationController::new(cfg, self.seed ^ 0xADA0_0517));
        Engine {
            program,
            workers,
            locations: locations.clone(),
            state_at: locations,
            logical_sizes,
            inboxes: (0..k).map(|_| Vec::new()).collect(),
            controller,
            in_flight_set: HashSet::new(),
            cost_model: self.cost_model,
            fault_plan: self.fault_plan,
            agg: Aggregates::new(),
            superstep: 0,
            num_edges: graph.num_edges(),
            num_live: graph.num_live_vertices(),
            cut_every: self.cut_every,
            total_sim_time: 0.0,
        }
    }
}

/// The Pregel-like engine. See the crate docs for the model.
pub struct Engine<P: VertexProgram> {
    program: P,
    workers: Vec<WorkerState<P::Value>>,
    /// Routing table: vertex -> logical worker (updated at decision time).
    locations: Vec<WorkerId>,
    /// Physical table: vertex -> worker holding its state (lags `locations`
    /// by one superstep for in-flight vertices).
    state_at: Vec<WorkerId>,
    /// Logical partition sizes (follow `locations`).
    logical_sizes: Vec<usize>,
    /// Messages awaiting delivery at the next superstep, per worker.
    inboxes: Vec<Vec<(VertexId, P::Message)>>,
    controller: Option<MigrationController>,
    in_flight_set: HashSet<VertexId>,
    cost_model: CostModel,
    fault_plan: FaultPlan,
    agg: Aggregates,
    superstep: usize,
    num_edges: usize,
    num_live: usize,
    cut_every: usize,
    total_sim_time: f64,
}

struct WorkerOutput<M> {
    outboxes: Vec<Vec<(VertexId, M)>>,
    counters: WorkerCounters,
    agg: Aggregates,
    decided: Vec<InFlight>,
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
                state.value = Default::default();
                state.halted = false;
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

        let program = &self.program;
        let locations = &self.locations;
        let in_flight = &self.in_flight_set;
        let agg_prev = &self.agg;
        let controller = self.controller.as_ref();
        let num_live = self.num_live;
        let caps_ref = &caps;

        // Worker fan-out over the shared execution layer: one scoped thread
        // per worker, outputs returned in worker order (same primitive the
        // logical-level partitioner shards its decision sweep with, so the
        // two realisations cannot drift).
        let items: Vec<_> = self.workers.iter_mut().zip(inboxes).collect();
        let outputs: Vec<WorkerOutput<P::Message>> =
            apg_exec::map_items(k, items, |w, (worker, inbox)| {
                run_worker(
                    program,
                    w as WorkerId,
                    worker,
                    inbox,
                    locations,
                    in_flight,
                    controller,
                    caps_ref,
                    agg_prev,
                    t,
                    num_live,
                    k,
                )
            });

        // ---- merge phase (single-threaded, at the barrier) ----
        let mut counters_total = WorkerCounters::default();
        let mut per_worker_counters = Vec::with_capacity(k);
        let mut agg_next = Aggregates::new();
        let mut decided_all: Vec<InFlight> = Vec::new();
        for out in &outputs {
            counters_total.merge(&out.counters);
            per_worker_counters.push(out.counters);
            agg_next.merge(&out.agg);
            decided_all.extend_from_slice(&out.decided);
        }
        // Route new messages (worker-order concatenation keeps it
        // deterministic).
        for out in outputs {
            for (dest, msgs) in out.outboxes.into_iter().enumerate() {
                self.inboxes[dest].extend(msgs);
            }
        }
        self.agg = agg_next;

        // Publish this superstep's decisions (routing changes now), move
        // last superstep's batch (states follow one superstep later).
        let migrations_started = decided_all.len() as u64;
        let mut mig_traffic = vec![0u64; k];
        let moved = if let Some(ctrl) = &mut self.controller {
            for m in &decided_all {
                self.locations[m.vertex as usize] = m.to;
                self.logical_sizes[m.from as usize] -= 1;
                self.logical_sizes[m.to as usize] += 1;
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

        let cut_edges = if self.cut_every > 0 && t.is_multiple_of(self.cut_every) {
            Some(self.cut_edges())
        } else {
            None
        };

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
            cut_edges,
            live_vertices: self.num_live,
            num_edges: self.num_edges,
            partition_sizes: self.logical_sizes.clone(),
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

    /// Applies a mutation batch at the superstep boundary; returns the ids
    /// assigned to the batch's new vertices.
    ///
    /// Delegates to [`Engine::apply_batch`] — the engine speaks the shared
    /// delta model directly.
    pub fn apply_mutations(&mut self, batch: MutationBatch) -> Vec<VertexId> {
        self.apply_batch(batch.as_update_batch())
    }

    /// Applies an [`UpdateBatch`] at the superstep boundary — the canonical
    /// ingestion path, sharing the literal application loop
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

    /// Live vertices.
    pub fn num_live_vertices(&self) -> usize {
        self.num_live
    }

    /// Total vertex-id slots ever allocated (live + tombstoned); ids are
    /// `0..num_total_slots()`.
    pub fn num_total_slots(&self) -> usize {
        self.locations.len()
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
        self.num_edges
    }

    /// Total simulated time so far.
    pub fn total_sim_time(&self) -> f64 {
        self.total_sim_time
    }

    /// Current value of a vertex, if it exists.
    pub fn vertex_value(&self, v: VertexId) -> Option<&P::Value> {
        let w = *self.state_at.get(v as usize)?;
        if w == WorkerId::MAX {
            return None;
        }
        self.workers[w as usize].vertices.get(&v).map(|s| &s.value)
    }

    /// The logical partition assignment as a [`Partitioning`].
    pub fn partitioning(&self) -> Partitioning {
        let k = self.workers.len() as PartitionId;
        let assignment: Vec<PartitionId> = self
            .locations
            .iter()
            .map(|&w| if w == WorkerId::MAX { 0 } else { w })
            .collect();
        Partitioning::from_assignment(assignment, k)
    }

    /// Counts edges whose endpoints live on different workers (by the
    /// routing table, i.e. the logical partitioning).
    pub fn cut_edges(&self) -> usize {
        let mut cut = 0usize;
        for worker in &self.workers {
            for (&v, state) in &worker.vertices {
                let lv = self.locations[v as usize];
                for &n in &state.neighbors {
                    if n > v && self.locations[n as usize] != lv {
                        cut += 1;
                    }
                }
            }
        }
        cut
    }

    /// Current cut ratio.
    pub fn cut_ratio(&self) -> f64 {
        if self.num_edges == 0 {
            0.0
        } else {
            self.cut_edges() as f64 / self.num_edges as f64
        }
    }

    /// Audits internal invariants (logical sizes, physical placement,
    /// adjacency symmetry, edge count).
    ///
    /// # Panics
    ///
    /// Panics when an invariant is violated.
    pub fn audit(&self) {
        let mut sizes = vec![0usize; self.workers.len()];
        let mut live = 0usize;
        let mut endpoint_count = 0usize;
        for (w, worker) in self.workers.iter().enumerate() {
            for (&v, state) in &worker.vertices {
                assert_eq!(
                    self.state_at[v as usize] as usize, w,
                    "state_at drifted for {v}"
                );
                let lv = self.locations[v as usize];
                assert_ne!(lv, WorkerId::MAX, "hosted vertex {v} marked dead");
                sizes[lv as usize] += 1;
                live += 1;
                endpoint_count += state.neighbors.len();
                for &n in &state.neighbors {
                    let nw = self.state_at[n as usize];
                    assert_ne!(nw, WorkerId::MAX, "edge to dead vertex {n}");
                    let nstate = self.workers[nw as usize]
                        .vertices
                        .get(&n)
                        .expect("neighbor state");
                    assert!(
                        nstate.neighbors.binary_search(&v).is_ok(),
                        "asymmetric edge {v} -> {n}"
                    );
                }
            }
        }
        assert_eq!(live, self.num_live, "live count drifted");
        assert_eq!(endpoint_count, 2 * self.num_edges, "edge count drifted");
        assert_eq!(sizes, self.logical_sizes, "logical sizes drifted");
    }

    // ---- internals -------------------------------------------------------

    fn capacities(&self) -> CapacityModel {
        let factor = self
            .controller
            .as_ref()
            .map(|c| c.config().capacity_factor)
            .unwrap_or(1.10);
        CapacityModel::vertex_balanced(
            self.num_live.max(1),
            self.workers.len() as PartitionId,
            factor,
        )
    }

    fn place_vertex(&self, v: VertexId, caps: &CapacityModel) -> WorkerId {
        let k = self.workers.len() as u64;
        let hashed = (hash_vertex(v) % k) as WorkerId;
        if caps.remaining(hashed, self.logical_sizes[hashed as usize]) > 0 {
            hashed
        } else {
            (0..self.workers.len() as WorkerId)
                .min_by_key(|&w| self.logical_sizes[w as usize])
                .expect("k >= 1")
        }
    }

    fn is_live(&self, v: VertexId) -> bool {
        self.locations
            .get(v as usize)
            .is_some_and(|&w| w != WorkerId::MAX)
    }

    // Why the `*_internal` routines do not reuse core's `add_edge` & co.:
    // adjacency here lives in per-worker `VertexState` maps beside each
    // vertex's value and halt flag (a mutation finds the hosting worker
    // and wakes the vertex), whereas core mutates one shared `DynGraph`
    // and maintains cut, degree mass and sweep/checkpoint marks the engine
    // does not have. What must not drift — which deltas are accepted and
    // how they are reported — is shared via `DeltaTarget`.
    fn add_edge_internal(&mut self, u: VertexId, v: VertexId) -> bool {
        if u == v || !self.is_live(u) || !self.is_live(v) {
            return false;
        }
        let wu = self.state_at[u as usize] as usize;
        {
            let su = self.workers[wu].vertices.get_mut(&u).expect("state for u");
            match su.neighbors.binary_search(&v) {
                Ok(_) => return false,
                Err(pos) => su.neighbors.insert(pos, v),
            }
            su.halted = false;
        }
        let wv = self.state_at[v as usize] as usize;
        let sv = self.workers[wv].vertices.get_mut(&v).expect("state for v");
        let pos = sv.neighbors.binary_search(&u).unwrap_err();
        sv.neighbors.insert(pos, u);
        sv.halted = false;
        self.num_edges += 1;
        true
    }

    fn remove_edge_internal(&mut self, u: VertexId, v: VertexId) -> bool {
        if u == v || !self.is_live(u) || !self.is_live(v) {
            return false;
        }
        let wu = self.state_at[u as usize] as usize;
        {
            let su = self.workers[wu].vertices.get_mut(&u).expect("state for u");
            match su.neighbors.binary_search(&v) {
                Ok(pos) => {
                    su.neighbors.remove(pos);
                }
                Err(_) => return false,
            }
            su.halted = false;
        }
        let wv = self.state_at[v as usize] as usize;
        let sv = self.workers[wv].vertices.get_mut(&v).expect("state for v");
        let pos = sv.neighbors.binary_search(&u).expect("asymmetric edge");
        sv.neighbors.remove(pos);
        sv.halted = false;
        self.num_edges -= 1;
        true
    }

    fn remove_vertex_internal(&mut self, v: VertexId) -> bool {
        if !self.is_live(v) {
            return false;
        }
        let w = self.state_at[v as usize] as usize;
        let state = self.workers[w].vertices.remove(&v).expect("state for v");
        for &n in &state.neighbors {
            let wn = self.state_at[n as usize] as usize;
            let sn = self.workers[wn]
                .vertices
                .get_mut(&n)
                .expect("neighbor state");
            if let Ok(pos) = sn.neighbors.binary_search(&v) {
                sn.neighbors.remove(pos);
            }
            sn.halted = false;
        }
        self.num_edges -= state.neighbors.len();
        let logical = self.locations[v as usize];
        self.logical_sizes[logical as usize] -= 1;
        self.locations[v as usize] = WorkerId::MAX;
        self.state_at[v as usize] = WorkerId::MAX;
        self.num_live -= 1;
        self.in_flight_set.remove(&v);
        if let Some(ctrl) = &mut self.controller {
            ctrl.forget(v);
        }
        true
    }
}

/// The engine as a delta target: [`UpdateBatch::apply_to`]'s single shared
/// application loop drives these hooks, so the engine's mutation semantics
/// cannot drift from a bare graph's or the logical-level partitioner's.
/// New vertices are placed by hash-with-capacity-fallback against the
/// engine's live population at the moment of insertion.
impl<P: VertexProgram> DeltaTarget for Engine<P> {
    fn delta_add_vertex(&mut self) -> VertexId {
        let caps = self.capacities();
        let v = self.locations.len() as VertexId;
        let w = self.place_vertex(v, &caps);
        self.locations.push(w);
        self.state_at.push(w);
        self.logical_sizes[w as usize] += 1;
        self.num_live += 1;
        self.workers[w as usize]
            .vertices
            .insert(v, VertexState::new(Vec::new()));
        v
    }

    fn delta_add_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        self.add_edge_internal(u, v)
    }

    fn delta_remove_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        self.remove_edge_internal(u, v)
    }

    fn delta_remove_vertex(&mut self, v: VertexId) -> Option<usize> {
        if !self.is_live(v) {
            return None;
        }
        let w = self.state_at[v as usize] as usize;
        let degree = self.workers[w].vertices[&v].neighbors.len();
        self.remove_vertex_internal(v);
        Some(degree)
    }
}

#[allow(clippy::too_many_arguments)]
fn run_worker<P: VertexProgram>(
    program: &P,
    worker_id: WorkerId,
    worker: &mut WorkerState<P::Value>,
    mut inbox: Vec<(VertexId, P::Message)>,
    locations: &[WorkerId],
    in_flight: &HashSet<VertexId>,
    controller: Option<&MigrationController>,
    caps: &CapacityModel,
    agg_prev: &Aggregates,
    superstep: usize,
    num_live: usize,
    k: usize,
) -> WorkerOutput<P::Message> {
    inbox.sort_by_key(|&(v, _)| v);
    let (ids, msgs): (Vec<VertexId>, Vec<P::Message>) = inbox.into_iter().unzip();

    let mut outboxes: Vec<Vec<(VertexId, P::Message)>> = (0..k).map(|_| Vec::new()).collect();
    let mut counters = WorkerCounters::default();
    let mut agg_next = Aggregates::new();

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
            superstep,
            home: worker_id,
            value: &mut state.value,
            neighbors: &state.neighbors,
            halted: &mut state.halted,
            outboxes: &mut outboxes,
            locations,
            counters: &mut counters,
            agg_prev,
            agg_next: &mut agg_next,
            num_vertices: num_live,
        };
        program.compute(&mut ctx, vertex_msgs);
    }
    counters.messages_dropped += (ids.len() - cursor) as u64;

    // Background partitioning pass (the Partitioning API of Figure 2).
    let mut decided = Vec::new();
    if let Some(ctrl) = controller {
        let mut kernel = ctrl.kernel();
        let mut quota = ctrl.quotas(caps);
        let mut rng = ctrl.worker_rng(worker_id, superstep);
        for (&v, state) in worker.vertices.iter() {
            if in_flight.contains(&v) {
                continue; // already migrating (Figure 3's dashed state)
            }
            if let Some(to) = ctrl.evaluate_vertex(
                &mut kernel,
                &mut quota,
                &mut rng,
                worker_id,
                state.neighbors.iter(),
                locations,
            ) {
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
        agg: agg_next,
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
        let first = e.superstep();
        let initial_cut = first.cut_edges.unwrap();
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
        let p = e.partitioning();
        let moved_vertices: Vec<VertexId> = (0..125u32)
            .filter(|&v| p.partition_of(v) != e.locations[v as usize].min(4))
            .collect();
        let _ = moved_vertices;
        for v in 0..125u32 {
            let degree = match e.vertex_value(v) {
                Some(_) => {
                    let w = e.state_at[v as usize] as usize;
                    e.workers[w].vertices[&v].neighbors.len() as u64
                }
                None => panic!("vertex {v} lost"),
            };
            assert_eq!(e.vertex_value(v), Some(&(9 * degree)));
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
        let mut batch = MutationBatch::new();
        let a = batch.add_vertex(vec![0, 1, 2]);
        let b = batch.add_vertex(vec![5]);
        batch.connect_new(a, b);
        batch.add_edge(10, 20);
        batch.remove_edge(0, 1);
        batch.remove_vertex(30);
        let before_live = e.num_live_vertices();
        let new_ids = e.apply_mutations(batch);
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
        let mut batch = MutationBatch::new();
        for v in flying.iter().take(3) {
            batch.remove_vertex(*v);
        }
        e.apply_mutations(batch);
        e.run(3);
        e.audit();
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
    fn aggregates_cross_supersteps() {
        struct CountActive;
        impl VertexProgram for CountActive {
            type Value = f64;
            type Message = ();
            fn compute(&self, ctx: &mut Context<'_, '_, f64, ()>, _messages: &[()]) {
                if ctx.superstep() == 1 {
                    // Every vertex contributed 1.0 at superstep 0.
                    *ctx.value_mut() = ctx.read_aggregate("active").unwrap_or(-1.0);
                    ctx.vote_to_halt();
                } else if ctx.superstep() == 0 {
                    ctx.aggregate("active", 1.0);
                    // Stay active by messaging self-neighbours.
                    ctx.send_to_neighbors(());
                }
            }
        }
        let g = gen::mesh3d(3, 3, 3);
        let mut e = EngineBuilder::new(3).build(&g, CountActive);
        e.run(2);
        assert_eq!(e.vertex_value(0), Some(&27.0));
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
