//! The vertex-program abstraction (the "Pregel API" layer of Figure 2).

use apg_graph::{DynGraph, Graph, VertexId};
use apg_partition::Partitioning;

use crate::worker::{WorkerCounters, WorkerId};

/// A user computation in the vertex-centric BSP model.
///
/// Implementations must be stateless (per-vertex state lives in
/// `Self::Value`); the same program instance is shared by every worker
/// thread.
pub trait VertexProgram: Send + Sync + 'static {
    /// Per-vertex state.
    type Value: Clone + Default + Send + 'static;
    /// Message type exchanged between vertices.
    type Message: Clone + Send + 'static;

    /// Called once per active vertex per superstep with the messages sent
    /// to it in the previous superstep.
    fn compute(
        &self,
        ctx: &mut Context<'_, '_, Self::Value, Self::Message>,
        messages: &[Self::Message],
    );

    /// Optional Pregel *combiner*: merges two messages bound for the same
    /// vertex at the sending worker, before they cross the network. Only
    /// valid for commutative, associative reductions where the receiver
    /// needs the combined value only (e.g. summing PageRank contributions).
    ///
    /// Return `None` (the default) to disable combining.
    fn combine(&self, _a: &Self::Message, _b: &Self::Message) -> Option<Self::Message> {
        None
    }

    /// Whether this program defines a combiner. The engine asks once per
    /// superstep; the default probes [`VertexProgram::combine`] lazily, so
    /// implementors only override `combine`.
    fn has_combiner(&self) -> bool {
        false
    }
}

/// Per-vertex view handed to [`VertexProgram::compute`].
///
/// The context routes messages through the engine's routing table, which is
/// how migrated vertices keep receiving their mail (paper §3): senders always
/// consult the freshest location published at the last superstep boundary.
/// Neighbours and liveness are read from the engine's graph.
pub struct Context<'a, 'b, V, M> {
    pub(crate) vertex: VertexId,
    pub(crate) superstep: usize,
    pub(crate) home: WorkerId,
    pub(crate) value: &'a mut V,
    pub(crate) halted: &'a mut bool,
    pub(crate) outboxes: &'a mut Vec<Vec<(VertexId, M)>>,
    pub(crate) graph: &'b DynGraph,
    pub(crate) routing: &'b Partitioning,
    pub(crate) counters: &'a mut WorkerCounters,
}

impl<V, M> Context<'_, '_, V, M> {
    /// Id of the vertex being computed.
    pub fn id(&self) -> VertexId {
        self.vertex
    }

    /// Current superstep (0-based).
    pub fn superstep(&self) -> usize {
        self.superstep
    }

    /// Number of live vertices in the whole graph at this superstep.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_live_vertices()
    }

    /// This vertex's neighbours (undirected adjacency), ascending.
    pub fn neighbors(&self) -> &[VertexId] {
        self.graph.neighbors(self.vertex)
    }

    /// Degree of this vertex.
    pub fn degree(&self) -> usize {
        self.graph.degree(self.vertex)
    }

    /// Immutable access to the vertex value.
    pub fn value(&self) -> &V {
        self.value
    }

    /// Mutable access to the vertex value.
    pub fn value_mut(&mut self) -> &mut V {
        self.value
    }

    /// Sends a message for delivery at the next superstep.
    ///
    /// Messages to removed vertices (whose routing entry is stale) and to
    /// ids never allocated are dropped and counted, matching Pregel
    /// semantics for dangling edges after mutations.
    pub fn send(&mut self, to: VertexId, msg: M) {
        if !self.graph.is_vertex(to) {
            self.counters.messages_dropped += 1;
            return;
        }
        let dest = self.routing.partition_of(to);
        if dest == self.home {
            self.counters.messages_local += 1;
        } else {
            self.counters.messages_remote += 1;
        }
        self.outboxes[dest as usize].push((to, msg));
    }

    /// Sends `msg` to every neighbour.
    pub fn send_to_neighbors(&mut self, msg: M)
    where
        M: Clone,
    {
        let graph = self.graph;
        for &w in graph.neighbors(self.vertex) {
            self.send(w, msg.clone());
        }
    }

    /// Halts this vertex; it stays dormant until a message re-activates it.
    pub fn vote_to_halt(&mut self) {
        *self.halted = true;
    }

    /// Charges extra compute cost to the cost model (beyond the default one
    /// unit per active vertex). The cardiac FEM kernel uses this to model
    /// its "more than 32 differential equations on one hundred variables".
    pub fn charge(&mut self, units: u64) {
        self.counters.compute_units += units;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_routes_and_counts() {
        let mut value = 0u32;
        let mut halted = false;
        let mut outboxes: Vec<Vec<(VertexId, u8)>> = vec![Vec::new(), Vec::new()];
        let mut graph = DynGraph::with_vertices(3);
        graph.add_edge(0, 1);
        graph.remove_vertex(2);
        let mut routing = Partitioning::new(3, 2);
        routing.assign_all(&[0, 1, 1]);
        let mut counters = WorkerCounters::default();
        {
            let mut ctx = Context {
                vertex: 0,
                superstep: 3,
                home: 0,
                value: &mut value,
                halted: &mut halted,
                outboxes: &mut outboxes,
                graph: &graph,
                routing: &routing,
                counters: &mut counters,
            };
            ctx.send(0, 1); // local
            ctx.send(1, 2); // remote
            ctx.send(2, 3); // tombstone with a stale label -> dropped
            ctx.send(3, 4); // never allocated -> dropped
            assert_eq!(ctx.neighbors(), &[1]);
            ctx.vote_to_halt();
        }
        assert_eq!(counters.messages_local, 1);
        assert_eq!(counters.messages_remote, 1);
        assert_eq!(counters.messages_dropped, 2);
        assert_eq!(outboxes[0], vec![(0, 1)]);
        assert_eq!(outboxes[1], vec![(1, 2)]);
        assert!(halted);
    }
}
