//! Worker-local state: the application state of the vertices a worker
//! hosts, and its per-superstep traffic counters. Topology is not here —
//! the engine keeps one `DynGraph` for every worker to read.

use std::collections::BTreeMap;

use apg_graph::VertexId;

/// Identifier of a worker (= partition in this engine: one worker hosts one
/// partition, the usual Pregel deployment).
pub type WorkerId = u16;

/// A vertex's application state, owned by exactly one worker and transferred
/// wholesale when the vertex migrates. A fresh vertex holds the default
/// value and is awake.
#[derive(Debug, Clone, Default)]
pub struct VertexState<V> {
    /// Application value.
    pub value: V,
    /// Whether the vertex has voted to halt.
    pub halted: bool,
}

/// Traffic and compute counters for one worker in one superstep — the raw
/// inputs of the [`crate::CostModel`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerCounters {
    /// Vertices that executed `compute`.
    pub active_vertices: u64,
    /// Compute units consumed (1 per active vertex + explicit charges).
    pub compute_units: u64,
    /// Messages sent to vertices on the same worker.
    pub messages_local: u64,
    /// Messages sent to vertices on other workers.
    pub messages_remote: u64,
    /// Messages dropped because the target vertex is gone.
    pub messages_dropped: u64,
}

impl WorkerCounters {
    /// Sums another counter set into this one.
    pub fn merge(&mut self, other: &WorkerCounters) {
        self.active_vertices += other.active_vertices;
        self.compute_units += other.compute_units;
        self.messages_local += other.messages_local;
        self.messages_remote += other.messages_remote;
        self.messages_dropped += other.messages_dropped;
    }
}

/// The vertices hosted by one worker.
///
/// A `BTreeMap` keeps per-worker iteration order deterministic, which makes
/// whole-engine runs reproducible for a fixed seed regardless of thread
/// scheduling.
#[derive(Debug, Clone, Default)]
pub struct WorkerState<V> {
    /// Hosted vertices.
    pub vertices: BTreeMap<VertexId, VertexState<V>>,
}

impl<V> WorkerState<V> {
    /// Creates an empty worker.
    pub fn new() -> Self {
        WorkerState {
            vertices: BTreeMap::new(),
        }
    }

    /// Number of vertices hosted.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Whether this worker hosts no vertices.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_merge() {
        let mut a = WorkerCounters {
            active_vertices: 1,
            compute_units: 2,
            messages_local: 3,
            messages_remote: 4,
            messages_dropped: 5,
        };
        a.merge(&a.clone());
        assert_eq!(a.active_vertices, 2);
        assert_eq!(a.messages_dropped, 10);
    }

    #[test]
    fn vertex_state_defaults() {
        let s: VertexState<u32> = VertexState::default();
        assert_eq!(s.value, 0);
        assert!(!s.halted);
    }

    #[test]
    fn worker_state_len() {
        let mut w: WorkerState<u8> = WorkerState::new();
        assert!(w.is_empty());
        w.vertices.insert(3, VertexState::default());
        assert_eq!(w.len(), 1);
    }
}
