//! The single touch point between a partitioner mutation and its two
//! slot records.
//!
//! The decision sweep visits only *sweep-dirty* slots and an incremental
//! checkpoint re-encodes only *checkpoint-changed* ones, so both are
//! exactly as correct as the marking at every mutation site. The sites
//! therefore never see the bitmaps: they report the **fact** that occurred
//! and [`SlotMarks`] turns it into the right combination of marks —
//! "dirtied its own state but forgot the checkpoint record" cannot be
//! written.

use apg_exec::ActiveSet;
use apg_graph::{DynGraph, Graph};

/// Sweep-dirty and checkpoint-changed records over the vertex slot range.
#[derive(Debug, Clone)]
pub(crate) struct SlotMarks {
    /// Slots the next decision sweep must visit.
    sweep: ActiveSet,
    /// Slots whose own state (liveness, adjacency or label) mutated since
    /// the last [`SlotMarks::checkpointed`].
    changed: ActiveSet,
}

impl SlotMarks {
    /// The record for a fresh or restored partitioner: every live vertex
    /// owes the sweep an evaluation (exact — one the original had retired
    /// just decides *Stay* again), and with no checkpoint base to diff
    /// against yet every slot counts as changed.
    pub(crate) fn saturated(graph: &DynGraph) -> Self {
        let mut sweep = ActiveSet::with_default_shards(graph.num_vertices());
        for v in graph.vertices() {
            sweep.mark(v as usize);
        }
        let mut changed = ActiveSet::with_default_shards(graph.num_vertices());
        changed.mark_all();
        SlotMarks { sweep, changed }
    }

    /// `slot` is a newly inserted vertex (the slot range grows to cover
    /// it): it owes a first evaluation and no checkpoint base knows it.
    pub(crate) fn born(&mut self, slot: usize) {
        self.sweep.grow_to(slot + 1);
        self.changed.grow_to(slot + 1);
        self.mutated(slot);
    }

    /// `slot`'s own state changed — its label or its incident edges: its
    /// decision may differ and a checkpoint must re-encode it.
    #[inline]
    pub(crate) fn mutated(&mut self, slot: usize) {
        self.sweep.mark(slot);
        self.changed.mark(slot);
    }

    /// A neighbour of `slot` changed label: `slot`'s decision may differ,
    /// but nothing a checkpoint stores about `slot` itself moved.
    #[inline]
    pub(crate) fn neighbour_relabelled(&mut self, slot: usize) {
        self.sweep.mark(slot);
    }

    /// `slot` became a tombstone: a checkpoint change that leaves the sweep.
    pub(crate) fn tombstoned(&mut self, slot: usize) {
        self.sweep.clear(slot);
        self.changed.mark(slot);
    }

    /// The sweep evaluated `slot` to a stable *Stay*.
    #[inline]
    pub(crate) fn retire(&mut self, slot: usize) {
        self.sweep.clear(slot);
    }

    /// The current state just became (or was just restored from) the
    /// durable checkpoint base: nothing has changed relative to it.
    pub(crate) fn checkpointed(&mut self) {
        self.changed.clear_all();
    }

    /// Read-only view of the sweep-dirty set, for scheduling the sweep.
    pub(crate) fn sweep(&self) -> &ActiveSet {
        &self.sweep
    }

    /// The checkpoint-changed slots, ascending.
    pub(crate) fn changed_slots(&self) -> Vec<usize> {
        let mut slots = Vec::with_capacity(self.changed.num_active());
        slots.extend(self.changed.iter());
        slots
    }

    /// Audits both records against `graph`: exact internal counts, full
    /// slot coverage, and no tombstone awaiting a sweep.
    ///
    /// # Panics
    ///
    /// Panics when an invariant is violated.
    pub(crate) fn audit(&self, graph: &DynGraph) {
        for set in [&self.sweep, &self.changed] {
            set.audit();
            assert_eq!(
                set.len(),
                graph.num_vertices(),
                "slot marks do not cover the slot range"
            );
        }
        for slot in self.sweep.iter() {
            assert!(
                graph.is_vertex(slot as apg_graph::VertexId),
                "tombstone {slot} lingering in the active set"
            );
        }
    }
}
