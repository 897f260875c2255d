//! The k-way partition assignment.

use serde::{Deserialize, Serialize};

use apg_graph::{Graph, VertexId};

/// Identifier of a partition, `0..k`.
///
/// `u16` supports up to 65 535 partitions — far beyond the paper's scale
/// (9–63) — while keeping the per-vertex assignment array dense.
pub type PartitionId = u16;

/// A `k`-way assignment of vertices to partitions.
///
/// Maintains the per-partition vertex counts incrementally so size lookups —
/// the input to the paper's capacity quotas — are O(1).
///
/// # Example
///
/// ```
/// use apg_partition::Partitioning;
///
/// let mut p = Partitioning::new(4, 3);
/// p.assign_all(&[0, 1, 2, 0]);
/// assert_eq!(p.size(0), 2);
/// p.move_vertex(3, 1);
/// assert_eq!(p.size(0), 1);
/// assert_eq!(p.size(1), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partitioning {
    assignment: Vec<PartitionId>,
    sizes: Vec<usize>,
}

impl Partitioning {
    /// Creates an assignment of `n` vertices, all initially in partition 0.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(n: usize, k: PartitionId) -> Self {
        assert!(k > 0, "need at least one partition");
        let mut sizes = vec![0usize; k as usize];
        sizes[0] = n;
        Partitioning {
            assignment: vec![0; n],
            sizes,
        }
    }

    /// Builds a partitioning from an explicit assignment vector.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or any entry is `>= k`.
    pub fn from_assignment(assignment: Vec<PartitionId>, k: PartitionId) -> Self {
        assert!(k > 0, "need at least one partition");
        let mut sizes = vec![0usize; k as usize];
        for &p in &assignment {
            assert!(p < k, "partition id {p} out of range for k={k}");
            sizes[p as usize] += 1;
        }
        Partitioning { assignment, sizes }
    }

    /// Number of partitions `k`.
    pub fn num_partitions(&self) -> PartitionId {
        self.sizes.len() as PartitionId
    }

    /// Number of vertex slots tracked.
    pub fn num_vertices(&self) -> usize {
        self.assignment.len()
    }

    /// Partition of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn partition_of(&self, v: VertexId) -> PartitionId {
        self.assignment[v as usize]
    }

    /// Current size of partition `p`.
    #[inline]
    pub fn size(&self, p: PartitionId) -> usize {
        self.sizes[p as usize]
    }

    /// All partition sizes, indexed by partition id.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Reassigns vertex `v` to partition `to`, updating counts.
    ///
    /// Returns the previous partition.
    ///
    /// # Panics
    ///
    /// Panics if `v` or `to` is out of range.
    pub fn move_vertex(&mut self, v: VertexId, to: PartitionId) -> PartitionId {
        assert!(
            (to as usize) < self.sizes.len(),
            "partition {to} out of range"
        );
        let from = self.assignment[v as usize];
        if from != to {
            self.sizes[from as usize] -= 1;
            self.sizes[to as usize] += 1;
            self.assignment[v as usize] = to;
        }
        from
    }

    /// Overwrites the whole assignment.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or any entry is out of range.
    pub fn assign_all(&mut self, assignment: &[PartitionId]) {
        assert_eq!(assignment.len(), self.assignment.len(), "length mismatch");
        let k = self.num_partitions();
        self.sizes.iter_mut().for_each(|s| *s = 0);
        for (slot, &p) in self.assignment.iter_mut().zip(assignment) {
            assert!(p < k, "partition id {p} out of range for k={k}");
            *slot = p;
            self.sizes[p as usize] += 1;
        }
    }

    /// Grows the assignment to cover `n` vertices, placing new slots in the
    /// given partition. Used when dynamic graphs add vertices.
    pub fn grow_to(&mut self, n: usize, p: PartitionId) {
        assert!(
            (p as usize) < self.sizes.len(),
            "partition {p} out of range"
        );
        if n > self.assignment.len() {
            self.sizes[p as usize] += n - self.assignment.len();
            self.assignment.resize(n, p);
        }
    }

    /// Removes a vertex from the size accounting (its slot keeps the stale
    /// label; callers must treat tombstoned vertices as unassigned).
    pub fn forget_vertex(&mut self, v: VertexId) {
        let p = self.assignment[v as usize];
        self.sizes[p as usize] -= 1;
    }

    /// Raw assignment slice (one entry per vertex slot).
    pub fn as_slice(&self) -> &[PartitionId] {
        &self.assignment
    }

    /// Recomputes sizes counting only live vertices of `graph`.
    ///
    /// After vertex removals the incremental sizes are maintained through
    /// [`Partitioning::forget_vertex`]; this is the O(n) consistency check /
    /// repair used by tests and the engine's invariant audits.
    pub fn recount_live<G: Graph>(&mut self, graph: &G) {
        self.sizes.iter_mut().for_each(|s| *s = 0);
        for v in graph.vertices() {
            self.sizes[self.assignment[v as usize] as usize] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_puts_everything_in_partition_zero() {
        let p = Partitioning::new(5, 3);
        assert_eq!(p.size(0), 5);
        assert_eq!(p.size(1), 0);
        assert_eq!(p.num_partitions(), 3);
    }

    #[test]
    fn move_vertex_updates_sizes() {
        let mut p = Partitioning::new(4, 2);
        let from = p.move_vertex(2, 1);
        assert_eq!(from, 0);
        assert_eq!(p.size(0), 3);
        assert_eq!(p.size(1), 1);
        // Moving to the same partition is a no-op.
        assert_eq!(p.move_vertex(2, 1), 1);
        assert_eq!(p.size(1), 1);
    }

    #[test]
    fn from_assignment_counts() {
        let p = Partitioning::from_assignment(vec![0, 1, 1, 2], 3);
        assert_eq!(p.sizes(), &[1, 2, 1]);
        assert_eq!(p.partition_of(2), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_assignment_validates() {
        let _ = Partitioning::from_assignment(vec![0, 5], 3);
    }

    #[test]
    fn grow_and_forget() {
        let mut p = Partitioning::new(2, 2);
        p.grow_to(4, 1);
        assert_eq!(p.num_vertices(), 4);
        assert_eq!(p.size(1), 2);
        p.forget_vertex(3);
        assert_eq!(p.size(1), 1);
    }

    #[test]
    fn recount_live_skips_tombstones() {
        use apg_graph::DynGraph;
        let mut g = DynGraph::with_vertices(4);
        g.remove_vertex(1);
        let mut p = Partitioning::from_assignment(vec![0, 0, 1, 1], 2);
        p.recount_live(&g);
        assert_eq!(p.sizes(), &[1, 2]);
    }
}

impl apg_persist::Encode for Partitioning {
    /// Binary codec (part of the `apg-persist` durable-state layer): `k`,
    /// the per-slot assignment, and the **live** sizes. Sizes are encoded
    /// rather than recounted because tombstoned slots keep their stale
    /// label — the assignment alone over-counts partitions that lost
    /// vertices.
    fn encode(&self, enc: &mut apg_persist::Encoder) {
        self.num_partitions().encode(enc);
        self.assignment.encode(enc);
        self.sizes.encode(enc);
    }
}

impl Partitioning {
    /// Builds a partitioning from raw labels and *live* sizes, running the
    /// same structural validation as the binary decoder — the constructor
    /// for callers reconstituting state from untrusted bytes (the decoder
    /// itself, and the incremental-checkpoint apply path in `apg-core`).
    ///
    /// # Errors
    ///
    /// A static description of the violated invariant: `k == 0`, a size
    /// table whose length differs from `k`, a label out of range, or a
    /// live size exceeding the number of slots labelled with the
    /// partition (tombstones shrink live sizes, never grow them).
    pub fn from_labels_and_live_sizes(
        assignment: Vec<PartitionId>,
        sizes: Vec<usize>,
    ) -> Result<Self, &'static str> {
        let k = sizes.len();
        if k == 0 {
            return Err("partitioning has k == 0");
        }
        if k > PartitionId::MAX as usize {
            return Err("size table length exceeds the partition-id range");
        }
        let mut label_counts = vec![0usize; k];
        for &p in &assignment {
            if p as usize >= k {
                return Err("assignment entry out of range");
            }
            label_counts[p as usize] += 1;
        }
        // Live sizes can only be what the labels admit (tombstones shrink
        // them, never grow them).
        for (&size, &labelled) in sizes.iter().zip(&label_counts) {
            if size > labelled {
                return Err("live size exceeds the slots labelled with the partition");
            }
        }
        Ok(Partitioning { assignment, sizes })
    }
}

impl apg_persist::Decode for Partitioning {
    fn decode(dec: &mut apg_persist::Decoder<'_>) -> Result<Self, apg_persist::DecodeError> {
        use apg_persist::DecodeError;
        let k = PartitionId::decode(dec)?;
        if k == 0 {
            return Err(DecodeError::Corrupt("partitioning has k == 0"));
        }
        let assignment = Vec::<PartitionId>::decode(dec)?;
        let sizes = Vec::<usize>::decode(dec)?;
        if sizes.len() != k as usize {
            return Err(DecodeError::Corrupt("size table length differs from k"));
        }
        Partitioning::from_labels_and_live_sizes(assignment, sizes).map_err(DecodeError::Corrupt)
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;

    #[test]
    fn binary_round_trip_preserves_live_sizes() {
        use apg_persist::{Decode, Encode};
        let mut p = Partitioning::from_assignment(vec![0, 2, 1, 2, 0], 3);
        p.forget_vertex(1); // tombstone keeps its stale label
        let back = Partitioning::from_bytes(&p.to_bytes()).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.sizes(), &[2, 1, 1]);
        assert_eq!(back.partition_of(1), 2, "stale label survives the trip");
    }

    #[test]
    fn binary_decode_rejects_inconsistencies() {
        use apg_persist::{Decode, DecodeError, Encode, Encoder};
        // Out-of-range assignment entry.
        let mut enc = Encoder::new();
        2u16.encode(&mut enc);
        vec![0u16, 5].encode(&mut enc);
        vec![1usize, 1].encode(&mut enc);
        assert!(matches!(
            Partitioning::from_bytes(&enc.into_bytes()).unwrap_err(),
            DecodeError::Corrupt("assignment entry out of range")
        ));
        // Size table claiming more live vertices than labels exist.
        let mut enc = Encoder::new();
        2u16.encode(&mut enc);
        vec![0u16, 0].encode(&mut enc);
        vec![2usize, 1].encode(&mut enc);
        assert!(matches!(
            Partitioning::from_bytes(&enc.into_bytes()).unwrap_err(),
            DecodeError::Corrupt(_)
        ));
        // k == 0.
        let mut enc = Encoder::new();
        0u16.encode(&mut enc);
        Vec::<u16>::new().encode(&mut enc);
        Vec::<usize>::new().encode(&mut enc);
        assert!(matches!(
            Partitioning::from_bytes(&enc.into_bytes()).unwrap_err(),
            DecodeError::Corrupt("partitioning has k == 0")
        ));
    }
}
