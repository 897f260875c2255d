//! Partition capacity constraints (paper §2.2).
//!
//! "As our goal is to obtain a balanced partitioning, a capacity limit must
//! be introduced for every partition" — the paper caps each partition at a
//! factor of the balanced load (110% in the evaluation). The extension the
//! paper lists as future work (§6) — balancing on *edges* rather than
//! vertices, since many algorithms' cost is proportional to edges — is also
//! implemented here and exercised by the ablation benches.

use serde::{Deserialize, Serialize};

use crate::partitioning::PartitionId;

/// What quantity the capacity constraint counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BalanceObjective {
    /// Cap the number of vertices per partition (the paper's §2.2 model).
    Vertices,
    /// Cap the number of edge endpoints (degree mass) per partition — the
    /// paper's §6 future-work extension.
    Edges,
}

/// Per-partition capacity limits `C(i)`.
///
/// # Example
///
/// ```
/// use apg_partition::CapacityModel;
///
/// // 9 partitions over 900 vertices at 110% of balanced load (the paper's
/// // Figure 4 setting): each partition holds at most 110 vertices.
/// let caps = CapacityModel::vertex_balanced(900, 9, 1.10);
/// assert_eq!(caps.capacity(0), 110);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapacityModel {
    limits: Vec<usize>,
    objective: BalanceObjective,
}

impl CapacityModel {
    /// Uniform vertex-count capacities: `ceil(n / k) * factor` per partition.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `factor < 1.0` (capacities below the balanced
    /// load cannot hold the graph).
    pub fn vertex_balanced(n: usize, k: PartitionId, factor: f64) -> Self {
        CapacityModel {
            limits: vec![Self::balanced_limit(n, k, factor); k as usize],
            objective: BalanceObjective::Vertices,
        }
    }

    /// Uniform edge-endpoint capacities: `ceil(2|E| / k) * factor`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `factor < 1.0`.
    pub fn edge_balanced(num_edges: usize, k: PartitionId, factor: f64) -> Self {
        CapacityModel {
            limits: vec![Self::balanced_limit(2 * num_edges, k, factor); k as usize],
            objective: BalanceObjective::Edges,
        }
    }

    /// The limit every partition gets when `units` (vertices, or edge
    /// endpoints) are balanced over `k` partitions: `ceil(units / k) *
    /// factor`, at least 1. [`CapacityModel::vertex_balanced`] and
    /// [`CapacityModel::edge_balanced`] fill their models with it; a caller
    /// that needs one partition's limit reads it here without building one.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `factor < 1.0` (capacities below the balanced
    /// load cannot hold the graph).
    pub fn balanced_limit(units: usize, k: PartitionId, factor: f64) -> usize {
        assert!(k > 0, "need at least one partition");
        assert!(factor >= 1.0, "capacity factor below balanced load");
        let per = (((units as f64) / k as f64).ceil() * factor).round() as usize;
        per.max(1)
    }

    /// Explicit per-partition limits (e.g. heterogeneous workers, or the
    /// hot-spot-aware scaling hook).
    ///
    /// # Panics
    ///
    /// Panics if `limits` is empty.
    pub fn explicit(limits: Vec<usize>, objective: BalanceObjective) -> Self {
        assert!(!limits.is_empty(), "need at least one partition");
        CapacityModel { limits, objective }
    }

    /// Capacity limit `C(i)`.
    #[inline]
    pub fn capacity(&self, p: PartitionId) -> usize {
        self.limits[p as usize]
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> PartitionId {
        self.limits.len() as PartitionId
    }

    /// The quantity being balanced.
    pub fn objective(&self) -> BalanceObjective {
        self.objective
    }

    /// Remaining capacity `C^t(i) = C(i) - load(i)`, saturating at zero.
    #[inline]
    pub fn remaining(&self, p: PartitionId, load: usize) -> usize {
        self.limits[p as usize].saturating_sub(load)
    }

    /// Scales partition `p`'s capacity by `factor` (hot-spot hook, §6).
    pub fn scale_partition(&mut self, p: PartitionId, factor: f64) {
        assert!(factor > 0.0, "scale factor must be positive");
        let cur = self.limits[p as usize];
        self.limits[p as usize] = ((cur as f64) * factor).round().max(1.0) as usize;
    }

    /// Total capacity across partitions.
    pub fn total(&self) -> usize {
        self.limits.iter().sum()
    }
}

impl apg_persist::Encode for BalanceObjective {
    fn encode(&self, enc: &mut apg_persist::Encoder) {
        let tag: u8 = match self {
            BalanceObjective::Vertices => 0,
            BalanceObjective::Edges => 1,
        };
        tag.encode(enc);
    }
}

impl apg_persist::Decode for BalanceObjective {
    fn decode(dec: &mut apg_persist::Decoder<'_>) -> Result<Self, apg_persist::DecodeError> {
        match u8::decode(dec)? {
            0 => Ok(BalanceObjective::Vertices),
            1 => Ok(BalanceObjective::Edges),
            _ => Err(apg_persist::DecodeError::Corrupt(
                "unknown BalanceObjective tag",
            )),
        }
    }
}

impl apg_persist::Encode for CapacityModel {
    /// Binary codec (part of the `apg-persist` durable-state layer):
    /// per-partition limits plus the balance objective.
    fn encode(&self, enc: &mut apg_persist::Encoder) {
        self.limits.encode(enc);
        self.objective.encode(enc);
    }
}

impl apg_persist::Decode for CapacityModel {
    fn decode(dec: &mut apg_persist::Decoder<'_>) -> Result<Self, apg_persist::DecodeError> {
        let limits = Vec::<usize>::decode(dec)?;
        let objective = BalanceObjective::decode(dec)?;
        if limits.is_empty() {
            return Err(apg_persist::DecodeError::Corrupt(
                "capacity model has no partitions",
            ));
        }
        Ok(CapacityModel { limits, objective })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_round_trip() {
        use apg_persist::{Decode, Encode};
        let mut caps = CapacityModel::edge_balanced(120, 3, 1.25);
        caps.scale_partition(1, 2.0);
        assert_eq!(CapacityModel::from_bytes(&caps.to_bytes()).unwrap(), caps);
        // Empty limit tables never decode.
        let mut enc = apg_persist::Encoder::new();
        Vec::<usize>::new().encode(&mut enc);
        BalanceObjective::Vertices.encode(&mut enc);
        assert!(CapacityModel::from_bytes(&enc.into_bytes()).is_err());
    }

    #[test]
    fn paper_figure4_setting() {
        // 9 partitions, capacity 110% of balanced load.
        let caps = CapacityModel::vertex_balanced(64_000, 9, 1.10);
        let balanced = (64_000f64 / 9.0).ceil();
        assert_eq!(caps.capacity(3), (balanced * 1.10).round() as usize);
        assert!(caps.total() >= 64_000);
    }

    #[test]
    fn remaining_saturates() {
        let caps = CapacityModel::vertex_balanced(10, 2, 1.0);
        assert_eq!(caps.remaining(0, 3), 2);
        assert_eq!(caps.remaining(0, 99), 0);
    }

    #[test]
    fn edge_balanced_counts_endpoints() {
        let caps = CapacityModel::edge_balanced(100, 4, 1.0);
        assert_eq!(caps.capacity(0), 50); // 200 endpoints / 4
        assert_eq!(caps.objective(), BalanceObjective::Edges);
    }

    #[test]
    fn scale_partition_adjusts_single_limit() {
        let mut caps = CapacityModel::vertex_balanced(100, 4, 1.0);
        let before = caps.capacity(2);
        caps.scale_partition(2, 1.5);
        assert_eq!(caps.capacity(2), (before as f64 * 1.5).round() as usize);
        assert_eq!(caps.capacity(1), before);
    }

    #[test]
    #[should_panic(expected = "below balanced load")]
    fn rejects_sub_unit_factor() {
        let _ = CapacityModel::vertex_balanced(10, 2, 0.9);
    }

    #[test]
    fn capacity_never_zero() {
        let caps = CapacityModel::vertex_balanced(0, 3, 1.0);
        assert!(caps.capacity(0) >= 1);
    }
}
