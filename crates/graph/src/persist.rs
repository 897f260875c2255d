//! Binary codec for the graph substrate: [`DynGraph`] snapshots and
//! [`DeltaLog`] segments.
//!
//! This is the `apg-graph` slice of the workspace's durable-state layer
//! (`apg-persist`): snapshots capture the **whole slot space** — live
//! vertices *and* tombstones — so a restored graph allocates the next
//! vertex id exactly where the original would have, keeping producers and
//! consumers of the dense id space aligned across a restart.
//!
//! # Wire shapes (format version 1)
//!
//! * `DynGraph` — slot count, per-slot alive flags, then per-slot **upper
//!   adjacency** (neighbours `w > v` only): symmetry is a structural
//!   invariant, so the lower half is redundant on disk and gets rebuilt —
//!   and validated — at decode time.
//! * `GraphDelta` — a tag byte plus the variant's fields.
//! * `UpdateBatch` — its delta sequence (`num_new` is recomputed, and
//!   `ConnectNew` placeholders are checked against it).
//! * `DeltaLog` — its batch sequence.
//!
//! Framed file helpers ([`DynGraph::to_snapshot_bytes`],
//! [`DeltaLog::to_segment_bytes`]) add the magic + version header from
//! [`apg_persist::format`].
//!
//! # Example
//!
//! ```
//! use apg_graph::{DynGraph, Graph};
//!
//! let mut g = DynGraph::with_vertices(3);
//! g.add_edge(0, 1);
//! g.remove_vertex(2); // tombstone
//! let bytes = g.to_snapshot_bytes();
//! let back = DynGraph::from_snapshot_bytes(&bytes).unwrap();
//! assert_eq!(back, g);
//! assert_eq!(back.num_vertices(), 3); // tombstone slot survived
//! ```

use apg_persist::{decode_len, format, Decode, DecodeError, Decoder, Encode, Encoder};

use crate::delta::{DeltaLog, GraphDelta, UpdateBatch};
use crate::dynamic::DynGraph;
use crate::types::{Graph, VertexId};

impl Encode for DynGraph {
    fn encode(&self, enc: &mut Encoder) {
        let n = self.num_vertices();
        enc.write_varint(n as u64);
        for v in 0..n as VertexId {
            self.is_vertex(v).encode(enc);
        }
        for v in 0..n as VertexId {
            // Lists are sorted (and empty on tombstones), so the upper half
            // is a suffix: length-prefixed like a `Vec`, without building one.
            let list = self.neighbors(v);
            let upper = &list[list.partition_point(|&w| w <= v)..];
            enc.write_varint(upper.len() as u64);
            for w in upper {
                w.encode(enc);
            }
        }
    }
}

impl Decode for DynGraph {
    /// Rebuilds the graph, validating every structural invariant: upper
    /// adjacency strictly ascending and in range, no self loops, no edges
    /// at tombstoned endpoints.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let n = decode_len(dec, 1)?;
        // Clamp the pre-allocation to the bytes actually present: the
        // min_item_bytes guard in decode_len bounds n against the payload,
        // but capacity must never trust a decoded length outright.
        let mut alive = Vec::with_capacity(n.min(dec.remaining()));
        for _ in 0..n {
            alive.push(bool::decode(dec)?);
        }
        let mut graph = DynGraph::from_alive_slots(alive);
        for v in 0..n as VertexId {
            let upper = Vec::<VertexId>::decode(dec)?;
            if !upper.is_empty() && !graph.is_vertex(v) {
                return Err(DecodeError::Corrupt("tombstone slot holds adjacency"));
            }
            let mut prev: Option<VertexId> = None;
            for &w in &upper {
                if w <= v {
                    return Err(DecodeError::Corrupt(
                        "adjacency entry not in the upper half (w <= v)",
                    ));
                }
                if (w as usize) >= n {
                    return Err(DecodeError::Corrupt("adjacency endpoint out of range"));
                }
                if prev.is_some_and(|p| p >= w) {
                    return Err(DecodeError::Corrupt("adjacency not strictly ascending"));
                }
                prev = Some(w);
                if !graph.add_edge(v, w) {
                    // add_edge rejects dead endpoints and duplicates; the
                    // ascending check above already caught duplicates.
                    return Err(DecodeError::Corrupt("edge endpoint is a tombstone"));
                }
            }
        }
        Ok(graph)
    }
}

impl DynGraph {
    /// Builds a graph of `alive.len()` edgeless slots with the given
    /// liveness — the decoder's starting point for replaying adjacency.
    pub(crate) fn from_alive_slots(alive: Vec<bool>) -> Self {
        let num_live = alive.iter().filter(|&&a| a).count();
        let pool = crate::adj_pool::AdjPool::with_slots(alive.len());
        DynGraph::from_raw_parts(pool, alive, num_live, 0)
    }

    /// Serialises the graph — tombstone slots included — as a framed,
    /// versioned snapshot (`APGG` magic).
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        format::encode_framed(format::MAGIC_GRAPH, self)
    }

    /// Restores a snapshot written by [`DynGraph::to_snapshot_bytes`].
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`]: wrong magic, unsupported version, truncation,
    /// or a payload violating the graph invariants.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        format::decode_framed(format::MAGIC_GRAPH, bytes)
    }
}

/// Tag bytes for [`GraphDelta`] variants (appending new variants is a
/// format change: bump [`format::VERSION`]).
mod delta_tag {
    pub const ADD_VERTEX: u8 = 0;
    pub const CONNECT_NEW: u8 = 1;
    pub const ADD_EDGE: u8 = 2;
    pub const REMOVE_EDGE: u8 = 3;
    pub const REMOVE_VERTEX: u8 = 4;
}

impl Encode for GraphDelta {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            GraphDelta::AddVertex { neighbors } => {
                enc.write_bytes(&[delta_tag::ADD_VERTEX]);
                neighbors.encode(enc);
            }
            GraphDelta::ConnectNew { a, b } => {
                enc.write_bytes(&[delta_tag::CONNECT_NEW]);
                a.encode(enc);
                b.encode(enc);
            }
            GraphDelta::AddEdge { u, v } => {
                enc.write_bytes(&[delta_tag::ADD_EDGE]);
                u.encode(enc);
                v.encode(enc);
            }
            GraphDelta::RemoveEdge { u, v } => {
                enc.write_bytes(&[delta_tag::REMOVE_EDGE]);
                u.encode(enc);
                v.encode(enc);
            }
            GraphDelta::RemoveVertex { vertex } => {
                enc.write_bytes(&[delta_tag::REMOVE_VERTEX]);
                vertex.encode(enc);
            }
        }
    }
}

impl Decode for GraphDelta {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.read_bytes(1)?[0] {
            delta_tag::ADD_VERTEX => Ok(GraphDelta::AddVertex {
                neighbors: Vec::decode(dec)?,
            }),
            delta_tag::CONNECT_NEW => Ok(GraphDelta::ConnectNew {
                a: usize::decode(dec)?,
                b: usize::decode(dec)?,
            }),
            delta_tag::ADD_EDGE => Ok(GraphDelta::AddEdge {
                u: VertexId::decode(dec)?,
                v: VertexId::decode(dec)?,
            }),
            delta_tag::REMOVE_EDGE => Ok(GraphDelta::RemoveEdge {
                u: VertexId::decode(dec)?,
                v: VertexId::decode(dec)?,
            }),
            delta_tag::REMOVE_VERTEX => Ok(GraphDelta::RemoveVertex {
                vertex: VertexId::decode(dec)?,
            }),
            _ => Err(DecodeError::Corrupt("unknown GraphDelta tag")),
        }
    }
}

impl Encode for UpdateBatch {
    fn encode(&self, enc: &mut Encoder) {
        enc.write_varint(self.deltas().len() as u64);
        for delta in self.deltas() {
            delta.encode(enc);
        }
    }
}

impl Decode for UpdateBatch {
    /// Rebuilds the batch through its own API, re-deriving the placeholder
    /// count and rejecting `ConnectNew` events that reference placeholders
    /// the batch has not allocated (the builder API panics on those; a
    /// decoder must error instead).
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let len = decode_len(dec, 1)?;
        let mut batch = UpdateBatch::new();
        for _ in 0..len {
            match GraphDelta::decode(dec)? {
                GraphDelta::ConnectNew { a, b } => {
                    if a >= batch.num_new_vertices() || b >= batch.num_new_vertices() {
                        return Err(DecodeError::Corrupt(
                            "ConnectNew references an unallocated placeholder",
                        ));
                    }
                    batch.connect_new(a, b);
                }
                other => batch.push(other),
            }
        }
        Ok(batch)
    }
}

impl Encode for DeltaLog {
    fn encode(&self, enc: &mut Encoder) {
        enc.write_varint(self.batches().len() as u64);
        for batch in self.batches() {
            batch.encode(enc);
        }
    }
}

impl Decode for DeltaLog {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let len = decode_len(dec, 1)?;
        let mut log = DeltaLog::new();
        for _ in 0..len {
            log.record(UpdateBatch::decode(dec)?);
        }
        Ok(log)
    }
}

impl DeltaLog {
    /// Serialises the log as a framed, versioned segment file (`APGL`
    /// magic).
    pub fn to_segment_bytes(&self) -> Vec<u8> {
        format::encode_framed(format::MAGIC_LOG, self)
    }

    /// Restores a segment written by [`DeltaLog::to_segment_bytes`].
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`]: wrong magic, unsupported version, truncation,
    /// or a malformed batch.
    pub fn from_segment_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        format::decode_framed(format::MAGIC_LOG, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apg_persist::{Decode, Encode};

    fn sample_graph() -> DynGraph {
        let mut g = DynGraph::with_vertices(6);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 4);
        g.add_edge(3, 5);
        g.remove_vertex(2); // tombstone with a former edge
        g
    }

    #[test]
    fn graph_snapshot_round_trips_with_tombstones() {
        let g = sample_graph();
        let back = DynGraph::from_bytes(&g.to_bytes()).unwrap();
        assert_eq!(back, g);
        assert_eq!(back.num_vertices(), 6);
        assert_eq!(back.num_live_vertices(), 5);
        assert_eq!(back.num_edges(), 3);
        assert!(!back.is_vertex(2));
    }

    #[test]
    fn restored_graph_keeps_allocating_densely() {
        let g = sample_graph();
        let mut back = DynGraph::from_snapshot_bytes(&g.to_snapshot_bytes()).unwrap();
        // The tombstone slot is preserved, never reused: the next id is the
        // next fresh slot, exactly as on the original.
        assert_eq!(back.add_vertex(), 6);
        let mut original = g;
        assert_eq!(original.add_vertex(), 6);
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = DynGraph::new();
        assert_eq!(DynGraph::from_bytes(&g.to_bytes()).unwrap(), g);
    }

    #[test]
    fn snapshot_rejects_corruption() {
        // Hand-assembled payloads violating each structural invariant; the
        // decoder must reject every one with a typed error.
        let mut enc = Encoder::new();
        6usize.encode(&mut enc);
        for _ in 0..6 {
            true.encode(&mut enc);
        }
        vec![9u32].encode(&mut enc); // vertex 0 -> 9 (out of range)
        for _ in 1..6 {
            Vec::<u32>::new().encode(&mut enc);
        }
        assert!(matches!(
            DynGraph::from_bytes(&enc.into_bytes()).unwrap_err(),
            DecodeError::Corrupt("adjacency endpoint out of range")
        ));

        // Lower-half entry smuggled in.
        let mut enc = Encoder::new();
        2usize.encode(&mut enc);
        true.encode(&mut enc);
        true.encode(&mut enc);
        Vec::<u32>::new().encode(&mut enc);
        vec![0u32].encode(&mut enc); // vertex 1 -> 0 belongs to the lower half
        assert!(matches!(
            DynGraph::from_bytes(&enc.into_bytes()).unwrap_err(),
            DecodeError::Corrupt("adjacency entry not in the upper half (w <= v)")
        ));

        // Tombstone with adjacency.
        let mut enc = Encoder::new();
        2usize.encode(&mut enc);
        false.encode(&mut enc);
        true.encode(&mut enc);
        vec![1u32].encode(&mut enc);
        Vec::<u32>::new().encode(&mut enc);
        assert!(matches!(
            DynGraph::from_bytes(&enc.into_bytes()).unwrap_err(),
            DecodeError::Corrupt("tombstone slot holds adjacency")
        ));

        // Edge *to* a tombstone.
        let mut enc = Encoder::new();
        2usize.encode(&mut enc);
        true.encode(&mut enc);
        false.encode(&mut enc);
        vec![1u32].encode(&mut enc);
        Vec::<u32>::new().encode(&mut enc);
        assert!(matches!(
            DynGraph::from_bytes(&enc.into_bytes()).unwrap_err(),
            DecodeError::Corrupt("edge endpoint is a tombstone")
        ));
    }

    #[test]
    fn deltas_and_batches_round_trip() {
        let mut batch = UpdateBatch::new();
        let a = batch.add_vertex(vec![0, 7]);
        let b = batch.add_vertex(vec![]);
        batch.connect_new(a, b);
        batch.add_edge(1, 2);
        batch.remove_edge(3, 4);
        batch.remove_vertex(5);
        let back = UpdateBatch::from_bytes(&batch.to_bytes()).unwrap();
        assert_eq!(back, batch);
        assert_eq!(back.num_new_vertices(), 2);
    }

    #[test]
    fn batch_decode_rejects_dangling_placeholder() {
        // ConnectNew before any AddVertex: unrepresentable via the API,
        // must decode to an error rather than panic.
        let mut enc = Encoder::new();
        enc.write_varint(1);
        GraphDelta::ConnectNew { a: 0, b: 0 }.encode(&mut enc);
        assert!(matches!(
            UpdateBatch::from_bytes(&enc.into_bytes()).unwrap_err(),
            DecodeError::Corrupt("ConnectNew references an unallocated placeholder")
        ));
    }

    #[test]
    fn unknown_delta_tag_is_corrupt() {
        let mut enc = Encoder::new();
        enc.write_varint(1);
        enc.write_bytes(&[99]);
        assert!(matches!(
            UpdateBatch::from_bytes(&enc.into_bytes()).unwrap_err(),
            DecodeError::Corrupt("unknown GraphDelta tag")
        ));
    }

    #[test]
    fn log_segments_round_trip_and_replay() {
        let mut base = DynGraph::with_vertices(4);
        let mut log = DeltaLog::new();
        let mut b1 = UpdateBatch::new();
        b1.add_edge(0, 1);
        b1.add_vertex(vec![0, 2]);
        log.record(b1);
        let mut b2 = UpdateBatch::new();
        b2.remove_vertex(1);
        log.record(b2);

        let bytes = log.to_segment_bytes();
        let back = DeltaLog::from_segment_bytes(&bytes).unwrap();
        assert_eq!(back, log);

        let mut from_original = base.clone();
        log.replay(&mut from_original);
        back.replay(&mut base);
        assert_eq!(base, from_original, "decoded log must replay identically");
    }

    #[test]
    fn framed_graph_rejects_log_magic() {
        let g = sample_graph();
        let as_log_frame = apg_persist::format::encode_framed(format::MAGIC_LOG, &g);
        assert!(matches!(
            DynGraph::from_snapshot_bytes(&as_log_frame).unwrap_err(),
            DecodeError::BadMagic { .. }
        ));
    }
}
