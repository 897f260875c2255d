//! The delta value: a checkpoint encoded against a durable base.
//!
//! In: a [`DeltaBase`], a [`CheckpointView`] of the current state and the
//! tracked changed slots ([`CheckpointDelta::between`]), or `APGD` bytes.
//! Out: a [`CheckpointDelta`], its bytes, and — applied to its base
//! ([`CheckpointDelta::apply`]) — the current checkpoint, byte for byte.

use apg_graph::{DeltaLog, Graph, GraphDiff, VertexId};
use apg_partition::{PartitionId, Partitioning};
use apg_persist::{decode_len, format, Decode, DecodeError, Decoder, Encode, Encoder};

use super::checkpoint::{CheckpointView, PartitionerState, StreamCheckpoint};
use crate::marks::Journal;
use crate::partitioner::PartitionerScalars;
use crate::streaming::{fold_timeline_digest, RunnerScalars, TimelineStats};

/// The base side of [`CheckpointDelta::between`]: the base's slot count,
/// runner scalars and retained timeline, and its slots through one lookup
/// — a captured checkpoint, or the journal a live partitioner kept since
/// the base (which knows only the slots changed since).
#[derive(Debug, Clone, Copy)]
pub struct DeltaBase<'a> {
    pub(super) slots: usize,
    pub(super) runner: RunnerScalars,
    pub(super) timeline: &'a [TimelineStats],
    pub(super) lookup: Lookup<'a>,
}

#[derive(Debug, Clone, Copy)]
pub(super) enum Lookup<'a> {
    Captured(&'a PartitionerState),
    Journal(&'a Journal),
}

impl<'a> DeltaBase<'a> {
    /// `slot`'s liveness, label and neighbour list in the base, if known.
    fn slot(&self, slot: usize) -> Option<(bool, PartitionId, &'a [VertexId])> {
        match self.lookup {
            Lookup::Captured(state) => {
                let v = slot as VertexId;
                let label = state.partitioning.partition_of(v);
                Some((state.graph.is_vertex(v), label, state.graph.neighbors(v)))
            }
            // Only live slots change, so every pre-image is live.
            Lookup::Journal(journal) => journal
                .pre_image(slot)
                .map(|(label, list)| (true, label, list)),
        }
    }
}

impl<'a> From<&'a StreamCheckpoint> for DeltaBase<'a> {
    fn from(ckpt: &'a StreamCheckpoint) -> Self {
        DeltaBase {
            slots: ckpt.state.graph.num_vertices(),
            runner: ckpt.runner,
            timeline: &ckpt.timeline,
            lookup: Lookup::Captured(&ckpt.state),
        }
    }
}

/// A delta-encoded checkpoint: the difference between a durable base
/// [`StreamCheckpoint`] and a newer one, `O(changed-state)` on the wire
/// instead of `O(state)`.
///
/// A delta names its base by `(sequence, digest)` — the same link the
/// [`SegmentStore`](apg_persist::store::SegmentStore) records file-to-file
/// — and carries exactly what moved since: the [`GraphDiff`] over the
/// mutation-tracked changed slots, label records for re-assigned slots,
/// and the timeline window's slide (dropped-entry count + new entries).
/// The two scalar blocks and the `O(k)` size table ride along in full —
/// they are a rounding error next to the graph.
/// Applying a delta to its base ([`CheckpointDelta::apply`]) reproduces
/// the newer checkpoint **byte-identically**, which is what lets a
/// recovery replay base-plus-chain and land exactly where a full snapshot
/// would have.
///
/// Serialised as a framed `APGD` container
/// ([`format::MAGIC_DELTA`]); deltas are decoded from disk, so
/// `apply` validates everything — structurally via
/// [`GraphDiff::apply_to`], and end-to-end via
/// `StreamCheckpoint::validate` — before any state escapes.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointDelta {
    /// Store sequence number of the base this delta chains to.
    pub base_seq: u64,
    /// FNV-1a digest of the base's durable frame payload (must match the
    /// store's link; see
    /// [`SegmentStore::root_digest`](apg_persist::store::SegmentStore::root_digest)).
    pub base_digest: u64,
    /// Structural graph changes since the base.
    pub graph: GraphDiff,
    /// `(slot, label)` records, strictly ascending by slot: every slot
    /// whose assignment changed, plus every newborn slot (whose label the
    /// base cannot know).
    pub labels: Vec<(usize, PartitionId)>,
    /// The full live-size table of the final state (`O(k)`).
    pub sizes: Vec<usize>,
    /// The partitioner's final scalars, carried in full.
    pub partitioner: PartitionerScalars,
    /// The runner's final scalars, carried in full. The `timeline_digest`
    /// is re-derived on apply whenever the dropped entries fully account
    /// for the eviction gap, and taken on faith otherwise (entries born
    /// *and* evicted between the two checkpoints exist in neither).
    pub runner: RunnerScalars,
    /// How many of the base's retained timeline entries the window slid
    /// past (dropped from the front).
    pub timeline_dropped: usize,
    /// Timeline entries newer than the base's coverage.
    pub timeline_new: Vec<TimelineStats>,
    /// Write-ahead tail (empty for store-installed deltas: the store's
    /// segments carry the tail).
    pub tail: DeltaLog,
}

impl CheckpointDelta {
    /// Encodes `current` — a [`StreamCheckpoint`] or a live
    /// [`StreamingRunner`](crate::StreamingRunner), by reference — against
    /// `base`, given the ascending changed-slot superset the mutation
    /// paths tracked (see
    /// [`AdaptivePartitioner::changed_slots`](crate::AdaptivePartitioner::changed_slots))
    /// and the store link `(base_seq, base_digest)` of the durable base.
    /// `O(changed slots × degree)` plus the `O(k)`/`O(window)` members;
    /// nothing `O(graph)` is read or copied.
    ///
    /// Returns `None` when `current` is not reachable from `base` by
    /// append-only growth — the timeline's retained base suffix was
    /// rewritten, or the slot space or the batch counter shrank — or when
    /// `base` cannot say what a changed slot was (a journal not kept since
    /// this base). Callers fall back to a full snapshot install; `None` is
    /// a policy signal, not an error.
    pub fn between<'a, 'b>(
        base: impl Into<DeltaBase<'b>>,
        current: impl Into<CheckpointView<'a>>,
        changed: &[usize],
        base_seq: u64,
        base_digest: u64,
    ) -> Option<CheckpointDelta> {
        let base: DeltaBase<'b> = base.into();
        let current: CheckpointView<'a> = current.into();
        let base_n = base.slots;
        let cur_n = current.graph.num_vertices();
        let base_ingested = base.runner.batches_ingested;
        if cur_n < base_n || current.runner.batches_ingested < base_ingested {
            return None;
        }
        // The timeline slides forward: entries the window still retains
        // from the base must reappear verbatim at the front of `current`.
        let base_evicted = base_ingested - base.timeline.len();
        let cur_evicted = current.runner.batches_ingested - current.timeline.len();
        if cur_evicted < base_evicted {
            return None;
        }
        let keep = base_ingested
            .saturating_sub(cur_evicted)
            .min(base.timeline.len());
        let dropped = base.timeline.len() - keep;
        if !current.timeline.starts_with(&base.timeline[dropped..]) {
            return None;
        }
        let slot = |s| base.slot(s).map(|(alive, _, list)| (alive, list));
        let graph = GraphDiff::from_base(base_n, slot, current.graph, changed)?;
        // Label records: every tracked slot whose assignment moved, plus
        // every newborn — the slots the graph diff visited.
        let cur_assign = current.partitioning.as_slice();
        let mut labels = Vec::new();
        for slot in GraphDiff::slots_to_visit(changed, base_n, cur_n) {
            if slot >= base_n || base.slot(slot)?.1 != cur_assign[slot] {
                labels.push((slot, cur_assign[slot]));
            }
        }
        Some(CheckpointDelta {
            base_seq,
            base_digest,
            graph,
            labels,
            sizes: current.partitioning.sizes().to_vec(),
            partitioner: current.partitioner,
            runner: current.runner,
            timeline_dropped: dropped,
            timeline_new: current.timeline[keep..].to_vec(),
            tail: DeltaLog::from(current.tail.to_vec()),
        })
    }

    /// Turns `base` into the checkpoint this delta encodes. The base is
    /// consumed and patched in place — graph slots and timeline are
    /// edited, never cloned — so replaying a chain costs one base plus the
    /// changes, however many links it has.
    ///
    /// Every invariant is validated before the result escapes: the graph
    /// diff against the base graph, label/size consistency, the timeline
    /// slide and its digest, and finally the full
    /// `StreamCheckpoint::validate` pass — a delta applied to the wrong
    /// base, or a corrupted one, yields a typed error, never a panic or a
    /// silently divergent checkpoint.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Corrupt`] naming the violated invariant.
    pub fn apply(&self, base: StreamCheckpoint) -> Result<StreamCheckpoint, DecodeError> {
        let StreamCheckpoint {
            state: base_state,
            runner: base_runner,
            mut timeline,
            ..
        } = base;
        let base_n = base_state.graph.num_vertices();
        let mut graph = base_state.graph;
        self.graph.apply_to(&mut graph)?;
        // Labels: base assignment, slid under the records. Tombstones keep
        // their stale base label (the wire format persists it), so absence
        // of a record is itself meaningful.
        let mut assignment = base_state.partitioning.as_slice().to_vec();
        assignment.resize(self.graph.new_slots, 0);
        for &(slot, label) in &self.labels {
            assignment[slot] = label;
        }
        for slot in base_n..self.graph.new_slots {
            if self
                .labels
                .binary_search_by_key(&slot, |&(s, _)| s)
                .is_err()
            {
                return Err(DecodeError::Corrupt("newborn slot missing a label record"));
            }
        }
        let partitioning = Partitioning::from_labels_and_live_sizes(assignment, self.sizes.clone())
            .map_err(DecodeError::Corrupt)?;
        // Timeline: slide the base window, then append the new entries.
        if self.timeline_dropped > timeline.len() {
            return Err(DecodeError::Corrupt(
                "delta drops more timeline entries than the base retains",
            ));
        }
        let base_evicted = base_runner.batches_ingested - timeline.len();
        // The digest the dropped entries fold to — what the delta must
        // carry when they fully account for the eviction gap (below).
        let slid_digest = timeline
            .drain(..self.timeline_dropped)
            .fold(base_runner.timeline_digest, |digest, stats| {
                fold_timeline_digest(digest, &stats)
            });
        timeline.extend(self.timeline_new.iter().cloned());
        let cur_evicted = self
            .runner
            .batches_ingested
            .checked_sub(timeline.len())
            .ok_or(DecodeError::Corrupt(
                "timeline longer than the batches-ingested counter",
            ))?;
        if cur_evicted < base_evicted {
            return Err(DecodeError::Corrupt(
                "delta timeline evicts fewer entries than its base",
            ));
        }
        // When the dropped base entries fully account for the eviction
        // gap, the final digest is derivable — require it to match. (A
        // gap wider than the drop means entries were born and evicted
        // between the checkpoints; their stats exist in neither side, so
        // the carried digest is taken on faith and the store's frame CRC
        // plus chain digest guard its integrity.)
        if cur_evicted - base_evicted == self.timeline_dropped
            && slid_digest != self.runner.timeline_digest
        {
            return Err(DecodeError::Corrupt(
                "delta timeline digest does not extend the base's",
            ));
        }
        let checkpoint = StreamCheckpoint {
            state: PartitionerState {
                graph,
                partitioning,
                scalars: self.partitioner.clone(),
            },
            runner: self.runner,
            timeline,
            tail: self.tail.clone(),
        };
        checkpoint.validate()?;
        Ok(checkpoint)
    }

    /// Serialises as a framed, versioned delta file (`APGD` magic).
    pub fn to_bytes(&self) -> Vec<u8> {
        format::encode_framed(format::MAGIC_DELTA, self)
    }

    /// Restores a delta written by [`CheckpointDelta::to_bytes`].
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`]: wrong magic, unsupported version, truncation,
    /// or a payload violating the bytes-only delta invariants (base-aware
    /// validation happens in [`CheckpointDelta::apply`]).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        format::decode_framed(format::MAGIC_DELTA, bytes)
    }
}

impl Encode for CheckpointDelta {
    fn encode(&self, enc: &mut Encoder) {
        self.base_seq.encode(enc);
        self.base_digest.encode(enc);
        self.graph.encode(enc);
        self.labels.len().encode(enc);
        for &(slot, label) in &self.labels {
            slot.encode(enc);
            label.encode(enc);
        }
        self.sizes.encode(enc);
        self.partitioner.encode(enc);
        self.runner.encode(enc);
        self.timeline_dropped.encode(enc);
        self.timeline_new.encode(enc);
        self.tail.encode(enc);
    }
}

impl Decode for CheckpointDelta {
    /// Bytes-only validation (label ordering and range); everything that
    /// needs the base checkpoint lives in [`CheckpointDelta::apply`].
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let base_seq = u64::decode(dec)?;
        let base_digest = u64::decode(dec)?;
        let graph = GraphDiff::decode(dec)?;
        let labels_len = decode_len(dec, 2)?;
        let mut labels = Vec::with_capacity(labels_len.min(dec.remaining()));
        let mut prev: Option<usize> = None;
        for _ in 0..labels_len {
            let slot = usize::decode(dec)?;
            let label = PartitionId::decode(dec)?;
            if slot >= graph.new_slots {
                return Err(DecodeError::Corrupt("label record slot out of range"));
            }
            if prev.is_some_and(|p| p >= slot) {
                return Err(DecodeError::Corrupt("label records not strictly ascending"));
            }
            prev = Some(slot);
            labels.push((slot, label));
        }
        let sizes = Vec::decode(dec)?;
        let partitioner = PartitionerScalars::decode(dec)?;
        Ok(CheckpointDelta {
            base_seq,
            base_digest,
            graph,
            labels,
            sizes,
            partitioner,
            runner: RunnerScalars::decode(dec)?,
            timeline_dropped: usize::decode(dec)?,
            timeline_new: Vec::decode(dec)?,
            tail: DeltaLog::decode(dec)?,
        })
    }
}
