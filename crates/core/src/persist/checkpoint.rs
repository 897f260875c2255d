//! The checkpoint value: captured, validated, and turned back into a runner.
//!
//! In: a live [`StreamingRunner`] ([`StreamingRunner::checkpoint`]) or
//! `APGC` bytes ([`StreamCheckpoint::from_bytes`]). Out: a validated
//! [`StreamCheckpoint`], its bytes, a borrowed [`CheckpointView`] of the
//! same members for diffing, and ([`StreamingRunner::resume`]) the runner
//! again.

use apg_graph::{DeltaLog, DynGraph, Graph, UpdateBatch};
use apg_partition::Partitioning;
use apg_persist::{decode_len, format, Decode, DecodeError, Decoder, Encode, Encoder};
use apg_streams::SourceCursor;

use crate::partitioner::{AdaptivePartitioner, PartitionerScalars};
use crate::streaming::{RunnerScalars, StreamingRunner, TimelineStats, TIMELINE_DIGEST_SEED};

/// The complete logical state of an [`AdaptivePartitioner`], as captured
/// by [`AdaptivePartitioner::snapshot_state`].
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionerState {
    /// The graph, tombstone slots included (ids stay dense on restore).
    pub graph: DynGraph,
    /// Assignment and live sizes.
    pub partitioning: Partitioning,
    /// Configuration, seed, counters and fixed capacities.
    pub scalars: PartitionerScalars,
}

impl Encode for PartitionerState {
    fn encode(&self, enc: &mut Encoder) {
        self.graph.encode(enc);
        self.partitioning.encode(enc);
        self.scalars.encode(enc);
    }
}

impl PartitionerState {
    /// Cross-field invariants (assignment covering the graph, matching
    /// partition counts, size table equal to a live recount) — shared by
    /// the binary decoder and the incremental-checkpoint apply path, so
    /// [`AdaptivePartitioner::restore`] can never panic on reconstituted
    /// state regardless of how it was built.
    pub(crate) fn validate(&self) -> Result<(), DecodeError> {
        let k = self.scalars.config.num_partitions;
        if self.partitioning.num_vertices() != self.graph.num_vertices() {
            return Err(DecodeError::Corrupt(
                "assignment does not cover the graph's slots",
            ));
        }
        if self.partitioning.num_partitions() != k {
            return Err(DecodeError::Corrupt(
                "assignment and config disagree on the partition count",
            ));
        }
        if let Some(caps) = &self.scalars.fixed_capacities {
            if caps.num_partitions() != k {
                return Err(DecodeError::Corrupt(
                    "capacity table and config disagree on the partition count",
                ));
            }
        }
        // The partitioning's size table must equal a recount over the live
        // vertices: [`AdaptivePartitioner::restore`]'s audit asserts this,
        // so a validator that skipped it would turn corrupt (but
        // individually well-formed) fields into a downstream panic.
        let mut live_sizes = vec![0usize; usize::from(k)];
        for v in self.graph.vertices() {
            live_sizes[usize::from(self.partitioning.partition_of(v))] += 1;
        }
        if self.partitioning.sizes() != live_sizes.as_slice() {
            return Err(DecodeError::Corrupt(
                "partition size table disagrees with the live assignment",
            ));
        }
        Ok(())
    }
}

impl Decode for PartitionerState {
    /// Validates cross-field consistency (see
    /// `PartitionerState::validate`) so [`AdaptivePartitioner::restore`]
    /// can never panic on decoded state.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let state = PartitionerState {
            graph: DynGraph::decode(dec)?,
            partitioning: Partitioning::decode(dec)?,
            scalars: PartitionerScalars::decode(dec)?,
        };
        state.validate()?;
        Ok(state)
    }
}

/// A durable `(snapshot, log tail)` pair for a [`StreamingRunner`].
///
/// Created by [`StreamingRunner::checkpoint`]; grown batch-by-batch with
/// [`StreamCheckpoint::append`]; turned back into a live runner with
/// [`StreamingRunner::resume`]; serialised with [`StreamCheckpoint::to_bytes`] /
/// [`StreamCheckpoint::from_bytes`] (framed `APGC` container).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamCheckpoint {
    /// Partitioner state at the snapshot boundary.
    pub state: PartitionerState,
    /// The runner's settings and stream position at the snapshot boundary.
    pub runner: RunnerScalars,
    /// The retained timeline suffix up to the snapshot boundary (the whole
    /// timeline when the window is unbounded).
    pub timeline: Vec<TimelineStats>,
    /// Batches ingested after the snapshot — the write-ahead segment that
    /// resume replays.
    pub tail: DeltaLog,
}

impl StreamCheckpoint {
    /// Appends a batch the runner has ingested since the snapshot — the
    /// O(batch) write-ahead step of the operating loop. The batch must be
    /// appended exactly once, in ingestion order.
    pub fn append(&mut self, batch: UpdateBatch) {
        self.tail.record(batch);
    }

    /// Source position this checkpoint corresponds to: every batch covered
    /// by the snapshot plus every appended tail batch. Fast-forward a
    /// freshly reconstructed source here before pulling new batches.
    ///
    /// Derived from the explicit
    /// [`batches_ingested`](RunnerScalars::batches_ingested) counter: with
    /// a bounded timeline window, `timeline.len()` only counts the
    /// retained suffix and would silently reposition the source too early.
    pub fn cursor(&self) -> SourceCursor {
        SourceCursor::at((self.runner.batches_ingested + self.tail.len()) as u64)
    }

    /// Serialises as a framed, versioned checkpoint file (`APGC` magic).
    pub fn to_bytes(&self) -> Vec<u8> {
        format::encode_framed(format::MAGIC_CHECKPOINT, self)
    }

    /// Restores a checkpoint written by [`StreamCheckpoint::to_bytes`].
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`]: wrong magic, unsupported version, truncation,
    /// or a payload violating the checkpoint invariants.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        format::decode_framed(format::MAGIC_CHECKPOINT, bytes)
    }

    /// Structural invariants every checkpoint must satisfy, however it was
    /// built (decoded whole, or reconstituted by
    /// [`CheckpointDelta::apply`](super::CheckpointDelta::apply)): the
    /// timeline-window bookkeeping and the partitioner-state cross-checks.
    pub(crate) fn validate(&self) -> Result<(), DecodeError> {
        let runner = &self.runner;
        if runner.timeline_window == 0 {
            return Err(DecodeError::Corrupt("timeline window is zero"));
        }
        if self.timeline.len() > runner.batches_ingested {
            return Err(DecodeError::Corrupt(
                "timeline longer than the batches-ingested counter",
            ));
        }
        if self.timeline.len() > runner.timeline_window {
            return Err(DecodeError::Corrupt("timeline overflows its window"));
        }
        let evicted = runner.batches_ingested - self.timeline.len();
        if evicted > 0 {
            // The runner evicts only on window overflow, so once anything
            // has been evicted the retained suffix fills the window
            // exactly; a shorter suffix is unreachable from a real runner.
            if self.timeline.len() != runner.timeline_window {
                return Err(DecodeError::Corrupt(
                    "timeline shorter than both its window and the ingest counter",
                ));
            }
        } else if runner.timeline_digest != TIMELINE_DIGEST_SEED {
            // Nothing was evicted: the digest must still be the seed.
            return Err(DecodeError::Corrupt(
                "timeline digest diverged with no evicted entries",
            ));
        }
        for (i, stats) in self.timeline.iter().enumerate() {
            if stats.batch != evicted + i {
                return Err(DecodeError::Corrupt("timeline batch indices not dense"));
            }
        }
        self.state.validate()
    }
}

impl Encode for StreamCheckpoint {
    fn encode(&self, enc: &mut Encoder) {
        CheckpointView::from(self).encode(enc);
    }
}

impl Decode for StreamCheckpoint {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let state = PartitionerState::decode(dec)?;
        let runner = RunnerScalars::decode(dec)?;
        // The capacity clamp: a flipped length byte must not force a
        // multi-GB allocation (every shape invariant is re-checked by
        // `validate` below).
        let timeline_len = decode_len(dec, 14)?;
        let mut timeline = Vec::with_capacity(timeline_len.min(dec.remaining()));
        for _ in 0..timeline_len {
            timeline.push(TimelineStats::decode(dec)?);
        }
        let tail = DeltaLog::decode(dec)?;
        let checkpoint = StreamCheckpoint {
            state,
            runner,
            timeline,
            tail,
        };
        checkpoint.validate()?;
        Ok(checkpoint)
    }
}

/// Everything a checkpoint captures — the big members borrowed, the two
/// scalar blocks by value: the *current* side of
/// [`CheckpointDelta::between`](super::CheckpointDelta::between), and the
/// one `APGC` encoder. Both a captured [`StreamCheckpoint`] and a live
/// [`StreamingRunner`] convert into one, so a delta is diffed, and a full
/// snapshot encoded, straight from the runner's state without first
/// cloning it into a checkpoint.
#[derive(Debug, Clone)]
pub struct CheckpointView<'a> {
    pub(super) graph: &'a DynGraph,
    pub(super) partitioning: &'a Partitioning,
    pub(super) partitioner: PartitionerScalars,
    pub(super) runner: RunnerScalars,
    pub(super) timeline: &'a [TimelineStats],
    pub(super) tail: &'a [UpdateBatch],
}

impl CheckpointView<'_> {
    /// The framed `APGC` bytes [`StreamCheckpoint::to_bytes`] would write.
    pub fn to_bytes(&self) -> Vec<u8> {
        format::encode_framed(format::MAGIC_CHECKPOINT, self)
    }
}

impl Encode for CheckpointView<'_> {
    fn encode(&self, enc: &mut Encoder) {
        self.graph.encode(enc);
        self.partitioning.encode(enc);
        self.partitioner.encode(enc);
        self.runner.encode(enc);
        self.timeline.encode(enc);
        self.tail.encode(enc);
    }
}

impl<'a> From<&'a StreamCheckpoint> for CheckpointView<'a> {
    fn from(ckpt: &'a StreamCheckpoint) -> Self {
        CheckpointView {
            graph: &ckpt.state.graph,
            partitioning: &ckpt.state.partitioning,
            partitioner: ckpt.state.scalars.clone(),
            runner: ckpt.runner,
            timeline: &ckpt.timeline,
            tail: ckpt.tail.batches(),
        }
    }
}

impl<'a> From<&'a StreamingRunner> for CheckpointView<'a> {
    /// The view [`StreamingRunner::checkpoint`] would capture: the
    /// runner's state at the current batch boundary, with an empty tail.
    fn from(runner: &'a StreamingRunner) -> Self {
        let partitioner = runner.partitioner();
        CheckpointView {
            graph: partitioner.graph(),
            partitioning: partitioner.partitioning(),
            partitioner: partitioner.scalars().clone(),
            runner: runner.scalars(),
            timeline: runner.timeline(),
            tail: &[],
        }
    }
}

impl StreamingRunner {
    /// Captures a durable snapshot of this runner at the current batch
    /// boundary, with an empty write-ahead tail.
    ///
    /// The intended loop: checkpoint rarely (O(graph)), then
    /// [`StreamCheckpoint::append`] each ingested batch (O(batch)). A
    /// checkpoint taken mid-stream plus the tail of later batches
    /// reproduces this runner exactly — see [`StreamingRunner::resume`].
    pub fn checkpoint(&self) -> StreamCheckpoint {
        StreamCheckpoint {
            state: self.partitioner().snapshot_state(),
            runner: self.scalars(),
            timeline: self.timeline().to_vec(),
            tail: DeltaLog::new(),
        }
    }

    /// Rebuilds a runner from a checkpoint: restores the snapshot state,
    /// then re-ingests the write-ahead tail through the normal
    /// deterministic path.
    ///
    /// The result is byte-identical (timeline, partitioning, cut, graph —
    /// everything but `wall_ms`) to the runner that produced the
    /// checkpoint, and its future behaviour is byte-identical to an
    /// uninterrupted run's. To continue pulling from a stream, reconstruct
    /// the source with its original arguments and fast-forward it to
    /// [`StreamCheckpoint::cursor`].
    pub fn resume(checkpoint: StreamCheckpoint) -> StreamingRunner {
        let StreamCheckpoint {
            state,
            runner,
            timeline,
            tail,
        } = checkpoint;
        let mut runner = StreamingRunner::from_checkpoint_parts(
            AdaptivePartitioner::restore(state),
            runner,
            timeline,
        );
        // Restore saturates the changed-slot set (its base is unknown in
        // general), but here the base is exact: the restored state *is*
        // the checkpoint's snapshot, so nothing has changed relative to it
        // yet. Clear, which starts the journal, before the tail replay
        // re-marks and journals the tail's churn.
        runner.partitioner_mut().clear_changed();
        for batch in tail.into_batches() {
            runner.ingest(&batch);
        }
        runner
    }
}

#[cfg(test)]
mod tests {
    use super::super::growth_runner;
    use super::*;
    use crate::AdaptiveConfig;
    use apg_partition::{CapacityModel, InitialStrategy};
    use apg_streams::{RestartableSource, StreamSource};

    #[test]
    fn checkpoint_bytes_round_trip() {
        let (mut runner, mut source) = growth_runner(1);
        runner.drive(&mut source, 3);
        let mut ckpt = runner.checkpoint();
        let batch = source.next_batch().unwrap();
        runner.ingest(&batch);
        ckpt.append(batch);
        let back = StreamCheckpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(back, ckpt);
        assert_eq!(back.cursor(), apg_streams::SourceCursor::at(4));
    }

    #[test]
    fn resume_reproduces_the_runner_exactly() {
        let (mut runner, mut source) = growth_runner(1);
        runner.drive(&mut source, 2);
        let mut ckpt = runner.checkpoint();
        for _ in 0..3 {
            let batch = source.next_batch().unwrap();
            runner.ingest(&batch);
            ckpt.append(batch);
        }
        let mut resumed =
            StreamingRunner::resume(StreamCheckpoint::from_bytes(&ckpt.to_bytes()).unwrap());
        assert_eq!(resumed.timeline(), runner.timeline());
        assert_eq!(resumed.partitioner().graph(), runner.partitioner().graph());
        assert_eq!(
            resumed.partitioner().partitioning(),
            runner.partitioner().partitioning()
        );
        assert_eq!(
            resumed.partitioner().cut_edges(),
            runner.partitioner().cut_edges()
        );
        assert_eq!(
            resumed.partitioner().iteration(),
            runner.partitioner().iteration()
        );
        resumed.partitioner().audit();

        // The futures agree too.
        let mut source2 = {
            let base = DynGraph::with_vertices(200);
            apg_streams::PowerLawGrowth::new(&base, 3, 40, 11)
        };
        source2.fast_forward(ckpt_cursor_of(&resumed));
        let batch = source.next_batch().unwrap();
        assert_eq!(source2.next_batch().unwrap(), batch);
        assert_eq!(resumed.ingest(&batch), runner.ingest(&batch));
    }

    fn ckpt_cursor_of(runner: &StreamingRunner) -> apg_streams::SourceCursor {
        // `batches_ingested`, not `timeline().len()`: with a bounded window
        // the retained timeline is shorter than the stream position.
        apg_streams::SourceCursor::at(runner.batches_ingested() as u64)
    }

    #[test]
    fn state_decoder_rejects_a_short_assignment() {
        let cfg = AdaptiveConfig::builder(3).build().unwrap();
        let graph = DynGraph::with_vertices(5);
        let p = AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &cfg, 1);
        let mut state = p.snapshot_state();
        state.partitioning = Partitioning::new(3, 3);
        assert!(matches!(
            PartitionerState::from_bytes(&state.to_bytes()).unwrap_err(),
            DecodeError::Corrupt("assignment does not cover the graph's slots")
        ));
    }

    #[test]
    fn fixed_capacities_survive_the_trip() {
        let graph = DynGraph::with_vertices(60);
        let cfg = AdaptiveConfig::builder(3).build().unwrap();
        let mut p = AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &cfg, 5);
        let caps = CapacityModel::vertex_balanced(60, 3, 1.5);
        p.set_fixed_capacities(caps.clone());
        let state = PartitionerState::from_bytes(&p.snapshot_state().to_bytes()).unwrap();
        assert_eq!(state.scalars.fixed_capacities.as_ref(), Some(&caps));
        let restored = AdaptivePartitioner::restore(state);
        assert_eq!(restored.capacities(), caps);
    }

    #[test]
    fn timeline_decode_requires_dense_batch_indices() {
        let (mut runner, mut source) = growth_runner(1);
        runner.drive(&mut source, 2);
        let mut ckpt = runner.checkpoint();
        ckpt.timeline[1].batch = 7;
        assert!(matches!(
            StreamCheckpoint::from_bytes(&ckpt.to_bytes()).unwrap_err(),
            DecodeError::Corrupt("timeline batch indices not dense")
        ));
    }
}
