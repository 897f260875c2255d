//! Restartable streams: checkpoints as `(snapshot, delta-log tail)`,
//! delta-encoded against a durable base, and the file-backed store that
//! installs them.
//!
//! This is the top of the workspace's durable-state stack (`apg-persist`
//! holds the codec, `apg-graph`/`apg-partition` the substrate codecs). The
//! unit of durability is the [`StreamCheckpoint`]:
//!
//! * a **snapshot** — the full logical state of a [`StreamingRunner`] at
//!   some batch boundary ([`PartitionerState`] + the runner's
//!   [`RunnerScalars`] + the timeline so far), and
//! * a **tail** — the [`DeltaLog`] of batches ingested *after* the
//!   snapshot was taken (the write-ahead segment).
//!
//! The operating loop writes the snapshot rarely and appends each ingested
//! batch to the tail (O(batch)). A snapshot is O(state): graph plus
//! assignment plus the *retained* [`TimelineStats`] suffix. With a bounded
//! [`StreamingRunner::timeline_window`] the suffix is O(window) — evicted
//! entries are folded into a rolling FNV-1a digest
//! ([`fold_timeline_digest`]), and
//! the checkpoint carries `(window, batches_ingested, digest)` so the full
//! history stays pinned byte-for-byte without being stored. With the
//! default unbounded window the whole history is retained, exactly as
//! before format v3. After a crash,
//! [`StreamingRunner::resume`] rebuilds the runner from the snapshot and
//! re-ingests the tail; because ingestion and the decision sweep are
//! deterministic, the resumed runner's [`TimelineStats`] timeline — and
//! every future batch it processes — is byte-identical to an uninterrupted
//! run's (`wall_ms` aside). Recovery time is bounded by taking a fresh
//! snapshot, which empties the tail; on disk the one mechanism that folds
//! history into a snapshot is the [`CheckpointStore`]'s rebase (see
//! [`StoreConfig::max_chain_len`]).
//!
//! A decoded [`AdaptiveConfig`] passes [`AdaptiveConfig::validate`], the
//! builder's own rule set, so whatever builds can be recovered and whatever
//! decodes could have been built; every field of it is on the wire.
//!
//! The stream *source* is not persisted: every `apg-streams` source is a
//! pure function of its constructor arguments, so the checkpoint only
//! records the [`SourceCursor`] — reconstruct the source with the same
//! arguments and [`RestartableSource::fast_forward`] to the cursor.
//!
//! [`RestartableSource::fast_forward`]: apg_streams::RestartableSource::fast_forward
//! [`StreamingRunner`]: crate::StreamingRunner
//! [`StreamingRunner::timeline_window`]: crate::StreamingRunner::timeline_window
//! [`StreamingRunner::resume`]: crate::StreamingRunner::resume
//! [`DeltaLog`]: apg_graph::DeltaLog
//! [`TimelineStats`]: crate::TimelineStats
//! [`fold_timeline_digest`]: crate::fold_timeline_digest
//! [`StoreConfig::max_chain_len`]: crate::StoreConfig::max_chain_len
//! [`AdaptiveConfig`]: crate::AdaptiveConfig
//! [`AdaptiveConfig::validate`]: crate::AdaptiveConfig::validate
//! [`SourceCursor`]: apg_streams::SourceCursor
//!
//! # Example
//!
//! ```
//! use apg_core::{AdaptiveConfig, AdaptivePartitioner, StreamingRunner};
//! use apg_core::persist::StreamCheckpoint;
//! use apg_graph::DynGraph;
//! use apg_partition::InitialStrategy;
//! use apg_streams::{PowerLawGrowth, RestartableSource, StreamSource};
//!
//! let base = DynGraph::with_vertices(100);
//! let cfg = AdaptiveConfig::builder(4).parallelism(1).build().unwrap();
//! let p = AdaptivePartitioner::with_strategy(&base, InitialStrategy::Hash, &cfg, 7);
//! let mut runner = StreamingRunner::new(p).iterations_per_batch(2);
//! let mut source = PowerLawGrowth::new(&base, 3, 25, 7);
//!
//! // Process four batches, checkpointing after two.
//! let mut ckpt = None;
//! for i in 0..4 {
//!     let batch = source.next_batch().unwrap();
//!     runner.ingest(&batch);
//!     match &mut ckpt {
//!         None if i == 1 => ckpt = Some(runner.checkpoint()),
//!         Some(c) => c.append(batch), // write-ahead the tail
//!         None => {}
//!     }
//! }
//! let bytes = ckpt.unwrap().to_bytes(); // what would hit disk
//!
//! // "Crash": rebuild everything from the bytes.
//! let ckpt = StreamCheckpoint::from_bytes(&bytes).unwrap();
//! let mut source2 = PowerLawGrowth::new(&base, 3, 25, 7);
//! source2.fast_forward(ckpt.cursor());
//! let mut resumed = StreamingRunner::resume(ckpt);
//! assert_eq!(resumed.timeline(), runner.timeline());
//!
//! // Both runs continue identically.
//! let next = source.next_batch().unwrap();
//! assert_eq!(source2.next_batch().unwrap(), next);
//! assert_eq!(resumed.ingest(&next), runner.ingest(&next));
//! ```
//!
//! # Layout
//!
//! One file per value on the path from a live runner to a durable root
//! (view → delta → install): `codec` (wire codecs), `checkpoint`
//! ([`StreamCheckpoint`], [`CheckpointView`] — the one `APGC` encoder —
//! capture and resume), `delta` ([`CheckpointDelta`] and its
//! [`DeltaBase`]) and `store` ([`CheckpointStore`]). The nine persisted
//! scalars are declared once, in [`PartitionerScalars`] and
//! [`RunnerScalars`]; every container holds the two blocks by value, each
//! written as one contiguous run of bytes. The batches themselves are
//! durable once, in the tail: no container keeps a second replay log.
//! Nothing keeps a second graph either: the partitioner journals what
//! each slot was before its first change since the durable root, and
//! journal pre-images plus the live state equal that root.

mod checkpoint;
mod codec;
mod delta;
mod store;

pub use crate::partitioner::PartitionerScalars;
pub use crate::streaming::RunnerScalars;
pub use checkpoint::{CheckpointView, PartitionerState, StreamCheckpoint};
pub use delta::{CheckpointDelta, DeltaBase};
pub use store::{CheckpointStore, InstallReport, RecoveredCheckpoint};

/// The runner the in-file tests share: power-law growth from 200 isolated
/// vertices, two iterations per batch.
#[cfg(test)]
pub(crate) fn growth_runner(
    parallelism: usize,
) -> (crate::StreamingRunner, apg_streams::PowerLawGrowth) {
    use apg_partition::InitialStrategy;
    let base = apg_graph::DynGraph::with_vertices(200);
    let cfg = crate::AdaptiveConfig::builder(4)
        .parallelism(parallelism)
        .build()
        .unwrap();
    let p = crate::AdaptivePartitioner::with_strategy(&base, InitialStrategy::Hash, &cfg, 11);
    let runner = crate::StreamingRunner::new(p).iterations_per_batch(2);
    let source = apg_streams::PowerLawGrowth::new(&base, 3, 40, 11);
    (runner, source)
}
