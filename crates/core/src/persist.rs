//! Restartable streams: checkpoints as `(snapshot, delta-log tail)`,
//! delta-encoded against a durable base, and the file-backed store that
//! installs them.
//!
//! This is the top of the workspace's durable-state stack (`apg-persist`
//! holds the codec, `apg-graph`/`apg-partition` the substrate codecs). The
//! unit of durability is the [`StreamCheckpoint`]:
//!
//! * a **snapshot** — the full logical state of a [`StreamingRunner`] at
//!   some batch boundary ([`PartitionerState`] + runner settings + the
//!   timeline and recorded log so far), and
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

use apg_graph::{DeltaLog, DynGraph, Graph, GraphDiff, UpdateBatch};
use apg_partition::{CapacityModel, PartitionId, Partitioning};
use apg_persist::store::{SegmentStore, StoreConfig, StoreError};
use apg_persist::{decode_len, format, Decode, DecodeError, Decoder, Encode, Encoder};
use apg_streams::SourceCursor;

use crate::config::{AdaptiveConfig, Anneal, ConfigError, PlacementPolicy, QuotaRule};
use crate::partitioner::AdaptivePartitioner;
use crate::streaming::{
    fold_timeline_digest, StreamingRunner, TimelineStats, TIMELINE_DIGEST_SEED,
};

/// The complete logical state of an [`AdaptivePartitioner`], as captured
/// by [`AdaptivePartitioner::snapshot_state`].
///
/// Holds exactly the fields the determinism contract needs (the iteration
/// counter keys the per-shard RNG streams) and none of the derived
/// accounting (cut, degree mass), which restore recomputes.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionerState {
    /// The graph, tombstone slots included (ids stay dense on restore).
    pub graph: DynGraph,
    /// Assignment and live sizes.
    pub partitioning: Partitioning,
    /// Full configuration, `parallelism` included (results are identical
    /// at every parallelism level, so restoring it is a wall-clock choice,
    /// not a correctness one).
    pub config: AdaptiveConfig,
    /// RNG seed.
    pub seed: u64,
    /// Iterations executed so far (keys the RNG streams and the anneal
    /// schedule).
    pub iteration: usize,
    /// Consecutive migration-free iterations.
    pub quiet_streak: usize,
    /// Explicit capacity limits, if the automatic tracking was overridden.
    pub fixed_capacities: Option<CapacityModel>,
}

impl Encode for QuotaRule {
    fn encode(&self, enc: &mut Encoder) {
        let tag: u8 = match self {
            QuotaRule::PerSourceSplit => 0,
            QuotaRule::Unbounded => 1,
        };
        tag.encode(enc);
    }
}

impl Decode for QuotaRule {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match u8::decode(dec)? {
            0 => Ok(QuotaRule::PerSourceSplit),
            1 => Ok(QuotaRule::Unbounded),
            _ => Err(DecodeError::Corrupt("unknown QuotaRule tag")),
        }
    }
}

impl Encode for PlacementPolicy {
    fn encode(&self, enc: &mut Encoder) {
        let tag: u8 = match self {
            PlacementPolicy::HashWithFallback => 0,
            PlacementPolicy::LeastLoaded => 1,
        };
        tag.encode(enc);
    }
}

impl Decode for PlacementPolicy {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match u8::decode(dec)? {
            0 => Ok(PlacementPolicy::HashWithFallback),
            1 => Ok(PlacementPolicy::LeastLoaded),
            _ => Err(DecodeError::Corrupt("unknown PlacementPolicy tag")),
        }
    }
}

impl Encode for Anneal {
    fn encode(&self, enc: &mut Encoder) {
        self.start.encode(enc);
        self.end.encode(enc);
        self.over_iterations.encode(enc);
    }
}

impl Decode for Anneal {
    /// Field-wise only: the endpoint ranges are
    /// [`AdaptiveConfig::validate`]'s to check, with every other rule.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Anneal {
            start: f64::decode(dec)?,
            end: f64::decode(dec)?,
            over_iterations: usize::decode(dec)?,
        })
    }
}

impl Encode for AdaptiveConfig {
    /// Destructures exhaustively, so a field that is not put on the wire
    /// does not compile.
    fn encode(&self, enc: &mut Encoder) {
        let AdaptiveConfig {
            num_partitions,
            willingness,
            capacity_factor,
            convergence_window,
            max_iterations,
            quota_rule,
            placement,
            anneal,
            balance_edges,
            count_self,
            parallelism,
            drain_floor,
        } = self;
        num_partitions.encode(enc);
        willingness.encode(enc);
        capacity_factor.encode(enc);
        convergence_window.encode(enc);
        max_iterations.encode(enc);
        quota_rule.encode(enc);
        placement.encode(enc);
        anneal.encode(enc);
        balance_edges.encode(enc);
        count_self.encode(enc);
        parallelism.encode(enc);
        drain_floor.encode(enc);
    }
}

/// A decoded configuration that [`AdaptiveConfig::validate`] rejects is a
/// corrupt one: nothing the builder accepts encodes to it.
impl From<ConfigError> for DecodeError {
    fn from(violation: ConfigError) -> Self {
        DecodeError::Corrupt(match violation {
            ConfigError::ZeroPartitions => "config has zero partitions",
            ConfigError::WillingnessOutOfRange(_) => "willingness outside [0, 1]",
            ConfigError::CapacityFactorBelowOne(_) => "capacity factor not finite or below 1.0",
            ConfigError::ZeroParallelism => "config has zero parallelism",
            ConfigError::DrainFloorOutOfRange(_) => "drain floor outside [0, 1)",
            ConfigError::AnnealOutOfRange { .. } => "anneal endpoint outside [0, 1]",
        })
    }
}

impl Decode for AdaptiveConfig {
    /// Applies the builder's own rule set ([`AdaptiveConfig::validate`]),
    /// returning its violations as [`DecodeError::Corrupt`].
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let config = AdaptiveConfig {
            num_partitions: u16::decode(dec)?,
            willingness: f64::decode(dec)?,
            capacity_factor: f64::decode(dec)?,
            convergence_window: usize::decode(dec)?,
            max_iterations: usize::decode(dec)?,
            quota_rule: QuotaRule::decode(dec)?,
            placement: PlacementPolicy::decode(dec)?,
            anneal: Option::<Anneal>::decode(dec)?,
            balance_edges: bool::decode(dec)?,
            count_self: bool::decode(dec)?,
            parallelism: usize::decode(dec)?,
            drain_floor: f64::decode(dec)?,
        };
        config.validate()?;
        Ok(config)
    }
}

impl Encode for TimelineStats {
    fn encode(&self, enc: &mut Encoder) {
        for field in self.deterministic_fields() {
            field.encode(enc);
        }
        // Measurement, not state — persisted for reporting, ignored by
        // equality exactly as in memory.
        self.wall_ms.encode(enc);
    }
}

impl Decode for TimelineStats {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(TimelineStats {
            batch: usize::decode(dec)?,
            deltas: usize::decode(dec)?,
            vertices_added: usize::decode(dec)?,
            vertices_removed: usize::decode(dec)?,
            edges_added: usize::decode(dec)?,
            edges_removed: usize::decode(dec)?,
            cut_before: usize::decode(dec)?,
            cut_after_ingest: usize::decode(dec)?,
            cut_after: usize::decode(dec)?,
            migrations: usize::decode(dec)?,
            iterations: usize::decode(dec)?,
            live_vertices: usize::decode(dec)?,
            num_edges: usize::decode(dec)?,
            wall_ms: f64::decode(dec)?,
        })
    }
}

impl Encode for PartitionerState {
    fn encode(&self, enc: &mut Encoder) {
        self.graph.encode(enc);
        self.partitioning.encode(enc);
        self.config.encode(enc);
        self.seed.encode(enc);
        self.iteration.encode(enc);
        self.quiet_streak.encode(enc);
        self.fixed_capacities.encode(enc);
    }
}

impl PartitionerState {
    /// Cross-field invariants (assignment covering the graph, matching
    /// partition counts, size table equal to a live recount) — shared by
    /// the binary decoder and the incremental-checkpoint apply path, so
    /// [`AdaptivePartitioner::restore`] can never panic on reconstituted
    /// state regardless of how it was built.
    pub(crate) fn validate(&self) -> Result<(), DecodeError> {
        if self.partitioning.num_vertices() != self.graph.num_vertices() {
            return Err(DecodeError::Corrupt(
                "assignment does not cover the graph's slots",
            ));
        }
        if self.partitioning.num_partitions() != self.config.num_partitions {
            return Err(DecodeError::Corrupt(
                "assignment and config disagree on the partition count",
            ));
        }
        if let Some(caps) = &self.fixed_capacities {
            if caps.num_partitions() != self.config.num_partitions {
                return Err(DecodeError::Corrupt(
                    "capacity table and config disagree on the partition count",
                ));
            }
        }
        // The partitioning's size table must equal a recount over the live
        // vertices: [`AdaptivePartitioner::restore`]'s audit asserts this,
        // so a validator that skipped it would turn corrupt (but
        // individually well-formed) fields into a downstream panic.
        let mut live_sizes = vec![0usize; usize::from(self.config.num_partitions)];
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
            config: AdaptiveConfig::decode(dec)?,
            seed: u64::decode(dec)?,
            iteration: usize::decode(dec)?,
            quiet_streak: usize::decode(dec)?,
            fixed_capacities: Option::<CapacityModel>::decode(dec)?,
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
    /// The runner's per-batch iteration budget.
    pub iterations_per_batch: usize,
    /// Whether the runner records its ingested batches into a replay log.
    pub record: bool,
    /// The runner's recorded replay log at the snapshot boundary (empty
    /// unless recording was enabled).
    pub log: DeltaLog,
    /// The runner's timeline retention cap (`usize::MAX` = unbounded).
    pub timeline_window: usize,
    /// Batches the runner had ingested at the snapshot boundary — the
    /// authoritative stream position ([`StreamCheckpoint::cursor`] derives
    /// from this, *not* from `timeline.len()`, which under-counts once the
    /// window evicts entries).
    pub batches_ingested: usize,
    /// Rolling FNV-1a digest over the timeline entries evicted before the
    /// snapshot ([`TIMELINE_DIGEST_SEED`] when nothing was evicted).
    ///
    /// [`TIMELINE_DIGEST_SEED`]: crate::streaming::TIMELINE_DIGEST_SEED
    pub timeline_digest: u64,
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
    /// Derived from the explicit [`batches_ingested`] counter: with a
    /// bounded timeline window, `timeline.len()` only counts the retained
    /// suffix and would silently reposition the source too early.
    ///
    /// [`batches_ingested`]: StreamCheckpoint::batches_ingested
    pub fn cursor(&self) -> SourceCursor {
        SourceCursor::at((self.batches_ingested + self.tail.len()) as u64)
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
    /// built (decoded whole, or reconstituted by [`CheckpointDelta::apply`]):
    /// the timeline-window bookkeeping and the partitioner-state
    /// cross-checks.
    pub(crate) fn validate(&self) -> Result<(), DecodeError> {
        if self.timeline_window == 0 {
            return Err(DecodeError::Corrupt("timeline window is zero"));
        }
        if self.timeline.len() > self.batches_ingested {
            return Err(DecodeError::Corrupt(
                "timeline longer than the batches-ingested counter",
            ));
        }
        if self.timeline.len() > self.timeline_window {
            return Err(DecodeError::Corrupt("timeline overflows its window"));
        }
        let evicted = self.batches_ingested - self.timeline.len();
        if evicted > 0 {
            // The runner evicts only on window overflow, so once anything
            // has been evicted the retained suffix fills the window
            // exactly; a shorter suffix is unreachable from a real runner.
            if self.timeline.len() != self.timeline_window {
                return Err(DecodeError::Corrupt(
                    "timeline shorter than both its window and the ingest counter",
                ));
            }
        } else if self.timeline_digest != TIMELINE_DIGEST_SEED {
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
        self.state.encode(enc);
        self.iterations_per_batch.encode(enc);
        self.record.encode(enc);
        self.log.encode(enc);
        self.timeline_window.encode(enc);
        self.batches_ingested.encode(enc);
        self.timeline_digest.encode(enc);
        self.timeline.encode(enc);
        self.tail.encode(enc);
    }
}

impl Decode for StreamCheckpoint {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let state = PartitionerState::decode(dec)?;
        let iterations_per_batch = usize::decode(dec)?;
        let record = bool::decode(dec)?;
        let log = DeltaLog::decode(dec)?;
        let timeline_window = usize::decode(dec)?;
        let batches_ingested = usize::decode(dec)?;
        let timeline_digest = u64::decode(dec)?;
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
            iterations_per_batch,
            record,
            log,
            timeline_window,
            batches_ingested,
            timeline_digest,
            timeline,
            tail,
        };
        checkpoint.validate()?;
        Ok(checkpoint)
    }
}

/// A delta-encoded checkpoint: the difference between a durable base
/// [`StreamCheckpoint`] and a newer one, `O(changed-state)` on the wire
/// instead of `O(state)`.
///
/// A delta names its base by `(sequence, digest)` — the same link the
/// [`SegmentStore`] records file-to-file — and carries exactly what moved
/// since: the [`GraphDiff`] over the mutation-tracked changed slots, label
/// records for re-assigned slots, the recorded-log suffix, and the
/// timeline window's slide (dropped-entry count + new entries). Small
/// scalars (config, seed, counters, the `O(k)` size table) ride along in
/// full — they are a rounding error next to the graph. Applying a delta to
/// its base ([`CheckpointDelta::apply`]) reproduces the newer checkpoint
/// **byte-identically**, which is what lets a recovery replay
/// base-plus-chain and land exactly where a full snapshot would have.
///
/// Serialised as a framed `APGD` container
/// ([`format::MAGIC_DELTA`]); deltas are decoded from disk, so
/// `apply` validates everything — structurally via
/// [`GraphDiff::validate_against`], and end-to-end via
/// `StreamCheckpoint::validate` — before any state escapes.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointDelta {
    /// Store sequence number of the base this delta chains to.
    pub base_seq: u64,
    /// FNV-1a digest of the base's durable frame payload (must match the
    /// store's link; see [`SegmentStore::root_digest`]).
    pub base_digest: u64,
    /// Structural graph changes since the base.
    pub graph: GraphDiff,
    /// `(slot, label)` records, strictly ascending by slot: every slot
    /// whose assignment changed, plus every newborn slot (whose label the
    /// base cannot know).
    pub labels: Vec<(usize, PartitionId)>,
    /// The full live-size table of the final state (`O(k)`).
    pub sizes: Vec<usize>,
    /// Final configuration, carried in full.
    pub config: AdaptiveConfig,
    /// RNG seed (never changes mid-stream, but carried for self-containment).
    pub seed: u64,
    /// Final iteration counter.
    pub iteration: usize,
    /// Final quiet streak.
    pub quiet_streak: usize,
    /// Final fixed capacities, if any.
    pub fixed_capacities: Option<CapacityModel>,
    /// Final per-batch iteration budget.
    pub iterations_per_batch: usize,
    /// Final recording flag.
    pub record: bool,
    /// Length the base's recorded log must have — the suffix below chains
    /// at exactly this offset.
    pub base_log_len: usize,
    /// Recorded-log batches appended since the base.
    pub log_suffix: DeltaLog,
    /// How many of the base's retained timeline entries the window slid
    /// past (dropped from the front).
    pub timeline_dropped: usize,
    /// Timeline entries newer than the base's coverage.
    pub timeline_new: Vec<TimelineStats>,
    /// Final timeline window (carried verbatim).
    pub timeline_window: usize,
    /// Final stream position.
    pub batches_ingested: usize,
    /// Final evicted-entry digest. Re-derived from the base's digest and
    /// the dropped entries whenever the drop fully accounts for the
    /// eviction gap; carried verbatim otherwise (entries that were born
    /// *and* evicted between the two checkpoints exist in neither).
    pub timeline_digest: u64,
    /// Write-ahead tail (empty for store-installed deltas: the store's
    /// segments carry the tail).
    pub tail: DeltaLog,
}

/// Everything a checkpoint captures, borrowed: the *current* side of
/// [`CheckpointDelta::between`]. Both a captured [`StreamCheckpoint`] and
/// a live [`StreamingRunner`] convert into one, so a delta is diffed
/// straight from the runner's state without first cloning it into a
/// checkpoint.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointView<'a> {
    graph: &'a DynGraph,
    partitioning: &'a Partitioning,
    config: &'a AdaptiveConfig,
    seed: u64,
    iteration: usize,
    quiet_streak: usize,
    fixed_capacities: Option<&'a CapacityModel>,
    iterations_per_batch: usize,
    record: bool,
    log: &'a DeltaLog,
    timeline_window: usize,
    batches_ingested: usize,
    timeline_digest: u64,
    timeline: &'a [TimelineStats],
    tail: &'a [UpdateBatch],
}

impl<'a> From<&'a StreamCheckpoint> for CheckpointView<'a> {
    fn from(ckpt: &'a StreamCheckpoint) -> Self {
        CheckpointView {
            graph: &ckpt.state.graph,
            partitioning: &ckpt.state.partitioning,
            config: &ckpt.state.config,
            seed: ckpt.state.seed,
            iteration: ckpt.state.iteration,
            quiet_streak: ckpt.state.quiet_streak,
            fixed_capacities: ckpt.state.fixed_capacities.as_ref(),
            iterations_per_batch: ckpt.iterations_per_batch,
            record: ckpt.record,
            log: &ckpt.log,
            timeline_window: ckpt.timeline_window,
            batches_ingested: ckpt.batches_ingested,
            timeline_digest: ckpt.timeline_digest,
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
            config: partitioner.config(),
            seed: partitioner.seed(),
            iteration: partitioner.iteration(),
            quiet_streak: partitioner.quiet_streak(),
            fixed_capacities: partitioner.fixed_capacities(),
            iterations_per_batch: runner.iterations_budget(),
            record: runner.records_log(),
            log: runner.log(),
            timeline_window: runner.timeline_window_len(),
            batches_ingested: runner.batches_ingested(),
            timeline_digest: runner.timeline_digest(),
            timeline: runner.timeline(),
            tail: &[],
        }
    }
}

impl CheckpointDelta {
    /// Encodes `current` — a [`StreamCheckpoint`] or a live
    /// [`StreamingRunner`], by reference — against `base`, given the
    /// ascending changed-slot superset the mutation paths tracked (see
    /// [`AdaptivePartitioner::changed_slots`]) and the store link
    /// `(base_seq, base_digest)` of the durable base.
    /// `O(changed slots × degree)` plus the `O(k)`/`O(window)` members;
    /// nothing `O(graph)` is read or copied.
    ///
    /// Returns `None` when `current` is not reachable from `base` by
    /// append-only growth — the recorded log is not an extension of the
    /// base's, the timeline's retained base suffix was rewritten, or the
    /// slot space shrank. Callers fall back to a full snapshot install;
    /// `None` is a policy signal, not an error.
    pub fn between<'a>(
        base: &StreamCheckpoint,
        current: impl Into<CheckpointView<'a>>,
        changed: &[usize],
        base_seq: u64,
        base_digest: u64,
    ) -> Option<CheckpointDelta> {
        let current: CheckpointView<'a> = current.into();
        let base_n = base.state.graph.num_vertices();
        let cur_n = current.graph.num_vertices();
        if cur_n < base_n || current.batches_ingested < base.batches_ingested {
            return None;
        }
        // The recorded log only ever appends; anything else (a toggled
        // `record`) breaks the chain.
        if base.log.len() > current.log.len()
            || base.log.batches() != &current.log.batches()[..base.log.len()]
        {
            return None;
        }
        // The timeline slides forward: entries the window still retains
        // from the base must reappear verbatim at the front of `current`.
        let base_evicted = base.batches_ingested - base.timeline.len();
        let cur_evicted = current.batches_ingested - current.timeline.len();
        if cur_evicted < base_evicted {
            return None;
        }
        let keep = base
            .batches_ingested
            .saturating_sub(cur_evicted)
            .min(base.timeline.len());
        let dropped = base.timeline.len() - keep;
        if current.timeline.len() < keep || base.timeline[dropped..] != current.timeline[..keep] {
            return None;
        }
        let graph = GraphDiff::between(&base.state.graph, current.graph, changed);
        // Label records: every tracked slot whose assignment moved, plus
        // newborns (merged in exactly as `GraphDiff::between` does).
        let base_assign = base.state.partitioning.as_slice();
        let cur_assign = current.partitioning.as_slice();
        let mut labels = Vec::new();
        let mut push_label = |slot: usize| {
            if slot >= base_n || base_assign[slot] != cur_assign[slot] {
                labels.push((slot, cur_assign[slot]));
            }
        };
        let mut newborn = base_n..cur_n;
        let mut next_newborn = newborn.next();
        for &slot in changed {
            while let Some(nb) = next_newborn {
                if nb >= slot {
                    break;
                }
                push_label(nb);
                next_newborn = newborn.next();
            }
            if next_newborn == Some(slot) {
                next_newborn = newborn.next();
            }
            push_label(slot);
        }
        while let Some(nb) = next_newborn {
            push_label(nb);
            next_newborn = newborn.next();
        }
        Some(CheckpointDelta {
            base_seq,
            base_digest,
            graph,
            labels,
            sizes: current.partitioning.sizes().to_vec(),
            config: current.config.clone(),
            seed: current.seed,
            iteration: current.iteration,
            quiet_streak: current.quiet_streak,
            fixed_capacities: current.fixed_capacities.cloned(),
            iterations_per_batch: current.iterations_per_batch,
            record: current.record,
            base_log_len: base.log.len(),
            log_suffix: DeltaLog::from(current.log.batches()[base.log.len()..].to_vec()),
            timeline_dropped: dropped,
            timeline_new: current.timeline[keep..].to_vec(),
            timeline_window: current.timeline_window,
            batches_ingested: current.batches_ingested,
            timeline_digest: current.timeline_digest,
            tail: DeltaLog::from(current.tail.to_vec()),
        })
    }

    /// Turns `base` into the checkpoint this delta encodes. The base is
    /// consumed and patched in place — graph slots, log and timeline are
    /// edited, never cloned — so replaying a chain costs one base plus the
    /// changes, however many links it has.
    ///
    /// Every invariant is validated before the result escapes: the graph
    /// diff against the base graph, label/size consistency, log chaining,
    /// the timeline slide and its digest, and finally the full
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
            mut log,
            batches_ingested: base_ingested,
            timeline_digest: base_digest,
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
        // Log: the suffix chains at exactly the base's recorded length.
        if self.base_log_len != log.len() {
            return Err(DecodeError::Corrupt(
                "delta log suffix does not chain to the base log",
            ));
        }
        for batch in self.log_suffix.batches() {
            log.record(batch.clone());
        }
        // Timeline: slide the base window, then append the new entries.
        if self.timeline_dropped > timeline.len() {
            return Err(DecodeError::Corrupt(
                "delta drops more timeline entries than the base retains",
            ));
        }
        let base_evicted = base_ingested - timeline.len();
        // The digest the dropped entries fold to — what the delta must
        // carry when they fully account for the eviction gap (below).
        let slid_digest = timeline
            .drain(..self.timeline_dropped)
            .fold(base_digest, |digest, stats| {
                fold_timeline_digest(digest, &stats)
            });
        timeline.extend(self.timeline_new.iter().cloned());
        let cur_evicted =
            self.batches_ingested
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
            && slid_digest != self.timeline_digest
        {
            return Err(DecodeError::Corrupt(
                "delta timeline digest does not extend the base's",
            ));
        }
        let checkpoint = StreamCheckpoint {
            state: PartitionerState {
                graph,
                partitioning,
                config: self.config.clone(),
                seed: self.seed,
                iteration: self.iteration,
                quiet_streak: self.quiet_streak,
                fixed_capacities: self.fixed_capacities.clone(),
            },
            iterations_per_batch: self.iterations_per_batch,
            record: self.record,
            log,
            timeline_window: self.timeline_window,
            batches_ingested: self.batches_ingested,
            timeline_digest: self.timeline_digest,
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
        self.config.encode(enc);
        self.seed.encode(enc);
        self.iteration.encode(enc);
        self.quiet_streak.encode(enc);
        self.fixed_capacities.encode(enc);
        self.iterations_per_batch.encode(enc);
        self.record.encode(enc);
        self.base_log_len.encode(enc);
        self.log_suffix.encode(enc);
        self.timeline_dropped.encode(enc);
        self.timeline_new.encode(enc);
        self.timeline_window.encode(enc);
        self.batches_ingested.encode(enc);
        self.timeline_digest.encode(enc);
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
        Ok(CheckpointDelta {
            base_seq,
            base_digest,
            graph,
            labels,
            sizes: Vec::decode(dec)?,
            config: AdaptiveConfig::decode(dec)?,
            seed: u64::decode(dec)?,
            iteration: usize::decode(dec)?,
            quiet_streak: usize::decode(dec)?,
            fixed_capacities: Option::decode(dec)?,
            iterations_per_batch: usize::decode(dec)?,
            record: bool::decode(dec)?,
            base_log_len: usize::decode(dec)?,
            log_suffix: DeltaLog::decode(dec)?,
            timeline_dropped: usize::decode(dec)?,
            timeline_new: Vec::decode(dec)?,
            timeline_window: usize::decode(dec)?,
            batches_ingested: usize::decode(dec)?,
            timeline_digest: u64::decode(dec)?,
            tail: DeltaLog::decode(dec)?,
        })
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
        self.checkpoint_with_graph(self.partitioner().graph().clone())
    }

    /// [`StreamingRunner::checkpoint`] around a graph copy the caller
    /// supplies, which must equal the live graph: everything else — the
    /// `O(V)` assignment, the `O(window)` timeline, the log, the scalars —
    /// is captured afresh.
    fn checkpoint_with_graph(&self, graph: DynGraph) -> StreamCheckpoint {
        StreamCheckpoint {
            state: self.partitioner().snapshot_state_with_graph(graph),
            iterations_per_batch: self.iterations_budget(),
            record: self.records_log(),
            log: self.log().clone(),
            timeline_window: self.timeline_window_len(),
            batches_ingested: self.batches_ingested(),
            timeline_digest: self.timeline_digest(),
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
            iterations_per_batch,
            record,
            log,
            timeline_window,
            batches_ingested,
            timeline_digest,
            timeline,
            tail,
        } = checkpoint;
        let mut runner = StreamingRunner::from_checkpoint_parts(
            AdaptivePartitioner::restore(state),
            iterations_per_batch,
            record,
            log,
            timeline,
            timeline_window,
            batches_ingested,
            timeline_digest,
        );
        // Restore saturates the changed-slot set (its base is unknown in
        // general), but here the base is exact: the restored state *is*
        // the checkpoint's snapshot, so nothing has changed relative to it
        // yet. Clear before the tail replay re-marks the tail's churn.
        runner.partitioner_mut().clear_changed();
        for batch in tail.into_batches() {
            runner.ingest(&batch);
        }
        runner
    }
}

/// A [`StreamCheckpoint`] recovered from disk by [`CheckpointStore::open`].
#[derive(Debug)]
pub struct RecoveredCheckpoint {
    /// The durable checkpoint — the manifest-named snapshot with every
    /// durable write-ahead batch re-appended to its tail. `None` when the
    /// directory held no durable snapshot (fresh store).
    pub checkpoint: Option<StreamCheckpoint>,
    /// Write-ahead frames dropped by torn-tail repair (see
    /// [`apg_persist::store::Recovery::torn_frames_dropped`]). The
    /// recovered checkpoint's [`cursor`](StreamCheckpoint::cursor) already
    /// accounts for them: re-drive the source from there.
    pub torn_frames_dropped: usize,
}

/// What one [`CheckpointStore::install`] durably wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstallReport {
    /// Whether the checkpoint was encoded incrementally — a
    /// [`CheckpointDelta`] chained onto the previous root — rather than as
    /// a full snapshot (the first install, a rebase, or a fallback when
    /// the runner's history was not an append-only extension of the base).
    pub incremental: bool,
    /// Serialised payload size in bytes (of the delta or full snapshot).
    pub bytes: usize,
}

/// File-backed durability for a [`StreamingRunner`]: the
/// [`SegmentStore`] with the checkpoint codec wired on top, so the
/// operating loop works with a *directory path* instead of in-memory byte
/// blobs.
///
/// The loop: [`CheckpointStore::install`] rarely, [`CheckpointStore::append`]
/// after every ingested batch (one O(batch) durable frame). Installs are
/// **incremental** whenever possible: the store keeps the chain-head
/// checkpoint in memory as the diff base (advancing it slot by slot as
/// deltas land, never re-cloning it), drains the runner's changed-slot
/// tracking, and writes an `O(changed-state)` [`CheckpointDelta`] chained
/// onto the previous root — falling back to a full snapshot on the first
/// install, when the chain reaches
/// [`StoreConfig::max_chain_len`] (the rebase, which also
/// garbage-collects the superseded chain), or when the runner's history
/// is not an append-only extension of the base. Each install starts a
/// fresh write-ahead segment, which is what bounds recovery time. After a
/// crash, [`CheckpointStore::open`] replays base plus chain and rebuilds
/// the exact `(snapshot, tail)` checkpoint that was durable at the kill
/// point.
#[derive(Debug)]
pub struct CheckpointStore {
    store: SegmentStore,
    /// The decoded chain-head checkpoint (tail-free) — what the next
    /// incremental install diffs against. `None` only on a fresh store
    /// before its first install.
    base: Option<StreamCheckpoint>,
}

impl CheckpointStore {
    /// Opens (or creates) the store in `dir`, recovering whatever was
    /// durable: the root snapshot, every chained delta applied in order,
    /// then the write-ahead tail re-appended.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures, [`StoreError::Corrupt`]
    /// for damaged sealed artefacts (including broken chain links),
    /// [`StoreError::Decode`] when a frame is intact at the store layer
    /// but its payload violates the checkpoint/delta/batch codecs — a
    /// delta that does not apply cleanly to its recovered base lands
    /// here. Never panics on any byte pattern.
    pub fn open(
        dir: &std::path::Path,
        config: StoreConfig,
    ) -> Result<(CheckpointStore, RecoveredCheckpoint), StoreError> {
        let (store, recovery) = SegmentStore::open(dir, config)?;
        let mut head = match recovery.snapshot {
            None => None,
            Some(bytes) => Some(StreamCheckpoint::from_bytes(&bytes)?),
        };
        for payload in &recovery.deltas {
            let delta = CheckpointDelta::from_bytes(payload)?;
            let base = head.ok_or(StoreError::Corrupt(
                "delta chain recovered without a base snapshot",
            ))?;
            head = Some(delta.apply(base)?);
        }
        let checkpoint = match &head {
            None => None,
            Some(head) => {
                let mut ckpt = head.clone();
                for payload in &recovery.tail {
                    ckpt.append(UpdateBatch::from_bytes(payload)?);
                }
                Some(ckpt)
            }
        };
        Ok((
            CheckpointStore { store, base: head },
            RecoveredCheckpoint {
                checkpoint,
                torn_frames_dropped: recovery.torn_frames_dropped,
            },
        ))
    }

    /// Makes `runner`'s state the durable recovery root.
    ///
    /// Writes a chained [`CheckpointDelta`] when a base exists, the chain
    /// is below [`StoreConfig::max_chain_len`], the runner's history
    /// extends the base append-only, and the delta is smaller than the
    /// snapshot it stands in for; otherwise a full snapshot — which is
    /// also the **rebase**: installing it folds the chain away and
    /// garbage-collects the stale files. Either way the manifest flip is
    /// atomic, a fresh write-ahead segment starts, and the runner's
    /// changed-slot tracking is drained so the next install diffs against
    /// exactly this state.
    ///
    /// # Cost
    ///
    /// The delta path is `O(changed slots × degree)` plus the `O(V)`
    /// assignment and `O(window)` timeline: the delta is diffed from the
    /// live runner (no capture), and once it is durable the in-memory base
    /// is advanced by copying only the diff's slots from the live graph.
    /// The "smaller than a full snapshot" guard needs no snapshot either —
    /// a full snapshot spends at least one byte per edge and two per slot,
    /// so a delta under `num_edges + 2 × num_slots` bytes is smaller
    /// without looking; only a delta at or above that floor (wall-to-wall
    /// churn) pays for the exact capture-encode-compare. The full path is
    /// `O(graph)` — capture plus encode — and runs on the first install
    /// and then once per `max_chain_len + 1` installs.
    ///
    /// The in-memory base, whenever one is held, equals the durable root:
    /// it is only replaced or advanced after the store call returned `Ok`
    /// (debug builds re-capture and compare on every install).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`]; on error the previous root stays durable and
    /// the changed-slot tracking is left intact (the failed install never
    /// becomes a diff base). A failed install that had captured the
    /// state — a full one, or one whose delta reached the floor — leaves
    /// no in-memory base (the old one is released before the capture, to
    /// hold one graph copy at a time), so the next install is a full
    /// snapshot.
    pub fn install(&mut self, runner: &mut StreamingRunner) -> Result<InstallReport, StoreError> {
        let mut delta = match (
            self.base.as_ref(),
            self.store.snapshot_seq(),
            self.store.root_digest(),
        ) {
            (Some(base), Some(seq), Some(digest)) if !self.store.needs_rebase() => {
                let changed = runner.partitioner().changed_slots();
                CheckpointDelta::between(base, &*runner, &changed, seq, digest).map(|delta| {
                    let bytes = delta.to_bytes();
                    (delta, bytes)
                })
            }
            _ => None,
        };
        // A delta only earns its chain link by being smaller: when most of
        // the state churned since the base, the per-slot framing makes the
        // delta *larger* than the snapshot it stands in for — install full
        // instead, which also resets the chain for free. Below the floor
        // the delta is smaller than any encoding of this graph; at or
        // above it, capture and compare.
        let graph = runner.partitioner().graph();
        let full_bytes_floor = graph.num_edges() + 2 * graph.num_vertices();
        let mut captured = None;
        if delta
            .as_ref()
            .is_some_and(|(_, bytes)| bytes.len() >= full_bytes_floor)
        {
            let (full, full_bytes) = self.capture_releasing_base(runner);
            delta = delta.filter(|(_, bytes)| bytes.len() < full_bytes.len());
            captured = Some((full, full_bytes));
        }
        let report = match delta {
            Some((delta, bytes)) => {
                self.store.install_delta(&bytes)?;
                self.base = Some(match captured {
                    Some((full, _)) => full,
                    // Advance the base: only the diff's slots moved.
                    None => {
                        let base = self
                            .base
                            .take()
                            .expect("a delta is diffed against a held base");
                        let mut graph = base.state.graph;
                        graph.sync_slots_from(
                            runner.partitioner().graph(),
                            delta.graph.changed.iter().map(|entry| entry.slot),
                        );
                        runner.checkpoint_with_graph(graph)
                    }
                });
                InstallReport {
                    incremental: true,
                    bytes: bytes.len(),
                }
            }
            None => {
                let (full, full_bytes) =
                    captured.unwrap_or_else(|| self.capture_releasing_base(runner));
                self.store.install_snapshot(&full_bytes)?;
                self.base = Some(full);
                InstallReport {
                    incremental: false,
                    bytes: full_bytes.len(),
                }
            }
        };
        // Durable either way: this state is the next install's diff base.
        runner.partitioner_mut().clear_changed();
        debug_assert_eq!(
            self.base,
            Some(runner.checkpoint()),
            "in-memory base diverged from the state just made durable"
        );
        Ok(report)
    }

    /// The `O(graph)` step of an install: a full capture of `runner` and
    /// its encoding. Whatever the install then writes, this capture is the
    /// next base, so the old one is dropped first — one graph copy held at
    /// a time.
    fn capture_releasing_base(&mut self, runner: &StreamingRunner) -> (StreamCheckpoint, Vec<u8>) {
        self.base = None;
        let full = runner.checkpoint();
        let full_bytes = full.to_bytes();
        (full, full_bytes)
    }

    /// Write-aheads one ingested batch (call with exactly the batches the
    /// runner ingests, in ingestion order — the disk mirror of
    /// [`StreamCheckpoint::append`]).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`].
    pub fn append(&mut self, batch: &UpdateBatch) -> Result<(), StoreError> {
        self.store.append(&batch.to_bytes())
    }

    /// The underlying payload-agnostic store (sequence numbers, chain
    /// length, live byte accounting).
    pub fn store(&self) -> &SegmentStore {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apg_partition::InitialStrategy;
    use apg_streams::{RestartableSource, StreamSource};

    fn growth_runner(parallelism: usize) -> (StreamingRunner, apg_streams::PowerLawGrowth) {
        let base = DynGraph::with_vertices(200);
        let cfg = AdaptiveConfig::builder(4)
            .parallelism(parallelism)
            .build()
            .unwrap();
        let p = AdaptivePartitioner::with_strategy(&base, InitialStrategy::Hash, &cfg, 11);
        let runner = StreamingRunner::new(p)
            .iterations_per_batch(2)
            .record_log(true);
        let source = apg_streams::PowerLawGrowth::new(&base, 3, 40, 11);
        (runner, source)
    }

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
        assert_eq!(resumed.log(), runner.log());
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
    fn failed_install_never_becomes_the_diff_base() {
        let dir = std::env::temp_dir().join(format!("apg-core-install-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = StoreConfig {
            fsync: false,
            ..StoreConfig::default()
        };
        let (mut store, _) = CheckpointStore::open(&dir, config.clone()).unwrap();
        // Grown far enough that a batch or two of churn stays a small
        // fraction of the state, i.e. installs as a delta.
        let (mut runner, mut source) = growth_runner(2);
        runner.drive(&mut source, 20);
        assert!(!store.install(&mut runner).unwrap().incremental);
        let mut ingest_and_append = |runner: &mut StreamingRunner, store: &mut CheckpointStore| {
            let batch = source.next_batch().unwrap();
            runner.ingest(&batch);
            store.append(&batch).unwrap();
        };
        ingest_and_append(&mut runner, &mut store);

        // The next root file takes the sequence number after the active
        // segment's; a directory squatting on its name fails the create.
        let next_root = store.store().active_segment_seq().unwrap() + 1;
        let obstacle = dir.join(format!("dsnap-{next_root}.bin"));
        std::fs::create_dir(&obstacle).unwrap();
        let changed = runner.partitioner().changed_slots();
        assert!(!changed.is_empty());
        let root = store.store().snapshot_seq();
        assert!(matches!(
            store.install(&mut runner),
            Err(StoreError::Io { .. })
        ));
        assert_eq!(runner.partitioner().changed_slots(), changed);
        assert_eq!(store.store().snapshot_seq(), root);

        // With the obstacle gone the same store carries on: the base it
        // kept is still the durable root, so the retry chains a delta
        // covering the failed attempt's changes and everything since.
        std::fs::remove_dir(&obstacle).unwrap();
        ingest_and_append(&mut runner, &mut store);
        assert!(store.install(&mut runner).unwrap().incremental);
        ingest_and_append(&mut runner, &mut store);
        drop(store);

        let (_, recovered) = CheckpointStore::open(&dir, config).unwrap();
        assert_eq!(recovered.torn_frames_dropped, 0);
        let resumed = StreamingRunner::resume(recovered.checkpoint.unwrap());
        assert_eq!(resumed.timeline(), runner.timeline());
        assert_eq!(resumed.log(), runner.log());
        assert_eq!(resumed.partitioner().graph(), runner.partitioner().graph());
        assert_eq!(
            resumed.partitioner().partitioning(),
            runner.partitioner().partitioning()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_and_state_decoders_reject_corruption() {
        let cfg = AdaptiveConfig::builder(3).build().unwrap();
        // Willingness out of range.
        let mut bad = cfg.clone();
        bad.willingness = 7.5;
        assert!(matches!(
            AdaptiveConfig::from_bytes(&bad.to_bytes()).unwrap_err(),
            DecodeError::Corrupt("willingness outside [0, 1]")
        ));
        // Drain floor out of range.
        let mut bad = cfg.clone();
        bad.drain_floor = 1.5;
        assert!(matches!(
            AdaptiveConfig::from_bytes(&bad.to_bytes()).unwrap_err(),
            DecodeError::Corrupt("drain floor outside [0, 1)")
        ));
        // Partitioner state whose assignment is too short for the graph.
        let graph = DynGraph::with_vertices(5);
        let p = AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &cfg, 1);
        let mut state = p.snapshot_state();
        state.partitioning = Partitioning::new(3, 3);
        assert!(matches!(
            PartitionerState::from_bytes(&state.to_bytes()).unwrap_err(),
            DecodeError::Corrupt("assignment does not cover the graph's slots")
        ));
    }

    /// One rule set, two doors: every setting `build()` rejects is also
    /// rejected when a checkpoint carrying it is decoded, and every setting
    /// `build()` accepts survives the checkpoint round trip unchanged — so
    /// nothing that builds is unrecoverable and nothing that decodes is
    /// unbuildable.
    #[test]
    fn builder_and_decoder_agree_on_every_config_rule() {
        use ConfigError::*;
        /// A row's settings, applied to a fresh builder.
        type Tune = fn(crate::AdaptiveConfigBuilder) -> crate::AdaptiveConfigBuilder;

        let (mut runner, mut source) = growth_runner(1);
        runner.drive(&mut source, 2);
        let valid = runner.checkpoint();

        // Puts the setting a violation names into a configuration,
        // bypassing the builder — the hand-patch a corrupt file amounts to.
        // Exhaustive: a new `ConfigError` variant must add a row below.
        fn carry(config: &mut AdaptiveConfig, violation: ConfigError) {
            match violation {
                ZeroPartitions => config.num_partitions = 0,
                WillingnessOutOfRange(s) => config.willingness = s,
                CapacityFactorBelowOne(c) => config.capacity_factor = c,
                ZeroParallelism => config.parallelism = 0,
                DrainFloorOutOfRange(d) => config.drain_floor = d,
                AnnealOutOfRange { start, end } => {
                    config.anneal = Some(Anneal {
                        start,
                        end,
                        over_iterations: 10,
                    })
                }
            }
        }

        let nan = f64::NAN;
        let inf = f64::INFINITY;
        let rejected: [(Tune, u16, ConfigError); 14] = [
            (|b| b, 0, ZeroPartitions),
            (|b| b.willingness(-0.1), 4, WillingnessOutOfRange(-0.1)),
            (|b| b.willingness(1.5), 4, WillingnessOutOfRange(1.5)),
            (|b| b.willingness(f64::NAN), 4, WillingnessOutOfRange(nan)),
            (|b| b.capacity_factor(0.9), 4, CapacityFactorBelowOne(0.9)),
            (
                |b| b.capacity_factor(f64::NAN),
                4,
                CapacityFactorBelowOne(nan),
            ),
            (
                |b| b.capacity_factor(f64::INFINITY),
                4,
                CapacityFactorBelowOne(inf),
            ),
            (|b| b.parallelism(0), 4, ZeroParallelism),
            (|b| b.drain_floor(1.0), 4, DrainFloorOutOfRange(1.0)),
            (|b| b.drain_floor(-0.1), 4, DrainFloorOutOfRange(-0.1)),
            (|b| b.drain_floor(f64::NAN), 4, DrainFloorOutOfRange(nan)),
            (
                |b| b.anneal_willingness(1.2, 0.5, 10),
                4,
                AnnealOutOfRange {
                    start: 1.2,
                    end: 0.5,
                },
            ),
            (
                |b| b.anneal_willingness(0.5, -0.2, 10),
                4,
                AnnealOutOfRange {
                    start: 0.5,
                    end: -0.2,
                },
            ),
            (
                |b| b.anneal_willingness(f64::NAN, 0.5, 10),
                4,
                AnnealOutOfRange {
                    start: nan,
                    end: 0.5,
                },
            ),
        ];
        for (tune, k, expected) in rejected {
            let violation = tune(AdaptiveConfig::builder(k)).build().unwrap_err();
            // Debug strings, because NaN payloads defeat `==`.
            assert_eq!(format!("{violation:?}"), format!("{expected:?}"));
            let mut patched = valid.clone();
            carry(&mut patched.state.config, violation);
            let DecodeError::Corrupt(expected_reason) = DecodeError::from(violation) else {
                unreachable!("config violations decode as Corrupt");
            };
            match StreamCheckpoint::from_bytes(&patched.to_bytes()) {
                Err(DecodeError::Corrupt(reason)) => assert_eq!(reason, expected_reason),
                other => panic!("{expected:?} decoded to {other:?}"),
            }
        }

        let accepted: [Tune; 9] = [
            |b| b,
            |b| b.willingness(0.0),
            |b| b.willingness(1.0),
            |b| b.capacity_factor(1.0),
            |b| b.capacity_factor(f64::MAX),
            |b| b.parallelism(1).drain_floor(0.999),
            |b| b.anneal_willingness(0.0, 1.0, 0),
            |b| b.anneal_willingness(1.0, 0.0, 40),
            |b| {
                b.quota_rule(QuotaRule::Unbounded)
                    .placement(PlacementPolicy::LeastLoaded)
                    .balance_on_edges(true)
                    .count_self(true)
                    .convergence_window(0)
                    .max_iterations(0)
            },
        ];
        for tune in accepted {
            let mut ckpt = valid.clone();
            ckpt.state.config = tune(AdaptiveConfig::builder(4)).build().unwrap();
            let back = StreamCheckpoint::from_bytes(&ckpt.to_bytes()).unwrap();
            assert_eq!(back, ckpt);
        }
    }

    #[test]
    fn fixed_capacities_survive_the_trip() {
        let graph = DynGraph::with_vertices(60);
        let cfg = AdaptiveConfig::builder(3).build().unwrap();
        let mut p = AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &cfg, 5);
        let caps = CapacityModel::vertex_balanced(60, 3, 1.5);
        p.set_fixed_capacities(caps.clone());
        let state = PartitionerState::from_bytes(&p.snapshot_state().to_bytes()).unwrap();
        assert_eq!(state.fixed_capacities.as_ref(), Some(&caps));
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
