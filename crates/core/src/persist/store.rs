//! The install: a live runner's state becomes the durable recovery root.
//!
//! In: a live [`StreamingRunner`] and the directory's [`SegmentStore`].
//! Out: one root file (a chained [`CheckpointDelta`] or a full
//! [`StreamCheckpoint`]) and an [`InstallReport`] saying which. The store
//! holds no graph: what each slot was at the root is in the runner's
//! journal (see
//! [`AdaptivePartitioner::clear_changed`](crate::AdaptivePartitioner::clear_changed)),
//! and the store keeps only the root's small members.

use apg_graph::{Graph, UpdateBatch};
use apg_persist::store::{SegmentStore, StoreConfig, StoreError};
use apg_persist::{Decode, Encode};

use super::checkpoint::{CheckpointView, StreamCheckpoint};
use super::delta::{CheckpointDelta, DeltaBase, Lookup};
use crate::streaming::{RunnerScalars, StreamingRunner, TimelineStats};

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
    /// the runner's history was not an append-only extension of the root).
    pub incremental: bool,
    /// Serialised payload size in bytes (of the delta or full snapshot).
    pub bytes: usize,
}

/// The durable root's small members: what a delta's base side needs
/// besides the runner's journal.
#[derive(Debug)]
struct Root {
    slots: usize,
    runner: RunnerScalars,
    timeline: Vec<TimelineStats>,
}

impl Root {
    fn of(view: &CheckpointView<'_>) -> Root {
        Root {
            slots: view.graph.num_vertices(),
            runner: view.runner,
            timeline: view.timeline.to_vec(),
        }
    }
}

/// File-backed durability for a [`StreamingRunner`]: the
/// [`SegmentStore`] with the checkpoint codec wired on top, so the
/// operating loop works with a *directory path* instead of in-memory byte
/// blobs.
///
/// The loop: [`CheckpointStore::install`] rarely, [`CheckpointStore::append`]
/// after every ingested batch (one O(batch) durable frame). Installs are
/// **incremental** whenever possible: the runner's journal holds what
/// each slot changed since the root was, so the store diffs the changed
/// slots' pre-images against the live state and writes an
/// `O(changed-state)` [`CheckpointDelta`] chained onto the previous root —
/// falling back to a full snapshot on the first install, when the chain
/// reaches [`StoreConfig::max_chain_len`] (the rebase, which also
/// garbage-collects the superseded chain), when the runner's history is
/// not an append-only extension of the root, or when its journal was not
/// kept since this root. Each install starts a fresh write-ahead segment,
/// which is what bounds recovery time. After a crash,
/// [`CheckpointStore::open`] replays base plus chain and rebuilds the
/// exact `(snapshot, tail)` checkpoint that was durable at the kill point.
#[derive(Debug)]
pub struct CheckpointStore {
    store: SegmentStore,
    /// The durable root's small members; `None` only on a fresh store
    /// before its first install.
    root: Option<Root>,
}

impl CheckpointStore {
    /// Opens (or creates) the store in `dir`, recovering whatever was
    /// durable: the root snapshot, every chained delta applied in order,
    /// then the write-ahead tail re-appended. The recovered graph is the
    /// only one built: resume it with [`StreamingRunner::resume`], whose
    /// cleared record starts the journal the next install diffs from.
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
        let root = head.as_ref().map(|head| Root::of(&head.into()));
        if let Some(ckpt) = &mut head {
            for payload in &recovery.tail {
                ckpt.append(UpdateBatch::from_bytes(payload)?);
            }
        }
        Ok((
            CheckpointStore { store, root },
            RecoveredCheckpoint {
                checkpoint: head,
                torn_frames_dropped: recovery.torn_frames_dropped,
            },
        ))
    }

    /// Makes `runner`'s state the durable recovery root.
    ///
    /// Writes a chained [`CheckpointDelta`] when a root exists, the chain
    /// is below [`StoreConfig::max_chain_len`], the runner's history
    /// extends the root append-only, its journal names every changed slot
    /// below the root's slot count, and the delta is smaller than the
    /// snapshot it stands in for; otherwise a full snapshot — which is
    /// also the **rebase**: installing it folds the chain away and
    /// garbage-collects the stale files. Either way the manifest flip is
    /// atomic, a fresh write-ahead segment starts, and the runner's
    /// changed-slot record and journal are cleared so the next install
    /// diffs against exactly this state.
    ///
    /// Three steps: *plan* (diff, encode, decide), *commit* (the one store
    /// call) and *advance* (take the new root's small members and clear
    /// the runner's record). The delta path is `O(changed slots × degree)`
    /// plus the `O(window)` timeline; the full path encodes the live
    /// state, `O(graph)`, and runs on the first install and then once per
    /// `max_chain_len + 1` installs. Neither path captures the runner.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`]; on error the previous root stays durable and
    /// the runner's changed-slot record and journal are left intact (the
    /// failed install never becomes a diff base), so the next install
    /// diffs against the durable root again.
    pub fn install(&mut self, runner: &mut StreamingRunner) -> Result<InstallReport, StoreError> {
        let (incremental, bytes) = self.plan(runner);
        if incremental {
            self.store.install_delta(&bytes)?;
        } else {
            self.store.install_snapshot(&bytes)?;
        }
        // Advance: the root's small members are the runner's, and its
        // record and journal start over (in place, capacity kept).
        self.root = Some(Root::of(&CheckpointView::from(&*runner)));
        runner.partitioner_mut().clear_changed();
        Ok(InstallReport {
            incremental,
            bytes: bytes.len(),
        })
    }

    /// Diffs a delta from the runner's journal when the chain can take
    /// one, and decides between it and a full snapshot: whether to chain,
    /// and the bytes to write.
    fn plan(&self, runner: &StreamingRunner) -> (bool, Vec<u8>) {
        let view = CheckpointView::from(runner);
        let candidate = match (
            &self.root,
            self.store.snapshot_seq(),
            self.store.root_digest(),
        ) {
            (Some(root), Some(seq), Some(digest)) if !self.store.needs_rebase() => {
                let partitioner = runner.partitioner();
                let base = DeltaBase {
                    slots: root.slots,
                    runner: root.runner,
                    timeline: &root.timeline,
                    lookup: Lookup::Journal(partitioner.journal()),
                };
                let changed = partitioner.changed_slots();
                CheckpointDelta::between(base, runner, &changed, seq, digest)
            }
            _ => None,
        };
        let Some(delta) = candidate else {
            return (false, view.to_bytes());
        };
        let bytes = delta.to_bytes();
        // A delta only earns its chain link by being smaller: when most of
        // the state churned since the root, the per-slot framing makes the
        // delta *larger* than the snapshot it stands in for — install full
        // instead, which also resets the chain for free. A full snapshot
        // spends at least one byte per edge and two per slot, so below
        // that floor the delta is smaller without looking; at or above it
        // (wall-to-wall churn), encode the snapshot and compare.
        let full_bytes_floor = view.graph.num_edges() + 2 * view.graph.num_vertices();
        if bytes.len() < full_bytes_floor {
            return (true, bytes);
        }
        let full = view.to_bytes();
        if bytes.len() < full.len() {
            (true, bytes)
        } else {
            (false, full)
        }
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
    use super::super::growth_runner;
    use super::*;
    use apg_streams::StreamSource;

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
        assert_eq!(resumed.partitioner().graph(), runner.partitioner().graph());
        assert_eq!(
            resumed.partitioner().partitioning(),
            runner.partitioner().partitioning()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A runner whose record was never cleared has journalled nothing, so
    /// against a store that has a root its changed slots have no
    /// pre-images: the install goes full instead of diffing, and what it
    /// wrote recovers to that runner.
    #[test]
    fn a_runner_without_a_journal_for_the_root_installs_full() {
        let dir =
            std::env::temp_dir().join(format!("apg-core-unjournalled-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = StoreConfig {
            fsync: false,
            ..StoreConfig::default()
        };
        let (mut store, _) = CheckpointStore::open(&dir, config.clone()).unwrap();
        let (mut first, mut source) = growth_runner(1);
        first.drive(&mut source, 20);
        let root = first.checkpoint();
        assert!(!store.install(&mut first).unwrap().incremental);

        // The same stream one batch on: a captured base would chain it.
        let (mut fresh, mut again) = growth_runner(1);
        fresh.drive(&mut again, 21);
        let changed = fresh.partitioner().changed_slots();
        let delta = CheckpointDelta::between(&root, &fresh, &changed, 0, 0).unwrap();
        assert!(delta.to_bytes().len() < fresh.checkpoint().to_bytes().len());
        assert!(!store.install(&mut fresh).unwrap().incremental);
        drop(store);
        let (_, recovered) = CheckpointStore::open(&dir, config).unwrap();
        let resumed = StreamingRunner::resume(recovered.checkpoint.unwrap());
        assert_eq!(resumed.partitioner().graph(), fresh.partitioner().graph());
        assert_eq!(resumed.timeline(), fresh.timeline());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
