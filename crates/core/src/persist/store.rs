//! The install: a live runner's state becomes the durable recovery root.
//!
//! In: a live [`StreamingRunner`] and the directory's [`SegmentStore`].
//! Out: one root file (a chained [`CheckpointDelta`] or a full
//! [`StreamCheckpoint`]), an [`InstallReport`] saying which, and the held
//! base advanced to exactly that root. One value, the private `Plan`,
//! flows through [`CheckpointStore::install`]'s three steps.

use apg_graph::{Graph, UpdateBatch};
use apg_persist::store::{SegmentStore, StoreConfig, StoreError};
use apg_persist::{Decode, Encode};

use super::checkpoint::StreamCheckpoint;
use super::delta::CheckpointDelta;
use crate::streaming::StreamingRunner;

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

/// What an install decided to write, encoded and ready.
enum Plan {
    /// Chain `delta` onto the held base.
    Delta {
        delta: CheckpointDelta,
        bytes: Vec<u8>,
    },
    /// Write `checkpoint` as a full snapshot; it is also the next base.
    Full {
        checkpoint: StreamCheckpoint,
        bytes: Vec<u8>,
    },
}

/// The `O(graph)` part of an install: a full capture and its encoding.
fn capture(runner: &StreamingRunner) -> (StreamCheckpoint, Vec<u8>) {
    let checkpoint = runner.checkpoint();
    let bytes = checkpoint.to_bytes();
    (checkpoint, bytes)
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
    /// Three steps: *plan* (diff, encode, decide), *commit* (the one store
    /// call) and *advance* (bring the held base up to the new root). The
    /// delta path is `O(changed slots × degree)` plus the `O(V)`
    /// assignment and `O(window)` timeline — no capture, no full encode;
    /// the full path is `O(graph)` and runs on the first install and then
    /// once per `max_chain_len + 1` installs. The held base always equals
    /// the durable root: it moves only after the store call returned `Ok`
    /// (debug builds re-capture and compare on every install).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`]; on error the previous root stays durable and
    /// the changed-slot tracking is left intact (the failed install never
    /// becomes a diff base). A failed *full* install leaves no base (the
    /// old one is released before the store call, to hold one graph copy
    /// at a time), so the next install is full too; a failed delta install
    /// keeps its base, which still equals the durable root.
    pub fn install(&mut self, runner: &mut StreamingRunner) -> Result<InstallReport, StoreError> {
        let plan = self.plan(runner);
        let report = self.commit(&plan)?;
        self.advance(plan, runner);
        debug_assert_eq!(
            self.base,
            Some(runner.checkpoint()),
            "in-memory base diverged from the state just made durable"
        );
        Ok(report)
    }

    /// Diffs a delta from the live runner when the chain can take one, and
    /// decides between it and a full snapshot. A plan for a full snapshot
    /// releases the old base.
    fn plan(&mut self, runner: &StreamingRunner) -> Plan {
        let candidate = match (
            self.base.as_ref(),
            self.store.snapshot_seq(),
            self.store.root_digest(),
        ) {
            (Some(base), Some(seq), Some(digest)) if !self.store.needs_rebase() => {
                let changed = runner.partitioner().changed_slots();
                CheckpointDelta::between(base, runner, &changed, seq, digest)
            }
            _ => None,
        };
        let Some(delta) = candidate else {
            self.base = None;
            let (checkpoint, bytes) = capture(runner);
            return Plan::Full { checkpoint, bytes };
        };
        let bytes = delta.to_bytes();
        // A delta only earns its chain link by being smaller: when most of
        // the state churned since the base, the per-slot framing makes the
        // delta *larger* than the snapshot it stands in for — install full
        // instead, which also resets the chain for free. A full snapshot
        // spends at least one byte per edge and two per slot, so below
        // that floor the delta is smaller without looking; at or above it
        // (wall-to-wall churn), capture and compare.
        let graph = runner.partitioner().graph();
        let full_bytes_floor = graph.num_edges() + 2 * graph.num_vertices();
        if bytes.len() < full_bytes_floor {
            return Plan::Delta { delta, bytes };
        }
        let (checkpoint, full_bytes) = capture(runner);
        if bytes.len() < full_bytes.len() {
            return Plan::Delta { delta, bytes };
        }
        self.base = None;
        Plan::Full {
            checkpoint,
            bytes: full_bytes,
        }
    }

    /// The one store call. On error neither `self` nor the runner moved.
    fn commit(&mut self, plan: &Plan) -> Result<InstallReport, StoreError> {
        let (incremental, bytes) = match plan {
            Plan::Delta { bytes, .. } => (true, bytes),
            Plan::Full { bytes, .. } => (false, bytes),
        };
        if incremental {
            self.store.install_delta(bytes)?;
        } else {
            self.store.install_snapshot(bytes)?;
        }
        Ok(InstallReport {
            incremental,
            bytes: bytes.len(),
        })
    }

    /// After a successful commit: the held base becomes the state just
    /// made durable, and the runner's changed-slot tracking is drained. A
    /// delta's base is patched in place — the diff's slots copied from the
    /// live graph, assignment and timeline taken afresh, the scalar blocks
    /// moved over from the delta.
    fn advance(&mut self, plan: Plan, runner: &mut StreamingRunner) {
        match plan {
            Plan::Full { checkpoint, .. } => self.base = Some(checkpoint),
            Plan::Delta { delta, .. } => {
                let base = self
                    .base
                    .as_mut()
                    .expect("a delta is diffed against a held base");
                let partitioner = runner.partitioner();
                base.state.graph.sync_slots_from(
                    partitioner.graph(),
                    delta.graph.changed.iter().map(|entry| entry.slot),
                );
                base.state.partitioning = partitioner.partitioning().clone();
                base.state.scalars = delta.partitioner;
                base.runner = delta.runner;
                base.timeline = runner.timeline().to_vec();
            }
        }
        runner.partitioner_mut().clear_changed();
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
}
