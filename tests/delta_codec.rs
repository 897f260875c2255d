//! Property tests of the incremental-checkpoint codec: a delta-encoded
//! checkpoint applied to its base must reproduce the full snapshot
//! **byte-identically** — graph, partitioning and runner state — over
//! arbitrary `UpdateBatch` churn, at every parallelism, through the wire
//! format, and regardless of adjacency-pool layout (compaction is
//! observation-free, so it must be diff-free too). The same churn through
//! a real `CheckpointStore` pins which installs go incremental: the
//! store's size guard must decide exactly as the full-capture reference
//! rule does, and the delta the store diffs from the runner's journal
//! must be the one the rule diffs from a captured base.

use proptest::prelude::*;

use apg::core::{
    AdaptiveConfig, AdaptivePartitioner, CheckpointDelta, CheckpointStore, StreamCheckpoint,
    StreamingRunner,
};
use apg::graph::{DynGraph, Graph, GraphDiff, UpdateBatch, VertexId};
use apg::partition::InitialStrategy;
use apg::persist::store::StoreConfig;

/// Turns a fuzzed op-stream into `UpdateBatch`es of at most `chunk`
/// deltas (same shape as `proptest_invariants`): vertex births, edge
/// adds/removes, vertex removals, and new-vertex wiring, with ids kept
/// in a meaningful range.
fn batches_from_ops(ops: &[(u8, u32, u32)], base_slots: usize, chunk: usize) -> Vec<UpdateBatch> {
    let mut out = Vec::new();
    let mut batch = UpdateBatch::new();
    let mut slots = base_slots;
    for &(op, a, b) in ops {
        let range = (slots + batch.num_new_vertices()).max(1) as u32;
        match op {
            0 => {
                batch.add_vertex(vec![a % range]);
            }
            1 => batch.add_edge(a % range, b % range),
            2 => batch.remove_edge(a % range, b % range),
            3 => batch.remove_vertex(a % range),
            _ => {
                let n = batch.num_new_vertices();
                if n >= 2 {
                    batch.connect_new(a as usize % n, b as usize % n);
                }
            }
        }
        if batch.len() >= chunk {
            slots += batch.num_new_vertices();
            out.push(std::mem::take(&mut batch));
        }
    }
    if !batch.is_empty() {
        out.push(batch);
    }
    out
}

/// Drives a fresh runner over `batches`, snapshotting a base checkpoint
/// after `split` batches (clearing the changed set exactly as a durable
/// install does) and the current checkpoint at the end. Returns
/// `(base, current, changed-slots-since-base)`.
fn base_and_current(
    batches: &[UpdateBatch],
    split: usize,
    parallelism: usize,
    window: Option<usize>,
    seed: u64,
) -> (
    apg::core::StreamCheckpoint,
    apg::core::StreamCheckpoint,
    Vec<usize>,
) {
    let graph = DynGraph::with_vertices(24);
    let cfg = AdaptiveConfig::builder(3)
        .parallelism(parallelism)
        .build()
        .unwrap();
    let partitioner = AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &cfg, seed);
    let mut runner = StreamingRunner::new(partitioner).iterations_per_batch(2);
    if let Some(w) = window {
        runner = runner.timeline_window(w);
    }
    for batch in &batches[..split] {
        runner.ingest(batch);
    }
    let base = runner.checkpoint();
    runner.partitioner_mut().clear_changed();
    for batch in &batches[split..] {
        runner.ingest(batch);
    }
    let current = runner.checkpoint();
    let changed = runner.partitioner().changed_slots();
    (base, current, changed)
}

/// The core property: delta-encode → wire round-trip → apply equals the
/// full snapshot, byte for byte.
fn assert_delta_equals_full(
    base: &apg::core::StreamCheckpoint,
    current: &apg::core::StreamCheckpoint,
    changed: &[usize],
) {
    // Completeness of the marking, brute force: a slot the partitioner
    // mutated without reporting it would otherwise only surface as a byte
    // diff three layers down.
    let (base_state, cur_state) = (&base.state, &current.state);
    let base_slots = base_state.graph.num_vertices();
    for slot in 0..cur_state.graph.num_vertices() {
        let v = slot as VertexId;
        let differs = slot >= base_slots
            || base_state.graph.is_vertex(v) != cur_state.graph.is_vertex(v)
            || base_state.graph.neighbors(v) != cur_state.graph.neighbors(v)
            || base_state.partitioning.partition_of(v) != cur_state.partitioning.partition_of(v);
        assert!(
            !differs || changed.binary_search(&slot).is_ok(),
            "slot {slot} unmarked: it differs from the base (or is newborn) \
             but is missing from the changed set"
        );
    }
    let delta = CheckpointDelta::between(base, current, changed, 7, 0xfeed)
        .expect("append-only growth must be delta-encodable");
    let full_bytes = current.to_bytes();
    // In-memory apply.
    let applied = delta
        .apply(base.clone())
        .expect("delta applies to its base");
    assert_eq!(
        applied.to_bytes(),
        full_bytes,
        "applied delta diverged from the full snapshot"
    );
    // Through the wire format.
    let decoded = CheckpointDelta::from_bytes(&delta.to_bytes()).expect("delta bytes round-trip");
    assert_eq!(decoded.base_seq, 7);
    assert_eq!(decoded.base_digest, 0xfeed);
    let applied = decoded.apply(base.clone()).expect("decoded delta applies");
    assert_eq!(
        applied.to_bytes(),
        full_bytes,
        "wire-round-tripped delta diverged from the full snapshot"
    );
}

/// A store directory under the system temp dir, removed on drop.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "apg-delta-codec-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const MAX_CHAIN_LEN: usize = 3;

fn store_config() -> StoreConfig {
    StoreConfig {
        fsync: false,
        max_chain_len: MAX_CHAIN_LEN,
        ..StoreConfig::default()
    }
}

/// What the reference rule measured for one install.
struct Measured {
    /// Encoded size of the delta against the previous install (`None`
    /// when the rule never got as far as encoding one).
    delta_len: Option<usize>,
    /// The byte floor `install` uses in place of `full_len` when it can.
    floor: usize,
    full_len: usize,
    incremental: bool,
}

/// The store's install decisions, recomputed from full captures — the way
/// `install` itself worked before it learned to skip them.
#[derive(Default)]
struct ReferenceRule {
    /// The checkpoint the previous install made durable.
    base: Option<StreamCheckpoint>,
    /// Deltas chained since the last full snapshot.
    chain: usize,
}

impl ReferenceRule {
    /// Installs `runner` through `store` and checks the report against
    /// the rule: incremental iff there is a base, the chain has room, and
    /// the encoded delta is strictly smaller than the encoded snapshot.
    fn install_checked(
        &mut self,
        store: &mut CheckpointStore,
        runner: &mut StreamingRunner,
    ) -> Measured {
        let current = runner.checkpoint();
        let full_len = current.to_bytes().len();
        let graph = runner.partitioner().graph();
        let floor = graph.num_edges() + 2 * graph.num_vertices();
        assert!(
            floor <= full_len,
            "floor {floor} exceeds the true snapshot length {full_len}"
        );
        let delta_len = match &self.base {
            Some(base) if self.chain < MAX_CHAIN_LEN => {
                let changed = runner.partitioner().changed_slots();
                let seq = store.store().snapshot_seq().expect("installed before");
                let digest = store.store().root_digest().expect("installed before");
                let delta = CheckpointDelta::between(base, &current, &changed, seq, digest);
                // The live runner's view and its capture's are the same
                // value, so `install` diffs what this rule diffs.
                assert_eq!(
                    CheckpointDelta::between(base, &*runner, &changed, seq, digest),
                    delta,
                    "the live view diffed differently from its capture"
                );
                delta.map(|delta| delta.to_bytes().len())
            }
            _ => None,
        };
        let incremental = delta_len.is_some_and(|len| len < full_len);
        let report = store.install(runner).expect("install");
        assert_eq!(
            report.incremental, incremental,
            "install decided differently from the reference rule \
             (delta {delta_len:?}, full {full_len}, floor {floor}, chain {})",
            self.chain
        );
        let written = if incremental {
            delta_len.unwrap()
        } else {
            full_len
        };
        assert_eq!(report.bytes, written);
        self.chain = if incremental { self.chain + 1 } else { 0 };
        assert_eq!(store.store().chain_len(), self.chain);
        self.base = Some(current);
        Measured {
            delta_len,
            floor,
            full_len,
            incremental,
        }
    }
}

/// Reopens `dir` and checks the recovered runner is the live one.
fn assert_recovery_equals_live(dir: &std::path::Path, live: &StreamingRunner) {
    let (_, recovered) = CheckpointStore::open(dir, store_config()).expect("reopen");
    let resumed = StreamingRunner::resume(recovered.checkpoint.expect("a durable root"));
    assert_eq!(resumed.timeline(), live.timeline());
    assert_eq!(resumed.timeline_digest(), live.timeline_digest());
    assert_eq!(resumed.batches_ingested(), live.batches_ingested());
    assert_eq!(resumed.partitioner().graph(), live.partitioner().graph());
    assert_eq!(
        resumed.partitioner().partitioning(),
        live.partitioner().partitioning()
    );
    assert_eq!(
        resumed.partitioner().iteration(),
        live.partitioner().iteration()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fuzzed churn through a real `CheckpointStore`, an install every
    /// `cadence` batches: every full-vs-delta decision (and byte count)
    /// equals the reference rule's, the size floor never overshoots, and
    /// what is on disk after the last install recovers to the live runner.
    #[test]
    fn store_install_decisions_match_the_reference_rule(
        ops in proptest::collection::vec((0u8..5, 0u32..96, 0u32..96), 8..120),
        cadence in 1usize..4,
        ballast in 0u32..3,
        window in 0usize..4, // 0 = unbounded
        seed in 0u64..200,
    ) {
        // A ring of extra vertices raises the byte floor (one byte per
        // edge, two per slot) from well under a typical delta's size to
        // well over it, so both sides of the floor test get exercised.
        let base_slots = 24 + 60 * ballast as usize;
        let mut graph = DynGraph::with_vertices(base_slots);
        for v in 24..base_slots as u32 {
            graph.add_edge(v, 24 + (v + 1 - 24) % (60 * ballast));
        }
        let batches = batches_from_ops(&ops, base_slots, 6);
        let scratch = Scratch::new("decisions");
        let (mut store, _) = CheckpointStore::open(&scratch.0, store_config()).expect("open");
        let cfg = AdaptiveConfig::builder(3).parallelism(2).build().unwrap();
        let partitioner =
            AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &cfg, seed);
        let mut runner = StreamingRunner::new(partitioner).iterations_per_batch(2);
        if window > 0 {
            runner = runner.timeline_window(window);
        }
        let mut rule = ReferenceRule::default();
        rule.install_checked(&mut store, &mut runner);
        for (i, batch) in batches.iter().enumerate() {
            runner.ingest(batch);
            store.append(batch).expect("append");
            if (i + 1) % cadence == 0 {
                rule.install_checked(&mut store, &mut runner);
            }
        }
        rule.install_checked(&mut store, &mut runner);
        drop(store);
        assert_recovery_equals_live(&scratch.0, &runner);
    }

    /// The journal is a diff base: a `CheckpointStore` holds no graph and
    /// diffs the changed slots' journalled pre-images against the live
    /// state, and every install writes what the reference rule diffs
    /// against a full capture of the previous root — over tombstones,
    /// emptied lists, newborn slots and relabels (two iterations per
    /// batch). Some runs reopen the store cold every few batches and
    /// resume from what it recovered, its graph compacted first, so the
    /// journal also starts from a root restored mid-chain with a
    /// write-ahead tail. What is on disk at the end recovers to the live
    /// runner.
    #[test]
    fn journal_diff_equals_captured_base_diff(
        ops in proptest::collection::vec((0u8..5, 0u32..64, 0u32..64), 4..80),
        cadence in 1usize..4,
        reopen_every in 0usize..4, // 0 = never
        compact_recovered in 0u8..2,
        seed in 0u64..200,
    ) {
        let batches = batches_from_ops(&ops, 16, 8);
        let scratch = Scratch::new("journal");
        let (mut store, _) = CheckpointStore::open(&scratch.0, store_config()).expect("open");
        let cfg = AdaptiveConfig::builder(3).parallelism(2).build().unwrap();
        let partitioner = AdaptivePartitioner::with_strategy(
            &DynGraph::with_vertices(16),
            InitialStrategy::Hash,
            &cfg,
            seed,
        );
        let mut runner = StreamingRunner::new(partitioner).iterations_per_batch(2);
        let mut rule = ReferenceRule::default();
        rule.install_checked(&mut store, &mut runner);
        for (i, batch) in batches.iter().enumerate() {
            runner.ingest(batch);
            store.append(batch).expect("append");
            if reopen_every > 0 && (i + 1) % reopen_every == 0 {
                drop(store);
                let (reopened, recovered) =
                    CheckpointStore::open(&scratch.0, store_config()).expect("reopen");
                let mut checkpoint = recovered.checkpoint.expect("a durable root");
                if compact_recovered == 1 {
                    checkpoint.state.graph.compact_adjacency();
                }
                let resumed = StreamingRunner::resume(checkpoint);
                prop_assert_eq!(resumed.partitioner().graph(), runner.partitioner().graph());
                store = reopened;
                runner = resumed;
            }
            if (i + 1) % cadence == 0 {
                rule.install_checked(&mut store, &mut runner);
            }
        }
        rule.install_checked(&mut store, &mut runner);
        drop(store);
        assert_recovery_equals_live(&scratch.0, &runner);
    }

    /// Fuzzed churn, fuzzed split point, bounded and unbounded timeline
    /// windows: the delta always reproduces the full snapshot
    /// byte-identically.
    #[test]
    fn delta_equals_full_over_fuzzed_churn(
        ops in proptest::collection::vec((0u8..5, 0u32..96, 0u32..96), 4..80),
        split_frac in 0usize..100,
        window in 0usize..5, // 0 = unbounded
        seed in 0u64..500,
    ) {
        let batches = batches_from_ops(&ops, 24, 6);
        if batches.is_empty() {
            return;
        }
        let split = 1 + split_frac * (batches.len() - 1) / 100;
        let window = if window == 0 { None } else { Some(window) };
        let (base, current, changed) =
            base_and_current(&batches, split, 1, window, seed);
        assert_delta_equals_full(&base, &current, &changed);
    }

    /// The same property at parallelism 1, 2 and 8 — the changed-set
    /// discipline must hold under the sharded apply path too.
    #[test]
    fn delta_equals_full_at_all_parallelism(
        ops in proptest::collection::vec((0u8..5, 0u32..96, 0u32..96), 8..48),
        seed in 0u64..200,
    ) {
        let batches = batches_from_ops(&ops, 24, 5);
        if batches.len() < 2 {
            return;
        }
        let split = batches.len() / 2;
        for parallelism in [1usize, 2, 8] {
            let (base, current, changed) =
                base_and_current(&batches, split, parallelism, None, seed);
            assert_delta_equals_full(&base, &current, &changed);
        }
    }

    /// `GraphDiff` is layout-blind: interleaving `compact_adjacency`
    /// anywhere around the diff — on the base, the current graph, or the
    /// copy being patched — never changes what `between` produces or what
    /// `apply_to` reconstructs.
    #[test]
    fn graph_diff_survives_compaction_interleavings(
        ops in proptest::collection::vec((0u8..5, 0u32..64, 0u32..64), 4..60),
        compact_mask in 0u8..8,
    ) {
        let (compact_base, compact_current, compact_target) =
            (compact_mask & 1 != 0, compact_mask & 2 != 0, compact_mask & 4 != 0);
        let batches = batches_from_ops(&ops, 16, 8);
        let mut base = DynGraph::with_vertices(16);
        for batch in batches.iter().take(batches.len() / 2) {
            batch.apply(&mut base);
        }
        let mut current = base.clone();
        for batch in batches.iter().skip(batches.len() / 2) {
            batch.apply(&mut current);
        }
        if compact_base {
            base.compact_adjacency();
        }
        if compact_current {
            current.compact_adjacency();
        }
        let candidates: Vec<usize> = (0..base.num_vertices()).collect();
        let diff = GraphDiff::between(&base, &current, &candidates);
        // The fragmented and compacted base must yield the same diff.
        let mut fragmented = base.clone();
        fragmented.compact_adjacency();
        prop_assert_eq!(&GraphDiff::between(&fragmented, &current, &candidates), &diff);
        let mut target = base.clone();
        if compact_target {
            target.compact_adjacency();
        }
        diff.apply_to(&mut target).expect("diff applies to its base");
        prop_assert_eq!(&target, &current);
    }

    /// Tombstones: removed vertices stay encoded as dead slots, their ids
    /// are never reused by later births, and a diff that tries to
    /// resurrect one is rejected with a typed error.
    #[test]
    fn tombstones_round_trip_and_cannot_be_reused(
        kill_raw in proptest::collection::vec(0u32..16, 1..6),
        births in 1usize..5,
        listed_old in 0u32..(1 << 16),
        listed_newborn in 0u8..16,
    ) {
        let kill: std::collections::BTreeSet<u32> = kill_raw.into_iter().collect();
        let mut base = DynGraph::with_vertices(16);
        for v in 0..15u32 {
            base.add_edge(v, v + 1);
        }
        let mut current = base.clone();
        for &v in &kill {
            current.remove_vertex(v);
        }
        let target = (0..16u32).find(|v| !kill.contains(v)).expect("a survivor");
        for _ in 0..births {
            let v = current.add_vertex();
            prop_assert!(v as usize >= 16, "ids are never reused");
            current.add_edge(v, target);
        }
        let candidates: Vec<usize> = (0..16).collect();
        let diff = GraphDiff::between(&base, &current, &candidates);
        let mut replayed = base.clone();
        diff.apply_to(&mut replayed).expect("tombstone diff applies");
        prop_assert_eq!(&replayed, &current);
        // Newborn slots are picked up whether or not the candidates list
        // them: a list naming some newborns and omitting others, after a
        // partial set of old slots, diffs like the full list wherever it
        // covers the slots that changed (the killed ones, their
        // neighbours and the births' target).
        let touched = |slot: usize| {
            slot == target as usize
                || (slot.saturating_sub(1)..=slot + 1).any(|v| kill.contains(&(v as u32)))
        };
        let partial: Vec<usize> = (0..16)
            .filter(|&slot| touched(slot) || listed_old & (1 << slot) != 0)
            .chain((16..16 + births).filter(|slot| listed_newborn & (1 << (slot - 16)) != 0))
            .collect();
        prop_assert_eq!(&GraphDiff::between(&base, &current, &partial), &diff);
        // Resurrecting a tombstone is a typed error, not a panic.
        let victim = *kill.iter().next().unwrap() as usize;
        let mut forged = diff.clone();
        for entry in &mut forged.changed {
            if entry.slot == victim {
                entry.alive = true;
            }
        }
        let mut scratch = base.clone();
        prop_assert!(forged.apply_to(&mut scratch).is_err());
        prop_assert_eq!(&scratch, &base, "rejected diff must leave the base untouched");
    }
}

/// The empty delta: nothing changed between base and current. The diff is
/// empty, the delta still round-trips, and applying it is the identity.
#[test]
fn empty_delta_is_identity() {
    let ops: Vec<(u8, u32, u32)> = (0..12).map(|i| (1u8, i, i + 3)).collect();
    let batches = batches_from_ops(&ops, 24, 4);
    let split = batches.len();
    let (base, current, changed) = base_and_current(&batches, split, 1, None, 11);
    assert!(changed.is_empty(), "no mutations after the base");
    let delta = CheckpointDelta::between(&base, &current, &changed, 1, 2).expect("empty delta");
    assert!(delta.graph.is_empty());
    assert!(delta.labels.is_empty());
    assert_delta_equals_full(&base, &current, &changed);
}

/// A delta applied to the wrong base is a typed error, never a panic or a
/// silently wrong checkpoint.
#[test]
fn delta_rejects_the_wrong_base() {
    let ops: Vec<(u8, u32, u32)> = (0..40).map(|i: u32| ((i % 4) as u8, i, i * 7)).collect();
    let batches = batches_from_ops(&ops, 24, 4);
    let split = batches.len() / 2;
    assert!(split >= 2, "need room for a one-batch-earlier wrong base");
    let (base, current, changed) = base_and_current(&batches, split, 1, None, 3);
    let delta = CheckpointDelta::between(&base, &current, &changed, 1, 2).expect("delta");
    // A base one batch short of the real one: its timeline cannot chain
    // densely into the delta's suffix, so validation must fire.
    let (wrong_base, _, _) = base_and_current(&batches, split - 1, 1, None, 3);
    assert!(delta.apply(wrong_base).is_err());
}

/// Wall-to-wall churn: every slot of an edgeless base gains edges, so the
/// delta (both endpoints of every new edge, plus per-slot framing) is
/// bigger than the snapshot (upper adjacency only). The delta clears the
/// byte floor, `install` takes the exact capture-encode-compare branch,
/// and falls back to a full snapshot although the chain has room — then
/// chains a delta again once the churn is back to a few slots.
#[test]
fn wall_to_wall_churn_falls_back_to_full() {
    let scratch = Scratch::new("wall-to-wall");
    let (mut store, _) = CheckpointStore::open(&scratch.0, store_config()).expect("open");
    let n = 64u32;
    let graph = DynGraph::with_vertices(n as usize);
    let cfg = AdaptiveConfig::builder(3).parallelism(1).build().unwrap();
    let partitioner = AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &cfg, 5);
    let mut runner = StreamingRunner::new(partitioner).iterations_per_batch(2);
    let mut rule = ReferenceRule::default();
    assert!(!rule.install_checked(&mut store, &mut runner).incremental);

    let mut everything = UpdateBatch::new();
    for u in 0..n {
        for step in 1..=6 {
            everything.add_edge(u, (u + step) % n);
        }
    }
    runner.ingest(&everything);
    store.append(&everything).expect("append");
    let churned = rule.install_checked(&mut store, &mut runner);
    let delta_len = churned
        .delta_len
        .expect("append-only growth is delta-encodable");
    assert!(
        delta_len >= churned.floor,
        "delta {delta_len} under the floor {}: the exact-compare branch was not taken",
        churned.floor
    );
    assert!(delta_len >= churned.full_len);
    assert!(
        !churned.incremental,
        "a delta bigger than the snapshot was chained"
    );

    let mut nudge = UpdateBatch::new();
    nudge.remove_edge(0, 1);
    runner.ingest(&nudge);
    store.append(&nudge).expect("append");
    let nudged = rule.install_checked(&mut store, &mut runner);
    assert!(nudged.incremental);
    assert!(nudged.delta_len.unwrap() < nudged.floor);
    drop(store);
    assert_recovery_equals_live(&scratch.0, &runner);
}

/// Every file of a store directory, by name, with its bytes.
fn store_files(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("read store directory")
        .map(|entry| {
            let entry = entry.expect("directory entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(entry.path()).expect("read store file"))
        })
        .collect();
    files.sort();
    files
}

/// Durable bytes are a function of the data: two runs of one seed at one
/// parallelism leave **byte-identical store directories** — every
/// `snap-` / `dsnap-` / `seg-` file and the manifest — after every
/// install and at the end, although no two runs read the same clock. CDR
/// churn (births, removals, edge flips), an append per batch, an install
/// every other batch, short chains and small segments, so full roots,
/// chained deltas, rotated segments and a write-ahead tail all occur. Each
/// run's store, reopened cold, recovers to its live runner.
#[test]
fn two_runs_of_one_seed_leave_byte_identical_stores() {
    use apg::streams::{CdrConfig, CdrStream, StreamSource};
    const BATCHES: usize = 15;
    let cdr = CdrConfig {
        initial_subscribers: 2_000,
        ..CdrConfig::default()
    };
    let config = StoreConfig {
        segment_rotate_bytes: 4 << 10,
        ..store_config()
    };
    let run = |parallelism: usize, tag: &str| {
        let scratch = Scratch::new(tag);
        let (mut store, _) = CheckpointStore::open(&scratch.0, config.clone()).expect("open");
        let graph = DynGraph::with_vertices(cdr.initial_subscribers);
        let cfg = AdaptiveConfig::builder(4)
            .parallelism(parallelism)
            .build()
            .unwrap();
        let partitioner =
            AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &cfg, 29);
        let mut runner = StreamingRunner::new(partitioner)
            .iterations_per_batch(3)
            .timeline_window(6);
        let mut source = CdrStream::new(cdr, 29);
        let mut history = Vec::new();
        for step in 0..BATCHES {
            let batch = source.next_batch().expect("the stream outlasts the run");
            runner.ingest(&batch);
            store.append(&batch).expect("append");
            if step % 2 == 0 {
                store.install(&mut runner).expect("install");
                history.push(store_files(&scratch.0));
            }
        }
        history.push(store_files(&scratch.0));
        // Cold recovery through the delta chain is the live run.
        drop(store);
        assert_recovery_equals_live(&scratch.0, &runner);
        history
    };
    for parallelism in [1usize, 2, 8] {
        let first = run(parallelism, "identical-a");
        let second = run(parallelism, "identical-b");
        for kind in ["snap-", "dsnap-", "seg-", "MANIFEST"] {
            assert!(
                first
                    .iter()
                    .flatten()
                    .any(|(name, _)| name.starts_with(kind)),
                "run never wrote a {kind} file"
            );
        }
        let last = first.last().expect("at least the final listing");
        assert!(
            last.iter().any(|(name, _)| name.starts_with("dsnap-")),
            "the recovered root has no delta chain to replay"
        );
        for (step, (a, b)) in first.iter().zip(&second).enumerate() {
            let names = |files: &[(String, Vec<u8>)]| -> Vec<String> {
                files.iter().map(|(name, _)| name.clone()).collect()
            };
            assert_eq!(names(a), names(b), "file sets differ at listing {step}");
            for ((name, bytes_a), (_, bytes_b)) in a.iter().zip(b) {
                assert!(
                    bytes_a == bytes_b,
                    "{name} differs between two runs at parallelism {parallelism} \
                     (listing {step}, {} vs {} bytes)",
                    bytes_a.len(),
                    bytes_b.len()
                );
            }
        }
    }
}
