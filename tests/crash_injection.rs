//! Crash-injection harness for the file-backed durability layer.
//!
//! Simulates killing the checkpoint writer at arbitrary byte offsets —
//! truncation (the write never finished), torn frames, single-bit flips —
//! across a sweep of offsets in every on-disk artefact, and proves the
//! recovery contract: **every** outcome is either
//!
//! * full recovery to the last durable checkpoint, after which finishing
//!   the stream reproduces the uninterrupted run's timeline, graph and
//!   assignment exactly, or
//! * a typed, recoverable [`StoreError`] / [`DecodeError`] —
//!
//! never a panic (every recovery runs under `catch_unwind`) and never
//! silent divergence (every successful recovery is driven to the end of
//! the stream and compared against the uninterrupted reference).
//!
//! The same binary carries the decoder-totality property tests: random
//! byte flips and truncations over the golden fixtures must decode to a
//! typed error or to a value that re-encodes byte-identically, without
//! panicking and without over-allocating (a `#[global_allocator]` wrapper
//! asserts the peak-allocation bound a corrupt length field might try to
//! break).

use std::alloc::{GlobalAlloc, Layout, System};
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use apg::core::{
    fold_timeline_digest, AdaptiveConfig, AdaptivePartitioner, CheckpointStore, StreamCheckpoint,
    StreamingRunner, TimelineStats, TIMELINE_DIGEST_SEED,
};
use apg::graph::{DeltaLog, DynGraph, UpdateBatch};
use apg::partition::{InitialStrategy, Partitioning};
use apg::persist::store::{crc32, StoreConfig, StoreError, MAGIC_STORE_SNAPSHOT};
use apg::persist::{format, Decode, DecodeError, Encode};
use apg::streams::{CdrConfig, CdrStream, RestartableSource, SourceCursor, StreamSource};

// ---------------------------------------------------------------------------
// Peak-allocation tracking: a corrupt varint must never force a huge
// allocation. The bound is generous (other tests in this binary run
// concurrently and share the counters) but orders of magnitude below the
// multi-gigabyte `Vec::with_capacity` an unclamped decoded length would
// attempt.

struct PeakTracking;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn note_alloc(size: usize) {
    let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakTracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
            note_alloc(new_size);
        }
        new_ptr
    }
}

#[global_allocator]
static ALLOCATOR: PeakTracking = PeakTracking;

/// Resets the peak to the current live count and returns the baseline.
fn reset_peak() -> usize {
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live, Ordering::Relaxed);
    live
}

/// Bytes the peak rose above `baseline` since [`reset_peak`].
fn peak_above(baseline: usize) -> usize {
    PEAK_BYTES.load(Ordering::Relaxed).saturating_sub(baseline)
}

/// Held by each test that builds a graph-sized state and measures a peak
/// against it, so no two of them allocate into each other's window.
fn graph_sized() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Decoding a few-hundred-byte artefact must stay far below this, even
/// with concurrent test threads allocating into the shared counters.
const DECODE_PEAK_BOUND: usize = 64 << 20;

// ---------------------------------------------------------------------------
// The streamed workload: a CDR stream over a fixed subscriber population,
// deterministic at every parallelism level.

const SEED: u64 = 23;
const SUBSCRIBERS: usize = 500;
const TOTAL: usize = 10;
/// First snapshot boundary.
const SNAP_AT: usize = 3;
/// Second snapshot boundary (the install whose interruption is injected).
const SNAP2_AT: usize = 7;

fn cdr_config() -> CdrConfig {
    CdrConfig {
        initial_subscribers: SUBSCRIBERS,
        ..CdrConfig::default()
    }
}

fn cdr() -> CdrStream {
    CdrStream::new(cdr_config(), SEED)
}

fn runner() -> StreamingRunner {
    let graph = DynGraph::with_vertices(SUBSCRIBERS);
    let cfg = AdaptiveConfig::builder(4).parallelism(2).build().unwrap();
    StreamingRunner::new(AdaptivePartitioner::with_strategy(
        &graph,
        InitialStrategy::Hash,
        &cfg,
        SEED,
    ))
    .iterations_per_batch(2)
}

/// Small rotation threshold so the write-ahead tail spans several
/// segments and the sweeps exercise sealed-segment handling.
fn store_config() -> StoreConfig {
    StoreConfig {
        segment_rotate_bytes: 512,
        fsync: true,
        ..StoreConfig::default()
    }
}

/// [`store_config`] with `max_chain_len: 0`: every install rebases, i.e.
/// writes a full snapshot. The classic install-interruption sweep below
/// was written around the root-flip commit point and keeps using this;
/// the delta-chain sweeps further down build their own chained stages.
fn full_only_config() -> StoreConfig {
    StoreConfig {
        max_chain_len: 0,
        ..store_config()
    }
}

/// Everything deterministic a finished run exposes. `Vec<TimelineStats>`
/// equality already ignores `wall_ms`.
#[derive(Debug, PartialEq)]
struct Outcome {
    timeline: Vec<TimelineStats>,
    digest: u64,
    batches_ingested: usize,
    cut: usize,
    graph: DynGraph,
    partitioning: Partitioning,
}

fn outcome_of(r: &StreamingRunner) -> Outcome {
    Outcome {
        timeline: r.timeline().to_vec(),
        digest: r.timeline_digest(),
        batches_ingested: r.batches_ingested(),
        cut: r.partitioner().cut_edges(),
        graph: r.partitioner().graph().clone(),
        partitioning: r.partitioner().partitioning().clone(),
    }
}

/// The uninterrupted reference run.
fn reference_outcome() -> Outcome {
    let mut r = runner();
    let mut s = cdr();
    assert_eq!(r.drive(&mut s, TOTAL), TOTAL);
    outcome_of(&r)
}

// ---------------------------------------------------------------------------
// Scratch directories and directory-level injection plumbing.

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("apg-crash-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn copy_dir(src: &Path, dst: &Path) {
    let _ = fs::remove_dir_all(dst);
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap().flatten() {
        fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// Segment files in sequence order — the order the writer filled them.
fn segment_files(dir: &Path) -> Vec<String> {
    let mut segs: Vec<(u64, String)> = file_names(dir)
        .into_iter()
        .filter_map(|name| {
            let seq: u64 = name
                .strip_prefix("seg-")?
                .strip_suffix(".bin")?
                .parse()
                .ok()?;
            Some((seq, name))
        })
        .collect();
    segs.sort();
    segs.into_iter().map(|(_, name)| name).collect()
}

/// Writes the full durable history into `stages/…`, copying the directory
/// at each durable milestone:
///
/// * `pre-install2`  — root = snapshot@SNAP_AT, 4-batch write-ahead tail;
/// * `post-install2` — root = snapshot@SNAP2_AT, empty tail;
/// * `final`         — root = snapshot@SNAP2_AT, 3-batch tail (clean end).
fn build_stages(stages: &Path) -> (PathBuf, PathBuf, PathBuf) {
    let live = stages.join("live");
    let pre2 = stages.join("pre-install2");
    let post2 = stages.join("post-install2");
    let done = stages.join("final");

    let (mut store, rec) = CheckpointStore::open(&live, full_only_config()).unwrap();
    assert!(
        rec.checkpoint.is_none(),
        "fresh directory must recover empty"
    );
    let mut r = runner();
    let mut s = cdr();
    assert_eq!(r.drive(&mut s, SNAP_AT), SNAP_AT);
    store.install(&mut r).unwrap();
    for _ in SNAP_AT..SNAP2_AT {
        let batch = s.next_batch().unwrap();
        r.ingest(&batch);
        store.append(&batch).unwrap();
    }
    copy_dir(&live, &pre2);
    let report = store.install(&mut r).unwrap();
    assert!(
        !report.incremental,
        "full-only config must never chain a delta"
    );
    copy_dir(&live, &post2);
    for _ in SNAP2_AT..TOTAL {
        let batch = s.next_batch().unwrap();
        r.ingest(&batch);
        store.append(&batch).unwrap();
    }
    copy_dir(&live, &done);

    // The sweeps need a multi-segment tail to mean anything.
    assert!(
        segment_files(&pre2).len() >= 2,
        "rotation threshold too large: the pre-install tail fits one segment"
    );
    (pre2, post2, done)
}

/// Recovers whatever is durable in `dir`, resumes it, finishes the stream,
/// and returns `(batches recovered, final outcome)`.
fn recover_and_finish(dir: &Path) -> Result<(usize, Outcome), StoreError> {
    let (_store, rec) = CheckpointStore::open(dir, store_config())?;
    let ckpt = rec
        .checkpoint
        .ok_or(StoreError::Corrupt("no durable snapshot to recover"))?;
    let mut r = StreamingRunner::resume(ckpt);
    let recovered = r.batches_ingested();
    assert!(recovered <= TOTAL, "recovered past the end of the stream");
    let mut s = cdr();
    s.fast_forward(SourceCursor::at(recovered as u64));
    assert_eq!(r.drive(&mut s, TOTAL - recovered), TOTAL - recovered);
    Ok((recovered, outcome_of(&r)))
}

/// [`recover_and_finish`] under `catch_unwind`: a panic anywhere in the
/// recovery path fails the sweep with the injection context attached.
fn recover_no_panic(dir: &Path, context: &str) -> Result<(usize, Outcome), StoreError> {
    match catch_unwind(AssertUnwindSafe(|| recover_and_finish(dir))) {
        Ok(result) => result,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            panic!("recovery PANICKED under injection [{context}]: {msg}");
        }
    }
}

/// Byte offsets worth attacking in a frame file: every header byte, every
/// frame boundary ± 1, and a stride over the rest.
fn sweep_offsets(bytes: &[u8]) -> Vec<usize> {
    let len = bytes.len();
    let mut offsets: Vec<usize> = (0..len.min(8)).collect();
    // Frame boundaries, parsed from the length prefixes (frames are
    // `[len u32][crc u32][seq u64][payload]` after the 6-byte header).
    let mut pos = 6usize;
    while pos + 16 <= len {
        let frame_len =
            u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let next = pos.saturating_add(16).saturating_add(frame_len);
        for off in [pos.saturating_sub(1), pos, pos + 1, next.saturating_sub(1)] {
            if off < len {
                offsets.push(off);
            }
        }
        if next <= pos || next > len {
            break;
        }
        pos = next;
    }
    let stride = (len / 48).max(1);
    offsets.extend((0..len).step_by(stride));
    if len > 0 {
        offsets.push(len - 1);
    }
    offsets.sort_unstable();
    offsets.dedup();
    offsets
}

// ---------------------------------------------------------------------------
// Sweep 1: the writer is killed mid-append at an arbitrary byte offset.
// Everything after the kill point was never written, so recovery must
// ALWAYS succeed, landing on the durable prefix, and finishing the stream
// must reproduce the uninterrupted run exactly.

#[test]
fn kill_at_any_tail_offset_recovers_the_durable_prefix() {
    let stages = Scratch::new("kill-stages");
    let (pre2, _, _) = build_stages(&stages.0);
    let reference = reference_outcome();
    let work = Scratch::new("kill-work");

    let segments = segment_files(&pre2);
    let mut recovered_counts = std::collections::BTreeSet::new();
    let mut injections = 0usize;
    for (i, segment) in segments.iter().enumerate() {
        let pristine = fs::read(pre2.join(segment)).unwrap();
        for &cut in sweep_offsets(&pristine)
            .iter()
            .chain([pristine.len()].iter())
        {
            // A kill at byte `cut` of segment `i`: later segments were
            // never created, this one stops at the cut.
            copy_dir(&pre2, &work.0);
            for later in &segments[i + 1..] {
                fs::remove_file(work.0.join(later)).unwrap();
            }
            fs::write(work.0.join(segment), &pristine[..cut]).unwrap();

            let context = format!("truncate {segment} at {cut}");
            let (recovered, outcome) = recover_no_panic(&work.0, &context)
                .unwrap_or_else(|e| panic!("kill must always recover [{context}]: {e}"));
            assert!(
                (SNAP_AT..=SNAP2_AT).contains(&recovered),
                "[{context}] recovered {recovered} batches, outside the durable range"
            );
            assert_eq!(
                outcome, reference,
                "[{context}] diverged from the uninterrupted run"
            );
            recovered_counts.insert(recovered);
            injections += 1;
        }
    }
    assert!(
        recovered_counts.len() >= 3,
        "sweep too coarse: only recovery points {recovered_counts:?} were exercised"
    );
    assert!(injections >= 40, "sweep too small: {injections} injections");
}

// ---------------------------------------------------------------------------
// Sweep 2: a single flipped bit anywhere on disk. The outcome must be
// either a typed error (damaged durable artefact detected) or full
// recovery that still matches the uninterrupted run — never a panic,
// never a silently wrong timeline.

#[test]
fn bit_flips_anywhere_are_typed_errors_or_exact_recovery() {
    let stages = Scratch::new("flip-stages");
    let (_, _, done) = build_stages(&stages.0);
    let reference = reference_outcome();
    let work = Scratch::new("flip-work");

    let mut recoveries = 0usize;
    let mut typed_errors = 0usize;
    for name in file_names(&done) {
        let pristine = fs::read(done.join(&name)).unwrap();
        for &off in &sweep_offsets(&pristine) {
            for mask in [0x01u8, 0x80] {
                let mut damaged = pristine.clone();
                damaged[off] ^= mask;
                copy_dir(&done, &work.0);
                fs::write(work.0.join(&name), &damaged).unwrap();

                let context = format!("flip {name}[{off}] ^ {mask:#04x}");
                match recover_no_panic(&work.0, &context) {
                    Ok((_, outcome)) => {
                        assert_eq!(
                            outcome, reference,
                            "[{context}] recovered but diverged — silent corruption"
                        );
                        recoveries += 1;
                    }
                    Err(StoreError::Io { .. }) => {
                        panic!("[{context}] flipped bits must never surface as I/O errors")
                    }
                    Err(_) => typed_errors += 1,
                }
            }
        }
    }
    // Both arms of the contract must actually have been exercised.
    assert!(recoveries > 0, "no flip recovered — sweep proves nothing");
    assert!(typed_errors > 0, "no flip errored — sweep proves nothing");
}

// ---------------------------------------------------------------------------
// Sweep 3: the writer dies *inside* install_snapshot. Until the manifest
// rename lands, the old root must recover; after it, the new one.

#[test]
fn interrupted_snapshot_install_preserves_a_consistent_root() {
    let stages = Scratch::new("install-stages");
    let (pre2, post2, _) = build_stages(&stages.0);
    let reference = reference_outcome();
    let work = Scratch::new("install-work");

    // The artefacts the second install writes, taken from the completed
    // image: the new snapshot file, the fresh segment, the flipped
    // manifest.
    let new_snapshot = file_names(&post2)
        .into_iter()
        .find(|n| n.starts_with("snap-") && !pre2.join(n).exists())
        .expect("install2 wrote a new snapshot");
    let fresh_segment = segment_files(&post2)
        .into_iter()
        .find(|n| !pre2.join(n).exists())
        .expect("install2 opened a fresh segment");
    let snap_bytes = fs::read(post2.join(&new_snapshot)).unwrap();
    let manifest_bytes = fs::read(post2.join("MANIFEST")).unwrap();

    // Kill mid-snapshot-write: partial snap file, manifest not flipped.
    // The old root must recover at every cut, including cut == len (the
    // snapshot fully written but never named).
    for &cut in sweep_offsets(&snap_bytes)
        .iter()
        .chain([snap_bytes.len()].iter())
    {
        copy_dir(&pre2, &work.0);
        fs::write(work.0.join(&new_snapshot), &snap_bytes[..cut]).unwrap();
        let context = format!("install killed at snap byte {cut}");
        let (recovered, outcome) = recover_no_panic(&work.0, &context)
            .unwrap_or_else(|e| panic!("[{context}] old root must recover: {e}"));
        assert_eq!(recovered, SNAP2_AT, "[{context}]");
        assert_eq!(outcome, reference, "[{context}]");
    }

    // Kill after the fresh segment was created, and again after the new
    // manifest was written to its temp name — but before the rename: the
    // pointer flip is the only commit point.
    for with_tmp_manifest in [false, true] {
        copy_dir(&pre2, &work.0);
        fs::write(work.0.join(&new_snapshot), &snap_bytes).unwrap();
        fs::copy(post2.join(&fresh_segment), work.0.join(&fresh_segment)).unwrap();
        if with_tmp_manifest {
            fs::write(work.0.join("MANIFEST.tmp"), &manifest_bytes).unwrap();
        }
        let context = format!("install killed before rename (tmp={with_tmp_manifest})");
        let (recovered, outcome) = recover_no_panic(&work.0, &context)
            .unwrap_or_else(|e| panic!("[{context}] old root must recover: {e}"));
        assert_eq!(recovered, SNAP2_AT, "[{context}]");
        assert_eq!(outcome, reference, "[{context}]");
    }

    // And the completed install recovers the new root.
    copy_dir(&post2, &work.0);
    let (recovered, outcome) = recover_no_panic(&work.0, "completed install").unwrap();
    assert_eq!(recovered, SNAP2_AT);
    assert_eq!(outcome, reference);
}

/// A store-level frame can be intact while its *payload* violates the
/// checkpoint codec: that must surface as the typed `Decode` arm, the
/// recoverable signal that a foreign or hand-edited file was planted.
#[test]
fn valid_frame_with_garbage_payload_is_a_typed_decode_error() {
    let stages = Scratch::new("garbage-stages");
    let (_, _, done) = build_stages(&stages.0);
    let work = Scratch::new("garbage-work");
    copy_dir(&done, &work.0);

    let snapshot = file_names(&work.0)
        .into_iter()
        .rfind(|n| n.starts_with("snap-"))
        .unwrap();
    // A perfectly framed snapshot file whose payload is noise.
    let payload = b"not a checkpoint at all";
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC_STORE_SNAPSHOT);
    bytes.extend_from_slice(&format::VERSION.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let mut body = 0u64.to_le_bytes().to_vec();
    body.extend_from_slice(payload);
    bytes.extend_from_slice(&crc32(&body).to_le_bytes());
    bytes.extend_from_slice(&body);
    fs::write(work.0.join(&snapshot), &bytes).unwrap();

    match CheckpointStore::open(&work.0, store_config()) {
        Err(StoreError::Decode(_)) => {}
        other => panic!("garbage payload must be StoreError::Decode, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Delta-chain sweeps: the same crash discipline over chained incremental
// installs. A light-churn workload (a handful of edge flips per batch on a
// fixed vertex set) keeps every non-first install genuinely incremental —
// the store only chains a delta when it beats the full snapshot on size —
// and keeps the live edge set O(1), which the footprint test below needs.

const CHAIN_VERTICES: usize = 400;
const CHAIN_TOTAL: usize = 8;

/// The edges batch `i` inserts: six disjoint `(a, a+1)` pairs inside a
/// block that cycles mod 3 so consecutive batches never touch the same
/// slots.
fn chain_edges(i: usize) -> Vec<(u32, u32)> {
    let block = (i % 3) as u32 * 130;
    (0..6u32)
        .map(|k| {
            let a = block + (i as u32 * 7 + k * 11) % 120;
            (a, a + 1)
        })
        .collect()
}

/// Batch `i` of the light-churn schedule: insert this batch's block,
/// remove the block inserted two batches ago (still untouched since —
/// the blocks are disjoint across any three consecutive batches).
fn chain_batch(i: usize) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    for (u, v) in chain_edges(i) {
        batch.add_edge(u, v);
    }
    if i >= 2 {
        for (u, v) in chain_edges(i - 2) {
            batch.remove_edge(u, v);
        }
    }
    batch
}

fn chain_runner() -> StreamingRunner {
    let graph = DynGraph::with_vertices(CHAIN_VERTICES);
    let cfg = AdaptiveConfig::builder(4).parallelism(2).build().unwrap();
    StreamingRunner::new(AdaptivePartitioner::with_strategy(
        &graph,
        InitialStrategy::Hash,
        &cfg,
        SEED,
    ))
    .iterations_per_batch(2)
}

/// The uninterrupted reference over the light-churn schedule.
fn chain_reference() -> Outcome {
    let mut r = chain_runner();
    for i in 0..CHAIN_TOTAL {
        r.ingest(&chain_batch(i));
    }
    outcome_of(&r)
}

/// Builds a two-link delta chain with durable milestones:
///
/// * `pre-top` — root = delta@4 (one link), batches 4.. not yet appended;
/// * `final`   — root = delta@6 (two links), 2-batch write-ahead tail.
fn build_chain_stages(stages: &Path) -> (PathBuf, PathBuf) {
    let live = stages.join("live");
    let pre_top = stages.join("pre-top");
    let done = stages.join("final");

    let (mut store, rec) = CheckpointStore::open(&live, store_config()).unwrap();
    assert!(rec.checkpoint.is_none(), "fresh directory recovers empty");
    let mut r = chain_runner();
    let drive = |r: &mut StreamingRunner, store: &mut CheckpointStore, from: usize, to: usize| {
        for i in from..to {
            let batch = chain_batch(i);
            r.ingest(&batch);
            store.append(&batch).unwrap();
        }
    };
    drive(&mut r, &mut store, 0, 2);
    let report = store.install(&mut r).unwrap();
    assert!(!report.incremental, "the first install is the chain base");
    drive(&mut r, &mut store, 2, 4);
    let report = store.install(&mut r).unwrap();
    assert!(report.incremental, "light churn must chain a delta");
    assert_eq!(store.store().chain_len(), 1);
    copy_dir(&live, &pre_top);
    drive(&mut r, &mut store, 4, 6);
    let report = store.install(&mut r).unwrap();
    assert!(report.incremental, "light churn must chain a second delta");
    assert_eq!(store.store().chain_len(), 2);
    drive(&mut r, &mut store, 6, CHAIN_TOTAL);
    copy_dir(&live, &done);
    (pre_top, done)
}

/// Recovers `dir`, replays the rest of the light-churn schedule, and
/// returns `(batches recovered, final outcome)`.
fn recover_chain_and_finish(dir: &Path) -> Result<(usize, Outcome), StoreError> {
    let (_store, rec) = CheckpointStore::open(dir, store_config())?;
    let ckpt = rec
        .checkpoint
        .ok_or(StoreError::Corrupt("no durable snapshot to recover"))?;
    let mut r = StreamingRunner::resume(ckpt);
    let recovered = r.batches_ingested();
    assert!(recovered <= CHAIN_TOTAL, "recovered past the stream's end");
    for i in recovered..CHAIN_TOTAL {
        r.ingest(&chain_batch(i));
    }
    Ok((recovered, outcome_of(&r)))
}

/// Runs `f` under `catch_unwind`, failing with the injection context on
/// panic.
fn no_panic<T>(context: &str, f: impl FnOnce() -> T) -> T {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => v,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            panic!("recovery PANICKED under injection [{context}]: {msg}");
        }
    }
}

/// Every single-bit flip and every truncation of every byte of both chain
/// links: recovery is a typed error or an exact match of the reference —
/// never a panic, never silent divergence.
#[test]
fn chain_link_corruption_is_typed_or_exact_recovery() {
    let stages = Scratch::new("chain-flip-stages");
    let (_, done) = build_chain_stages(&stages.0);
    let reference = chain_reference();
    let work = Scratch::new("chain-flip-work");

    let links: Vec<String> = file_names(&done)
        .into_iter()
        .filter(|n| n.starts_with("dsnap-"))
        .collect();
    assert_eq!(links.len(), 2, "stage must hold a two-link chain");
    let mut typed_errors = 0usize;
    for name in &links {
        let pristine = fs::read(done.join(name)).unwrap();
        for off in 0..pristine.len() {
            for damage in ["flip", "truncate"] {
                let bytes = if damage == "flip" {
                    let mut b = pristine.clone();
                    b[off] ^= 0x01;
                    b
                } else {
                    pristine[..off].to_vec()
                };
                copy_dir(&done, &work.0);
                fs::write(work.0.join(name), &bytes).unwrap();
                let context = format!("{damage} {name} at {off}");
                match no_panic(&context, || recover_chain_and_finish(&work.0)) {
                    Ok((_, outcome)) => assert_eq!(
                        outcome, reference,
                        "[{context}] recovered but diverged — silent corruption"
                    ),
                    Err(StoreError::Io { .. }) => {
                        panic!("[{context}] damage must never surface as I/O errors")
                    }
                    Err(_) => typed_errors += 1,
                }
            }
        }
    }
    assert!(typed_errors > 0, "no damage errored — sweep proves nothing");
}

/// The writer dies between writing a new chain link and flipping the
/// manifest — including every partial write of the link file. The
/// un-named link is invisible: recovery lands exactly on the previous
/// root (the last intact chain prefix) and finishing the stream matches
/// the uninterrupted run.
#[test]
fn kill_between_chain_append_and_manifest_flip_recovers_the_prefix() {
    let stages = Scratch::new("chain-kill-stages");
    let (pre_top, done) = build_chain_stages(&stages.0);
    let reference = chain_reference();
    let work = Scratch::new("chain-kill-work");

    let top = file_names(&done)
        .into_iter()
        .filter(|n| n.starts_with("dsnap-"))
        .rfind(|n| !pre_top.join(n).exists())
        .expect("the second install wrote a new chain link");
    let top_bytes = fs::read(done.join(&top)).unwrap();

    for cut in (0..=top_bytes.len()).rev() {
        copy_dir(&pre_top, &work.0);
        fs::write(work.0.join(&top), &top_bytes[..cut]).unwrap();
        let context = format!("chain link written to byte {cut}, manifest not flipped");
        let (recovered, outcome) = no_panic(&context, || recover_chain_and_finish(&work.0))
            .unwrap_or_else(|e| panic!("[{context}] the prefix root must recover: {e}"));
        assert_eq!(recovered, 4, "[{context}] must land on the intact prefix");
        assert_eq!(outcome, reference, "[{context}] diverged");
    }
}

// ---------------------------------------------------------------------------
// The bounded timeline window: resume must reposition the source from the
// explicit batches_ingested counter, not from the retained suffix length.

#[test]
fn bounded_window_resume_repositions_by_batches_ingested() {
    const WINDOW: usize = 3;
    const CKPT_AT: usize = 6;
    const _: () = assert!(WINDOW < CKPT_AT && CKPT_AT < TOTAL);

    // Unbounded and windowed uninterrupted references.
    let mut full = runner();
    assert_eq!(full.drive(&mut cdr(), TOTAL), TOTAL);
    let mut windowed = runner().timeline_window(WINDOW);
    assert_eq!(windowed.drive(&mut cdr(), TOTAL), TOTAL);

    // The interrupted windowed run: checkpoint once eviction has begun.
    let bytes = {
        let mut r = runner().timeline_window(WINDOW);
        let mut s = cdr();
        assert_eq!(r.drive(&mut s, CKPT_AT), CKPT_AT);
        let ckpt = r.checkpoint();
        assert_eq!(ckpt.timeline.len(), WINDOW, "suffix must be window-sized");
        assert_eq!(ckpt.runner.batches_ingested, CKPT_AT);
        // The satellite bugfix pin: with timeline.len() == 3 and a stream
        // position of 6, a cursor derived from the suffix length would
        // silently rewind the source by three batches.
        assert_eq!(ckpt.cursor(), SourceCursor::at(CKPT_AT as u64));
        assert_eq!(ckpt.cursor(), s.cursor(), "cursor must track the source");
        ckpt.to_bytes()
    };

    let ckpt = StreamCheckpoint::from_bytes(&bytes).unwrap();
    let mut s = cdr();
    s.fast_forward(ckpt.cursor());
    let mut resumed = StreamingRunner::resume(ckpt);
    assert_eq!(resumed.drive(&mut s, TOTAL - CKPT_AT), TOTAL - CKPT_AT);

    // Indistinguishable from the uninterrupted windowed run...
    assert_eq!(resumed.timeline(), windowed.timeline());
    assert_eq!(resumed.timeline_digest(), windowed.timeline_digest());
    assert_eq!(resumed.batches_ingested(), TOTAL);
    assert_eq!(resumed.timeline_evicted(), TOTAL - WINDOW);
    // ...and from the unbounded run wherever they can be compared: same
    // final graph/assignment, the retained suffix is literally the full
    // run's last WINDOW entries, and the digest replays the evicted
    // prefix entry for entry.
    assert_eq!(resumed.partitioner().graph(), full.partitioner().graph());
    assert_eq!(
        resumed.partitioner().partitioning(),
        full.partitioner().partitioning()
    );
    assert_eq!(resumed.timeline(), &full.timeline()[TOTAL - WINDOW..]);
    let mut digest = TIMELINE_DIGEST_SEED;
    for stats in &full.timeline()[..TOTAL - WINDOW] {
        digest = fold_timeline_digest(digest, stats);
    }
    assert_eq!(resumed.timeline_digest(), digest);
}

/// The windowed checkpoint's timeline contribution is O(window), not
/// O(stream). The graph itself legitimately grows with the stream, so the
/// assertion compares windowed against unbounded checkpoints *at the same
/// stream position* — graph and partitioner bytes cancel exactly (the
/// window changes nothing about ingestion), leaving only timeline bytes.
#[test]
fn windowed_checkpoint_size_is_flat_in_stream_length() {
    let size_after = |window: usize, batches: usize| -> usize {
        let mut r = runner().timeline_window(window);
        assert_eq!(r.drive(&mut cdr(), batches), batches);
        r.checkpoint().to_bytes().len()
    };
    let win_short = size_after(2, 4);
    let win_long = size_after(2, 9);
    let unb_short = size_after(usize::MAX, 4);
    let unb_long = size_after(usize::MAX, 9);

    // The window never makes the artefact bigger...
    assert!(win_short < unb_short, "{win_short} vs {unb_short}");
    assert!(win_long < unb_long, "{win_long} vs {unb_long}");
    // ...the unbounded gap widens with every evicted entry (2 evicted at
    // batch 4, 7 at batch 9)...
    let gap_short = unb_short - win_short;
    let gap_long = unb_long - win_long;
    assert!(
        gap_long > gap_short,
        "timeline eviction saved nothing extra: gap {gap_short} -> {gap_long}"
    );
    // ...and per-batch growth of the windowed artefact is strictly below
    // the unbounded one: the timeline term has dropped out of the slope.
    assert!(
        win_long - win_short < unb_long - unb_short,
        "windowed checkpoint grew as fast as the unbounded one: \
         {win_short}->{win_long} vs {unb_short}->{unb_long}"
    );

    // The *durable* footprint is O(window + chain), too. Installing on
    // every batch of the steady-state light-churn schedule (the live edge
    // set is O(1) by construction) and comparing live bytes at the same
    // chain phase — `max_chain_len` installs apart, so both sides hold an
    // equally long chain — tripling the stream must leave live bytes
    // essentially flat. An O(stream) store would show a 2.5x ratio here;
    // rebase + GC keep it near 1x, and 2x is the generous failure line.
    let live_after = |total: usize| -> u64 {
        let scratch = Scratch::new(&format!("flat-live-{total}"));
        let (mut store, _) = CheckpointStore::open(&scratch.0, store_config()).unwrap();
        let mut r = chain_runner().timeline_window(2);
        let mut incremental = 0usize;
        for i in 0..total {
            let batch = chain_batch(i);
            r.ingest(&batch);
            store.append(&batch).unwrap();
            if store.install(&mut r).unwrap().incremental {
                incremental += 1;
            }
            assert!(store.store().chain_len() <= store_config().max_chain_len);
        }
        assert!(
            incremental * 2 > total,
            "light churn must chain deltas: {incremental}/{total} incremental"
        );
        store.store().live_bytes()
    };
    let phase = store_config().max_chain_len + 1;
    let live_short = live_after(12);
    let live_long = live_after(12 + 2 * phase);
    assert!(
        live_long < 2 * live_short,
        "durable footprint grew with the stream: {live_short} -> {live_long}"
    );
}

/// Installs stay O(changed) — proved with the allocation counters, not a
/// stopwatch. After a 10-edge batch on a graph of over half a million
/// edges, the chained install may allocate for the delta and the O(window)
/// timeline, nothing graph-sized: a clone of the graph costs at least its
/// arena, a full encode at least one byte per edge and two per slot, and
/// either overshoots a quarter of the arena on its own. Every build
/// measures it: no install captures anything.
#[test]
fn chained_install_allocates_nothing_graph_sized() {
    use apg::graph::Graph;
    let _exclusive = graph_sized();
    let graph = DynGraph::from(&apg::graph::gen::holme_kim(64_000, 10, 0.1, SEED));
    assert!(graph.num_vertices() >= 50_000 && graph.num_edges() >= 500_000);
    // Every edge sits in two neighbour lists of 4-byte ids.
    let arena_bytes = 2 * graph.num_edges() * std::mem::size_of::<u32>();
    let cfg = AdaptiveConfig::builder(4).parallelism(2).build().unwrap();
    let partitioner = AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &cfg, SEED);
    drop(graph);
    // Ingest only: the point is a small changed set on a large graph.
    let mut r = StreamingRunner::new(partitioner).iterations_per_batch(0);
    let scratch = Scratch::new("install-peak");
    let (mut store, _) = CheckpointStore::open(&scratch.0, StoreConfig::default()).unwrap();
    assert!(!store.install(&mut r).unwrap().incremental);

    let mut ten_edges = |offset: u32| {
        let mut batch = UpdateBatch::new();
        for i in 0..10 {
            batch.add_edge(1_000 + offset + i, 40_000 + 7 * (offset + i));
        }
        r.ingest(&batch);
        store.append(&batch).unwrap();
        let baseline = reset_peak();
        let report = store.install(&mut r).unwrap();
        (report, peak_above(baseline))
    };
    for offset in [0, 10] {
        let (report, peak) = ten_edges(offset);
        assert!(report.incremental, "a 10-edge change must chain a delta");
        assert!(report.bytes < 4096, "delta of {} bytes", report.bytes);
        assert!(
            peak < arena_bytes / 4,
            "a chained install allocated {peak} bytes against a {arena_bytes}-byte arena: \
             something graph-sized was cloned or encoded"
        );
    }
}

/// Recovery builds one graph. `CheckpointStore::open` of a store whose
/// root is a two-link delta chain over a graph of over half a million
/// edges replays the chain into the one checkpoint it returns; the store
/// itself keeps only the root's small members. So the open peaks at that
/// checkpoint plus what it reads and frees on the way — less than the
/// edge arena a second copy of the graph would cost on its own.
#[test]
fn open_of_a_chained_store_builds_one_graph() {
    use apg::graph::Graph;
    let _exclusive = graph_sized();
    let graph = DynGraph::from(&apg::graph::gen::holme_kim(64_000, 10, 0.1, SEED));
    assert!(graph.num_edges() >= 500_000);
    // Every edge sits in two neighbour lists of 4-byte ids.
    let arena_bytes = 2 * graph.num_edges() * std::mem::size_of::<u32>();
    let cfg = AdaptiveConfig::builder(4).parallelism(2).build().unwrap();
    let partitioner = AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &cfg, SEED);
    drop(graph);
    let mut r = StreamingRunner::new(partitioner).iterations_per_batch(0);
    let scratch = Scratch::new("open-peak");
    let (mut store, _) = CheckpointStore::open(&scratch.0, StoreConfig::default()).unwrap();
    assert!(!store.install(&mut r).unwrap().incremental);
    for offset in [0u32, 10, 20] {
        let mut batch = UpdateBatch::new();
        for i in 0..10 {
            batch.add_edge(1_000 + offset + i, 40_000 + 7 * (offset + i));
        }
        r.ingest(&batch);
        store.append(&batch).unwrap();
        if offset < 20 {
            assert!(store.install(&mut r).unwrap().incremental);
        }
    }
    assert_eq!(store.store().chain_len(), 2);
    drop(store);

    let baseline = reset_peak();
    let (store, recovered) = CheckpointStore::open(&scratch.0, StoreConfig::default()).unwrap();
    let peak = peak_above(baseline);
    drop(store);
    let checkpoint_bytes = LIVE_BYTES.load(Ordering::Relaxed).saturating_sub(baseline);
    let checkpoint = recovered.checkpoint.expect("a durable root");
    assert_eq!(
        checkpoint.tail.len(),
        1,
        "the last batch is write-ahead only"
    );
    let resumed = StreamingRunner::resume(checkpoint);
    assert!(resumed.partitioner().graph() == r.partitioner().graph());
    assert!(
        peak < checkpoint_bytes + arena_bytes,
        "open peaked at {peak} bytes for a {checkpoint_bytes}-byte recovered checkpoint \
         and a {arena_bytes}-byte arena: a second graph was built"
    );
}

// ---------------------------------------------------------------------------
// Decoder totality over the golden fixtures: every single-byte corruption
// and truncation of every fixture must decode to a typed error or to a
// value that re-encodes canonically — never a panic, never a blow-up in
// allocated memory.

fn fixture_bytes(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read(&path).unwrap_or_else(|e| panic!("missing golden fixture {path:?}: {e}"))
}

/// Decodes `bytes` as fixture kind `which`, asserting totality: no panic
/// (proptest/the test harness catches those), bounded peak allocation,
/// and canonical re-encoding on success. Returns whether it decoded.
fn assert_total_decode(which: usize, bytes: &[u8], context: &str) -> bool {
    let baseline = reset_peak();
    let reencoded: Option<Vec<u8>> = match which {
        0 => DynGraph::from_snapshot_bytes(bytes)
            .ok()
            .map(|g| g.to_snapshot_bytes()),
        1 => DeltaLog::from_segment_bytes(bytes)
            .ok()
            .map(|l| l.to_segment_bytes()),
        _ => StreamCheckpoint::from_bytes(bytes)
            .ok()
            .map(|c| c.to_bytes()),
    };
    let peak = peak_above(baseline);
    assert!(
        peak < DECODE_PEAK_BOUND,
        "[{context}] decode allocated {peak} bytes from a {}-byte input",
        bytes.len()
    );
    match reencoded {
        None => false,
        Some(out) => {
            assert_eq!(
                out, bytes,
                "[{context}] decoded value does not re-encode canonically"
            );
            true
        }
    }
}

/// The committed name of a fixture at the current format version.
fn fixture_name(stem: &str, ext: &str) -> String {
    format!("{stem}_v{}.{ext}", format::VERSION)
}

/// The three golden fixtures, in decoder order (`assert_total_decode`'s
/// `which`).
fn fixtures() -> [String; 3] {
    [
        fixture_name("graph", "apgg"),
        fixture_name("log", "apgl"),
        fixture_name("checkpoint", "apgc"),
    ]
}

/// Exhaustive single-byte corruption: every offset, three masks, every
/// fixture, decoded by every decoder (cross-decoding covers the
/// wrong-magic paths).
#[test]
fn decoder_survives_every_single_byte_corruption() {
    for name in fixtures() {
        let golden = fixture_bytes(&name);
        for off in 0..golden.len() {
            for mask in [0x01u8, 0x80, 0xff] {
                let mut bytes = golden.clone();
                bytes[off] ^= mask;
                for which in 0..3 {
                    assert_total_decode(which, &bytes, &format!("{name}[{off}]^{mask:#04x}"));
                }
            }
        }
        // Every truncation, too.
        for cut in 0..golden.len() {
            for which in 0..3 {
                assert!(
                    !assert_total_decode(which, &golden[..cut], &format!("{name}[..{cut}]")),
                    "a strict prefix of {name} decoded successfully"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Random multi-byte corruption + truncation stacks on the fixtures:
    /// still total, still canonical, still allocation-bounded.
    #[test]
    fn decoder_totality_under_fuzzed_corruption(
        which in 0usize..3,
        flips in proptest::collection::vec((0usize..4096, 1u8..255), 1..6),
        cut in 0usize..4096,
        truncate in 0u8..2,
    ) {
        let name = &fixtures()[which];
        let golden = fixture_bytes(name);
        let mut bytes = golden.clone();
        for &(off, mask) in &flips {
            let at = off % bytes.len();
            bytes[at] ^= mask;
        }
        if truncate == 1 {
            let keep = cut % (bytes.len() + 1);
            bytes.truncate(keep);
        }
        let mutated = bytes != golden;
        for decoder in 0..3 {
            let decoded = assert_total_decode(
                decoder,
                &bytes,
                &format!("fuzz {name} flips={flips:?}"),
            );
            // An actually-mutated artefact may still decode (a flip in a
            // don't-care f64 bit pattern, say) — canonical re-encoding was
            // already asserted. But the untouched golden bytes MUST decode
            // under their own decoder.
            if !mutated && decoder == which {
                prop_assert!(decoded, "pristine fixture failed to decode");
            }
        }
    }

    /// A corrupt length varint must fail fast, not allocate: plant a
    /// maximal varint where a sequence length lives and decode.
    #[test]
    fn huge_claimed_lengths_never_allocate(
        which in 0usize..3,
        off in 0usize..4096,
    ) {
        let mut bytes = fixture_bytes(&fixtures()[which]);
        // A 10-byte varint encoding u64::MAX, spliced mid-payload (past
        // the 6-byte header) — wherever it lands, decode must reject it
        // without reserving u64::MAX elements.
        let at = 6 + off % (bytes.len() - 6);
        let huge = [0xffu8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
        let tail: Vec<u8> = bytes.split_off(at);
        bytes.extend_from_slice(&huge);
        bytes.extend_from_slice(&tail);
        for decoder in 0..3 {
            assert_total_decode(decoder, &bytes, &format!("huge varint at {at}"));
        }
    }
}

/// Typed-error taxonomy: the whole decode surface returns `DecodeError`
/// variants, and the store wraps them — no `unwrap` escape hatch survives
/// the recovery path.
#[test]
fn corruption_errors_are_typed_and_displayable() {
    let golden = fixture_bytes(&fixture_name("checkpoint", "apgc"));
    let mut wrong_version = golden.clone();
    wrong_version[4..6].copy_from_slice(&(format::VERSION + 7).to_le_bytes());
    let errors = [
        StreamCheckpoint::from_bytes(&golden[..golden.len() - 1]).unwrap_err(),
        StreamCheckpoint::from_bytes(&wrong_version).unwrap_err(),
        StreamCheckpoint::from_bytes(b"").unwrap_err(),
    ];
    for err in errors {
        assert!(
            matches!(
                err,
                DecodeError::UnexpectedEof { .. }
                    | DecodeError::Corrupt(_)
                    | DecodeError::BadMagic { .. }
                    | DecodeError::UnsupportedVersion { .. }
                    | DecodeError::TrailingBytes { .. }
            ),
            "unexpected error shape: {err:?}"
        );
        assert!(!err.to_string().is_empty());
    }
}

/// The `UpdateBatch` payloads inside write-ahead frames decode totally
/// too (they cross the store boundary on recovery).
#[test]
fn tail_batch_payloads_decode_totally() {
    let mut batch = UpdateBatch::new();
    let a = batch.add_vertex(vec![1, 2]);
    let b = batch.add_vertex(vec![]);
    batch.connect_new(a, b);
    batch.add_edge(0, 9);
    batch.remove_vertex(3);
    let golden = batch.to_bytes();
    for off in 0..golden.len() {
        for mask in [0x01u8, 0x80, 0xff] {
            let mut bytes = golden.clone();
            bytes[off] ^= mask;
            let baseline = reset_peak();
            if let Ok(decoded) = UpdateBatch::from_bytes(&bytes) {
                assert_eq!(decoded.to_bytes(), bytes, "batch re-encode not canonical");
            }
            let peak = peak_above(baseline);
            assert!(peak < DECODE_PEAK_BOUND, "batch decode allocated {peak}");
        }
    }
}
