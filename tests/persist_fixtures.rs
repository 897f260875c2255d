//! Golden-fixture pins for the persistence formats.
//!
//! Small canonical artefacts — a graph snapshot, a delta-log segment, a
//! full stream checkpoint — are committed under `tests/fixtures/`. Each
//! test (a) re-encodes the canonical in-memory value and requires **byte
//! equality** with the committed file, and (b) decodes the committed file
//! and requires value equality — so the wire format cannot drift in either
//! direction without this suite failing. Header handling (wrong magic,
//! future version, truncation, trailing bytes) is pinned against the same
//! files.
//!
//! Fixture names carry the format version (`graph_v{VERSION}.apgg`, see
//! [`fixture_name`]), so after an *intentional* format change — which must
//! bump `apg::persist::format::VERSION` — regenerating is
//!
//! ```text
//! APG_BLESS=1 cargo test --test persist_fixtures
//! ```
//!
//! then `git rm` the previous version's fixtures (a stale one fails
//! `fixture_directory_holds_only_current_version_files`) and commit the
//! new ones alongside the version bump.

use std::path::PathBuf;

use apg::core::{AdaptiveConfig, AdaptivePartitioner, StreamCheckpoint, StreamingRunner};
use apg::graph::{DeltaLog, DynGraph, Graph, UpdateBatch};
use apg::partition::InitialStrategy;
use apg::persist::format::{MAGIC_CHECKPOINT, MAGIC_GRAPH, MAGIC_LOG, VERSION};
use apg::persist::DecodeError;
use apg::streams::{PowerLawGrowth, StreamSource};

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// The committed name of a fixture at the current format version.
fn fixture_name(stem: &str, ext: &str) -> String {
    format!("{stem}_v{VERSION}.{ext}")
}

/// Loads a fixture, regenerating it first when `APG_BLESS=1`.
fn fixture(name: &str, canonical_bytes: &[u8]) -> Vec<u8> {
    let path = fixture_dir().join(name);
    if std::env::var_os("APG_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, canonical_bytes).unwrap();
    }
    std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {path:?} ({e}); run with APG_BLESS=1 to \
             regenerate after an intentional format change"
        )
    })
}

/// The canonical graph: 6 slots, 4 edges, one tombstone (vertex 2, which
/// had an edge before it died).
fn canonical_graph() -> DynGraph {
    let mut g = DynGraph::with_vertices(6);
    g.add_edge(0, 1);
    g.add_edge(0, 2);
    g.add_edge(1, 4);
    g.add_edge(3, 5);
    g.add_edge(4, 5);
    g.remove_vertex(2);
    g
}

/// The canonical log: two batches covering every delta variant.
fn canonical_log() -> DeltaLog {
    let mut log = DeltaLog::new();
    let mut b1 = UpdateBatch::new();
    let a = b1.add_vertex(vec![0, 3]);
    let b = b1.add_vertex(vec![]);
    b1.connect_new(a, b);
    b1.add_edge(1, 4);
    log.record(b1);
    let mut b2 = UpdateBatch::new();
    b2.remove_edge(0, 1);
    b2.remove_vertex(5);
    log.record(b2);
    log
}

/// The canonical checkpoint: a tiny deterministic power-law run (fixed
/// seed, parallelism 1 so the encoded config is machine-independent) with
/// one write-ahead tail batch, `wall_ms` normalised — the timeline's only
/// nondeterministic field, zeroed so the fixture is byte-stable.
fn canonical_checkpoint() -> StreamCheckpoint {
    let base = DynGraph::with_vertices(24);
    let cfg = AdaptiveConfig::builder(2).parallelism(1).build().unwrap();
    let p = AdaptivePartitioner::with_strategy(&base, InitialStrategy::Hash, &cfg, 7);
    let mut runner = StreamingRunner::new(p).iterations_per_batch(2);
    let mut source = PowerLawGrowth::new(&base, 2, 6, 7);
    runner.drive(&mut source, 2);
    let mut ckpt = runner.checkpoint();
    let batch = source.next_batch().unwrap();
    runner.ingest(&batch);
    ckpt.append(batch);
    for stats in &mut ckpt.timeline {
        stats.wall_ms = 0.0;
    }
    ckpt
}

#[test]
fn graph_fixture_is_pinned() {
    let g = canonical_graph();
    let bytes = g.to_snapshot_bytes();
    let golden = fixture(&fixture_name("graph", "apgg"), &bytes);
    assert_eq!(
        bytes, golden,
        "graph snapshot encoding drifted from the committed fixture; if \
         intentional, bump format::VERSION and re-bless"
    );
    let decoded = DynGraph::from_snapshot_bytes(&golden).unwrap();
    assert_eq!(decoded, g);
    assert_eq!(decoded.num_vertices(), 6);
    assert_eq!(decoded.num_live_vertices(), 5);
    assert!(!decoded.is_vertex(2), "tombstone lost");
}

#[test]
fn log_fixture_is_pinned() {
    let log = canonical_log();
    let bytes = log.to_segment_bytes();
    let golden = fixture(&fixture_name("log", "apgl"), &bytes);
    assert_eq!(
        bytes, golden,
        "delta-log encoding drifted from the committed fixture; if \
         intentional, bump format::VERSION and re-bless"
    );
    let decoded = DeltaLog::from_segment_bytes(&golden).unwrap();
    assert_eq!(decoded, log);
    // Replays land identically on a fresh population.
    let mut a = DynGraph::with_vertices(6);
    let mut b = DynGraph::with_vertices(6);
    log.replay(&mut a);
    decoded.replay(&mut b);
    assert_eq!(a, b);
}

#[test]
fn checkpoint_fixture_is_pinned() {
    let ckpt = canonical_checkpoint();
    let bytes = ckpt.to_bytes();
    let golden = fixture(&fixture_name("checkpoint", "apgc"), &bytes);
    assert_eq!(
        bytes, golden,
        "checkpoint encoding drifted from the committed fixture; if \
         intentional, bump format::VERSION and re-bless"
    );
    let decoded = StreamCheckpoint::from_bytes(&golden).unwrap();
    assert_eq!(decoded, ckpt);
    // The decoded fixture is a *working* checkpoint, not just bytes.
    let resumed = StreamingRunner::resume(decoded);
    assert_eq!(resumed.timeline().len(), 3);
    resumed.partitioner().audit();
}

#[test]
fn fixtures_reject_wrong_magic() {
    let graph = fixture(
        &fixture_name("graph", "apgg"),
        &canonical_graph().to_snapshot_bytes(),
    );
    // A graph file is not a log, a log is not a checkpoint, and so on.
    assert!(matches!(
        DeltaLog::from_segment_bytes(&graph).unwrap_err(),
        DecodeError::BadMagic {
            expected: MAGIC_LOG,
            found: MAGIC_GRAPH
        }
    ));
    assert!(matches!(
        StreamCheckpoint::from_bytes(&graph).unwrap_err(),
        DecodeError::BadMagic {
            expected: MAGIC_CHECKPOINT,
            found: MAGIC_GRAPH
        }
    ));
    // Garbage magic.
    let mut scribbled = graph.clone();
    scribbled[..4].copy_from_slice(b"NOPE");
    assert!(matches!(
        DynGraph::from_snapshot_bytes(&scribbled).unwrap_err(),
        DecodeError::BadMagic { found, .. } if &found == b"NOPE"
    ));
}

/// Decodes bytes that must not decode, returning the error.
type Reject = fn(&[u8]) -> DecodeError;

/// Every committed fixture with its canonical bytes and its decoder.
fn fixtures() -> [(String, Vec<u8>, Reject); 3] {
    [
        (
            fixture_name("graph", "apgg"),
            canonical_graph().to_snapshot_bytes(),
            |b| DynGraph::from_snapshot_bytes(b).unwrap_err(),
        ),
        (
            fixture_name("log", "apgl"),
            canonical_log().to_segment_bytes(),
            |b| DeltaLog::from_segment_bytes(b).unwrap_err(),
        ),
        (
            fixture_name("checkpoint", "apgc"),
            canonical_checkpoint().to_bytes(),
            |b| StreamCheckpoint::from_bytes(b).unwrap_err(),
        ),
    ]
}

/// The fixture's bytes with the header's version (offsets 4–5) patched.
fn with_version(golden: &[u8], version: u16) -> Vec<u8> {
    let mut patched = golden.to_vec();
    patched[4..6].copy_from_slice(&version.to_le_bytes());
    patched
}

#[test]
fn fixtures_reject_future_and_zero_versions() {
    for (name, canonical, decode_err) in fixtures() {
        let golden = fixture(&name, &canonical);
        assert_eq!(
            decode_err(&with_version(&golden, VERSION + 1)),
            DecodeError::UnsupportedVersion {
                found: VERSION + 1,
                supported: VERSION
            },
            "{name}"
        );
        assert!(
            matches!(
                decode_err(&with_version(&golden, 0)),
                DecodeError::UnsupportedVersion { found: 0, .. }
            ),
            "{name}"
        );
    }
}

/// A build refuses every older container with a typed version error —
/// the version this format retired included. The payload decoders are not
/// version-aware, so feeding them stale bytes would misparse, not fail
/// cleanly. The header is all a reader consults before refusing, so the
/// committed fixtures with their version bytes patched pin the rejection
/// for all three containers at every version in `1..VERSION`.
#[test]
fn stale_version_fixtures_are_rejected() {
    for (name, canonical, decode_err) in fixtures() {
        let golden = fixture(&name, &canonical);
        for stale in 1..VERSION {
            assert_eq!(
                decode_err(&with_version(&golden, stale)),
                DecodeError::UnsupportedVersion {
                    found: stale,
                    supported: VERSION
                },
                "{name} patched to v{stale}"
            );
        }
    }
}

/// The fixture directory holds the current version's three files and
/// nothing else: a format bump that re-blesses but forgets to delete the
/// previous version's fixtures fails here.
#[test]
fn fixture_directory_holds_only_current_version_files() {
    let mut found: Vec<String> = std::fs::read_dir(fixture_dir())
        .expect("fixture directory")
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    found.sort();
    let mut expected: Vec<String> = fixtures().into_iter().map(|(name, ..)| name).collect();
    expected.sort();
    assert_eq!(
        found, expected,
        "stale or unexpected fixtures; `git rm` the previous version's files"
    );
}

#[test]
fn fixtures_reject_truncation_at_every_boundary() {
    let golden = fixture(
        &fixture_name("checkpoint", "apgc"),
        &canonical_checkpoint().to_bytes(),
    );
    // Every prefix must fail loudly — EOF or a corruption diagnosis, never
    // a panic and never a silently-partial value.
    for cut in 0..golden.len() {
        let err = StreamCheckpoint::from_bytes(&golden[..cut])
            .expect_err("a truncated checkpoint decoded successfully");
        assert!(
            matches!(
                err,
                DecodeError::UnexpectedEof { .. }
                    | DecodeError::Corrupt(_)
                    | DecodeError::BadMagic { .. }
                    | DecodeError::UnsupportedVersion { .. }
            ),
            "cut at {cut}: unexpected error {err:?}"
        );
    }
    // Trailing garbage is equally fatal.
    let mut padded = golden.clone();
    padded.push(0);
    assert_eq!(
        StreamCheckpoint::from_bytes(&padded).unwrap_err(),
        DecodeError::TrailingBytes { remaining: 1 }
    );
}
