//! Checkpoint-overhead sweep: what durable state costs on the streaming
//! hot path.
//!
//! Not a figure from the paper: it prices the `apg-persist` layer. A CDR
//! churn stream (the heaviest mutation mix: joins, calls, departures) is
//! driven through the [`StreamingRunner`] at several checkpoint cadences —
//! from "never" to "every batch" — taking a fresh snapshot from the live
//! runner at each cadence (which empties the write-ahead tail), exactly
//! the operating loop the README walkthrough documents. Reported per
//! cadence: ingest wall-clock (overhead vs the
//! no-checkpoint baseline), serialised checkpoint size, and encode /
//! decode / resume costs. That a resumed or cold-recovered runner equals
//! the live one is `tests/persist_restart.rs`', `tests/delta_codec.rs`'
//! and `tests/crash_injection.rs`' to check, not this bench's.
//!
//! The `persist` binary prints the table and writes `BENCH_persist.json`.

use std::path::PathBuf;
use std::time::Instant;

use apg_core::persist::StreamCheckpoint;
use apg_core::{
    AdaptiveConfig, AdaptivePartitioner, CheckpointStore, StoreConfig, StreamingRunner,
};
use apg_graph::DynGraph;
use apg_partition::InitialStrategy;
use apg_streams::{CdrConfig, CdrStream, StreamSource};

use super::scaling::WallStats;
use super::streaming::cdr_subscribers;
use crate::Scale;

/// Partitions (k) used throughout.
const K: u16 = 8;

/// Repartitioning iterations per ingested batch.
const ITERS_PER_BATCH: usize = 4;

/// One cadence measurement.
#[derive(Debug, Clone)]
pub struct PersistRow {
    /// Batches between snapshots (`None` = checkpointing disabled).
    pub snapshot_every: Option<usize>,
    /// Batches ingested.
    pub batches: usize,
    /// Snapshots taken (each a fresh checkpoint off the live runner,
    /// emptying the write-ahead tail).
    pub snapshots: usize,
    /// Wall-clock for the full run, ingest + checkpointing, over reps.
    pub wall_ms: WallStats,
    /// Overhead over the no-checkpoint baseline: the **median of per-rep
    /// paired deltas**, each cadence rep timed back-to-back with its own
    /// fresh baseline rep. Pairing removes the drift between a baseline
    /// measured once up front and cadences measured later — the unpaired
    /// scheme reported negative overhead whenever the machine warmed up
    /// between the two.
    pub overhead_pct: f64,
    /// Serialised size of the final checkpoint, bytes.
    pub checkpoint_bytes: usize,
    /// Tail segments left in the final checkpoint.
    pub tail_batches: usize,
    /// Encoding the final checkpoint, milliseconds.
    pub encode_ms: f64,
    /// Decoding it back, milliseconds.
    pub decode_ms: f64,
    /// Resuming a runner from it (tail replay included), milliseconds.
    pub resume_ms: f64,
}

/// One file-backed cadence measurement: the same stream written through
/// [`CheckpointStore`] — fsync'd write-ahead appends plus atomic
/// (incremental where possible) snapshot installs — then reopened cold
/// from disk by replaying base + delta chain + tail.
#[derive(Debug, Clone)]
pub struct DurableRow {
    /// Batches between durable snapshot installs.
    pub snapshot_every: usize,
    /// Snapshot installs performed (each: segment fsync, snapshot write +
    /// fsync, manifest rename + directory fsync).
    pub installs: usize,
    /// How many installs were delta-encoded onto the previous root rather
    /// than full snapshots (the first install and every rebase are full).
    pub incremental_installs: usize,
    /// Median of per-install `delta bytes / full snapshot bytes at the
    /// same point` over the incremental installs — the steady-state
    /// O(changed-state) payoff (the median shrugs off the warm-up
    /// installs taken while the partitioner is still converging).
    /// 0 when no install was incremental.
    pub delta_bytes_ratio: f64,
    /// Wall-clock for the full run, ingest + appends + installs.
    pub wall_ms: WallStats,
    /// Mean cost of one durable snapshot install, milliseconds. This is
    /// the price of the fsync discipline at this cadence.
    pub install_ms_mean: f64,
    /// Mean cost of one fsync'd write-ahead append, milliseconds.
    pub append_ms_mean: f64,
    /// Bytes of live on-disk state (snapshot + undiscarded segments).
    pub live_bytes: u64,
    /// Batches the cold recovery landed on (snapshot + replayed tail).
    pub recovered_batches: usize,
}

/// Full experiment output.
#[derive(Debug, Clone)]
pub struct PersistResult {
    /// Scale name (`tiny` / `quick` / `paper`) the run was sized by.
    pub scale: &'static str,
    /// Hardware threads the host reports.
    pub threads_available: usize,
    /// Repetitions per row.
    pub reps: usize,
    /// Subscribers at stream start.
    pub subscribers: usize,
    /// Batches ingested per run.
    pub batches: usize,
    /// Whether the file-backed rows fsync'd every write (always true here;
    /// recorded so the JSON is self-describing).
    pub fsync: bool,
    /// Segment rotation threshold the file-backed rows used, bytes.
    pub segment_rotate_bytes: u64,
    /// One row per in-memory checkpoint cadence.
    pub rows: Vec<PersistRow>,
    /// One row per file-backed (fsync'd) cadence.
    pub durable_rows: Vec<DurableRow>,
}

fn batches_for(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 8,
        Scale::Quick => 28,
        Scale::Paper | Scale::Xl => 56,
    }
}

/// Drives the stream with the given cadence; returns the wall time and the
/// final checkpoint (when checkpointing is on).
fn run_once(
    subscribers: usize,
    batches: usize,
    snapshot_every: Option<usize>,
    seed: u64,
) -> (f64, Option<StreamCheckpoint>) {
    let config = CdrConfig {
        initial_subscribers: subscribers,
        ..CdrConfig::default()
    };
    let graph = DynGraph::with_vertices(subscribers);
    let cfg = AdaptiveConfig::builder(K).build().unwrap();
    let partitioner = AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &cfg, seed);
    let mut runner = StreamingRunner::new(partitioner).iterations_per_batch(ITERS_PER_BATCH);
    let mut source = CdrStream::new(config, seed);

    let start = Instant::now();
    let mut ckpt = snapshot_every.map(|_| runner.checkpoint());
    for i in 0..batches {
        let batch = source.next_batch().expect("CDR stream is open-ended");
        runner.ingest(&batch);
        if let (Some(ckpt), Some(every)) = (&mut ckpt, snapshot_every) {
            ckpt.append(batch);
            if (i + 1) % every == 0 {
                // With the live runner in hand, a fresh snapshot is a
                // straight state clone; `compact` (which re-executes the
                // tail's partitioner work) is for when only the checkpoint
                // bytes survive.
                *ckpt = runner.checkpoint();
            }
        }
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    (wall_ms, ckpt)
}

/// Rotation threshold for the file-backed rows: small enough that every
/// scale's tail spans several segments, so the bench exercises rotation
/// and sealed-segment recovery, not just the single-file path.
const SEGMENT_ROTATE_BYTES: u64 = 64 << 10;

/// A scratch directory for one durable run, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let dir =
            std::env::temp_dir().join(format!("apg-bench-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything one file-backed run yields.
struct DurableOnce {
    wall_ms: f64,
    install_ms_mean: f64,
    append_ms_mean: f64,
    live_bytes: u64,
    incremental_installs: usize,
    delta_bytes_ratio: f64,
}

/// Drives the stream once through a file-backed [`CheckpointStore`] with
/// fsync on: every batch is appended to the write-ahead log, a checkpoint
/// (delta-encoded whenever the chain policy allows) is installed every
/// `every` batches.
fn run_durable_once(
    dir: &PathBuf,
    subscribers: usize,
    batches: usize,
    every: usize,
    seed: u64,
) -> DurableOnce {
    let _ = std::fs::remove_dir_all(dir);
    let config = CdrConfig {
        initial_subscribers: subscribers,
        ..CdrConfig::default()
    };
    let store_config = StoreConfig {
        segment_rotate_bytes: SEGMENT_ROTATE_BYTES,
        fsync: true,
        ..StoreConfig::default()
    };
    let graph = DynGraph::with_vertices(subscribers);
    let cfg = AdaptiveConfig::builder(K).build().unwrap();
    let partitioner = AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &cfg, seed);
    let mut runner = StreamingRunner::new(partitioner).iterations_per_batch(ITERS_PER_BATCH);
    let mut source = CdrStream::new(config, seed);
    let (mut store, recovered) =
        CheckpointStore::open(dir, store_config).expect("scratch dir opens clean");
    assert!(
        recovered.checkpoint.is_none(),
        "scratch dir must start empty"
    );

    let start = Instant::now();
    let mut install_ms = Vec::new();
    let mut append_ms = Vec::new();
    let mut incremental_installs = 0usize;
    let mut delta_ratios = Vec::new();
    for i in 0..batches {
        let batch = source.next_batch().expect("CDR stream is open-ended");
        runner.ingest(&batch);
        let t = Instant::now();
        store.append(&batch).expect("append to scratch store");
        append_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if (i + 1) % every == 0 {
            let t = Instant::now();
            let report = store
                .install(&mut runner)
                .expect("install to scratch store");
            install_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if report.incremental {
                incremental_installs += 1;
                // Price the delta against the full snapshot it displaced
                // (encoded outside the timed window).
                let full_bytes = runner.checkpoint().to_bytes().len();
                delta_ratios.push(report.bytes as f64 / full_bytes as f64);
            }
        }
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let mean = |xs: &[f64]| {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    DurableOnce {
        wall_ms,
        install_ms_mean: mean(&install_ms),
        append_ms_mean: mean(&append_ms),
        live_bytes: store.store().live_bytes(),
        incremental_installs,
        // Median, not mean: the first chained installs land while the
        // partitioner is still converging (near-total churn), and the
        // ratio the row should advertise is the steady-state one.
        delta_bytes_ratio: median_or_zero(&delta_ratios),
    }
}

/// Runs the file-backed cadence sweep, reopening each store cold.
fn run_durable(subscribers: usize, batches: usize, reps: usize, seed: u64) -> Vec<DurableRow> {
    let mut rows = Vec::new();
    for every in [8usize, 4, 2, 1] {
        let store_config = StoreConfig {
            segment_rotate_bytes: SEGMENT_ROTATE_BYTES,
            fsync: true,
            ..StoreConfig::default()
        };
        let scratch = ScratchDir::new(&format!("every{every}"));
        let mut samples = Vec::with_capacity(reps);
        let mut last: Option<DurableOnce> = None;
        for _ in 0..reps {
            let once = run_durable_once(&scratch.0, subscribers, batches, every, seed);
            samples.push(once.wall_ms);
            last = Some(once);
        }
        let last = last.expect("reps >= 1");

        // Cold recovery: reopen the directory as a crashed process would —
        // replaying snapshot + delta chain + tail — and count where it
        // landed.
        let (_store, recovered) =
            CheckpointStore::open(&scratch.0, store_config).expect("reopen scratch store");
        let checkpoint = recovered.checkpoint.expect("a snapshot was installed");
        let recovered_batches = StreamingRunner::resume(checkpoint).batches_ingested();

        rows.push(DurableRow {
            snapshot_every: every,
            installs: batches / every,
            incremental_installs: last.incremental_installs,
            delta_bytes_ratio: last.delta_bytes_ratio,
            wall_ms: WallStats::from_samples(&samples),
            install_ms_mean: last.install_ms_mean,
            append_ms_mean: last.append_ms_mean,
            live_bytes: last.live_bytes,
            recovered_batches,
        });
    }
    rows
}

/// Median of a sample set; 0 when empty (the baseline row has no paired
/// deltas, a run without an incremental install no delta ratios).
fn median_or_zero(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        WallStats::from_samples(xs).median
    }
}

/// Runs the cadence sweep.
pub fn run(scale: Scale, reps: usize, seed: u64) -> PersistResult {
    let subscribers = cdr_subscribers(scale);
    let batches = batches_for(scale);
    let reps = reps.max(1);
    let cadences: [Option<usize>; 4] = [None, Some(8), Some(4), Some(1)];

    let mut rows = Vec::new();
    for snapshot_every in cadences {
        let mut samples = Vec::with_capacity(reps);
        let mut paired_deltas = Vec::with_capacity(reps);
        let mut last: Option<StreamCheckpoint> = None;
        for _ in 0..reps {
            // Each cadence rep is paired with its own baseline rep run
            // back-to-back, so the overhead delta sees the same machine
            // state on both sides. Comparing against a single baseline
            // measured minutes earlier reported *negative* overhead
            // whenever the host warmed up in between.
            if snapshot_every.is_some() {
                let (base_ms, _) = run_once(subscribers, batches, None, seed);
                let (ms, ckpt) = run_once(subscribers, batches, snapshot_every, seed);
                if base_ms > 0.0 {
                    paired_deltas.push(100.0 * (ms - base_ms) / base_ms);
                }
                samples.push(ms);
                last = ckpt;
            } else {
                let (ms, ckpt) = run_once(subscribers, batches, None, seed);
                samples.push(ms);
                last = ckpt;
            }
        }
        let wall = WallStats::from_samples(&samples);
        let overhead_pct = median_or_zero(&paired_deltas);

        let row = match last {
            None => PersistRow {
                snapshot_every,
                batches,
                snapshots: 0,
                wall_ms: wall,
                overhead_pct,
                checkpoint_bytes: 0,
                tail_batches: 0,
                encode_ms: 0.0,
                decode_ms: 0.0,
                resume_ms: 0.0,
            },
            Some(ckpt) => {
                let every = snapshot_every.expect("checkpoint implies cadence");
                let t = Instant::now();
                let bytes = ckpt.to_bytes();
                let encode_ms = t.elapsed().as_secs_f64() * 1e3;
                let t = Instant::now();
                let decoded = StreamCheckpoint::from_bytes(&bytes).expect("self-written bytes");
                let decode_ms = t.elapsed().as_secs_f64() * 1e3;
                let t = Instant::now();
                std::hint::black_box(StreamingRunner::resume(decoded));
                let resume_ms = t.elapsed().as_secs_f64() * 1e3;
                PersistRow {
                    snapshot_every,
                    batches,
                    snapshots: batches / every,
                    wall_ms: wall,
                    overhead_pct,
                    checkpoint_bytes: bytes.len(),
                    tail_batches: ckpt.tail.len(),
                    encode_ms,
                    decode_ms,
                    resume_ms,
                }
            }
        };
        rows.push(row);
    }

    let durable_rows = run_durable(subscribers, batches, reps, seed);

    PersistResult {
        scale: scale.name(),
        threads_available: apg_exec::available_parallelism(),
        reps,
        subscribers,
        batches,
        fsync: true,
        segment_rotate_bytes: SEGMENT_ROTATE_BYTES,
        rows,
        durable_rows,
    }
}

/// Serialises the result as JSON (hand-rolled: the vendored `serde`
/// carries no data model — the real codec in this workspace is binary, and
/// lives in `apg-persist`).
pub fn to_json(result: &PersistResult) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"experiment\": \"checkpoint-overhead\",\n");
    out.push_str(&format!(
        "  \"scale\": \"{}\", \"threads_available\": {},\n",
        result.scale, result.threads_available
    ));
    out.push_str(&format!(
        "  \"reps\": {}, \"subscribers\": {}, \"batches\": {}, \"k\": {}, \
         \"iterations_per_batch\": {},\n",
        result.reps, result.subscribers, result.batches, K, ITERS_PER_BATCH
    ));
    out.push_str(&format!(
        "  \"fsync\": {}, \"segment_rotate_bytes\": {},\n",
        result.fsync, result.segment_rotate_bytes
    ));
    out.push_str("  \"rows\": [\n");
    for (i, row) in result.rows.iter().enumerate() {
        let cadence = match row.snapshot_every {
            None => "null".to_string(),
            Some(n) => n.to_string(),
        };
        out.push_str(&format!(
            "    {{\"snapshot_every\": {}, \"snapshots\": {}, \
             \"wall_ms\": {{\"mean\": {:.3}, \"min\": {:.3}, \"median\": {:.3}}}, \
             \"overhead_pct\": {:.2}, \"checkpoint_bytes\": {}, \
             \"tail_batches\": {}, \"encode_ms\": {:.3}, \"decode_ms\": {:.3}, \
             \"resume_ms\": {:.3}}}{}\n",
            cadence,
            row.snapshots,
            row.wall_ms.mean,
            row.wall_ms.min,
            row.wall_ms.median,
            row.overhead_pct,
            row.checkpoint_bytes,
            row.tail_batches,
            row.encode_ms,
            row.decode_ms,
            row.resume_ms,
            if i + 1 < result.rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"durable_rows\": [\n");
    for (i, row) in result.durable_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"snapshot_every\": {}, \"installs\": {}, \
             \"incremental_installs\": {}, \"delta_bytes_ratio\": {:.4}, \
             \"wall_ms\": {{\"mean\": {:.3}, \"min\": {:.3}, \"median\": {:.3}}}, \
             \"install_ms_mean\": {:.3}, \"append_ms_mean\": {:.3}, \
             \"live_bytes\": {}, \"recovered_batches\": {}}}{}\n",
            row.snapshot_every,
            row.installs,
            row.incremental_installs,
            row.delta_bytes_ratio,
            row.wall_ms.mean,
            row.wall_ms.min,
            row.wall_ms.median,
            row.install_ms_mean,
            row.append_ms_mean,
            row.live_bytes,
            row.recovered_batches,
            if i + 1 < result.durable_rows.len() {
                ","
            } else {
                ""
            },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Prints the cadence table.
pub fn print(result: &PersistResult) {
    println!(
        "Checkpoint overhead: CDR stream, {} subscribers, {} batches, {} reps",
        result.subscribers, result.batches, result.reps
    );
    println!(
        "{:>14} {:>10} {:>11} {:>9} {:>11} {:>10} {:>10} {:>10}",
        "cadence",
        "snapshots",
        "median ms",
        "over %",
        "ckpt bytes",
        "encode ms",
        "decode ms",
        "resume ms"
    );
    for row in &result.rows {
        let cadence = match row.snapshot_every {
            None => "off".to_string(),
            Some(n) => format!("every {n}"),
        };
        println!(
            "{:>14} {:>10} {:>11.1} {:>9.2} {:>11} {:>10.3} {:>10.3} {:>10.3}",
            cadence,
            row.snapshots,
            row.wall_ms.median,
            row.overhead_pct,
            row.checkpoint_bytes,
            row.encode_ms,
            row.decode_ms,
            row.resume_ms,
        );
    }
    println!(
        "File-backed (fsync on, {} KiB rotation):",
        result.segment_rotate_bytes >> 10
    );
    println!(
        "{:>14} {:>9} {:>6} {:>7} {:>11} {:>11} {:>11} {:>11} {:>10}",
        "cadence",
        "installs",
        "incr",
        "ratio",
        "median ms",
        "install ms",
        "append ms",
        "live bytes",
        "recovered"
    );
    for row in &result.durable_rows {
        println!(
            "{:>14} {:>9} {:>6} {:>7.3} {:>11.1} {:>11.3} {:>11.3} {:>11} {:>10}",
            format!("every {}", row.snapshot_every),
            row.installs,
            row.incremental_installs,
            row.delta_bytes_ratio,
            row.wall_ms.median,
            row.install_ms_mean,
            row.append_ms_mean,
            row.live_bytes,
            row.recovered_batches,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_measures_every_cadence() {
        let result = run(Scale::Tiny, 1, 5);
        assert_eq!(result.rows.len(), 4);
        assert!(
            result.rows[0].checkpoint_bytes == 0,
            "baseline writes nothing"
        );
        assert!(
            result.rows.iter().skip(1).all(|r| r.checkpoint_bytes > 0),
            "checkpointing rows must serialise something"
        );
        // A fresh snapshot at each cadence empties the tail, so what is
        // left at the end is exactly the batches since the last snapshot.
        for row in result.rows.iter().skip(1) {
            assert_eq!(
                row.tail_batches,
                result.batches % row.snapshot_every.unwrap()
            );
        }
        assert_eq!(result.durable_rows.len(), 4);
        for row in &result.durable_rows {
            assert!(row.live_bytes > 0);
            assert!(row.installs >= 1);
        }
        assert!(
            result
                .durable_rows
                .iter()
                .any(|r| r.incremental_installs > 0),
            "at least one cadence must exercise the delta chain"
        );
        let json = to_json(&result);
        assert!(json.contains("\"experiment\": \"checkpoint-overhead\""));
        assert!(json.contains("\"delta_bytes_ratio\""));
        assert!(json.contains("\"durable_rows\""));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON:\n{json}"
        );
    }
}
