//! Streaming-ingestion experiment: every dynamic workload through the one
//! canonical path.
//!
//! Not a figure from the paper: it measures what the `GraphDelta` /
//! [`StreamingRunner`] layer buys. The three dynamic scenarios — CDR weeks,
//! Twitter windows, a forest-fire burst — are each swept over batch sizes
//! (finer batching = fresher partitioning but more repartitioning rounds;
//! coarser batching = bigger cut spikes per batch). That the timeline is
//! identical at every `parallelism` level is
//! `tests/streaming_determinism.rs`'s to check, not this bench's.
//!
//! The `streaming` binary prints the table and writes
//! `BENCH_streaming.json`.

use std::time::Instant;

use apg_core::{AdaptiveConfig, AdaptivePartitioner, StreamingRunner, TimelineStats};
use apg_graph::{gen, DynGraph, Graph};
use apg_partition::InitialStrategy;
use apg_streams::{
    CdrConfig, CdrStream, ForestFireConfig, ForestFireSource, StreamSource, TwitterConfig,
    TwitterStream,
};

use super::scaling::WallStats;
use crate::Scale;

/// Partitions (k) used throughout.
const K: u16 = 8;

/// Repartitioning iterations per ingested batch.
pub const ITERS_PER_BATCH: usize = 4;

/// CDR subscribers at stream start, per scale.
pub fn cdr_subscribers(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 400,
        Scale::Quick => 2_000,
        Scale::Paper | Scale::Xl => 20_000,
    }
}

/// Twitter users at stream start, per scale.
pub fn twitter_users(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 300,
        Scale::Quick => 1_500,
        Scale::Paper | Scale::Xl => 4_000,
    }
}

/// Power-law base-graph vertices for the burst scenario, per scale.
pub fn burst_base_vertices(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 2_000,
        Scale::Quick => 20_000,
        Scale::Paper | Scale::Xl => 100_000,
    }
}

/// Simulated hours of Twitter traffic, per scale.
fn twitter_hours(scale: Scale) -> f64 {
    match scale {
        Scale::Tiny => 1.0,
        Scale::Quick => 6.0,
        Scale::Paper | Scale::Xl => 12.0,
    }
}

/// One (scenario, batch-size) measurement.
#[derive(Debug, Clone)]
pub struct StreamingRow {
    /// `"cdr"`, `"twitter"` or `"forest-fire"`.
    pub scenario: &'static str,
    /// The scenario's batch-granularity knob, spelled out (`"bpw=14"`,
    /// `"window=900s"`, `"chunk=250"`).
    pub knob: String,
    /// Batches ingested.
    pub batches: usize,
    /// Total deltas across all batches.
    pub deltas: usize,
    /// Mean deltas per batch.
    pub mean_batch_deltas: f64,
    /// Cut ratio after the final batch's iterations.
    pub final_cut_ratio: f64,
    /// Worst cut ratio observed right after an ingest, before the
    /// repartitioning rounds caught up (the "spike" coarse batches pay).
    pub peak_ingest_cut_ratio: f64,
    /// Total vertex migrations across the run.
    pub migrations: usize,
    /// Live vertices at the end.
    pub final_vertices: usize,
    /// Edges at the end.
    pub final_edges: usize,
    /// Wall-clock over ingest + iterations, summarised over repetitions.
    pub wall_ms: WallStats,
}

/// Full experiment output.
#[derive(Debug, Clone)]
pub struct StreamingResult {
    /// Scale name (`tiny` / `quick` / `paper`) the run was sized by.
    pub scale: &'static str,
    /// Hardware threads the host reports.
    pub threads_available: usize,
    /// Repetitions per row.
    pub reps: usize,
    /// Repartitioning iterations per batch.
    pub iterations_per_batch: usize,
    /// Partitions.
    pub k: u16,
    /// Threads used for the timed runs.
    pub threads: usize,
    /// One row per (scenario, batch-size knob).
    pub rows: Vec<StreamingRow>,
}

/// A scenario cell: how to build the source and the base graph, and how
/// many batches to pull.
struct Cell {
    scenario: &'static str,
    knob: String,
    graph: DynGraph,
    make_source: Box<dyn Fn() -> Box<dyn StreamSource>>,
    batches: usize,
}

fn cells(scale: Scale, seed: u64) -> Vec<Cell> {
    let mut out = Vec::new();

    // CDR: the batches-per-week knob trades batch size for batch count at
    // constant traffic (2 simulated weeks).
    for bpw in [4usize, 14, 28] {
        let config = CdrConfig {
            initial_subscribers: cdr_subscribers(scale),
            batches_per_week: bpw,
            ..CdrConfig::default()
        };
        out.push(Cell {
            scenario: "cdr",
            knob: format!("bpw={bpw}"),
            graph: DynGraph::with_vertices(config.initial_subscribers),
            make_source: Box::new(move || Box::new(CdrStream::new(config, seed))),
            batches: 2 * bpw,
        });
    }

    // Twitter: the window-length knob, over a fixed span of the evening
    // ramp (constant simulated traffic per row).
    let hours = twitter_hours(scale);
    for window_secs in [450.0f64, 900.0, 1800.0] {
        let config = TwitterConfig {
            initial_users: twitter_users(scale),
            ..TwitterConfig::default()
        };
        out.push(Cell {
            scenario: "twitter",
            knob: format!("window={}s", window_secs as usize),
            graph: DynGraph::with_vertices(config.initial_users),
            make_source: Box::new(move || {
                Box::new(TwitterStream::new(config, seed).with_clock(17.0, window_secs))
            }),
            batches: (hours * 3600.0 / window_secs).round() as usize,
        });
    }

    // Forest fire: one +10% burst, chunked finer and finer.
    let base = DynGraph::from(&gen::holme_kim(burst_base_vertices(scale), 6, 0.1, seed));
    let burst = base.num_live_vertices() / 10;
    for divisor in [8usize, 4, 1] {
        let chunk = (burst / divisor).max(1);
        let cfg = ForestFireConfig::burst(burst, seed ^ 0xF1FE);
        let graph = base.clone();
        let source_graph = base.clone();
        out.push(Cell {
            scenario: "forest-fire",
            knob: format!("chunk={chunk}"),
            graph,
            make_source: Box::new(move || {
                Box::new(ForestFireSource::new(&source_graph, &cfg, chunk))
            }),
            batches: burst.div_ceil(chunk),
        });
    }

    out
}

fn run_cell(cell: &Cell, threads: usize, seed: u64) -> (Vec<TimelineStats>, f64) {
    let cfg = AdaptiveConfig::builder(K)
        .parallelism(threads)
        .build()
        .unwrap();
    let partitioner =
        AdaptivePartitioner::with_strategy(&cell.graph, InitialStrategy::Hash, &cfg, seed);
    let mut runner = StreamingRunner::new(partitioner).iterations_per_batch(ITERS_PER_BATCH);
    let mut source = (cell.make_source)();
    let start = Instant::now();
    runner.drive(&mut source, cell.batches);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    (runner.timeline().to_vec(), wall_ms)
}

/// Runs the full sweep at the host's available parallelism.
pub fn run(scale: Scale, reps: usize, seed: u64) -> StreamingResult {
    let threads = apg_exec::available_parallelism();
    let reps = reps.max(1);
    let mut rows = Vec::new();
    for cell in cells(scale, seed) {
        let mut samples = Vec::with_capacity(reps);
        let mut timeline = Vec::new();
        for _ in 0..reps {
            let (t, ms) = run_cell(&cell, threads, seed);
            samples.push(ms);
            timeline = t;
        }
        let last = timeline.last().expect("at least one batch");
        rows.push(StreamingRow {
            scenario: cell.scenario,
            knob: cell.knob.clone(),
            batches: timeline.len(),
            deltas: timeline.iter().map(|s| s.deltas).sum(),
            mean_batch_deltas: timeline.iter().map(|s| s.deltas).sum::<usize>() as f64
                / timeline.len() as f64,
            final_cut_ratio: last.cut_ratio_after(),
            peak_ingest_cut_ratio: timeline
                .iter()
                .map(TimelineStats::cut_ratio_after_ingest)
                .fold(0.0f64, f64::max),
            migrations: timeline.iter().map(|s| s.migrations).sum(),
            final_vertices: last.live_vertices,
            final_edges: last.num_edges,
            wall_ms: WallStats::from_samples(&samples),
        });
    }
    StreamingResult {
        scale: scale.name(),
        threads_available: threads,
        reps,
        iterations_per_batch: ITERS_PER_BATCH,
        k: K,
        threads,
        rows,
    }
}

/// Serialises the result as JSON (hand-rolled: the vendored `serde` carries
/// no data model).
pub fn to_json(result: &StreamingResult) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"experiment\": \"streaming-ingestion\",\n");
    out.push_str(&format!(
        "  \"scale\": \"{}\", \"threads_available\": {},\n",
        result.scale, result.threads_available
    ));
    out.push_str(&format!(
        "  \"reps\": {}, \"iterations_per_batch\": {}, \"k\": {}, \"threads\": {},\n",
        result.reps, result.iterations_per_batch, result.k, result.threads
    ));
    out.push_str("  \"rows\": [\n");
    for (i, row) in result.rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"knob\": \"{}\", \"batches\": {}, \
             \"deltas\": {}, \"mean_batch_deltas\": {:.1}, \
             \"final_cut_ratio\": {:.6}, \"peak_ingest_cut_ratio\": {:.6}, \
             \"migrations\": {}, \"final_vertices\": {}, \"final_edges\": {}, \
             \"wall_ms\": {{\"mean\": {:.3}, \"min\": {:.3}, \"median\": {:.3}}}}}{}\n",
            row.scenario,
            row.knob,
            row.batches,
            row.deltas,
            row.mean_batch_deltas,
            row.final_cut_ratio,
            row.peak_ingest_cut_ratio,
            row.migrations,
            row.final_vertices,
            row.final_edges,
            row.wall_ms.mean,
            row.wall_ms.min,
            row.wall_ms.median,
            if i + 1 < result.rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Prints the sweep table.
pub fn print(result: &StreamingResult) {
    println!(
        "Streaming ingestion: {} iterations/batch, k = {}, {} reps, {} threads",
        result.iterations_per_batch, result.k, result.reps, result.threads
    );
    println!(
        "{:>12} {:>14} {:>8} {:>9} {:>10} {:>10} {:>10} {:>11}",
        "scenario",
        "knob",
        "batches",
        "deltas/b",
        "peak cut",
        "final cut",
        "migrations",
        "median ms"
    );
    for row in &result.rows {
        println!(
            "{:>12} {:>14} {:>8} {:>9.0} {:>10.4} {:>10.4} {:>10} {:>11.1}",
            row.scenario,
            row.knob,
            row.batches,
            row.mean_batch_deltas,
            row.peak_ingest_cut_ratio,
            row.final_cut_ratio,
            row.migrations,
            row.wall_ms.median,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_all_scenarios() {
        let result = run(Scale::Tiny, 1, 5);
        assert_eq!(result.rows.len(), 9);
        for scenario in ["cdr", "twitter", "forest-fire"] {
            let rows: Vec<_> = result
                .rows
                .iter()
                .filter(|r| r.scenario == scenario)
                .collect();
            assert_eq!(rows.len(), 3, "{scenario} knob sweep incomplete");
            // The sweep must do real work in every cell.
            for r in &rows {
                assert!(r.deltas > 0, "{scenario}/{} ingested nothing", r.knob);
            }
        }
        // The forest-fire burst is precomputed once per knob from the same
        // seed, so chunking must not change what ultimately lands.
        let fire: Vec<_> = result
            .rows
            .iter()
            .filter(|r| r.scenario == "forest-fire")
            .collect();
        for r in &fire[1..] {
            assert_eq!(r.final_vertices, fire[0].final_vertices);
            assert_eq!(r.final_edges, fire[0].final_edges);
        }
    }

    #[test]
    fn json_has_all_rows_and_balanced_braces() {
        let result = run(Scale::Tiny, 1, 7);
        let json = to_json(&result);
        assert_eq!(json.matches("\"scenario\"").count(), result.rows.len());
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON:\n{json}"
        );
    }
}
