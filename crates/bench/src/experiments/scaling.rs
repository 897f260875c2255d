//! Thread-scaling experiment for the parallel decision sweep.
//!
//! Not a figure from the paper: it measures what the `apg-exec` layer buys.
//! On a ≥100k-vertex power-law graph (and the same graph under a +10%
//! forest-fire burst), the adaptive partitioner runs a fixed iteration
//! budget at 1, 2, 4 and 8 decision-sweep threads. Reported per
//! configuration: wall-clock (min / median / mean over repetitions, so
//! warm-up outliers don't skew the curve), the apply-phase share, and the
//! cut-ratio trajectory. That the history is identical at every thread
//! count is `tests/parallel_determinism.rs`'s to check, not this bench's.
//!
//! The `scaling` binary prints the table and writes `BENCH_scaling.json`.

use std::time::Instant;

use apg_core::{AdaptiveConfig, AdaptivePartitioner, IterationStats};
use apg_graph::{gen, CsrGraph, DynGraph, Graph, UpdateBatch};
use apg_partition::{cut_edges_sharded, InitialStrategy};
use apg_streams::{forest_fire_delta, ForestFireConfig};

use crate::Scale;

/// Decision-sweep thread counts swept by the experiment.
pub const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Partitions (k) used throughout.
const K: u16 = 8;

/// Power-law vertex count per scale. `Quick` (the default) already runs the
/// ≥100k-vertex configuration the scaling claim is about; `Tiny` exists for
/// tests; `Paper` stresses the million-vertex regime the parallel apply and
/// sharded recount paths target; `Xl` (opt in with
/// `--scale xl` — one run is minutes of work and gigabytes of
/// graph) pushes to ten million, the slab-adjacency stress regime.
pub fn vertices(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 10_000,
        Scale::Quick => 100_000,
        Scale::Paper => 1_000_000,
        Scale::Xl => 10_000_000,
    }
}

fn iterations(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 6,
        Scale::Quick | Scale::Paper => 12,
        // Halved at 10M vertices: six iterations already dwarf the 1M runs
        // and the scaling signal is per-iteration, not per-run.
        Scale::Xl => 6,
    }
}

/// Wall-clock summary over repetitions, in milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct WallStats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Fastest repetition — the least-noise estimate on a busy host.
    pub min: f64,
    /// Median repetition.
    pub median: f64,
}

impl WallStats {
    /// Summarises repetition samples (shared with the streaming and
    /// persist benches).
    pub fn from_samples(samples_ms: &[f64]) -> WallStats {
        assert!(!samples_ms.is_empty());
        let mut sorted = samples_ms.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN wall-clock"));
        let mid = sorted.len() / 2;
        let median = if sorted.len() % 2 == 1 {
            sorted[mid]
        } else {
            (sorted[mid - 1] + sorted[mid]) / 2.0
        };
        WallStats {
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            min: sorted[0],
            median,
        }
    }
}

/// One (scenario, thread-count) measurement.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// `"powerlaw"` or `"forest-fire-burst"`.
    pub scenario: &'static str,
    /// Decision-sweep threads ([`AdaptiveConfig::parallelism`]).
    pub threads: usize,
    /// Wall-clock over the iteration work (graph/partitioner construction
    /// excluded), summarised over repetitions.
    pub wall_ms: WallStats,
    /// Apply-phase share of the iteration work ([`SweepProfile::apply_ms`]
    /// summed over the run's iterations), summarised over repetitions —
    /// the phase the sharded apply parallelises.
    ///
    /// [`SweepProfile::apply_ms`]: apg_core::SweepProfile::apply_ms
    pub apply_ms: WallStats,
    /// Cut ratio after each iteration.
    pub cut_trajectory: Vec<f64>,
    /// Total migrations over the run.
    pub total_migrations: usize,
}

/// Timing of one full-graph cut recount (`cut_edges_sharded`) at one
/// thread count — the cost `AdaptivePartitioner::from_parts` and restore
/// pay once per construction.
#[derive(Debug, Clone)]
pub struct RecountRow {
    /// Shard-fanout threads.
    pub threads: usize,
    /// Wall-clock per recount, summarised over repetitions.
    pub wall_ms: WallStats,
}

/// Full experiment output.
#[derive(Debug, Clone)]
pub struct ScalingResult {
    /// Scale name (`tiny` / `quick` / `paper`) the run was sized by.
    pub scale: &'static str,
    /// Vertices in the base power-law graph.
    pub vertices: usize,
    /// Edges in the base power-law graph.
    pub edges: usize,
    /// Repetitions per (scenario, threads) cell.
    pub reps: usize,
    /// Iterations per repetition.
    pub iterations: usize,
    /// Hardware threads the host reports.
    pub threads_available: usize,
    /// One row per (scenario, thread count).
    pub rows: Vec<ScalingRow>,
    /// Sharded cut-recount timing, one row per thread count.
    pub recount: Vec<RecountRow>,
}

fn config(threads: usize) -> AdaptiveConfig {
    AdaptiveConfig::builder(K)
        .parallelism(threads)
        .build()
        .unwrap()
}

/// One measured run: `(history, wall_ms, apply_ms)` where `apply_ms` is
/// the apply-phase share summed over the run's iterations.
type Measured = (Vec<IterationStats>, f64, f64);

/// Profiled `run_for`: drives `iters` iterations, accumulating the
/// apply-phase wall-clock alongside the history.
fn run_profiled(
    p: &mut AdaptivePartitioner,
    iters: usize,
    apply_ms: &mut f64,
) -> Vec<IterationStats> {
    (0..iters)
        .map(|_| {
            let (stats, profile) = p.iterate_profiled();
            *apply_ms += profile.apply_ms;
            stats
        })
        .collect()
}

/// One scenario run of `iters` iterations from a hash assignment. Without
/// a burst that is static power-law refinement. With one it is dynamic
/// absorption: refine for a third of the budget, replay the precomputed
/// +10% forest-fire burst through the shared delta model
/// (`AdaptivePartitioner::apply_batch`), keep iterating. The timed window
/// covers the sweeps and the batch replay — the scenario work — but not
/// the burst *generation*, which is identical serial work at every thread
/// count and would only dilute the measured scaling.
fn run_scenario(
    graph: &CsrGraph,
    burst: Option<&UpdateBatch>,
    threads: usize,
    seed: u64,
    iters: usize,
) -> Measured {
    let warm = if burst.is_some() { iters / 3 } else { iters };
    let cfg = config(threads);
    let mut p = AdaptivePartitioner::with_strategy(graph, InitialStrategy::Hash, &cfg, seed);
    let mut apply_ms = 0.0;
    let start = Instant::now();
    let mut history = run_profiled(&mut p, warm, &mut apply_ms);
    if let Some(burst) = burst {
        p.apply_batch(burst);
        history.extend(run_profiled(&mut p, iters - warm, &mut apply_ms));
    }
    (history, start.elapsed().as_secs_f64() * 1e3, apply_ms)
}

/// Precomputes the +10% forest-fire burst over the base graph as one
/// [`UpdateBatch`]. Iterations never change topology, so the same batch is
/// valid at any warm-up point.
fn burst_update_batch(graph: &CsrGraph, seed: u64) -> UpdateBatch {
    let shadow = DynGraph::from(graph);
    let burst = shadow.num_live_vertices() / 10;
    forest_fire_delta(&shadow, &ForestFireConfig::burst(burst, seed ^ 0xF1FE))
}

/// Runs the full sweep.
pub fn run(scale: Scale, reps: usize, seed: u64) -> ScalingResult {
    let n = vertices(scale);
    let iters = iterations(scale);
    let graph = gen::holme_kim(n, 8, 0.1, seed);
    let edges = graph.num_edges();
    let burst = burst_update_batch(&graph, seed);
    let reps = reps.max(1);

    let mut rows = Vec::new();
    for (name, burst) in [("powerlaw", None), ("forest-fire-burst", Some(&burst))] {
        for &threads in &THREADS {
            let mut samples = Vec::with_capacity(reps);
            let mut apply_samples = Vec::with_capacity(reps);
            let mut history = Vec::new();
            for _ in 0..reps {
                let (h, ms, apply) = run_scenario(&graph, burst, threads, seed, iters);
                samples.push(ms);
                apply_samples.push(apply);
                history = h;
            }
            rows.push(ScalingRow {
                scenario: name,
                threads,
                wall_ms: WallStats::from_samples(&samples),
                apply_ms: WallStats::from_samples(&apply_samples),
                cut_trajectory: history.iter().map(|s| s.cut_ratio()).collect(),
                total_migrations: history.iter().map(|s| s.migrations).sum(),
            });
        }
    }

    // Sharded recount timing: the one-shot cost `from_parts`/restore pays.
    let assignment =
        AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &config(1), seed);
    let partitioning = assignment.partitioning().clone();
    let mut recount = Vec::new();
    for &threads in &THREADS {
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let start = Instant::now();
            std::hint::black_box(cut_edges_sharded(&graph, &partitioning, threads));
            samples.push(start.elapsed().as_secs_f64() * 1e3);
        }
        recount.push(RecountRow {
            threads,
            wall_ms: WallStats::from_samples(&samples),
        });
    }

    ScalingResult {
        scale: scale.name(),
        vertices: n,
        edges,
        reps,
        iterations: iters,
        threads_available: apg_exec::available_parallelism(),
        rows,
        recount,
    }
}

/// Serialises the result as JSON (hand-rolled: the vendored `serde` carries
/// no data model).
pub fn to_json(result: &ScalingResult) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"experiment\": \"thread-scaling\",\n");
    out.push_str("  \"graph\": {\"family\": \"holme-kim-powerlaw\", ");
    out.push_str(&format!(
        "\"vertices\": {}, \"edges\": {}}},\n",
        result.vertices, result.edges
    ));
    out.push_str(&format!(
        "  \"scale\": \"{}\", \"reps\": {}, \"iterations\": {}, \"threads_available\": {},\n",
        result.scale, result.reps, result.iterations, result.threads_available
    ));
    out.push_str("  \"rows\": [\n");
    for (i, row) in result.rows.iter().enumerate() {
        let trajectory = row
            .cut_trajectory
            .iter()
            .map(|c| format!("{c:.6}"))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"threads\": {}, \
             \"wall_ms\": {{\"mean\": {:.3}, \"min\": {:.3}, \"median\": {:.3}}}, \
             \"apply_ms\": {{\"mean\": {:.3}, \"min\": {:.3}, \"median\": {:.3}}}, \
             \"total_migrations\": {}, \"cut_trajectory\": [{}]}}{}\n",
            row.scenario,
            row.threads,
            row.wall_ms.mean,
            row.wall_ms.min,
            row.wall_ms.median,
            row.apply_ms.mean,
            row.apply_ms.min,
            row.apply_ms.median,
            row.total_migrations,
            trajectory,
            if i + 1 < result.rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"recount\": [\n");
    for (i, row) in result.recount.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"threads\": {}, \
             \"wall_ms\": {{\"mean\": {:.3}, \"min\": {:.3}, \"median\": {:.3}}}}}{}\n",
            row.threads,
            row.wall_ms.mean,
            row.wall_ms.min,
            row.wall_ms.median,
            if i + 1 < result.recount.len() {
                ","
            } else {
                ""
            },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Prints the scaling table with speedups relative to one thread.
pub fn print(result: &ScalingResult) {
    println!(
        "Thread scaling ({} scale): {}-vertex / {}-edge power-law, {} iterations, k = {K}, {} reps (host has {} hardware threads)",
        result.scale, result.vertices, result.edges, result.iterations, result.reps, result.threads_available
    );
    println!(
        "{:>18} {:>8} {:>11} {:>11} {:>11} {:>9} {:>11} {:>10}",
        "scenario", "threads", "min ms", "median ms", "mean ms", "speedup", "apply ms", "final cut"
    );
    let mut base_min = 0.0f64;
    for row in &result.rows {
        if row.threads == 1 {
            base_min = row.wall_ms.min;
        }
        println!(
            "{:>18} {:>8} {:>11.1} {:>11.1} {:>11.1} {:>8.2}x {:>11.2} {:>10.4}",
            row.scenario,
            row.threads,
            row.wall_ms.min,
            row.wall_ms.median,
            row.wall_ms.mean,
            base_min / row.wall_ms.min,
            row.apply_ms.min,
            row.cut_trajectory.last().copied().unwrap_or(0.0),
        );
    }
    println!("full-graph cut recount (from_parts / restore cost):");
    let mut recount_base = 0.0f64;
    for row in &result.recount {
        if row.threads == 1 {
            recount_base = row.wall_ms.min;
        }
        println!(
            "{:>18} {:>8} {:>11.2} {:>11.2} {:>11.2} {:>8.2}x",
            "recount",
            row.threads,
            row.wall_ms.min,
            row.wall_ms.median,
            row.wall_ms.mean,
            recount_base / row.wall_ms.min.max(1e-3),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cell_runs_and_the_sweep_does_work() {
        let result = run(Scale::Tiny, 1, 5);
        assert_eq!(result.rows.len(), 2 * THREADS.len());
        assert_eq!(result.recount.len(), THREADS.len());
        for row in &result.rows {
            assert_eq!(row.cut_trajectory.len(), result.iterations);
            // The sweep must actually do something worth timing.
            assert!(row.total_migrations > 0, "{} was quiet", row.scenario);
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
        assert!(json.contains("\"scale\": \"tiny\""));
        assert!(json.contains("\"threads_available\""));
        assert_eq!(json.matches("\"apply_ms\"").count(), result.rows.len());
        assert_eq!(
            json.matches("\"recount\"").count(),
            1,
            "recount section missing"
        );
    }
}
