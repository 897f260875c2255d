//! Thread-scaling experiment for the parallel decision sweep.
//!
//! Not a figure from the paper: it measures what the `apg-exec` layer buys.
//! On a ≥100k-vertex power-law graph (and the same graph under a +10%
//! forest-fire burst), the adaptive partitioner runs a fixed iteration
//! budget at 1, 2, 4 and 8 decision-sweep threads. Reported per
//! configuration: wall-clock (min / median / mean over repetitions, so
//! warm-up outliers don't skew the curve), the cut-ratio trajectory, and a
//! fingerprint of the full [`IterationStats`] history — which must be
//! identical across thread counts, the determinism contract of the sharded
//! sweep.
//!
//! The `scaling` binary prints the table and writes `BENCH_scaling.json`.

use std::time::Instant;

use apg_core::{reference, AdaptiveConfig, AdaptivePartitioner, IterationStats, SweepProfile};
use apg_graph::{gen, CsrGraph, DynGraph, Graph, UpdateBatch, VertexId};
use apg_partition::{cut_edges, cut_edges_sharded, InitialStrategy};
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
    /// Summarises repetition samples (shared with the streaming bench).
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
    /// Cut ratio after each iteration (identical across thread counts).
    pub cut_trajectory: Vec<f64>,
    /// Total migrations over the run (identical across thread counts).
    pub total_migrations: usize,
    /// FNV fingerprint of the full `IterationStats` history; equal
    /// fingerprints across thread counts witness the determinism contract.
    pub fingerprint: u64,
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
    /// Sharded cut-recount timing, one row per thread count; every
    /// recount's result is checked against the serial `cut_edges`.
    pub recount: Vec<RecountRow>,
    /// Whether the sharded apply reproduced the serial `apply_move`
    /// timeline exactly (histories compared per scenario) — the
    /// equivalence contract of the parallel apply path.
    pub apply_parallel_equals_serial: bool,
    /// Whether the slab-backed `DynGraph` matched a boxed-per-vertex
    /// reference adjacency slot-for-slot after replaying identical churn
    /// (growth burst, deletions, compaction) — the layout-invariance
    /// contract of the `AdjPool` memory layout.
    pub layout_equals_reference: bool,
}

impl ScalingResult {
    /// Whether every scenario's history fingerprint agrees across thread
    /// counts — the determinism contract of the sharded sweep. The scenario
    /// set is derived from the rows themselves, so a rename in [`run`]
    /// cannot make the check vacuous.
    pub fn deterministic_across_threads(&self) -> bool {
        let mut scenarios: Vec<&str> = self.rows.iter().map(|r| r.scenario).collect();
        scenarios.sort_unstable();
        scenarios.dedup();
        for scenario in scenarios {
            let mut prints = self
                .rows
                .iter()
                .filter(|r| r.scenario == scenario)
                .map(|r| r.fingerprint);
            if let Some(first) = prints.next() {
                if prints.any(|p| p != first) {
                    return false;
                }
            }
        }
        true
    }
}

fn fingerprint(history: &[IterationStats]) -> u64 {
    super::fnv1a(history.iter().flat_map(|s| {
        [
            s.iteration as u64,
            s.migrations as u64,
            s.cut_edges as u64,
            s.live_vertices as u64,
            s.num_edges as u64,
            s.max_partition as u64,
        ]
    }))
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

/// One profiled iteration: production's `iterate_profiled` for the
/// measured rows, the serial-apply reference driver
/// (`apg_core::reference::iterate_serial_apply`) for the equivalence arm.
type Iterate = fn(&mut AdaptivePartitioner) -> (IterationStats, SweepProfile);

/// Profiled `run_for`: drives `iters` iterations, accumulating the
/// apply-phase wall-clock alongside the history.
fn run_profiled(
    p: &mut AdaptivePartitioner,
    iters: usize,
    iterate: Iterate,
    apply_ms: &mut f64,
) -> Vec<IterationStats> {
    (0..iters)
        .map(|_| {
            let (stats, profile) = iterate(p);
            *apply_ms += profile.apply_ms;
            stats
        })
        .collect()
}

/// Static power-law refinement: `iters` iterations from a hash assignment.
fn run_powerlaw(
    graph: &CsrGraph,
    _burst: &UpdateBatch,
    threads: usize,
    iterate: Iterate,
    seed: u64,
    iters: usize,
) -> Measured {
    let cfg = config(threads);
    let mut p = AdaptivePartitioner::with_strategy(graph, InitialStrategy::Hash, &cfg, seed);
    let mut apply_ms = 0.0;
    let start = Instant::now();
    let history = run_profiled(&mut p, iters, iterate, &mut apply_ms);
    (history, start.elapsed().as_secs_f64() * 1e3, apply_ms)
}

/// Dynamic absorption: refine briefly, replay the precomputed +10%
/// forest-fire burst through the shared delta model
/// (`AdaptivePartitioner::apply_batch`), keep iterating. The timed window
/// covers the sweeps and the batch replay — the scenario work — but not
/// the burst *generation*, which is identical serial work at every thread
/// count and would only dilute the measured scaling.
fn run_burst(
    graph: &CsrGraph,
    burst: &UpdateBatch,
    threads: usize,
    iterate: Iterate,
    seed: u64,
    iters: usize,
) -> Measured {
    let warm = iters / 3;
    let cfg = config(threads);
    let mut p = AdaptivePartitioner::with_strategy(graph, InitialStrategy::Hash, &cfg, seed);
    let mut apply_ms = 0.0;
    let start = Instant::now();
    let mut history = run_profiled(&mut p, warm, iterate, &mut apply_ms);
    p.apply_batch(burst);
    history.extend(run_profiled(&mut p, iters - warm, iterate, &mut apply_ms));
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

/// The pre-slab adjacency shape — one boxed, sorted `Vec` per vertex —
/// kept alive here as the reference the slab layout is checked against.
/// Implements [`apg_graph::DeltaTarget`] with exactly `DynGraph`'s
/// documented mutation semantics (sorted lists, tombstones strip
/// adjacency, ids never reused, self-loops/dead endpoints/duplicates
/// rejected), so replaying one batch into both must yield identical
/// per-slot lists.
struct BoxedAdjacency {
    adj: Vec<Vec<VertexId>>,
    alive: Vec<bool>,
    num_edges: usize,
}

impl BoxedAdjacency {
    fn from_csr(g: &CsrGraph) -> Self {
        let n = g.num_vertices();
        BoxedAdjacency {
            adj: (0..n as VertexId)
                .map(|v| g.neighbors(v).to_vec())
                .collect(),
            alive: vec![true; n],
            num_edges: g.num_edges(),
        }
    }

    fn is_live(&self, v: VertexId) -> bool {
        (v as usize) < self.alive.len() && self.alive[v as usize]
    }
}

impl apg_graph::delta::DeltaTarget for BoxedAdjacency {
    fn delta_add_vertex(&mut self) -> VertexId {
        self.adj.push(Vec::new());
        self.alive.push(true);
        (self.adj.len() - 1) as VertexId
    }

    fn delta_add_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if u == v || !self.is_live(u) || !self.is_live(v) {
            return false;
        }
        match self.adj[u as usize].binary_search(&v) {
            Ok(_) => return false,
            Err(pos) => self.adj[u as usize].insert(pos, v),
        }
        let pos = self.adj[v as usize].binary_search(&u).unwrap_err();
        self.adj[v as usize].insert(pos, u);
        self.num_edges += 1;
        true
    }

    fn delta_remove_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if u == v || !self.is_live(u) || !self.is_live(v) {
            return false;
        }
        match self.adj[u as usize].binary_search(&v) {
            Ok(pos) => self.adj[u as usize].remove(pos),
            Err(_) => return false,
        };
        let pos = self.adj[v as usize]
            .binary_search(&u)
            .expect("asymmetric adjacency");
        self.adj[v as usize].remove(pos);
        self.num_edges -= 1;
        true
    }

    fn delta_remove_vertex(&mut self, v: VertexId) -> Option<usize> {
        if !self.is_live(v) {
            return None;
        }
        let neighbors = std::mem::take(&mut self.adj[v as usize]);
        for &w in &neighbors {
            let list = &mut self.adj[w as usize];
            if let Ok(pos) = list.binary_search(&v) {
                list.remove(pos);
            }
        }
        self.num_edges -= neighbors.len();
        self.alive[v as usize] = false;
        Some(neighbors.len())
    }
}

/// Replays identical churn — a forest-fire growth burst, then a deletion
/// wave heavy enough to trigger arena compaction — into the slab-backed
/// [`DynGraph`] and into [`BoxedAdjacency`], then compares every slot:
/// liveness, neighbour list, and edge count. Runs at a fixed small size
/// (the contract is about layout correctness, not scale), so an `xl`
/// invocation doesn't pay for it twice.
fn layout_equals_reference(seed: u64) -> bool {
    let base = gen::holme_kim(10_000, 8, 0.1, seed ^ 0x51AB);
    let mut slab = DynGraph::from(&base);
    let mut boxed = BoxedAdjacency::from_csr(&base);

    let replay = |batch: &UpdateBatch, slab: &mut DynGraph, boxed: &mut BoxedAdjacency| {
        batch.apply_to(slab);
        batch.apply_to(boxed);
    };
    replay(&burst_update_batch(&base, seed), &mut slab, &mut boxed);

    // Deletion wave: tombstone a spread of vertices (freeing their spans)
    // and strip edges off others, then add fresh vertices into the holes'
    // id space — tombstoned ids must stay retired.
    let mut churn = UpdateBatch::new();
    for v in (0..base.num_vertices() as VertexId).step_by(3) {
        churn.remove_vertex(v);
    }
    for v in (1..base.num_vertices() as VertexId).step_by(5) {
        if let Some(&w) = base.neighbors(v).first() {
            churn.remove_edge(v, w);
        }
    }
    let a = churn.add_vertex(vec![1, 4]);
    let b = churn.add_vertex(vec![7]);
    churn.connect_new(a, b);
    replay(&churn, &mut slab, &mut boxed);

    // Compaction is layout-only; comparing after forcing one proves it.
    slab.compact_adjacency();

    slab.num_vertices() == boxed.adj.len()
        && slab.num_edges() == boxed.num_edges
        && (0..slab.num_vertices() as VertexId).all(|v| {
            slab.is_vertex(v) == boxed.is_live(v)
                && slab.neighbors(v) == boxed.adj[v as usize].as_slice()
        })
}

/// Runs the full sweep.
pub fn run(scale: Scale, reps: usize, seed: u64) -> ScalingResult {
    let n = vertices(scale);
    let iters = iterations(scale);
    let graph = gen::holme_kim(n, 8, 0.1, seed);
    let edges = graph.num_edges();
    let burst = burst_update_batch(&graph, seed);
    let reps = reps.max(1);

    type Scenario = fn(&CsrGraph, &UpdateBatch, usize, Iterate, u64, usize) -> Measured;
    let scenarios: [(&'static str, Scenario); 2] =
        [("powerlaw", run_powerlaw), ("forest-fire-burst", run_burst)];

    let production: Iterate = AdaptivePartitioner::iterate_profiled;
    let serial: Iterate = reference::iterate_serial_apply;
    let mut rows = Vec::new();
    let mut apply_parallel_equals_serial = true;
    for (name, scenario) in scenarios {
        for &threads in &THREADS {
            let mut samples = Vec::with_capacity(reps);
            let mut apply_samples = Vec::with_capacity(reps);
            let mut history = Vec::new();
            for _ in 0..reps {
                let (h, ms, apply) = scenario(&graph, &burst, threads, production, seed, iters);
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
                fingerprint: fingerprint(&history),
            });
        }
        // Equivalence arm: one serial-apply run at the widest fan-out must
        // reproduce the parallel rows' history bit-for-bit.
        let widest = *THREADS.last().expect("THREADS is non-empty");
        let (serial_history, _, _) = scenario(&graph, &burst, widest, serial, seed, iters);
        let serial_print = fingerprint(&serial_history);
        apply_parallel_equals_serial &= rows
            .iter()
            .filter(|r| r.scenario == name)
            .all(|r| r.fingerprint == serial_print);
    }

    // Sharded recount timing: the one-shot cost `from_parts`/restore pays.
    // Every timed recount is also checked against the serial count, so a
    // wrong-but-fast recount cannot post a good number.
    let assignment =
        AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &config(1), seed);
    let partitioning = assignment.partitioning().clone();
    let serial_cut = cut_edges(&graph, &partitioning);
    let mut recount = Vec::new();
    for &threads in &THREADS {
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let start = Instant::now();
            let sharded = cut_edges_sharded(&graph, &partitioning, threads);
            samples.push(start.elapsed().as_secs_f64() * 1e3);
            assert_eq!(sharded, serial_cut, "sharded recount diverged");
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
        apply_parallel_equals_serial,
        layout_equals_reference: layout_equals_reference(seed),
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
    out.push_str(&format!(
        "  \"deterministic_across_threads\": {},\n",
        result.deterministic_across_threads()
    ));
    out.push_str(&format!(
        "  \"apply_parallel_equals_serial\": {},\n",
        result.apply_parallel_equals_serial
    ));
    out.push_str(&format!(
        "  \"layout_equals_reference\": {},\n",
        result.layout_equals_reference
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
             \"total_migrations\": {}, \"history_fingerprint\": \"{:016x}\", \
             \"cut_trajectory\": [{}]}}{}\n",
            row.scenario,
            row.threads,
            row.wall_ms.mean,
            row.wall_ms.min,
            row.wall_ms.median,
            row.apply_ms.mean,
            row.apply_ms.min,
            row.apply_ms.median,
            row.total_migrations,
            row.fingerprint,
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
    println!(
        "history identical across thread counts: {}",
        if result.deterministic_across_threads() {
            "yes (determinism contract holds)"
        } else {
            "NO — INVESTIGATE"
        }
    );
    println!(
        "parallel apply matches serial apply: {}",
        if result.apply_parallel_equals_serial {
            "yes (equivalence contract holds)"
        } else {
            "NO — INVESTIGATE"
        }
    );
    println!(
        "slab adjacency matches boxed reference: {}",
        if result.layout_equals_reference {
            "yes (layout contract holds)"
        } else {
            "NO — INVESTIGATE"
        }
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histories_identical_across_thread_counts() {
        let result = run(Scale::Tiny, 1, 5);
        assert_eq!(result.rows.len(), 2 * THREADS.len());
        assert!(result.deterministic_across_threads());
        assert!(
            result.apply_parallel_equals_serial,
            "sharded apply diverged from the serial apply"
        );
        assert_eq!(result.recount.len(), THREADS.len());
        // The trajectories, not just the fingerprints, must agree.
        for scenario in ["powerlaw", "forest-fire-burst"] {
            let rows: Vec<_> = result
                .rows
                .iter()
                .filter(|r| r.scenario == scenario)
                .collect();
            for r in &rows[1..] {
                assert_eq!(r.cut_trajectory, rows[0].cut_trajectory, "{scenario}");
                assert_eq!(r.total_migrations, rows[0].total_migrations);
            }
            // The sweep must actually do something worth timing.
            assert!(rows[0].total_migrations > 0);
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
        assert!(json.contains("\"deterministic_across_threads\": true"));
        assert!(json.contains("\"apply_parallel_equals_serial\": true"));
        assert!(json.contains("\"layout_equals_reference\": true"));
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
