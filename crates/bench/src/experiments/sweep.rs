//! Active-set sweep benchmark: what skipping stay-stable vertices buys.
//!
//! Not a figure from the paper: it measures the PR 5 hot-path win. On a
//! ≥100k-vertex power-law graph the adaptive partitioner runs the same
//! scenario twice — once with the active-set sweep (production's
//! `iterate_profiled`) and once under the exhaustive reference driver
//! (`apg_core::reference::iterate_exhaustive`), the measured baseline —
//! through three phases:
//!
//! 1. **refine**: a fixed iteration budget from a hash assignment, long
//!    enough to go quiet (time-to-quiet is reported);
//! 2. **converged**: extra iterations against the now-quiet partitioning —
//!    the phase where the active-set sweep should be ≥ 10x faster, since
//!    the active set has decayed to a handful of quota-starved proposers;
//! 3. **churn**: small power-law growth batches against the converged
//!    partitioning, a few iterations each — per-batch cost should track
//!    the dirtied region, not the graph.
//!
//! Per phase and mode: decide / merge / apply wall-clock and visited-slot
//! counts. That both modes produce identical histories is
//! `tests/active_set_sweep.rs`'s to check, not this bench's.
//!
//! The `sweep` binary prints the table and writes `BENCH_sweep.json`.

use std::time::Instant;

use apg_core::{reference, AdaptiveConfig, AdaptivePartitioner, IterationStats, SweepProfile};
use apg_graph::{gen, CsrGraph, Graph, UpdateBatch};
use apg_partition::InitialStrategy;
use apg_streams::{PowerLawGrowth, StreamSource};

use crate::Scale;

/// Partitions (k) used throughout (matches the thread-scaling bench).
const K: u16 = 8;

/// Iterations run after the refine budget, against the quiet partitioning.
const CONVERGED_ITERS: usize = 20;

/// Repartitioning iterations after each churn batch.
const CHURN_ITERS_PER_BATCH: usize = 3;

/// Power-law vertex count per scale. `Quick` (the default) runs the
/// ≥100k-vertex configuration the acceptance claim is about; `Tiny` is the
/// CI smoke size.
pub fn vertices(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 8_000,
        Scale::Quick => 100_000,
        Scale::Paper | Scale::Xl => 1_000_000,
    }
}

/// Refine budget: enough for the scenario to go quiet (migrations reach
/// zero well before this on every scale; see the `quiet_at` output).
fn refine_iterations(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 40,
        Scale::Quick | Scale::Paper | Scale::Xl => 60,
    }
}

/// Churn batches (each `batch_size` new power-law vertices).
fn churn_batches(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 5,
        Scale::Quick | Scale::Paper | Scale::Xl => 15,
    }
}

fn churn_batch_size(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 16,
        Scale::Quick | Scale::Paper | Scale::Xl => 64,
    }
}

/// Aggregated phase cost for one mode.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseCost {
    /// Iterations (or batches, for churn) the phase ran.
    pub units: usize,
    /// Total wall-clock, milliseconds.
    pub total_ms: f64,
    /// Decide-phase share of `total_ms`.
    pub decide_ms: f64,
    /// Merge-phase share of `total_ms`.
    pub merge_ms: f64,
    /// Apply-phase share of `total_ms`.
    pub apply_ms: f64,
    /// Mean slots visited per iteration.
    pub mean_visited: f64,
    /// Migrations over the phase.
    pub migrations: usize,
}

impl PhaseCost {
    /// Mean wall-clock per unit, milliseconds.
    pub fn per_unit_ms(&self) -> f64 {
        if self.units == 0 {
            0.0
        } else {
            self.total_ms / self.units as f64
        }
    }

    fn absorb(&mut self, wall_ms: f64, profile: &SweepProfile, migrations: usize) {
        self.total_ms += wall_ms;
        self.decide_ms += profile.decide_ms;
        self.merge_ms += profile.merge_ms;
        self.apply_ms += profile.apply_ms;
        self.mean_visited += profile.visited as f64; // normalised in finish()
        self.migrations += migrations;
    }

    fn finish(&mut self, units: usize, iterations: usize) {
        self.units = units;
        if iterations > 0 {
            self.mean_visited /= iterations as f64;
        }
    }
}

/// One mode's full scenario measurement.
#[derive(Debug, Clone)]
pub struct ModeResult {
    /// `"active-set"` or `"exhaustive"`.
    pub mode: &'static str,
    /// Refine phase (fixed iteration budget from a hash assignment).
    pub refine: PhaseCost,
    /// Converged phase (`CONVERGED_ITERS` iterations, quiet partitioning).
    pub converged: PhaseCost,
    /// Churn phase (small batches + `CHURN_ITERS_PER_BATCH` each).
    pub churn: PhaseCost,
    /// First refine iteration with zero migrations (`None` if never quiet).
    pub quiet_at: Option<usize>,
    /// Active vertices when the refine budget ended.
    pub active_after_refine: usize,
}

/// Full experiment output.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Scale name (`tiny` / `quick` / `paper`) the run was sized by.
    pub scale: &'static str,
    /// Hardware threads the host reports.
    pub threads_available: usize,
    /// Vertices in the base power-law graph.
    pub vertices: usize,
    /// Edges in the base power-law graph.
    pub edges: usize,
    /// Refine iteration budget.
    pub refine_iterations: usize,
    /// Churn batches applied.
    pub churn_batches: usize,
    /// New vertices per churn batch.
    pub churn_batch_size: usize,
    /// Decision-sweep threads used ([`AdaptiveConfig::parallelism`]).
    pub parallelism: usize,
    /// One entry per sweep mode.
    pub modes: Vec<ModeResult>,
}

impl SweepResult {
    fn mode(&self, name: &str) -> &ModeResult {
        self.modes
            .iter()
            .find(|m| m.mode == name)
            .expect("both modes always run")
    }

    /// Exhaustive-over-active wall-clock ratio for converged iterations —
    /// the headline number (acceptance: ≥ 10x at the 100k scale). The
    /// denominator is floored at 1 µs so a coarse clock reporting 0.0 for
    /// near-free iterations yields a large *finite* ratio (the JSON must
    /// stay parseable — `inf` is not a JSON value).
    pub fn converged_speedup(&self) -> f64 {
        let active = self.mode("active-set").converged.per_unit_ms();
        let full = self.mode("exhaustive").converged.per_unit_ms();
        full / active.max(1e-3)
    }

    /// Exhaustive-over-active wall-clock ratio for churn batches (same
    /// 1 µs denominator floor as [`SweepResult::converged_speedup`]).
    pub fn churn_speedup(&self) -> f64 {
        let active = self.mode("active-set").churn.per_unit_ms();
        let full = self.mode("exhaustive").churn.per_unit_ms();
        full / active.max(1e-3)
    }
}

/// One profiled iteration under a sweep mode's driver.
type Iterate = fn(&mut AdaptivePartitioner) -> (IterationStats, SweepProfile);

/// Runs the three-phase scenario in one sweep mode: `"active-set"` under
/// production's `iterate_profiled`, `"exhaustive"` under the reference
/// driver.
fn run_mode(
    graph: &CsrGraph,
    churn: &[UpdateBatch],
    scale: Scale,
    cfg: &AdaptiveConfig,
    seed: u64,
    (mode, iterate): (&'static str, Iterate),
) -> ModeResult {
    let mut p = AdaptivePartitioner::with_strategy(graph, InitialStrategy::Hash, cfg, seed);

    let mut refine = PhaseCost::default();
    let mut quiet_at = None;
    let refine_iters = refine_iterations(scale);
    for i in 0..refine_iters {
        let start = Instant::now();
        let (stats, profile) = iterate(&mut p);
        refine.absorb(
            start.elapsed().as_secs_f64() * 1e3,
            &profile,
            stats.migrations,
        );
        if stats.migrations == 0 && quiet_at.is_none() {
            quiet_at = Some(i);
        }
    }
    refine.finish(refine_iters, refine_iters);
    let active_after_refine = p.num_active_vertices();

    let mut converged = PhaseCost::default();
    for _ in 0..CONVERGED_ITERS {
        let start = Instant::now();
        let (stats, profile) = iterate(&mut p);
        converged.absorb(
            start.elapsed().as_secs_f64() * 1e3,
            &profile,
            stats.migrations,
        );
    }
    converged.finish(CONVERGED_ITERS, CONVERGED_ITERS);

    let mut churn_cost = PhaseCost::default();
    for batch in churn {
        let start = Instant::now();
        p.apply_batch(batch);
        let mut wall = start.elapsed().as_secs_f64() * 1e3;
        for _ in 0..CHURN_ITERS_PER_BATCH {
            let start = Instant::now();
            let (stats, profile) = iterate(&mut p);
            wall += start.elapsed().as_secs_f64() * 1e3;
            churn_cost.absorb(0.0, &profile, stats.migrations);
        }
        churn_cost.total_ms += wall;
    }
    churn_cost.finish(churn.len(), churn.len() * CHURN_ITERS_PER_BATCH);
    p.audit();

    ModeResult {
        mode,
        refine,
        converged,
        churn: churn_cost,
        quiet_at,
        active_after_refine,
    }
}

/// Runs the full experiment (both modes over the same graph and batches).
pub fn run(scale: Scale, seed: u64) -> SweepResult {
    let n = vertices(scale);
    let graph = gen::holme_kim(n, 8, 0.1, seed);
    // Both modes must see the *same* churn, so the batches are pulled once
    // up front. Iterations never change topology, so the batches stay
    // valid regardless of where each mode's refinement ends up.
    let shadow = apg_graph::DynGraph::from(&graph);
    let mut source = PowerLawGrowth::new(&shadow, 4, churn_batch_size(scale), seed ^ 0x5EEB);
    let churn: Vec<UpdateBatch> = (0..churn_batches(scale))
        .map(|_| source.next_batch().expect("growth streams never end"))
        .collect();

    let cfg = AdaptiveConfig::builder(K).build().unwrap();
    let drivers: [(&'static str, Iterate); 2] = [
        ("active-set", AdaptivePartitioner::iterate_profiled),
        ("exhaustive", reference::iterate_exhaustive),
    ];
    let modes = drivers
        .map(|driver| run_mode(&graph, &churn, scale, &cfg, seed, driver))
        .to_vec();
    SweepResult {
        scale: scale.name(),
        threads_available: apg_exec::available_parallelism(),
        vertices: n,
        edges: graph.num_edges(),
        refine_iterations: refine_iterations(scale),
        churn_batches: churn.len(),
        churn_batch_size: churn_batch_size(scale),
        parallelism: cfg.parallelism,
        modes,
    }
}

fn phase_json(cost: &PhaseCost) -> String {
    format!(
        "{{\"units\": {}, \"total_ms\": {:.3}, \"per_unit_ms\": {:.4}, \
         \"decide_ms\": {:.3}, \"merge_ms\": {:.3}, \"apply_ms\": {:.3}, \
         \"mean_visited\": {:.1}, \"migrations\": {}}}",
        cost.units,
        cost.total_ms,
        cost.per_unit_ms(),
        cost.decide_ms,
        cost.merge_ms,
        cost.apply_ms,
        cost.mean_visited,
        cost.migrations,
    )
}

/// Serialises the result as JSON (hand-rolled: the vendored `serde` carries
/// no data model).
pub fn to_json(result: &SweepResult) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"experiment\": \"active-set-sweep\",\n");
    out.push_str(&format!(
        "  \"scale\": \"{}\", \"threads_available\": {},\n",
        result.scale, result.threads_available
    ));
    out.push_str(&format!(
        "  \"graph\": {{\"family\": \"holme-kim-powerlaw\", \"vertices\": {}, \"edges\": {}}},\n",
        result.vertices, result.edges
    ));
    out.push_str(&format!(
        "  \"refine_iterations\": {}, \"converged_iterations\": {CONVERGED_ITERS}, \
         \"churn_batches\": {}, \"churn_batch_size\": {}, \
         \"churn_iterations_per_batch\": {CHURN_ITERS_PER_BATCH}, \"parallelism\": {},\n",
        result.refine_iterations, result.churn_batches, result.churn_batch_size, result.parallelism
    ));
    out.push_str(&format!(
        "  \"converged_speedup\": {:.1}, \"churn_speedup\": {:.1},\n",
        result.converged_speedup(),
        result.churn_speedup()
    ));
    out.push_str("  \"modes\": [\n");
    for (i, mode) in result.modes.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"quiet_at\": {}, \"active_after_refine\": {},\n",
            mode.mode,
            mode.quiet_at
                .map(|q| q.to_string())
                .unwrap_or_else(|| "null".into()),
            mode.active_after_refine
        ));
        out.push_str(&format!("     \"refine\": {},\n", phase_json(&mode.refine)));
        out.push_str(&format!(
            "     \"converged\": {},\n",
            phase_json(&mode.converged)
        ));
        out.push_str(&format!(
            "     \"churn\": {}}}{}\n",
            phase_json(&mode.churn),
            if i + 1 < result.modes.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Prints the comparison table.
pub fn print(result: &SweepResult) {
    println!(
        "Active-set sweep: {}-vertex / {}-edge power-law, k = {K}, {} refine + \
         {CONVERGED_ITERS} converged iterations, {} churn batches x {} vertices \
         ({} threads)",
        result.vertices,
        result.edges,
        result.refine_iterations,
        result.churn_batches,
        result.churn_batch_size,
        result.parallelism
    );
    println!(
        "{:>12} {:>10} {:>13} {:>13} {:>13} {:>13} {:>13}",
        "mode", "quiet at", "refine ms/it", "quiet ms/it", "churn ms/b", "visited/it", "active end"
    );
    for mode in &result.modes {
        println!(
            "{:>12} {:>10} {:>13.3} {:>13.4} {:>13.3} {:>13.1} {:>13}",
            mode.mode,
            mode.quiet_at
                .map(|q| q.to_string())
                .unwrap_or_else(|| "never".into()),
            mode.refine.per_unit_ms(),
            mode.converged.per_unit_ms(),
            mode.churn.per_unit_ms(),
            mode.converged.mean_visited,
            mode.active_after_refine,
        );
    }
    println!(
        "converged-phase speedup: {:.1}x, churn speedup: {:.1}x",
        result.converged_speedup(),
        result.churn_speedup(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_set_decays_and_visits_less() {
        let result = run(Scale::Tiny, 11);
        assert_eq!(result.modes.len(), 2);
        // The active set has decayed well below the live population.
        let active = result.mode("active-set");
        assert!(
            active.active_after_refine < result.vertices / 4,
            "active set barely decayed: {} of {}",
            active.active_after_refine,
            result.vertices
        );
        // Converged iterations visit far fewer slots than the exhaustive
        // sweep (wall-clock speedups are asserted at the bench scale, not
        // here — tiny debug runs are too noisy).
        let full = result.mode("exhaustive");
        assert!(active.converged.mean_visited * 4.0 < full.converged.mean_visited);
        assert!(full.converged.mean_visited as usize >= result.vertices / 2);
    }

    #[test]
    fn json_is_balanced_and_carries_both_modes() {
        let result = run(Scale::Tiny, 7);
        let json = to_json(&result);
        assert_eq!(json.matches("\"mode\":").count(), 2);
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON:\n{json}"
        );
        assert!(json.contains("\"scale\": \"tiny\""));
        assert!(json.contains("\"threads_available\""));
    }
}
