//! Figure 8: the online-social-network use case — TunkRank over a live
//! mention stream, adaptive vs static hash, across a 24-hour London day
//! (including the mid-afternoon worker failure the paper's caption notes).
//!
//! Mention edges expire after a freshness window (2 simulated hours):
//! influence analytics are only meaningful over recent attention, and the
//! paper's flat superstep-time traces over four days of continuous
//! operation imply bounded state, not an ever-growing multigraph.

use apg_apps::TunkRank;
use apg_core::AdaptiveConfig;
use apg_graph::DynGraph;
use apg_pregel::{CostModel, Engine, EngineBuilder, FaultPlan};
use apg_streams::{TwitterConfig, TwitterStream};

use crate::Scale;

/// One plotted window of Figure 8.
#[derive(Debug, Clone, Copy)]
pub struct Fig8Point {
    /// Hour of day at window start.
    pub hour: f64,
    /// Average tweets/second in the window.
    pub tweets_per_sec: f64,
    /// Mean superstep sim-time, static hash cluster.
    pub hash_time: f64,
    /// Mean superstep sim-time, adaptive cluster.
    pub adaptive_time: f64,
}

const WORKERS: u16 = 9;
const SUPERSTEPS_PER_WINDOW: usize = 3;
/// Mention-edge freshness horizon, in hours.
const EDGE_TTL_HOURS: f64 = 2.0;

/// Windows across the day per scale.
pub fn windows(scale: Scale) -> usize {
    match scale {
        Scale::Paper => 144, // 10-minute windows
        Scale::Quick => 48,  // 30-minute windows
        Scale::Tiny => 12,   // 2-hour windows
    }
}

/// Runs the paired-cluster day.
pub fn run(scale: Scale, seed: u64) -> Vec<Fig8Point> {
    let num_windows = windows(scale);
    let window_secs = 24.0 * 3600.0 / num_windows as f64;
    let config = TwitterConfig {
        initial_users: match scale {
            Scale::Paper => 4000,
            Scale::Quick => 1500,
            Scale::Tiny => 500,
        },
        ..TwitterConfig::default()
    };
    let mut stream = TwitterStream::new(config, seed);

    // The failure event: one worker crashes in the mid-afternoon, as in the
    // paper's trace. Same schedule on both clusters.
    let crash_superstep = (num_windows * 15 / 24) * SUPERSTEPS_PER_WINDOW;
    let plan = || FaultPlan::crash(crash_superstep, 3);

    let initial = DynGraph::with_vertices(config.initial_users);
    // The stream runs for days in the paper; TunkRank simply never stops.
    let program = TunkRank::new(usize::MAX);
    let mut adaptive: Engine<TunkRank> = EngineBuilder::new(WORKERS)
        .seed(seed)
        .cost_model(CostModel::lan_10gbe())
        .fault_plan(plan())
        .adaptive(AdaptiveConfig::builder(WORKERS).build().unwrap())
        .build(&initial, program);
    let mut hash: Engine<TunkRank> = EngineBuilder::new(WORKERS)
        .seed(seed)
        .cost_model(CostModel::lan_10gbe())
        .fault_plan(plan())
        .build(&initial, program);

    let mut points = Vec::with_capacity(num_windows);
    let ttl_windows = (EDGE_TTL_HOURS / (24.0 / num_windows as f64))
        .round()
        .max(1.0) as usize;
    let mut last_seen: std::collections::HashMap<(u32, u32), usize> =
        std::collections::HashMap::new();
    for w in 0..num_windows {
        let hour = w as f64 * 24.0 / num_windows as f64;
        // Ingestion stalls while the failed worker recovers.
        let in_recovery = {
            let s = adaptive.superstep_index();
            s >= crash_superstep && s < crash_superstep + 5
        };
        let effective_secs = if in_recovery {
            window_secs * 0.15
        } else {
            window_secs
        };
        let batch = stream.window(hour, effective_secs);

        // User indices beyond the engines' current slots become new
        // vertices (ids align because both sides allocate sequentially).
        let mut mutation = batch.to_update_batch(adaptive.num_total_slots());
        for &(a, b) in &batch.edges {
            let key = ((a as u32).min(b as u32), (a as u32).max(b as u32));
            last_seen.insert(key, w);
        }
        // Age out mentions older than the freshness horizon.
        let mut expired = Vec::new();
        last_seen.retain(|&(a, b), &mut seen| {
            if w.saturating_sub(seen) >= ttl_windows {
                expired.push((a, b));
                false
            } else {
                true
            }
        });
        expired.sort_unstable();
        for (a, b) in expired {
            mutation.remove_edge(a, b);
        }
        adaptive.apply_batch(&mutation);
        hash.apply_batch(&mutation);

        let ra = adaptive.run(SUPERSTEPS_PER_WINDOW);
        let rh = hash.run(SUPERSTEPS_PER_WINDOW);
        let mean = |rs: &[apg_pregel::SuperstepReport]| {
            rs.iter().map(|r| r.sim_time).sum::<f64>() / rs.len() as f64
        };
        points.push(Fig8Point {
            hour,
            tweets_per_sec: batch.tweets as f64 / window_secs,
            hash_time: mean(&rh),
            adaptive_time: mean(&ra),
        });
    }
    points
}

/// Prints the three series of Figure 8.
pub fn print(points: &[Fig8Point]) {
    println!("Figure 8: London tweet stream, superstep time hash vs adaptive");
    println!(
        "{:>6} {:>12} {:>14} {:>14} {:>8}",
        "hour", "tweets/s", "hash time", "adaptive time", "speedup"
    );
    for p in points {
        println!(
            "{:>6.1} {:>12.1} {:>14.0} {:>14.0} {:>8.2}",
            p.hour,
            p.tweets_per_sec,
            p.hash_time,
            p.adaptive_time,
            p.hash_time / p.adaptive_time.max(1e-9)
        );
    }
    let mean_speedup: f64 = points
        .iter()
        .map(|p| p.hash_time / p.adaptive_time.max(1e-9))
        .sum::<f64>()
        / points.len() as f64;
    println!("mean speedup: x{mean_speedup:.2} (paper reports ~5x: 2.5 s -> 0.5 s)");
}
