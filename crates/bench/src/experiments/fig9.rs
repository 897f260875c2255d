//! Figure 9: the mobile-network use case — maximal cliques over a month of
//! calls with weekly churn, dynamic (adaptive) vs static partitioning.
//!
//! The topology freezes during each clique round; graph changes buffer
//! between rounds (the paper's batching), and the 15x replay speed-up shows
//! up as sizeable per-round batches.

use apg_apps::MaxClique;
use apg_core::{mean_and_sem, AdaptiveConfig, Summary};
use apg_graph::DynGraph;
use apg_pregel::{CostModel, Engine, EngineBuilder};
use apg_streams::{CdrConfig, CdrStream, StreamSource};

use crate::Scale;

/// One week of Figure 9 (both panels).
#[derive(Debug, Clone)]
pub struct Fig9Week {
    /// Week number (1-based, as in the paper's x axis).
    pub week: usize,
    /// Cut ratio at week end, adaptive cluster.
    pub dynamic_cut: f64,
    /// Cut ratio at week end, static cluster.
    pub static_cut: f64,
    /// Per-round sim time, adaptive cluster (mean ± SEM over rounds).
    pub dynamic_time: Summary,
    /// Per-round sim time, static cluster.
    pub static_time: Summary,
}

const WORKERS: u16 = 5; // the paper's CDR cluster had 5 workers
const WEEKS: usize = 4;

/// Population per scale.
pub fn subscribers(scale: Scale) -> usize {
    match scale {
        Scale::Paper => 20_000,
        Scale::Quick => 3_000,
        Scale::Tiny => 600,
    }
}

/// Runs the four weeks on paired clusters.
pub fn run(scale: Scale, seed: u64) -> Vec<Fig9Week> {
    let config = CdrConfig {
        initial_subscribers: subscribers(scale),
        ..CdrConfig::default()
    };
    let mut stream = CdrStream::new(config, seed);
    let initial = DynGraph::with_vertices(config.initial_subscribers);

    let mut dynamic: Engine<MaxClique> = EngineBuilder::new(WORKERS)
        .seed(seed)
        .cost_model(CostModel::lan_10gbe())
        .adaptive(AdaptiveConfig::builder(WORKERS).build().unwrap())
        .build(&initial, MaxClique::new());
    let mut static_engine: Engine<MaxClique> = EngineBuilder::new(WORKERS)
        .seed(seed)
        .cost_model(CostModel::lan_10gbe())
        .build(&initial, MaxClique::new());

    let mut weeks = Vec::with_capacity(WEEKS);
    let batches_per_week = config.batches_per_week;
    for week in 1..=WEEKS {
        let mut dyn_times = Vec::new();
        let mut stat_times = Vec::new();

        // The canonical ingestion path: one UpdateBatch per buffered call
        // batch (the frozen-topology discipline — mutations land between
        // rounds only), with the week's joiners opening its first batch and
        // the week-end departures closing its last. NOTE: departures
        // therefore land just before the week's final round (they used to
        // land after it), so per-round times differ slightly from the
        // pre-delta-model series; week-end cut ratios are unaffected.
        for _ in 0..batches_per_week {
            let batch = stream.next_batch().expect("CDR stream is open-ended");
            dynamic.apply_batch(&batch);
            static_engine.apply_batch(&batch);

            dyn_times.push(clique_round(&mut dynamic));
            stat_times.push(clique_round(&mut static_engine));
        }

        weeks.push(Fig9Week {
            week,
            dynamic_cut: dynamic.cut_ratio(),
            static_cut: static_engine.cut_ratio(),
            dynamic_time: mean_and_sem(&dyn_times),
            static_time: mean_and_sem(&stat_times),
        });
    }
    weeks
}

/// One freeze-compute round: wake everything, exchange lists, detect.
fn clique_round(engine: &mut Engine<MaxClique>) -> f64 {
    engine.wake_all();
    let reports = engine.run(2);
    reports.iter().map(|r| r.sim_time).sum()
}

/// Prints both panels of Figure 9.
pub fn print(weeks: &[Fig9Week]) {
    println!("Figure 9: CDR clique workload, dynamic vs static ({WORKERS} workers)");
    println!(
        "{:>6} | {:>12} {:>12} | {:>20} {:>20}",
        "week", "dyn cut", "stat cut", "dyn time/round", "stat time/round"
    );
    for w in weeks {
        println!(
            "{:>6} | {:>12.4} {:>12.4} | {:>12.0} ±{:<6.0} {:>12.0} ±{:<6.0}",
            w.week,
            w.dynamic_cut,
            w.static_cut,
            w.dynamic_time.mean,
            w.dynamic_time.sem,
            w.static_time.mean,
            w.static_time.sem
        );
    }
    if let Some(last) = weeks.last() {
        println!(
            "week-{} time ratio dynamic/static: {:.2} (paper: < 0.5)",
            last.week,
            last.dynamic_time.mean / last.static_time.mean.max(1e-9)
        );
    }
}
