//! Ablations over the design choices DESIGN.md calls out: the capacity
//! quota rule, the stay-preference/self-count tie handling, the willingness
//! constant, and the edge-balanced capacity extension. Criterion measures
//! the runtime cost of each variant; the quality comparison table comes
//! from `cargo run -p apg-bench --bin ablation`.

use criterion::{criterion_group, criterion_main, Criterion};

use apg_core::{AdaptiveConfig, AdaptivePartitioner, QuotaRule};
use apg_graph::gen;
use apg_partition::InitialStrategy;

fn run_40(cfg: &AdaptiveConfig, seed: u64) -> f64 {
    let graph = gen::mesh3d(12, 12, 12);
    let mut p = AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, cfg, seed);
    p.run_for(40);
    p.cut_ratio()
}

fn bench_quota_rule(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_quota_rule");
    g.sample_size(10);
    g.bench_function("per_source_split", |b| {
        let cfg = AdaptiveConfig::builder(9)
            .quota_rule(QuotaRule::PerSourceSplit)
            .build()
            .unwrap();
        b.iter(|| run_40(&cfg, 1));
    });
    g.bench_function("unbounded", |b| {
        let cfg = AdaptiveConfig::builder(9)
            .quota_rule(QuotaRule::Unbounded)
            .build()
            .unwrap();
        b.iter(|| run_40(&cfg, 1));
    });
    g.finish();
}

fn bench_count_self(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_count_self");
    g.sample_size(10);
    g.bench_function("neighbours_only", |b| {
        let cfg = AdaptiveConfig::builder(9)
            .count_self(false)
            .build()
            .unwrap();
        b.iter(|| run_40(&cfg, 2));
    });
    g.bench_function("gamma_includes_self", |b| {
        let cfg = AdaptiveConfig::builder(9).count_self(true).build().unwrap();
        b.iter(|| run_40(&cfg, 2));
    });
    g.finish();
}

fn bench_willingness(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_willingness");
    g.sample_size(10);
    for s in [0.2, 0.5, 0.9] {
        g.bench_function(format!("s_{s}"), |b| {
            let cfg = AdaptiveConfig::builder(9).willingness(s).build().unwrap();
            b.iter(|| run_40(&cfg, 3));
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_quota_rule,
    bench_count_self,
    bench_willingness
);
criterion_main!(benches);
