//! Micro-benchmarks of the hot paths: the per-vertex decision kernel, quota
//! accounting, whole iterations of the logical partitioner, the METIS-like
//! baseline, and graph construction.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use apg_core::{AdaptiveConfig, AdaptivePartitioner, DecisionKernel, QuotaRule, QuotaTable};
use apg_graph::gen;
use apg_graph::{DynGraph, Graph, VertexId};
use apg_partition::{CapacityModel, InitialStrategy};

/// Degree x k grid over seeded pseudo-random neighbour labels. A periodic
/// pattern (`i % k`) is one the branch predictor learns perfectly, which
/// hides exactly the per-neighbour bookkeeping the kernel is measured for;
/// each sample here evaluates 64 different label vectors in turn.
fn bench_decision_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("decision_kernel");
    for k in [9u16, 64, 4096] {
        for degree in [8usize, 32, 256] {
            let mut labels = StdRng::seed_from_u64(u64::from(k) << 16 | degree as u64);
            let vertices: Vec<Vec<u16>> = (0..64)
                .map(|_| (0..degree).map(|_| labels.gen_range(0..k)).collect())
                .collect();
            group.bench_with_input(
                BenchmarkId::new(&format!("k{k}"), degree),
                &vertices,
                |b, vertices| {
                    let mut kernel = DecisionKernel::new(k, false);
                    let mut rng = StdRng::seed_from_u64(1);
                    b.iter(|| {
                        for nbrs in vertices {
                            black_box(kernel.decide(black_box(0), nbrs.iter().copied(), &mut rng));
                        }
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_quota_table(c: &mut Criterion) {
    let remaining: Vec<usize> = (0..64).map(|i| 100 + i).collect();
    c.bench_function("quota_table_build_k64", |b| {
        b.iter(|| QuotaTable::new(QuotaRule::PerSourceSplit, black_box(&remaining)));
    });
    c.bench_function("quota_consume", |b| {
        let mut q = QuotaTable::new(QuotaRule::PerSourceSplit, &remaining);
        b.iter(|| q.try_consume(black_box(3), black_box(7)));
    });
}

fn bench_iterate(c: &mut Criterion) {
    let mut group = c.benchmark_group("partitioner_iterate");
    group.sample_size(10);
    for side in [10usize, 20] {
        let graph = gen::mesh3d(side, side, side);
        group.bench_with_input(
            BenchmarkId::new("mesh", side * side * side),
            &graph,
            |b, g| {
                let cfg = AdaptiveConfig::builder(9).build().unwrap();
                let mut p = AdaptivePartitioner::with_strategy(g, InitialStrategy::Hash, &cfg, 1);
                b.iter(|| p.iterate());
            },
        );
    }
    group.finish();
}

fn bench_metis(c: &mut Criterion) {
    let mut group = c.benchmark_group("metis_partition");
    group.sample_size(10);
    let graph = gen::mesh3d(12, 12, 12);
    group.bench_function("mesh_1728_k9", |b| {
        b.iter(|| apg_metis::partition(black_box(&graph), 9, 1.10, 3));
    });
    group.finish();
}

fn bench_graph_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_construction");
    group.sample_size(10);
    group.bench_function("mesh3d_27k", |b| b.iter(|| gen::mesh3d(30, 30, 30)));
    group.bench_function("holme_kim_10k", |b| {
        b.iter(|| gen::holme_kim(10_000, 5, 0.1, 7))
    });
    group.finish();
}

fn bench_cut_metrics(c: &mut Criterion) {
    let graph = gen::mesh3d(20, 20, 20);
    let caps = CapacityModel::vertex_balanced(8000, 9, 1.10);
    let p = InitialStrategy::Hash.assign(&graph, &caps, 1);
    c.bench_function("cut_edges_8k_mesh", |b| {
        b.iter(|| apg_partition::cut_edges(black_box(&graph), black_box(&p)));
    });
}

fn bench_initial_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("initial_strategies");
    group.sample_size(10);
    let graph = gen::mesh3d(16, 16, 16);
    let caps = CapacityModel::vertex_balanced(4096, 9, 1.10);
    for s in InitialStrategy::ALL {
        group.bench_function(s.label(), |b| {
            b.iter(|| s.assign(black_box(&graph), &caps, 5));
        });
    }
    group.finish();
}

/// Neighbor-scan throughput: the slab-backed `DynGraph` adjacency versus
/// the boxed `Vec<Vec<_>>` layout it replaced. Sequential sweeps measure
/// the decision-sweep access pattern (every list, ascending slot order);
/// random-access sweeps measure the serving/apply pattern where vertex
/// order is unpredictable and per-list pointer chasing dominates.
fn bench_neighbor_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("neighbor_scan");
    group.sample_size(10);
    let n = 100_000usize;
    let csr = gen::holme_kim(n, 8, 0.1, 11);
    let boxed: Vec<Vec<VertexId>> = (0..n)
        .map(|v| csr.neighbors(v as VertexId).to_vec())
        .collect();
    let slab = DynGraph::from(&csr);
    // A fixed pseudo-random visit order: stride 48271 is coprime to n, so
    // the sequence is a permutation of 0..n with no cache-friendly runs.
    let shuffled: Vec<usize> = (0..n).map(|i| (i * 48271) % n).collect();

    group.bench_function("sequential_boxed", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for list in &boxed {
                for &w in list {
                    acc = acc.wrapping_add(u64::from(w));
                }
            }
            black_box(acc)
        })
    });
    group.bench_function("sequential_slab", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for v in 0..n as VertexId {
                for &w in slab.neighbors(v) {
                    acc = acc.wrapping_add(u64::from(w));
                }
            }
            black_box(acc)
        })
    });
    group.bench_function("random_boxed", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &v in &shuffled {
                for &w in &boxed[v] {
                    acc = acc.wrapping_add(u64::from(w));
                }
            }
            black_box(acc)
        })
    });
    group.bench_function("random_slab", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &v in &shuffled {
                for &w in slab.neighbors(v as VertexId) {
                    acc = acc.wrapping_add(u64::from(w));
                }
            }
            black_box(acc)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_neighbor_scan,
    bench_decision_kernel,
    bench_quota_table,
    bench_iterate,
    bench_metis,
    bench_graph_construction,
    bench_cut_metrics,
    bench_initial_strategies
);
criterion_main!(benches);
