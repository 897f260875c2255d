//! The adapter to the system under test: the only file that names an
//! `apg_*` crate.
//!
//! Everything the harness does to the system goes through the wrappers
//! below, so a change to the system's API is repaired here and nowhere
//! else. The surface is deliberately the part of the public API later work
//! is not slated to remove (see README, "The adapter"); the one addition is
//! `AdaptivePartitioner::num_active_vertices`, without which the shadow
//! partitioner cannot follow `StreamingRunner`'s own budget rule.
//!
//! Nothing here reads a clock: the harness times the calls from outside.

use std::path::Path;

use apg_core::{
    AdaptiveConfig, AdaptivePartitioner, CheckpointStore, StoreConfig, StreamCheckpoint,
    StreamingRunner,
};
use apg_graph::gen::holme_kim;
use apg_graph::{CsrGraph, DynGraph, Graph, UpdateBatch};
use apg_partition::InitialStrategy;
use apg_persist::Encode;
use apg_serve::{QueryMix, QueryRouter, QueryWorkload};
use apg_streams::{CdrConfig, CdrStream, PowerLawGrowth, StreamSource};

/// Partitions in every workload.
pub const K: u16 = 8;

/// `AdaptiveConfig::max_iterations`, set explicitly so the traced refine
/// job can loop `iterate()` under the same cap `run_to_convergence` uses.
pub const MAX_ITERATIONS: usize = 1000;

/// Depth of every k-hop query.
const KHOP_DEPTH: usize = 2;

fn config(threads: usize) -> AdaptiveConfig {
    AdaptiveConfig::builder(K)
        .parallelism(threads)
        .max_iterations(MAX_ITERATIONS)
        .build()
        .expect("paper defaults with a positive thread count are a valid config")
}

/// FNV-1a over a stream of integers, the fold every fingerprint uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Fnv {
    pub const fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn fold(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One buffered set of graph updates, as the stream source emitted it.
#[derive(Debug, Clone)]
pub struct Batch(UpdateBatch);

impl Batch {
    /// The write-ahead payload `Store::append` writes for this batch.
    pub fn wal_payload(&self) -> Vec<u8> {
        self.0.to_bytes()
    }
}

/// The load generator. Both sources are open-ended, and a clone emits the
/// batches the original will.
#[derive(Debug, Clone)]
pub enum Stream {
    Cdr(CdrStream),
    Growth(PowerLawGrowth),
}

impl Stream {
    pub fn cdr(subscribers: usize, batches_per_week: usize, seed: u64) -> Self {
        let config = CdrConfig {
            initial_subscribers: subscribers,
            batches_per_week,
            ..CdrConfig::default()
        };
        Stream::Cdr(CdrStream::new(config, seed))
    }

    /// Preferential-attachment growth over `base`'s current graph.
    pub fn growth(
        base: &Partitioner,
        edges_per_vertex: usize,
        batch_size: usize,
        seed: u64,
    ) -> Self {
        Stream::Growth(PowerLawGrowth::new(
            base.0.graph(),
            edges_per_vertex,
            batch_size,
            seed,
        ))
    }

    pub fn next_batch(&mut self) -> Batch {
        let batch = match self {
            Stream::Cdr(s) => s.next_batch(),
            Stream::Growth(s) => s.next_batch(),
        };
        Batch(batch.expect("CDR and growth sources never end"))
    }
}

/// A static power-law graph (Holme–Kim).
#[derive(Debug)]
pub struct PowerlawGraph(CsrGraph);

impl PowerlawGraph {
    pub fn holme_kim(n: usize, m: usize, p: f64, seed: u64) -> Self {
        PowerlawGraph(holme_kim(n, m, p, seed))
    }
}

/// What the harness reads off a partitioned graph once a run is over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub cut_ratio: f64,
    pub vertices: usize,
    pub edges: usize,
    /// Largest partition over the mean partition size.
    pub max_load_ratio: f64,
    /// FNV-1a over the assignment, slot by slot.
    pub assignment_hash: u64,
}

fn summarize(p: &AdaptivePartitioner) -> Summary {
    let sizes = p.partitioning().sizes();
    let total: usize = sizes.iter().sum();
    let largest = sizes.iter().copied().max().unwrap_or(0);
    let mut hash = Fnv::new();
    for &label in p.partitioning().as_slice() {
        hash.fold(u64::from(label));
    }
    Summary {
        cut_ratio: p.cut_ratio(),
        vertices: p.graph().num_live_vertices(),
        edges: p.graph().num_edges(),
        max_load_ratio: if total == 0 {
            0.0
        } else {
            largest as f64 * sizes.len() as f64 / total as f64
        },
        assignment_hash: hash.0,
    }
}

/// One `iterate()` call's observables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Iteration {
    pub migrations: usize,
    pub cut_edges: usize,
}

/// The adaptive partitioner on its own: the refine jobs, set-up, and the
/// traced run's shadow.
#[derive(Debug, Clone)]
pub struct Partitioner(AdaptivePartitioner);

impl Partitioner {
    /// `vertices` isolated vertices, hash-partitioned.
    pub fn isolated(vertices: usize, threads: usize, seed: u64) -> Self {
        let graph = DynGraph::with_vertices(vertices);
        Partitioner(AdaptivePartitioner::with_strategy(
            &graph,
            InitialStrategy::Hash,
            &config(threads),
            seed,
        ))
    }

    /// `graph`, hash-partitioned.
    pub fn hashed(graph: &PowerlawGraph, threads: usize, seed: u64) -> Self {
        Partitioner(AdaptivePartitioner::with_strategy(
            &graph.0,
            InitialStrategy::Hash,
            &config(threads),
            seed,
        ))
    }

    pub fn apply_batch(&mut self, batch: &Batch) {
        self.0.apply_batch(&batch.0);
    }

    pub fn iterate(&mut self) -> Iteration {
        let stats = self.0.iterate();
        Iteration {
            migrations: stats.migrations,
            cut_edges: stats.cut_edges,
        }
    }

    /// Whether `StreamingRunner::ingest` would skip the rest of a batch's
    /// iteration budget here (default drain floor: active set empty).
    pub fn drained(&self) -> bool {
        self.0.num_active_vertices() == 0
    }

    pub fn is_converged(&self) -> bool {
        self.0.is_converged()
    }

    /// Returns the number of iterations it took.
    pub fn run_to_convergence(&mut self) -> usize {
        self.0.run_to_convergence().iterations()
    }

    pub fn summary(&self) -> Summary {
        summarize(&self.0)
    }

    /// A copy of the current graph with no partitioner attached.
    pub fn bare_graph(&self) -> BareGraph {
        BareGraph(self.0.graph().clone())
    }

    /// Panics when an internal invariant is violated.
    pub fn audit(&self) {
        self.0.audit();
    }
}

/// What `Runner::ingest` recorded for one batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ingested {
    pub deltas: usize,
    pub cut_after: usize,
    pub migrations: usize,
    pub live_vertices: usize,
    pub num_edges: usize,
}

impl Ingested {
    pub fn fold_into(&self, hash: &mut Fnv) {
        for field in [
            self.deltas,
            self.cut_after,
            self.migrations,
            self.live_vertices,
            self.num_edges,
        ] {
            hash.fold(field as u64);
        }
    }
}

/// One serve round's counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Served {
    pub queries: usize,
    pub hops: usize,
    pub local_hops: usize,
    /// Queries whose anchor was tombstoned: an expected outcome.
    pub misses: usize,
}

/// A reproducible depth-2 query mix.
#[derive(Debug, Clone)]
pub struct Queries(QueryWorkload);

impl Queries {
    pub fn community_biased(per_round: usize, seed: u64) -> Self {
        Queries(
            QueryWorkload::new(QueryMix::CommunityBiased, per_round, seed).khop_depth(KHOP_DEPTH),
        )
    }

    pub fn uniform(per_round: usize, seed: u64) -> Self {
        Queries(QueryWorkload::new(QueryMix::Uniform, per_round, seed).khop_depth(KHOP_DEPTH))
    }
}

/// The streaming pipeline: ingest, repartition, record.
#[derive(Debug)]
pub struct Runner(StreamingRunner);

impl Runner {
    pub fn new(
        partitioner: Partitioner,
        iterations_per_batch: usize,
        window: Option<usize>,
    ) -> Self {
        let runner = StreamingRunner::new(partitioner.0).iterations_per_batch(iterations_per_batch);
        Runner(match window {
            Some(w) => runner.timeline_window(w),
            None => runner,
        })
    }

    pub fn ingest(&mut self, batch: &Batch) -> Ingested {
        let stats = self.0.ingest(&batch.0);
        Ingested {
            deltas: stats.deltas,
            cut_after: stats.cut_after,
            migrations: stats.migrations,
            live_vertices: stats.live_vertices,
            num_edges: stats.num_edges,
        }
    }

    /// One round of `queries` against the current snapshot.
    pub fn serve_round(&self, queries: &Queries, round: u64, threads: usize) -> Served {
        let p = self.0.partitioner();
        let stats =
            QueryRouter::new(p.graph(), p.partitioning()).serve_round(&queries.0, round, threads);
        Served {
            queries: stats.queries,
            hops: stats.hops,
            local_hops: stats.local_hops,
            misses: stats.misses,
        }
    }

    /// Side measurement: what `serve_round` spends generating its queries.
    pub fn generate_queries(&self, queries: &Queries, round: u64) -> usize {
        queries
            .0
            .generate(self.0.partitioner().graph(), round)
            .len()
    }

    /// Side measurement: the state capture `Store::install` starts with.
    pub fn capture(&self) -> Capture {
        Capture(self.0.checkpoint())
    }

    pub fn batches_ingested(&self) -> usize {
        self.0.batches_ingested()
    }

    pub fn timeline_digest(&self) -> u64 {
        self.0.timeline_digest()
    }

    pub fn summary(&self) -> Summary {
        summarize(self.0.partitioner())
    }

    /// Panics when an internal invariant is violated.
    pub fn audit(&self) {
        self.0.partitioner().audit();
    }

    /// The recovery check: `self` (recovered from disk) must be the runner
    /// `live` is, in everything but wall-clock.
    pub fn same_history_as(&self, live: &Runner) -> Result<(), String> {
        let (a, b) = (&self.0, &live.0);
        if a.batches_ingested() != b.batches_ingested() {
            return Err(format!(
                "recovered runner is at batch {}, live runner at {}",
                a.batches_ingested(),
                b.batches_ingested()
            ));
        }
        if a.timeline_digest() != b.timeline_digest() {
            return Err("recovered timeline digest differs from the live one".into());
        }
        if a.timeline() != b.timeline() {
            return Err("recovered retained timeline differs from the live one".into());
        }
        if a.partitioner().graph() != b.partitioner().graph() {
            return Err("recovered graph differs from the live one".into());
        }
        if a.partitioner().partitioning() != b.partitioner().partitioning() {
            return Err("recovered partitioning differs from the live one".into());
        }
        Ok(())
    }
}

/// A captured checkpoint, for the encode/decode side measurements.
#[derive(Debug)]
pub struct Capture(StreamCheckpoint);

impl Capture {
    pub fn encode(&self) -> Vec<u8> {
        self.0.to_bytes()
    }

    pub fn decode(bytes: &[u8]) -> Result<Capture, String> {
        StreamCheckpoint::from_bytes(bytes)
            .map(Capture)
            .map_err(|e| format!("checkpoint decode: {e}"))
    }
}

/// A graph without a partitioner: the floor of batch application.
#[derive(Debug)]
pub struct BareGraph(DynGraph);

impl BareGraph {
    pub fn apply(&mut self, batch: &Batch) {
        batch.0.apply(&mut self.0);
    }

    pub fn edges(&self) -> usize {
        self.0.num_edges()
    }
}

/// What one `Store::install` durably wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Installed {
    pub incremental: bool,
    pub bytes: usize,
}

/// The durable checkpoint store, default configuration (fsync on).
#[derive(Debug)]
pub struct Store(CheckpointStore);

/// A checkpoint `Store::open` found on disk.
#[derive(Debug)]
pub struct Recovered(StreamCheckpoint);

impl Store {
    /// Opens or creates the store in `dir`, returning what was durable.
    pub fn open(dir: &Path) -> Result<(Store, Option<Recovered>), String> {
        let (store, recovered) = CheckpointStore::open(dir, StoreConfig::default())
            .map_err(|e| format!("store open: {e}"))?;
        Ok((Store(store), recovered.checkpoint.map(Recovered)))
    }

    pub fn append(&mut self, batch: &Batch) -> Result<(), String> {
        self.0
            .append(&batch.0)
            .map_err(|e| format!("store append: {e}"))
    }

    pub fn install(&mut self, runner: &mut Runner) -> Result<Installed, String> {
        let report = self
            .0
            .install(&mut runner.0)
            .map_err(|e| format!("store install: {e}"))?;
        Ok(Installed {
            incremental: report.incremental,
            bytes: report.bytes,
        })
    }
}

impl Recovered {
    /// Restores the snapshot and replays the write-ahead tail.
    pub fn resume(self) -> Runner {
        Runner(StreamingRunner::resume(self.0))
    }
}
