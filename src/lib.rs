//! # apg — Adaptive Partitioning for large-scale dynamic Graphs
//!
//! Facade crate re-exporting the whole workspace: a Rust reproduction of
//! Vaquero, Cuadrado, Martella & Logothetis, *Adaptive Partitioning for
//! Large-Scale Dynamic Graphs* (ICDCS 2014).
//!
//! The paper's contribution is a decentralised, iterative,
//! capacity-constrained greedy vertex-migration heuristic that keeps the
//! partitioning of a continuously-changing graph close to optimal while
//! relying on local, per-vertex information only. This workspace provides:
//!
//! * [`graph`] — graph substrate: CSR + dynamic graphs, generators, datasets.
//! * [`partition`] — partition state, metrics and the four initial
//!   strategies the paper compares (HSH, RND, DGR, MNN).
//! * [`metis`] — a multilevel k-way partitioner standing in for METIS.
//! * [`core`] — the adaptive iterative vertex-migration heuristic itself.
//! * [`exec`] — the sharded parallel execution layer (shard plans,
//!   deterministic RNG streams, scoped-thread fan-out) both the logical
//!   partitioner and the Pregel engine run on.
//! * [`pregel`] — a Pregel-like BSP engine with the paper's partitioning
//!   API extension (deferred migration, capacity messaging), plus the cost
//!   model and fault injection used in the evaluation.
//! * [`apps`] — vertex programs: PageRank, TunkRank, maximal cliques,
//!   cardiac-FEM kernel.
//! * [`streams`] — dynamic workloads: Twitter mention stream, CDR churn,
//!   forest-fire bursts.
//! * [`persist`] — the durable-state layer: a versioned binary codec and
//!   framed snapshot/log/checkpoint formats behind `apg-core`'s
//!   checkpoint/resume API (restartable streams).
//! * [`serve`] — the partition-aware query serving layer: a router
//!   answering vertex/neighborhood/k-hop queries against the live
//!   partitioned graph between streaming batches, accounting every
//!   traversal hop as local or remote to the anchor's partition.
//! * [`mod@bench`] — the experiment drivers behind the `fig1`…`fig9`, `table1`,
//!   `ablation` and `all` binaries regenerating the paper's evaluation.
//!
//! # Quickstart
//!
//! ```
//! use apg::prelude::*;
//!
//! // The paper's 64kcube dataset, 9 partitions, defaults from the paper
//! // (s = 0.5, capacity = 110% of balanced load).
//! let graph = apg::graph::gen::mesh3d(20, 20, 20);
//! let config = AdaptiveConfig::builder(9).build().unwrap();
//! let mut partitioner =
//!     AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &config, 42);
//! let report = partitioner.run_to_convergence();
//! assert!(report.final_cut_ratio() < report.initial_cut_ratio());
//! ```

pub use apg_apps as apps;
pub use apg_bench as bench;
pub use apg_core as core;
pub use apg_exec as exec;
pub use apg_graph as graph;
pub use apg_metis as metis;
pub use apg_partition as partition;
pub use apg_persist as persist;
pub use apg_pregel as pregel;
pub use apg_serve as serve;
pub use apg_streams as streams;

/// Most-used items in one import — **the blessed import path**.
///
/// Re-exports are grouped by layer, bottom-up: substrate → partition state
/// → heuristic → streaming → serving → engine.
pub mod prelude {
    // ── Graph substrate ────────────────────────────────────────────────
    /// Static (CSR) and dynamic graphs, mutations, and the delta model.
    pub use apg_graph::{
        ApplyReport, CsrGraph, DeltaLog, DynGraph, Graph, GraphDelta, UpdateBatch, VertexId,
    };

    // ── Partition state & metrics ──────────────────────────────────────
    /// Assignments, cut metrics, and the paper's four initial strategies.
    pub use apg_partition::{cut_edges, cut_ratio, InitialStrategy, PartitionId, Partitioning};

    // ── The adaptive heuristic ─────────────────────────────────────────
    /// Configuration (validating builder + typed error) and the iterative
    /// vertex-migration partitioner.
    pub use apg_core::{
        AdaptiveConfig, AdaptiveConfigBuilder, AdaptivePartitioner, ConfigError, ConvergenceReport,
    };

    // ── Streaming ingestion & durability ───────────────────────────────
    /// Batched churn driving the partitioner, plus checkpoint/resume.
    pub use apg_core::{StreamCheckpoint, StreamingRunner, TimelineStats};
    pub use apg_streams::{RestartableSource, SourceCursor, StreamSource};

    // ── Query serving ──────────────────────────────────────────────────
    /// The partition-aware serving layer: deterministic workloads routed
    /// to each anchor's owning partition, with local/remote hop accounting.
    pub use apg_serve::{Query, QueryMix, QueryRouter, QueryWorkload, ServeStats};

    // ── Pregel-like engine ─────────────────────────────────────────────
    /// The BSP engine with the paper's partitioning API extension.
    pub use apg_pregel::{Context, CostModel, Engine, EngineBuilder, VertexProgram};
}
