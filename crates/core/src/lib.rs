//! The paper's primary contribution: **adaptive iterative partitioning by
//! decentralised greedy vertex migration** (Vaquero et al., §2).
//!
//! Starting from any initial partitioning, every iteration each vertex
//! decides — from local information only — whether to migrate to the
//! partition holding most of its neighbours. Per-destination quotas derived
//! from partition capacities keep the partitioning balanced without global
//! coordination, and a random "willingness to move" factor `s` breaks the
//! neighbour-chasing oscillations that would otherwise prevent convergence.
//! Graph mutations (vertex/edge insertion and removal) feed into the same
//! iterative process, which is what makes the partitioning *adaptive*.
//!
//! The implementation here is the algorithm at the paper's §2 "logical
//! level": one process iterating over the whole graph, faithful to the
//! iteration semantics (all decisions in iteration `t` observe the state at
//! the start of `t`). Because every vertex decides from stale neighbour
//! labels, the decision sweep is embarrassingly parallel: it runs sharded
//! over [`AdaptiveConfig::parallelism`] threads via the `apg-exec` layer,
//! with per-shard RNG streams keeping results identical at any thread
//! count. The distributed realisation with deferred migration and capacity
//! messaging (§3) lives in the `apg-pregel` crate and reuses the decision
//! kernel and the same execution layer, so the two cannot drift.
//!
//! [`AdaptiveConfig`] holds the algorithm's knobs and nothing else: built
//! one way ([`AdaptiveConfig::builder`]), checked by one rule set
//! ([`AdaptiveConfig::validate`], shared with the checkpoint decoder),
//! persisted whole. The naive implementations the equivalence suites
//! compare against (exhaustive sweep, serial apply) are not modes of it but
//! separate drivers in the hidden `reference` module.
//!
//! # Example
//!
//! ```
//! use apg_core::{AdaptiveConfig, AdaptivePartitioner};
//! use apg_graph::gen;
//! use apg_partition::InitialStrategy;
//!
//! let graph = gen::mesh3d(10, 10, 10);
//! let config = AdaptiveConfig::builder(9).build().unwrap(); // k = 9, s = 0.5, capacity 110%
//! let mut partitioner =
//!     AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &config, 42);
//! let report = partitioner.run_to_convergence();
//! assert!(report.final_cut_ratio() < 0.5 * report.initial_cut_ratio());
//! ```

pub mod candidates;
pub mod config;
mod marks;
pub mod partitioner;
pub mod persist;
pub mod quota;
pub mod runner;
pub mod stats;
pub mod streaming;

pub use candidates::{DecisionKernel, MigrationDecision};
pub use config::{
    AdaptiveConfig, AdaptiveConfigBuilder, Anneal, ConfigError, QuotaRule, DEFAULT_CAPACITY_FACTOR,
};
// Test support, not API: the naive drivers the equivalence suites use.
#[doc(hidden)]
pub use partitioner::reference;
pub use partitioner::{place_new_vertex, AdaptivePartitioner, IterationStats, SweepProfile};
pub use persist::{
    CheckpointDelta, CheckpointStore, CheckpointView, DeltaBase, InstallReport, PartitionerState,
    RecoveredCheckpoint, StreamCheckpoint,
};
// The store types `CheckpointStore`'s signatures speak in, so callers can
// name them without depending on `apg-persist` directly.
pub use apg_persist::store::{StoreConfig, StoreError};
pub use quota::QuotaTable;
pub use runner::ConvergenceReport;
pub use stats::{mean_and_sem, Summary};
pub use streaming::{fold_timeline_digest, StreamingRunner, TimelineStats, TIMELINE_DIGEST_SEED};
