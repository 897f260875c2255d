//! Sharded parallel execution for the adaptive partitioning workspace.
//!
//! The paper's migration heuristic is decentralised by design: every vertex
//! decides from *stale* neighbour labels, so one iteration's decision sweep
//! is embarrassingly parallel. This crate packages the three ingredients
//! every parallel realisation in the workspace shares, so the logical-level
//! partitioner (`apg-core`) and the distributed engine (`apg-pregel`)
//! cannot drift apart:
//!
//! * [`ShardPlan`] — deterministic decomposition of a slot range into
//!   fixed-size chunks. The plan depends on the data only, never on the
//!   thread count.
//! * [`stream_rng`] — per-`(seed, stream, round)` RNG streams, so random
//!   draws belong to logical work units instead of threads — and
//!   [`vertex_rng`], the finer-grained per-`(seed, vertex, round)`
//!   derivation that makes skipping inert vertices exact.
//! * [`fanout::map_items`] / [`fanout::map_shards`] — scoped-thread fan-out
//!   returning outputs in index order, with a sequential inline path for
//!   `threads <= 1`.
//! * [`ActiveSet`] — a dense bitmap with per-shard counts, so sweeps can
//!   visit only the slots that still need work and skip whole shards that
//!   have none. The same type, marked at mutation time and cleared only
//!   at a durable install, is the changed-slot record delta snapshots are
//!   encoded from.
//!
//! # The determinism contract
//!
//! A parallel sweep built from these pieces is a pure function of
//! `(data, seed, round)`: the shard plan fixes *what* each unit of work
//! covers, the stream RNG fixes *which* random draws it sees, and the
//! ordered fan-out fixes *how* per-unit outputs recombine. The thread count
//! only chooses how many units run concurrently. Consumers exploit this to
//! guarantee bit-identical results at any parallelism — see the
//! determinism regression test in the workspace root.
//!
//! # Example
//!
//! ```
//! use apg_exec::{fanout, stream_rng, ShardPlan};
//! use rand::Rng;
//!
//! // Count "heads" over 10k slots, 4 threads, reproducibly.
//! let plan = ShardPlan::new(10_000, 1024);
//! let per_shard = fanout::map_shards(4, &plan, |shard, range| {
//!     let mut rng = stream_rng(42, shard as u64, 0);
//!     range.filter(|_| rng.gen_bool(0.5)).count()
//! });
//! let single: Vec<usize> = fanout::map_shards(1, &plan, |shard, range| {
//!     let mut rng = stream_rng(42, shard as u64, 0);
//!     range.filter(|_| rng.gen_bool(0.5)).count()
//! });
//! assert_eq!(per_shard, single);
//! ```

pub mod active;
pub mod fanout;
pub mod rng;
pub mod shard;

pub use active::{ActiveIter, ActiveSet};
pub use fanout::{available_parallelism, map_items, map_shards};
pub use rng::{stream_rng, stream_state, vertex_rng, vertex_state};
pub use shard::{ShardPlan, DEFAULT_SHARD_SIZE};
