//! Partition-aware query serving for the adaptive partitioning workspace.
//!
//! The paper's argument is that adaptive repartitioning keeps traversals
//! *local* as the graph churns — this crate is the serving layer that turns
//! that claim into a measured workload. Each partition of a
//! [`Partitioning`](apg_partition::Partitioning) is treated as an **owned
//! serving domain**: a query is routed to the partition owning its anchor
//! vertex, executes there against the live
//! [`DynGraph`](apg_graph::DynGraph), and every traversal hop is accounted
//! as **local** (the reached vertex lives in the anchor's partition) or
//! **remote** (it crosses the serving-domain boundary and would require a
//! fetch from another partition's owner).
//!
//! Three pieces:
//!
//! * [`Query`] — the request vocabulary: point lookups, one-hop
//!   neighborhood reads, and bounded k-hop traversals.
//! * [`QueryWorkload`] / [`QueryMix`] — deterministic query generation.
//!   Every query's randomness is keyed by `(seed, query, round)` through
//!   the same [`vertex_rng`](apg_exec::vertex_rng) discipline the decision
//!   sweep uses — never by thread — so a served workload is byte-identical
//!   at any parallelism level.
//! * [`QueryRouter`] — answers queries read-only over a borrowed graph +
//!   assignment snapshot and aggregates per-round [`ServeStats`]; a round
//!   fans out over contiguous ranges of query indices through the ordered
//!   [`apg_exec::fanout`] primitive and sums the per-range partials,
//!   keeping the aggregate a pure function of `(graph, assignment,
//!   workload, round)`.
//!
//! A query costs what it visits, not what the graph holds. Traversals
//! deeper than one hop run one kernel on a [`TraversalScratch`]: a visited
//! bitset (an eighth of a byte per vertex slot) and one flat buffer that is
//! at once the frontier, the discovery-ordered result and the undo list
//! that clears exactly the bits the query set — so a worker allocates its
//! scratch once per round and each query's cost is O(vertices visited +
//! edges scanned). Depth 1 needs no scratch at all: adjacency lists are
//! sorted, duplicate-free and loop-free, so a neighborhood read *is* the
//! anchor's neighbour list.
//!
//! `apg-core`'s `StreamingRunner` interleaves one serve round per ingested
//! batch, producing a `ServeStats` timeline alongside the ingestion
//! timeline — the serving bench sweeps query mix × churn rate ×
//! partitioner arm over exactly that loop.
//!
//! # Example
//!
//! ```
//! use apg_graph::{DynGraph, Graph};
//! use apg_partition::Partitioning;
//! use apg_serve::{Query, QueryMix, QueryRouter, QueryWorkload};
//!
//! let mut g = DynGraph::with_vertices(6);
//! for (u, v) in [(0, 1), (1, 2), (3, 4), (4, 5)] {
//!     g.add_edge(u, v);
//! }
//! let p = Partitioning::from_assignment(vec![0, 0, 0, 1, 1, 1], 2);
//! let router = QueryRouter::new(&g, &p);
//!
//! // A 2-hop traversal anchored at vertex 0 stays inside partition 0.
//! let outcome = router.answer(&Query::KHop { anchor: 0, k: 2 });
//! assert_eq!(outcome.hops, 2);
//! assert_eq!(outcome.local_hops, 2);
//!
//! // A deterministic round of mixed queries, reproducible at any
//! // parallelism.
//! let workload = QueryWorkload::new(QueryMix::Uniform, 32, 7);
//! let stats = router.serve_round(&workload, 0, 4);
//! assert_eq!(stats, router.serve_round(&workload, 0, 1));
//! ```

pub mod query;
pub mod router;
pub mod stats;
pub mod workload;

pub use query::{Query, QueryKind, QueryOutcome};
pub use router::{QueryRouter, TraversalScratch};
pub use stats::ServeStats;
pub use workload::{QueryMix, QueryWorkload};
