//! Graph substrate for the adaptive-partitioning reproduction.
//!
//! This crate provides everything the partitioning layers sit on:
//!
//! * [`CsrGraph`] — an immutable compressed-sparse-row graph used for the
//!   static experiments (Figures 1, 4, 5, 6 of the paper).
//! * [`DynGraph`] — a mutable adjacency-list graph supporting vertex/edge
//!   insertion and removal, used for the dynamic experiments (Figures 7–9).
//!   Its adjacency lives in an [`AdjPool`] — one flat slab of neighbour
//!   entries with per-vertex spans — so mutable graphs read with CSR-like
//!   locality.
//! * [`delta`] — the canonical mutation event model: [`GraphDelta`] events
//!   grouped into [`UpdateBatch`]es with deterministic application and a
//!   replayable [`DeltaLog`]; every mutation producer in the workspace
//!   speaks this vocabulary.
//! * [`diff`] — structural diffs between two [`DynGraph`] states
//!   ([`GraphDiff`]), the graph slice of incremental checkpoints:
//!   O(changed) to compute, validated before application.
//! * [`gen`] — synthetic generators: 3-D finite-element meshes, 2-D
//!   triangulated meshes, Holme–Kim power-law-cluster graphs, preferential
//!   attachment, Erdős–Rényi, and the forest-fire expansion model the paper
//!   uses to mimic dynamic growth.
//! * [`algo`] — connected components, degree statistics, clustering.
//! * [`datasets`] — the named datasets of the paper's Table 1 (synthetic
//!   stand-ins for the real-world graphs; each records its substitution).
//!
//! # Example
//!
//! ```
//! use apg_graph::{gen, Graph};
//!
//! // The paper's `64kcube` dataset: a 40x40x40 FEM mesh.
//! let g = gen::mesh3d(40, 40, 40);
//! assert_eq!(g.num_vertices(), 64_000);
//! assert_eq!(g.num_edges(), 187_200);
//! ```

pub mod adj_pool;
pub mod algo;
pub mod csr;
pub mod datasets;
pub mod delta;
pub mod diff;
pub mod dynamic;
pub mod gen;
pub mod persist;
pub mod types;

pub use adj_pool::AdjPool;
pub use csr::CsrGraph;
pub use delta::{ApplyReport, DeltaLog, GraphDelta, UpdateBatch};
pub use diff::{GraphDiff, SlotDiff};
pub use dynamic::DynGraph;
pub use types::{EdgeList, Graph, VertexId};
