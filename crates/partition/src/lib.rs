//! Partition state, quality metrics and initial partitioning strategies.
//!
//! The paper (§4.2.1) evaluates the adaptive heuristic starting from four
//! initial strategies, all implemented here:
//!
//! * **HSH** — hash partitioning, the default of most large-scale graph
//!   processing systems (`H(v) mod k`).
//! * **RND** — pseudorandom balanced assignment.
//! * **DGR** — stream-based *linear deterministic greedy* (Stanton & Kliot,
//!   KDD 2012).
//! * **MNN** — stream-based *minimum number of neighbours* heuristic
//!   (Prabhakaran et al., USENIX ATC 2012).
//!
//! Quality is measured exactly as in the paper: the **cut ratio** — cut
//! edges normalised by total edges — plus balance metrics.
//!
//! # Example
//!
//! ```
//! use apg_graph::gen;
//! use apg_partition::{cut_ratio, CapacityModel, InitialStrategy, Partitioning};
//!
//! let g = gen::mesh3d(10, 10, 10);
//! let caps = CapacityModel::vertex_balanced(1000, 9, 1.10);
//! let p = InitialStrategy::Hash.assign(&g, &caps, 42);
//! assert!(cut_ratio(&g, &p) > 0.5); // hash partitioning cuts most edges
//! ```

pub mod capacity;
pub mod initial;
pub mod metrics;
pub mod partitioning;

pub use capacity::CapacityModel;
pub use initial::InitialStrategy;
pub use metrics::{cut_edges, cut_edges_sharded, cut_ratio, edge_imbalance, vertex_imbalance};
pub use partitioning::{PartitionId, Partitioning};
