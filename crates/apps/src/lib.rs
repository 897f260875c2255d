//! Vertex programs for the paper's evaluation workloads.
//!
//! Each use case of §4.3 maps to one program:
//!
//! * [`HeartSim`] — the biomedical FEM simulation (Figure 7): a
//!   FitzHugh–Nagumo excitable-cell model on the 3-D heart mesh, with the
//!   compute cost of the paper's ">32 differential equations on one hundred
//!   variables" charged to the cost model.
//! * [`TunkRank`] — Twitter influence over the mention graph (Figure 8).
//! * [`MaxClique`] — the neighbour-list-exchange clique heuristic the paper
//!   runs on the CDR call graph (Figure 9), with its deliberately heavy
//!   messaging.
//! * [`PageRank`] — the classic ranking workload the paper's motivation
//!   cites (content ranking converging faster under good partitioning).
//! * [`ConnectedComponents`] — min-label propagation, used by tests and the
//!   quickstart example.

pub mod components;
pub mod heartsim;
pub mod maxclique;
pub mod pagerank;
pub mod tunkrank;

pub use components::ConnectedComponents;
pub use heartsim::{CellState, HeartSim};
pub use maxclique::MaxClique;
pub use pagerank::PageRank;
pub use tunkrank::TunkRank;
