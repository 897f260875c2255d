//! Graph algorithms used by the evaluation: connected components, degree
//! statistics and clustering coefficients.

mod components;
mod stats;

pub use components::{connected_components, Components};
pub use stats::{degree_stats, global_clustering, DegreeStats};
