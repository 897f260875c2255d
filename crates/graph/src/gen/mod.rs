//! Synthetic graph generators.
//!
//! These cover every graph family the paper evaluates on:
//!
//! * [`mesh3d`] — 3-D regular cubic FEM meshes ("modelling the electric
//!   connections between heart cells", paper §4.1). `mesh3d(40, 40, 40)` is
//!   the paper's `64kcube` (64 000 vertices, 187 200 edges) and
//!   `mesh3d(100, 100, 100)` its `1e6`.
//! * [`mesh2d_tri`] — 2-D triangulated meshes, stand-ins for the Walshaw
//!   archive graphs `3elt`/`4elt`.
//! * [`holme_kim`] — the power-law-cluster model the paper generates with
//!   networkX (`plc*` datasets).
//! * [`preferential_attachment`] — Barabási–Albert graphs used as
//!   degree-matched analogues of the real power-law graphs (wikivote,
//!   epinions, uk-2007-05).
//! * [`erdos_renyi`] — uniform random graphs for tests and ablations.
//! * [`forest_fire`] — the forest-fire expansion model used to mimic dynamic
//!   growth (paper §4.1 and Figure 7b).

mod fire;
mod mesh;
mod powerlaw;
mod random;

pub use fire::{forest_fire, ForestFireConfig};
pub use mesh::{mesh2d_tri, mesh3d, rect_mesh_dims};
pub use powerlaw::{holme_kim, preferential_attachment};
pub use random::erdos_renyi;
