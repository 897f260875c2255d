//! A Pregel-like BSP graph-processing engine with the paper's adaptive
//! partitioning extension (§3).
//!
//! The engine reproduces the architecture of Figure 2: user applications
//! are [`VertexProgram`]s running on the Pregel API; the **graph
//! partitioning algorithm runs in the background** through an extension of
//! that API, migrating vertices while user computation proceeds. Two
//! departures from classic Pregel, both taken from the paper, are
//! supported: computation can run continuously after the graph is loaded,
//! and vertices/edges can be injected or removed from a stream between
//! supersteps ([`Engine::apply_batch`] takes the workspace-wide
//! [`apg_graph::UpdateBatch`], so any `StreamSource` batch feeds the engine
//! as it is).
//!
//! This is the same system as the logical-level partitioner, not a second
//! one: the engine's topology is an [`apg_graph::DynGraph`] and its routing
//! table an [`apg_partition::Partitioning`] ([`Engine::graph`],
//! [`Engine::partitioning`]); the decision kernel, quota table and
//! newborn placement ([`apg_core::place_new_vertex`]) are `apg-core`'s.
//! What this crate owns is the BSP protocol around them.
//!
//! The implementation pitfalls of §3 are reproduced faithfully:
//!
//! * **Deferred vertex migration** — a vertex that decides to migrate in
//!   superstep `t` keeps computing in place during `t + 1` while new
//!   messages are already routed to its destination; its state moves at the
//!   `t + 1` boundary. No message is lost and no extra synchronisation is
//!   introduced (Figure 3, bottom).
//! * **Worker-to-worker capacity messaging** — migration quotas are drawn
//!   against *predicted* capacities `C^{t+1}(i) = C^t(i) − V_out + V_in`:
//!   decided-but-in-flight vertices already count at their destination.
//!
//! Workers are OS threads (one per partition). Where the paper ran on a
//! 63-blade cluster, this engine runs on one machine and converts observed
//! message locality into time through an explicit [`CostModel`] — the
//! substitution DESIGN.md documents: relative superstep times are driven by
//! remote-message volume, which depends only on the partitioning.
//!
//! # Example
//!
//! ```
//! use apg_pregel::{EngineBuilder, VertexProgram, Context};
//! use apg_graph::gen;
//!
//! /// Count each vertex's degree via one round of messages.
//! struct DegreeCount;
//! impl VertexProgram for DegreeCount {
//!     type Value = u32;
//!     type Message = ();
//!     fn compute(&self, ctx: &mut Context<'_, '_, u32, ()>, messages: &[()]) {
//!         if ctx.superstep() == 0 {
//!             ctx.send_to_neighbors(());
//!         } else {
//!             *ctx.value_mut() = messages.len() as u32;
//!             ctx.vote_to_halt();
//!         }
//!     }
//! }
//!
//! let g = gen::mesh3d(4, 4, 4);
//! let mut engine = EngineBuilder::new(4).build(&g, DegreeCount);
//! engine.run(2);
//! assert_eq!(engine.vertex_value(0), Some(&3)); // corner vertex
//! ```

pub mod cost;
pub mod engine;
pub mod fault;
pub mod migrate;
pub mod program;
pub mod worker;

pub use cost::{CostModel, SuperstepReport};
pub use engine::{Engine, EngineBuilder};
pub use fault::{FaultEvent, FaultPlan};
pub use migrate::MigrationController;
pub use program::{Context, VertexProgram};
pub use worker::WorkerId;
