//! The adaptive-partitioning extension: migration decisions, deferred
//! movement and capacity prediction (paper §3).
//!
//! The controller reuses the decision kernel and quota table from
//! `apg-core`, so the distributed realisation cannot diverge from the
//! logical-level algorithm. What this module adds is the *protocol*:
//!
//! * Decisions taken at superstep `t` are **published** (location table
//!   update) at the end of `t`, so messages produced during `t + 1` are
//!   routed to the new destination.
//! * The vertex state **physically moves** at the end of `t + 1` — the
//!   "migrating" state of Figure 3 — after it has received the messages
//!   that were addressed to its old location.
//! * Quotas are drawn against **predicted capacities**
//!   `C^{t+1}(i) = C^t(i) − V_out^{t+1}(i) + V_in^{t+1}(i)`: in-flight
//!   vertices count at their destination from the moment the migration is
//!   decided, which is exactly the information the paper shows each worker
//!   can assemble locally from the one-superstep-delayed capacity
//!   broadcasts.

use rand::rngs::StdRng;
use rand::Rng;

use apg_core::{AdaptiveConfig, DecisionKernel, MigrationDecision, QuotaTable};
use apg_graph::VertexId;
use apg_partition::CapacityModel;

use crate::worker::WorkerId;

/// A migration decided in superstep `t`, awaiting physical movement at the
/// end of `t + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InFlight {
    /// The migrating vertex.
    pub vertex: VertexId,
    /// Worker it is leaving.
    pub from: WorkerId,
    /// Worker it is joining.
    pub to: WorkerId,
}

/// Engine-side state of the background partitioning algorithm.
#[derive(Debug)]
pub struct MigrationController {
    config: AdaptiveConfig,
    /// Decisions published this superstep; they move at the next boundary.
    in_flight: Vec<InFlight>,
    /// Predicted partition loads (physical + in-flight deltas).
    predicted_sizes: Vec<usize>,
    seed: u64,
}

impl MigrationController {
    /// Creates a controller for `config.num_partitions` workers.
    pub fn new(config: AdaptiveConfig, seed: u64) -> Self {
        let k = config.num_partitions as usize;
        MigrationController {
            config,
            in_flight: Vec::new(),
            predicted_sizes: vec![0; k],
            seed,
        }
    }

    /// The adaptive configuration in force.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.config
    }

    /// Migrations currently in flight (decided, not yet moved).
    pub fn in_flight(&self) -> &[InFlight] {
        &self.in_flight
    }

    /// Synchronises predicted loads from physical vertex counts, then adds
    /// the in-flight deltas. Call at the start of each superstep.
    pub fn refresh_predictions(&mut self, physical_sizes: &[usize]) {
        self.predicted_sizes.clear();
        self.predicted_sizes.extend_from_slice(physical_sizes);
        for mig in &self.in_flight {
            self.predicted_sizes[mig.from as usize] -= 1;
            self.predicted_sizes[mig.to as usize] += 1;
        }
    }

    /// Builds this superstep's quota rows from predicted remaining
    /// capacities. Returns one [`QuotaTable`] per worker — each worker only
    /// consumes its own row `Q(i, ·)`, which is why no coordination is
    /// needed (paper §2.2).
    pub fn quotas(&self, caps: &CapacityModel) -> QuotaTable {
        let remaining: Vec<usize> = (0..self.config.num_partitions)
            .map(|p| caps.remaining(p, self.predicted_sizes[p as usize]))
            .collect();
        QuotaTable::new(self.config.quota_rule, &remaining)
    }

    /// Deterministic per-worker RNG for superstep `t` — independent of
    /// thread scheduling. Derived through the shared `apg-exec` stream
    /// derivation (worker id as the stream, superstep as the round), the
    /// same scheme the logical-level partitioner keys its shards with.
    pub fn worker_rng(&self, worker: WorkerId, superstep: usize) -> StdRng {
        apg_exec::stream_rng(self.seed, worker as u64, superstep as u64)
    }

    /// Fresh decision kernel for a worker thread.
    pub fn kernel(&self) -> DecisionKernel {
        DecisionKernel::new(self.config.num_partitions, self.config.count_self)
    }

    /// Evaluates one vertex's migration inside a worker thread, given the
    /// workers its neighbours are routed to.
    ///
    /// Returns the destination if the vertex decides to migrate *and* its
    /// quota row admits the move.
    pub fn evaluate_vertex(
        &self,
        kernel: &mut DecisionKernel,
        quota_row: &mut QuotaTable,
        rng: &mut StdRng,
        current: WorkerId,
        neighbor_parts: impl Iterator<Item = WorkerId> + Clone,
    ) -> Option<WorkerId> {
        if self.config.willingness < 1.0 && !rng.gen_bool(self.config.willingness) {
            return None;
        }
        match kernel.decide(current, neighbor_parts, rng) {
            MigrationDecision::Stay => None,
            MigrationDecision::Migrate(to) => {
                if quota_row.try_consume(current, to) {
                    Some(to)
                } else {
                    None
                }
            }
        }
    }

    /// Publishes a batch of decisions made during superstep `t`: the caller
    /// must update the location table so that superstep `t + 1` routes
    /// messages to the new destinations. Returns the batch that must
    /// *physically move* at the end of `t + 1` — i.e. the previously
    /// published batch.
    pub fn publish(&mut self, decided: Vec<InFlight>) -> Vec<InFlight> {
        std::mem::replace(&mut self.in_flight, decided)
    }

    /// Drops any in-flight migration of `vertex` (used when the vertex is
    /// removed from the graph while migrating).
    pub fn forget(&mut self, vertex: VertexId) {
        self.in_flight.retain(|m| m.vertex != vertex);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(k: u16) -> MigrationController {
        MigrationController::new(
            AdaptiveConfig::builder(k).willingness(1.0).build().unwrap(),
            3,
        )
    }

    #[test]
    fn predictions_count_in_flight_at_destination() {
        let mut c = controller(3);
        c.publish(vec![InFlight {
            vertex: 7,
            from: 0,
            to: 2,
        }]);
        c.refresh_predictions(&[10, 10, 10]);
        assert_eq!(c.predicted_sizes, vec![9, 10, 11]);
    }

    #[test]
    fn publish_swaps_batches() {
        let mut c = controller(2);
        let first = vec![InFlight {
            vertex: 1,
            from: 0,
            to: 1,
        }];
        assert!(c.publish(first.clone()).is_empty());
        let moved = c.publish(vec![]);
        assert_eq!(moved, first);
    }

    #[test]
    fn evaluate_vertex_respects_quota() {
        let c = controller(2);
        let caps = CapacityModel::vertex_balanced(4, 2, 1.0);
        let mut ctrl = controller(2);
        ctrl.refresh_predictions(&[4, 0]);
        let mut quota = ctrl.quotas(&caps);
        let mut kernel = c.kernel();
        let mut rng = c.worker_rng(0, 0);
        // A vertex at worker 0 whose three neighbours are all at worker 1.
        let neighbor_parts: [WorkerId; 3] = [1, 1, 1];
        // Quota from 0 -> 1 is C_rem(1)/(k-1) = 2/1 = 2: two admits, then deny.
        let mut admitted = 0;
        for _ in 0..5 {
            let parts = neighbor_parts.into_iter();
            if c.evaluate_vertex(&mut kernel, &mut quota, &mut rng, 0, parts)
                .is_some()
            {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 2);
    }

    #[test]
    fn worker_rng_differs_across_workers_and_steps() {
        let c = controller(2);
        let a: u64 = c.worker_rng(0, 0).gen();
        let b: u64 = c.worker_rng(1, 0).gen();
        let d: u64 = c.worker_rng(0, 1).gen();
        assert_ne!(a, b);
        assert_ne!(a, d);
        let a2: u64 = c.worker_rng(0, 0).gen();
        assert_eq!(a, a2, "same (worker, superstep) must reproduce");
    }
}
