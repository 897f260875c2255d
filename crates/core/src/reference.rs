//! Reference iteration drivers: what the equivalence suites compare
//! [`AdaptivePartitioner::iterate`] against. The `sweep` bench also times
//! [`iterate_exhaustive`], as a measured baseline only: it checks nothing.
//!
//! Each driver composes the same phases as
//! [`AdaptivePartitioner::iterate_profiled`] and swaps **exactly one** for
//! a deliberately naive implementation that shares nothing with the
//! mechanism it checks:
//!
//! * [`iterate_exhaustive`] — the work list is every slot range of the
//!   plan and the decide phase visits every live vertex in it, never
//!   consulting the active set to choose what to visit;
//! * [`iterate_serial_apply`] — the admitted migrants move one at a time,
//!   in admission order, each through `apply_move`.
//!
//! Both must produce histories byte-identical to production's
//! (`tests/active_set_sweep.rs`, `tests/apply_equivalence.rs`).
//!
//! [`decide_touched_list`] is the same idea one level down: the decision
//! kernel as it was before [`DecisionKernel`](crate::DecisionKernel)
//! stopped keeping a touched list, which `tests/kernel_equivalence.rs`
//! holds the production kernel to, decision for decision and draw for draw.
//!
//! Nothing here is reachable from a production call path or from a
//! configuration.

use rand::Rng;

use apg_graph::{Graph, VertexId};
use apg_partition::PartitionId;

use super::{AdaptivePartitioner, IterationStats, SweepProfile};
use crate::MigrationDecision;

/// One iteration with the exhaustive decision sweep: every live vertex is
/// evaluated, active or not. Because randomness is keyed per
/// `(seed, vertex, iteration)` and skipped vertices provably decide *Stay*,
/// the history equals [`AdaptivePartitioner::iterate`]'s.
pub fn iterate_exhaustive(p: &mut AdaptivePartitioner) -> (IterationStats, SweepProfile) {
    p.iterate_with(
        |p, profile| {
            let plan = p.shard_plan();
            p.scratch.shards.extend(plan.ranges().enumerate());
            p.decide(profile, p.config().parallelism, |frozen, slots, eval| {
                for v in frozen.graph.live_in(slots) {
                    eval.evaluate(v);
                }
            })
        },
        AdaptivePartitioner::apply_pending_sharded,
    )
}

/// One iteration with the serial apply: the admitted set is committed by
/// the per-migrant `apply_move` loop instead of the sharded fan-out. The
/// resulting state equals [`AdaptivePartitioner::iterate`]'s.
pub fn iterate_serial_apply(p: &mut AdaptivePartitioner) -> (IterationStats, SweepProfile) {
    p.iterate_with(AdaptivePartitioner::decide_active, |p| {
        for i in 0..p.pending.len() {
            let (v, to) = p.pending[i];
            apply_move(p, v, to);
        }
    })
}

/// Moves one vertex, updating the cut edge by edge against the labels as
/// they stand *now* (earlier migrants of the same iteration already moved)
/// and re-dirtying the migrant's neighbourhood.
fn apply_move(p: &mut AdaptivePartitioner, v: VertexId, to: PartitionId) {
    let from = p.partitioning.partition_of(v);
    if from == to {
        return;
    }
    for &w in p.graph.neighbors(v) {
        let pw = p.partitioning.partition_of(w);
        if pw == from {
            p.cut += 1; // was internal, becomes cut
        } else if pw == to {
            p.cut -= 1; // was cut, becomes internal
        }
        p.marks.neighbour_relabelled(w as usize);
    }
    p.marks.mutated(v as usize);
    let deg = p.graph.degree(v);
    p.degree_mass[from as usize] -= deg;
    p.degree_mass[to as usize] += deg;
    p.partitioning.move_vertex(v, to);
}

/// The greedy rule with an explicit touched list: labels are recorded in
/// order of first occurrence (`current` last, when `count_self` adds it),
/// the best count is a scan over them, and the candidates are the touched
/// labels at that count, in that order. Allocates its `k`-length histogram
/// per call — an oracle, not a kernel.
pub fn decide_touched_list<R: Rng, I>(
    k: PartitionId,
    count_self: bool,
    current: PartitionId,
    neighbor_partitions: I,
    rng: &mut R,
) -> MigrationDecision
where
    I: Iterator<Item = PartitionId>,
{
    let mut counts = vec![0u32; k as usize];
    let mut touched: Vec<PartitionId> = Vec::new();
    for p in neighbor_partitions {
        if counts[p as usize] == 0 {
            touched.push(p);
        }
        counts[p as usize] += 1;
    }
    if count_self {
        if counts[current as usize] == 0 {
            touched.push(current);
        }
        counts[current as usize] += 1;
    }

    let mut best = 0u32;
    for &p in &touched {
        best = best.max(counts[p as usize]);
    }
    if best == 0 {
        // Isolated vertex: cand(v, t) degenerates to the current
        // partition (v ∈ Γ(v, t)).
        MigrationDecision::Stay
    } else if counts[current as usize] == best {
        MigrationDecision::Stay
    } else {
        let mut candidates = Vec::new();
        for &p in &touched {
            if counts[p as usize] == best {
                candidates.push(p);
            }
        }
        let pick = if candidates.len() == 1 {
            candidates[0]
        } else {
            candidates[rng.gen_range(0..candidates.len())]
        };
        MigrationDecision::Migrate(pick)
    }
}
