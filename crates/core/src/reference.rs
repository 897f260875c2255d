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
//!   plan and the decide phase walks every live vertex in it, never
//!   consulting the active set to choose what to visit nor a candidate
//!   memo to skip a walk;
//! * [`iterate_serial_apply`] — the admitted migrants move one at a time,
//!   in admission order, each through `apply_move`.
//!
//! Both must produce histories byte-identical to production's
//! (`tests/active_set_sweep.rs`, `tests/apply_equivalence.rs`).
//!
//! [`decide_touched_list`] is the same idea one level down: the decision
//! kernel as it was before [`DecisionKernel`](crate::DecisionKernel)
//! stopped keeping a touched list, which `tests/kernel_equivalence.rs`
//! holds the production kernel to, decision for decision, draw for draw
//! and stay margin for stay margin.
//!
//! Nothing here is reachable from a production call path or from a
//! configuration.

use rand::Rng;

use apg_graph::{Graph, VertexId};
use apg_partition::PartitionId;

use super::{AdaptivePartitioner, IterationStats, SweepProfile};
use crate::marks::Relabels;
use crate::MigrationDecision;

/// One iteration with the exhaustive decision sweep: every live vertex is
/// walked, active or not, memo or not. Because randomness is keyed per
/// `(seed, vertex, iteration)`, skipped vertices provably decide *Stay* and
/// a memo draws what a walk would, the history equals
/// [`AdaptivePartitioner::iterate`]'s.
pub fn iterate_exhaustive(p: &mut AdaptivePartitioner) -> (IterationStats, SweepProfile) {
    p.iterate_with(
        |p, profile| {
            let plan = p.shard_plan();
            p.scratch.shards.extend(plan.ranges().enumerate());
            p.decide(profile, p.config().parallelism, |frozen, slots, eval| {
                for v in frozen.graph.live_in(slots) {
                    if let Some(mut rng) = eval.roll(v) {
                        eval.walk(v, &mut rng);
                    }
                }
            })
        },
        AdaptivePartitioner::apply_pending_sharded,
    )
}

/// One iteration with the serial apply: the admitted set is committed by
/// the per-migrant `apply_move` loop instead of the sharded fan-out, every
/// neighbour's relabel event recorded (none skipped) and the iteration's
/// events folded once at the end. The resulting state equals
/// [`AdaptivePartitioner::iterate`]'s.
pub fn iterate_serial_apply(p: &mut AdaptivePartitioner) -> (IterationStats, SweepProfile) {
    p.iterate_with(AdaptivePartitioner::decide_active, |p| {
        let reads = p.pending.iter().map(|&(v, _)| p.graph.degree(v)).sum();
        let mut relabels = Relabels::with_reads(reads, p.is_mass_move());
        for i in 0..p.pending.len() {
            let (v, to) = p.pending[i];
            apply_move(p, v, to, &mut relabels);
        }
        p.marks.neighbours_relabelled([&relabels]);
    })
}

/// Moves one vertex, updating the cut edge by edge against the labels as
/// they stand *now* (earlier migrants of the same iteration already moved),
/// marking the migrant and recording the relabel each neighbour saw.
fn apply_move(p: &mut AdaptivePartitioner, v: VertexId, to: PartitionId, relabels: &mut Relabels) {
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
        relabels.record(w, pw, from, to, || true);
    }
    p.marks.relabelled(v as usize);
    let deg = p.graph.degree(v);
    p.degree_mass[from as usize] -= deg;
    p.degree_mass[to as usize] += deg;
    p.partitioning.move_vertex(v, to);
}

/// The greedy rule with an explicit touched list: labels are recorded in
/// order of first occurrence (`current` last, when `count_self` adds it),
/// the best count is a scan over them, and the candidates are the touched
/// labels at that count, in that order. A *Stay* also returns its stay
/// margin — home count minus the best foreign touched count, saturated to
/// a `u8`. Allocates its `k`-length histogram per call — an oracle, not a
/// kernel.
pub fn decide_touched_list<R: Rng, I>(
    k: PartitionId,
    count_self: bool,
    current: PartitionId,
    neighbor_partitions: I,
    rng: &mut R,
) -> (MigrationDecision, Option<u8>)
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
    let home = counts[current as usize];
    if best == 0 || home == best {
        // (An isolated vertex: cand(v, t) degenerates to the current
        // partition, v ∈ Γ(v, t).)
        let foreign = touched
            .iter()
            .filter(|&&p| p != current)
            .map(|&p| counts[p as usize])
            .max()
            .unwrap_or(0);
        let margin = u8::try_from(home - foreign).unwrap_or(u8::MAX);
        (MigrationDecision::Stay, Some(margin))
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
        (MigrationDecision::Migrate(pick), None)
    }
}
