//! The per-vertex migration decision kernel (paper §2.1).
//!
//! "At each iteration, a vertex will decide to migrate to the partition
//! where the highest number of its neighbouring vertices are. [...] Since
//! migrating a vertex potentially introduces an overhead, the heuristic will
//! preferentially choose to stay in the current partition if it is one of
//! the candidates."
//!
//! The kernel is shared verbatim between the logical-level partitioner in
//! this crate and the distributed Pregel integration in `apg-pregel`, so
//! the two realisations cannot drift apart.
//!
//! # The tally
//!
//! One evaluation is the whole per-iteration cost of a vertex, so the
//! kernel pays for the neighbour labels it reads and nothing else: two
//! walks of them, at every `k`.
//!
//! The first walk tallies with no data-dependent branch:
//! `c = counts[p] + 1; counts[p] = c; best = best.max(c)`. Counts only
//! grow, so the largest value ever *written* is the largest count at the
//! end of the walk — the running maximum **is** the best count, with no
//! list of touched labels to keep or scan. *Stay* is then one more read
//! (`counts[current] == best`, which an isolated vertex satisfies with
//! zeros).
//!
//! The second walk returns the histogram to all zeros. For a vertex that
//! stays it does only that, branch-free. A vertex that migrates recovers
//! its candidates on the way: each label's count is read and zeroed in one
//! step, so the first occurrence of a label sees its full count and every
//! later one sees zero.
//!
//! Nothing scans the `k`-length histogram and nothing selects a different
//! path for small or large `k`: cost is `O(degree)`.
//!
//! # Tie order is a contract
//!
//! Candidates are the best-count partitions **in order of first
//! occurrence** among the neighbour labels, and a tie among several draws
//! one `rng.gen_range(0..candidates.len())` — a unique best draws nothing.
//! Which partition a given draw selects is therefore a function of the
//! neighbour order, and every recorded history depends on it.
//! `apg_core::reference::decide_touched_list` states the same rule with an
//! explicit touched list; `tests/kernel_equivalence.rs` holds this kernel
//! to it, decision for decision and draw for draw.

use rand::Rng;

use apg_partition::PartitionId;

/// Outcome of one vertex's migration evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationDecision {
    /// Remain in the current partition.
    Stay,
    /// Request migration to the given partition.
    Migrate(PartitionId),
}

/// Reusable candidate-selection state.
///
/// Holds a `k`-length label histogram (all zeros between calls) and a
/// candidate buffer, so evaluating a vertex costs `O(degree)` — two walks
/// of its neighbour labels — with no allocation and no `O(k)` step, the
/// property that makes the heuristic "efficiently computed" at scale
/// (paper §2). See the [module docs](self) for the tally and the tie-order
/// contract.
///
/// # Example
///
/// ```
/// use apg_core::{DecisionKernel, MigrationDecision};
/// use rand::SeedableRng;
///
/// let mut kernel = DecisionKernel::new(3, false);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// // Vertex in partition 0 with neighbours 2:1 in favour of partition 2.
/// let decision = kernel.decide(0, [2, 2, 1].into_iter(), &mut rng);
/// assert_eq!(decision, MigrationDecision::Migrate(2));
/// ```
#[derive(Debug, Clone)]
pub struct DecisionKernel {
    counts: Vec<u32>,
    candidates: Vec<PartitionId>,
    count_self: bool,
}

impl DecisionKernel {
    /// Creates a kernel for `k` partitions.
    ///
    /// `count_self` implements the literal `Γ(v,t) = {v} ∪ N(v)` reading of
    /// the paper's candidate definition (see
    /// [`crate::AdaptiveConfig::count_self`]).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: PartitionId, count_self: bool) -> Self {
        assert!(k > 0, "need at least one partition");
        DecisionKernel {
            counts: vec![0; k as usize],
            candidates: Vec::with_capacity(k as usize),
            count_self,
        }
    }

    /// Evaluates the greedy heuristic for one vertex.
    ///
    /// `neighbor_partitions` yields the current partition of each neighbour
    /// (duplicates expected — one entry per neighbour); it is walked
    /// twice, so it must be cheap to clone (a mapped `slice::Iter` is).
    /// Ties among the highest-count partitions are broken uniformly at
    /// random over the candidates in first-occurrence order, except that
    /// the current partition always wins ties ("preferentially choose to
    /// stay") and then nothing is drawn.
    pub fn decide<R: Rng, I>(
        &mut self,
        current: PartitionId,
        neighbor_partitions: I,
        rng: &mut R,
    ) -> MigrationDecision
    where
        I: Iterator<Item = PartitionId> + Clone,
    {
        let counts = self.counts.as_mut_slice();
        // Counts only grow, so the largest value written is the best count.
        let mut best = 0u32;
        for p in neighbor_partitions.clone() {
            let c = counts[p as usize] + 1;
            counts[p as usize] = c;
            best = best.max(c);
        }
        if self.count_self {
            let c = counts[current as usize] + 1;
            counts[current as usize] = c;
            best = best.max(c);
        }

        // An isolated vertex has `best == 0 == counts[current]`: cand(v, t)
        // degenerates to the current partition (v ∈ Γ(v, t)).
        let decision = if counts[current as usize] == best {
            for p in neighbor_partitions {
                counts[p as usize] = 0;
            }
            MigrationDecision::Stay
        } else {
            // Read-and-zero: a label's first occurrence sees its full count,
            // later ones see zero, so candidates come out de-duplicated and
            // in first-occurrence order. `current` is not among them, so the
            // self-count (tallied last) needs no place in that order.
            self.candidates.clear();
            for p in neighbor_partitions {
                let c = counts[p as usize];
                counts[p as usize] = 0;
                if c == best {
                    self.candidates.push(p);
                }
            }
            let pick = if self.candidates.len() == 1 {
                self.candidates[0]
            } else {
                self.candidates[rng.gen_range(0..self.candidates.len())]
            };
            MigrationDecision::Migrate(pick)
        };
        counts[current as usize] = 0;
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn migrates_to_majority_partition() {
        let mut k = DecisionKernel::new(4, false);
        let d = k.decide(0, [1, 1, 1, 2].into_iter(), &mut rng());
        assert_eq!(d, MigrationDecision::Migrate(1));
    }

    #[test]
    fn prefers_staying_on_tie() {
        let mut k = DecisionKernel::new(3, false);
        // 2 neighbours home, 2 in partition 1: tie -> stay.
        let d = k.decide(0, [0, 0, 1, 1].into_iter(), &mut rng());
        assert_eq!(d, MigrationDecision::Stay);
    }

    #[test]
    fn isolated_vertex_stays() {
        let mut k = DecisionKernel::new(3, false);
        assert_eq!(
            k.decide(2, std::iter::empty(), &mut rng()),
            MigrationDecision::Stay
        );
    }

    #[test]
    fn random_tie_break_covers_all_candidates() {
        let mut k = DecisionKernel::new(4, false);
        let mut seen = std::collections::HashSet::new();
        let mut r = rng();
        for _ in 0..200 {
            match k.decide(0, [1, 1, 2, 2, 3, 3].into_iter(), &mut r) {
                MigrationDecision::Migrate(p) => {
                    seen.insert(p);
                }
                MigrationDecision::Stay => panic!("majority is elsewhere"),
            }
        }
        assert_eq!(seen, [1, 2, 3].into_iter().collect());
    }

    #[test]
    fn count_self_adds_stickiness() {
        // One neighbour elsewhere: without self-count we chase it...
        let mut without = DecisionKernel::new(2, false);
        assert_eq!(
            without.decide(0, [1].into_iter(), &mut rng()),
            MigrationDecision::Migrate(1)
        );
        // ...with self-count it is a tie and we stay.
        let mut with = DecisionKernel::new(2, true);
        assert_eq!(
            with.decide(0, [1].into_iter(), &mut rng()),
            MigrationDecision::Stay
        );
    }

    #[test]
    fn scratch_state_resets_between_calls() {
        let mut k = DecisionKernel::new(3, false);
        let _ = k.decide(0, [1, 1].into_iter(), &mut rng());
        // A second call must not see counts from the first.
        let d = k.decide(0, [2].into_iter(), &mut rng());
        assert_eq!(d, MigrationDecision::Migrate(2));
    }
}
