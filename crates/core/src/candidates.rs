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
//! The second walk returns the histogram to all zeros, reading each count
//! as it clears it, so the first occurrence of a label sees its full count
//! and every later one sees zero. A vertex that stays takes the largest
//! *foreign* count on the way, branch-free, and reports its **stay
//! margin** — home count (plus itself, under `count_self`) minus the best
//! foreign count, saturated to a `u8`
//! ([`DecisionKernel::stay_margin`]). The partitioner keeps it for a
//! retired vertex: a neighbourhood event can shrink the margin by at most
//! a known amount, so the vertex needs no new walk until the sum of those
//! amounts exceeds it. A vertex that migrates recovers its candidates on
//! the same walk; the partitioner keeps
//! them for a proposer that quota refuses, whose next evaluation is then a
//! draw over that list and no walk at all (`pick_candidate`).
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
//! to it, decision for decision, draw for draw and margin for margin.

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
/// Holds a `k`-length label histogram (all zeros between calls), a
/// candidate buffer and the last stay margin, so evaluating a vertex costs
/// `O(degree)` — two walks of its neighbour labels — with no allocation
/// and no `O(k)` step, the
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
    margin: u8,
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
            margin: 0,
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
        let home = std::mem::take(&mut counts[current as usize]);
        if home == best {
            // Read-and-zero, home already zeroed: the largest count taken
            // is the best foreign one. `home` is the best, so the margin is
            // never negative.
            let mut foreign = 0u32;
            for p in neighbor_partitions {
                foreign = foreign.max(std::mem::take(&mut counts[p as usize]));
            }
            self.margin = (home - foreign).min(u32::from(u8::MAX)) as u8;
            MigrationDecision::Stay
        } else {
            // Read-and-zero: a label's first occurrence sees its full count,
            // later ones see zero, so candidates come out de-duplicated and
            // in first-occurrence order. `current` is not among them, so the
            // self-count (tallied last) needs no place in that order.
            self.candidates.clear();
            for p in neighbor_partitions {
                let c = std::mem::take(&mut counts[p as usize]);
                if c == best {
                    self.candidates.push(p);
                }
            }
            MigrationDecision::Migrate(pick_candidate(&self.candidates, rng))
        }
    }

    /// The stay margin of the last [`decide`](Self::decide) that returned
    /// *Stay*: home count (plus the vertex itself under `count_self`) minus
    /// the best foreign count, saturated at `u8::MAX`. A saturated value
    /// is a lower bound on the true margin, which is all its users need.
    pub fn stay_margin(&self) -> u8 {
        self.margin
    }

    /// The candidates of the last [`decide`](Self::decide) that returned
    /// *Migrate*: the best-count foreign partitions in order of first
    /// occurrence — the list the decision drew from.
    pub(crate) fn candidates(&self) -> &[PartitionId] {
        &self.candidates
    }
}

/// The tie-break over a migrating vertex's candidates: the only one when
/// there is one (no draw), otherwise one `gen_range` over the list. The
/// kernel and the partitioner's candidate memo both pick through here, so
/// a memo draws exactly what a fresh walk would.
///
/// # Panics
///
/// Panics if `candidates` is empty.
#[inline]
pub(crate) fn pick_candidate<R: Rng>(candidates: &[PartitionId], rng: &mut R) -> PartitionId {
    if candidates.len() == 1 {
        candidates[0]
    } else {
        candidates[rng.gen_range(0..candidates.len())]
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
    fn stay_margin_is_home_minus_best_foreign() {
        let mut k = DecisionKernel::new(4, false);
        // Home 4, foreign 2 and 1.
        let d = k.decide(0, [0, 1, 0, 2, 1, 0, 0].into_iter(), &mut rng());
        assert_eq!((d, k.stay_margin()), (MigrationDecision::Stay, 2));
        // A tie with home stays on a zero margin.
        assert_eq!(
            k.decide(3, [3, 2, 2, 3].into_iter(), &mut rng()),
            MigrationDecision::Stay
        );
        assert_eq!(k.stay_margin(), 0);
        // The self-count is part of home; an isolated vertex has it alone.
        let mut with = DecisionKernel::new(2, true);
        assert_eq!(
            with.decide(1, std::iter::empty(), &mut rng()),
            MigrationDecision::Stay
        );
        assert_eq!(with.stay_margin(), 1);
        // Saturation keeps a lower bound.
        let d = with.decide(0, std::iter::repeat_n(0, 400), &mut rng());
        assert_eq!((d, with.stay_margin()), (MigrationDecision::Stay, u8::MAX));
    }

    #[test]
    fn candidates_are_the_tied_labels_in_first_occurrence_order() {
        let mut k = DecisionKernel::new(5, false);
        let d = k.decide(0, [3, 1, 4, 1, 3, 0, 4].into_iter(), &mut rng());
        assert!(matches!(d, MigrationDecision::Migrate(_)));
        assert_eq!(k.candidates(), &[3, 1, 4]);
        // The same draw picks the same candidate through the shared rule.
        let fresh = k.decide(0, [3, 1, 4, 1, 3, 0, 4].into_iter(), &mut rng());
        assert_eq!(
            fresh,
            MigrationDecision::Migrate(pick_candidate(&[3, 1, 4], &mut rng()))
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
