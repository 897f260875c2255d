//! The production decision kernel against its oracle.
//!
//! `DecisionKernel::decide` tallies in one branch-free pass and recovers
//! the tie order only for a vertex that migrates;
//! `reference::decide_touched_list` keeps the explicit touched list the
//! kernel used to have. For any input the two must return the same
//! decision **and leave the RNG in the same state** — every recorded
//! history depends on which draws a vertex consumes — a *Stay* must report
//! the same stay margin (the partitioner skips a retired vertex on it), and
//! the kernel must hand the next call a clean histogram.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use apg::core::reference::decide_touched_list;
use apg::core::{DecisionKernel, MigrationDecision};
use apg::partition::PartitionId;

const KS: [PartitionId; 6] = [1, 2, 9, 64, 4096, 65535];

/// One evaluation on `kernel` and on the oracle from equal RNG states:
/// same decision, same stay margin, same next draw. Returns the decision
/// and whether the RNG was drawn from.
fn check(
    kernel: &mut DecisionKernel,
    k: PartitionId,
    count_self: bool,
    current: PartitionId,
    labels: &[PartitionId],
    seed: u64,
) -> (MigrationDecision, bool) {
    let (mut rng, mut oracle_rng) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
    let got = kernel.decide(current, labels.iter().copied(), &mut rng);
    let (want, want_margin) = decide_touched_list(
        k,
        count_self,
        current,
        labels.iter().copied(),
        &mut oracle_rng,
    );
    let ctx = || format!("k={k} count_self={count_self} current={current} labels={labels:?}");
    assert_eq!(got, want, "decision differs from the oracle: {}", ctx());
    let got_margin = (got == MigrationDecision::Stay).then(|| kernel.stay_margin());
    assert_eq!(got_margin, want_margin, "stay margin differs: {}", ctx());
    let next = rng.next_u64();
    assert_eq!(next, oracle_rng.next_u64(), "RNG state diverged: {}", ctx());
    (got, next != StdRng::seed_from_u64(seed).next_u64())
}

/// The shapes the greedy rule turns on, at every `k`, all through **one**
/// kernel per `(k, count_self)`: the labels overlap from shape to shape and
/// most sit one count away from a tie, so a count left behind by one
/// evaluation changes the next.
#[test]
fn rule_shapes_match_the_oracle_at_every_k() {
    use MigrationDecision::{Migrate, Stay};
    for k in KS {
        // Four labels spread over the range (collapsing onto fewer when k
        // is small): `home` and three foreign ones.
        let home = k / 2;
        let f = [0, (k - 1) / 3, k - 1];
        for count_self in [false, true] {
            let mut kernel = DecisionKernel::new(k, count_self);
            let seed = 0xA5 ^ u64::from(k);
            let mut run =
                |labels: &[PartitionId]| check(&mut kernel, k, count_self, home, labels, seed);

            assert_eq!(run(&[]), (Stay, false), "isolated");
            assert_eq!(run(&[home; 7]), (Stay, false), "all neighbours at home");
            assert_eq!(run(&[home; 300]), (Stay, false), "a saturated margin");
            if k >= 2 {
                let away = if f[0] == home { f[2] } else { f[0] };
                assert_eq!(run(&[away; 5]), (Migrate(away), false), "one foreign label");
                // 0:2 migrates even with the self-count — unless the
                // previous call left home's self-count behind.
                assert_eq!(run(&[away; 2]), (Migrate(away), false));
                // 1:1 without the self-count chases the neighbour; the
                // self-count makes it a tie, which home wins.
                let (d, drew) = run(&[away]);
                assert_eq!(d, if count_self { Stay } else { Migrate(away) });
                assert!(!drew);
                // 2:3 against home: the self-count creates the tie...
                let (d, _) = run(&[home, away, home, away, away]);
                assert_eq!(d, if count_self { Stay } else { Migrate(away) });
                // ...and breaks the 2:2 one, which home wins either way.
                assert_eq!(run(&[away, home, home, away]).0, Stay);
            }
            if k >= 9 {
                // (the three foreign labels and home are all different)
                // A tie including home: stay, no draw.
                let tie_with_home = [f[0], home, f[1], home, f[0], f[1]];
                assert_eq!(run(&tie_with_home), (Stay, false));
                // Two foreign labels tie above home, self-count or not.
                let (d, drew) = run(&[f[2], home, f[0], f[2], f[0], f[2], f[0]]);
                assert!(matches!(d, Migrate(p) if p == f[2] || p == f[0]));
                assert!(drew, "two foreign labels tie for best");
                // A tie among three foreign labels, first seen in the
                // order f2, f0, f1.
                let (d, drew) = run(&[f[2], f[0], f[1], f[1], f[2], f[0]]);
                assert!(matches!(d, Migrate(p) if f.contains(&p)));
                assert!(drew, "three foreign labels tie for best");
            }
            // Every label distinct (as far as k allows), home not among
            // them unless the self-count adds it.
            let distinct: Vec<PartitionId> = (0..k.min(300)).filter(|&p| p != home).collect();
            let (d, drew) = run(&distinct);
            match (distinct.len(), count_self) {
                (0, _) | (_, true) => assert_eq!((d, drew), (Stay, false)),
                (1, false) => assert_eq!((d, drew), (Migrate(distinct[0]), false)),
                (_, false) => assert!(matches!(d, Migrate(_)) && drew),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random inputs, two evaluations through one kernel: each equals the
    /// stateless oracle's decision and draw, so the second saw clean counts.
    /// Labels come from a palette of 1..=5 values (ties and near-ties) or
    /// from the whole range (mostly distinct at large `k`).
    #[test]
    fn kernel_matches_the_touched_list_oracle(
        shape in (0usize..KS.len(), 0u8..2, 0usize..6),
        ids in (0u16..u16::MAX, 0u16..u16::MAX, 0u16..u16::MAX),
        seed in 0u64..u64::MAX,
        first in proptest::collection::vec(0u16..u16::MAX, 0..301),
        second in proptest::collection::vec(0u16..u16::MAX, 0..301),
    ) {
        let (k_index, count_self, palette) = (shape.0, shape.1 == 1, shape.2);
        let (offset, currents) = (ids.0, (ids.1, ids.2));
        let k = KS[k_index];
        // A palette of `span` consecutive labels starting at `offset`; the
        // vertex itself sits in it or just beside it.
        let span = if palette == 0 { k } else { (palette as PartitionId).min(k) };
        let within = |raw: u16, span: u32| ((u32::from(offset) + u32::from(raw) % span) % u32::from(k)) as PartitionId;
        let label = |raw: u16| within(raw, u32::from(span));
        let home = |raw: u16| within(raw, u32::from(span) + 1);

        let mut kernel = DecisionKernel::new(k, count_self);
        for (raw_current, raws, seed) in [(currents.0, &first, seed), (currents.1, &second, !seed)] {
            let labels: Vec<PartitionId> = raws.iter().map(|&r| label(r)).collect();
            check(&mut kernel, k, count_self, home(raw_current), &labels, seed);
        }
    }
}
