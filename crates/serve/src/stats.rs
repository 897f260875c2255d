//! Per-round serving aggregates.

use serde::{Deserialize, Serialize};

use crate::query::{QueryKind, QueryOutcome};

/// Aggregate outcome of one served round.
///
/// Built by `QueryRouter::serve_round` as a sum of per-worker partials,
/// each a fold ([`ServeStats::absorb`]) over a contiguous range of the
/// round's queries. Every field but `round` and `wall_ms` is an integer sum
/// over queries, so the total does not depend on how the round was split:
/// it is a pure function of `(graph, assignment, workload, round)` —
/// parallelism never shows in it.
/// The one observational field, `wall_ms`, is excluded from equality (the
/// same convention as `apg-core`'s `TimelineStats`): two rounds compare
/// equal iff their deterministic fields agree.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct ServeStats {
    /// Which serve round this is (the streaming runner uses the batch
    /// index).
    pub round: u64,
    /// Queries served.
    pub queries: usize,
    /// Point lookups among them.
    pub lookups: usize,
    /// Neighborhood reads among them.
    pub neighborhoods: usize,
    /// K-hop traversals among them.
    pub khops: usize,
    /// Queries whose anchor was not a live vertex.
    pub misses: usize,
    /// Total traversal hops across all queries.
    pub hops: usize,
    /// Hops that stayed inside the anchor's partition.
    pub local_hops: usize,
    /// Total result vertices returned.
    pub vertices_reached: usize,
    /// Wall-clock serve time in milliseconds. Observational — ignored by
    /// `==`.
    pub wall_ms: f64,
}

impl ServeStats {
    /// Folds one query's outcome into the aggregate.
    pub fn absorb(&mut self, kind: QueryKind, outcome: &QueryOutcome) {
        self.queries += 1;
        match kind {
            QueryKind::VertexLookup => self.lookups += 1,
            QueryKind::Neighborhood => self.neighborhoods += 1,
            QueryKind::KHop => self.khops += 1,
        }
        if !outcome.found {
            self.misses += 1;
        }
        self.hops += outcome.hops;
        self.local_hops += outcome.local_hops;
        self.vertices_reached += outcome.result_size;
    }

    /// Adds another partial's counts into this one. `round` and `wall_ms`
    /// describe the round as a whole, not a share of its queries, and are
    /// left alone.
    pub fn merge(&mut self, partial: &ServeStats) {
        self.queries += partial.queries;
        self.lookups += partial.lookups;
        self.neighborhoods += partial.neighborhoods;
        self.khops += partial.khops;
        self.misses += partial.misses;
        self.hops += partial.hops;
        self.local_hops += partial.local_hops;
        self.vertices_reached += partial.vertices_reached;
    }

    /// Hops that crossed a partition boundary.
    pub fn remote_hops(&self) -> usize {
        self.hops - self.local_hops
    }

    /// Percentage of hops that stayed in the anchor's partition
    /// (100.0 when the round performed no hops).
    pub fn local_hop_pct(&self) -> f64 {
        if self.hops == 0 {
            100.0
        } else {
            100.0 * self.local_hops as f64 / self.hops as f64
        }
    }

    /// Mean traversal hops per served query (0.0 for an empty round).
    pub fn hops_per_query(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.hops as f64 / self.queries as f64
        }
    }

    /// Every field that must be identical across parallelism levels — the
    /// basis of `==`, excluding the wall-clock measurement.
    pub fn deterministic_fields(&self) -> [u64; 9] {
        [
            self.round,
            self.queries as u64,
            self.lookups as u64,
            self.neighborhoods as u64,
            self.khops as u64,
            self.misses as u64,
            self.hops as u64,
            self.local_hops as u64,
            self.vertices_reached as u64,
        ]
    }
}

impl PartialEq for ServeStats {
    fn eq(&self, other: &Self) -> bool {
        self.deterministic_fields() == other.deterministic_fields()
    }
}

impl Eq for ServeStats {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates_by_kind() {
        let mut s = ServeStats::default();
        s.absorb(
            QueryKind::VertexLookup,
            &QueryOutcome {
                found: true,
                result_size: 1,
                hops: 0,
                local_hops: 0,
            },
        );
        s.absorb(
            QueryKind::KHop,
            &QueryOutcome {
                found: true,
                result_size: 5,
                hops: 5,
                local_hops: 3,
            },
        );
        s.absorb(QueryKind::Neighborhood, &QueryOutcome::missing());
        assert_eq!(s.queries, 3);
        assert_eq!((s.lookups, s.neighborhoods, s.khops), (1, 1, 1));
        assert_eq!(s.misses, 1);
        assert_eq!((s.hops, s.local_hops, s.remote_hops()), (5, 3, 2));
        assert_eq!(s.vertices_reached, 6);
    }

    #[test]
    fn merging_partials_equals_one_fold() {
        let reached = |hops, local_hops| QueryOutcome {
            found: true,
            result_size: hops,
            hops,
            local_hops,
        };
        let outcomes = [
            (QueryKind::KHop, reached(5, 3)),
            (QueryKind::Neighborhood, QueryOutcome::missing()),
            (QueryKind::Neighborhood, reached(2, 2)),
            (QueryKind::KHop, reached(9, 1)),
        ];
        let mut whole = ServeStats {
            round: 7,
            ..ServeStats::default()
        };
        for (kind, outcome) in &outcomes {
            whole.absorb(*kind, outcome);
        }
        for split in 0..=outcomes.len() {
            let mut merged = ServeStats {
                round: 7,
                wall_ms: 2.5,
                ..ServeStats::default()
            };
            for part in [&outcomes[..split], &outcomes[split..]] {
                let mut partial = ServeStats::default();
                for (kind, outcome) in part {
                    partial.absorb(*kind, outcome);
                }
                merged.merge(&partial);
            }
            assert_eq!(merged.deterministic_fields(), whole.deterministic_fields());
            assert_eq!(
                (merged.round, merged.wall_ms),
                (7, 2.5),
                "merge owns only the counts"
            );
        }
    }

    #[test]
    fn equality_ignores_wall_clock() {
        let mut a = ServeStats {
            round: 2,
            queries: 10,
            hops: 7,
            local_hops: 4,
            ..ServeStats::default()
        };
        let mut b = a;
        a.wall_ms = 1.0;
        b.wall_ms = 999.0;
        assert_eq!(a, b);
        b.local_hops = 5;
        assert_ne!(a, b);
    }

    #[test]
    fn ratios_handle_empty_rounds() {
        let s = ServeStats::default();
        assert_eq!(s.local_hop_pct(), 100.0);
        assert_eq!(s.hops_per_query(), 0.0);
        let s = ServeStats {
            queries: 4,
            hops: 10,
            local_hops: 2,
            ..ServeStats::default()
        };
        assert_eq!(s.local_hop_pct(), 20.0);
        assert_eq!(s.hops_per_query(), 2.5);
    }
}
