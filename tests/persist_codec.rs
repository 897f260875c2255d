//! Property tests for the persistence layer: encode→decode round trips
//! over fuzzed graphs/batches/partitioner state, compaction-equals-replay,
//! the tombstone/extend edge cases persistence depends on — and a
//! demonstration that a broken codec round trip **shrinks** to a minimal
//! counterexample under the vendored proptest's minimiser.

use proptest::prelude::*;

use apg::core::{AdaptiveConfig, AdaptivePartitioner, PartitionerState, StreamingRunner};
use apg::graph::{DeltaLog, DynGraph, Graph, UpdateBatch};
use apg::partition::{cut_edges, InitialStrategy};
use apg::persist::{Decode, Encode};

/// Turns a fuzzed op-stream into one `UpdateBatch`, tracking the slot
/// count a consumer graph would have (dangling ids are legal — they
/// reject at apply time).
fn batch_from_ops(ops: &[(u8, u32, u32)], base_slots: usize) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    for &(op, a, b) in ops {
        let range = (base_slots + batch.num_new_vertices()).max(1) as u32;
        match op {
            0 => {
                batch.add_vertex(vec![a % range]);
            }
            1 => batch.add_edge(a % range, b % range),
            2 => batch.remove_edge(a % range, b % range),
            3 => batch.remove_vertex(a % range),
            _ => {
                let n = batch.num_new_vertices();
                if n >= 2 {
                    batch.connect_new(a as usize % n, b as usize % n);
                }
            }
        }
    }
    batch
}

/// Chunks a fuzzed op-stream into batches of at most `chunk` deltas.
fn batches_from_ops(ops: &[(u8, u32, u32)], base_slots: usize, chunk: usize) -> Vec<UpdateBatch> {
    let mut out = Vec::new();
    let mut slots = base_slots;
    for piece in ops.chunks(chunk) {
        let batch = batch_from_ops(piece, slots);
        slots += batch.num_new_vertices();
        out.push(batch);
    }
    out
}

/// A dynamic graph with organic tombstones, grown from a fuzzed op-stream.
fn graph_from_ops(ops: &[(u8, u32, u32)], base: usize) -> DynGraph {
    let mut g = DynGraph::with_vertices(base);
    for &(op, a, b) in ops {
        let range = g.num_vertices().max(1) as u32;
        match op {
            0 => {
                g.add_vertex();
            }
            1 => {
                g.add_edge(a % range, b % range);
            }
            2 => {
                g.remove_edge(a % range, b % range);
            }
            _ => {
                g.remove_vertex(a % range);
            }
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// DynGraph snapshots round-trip exactly — tombstones, dense ids,
    /// edge counts and all — through both the raw codec and the framed
    /// container.
    #[test]
    fn graph_snapshot_round_trips(
        ops in proptest::collection::vec((0u8..4, 0u32..40, 0u32..40), 0..120),
        base in 1usize..12,
    ) {
        let g = graph_from_ops(&ops, base);
        let back = DynGraph::from_bytes(&g.to_bytes()).unwrap();
        prop_assert_eq!(&back, &g);
        prop_assert_eq!(back.num_vertices(), g.num_vertices());
        prop_assert_eq!(back.num_live_vertices(), g.num_live_vertices());
        prop_assert_eq!(back.num_edges(), g.num_edges());
        let framed = DynGraph::from_snapshot_bytes(&g.to_snapshot_bytes()).unwrap();
        prop_assert_eq!(&framed, &g);
    }

    /// Restored graphs keep allocating ids densely: the next vertex id
    /// after a snapshot/restore equals the next id on the original, and
    /// tombstoned slots stay dead (never reused) on both sides.
    #[test]
    fn tombstone_slots_survive_restore(
        ops in proptest::collection::vec((0u8..4, 0u32..30, 0u32..30), 0..80),
        base in 1usize..10,
    ) {
        let mut original = graph_from_ops(&ops, base);
        let mut restored = DynGraph::from_bytes(&original.to_bytes()).unwrap();
        for v in 0..original.num_vertices() as u32 {
            prop_assert_eq!(restored.is_vertex(v), original.is_vertex(v));
            if !original.is_vertex(v) {
                // A tombstone is permanently dead on the restored side too.
                prop_assert!(!restored.remove_vertex(v));
                prop_assert!(!restored.add_edge(v, v.wrapping_add(1) % original.num_vertices().max(1) as u32));
            }
        }
        prop_assert_eq!(restored.add_vertex(), original.add_vertex());
    }

    /// UpdateBatch and DeltaLog round-trip, and a decoded log replays to
    /// the same graph as the original.
    #[test]
    fn batches_and_logs_round_trip(
        ops in proptest::collection::vec((0u8..5, 0u32..40, 0u32..40), 0..150),
        base in 1usize..12,
    ) {
        let mut log = DeltaLog::new();
        for batch in batches_from_ops(&ops, base, 11) {
            prop_assert_eq!(&UpdateBatch::from_bytes(&batch.to_bytes()).unwrap(), &batch);
            log.record(batch);
        }
        let decoded = DeltaLog::from_segment_bytes(&log.to_segment_bytes()).unwrap();
        prop_assert_eq!(&decoded, &log);
        let mut a = DynGraph::with_vertices(base);
        let mut b = a.clone();
        let ra = log.replay(&mut a);
        let rb = decoded.replay(&mut b);
        prop_assert_eq!(a, b);
        prop_assert_eq!(ra, rb);
    }

    /// `UpdateBatch::extend` offsets appended placeholders so that applying
    /// `a.extend(b)` equals applying `a` then `b` — the contract checkpoint
    /// tails rely on when segments get merged.
    #[test]
    fn extend_equals_sequential_application(
        ops_a in proptest::collection::vec((0u8..5, 0u32..30, 0u32..30), 0..40),
        ops_b in proptest::collection::vec((0u8..5, 0u32..30, 0u32..30), 0..40),
        base in 1usize..10,
    ) {
        let a = batch_from_ops(&ops_a, base);
        let b = batch_from_ops(&ops_b, base + a.num_new_vertices());

        let mut sequential = DynGraph::with_vertices(base);
        let report_a = a.apply(&mut sequential);
        let report_b = b.apply(&mut sequential);

        let mut merged_batch = a.clone();
        merged_batch.extend(b.clone());

        let mut merged = DynGraph::with_vertices(base);
        let report = merged_batch.apply(&mut merged);
        prop_assert_eq!(merged, sequential, "extend diverged from sequential apply");
        prop_assert_eq!(
            report.new_vertices.len(),
            report_a.new_vertices.len() + report_b.new_vertices.len()
        );
        prop_assert_eq!(report.edges_added, report_a.edges_added + report_b.edges_added);
        prop_assert_eq!(report.rejected, report_a.rejected + report_b.rejected);
    }

    /// Partitioner state round-trips through the codec, and the restored
    /// partitioner's *future* is identical: accounting matches a recount
    /// and the next iterations reproduce the original's.
    #[test]
    fn partitioner_state_round_trips(
        ops in proptest::collection::vec((0u8..5, 0u32..40, 0u32..40), 0..60),
        warmup in 0usize..12,
        seed in 0u64..200,
    ) {
        let g = apg::graph::gen::mesh3d(3, 3, 3);
        let cfg = AdaptiveConfig::builder(3).parallelism(1).build().unwrap();
        let mut p = AdaptivePartitioner::with_strategy(&g, InitialStrategy::Hash, &cfg, seed);
        for batch in batches_from_ops(&ops, p.graph().num_vertices(), 7) {
            p.apply_batch(&batch);
        }
        p.run_for(warmup);

        let state = PartitionerState::from_bytes(&p.snapshot_state().to_bytes()).unwrap();
        let mut restored = AdaptivePartitioner::restore(state);
        prop_assert_eq!(restored.graph(), p.graph());
        prop_assert_eq!(restored.partitioning(), p.partitioning());
        prop_assert_eq!(restored.cut_edges(), p.cut_edges());
        prop_assert_eq!(restored.iteration(), p.iteration());
        prop_assert_eq!(restored.quiet_streak(), p.quiet_streak());
        prop_assert_eq!(
            restored.cut_edges(),
            cut_edges(restored.graph(), restored.partitioning())
        );
        restored.audit();
        // Same future: the RNG streams are keyed by (seed, shard,
        // iteration), all restored.
        prop_assert_eq!(restored.run_for(3), p.run_for(3));
        prop_assert_eq!(restored.partitioning(), p.partitioning());
    }

    /// Re-taking the snapshot part-way through a checkpoint's tail — resume
    /// a prefix, checkpoint, carry the rest of the tail over — yields a
    /// checkpoint whose resumed runner equals the full-replay one: where
    /// the snapshot boundary falls inside a history is unobservable.
    #[test]
    fn compaction_then_replay_equals_full_replay(
        ops in proptest::collection::vec((0u8..5, 0u32..50, 0u32..50), 1..120),
        keep in 0usize..20,
        seed in 0u64..100,
    ) {
        let g = apg::graph::gen::mesh3d(3, 3, 3);
        let cfg = AdaptiveConfig::builder(3).parallelism(1).build().unwrap();
        let mut runner = StreamingRunner::new(
            AdaptivePartitioner::with_strategy(&g, InitialStrategy::Hash, &cfg, seed),
        )
        .iterations_per_batch(1);

        let mut full = runner.checkpoint();
        for batch in batches_from_ops(&ops, g.num_vertices(), 9) {
            runner.ingest(&batch);
            full.append(batch);
        }
        let depth = keep % (full.tail.len() + 1);
        let (folded, carried) = full.tail.batches().split_at(depth);
        let mut prefix = full.clone();
        prefix.tail = DeltaLog::from(folded.to_vec());
        let mut ckpt = StreamingRunner::resume(prefix).checkpoint();
        for batch in carried {
            ckpt.append(batch.clone());
        }
        prop_assert_eq!(ckpt.tail.len(), full.tail.len() - depth);
        prop_assert_eq!(ckpt.cursor(), full.cursor());

        let a = StreamingRunner::resume(full);
        let b = StreamingRunner::resume(ckpt);
        prop_assert_eq!(a.timeline(), b.timeline());
        prop_assert_eq!(a.partitioner().graph(), b.partitioner().graph());
        prop_assert_eq!(a.partitioner().partitioning(), b.partitioner().partitioning());
        prop_assert_eq!(a.partitioner().cut_edges(), b.partitioner().cut_edges());
        // And both match the runner that never went through bytes at all.
        prop_assert_eq!(a.timeline(), runner.timeline());
        prop_assert_eq!(a.partitioner().graph(), runner.partitioner().graph());
    }
}

/// The `test` headline: a *deliberately broken* codec round trip must
/// shrink to a minimal counterexample.
///
/// The injected bug drops tombstone information on encode (a classic
/// snapshot mistake: persisting only live vertices). Round-trip equality
/// then fails exactly on graphs containing at least one tombstone, and the
/// minimiser must walk a large random failing op-sequence down to the
/// smallest witness: a single `remove_vertex` op — one tombstone, zero
/// edges.
mod broken_codec_shrinks {
    use super::*;
    use proptest::{shrink_failure, Strategy, ValueTree};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The bug: serialise the graph pretending every slot is alive.
    fn buggy_round_trip(g: &DynGraph) -> DynGraph {
        let all_alive = {
            let mut clone = DynGraph::with_vertices(g.num_vertices());
            for v in g.vertices() {
                for &w in g.neighbors(v) {
                    if w > v {
                        clone.add_edge(v, w);
                    }
                }
            }
            clone
        };
        DynGraph::from_bytes(&all_alive.to_bytes()).expect("bytes are self-consistent")
    }

    #[test]
    fn broken_round_trip_shrinks_to_one_tombstone() {
        let strategy = proptest::collection::vec((0u8..4, 0u32..30, 0u32..30), 0..100)
            .prop_map(|ops| graph_from_ops(&ops, 4));
        let fails = |g: &DynGraph| buggy_round_trip(g) != *g;

        // Find a failing case (most op-sequences of this size tombstone
        // something), then let the minimiser loose on it.
        let mut rng = StdRng::seed_from_u64(99);
        let mut found = None;
        for _ in 0..200 {
            let mut tree = strategy.new_tree(&mut rng);
            if fails(&tree.current()) {
                let original = tree.current();
                let (minimal, steps) = shrink_failure(&mut tree, 4096, |g| fails(g));
                found = Some((original, minimal, steps));
                break;
            }
        }
        let (original, minimal, steps) = found.expect("no failing case in 200 draws");

        // Still a counterexample...
        assert!(fails(&minimal));
        // ...but minimal: one tombstone, nothing else of substance.
        let tombstones = minimal.num_vertices() - minimal.num_live_vertices();
        assert_eq!(
            tombstones, 1,
            "minimiser left {tombstones} tombstones in {minimal:?}"
        );
        assert_eq!(
            minimal.num_edges(),
            0,
            "minimiser left edges in {minimal:?}"
        );
        assert_eq!(
            minimal.num_vertices(),
            4,
            "base population (strategy minimum) only"
        );
        // And the search genuinely worked for it: the original failing
        // graph was bigger than the witness.
        assert!(steps > 0, "shrinking never ran");
        assert!(
            original.num_vertices() > minimal.num_vertices()
                || original.num_edges() > 0
                || (original.num_vertices() - original.num_live_vertices()) > 1,
            "original {original:?} was already minimal — fuzz harder"
        );
    }

    /// Control: the *fixed* codec survives the same property unshrunk —
    /// there is simply no failing case to minimise.
    #[test]
    fn fixed_codec_has_no_counterexample_to_shrink() {
        let strategy = proptest::collection::vec((0u8..4, 0u32..30, 0u32..30), 0..100)
            .prop_map(|ops| graph_from_ops(&ops, 4));
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..200 {
            let tree = strategy.new_tree(&mut rng);
            let g = tree.current();
            assert_eq!(DynGraph::from_bytes(&g.to_bytes()).unwrap(), g);
        }
    }
}
