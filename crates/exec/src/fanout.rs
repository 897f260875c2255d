//! Scoped-thread fan-out with deterministic, index-ordered results.
//!
//! One primitive, [`map_items`], underlies both parallel realisations in
//! the workspace: the adaptive partitioner's sharded decision sweep
//! (`apg-core`) and the Pregel engine's per-worker superstep execution
//! (`apg-pregel`). Work is dealt to threads round-robin *by index* and
//! outputs are returned *in index order*, so the result is a pure function
//! of the inputs — thread scheduling can reorder execution but never the
//! output.

use crate::shard::ShardPlan;
use std::ops::Range;

/// Number of hardware threads available to this process (at least 1).
///
/// The default for [`AdaptiveConfig::parallelism`] in `apg-core`; falls back
/// to 1 when the platform cannot report a count.
///
/// [`AdaptiveConfig::parallelism`]: https://docs.rs/apg-core
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f(index, item)` to every item, on up to `threads` scoped
/// threads, returning outputs in item order.
///
/// * `threads <= 1` (or fewer than two items) runs inline on the caller's
///   thread — no spawn, identical results.
/// * Otherwise `min(threads, items.len())` scoped threads are spawned and
///   items are dealt round-robin by index; each thread processes its deal in
///   index order and the outputs are reassembled by index afterwards.
///
/// `f` must therefore not rely on cross-item ordering or shared mutable
/// state; determinism of the *combined* result is exactly what this
/// contract buys.
///
/// # Panics
///
/// Propagates panics from `f` (the scope joins every thread first).
pub fn map_items<I, T, F>(threads: usize, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, it)| f(i, it))
            .collect();
    }
    let workers = threads.min(n);
    let mut deals: Vec<Vec<(usize, I)>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        deals[i % workers].push((i, item));
    }
    let f = &f;
    let mut out: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = deals
            .into_iter()
            .map(|deal| {
                scope.spawn(move || {
                    deal.into_iter()
                        .map(|(i, item)| (i, f(i, item)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, value) in handle.join().expect("fan-out worker panicked") {
                out[i] = Some(value);
            }
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("every index produced exactly once"))
        .collect()
}

/// Runs `f(shard, slot_range)` for every shard of `plan` on up to `threads`
/// threads, returning outputs in shard order.
///
/// The shard decomposition comes from the plan (data-dependent), the thread
/// count from the caller (resource-dependent); results depend only on the
/// former. See the crate docs for the determinism argument.
pub fn map_shards<T, F>(threads: usize, plan: &ShardPlan, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    map_items(threads, plan.ranges().collect(), |shard, range| {
        f(shard, range)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn outputs_are_in_item_order_for_any_thread_count() {
        let items: Vec<usize> = (0..100).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * 3).collect();
        for threads in [1, 2, 3, 8, 200] {
            let got = map_items(threads, items.clone(), |_, x| x * 3);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn index_matches_item_position() {
        let items = vec!["a", "b", "c", "d", "e"];
        let got = map_items(4, items, |i, s| format!("{i}{s}"));
        assert_eq!(got, vec!["0a", "1b", "2c", "3d", "4e"]);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let got = map_items(7, (0..1000).collect(), |_, x: usize| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        assert_eq!(got.len(), 1000);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = map_items(4, Vec::<u8>::new(), |_, x| x);
        assert!(empty.is_empty());
        assert_eq!(map_items(4, vec![9u8], |_, x| x + 1), vec![10]);
    }

    #[test]
    fn mutable_items_fan_out() {
        // The engine's shape: a Vec of &mut state, one per worker.
        let mut states = [0u64; 6];
        let items: Vec<&mut u64> = states.iter_mut().collect();
        map_items(3, items, |i, slot| *slot = i as u64 * 10);
        assert_eq!(states, [0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn shards_fan_out_in_order() {
        let plan = ShardPlan::new(25, 4);
        for threads in [1, 2, 4] {
            let sums = map_shards(threads, &plan, |_, range| range.sum::<usize>());
            assert_eq!(sums.len(), plan.num_shards());
            assert_eq!(sums.iter().sum::<usize>(), (0..25).sum::<usize>());
            // First shard is 0+1+2+3.
            assert_eq!(sums[0], 6);
        }
    }

    #[test]
    #[should_panic(expected = "fan-out worker panicked")]
    fn worker_panic_propagates() {
        let _ = map_items(2, vec![0, 1, 2, 3], |_, x: i32| {
            assert!(x != 2, "boom");
            x
        });
    }
}
