//! Shard plans: deterministic decomposition of an index range into
//! fixed-size contiguous chunks.
//!
//! The plan depends only on the *data* (how many slots there are), never on
//! the execution resources (how many threads run it). That separation is
//! what makes the workspace's parallel sweeps reproducible: per-shard RNG
//! streams are keyed by shard index (see [`crate::stream_rng`]), so running
//! the same plan on 1 thread or 16 produces identical results.

use std::ops::Range;

/// Default shard width, in slots.
///
/// Small enough that graphs past ~10k vertices split into several shards
/// (parallelism and load-balancing headroom), large enough that per-shard
/// fixed costs (one `O(k)` decision kernel, one RNG stream) stay noise.
pub const DEFAULT_SHARD_SIZE: usize = 4096;

/// A decomposition of `0..len` into contiguous shards of at most
/// `shard_size` slots each (the last shard may be shorter).
///
/// # Example
///
/// ```
/// use apg_exec::ShardPlan;
///
/// let plan = ShardPlan::new(10, 4);
/// assert_eq!(plan.num_shards(), 3);
/// assert_eq!(plan.range(0), 0..4);
/// assert_eq!(plan.range(2), 8..10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    len: usize,
    shard_size: usize,
}

impl ShardPlan {
    /// Plans shards of at most `shard_size` over `0..len`.
    ///
    /// # Panics
    ///
    /// Panics if `shard_size == 0`.
    pub fn new(len: usize, shard_size: usize) -> Self {
        assert!(shard_size > 0, "shard size must be positive");
        ShardPlan { len, shard_size }
    }

    /// Plans shards of [`DEFAULT_SHARD_SIZE`] over `0..len`.
    pub fn with_default_size(len: usize) -> Self {
        Self::new(len, DEFAULT_SHARD_SIZE)
    }

    /// Number of slots covered (`0..len`).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the plan covers no slots (and therefore has no shards).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Width of every shard but possibly the last.
    pub fn shard_size(&self) -> usize {
        self.shard_size
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.len.div_ceil(self.shard_size)
    }

    /// Slot range of shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= num_shards()`.
    pub fn range(&self, shard: usize) -> Range<usize> {
        assert!(shard < self.num_shards(), "shard {shard} out of range");
        let start = shard * self.shard_size;
        start..(start + self.shard_size).min(self.len)
    }

    /// All shard ranges, in shard order.
    pub fn ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        (0..self.num_shards()).map(|s| self.range(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_slot_exactly_once() {
        for len in [0usize, 1, 5, 4096, 4097, 10_000] {
            let plan = ShardPlan::with_default_size(len);
            let mut covered = 0usize;
            let mut next = 0usize;
            for r in plan.ranges() {
                assert_eq!(r.start, next, "gap before shard at {}", r.start);
                assert!(r.start < r.end, "empty shard");
                covered += r.len();
                next = r.end;
            }
            assert_eq!(covered, len);
        }
    }

    #[test]
    fn empty_plan_has_no_shards() {
        let plan = ShardPlan::with_default_size(0);
        assert!(plan.is_empty());
        assert_eq!(plan.num_shards(), 0);
        assert_eq!(plan.ranges().count(), 0);
    }

    #[test]
    fn plan_is_independent_of_thread_count() {
        // The plan is a pure function of (len, shard_size): nothing about
        // execution resources enters the decomposition.
        let a = ShardPlan::new(12_345, 4096);
        let b = ShardPlan::new(12_345, 4096);
        assert_eq!(a, b);
        assert_eq!(
            a.ranges().collect::<Vec<_>>(),
            b.ranges().collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "shard size must be positive")]
    fn rejects_zero_shard_size() {
        let _ = ShardPlan::new(10, 0);
    }
}
