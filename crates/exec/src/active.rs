//! Active sets: a dense bitmap over a slot range with per-shard counts.
//!
//! Iterative sweeps spend most of their time re-evaluating slots whose
//! outcome cannot change — after a few rounds of the adaptive heuristic
//! almost every vertex decides *Stay* stably, and dynamic updates only
//! dirty a local neighbourhood. An [`ActiveSet`] tracks which slots still
//! need work: a
//! bitmap answers membership in O(1), an iterator walks the members of any
//! sub-range word-at-a-time, and per-shard counts (aligned with a
//! [`crate::ShardPlan`] of the same shard size) let a fan-out skip whole
//! shards that have nothing to do.
//!
//! The same structure serves any "which slots were touched" record: marked
//! at mutation time and read out ascending, it is also the changed-slot
//! record incremental checkpoints are encoded from.
//!
//! Like [`crate::ShardPlan`], the set is pure data: which slots are active
//! depends only on what the consumer marked, never on execution resources,
//! so sweeps that iterate it stay deterministic at every thread count.

use std::ops::Range;

use crate::shard::DEFAULT_SHARD_SIZE;

/// A dense bitmap over `0..len` slots with per-shard active counts.
///
/// # Example
///
/// ```
/// use apg_exec::ActiveSet;
///
/// let mut set = ActiveSet::new(10_000, 4096);
/// set.mark(3);
/// set.mark(4097);
/// assert_eq!(set.num_active(), 2);
/// assert_eq!(set.shard_active(0), 1);
/// assert_eq!(set.shard_active(1), 1);
/// assert_eq!(set.iter_in(0..4096).collect::<Vec<_>>(), vec![3]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActiveSet {
    words: Vec<u64>,
    len: usize,
    shard_size: usize,
    shard_counts: Vec<usize>,
    active: usize,
}

impl ActiveSet {
    /// An all-inactive set over `0..len`, with shard counts of width
    /// `shard_size` (use the same width as the sweep's [`crate::ShardPlan`]).
    ///
    /// # Panics
    ///
    /// Panics if `shard_size == 0`.
    pub fn new(len: usize, shard_size: usize) -> Self {
        assert!(shard_size > 0, "shard size must be positive");
        ActiveSet {
            words: vec![0; len.div_ceil(64)],
            len,
            shard_size,
            shard_counts: vec![0; len.div_ceil(shard_size)],
            active: 0,
        }
    }

    /// An all-inactive set with [`DEFAULT_SHARD_SIZE`] shard counts.
    pub fn with_default_shards(len: usize) -> Self {
        Self::new(len, DEFAULT_SHARD_SIZE)
    }

    /// Number of slots covered (`0..len`).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set covers no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Shard width the per-shard counts are aligned to.
    pub fn shard_size(&self) -> usize {
        self.shard_size
    }

    /// Total active slots.
    pub fn num_active(&self) -> usize {
        self.active
    }

    /// Active slots within shard `shard` (slots
    /// `shard * shard_size ..`), 0 for shards past the end.
    pub fn shard_active(&self, shard: usize) -> usize {
        self.shard_counts.get(shard).copied().unwrap_or(0)
    }

    /// Whether `slot` is active.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= len()`.
    #[inline]
    pub fn contains(&self, slot: usize) -> bool {
        assert!(slot < self.len, "slot {slot} out of range");
        self.words[slot / 64] & (1u64 << (slot % 64)) != 0
    }

    /// Marks `slot` active; returns whether it was inactive before.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= len()`.
    #[inline]
    pub fn mark(&mut self, slot: usize) -> bool {
        assert!(slot < self.len, "slot {slot} out of range");
        let word = &mut self.words[slot / 64];
        let bit = 1u64 << (slot % 64);
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
        self.shard_counts[slot / self.shard_size] += 1;
        self.active += 1;
        true
    }

    /// Clears `slot`; returns whether it was active before.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= len()`.
    #[inline]
    pub fn clear(&mut self, slot: usize) -> bool {
        assert!(slot < self.len, "slot {slot} out of range");
        let word = &mut self.words[slot / 64];
        let bit = 1u64 << (slot % 64);
        if *word & bit == 0 {
            return false;
        }
        *word &= !bit;
        self.shard_counts[slot / self.shard_size] -= 1;
        self.active -= 1;
        true
    }

    /// Marks every covered slot — the conservative state when nothing is
    /// known about the slots (e.g. a changed-slot record with no base yet).
    pub fn mark_all(&mut self) {
        for (i, word) in self.words.iter_mut().enumerate() {
            let bits = (self.len - i * 64).min(64);
            *word = if bits == 64 { !0 } else { (1u64 << bits) - 1 };
        }
        for (shard, count) in self.shard_counts.iter_mut().enumerate() {
            *count = (self.len - shard * self.shard_size).min(self.shard_size);
        }
        self.active = self.len;
    }

    /// Clears every slot in O(words), not O(members).
    pub fn clear_all(&mut self) {
        self.words.fill(0);
        self.shard_counts.fill(0);
        self.active = 0;
    }

    /// Extends coverage to `0..len`; new slots start inactive. Shrinking is
    /// not supported (slot ranges in this workspace only grow) — a smaller
    /// `len` is a no-op.
    pub fn grow_to(&mut self, len: usize) {
        if len <= self.len {
            return;
        }
        self.len = len;
        self.words.resize(len.div_ceil(64), 0);
        self.shard_counts.resize(len.div_ceil(self.shard_size), 0);
    }

    /// Iterates the active slots in `slots`, ascending. Word-level scan:
    /// cost is O(words touched + members yielded), so sweeping a
    /// mostly-inactive range is near-free.
    ///
    /// # Panics
    ///
    /// Panics if `slots.end > len()`.
    pub fn iter_in(&self, slots: Range<usize>) -> ActiveIter<'_> {
        assert!(
            slots.end <= self.len,
            "range end {} out of range",
            slots.end
        );
        let (word, mask) = if slots.start >= slots.end {
            (self.words.len(), 0)
        } else {
            let word = slots.start / 64;
            // Mask off bits below the range start; shift < 64 by
            // construction.
            (word, self.words[word] & (!0u64 << (slots.start % 64)))
        };
        ActiveIter {
            words: &self.words,
            word,
            mask,
            end: slots.end,
        }
    }

    /// Iterates every active slot, ascending.
    pub fn iter(&self) -> ActiveIter<'_> {
        self.iter_in(0..self.len)
    }

    /// Appends `(shard, trimmed slot range)` to `out` for every shard with
    /// at least one active slot, in ascending shard order — the
    /// dirtied-region work list.
    ///
    /// Each range is trimmed to `first_active ..= last_active` within the
    /// shard, so a fan-out scheduling these ranges visits only the slot
    /// region a batch actually touched: untouched shards are dropped
    /// before the fan-out sees them, and a shard dirtied at one edge
    /// contributes a sliver, not its full width. Trimming never changes
    /// *which* active slots a range contains (only inactive ends are cut),
    /// so sweeps driven by this list visit exactly the same vertices, in
    /// the same order, as sweeps over the full shard ranges — the
    /// determinism contract is untouched by construction.
    ///
    /// The ranges land in a caller-owned `Vec` (appended, not returned) so
    /// per-iteration sweeps can reuse one scratch allocation.
    pub fn collect_dirty_shards(&self, out: &mut Vec<(usize, Range<usize>)>) {
        for (shard, &count) in self.shard_counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let start = shard * self.shard_size;
            let end = ((shard + 1) * self.shard_size).min(self.len);
            let first = self
                .first_active_in(start..end)
                .expect("non-zero shard count with no set bit");
            let last = self
                .last_active_in(start..end)
                .expect("non-zero shard count with no set bit");
            out.push((shard, first..last + 1));
        }
    }

    /// First active slot in `slots`, if any (word-level scan).
    fn first_active_in(&self, slots: Range<usize>) -> Option<usize> {
        self.iter_in(slots).next()
    }

    /// Last active slot in `slots`, if any (word-level scan from the top).
    fn last_active_in(&self, slots: Range<usize>) -> Option<usize> {
        if slots.start >= slots.end {
            return None;
        }
        let last_word = (slots.end - 1) / 64;
        let first_word = slots.start / 64;
        for word in (first_word..=last_word).rev() {
            let mut mask = self.words[word];
            if word == last_word {
                let top = (slots.end - 1) % 64;
                // Keep bits at or below the range's last slot; top < 63
                // shift is safe, top == 63 keeps the whole word.
                if top < 63 {
                    mask &= (1u64 << (top + 1)) - 1;
                }
            }
            if word == first_word {
                mask &= !0u64 << (slots.start % 64);
            }
            if mask != 0 {
                return Some(word * 64 + 63 - mask.leading_zeros() as usize);
            }
        }
        None
    }

    /// Audits the internal accounting (bitmap vs counts); used by consumer
    /// invariant checks.
    ///
    /// # Panics
    ///
    /// Panics if the per-shard counts or the total drifted from the bitmap.
    pub fn audit(&self) {
        let mut total = 0usize;
        for (shard, &count) in self.shard_counts.iter().enumerate() {
            let range = shard * self.shard_size..((shard + 1) * self.shard_size).min(self.len);
            let in_bitmap = self.iter_in(range).count();
            assert_eq!(in_bitmap, count, "shard {shard} count drifted");
            total += in_bitmap;
        }
        assert_eq!(total, self.active, "total active count drifted");
    }
}

/// Iterator over the active slots of a sub-range; see
/// [`ActiveSet::iter_in`].
#[derive(Debug, Clone)]
pub struct ActiveIter<'a> {
    words: &'a [u64],
    word: usize,
    mask: u64,
    end: usize,
}

impl Iterator for ActiveIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.mask != 0 {
                let slot = self.word * 64 + self.mask.trailing_zeros() as usize;
                if slot >= self.end {
                    self.mask = 0;
                    self.word = self.words.len();
                    return None;
                }
                self.mask &= self.mask - 1;
                return Some(slot);
            }
            self.word += 1;
            if self.word >= self.words.len() || self.word * 64 >= self.end {
                return None;
            }
            self.mask = self.words[self.word];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_clear_and_counts() {
        let mut set = ActiveSet::new(100, 32);
        assert!(set.mark(0));
        assert!(!set.mark(0), "double mark is a no-op");
        assert!(set.mark(31));
        assert!(set.mark(32));
        assert!(set.mark(99));
        assert_eq!(set.num_active(), 4);
        assert_eq!(set.shard_active(0), 2);
        assert_eq!(set.shard_active(1), 1);
        assert_eq!(set.shard_active(3), 1);
        assert!(set.clear(31));
        assert!(!set.clear(31), "double clear is a no-op");
        assert_eq!(set.shard_active(0), 1);
        assert_eq!(set.num_active(), 3);
        assert!(set.contains(0) && !set.contains(31));
        set.audit();
    }

    #[test]
    fn iteration_matches_naive_scan() {
        let mut set = ActiveSet::new(1000, 64);
        let members = [0usize, 1, 63, 64, 65, 127, 128, 511, 512, 999];
        for &m in &members {
            set.mark(m);
        }
        assert_eq!(set.iter().collect::<Vec<_>>(), members);
        // Sub-ranges cut the word-aligned and unaligned boundaries.
        assert_eq!(set.iter_in(1..64).collect::<Vec<_>>(), vec![1, 63]);
        assert_eq!(set.iter_in(64..128).collect::<Vec<_>>(), vec![64, 65, 127]);
        assert_eq!(
            set.iter_in(65..512).collect::<Vec<_>>(),
            vec![65, 127, 128, 511]
        );
        assert_eq!(set.iter_in(513..999).count(), 0);
        assert_eq!(set.iter_in(7..7).count(), 0, "empty range yields nothing");
    }

    #[test]
    fn grow_extends_with_inactive_slots() {
        let mut set = ActiveSet::new(10, 8);
        set.mark(9);
        set.grow_to(100);
        assert_eq!(set.len(), 100);
        assert_eq!(set.num_active(), 1);
        assert!(!set.contains(50));
        set.mark(99);
        assert_eq!(set.shard_active(12), 1);
        set.grow_to(5);
        assert_eq!(set.len(), 100, "shrinking is a no-op");
        set.audit();
    }

    #[test]
    fn mark_all_and_clear_all_keep_the_counts_exact() {
        // 67 slots: a partial last word and a partial last shard.
        let mut set = ActiveSet::new(67, 32);
        set.mark(5);
        set.mark_all();
        assert_eq!(set.num_active(), 67);
        assert_eq!(set.iter().collect::<Vec<_>>(), (0..67).collect::<Vec<_>>());
        assert_eq!(
            [
                set.shard_active(0),
                set.shard_active(1),
                set.shard_active(2)
            ],
            [32, 32, 3]
        );
        set.audit();
        assert!(set.clear(66), "mark_all set the last covered slot");
        set.clear_all();
        assert_eq!(set.num_active(), 0);
        assert_eq!(set.iter().count(), 0);
        set.audit();
        // Growth after a whole-set mark leaves the new slots unmarked.
        set.mark_all();
        set.grow_to(130);
        assert_eq!(set.num_active(), 67);
        assert!(!set.contains(129));
        set.audit();
        let mut empty = ActiveSet::new(0, 8);
        empty.mark_all();
        assert_eq!(empty.num_active(), 0);
    }

    #[test]
    fn empty_set_iterates_nothing() {
        let set = ActiveSet::new(0, 64);
        assert!(set.is_empty());
        assert_eq!(set.iter().count(), 0);
        let set = ActiveSet::new(200, 64);
        assert_eq!(set.iter().count(), 0);
        assert_eq!(set.iter_in(0..200).count(), 0);
    }

    #[test]
    fn default_shards_match_shard_plan() {
        use crate::shard::ShardPlan;
        let set = ActiveSet::with_default_shards(10_000);
        let plan = ShardPlan::with_default_size(10_000);
        assert_eq!(set.shard_size(), plan.shard_size());
        // Counts cover exactly the plan's shards.
        assert_eq!(set.shard_active(plan.num_shards()), 0);
    }

    #[test]
    fn dense_membership_round_trips() {
        let mut set = ActiveSet::new(257, 64);
        for slot in 0..257 {
            set.mark(slot);
        }
        assert_eq!(set.num_active(), 257);
        assert_eq!(set.iter().count(), 257);
        for slot in (0..257).step_by(2) {
            set.clear(slot);
        }
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            (1..257).step_by(2).collect::<Vec<_>>()
        );
        set.audit();
    }

    #[test]
    fn dirty_shards_trim_to_touched_region() {
        let mut set = ActiveSet::new(1000, 100);
        set.mark(37);
        set.mark(41);
        set.mark(250);
        set.mark(999);
        let mut out = Vec::new();
        set.collect_dirty_shards(&mut out);
        assert_eq!(out, vec![(0, 37..42), (2, 250..251), (9, 999..1000)]);
        // The trimmed ranges contain exactly the active slots of the full
        // ranges — trimming only cuts inactive ends.
        for (shard, range) in &out {
            let full = shard * 100..((shard + 1) * 100).min(set.len());
            assert_eq!(
                set.iter_in(range.clone()).collect::<Vec<_>>(),
                set.iter_in(full).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn dirty_shards_cover_word_boundaries_and_reuse_scratch() {
        let mut set = ActiveSet::new(300, 128);
        for slot in [0, 63, 64, 127, 128, 191, 256, 299] {
            set.mark(slot);
        }
        let mut out = vec![(99, 0..0)]; // pre-existing entries survive
        set.collect_dirty_shards(&mut out);
        assert_eq!(
            out,
            vec![(99, 0..0), (0, 0..128), (1, 128..192), (2, 256..300)]
        );
        // Clearing a shard's only member drops it from the next collection.
        set.clear(191);
        set.clear(128);
        out.clear();
        set.collect_dirty_shards(&mut out);
        assert_eq!(out, vec![(0, 0..128), (2, 256..300)]);
    }

    #[test]
    fn dirty_shards_empty_set_collects_nothing() {
        let set = ActiveSet::new(500, 64);
        let mut out = Vec::new();
        set.collect_dirty_shards(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn contains_rejects_out_of_range() {
        let set = ActiveSet::new(10, 4);
        let _ = set.contains(10);
    }

    #[test]
    #[should_panic(expected = "shard size must be positive")]
    fn rejects_zero_shard_size() {
        let _ = ActiveSet::new(10, 0);
    }
}
