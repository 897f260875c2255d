//! Slab-backed adjacency storage for [`crate::DynGraph`].
//!
//! A `Vec<Vec<VertexId>>` adjacency costs one heap allocation — and one
//! pointer chase — per vertex, which is what makes neighbour scans
//! cache-hostile once the graph outgrows the last-level cache. An
//! [`AdjPool`] stores every neighbour list in a single flat arena instead:
//! each vertex slot owns a `{offset, len, cap}` span of the arena, so a
//! sequential sweep walks one contiguous allocation and a random lookup
//! costs exactly one indirection (span → arena), same as a CSR read.
//!
//! Lists stay **sorted** — that is part of the `neighbors()` contract the
//! whole workspace relies on (binary-search membership, deterministic
//! scans, byte-stable snapshot encoding) — so removal shifts the span tail
//! left rather than swap-removing. Growth is amortized doubling: a full
//! span relocates to the end of the arena with twice its capacity, and the
//! region it vacated becomes garbage. Once garbage exceeds half the arena
//! a compaction rebuilds it in slot order, which also restores perfect
//! scan locality after heavy churn.
//!
//! Layout (offsets, capacities, garbage, when compaction fires) is
//! deliberately **not** part of the pool's identity: equality compares the
//! logical per-slot lists only, so two pools that went through different
//! mutation histories compare equal whenever their graphs do.

use crate::types::VertexId;

/// Minimum capacity a span is (re)allocated with once it holds anything.
const MIN_SPAN_CAP: u32 = 4;

/// Garbage floor below which compaction never fires, so small graphs with
/// a little churn don't thrash the arena.
const COMPACT_MIN_GARBAGE: usize = 64;

/// One vertex slot's view into the arena: `arena[offset .. offset + cap]`
/// belongs to the slot, the first `len` entries are its (sorted) list.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    offset: usize,
    len: u32,
    cap: u32,
}

/// A slab of per-slot sorted adjacency lists in one flat arena.
#[derive(Debug, Clone, Default)]
pub struct AdjPool {
    arena: Vec<VertexId>,
    spans: Vec<Span>,
    /// Arena entries no span owns (vacated by relocation or slot clears).
    garbage: usize,
    /// Compactions performed over the pool's lifetime (observability).
    compactions: usize,
}

impl AdjPool {
    /// A pool of `n` empty slots.
    pub fn with_slots(n: usize) -> Self {
        AdjPool {
            arena: Vec::new(),
            spans: vec![Span::default(); n],
            garbage: 0,
            compactions: 0,
        }
    }

    /// A pool holding `lists` (each strictly ascending, debug-asserted),
    /// one slot per list in order, in exact-fit spans back to back in an
    /// arena reserved at `total` entries — exact when that is their summed
    /// length. The bulk constructor for callers that can list every slot up
    /// front (`DynGraph::from_graph`): one append per list, nothing
    /// zero-filled first, and the layout [`AdjPool::compact`] would
    /// produce.
    pub fn from_lists<'a, I>(total: usize, lists: I) -> Self
    where
        I: ExactSizeIterator<Item = &'a [VertexId]>,
    {
        let mut arena = Vec::with_capacity(total);
        let mut spans = Vec::with_capacity(lists.len());
        for list in lists {
            debug_assert!(
                list.windows(2).all(|w| w[0] < w[1]),
                "list for slot {} not strictly ascending",
                spans.len()
            );
            let len = list.len() as u32;
            spans.push(Span {
                offset: arena.len(),
                len,
                cap: len,
            });
            arena.extend_from_slice(list);
        }
        debug_assert_eq!(arena.len(), total, "lists do not sum to the stated total");
        AdjPool {
            arena,
            spans,
            garbage: 0,
            compactions: 0,
        }
    }

    /// Number of slots (alive or not — liveness is the caller's concern).
    pub fn num_slots(&self) -> usize {
        self.spans.len()
    }

    /// Appends a new empty slot and returns its index.
    pub fn push_slot(&mut self) -> usize {
        self.spans.push(Span::default());
        self.spans.len() - 1
    }

    /// The sorted list held by `slot`.
    #[inline]
    pub fn neighbors(&self, slot: usize) -> &[VertexId] {
        let span = &self.spans[slot];
        &self.arena[span.offset..span.offset + span.len as usize]
    }

    /// Length of `slot`'s list.
    #[inline]
    pub fn len_of(&self, slot: usize) -> usize {
        self.spans[slot].len as usize
    }

    /// The largest entry of `slot`'s list, `None` when it is empty.
    #[inline]
    pub(crate) fn last_of(&self, slot: usize) -> Option<VertexId> {
        self.neighbors(slot).last().copied()
    }

    /// `slot`'s span as a `(offset, len)` pair, `None` for a slot never
    /// allocated. Never panics.
    #[inline]
    pub(crate) fn span_of(&self, slot: usize) -> Option<(usize, u32)> {
        self.spans.get(slot).map(|span| (span.offset, span.len))
    }

    /// The smallest entry of `slot`'s list, `None` when it is empty or the
    /// slot was never allocated. Never panics.
    #[inline]
    pub(crate) fn first_of(&self, slot: usize) -> Option<VertexId> {
        let (offset, len) = self.span_of(slot)?;
        if len == 0 {
            return None;
        }
        self.arena.get(offset).copied()
    }

    /// Inserts `value` into `slot`'s sorted list; `false` if present.
    /// Relocates the span (amortized doubling) when it is full.
    ///
    /// A value past the list's current maximum is appended without a
    /// search: that is every edge to a newborn vertex (always the largest
    /// id), so growth touches a hub's span and list tail, not the
    /// `log(degree)` lines a binary search would read.
    pub fn insert_sorted(&mut self, slot: usize, value: VertexId) -> bool {
        let list = self.neighbors(slot);
        let pos = if list.last().is_none_or(|&last| last < value) {
            list.len()
        } else {
            match list.binary_search(&value) {
                Ok(_) => return false,
                Err(pos) => pos,
            }
        };
        if self.spans[slot].len == self.spans[slot].cap {
            self.grow(slot);
        }
        let span = self.spans[slot];
        let start = span.offset + pos;
        let end = span.offset + span.len as usize;
        self.arena.copy_within(start..end, start + 1);
        self.arena[start] = value;
        self.spans[slot].len += 1;
        true
    }

    /// Removes `value` from `slot`'s sorted list, shifting the tail left so
    /// order is preserved; `false` if absent. Freed capacity stays with the
    /// span (it is not garbage — the slot will reuse it).
    pub fn remove_sorted(&mut self, slot: usize, value: VertexId) -> bool {
        let pos = match self.neighbors(slot).binary_search(&value) {
            Ok(pos) => pos,
            Err(_) => return false,
        };
        let span = self.spans[slot];
        let start = span.offset + pos;
        let end = span.offset + span.len as usize;
        self.arena.copy_within(start + 1..end, start);
        self.spans[slot].len -= 1;
        true
    }

    /// Overwrites `slot`'s list with `list` (strictly ascending,
    /// debug-asserted) — the bulk primitive for callers that already hold
    /// the final list. In place when the span has room; otherwise one
    /// relocation to the arena end, with the growth policy of
    /// [`AdjPool::insert_sorted`] (at least double), the vacated span
    /// becoming garbage.
    pub fn replace(&mut self, slot: usize, list: &[VertexId]) {
        debug_assert!(
            list.windows(2).all(|w| w[0] < w[1]),
            "replacement list for slot {slot} not strictly ascending"
        );
        let len = list.len() as u32;
        let mut span = self.spans[slot];
        if len > span.cap {
            self.garbage += span.cap as usize;
            span.cap = len.max(span.cap * 2).max(MIN_SPAN_CAP);
            span.offset = self.arena.len();
            self.arena.resize(span.offset + span.cap as usize, 0);
        }
        self.arena[span.offset..span.offset + list.len()].copy_from_slice(list);
        span.len = len;
        self.spans[slot] = span;
    }

    /// Empties `slot` and releases its capacity to garbage (the tombstone
    /// path — a cleared slot never grows back).
    pub fn clear_slot(&mut self, slot: usize) {
        self.garbage += self.spans[slot].cap as usize;
        self.spans[slot] = Span::default();
    }

    /// Entries the arena currently holds (live + garbage + slack).
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Arena entries owned by no span.
    pub fn garbage(&self) -> usize {
        self.garbage
    }

    /// Compactions performed so far.
    pub fn compactions(&self) -> usize {
        self.compactions
    }

    /// Compacts when more than half the arena is garbage (and enough of it
    /// to be worth a rebuild). Callers invoke this at mutation-batch
    /// granularity — never mid-loop — so span addresses are stable inside
    /// any one mutation. Returns whether a compaction ran.
    pub fn maybe_compact(&mut self) -> bool {
        if self.garbage > COMPACT_MIN_GARBAGE && self.garbage * 2 > self.arena.len() {
            self.compact();
            true
        } else {
            false
        }
    }

    /// Rebuilds the arena in slot order with tight spans (`cap == len`).
    ///
    /// Purely a layout operation: every slot's list is byte-identical
    /// before and after, so graph behaviour — and therefore determinism —
    /// cannot observe it. Also restores sequential-scan locality after
    /// churn has scattered relocated spans.
    pub fn compact(&mut self) {
        let live: usize = self.spans.iter().map(|s| s.len as usize).sum();
        let mut arena = Vec::with_capacity(live);
        for span in &mut self.spans {
            let offset = arena.len();
            arena.extend_from_slice(&self.arena[span.offset..span.offset + span.len as usize]);
            span.offset = offset;
            span.cap = span.len;
        }
        self.arena = arena;
        self.garbage = 0;
        self.compactions += 1;
    }

    /// Relocates `slot`'s span to the arena end with doubled capacity.
    fn grow(&mut self, slot: usize) {
        let span = self.spans[slot];
        let new_cap = (span.cap * 2).max(MIN_SPAN_CAP);
        let new_offset = self.arena.len();
        self.arena
            .extend_from_within(span.offset..span.offset + span.len as usize);
        self.arena.resize(new_offset + new_cap as usize, 0);
        self.garbage += span.cap as usize;
        self.spans[slot] = Span {
            offset: new_offset,
            len: span.len,
            cap: new_cap,
        };
    }
}

/// Logical equality: same slot count, same per-slot lists. Layout (span
/// placement, capacities, garbage) is invisible, so graphs that reached the
/// same logical state through different histories compare equal.
impl PartialEq for AdjPool {
    fn eq(&self, other: &Self) -> bool {
        self.spans.len() == other.spans.len()
            && (0..self.spans.len()).all(|s| self.neighbors(s) == other.neighbors(s))
    }
}

impl Eq for AdjPool {}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_with_lists(lists: &[&[VertexId]]) -> AdjPool {
        let mut pool = AdjPool::with_slots(lists.len());
        for (slot, list) in lists.iter().enumerate() {
            for &v in *list {
                assert!(pool.insert_sorted(slot, v));
            }
        }
        pool
    }

    #[test]
    fn insert_keeps_lists_sorted_and_deduplicated() {
        let mut pool = AdjPool::with_slots(2);
        for v in [5, 2, 9, 2, 7] {
            pool.insert_sorted(0, v);
        }
        assert_eq!(pool.neighbors(0), &[2, 5, 7, 9]);
        assert_eq!(pool.neighbors(1), &[] as &[VertexId]);
        assert!(!pool.insert_sorted(0, 5), "duplicate rejected");
    }

    #[test]
    fn a_value_past_the_maximum_appends() {
        let mut pool = pool_with_lists(&[&[2, 5, 9], &[4]]);
        let before = pool.spans[0];
        assert!(pool.insert_sorted(0, 10));
        assert_eq!(pool.neighbors(0), &[2, 5, 9, 10]);
        assert_eq!(pool.last_of(0), Some(10));
        assert_eq!(pool.spans[0].offset, before.offset, "room left: no move");
        // An empty list takes any value through the same path.
        let slot = pool.push_slot();
        assert_eq!(pool.last_of(slot), None);
        assert!(pool.insert_sorted(slot, 0));
        assert_eq!(pool.neighbors(slot), &[0]);
        assert_eq!(
            pool.neighbors(1),
            &[4],
            "the neighbouring span is untouched"
        );
    }

    #[test]
    fn a_duplicate_of_the_maximum_is_rejected_unchanged() {
        let mut pool = pool_with_lists(&[&[2, 5, 9]]);
        let (span, arena, garbage) = (pool.spans[0], pool.arena_len(), pool.garbage());
        assert!(!pool.insert_sorted(0, 9));
        assert_eq!(pool.neighbors(0), &[2, 5, 9]);
        assert_eq!(pool.spans[0].len, span.len);
        assert_eq!(pool.spans[0].offset, span.offset);
        assert_eq!((pool.arena_len(), pool.garbage()), (arena, garbage));
    }

    #[test]
    fn a_value_below_the_maximum_lands_in_sorted_position() {
        let mut pool = pool_with_lists(&[&[2, 5, 9]]);
        for (value, expect) in [
            (7, &[2, 5, 7, 9][..]),
            (0, &[0, 2, 5, 7, 9]),
            (6, &[0, 2, 5, 6, 7, 9]),
            (8, &[0, 2, 5, 6, 7, 8, 9]),
        ] {
            assert!(pool.insert_sorted(0, value));
            assert_eq!(pool.neighbors(0), expect);
        }
        assert!(
            !pool.insert_sorted(0, 5),
            "an inner duplicate is still found"
        );
        assert_eq!(pool.last_of(0), Some(9));
    }

    #[test]
    fn remove_shifts_tail_preserving_order() {
        let mut pool = pool_with_lists(&[&[1, 2, 3, 4, 5]]);
        assert!(pool.remove_sorted(0, 3));
        assert_eq!(pool.neighbors(0), &[1, 2, 4, 5]);
        assert!(!pool.remove_sorted(0, 3), "double remove is a no-op");
        assert_eq!(pool.len_of(0), 4);
    }

    #[test]
    fn growth_relocates_and_preserves_contents() {
        let mut pool = AdjPool::with_slots(3);
        // Interleave inserts so spans relocate past each other repeatedly.
        for v in 0..200u32 {
            pool.insert_sorted((v % 3) as usize, v);
        }
        for slot in 0..3u32 {
            let expect: Vec<VertexId> = (0..200).filter(|v| v % 3 == slot).collect();
            assert_eq!(pool.neighbors(slot as usize), expect.as_slice());
        }
        assert!(pool.garbage() > 0, "relocations must leave garbage behind");
    }

    #[test]
    fn from_lists_packs_exact_fit_spans() {
        let lists: [&[VertexId]; 3] = [&[10, 20, 30], &[], &[7, 9]];
        let mut pool = AdjPool::from_lists(5, lists.iter().copied());
        assert_eq!(pool.arena_len(), 5, "the arena is exactly the lists");
        assert_eq!(pool.garbage(), 0);
        assert_eq!(pool, pool_with_lists(&lists));
        // The layout compaction would produce: compacting moves nothing.
        let offsets: Vec<usize> = pool.spans.iter().map(|s| s.offset).collect();
        pool.compact();
        assert_eq!(
            pool.spans.iter().map(|s| s.offset).collect::<Vec<_>>(),
            offsets
        );
        assert_eq!(pool.arena_len(), 5);
    }

    #[test]
    fn clear_slot_releases_capacity_and_compaction_reclaims_it() {
        let mut pool = AdjPool::with_slots(8);
        for slot in 0..8 {
            for v in 0..64u32 {
                pool.insert_sorted(slot, v);
            }
        }
        let logical: Vec<Vec<VertexId>> = (0..8).map(|s| pool.neighbors(s).to_vec()).collect();
        for slot in [1, 3, 5, 7] {
            pool.clear_slot(slot);
        }
        assert!(pool.garbage() >= 4 * 64);
        assert!(pool.maybe_compact(), "half the arena is dead");
        assert_eq!(pool.compactions(), 1);
        assert_eq!(pool.garbage(), 0);
        for slot in [0, 2, 4, 6] {
            assert_eq!(pool.neighbors(slot), logical[slot].as_slice());
        }
        for slot in [1, 3, 5, 7] {
            assert_eq!(pool.neighbors(slot), &[] as &[VertexId]);
        }
        // Arena is now tight: live entries only.
        assert_eq!(pool.arena_len(), 4 * 64);
    }

    #[test]
    fn replace_within_capacity_stays_in_place() {
        let mut pool = pool_with_lists(&[&[1, 2, 3, 4, 5], &[9]]);
        let (arena, garbage) = (pool.arena_len(), pool.garbage());
        let offset = pool.spans[0].offset;
        for list in [&[2, 4, 6][..], &[], &[0, 1, 2, 3, 7]] {
            pool.replace(0, list);
            assert_eq!(pool.neighbors(0), list);
            assert_eq!(pool.spans[0].offset, offset, "a fitting list must not move");
        }
        assert_eq!(pool.arena_len(), arena);
        assert_eq!(pool.garbage(), garbage, "nothing was vacated");
        assert_eq!(
            pool.neighbors(1),
            &[9],
            "the neighbouring span is untouched"
        );
    }

    #[test]
    fn replace_beyond_capacity_relocates_once() {
        let mut pool = pool_with_lists(&[&[1, 2, 3], &[9]]);
        let old = pool.spans[0];
        let garbage = pool.garbage();
        let list: Vec<VertexId> = (10..30).collect();
        pool.replace(0, &list);
        assert_eq!(pool.neighbors(0), list.as_slice());
        assert_eq!(
            pool.garbage(),
            garbage + old.cap as usize,
            "the vacated span, slack included, is garbage"
        );
        assert!(pool.spans[0].offset >= old.offset + old.cap as usize);
        assert_eq!(pool.neighbors(1), &[9]);
        // Growth at least doubles: outgrowing the exact-fit span by one
        // entry buys room for twenty more.
        pool.replace(0, &(0..21).collect::<Vec<VertexId>>());
        let moved = pool.spans[0];
        assert_eq!(moved.cap, 40);
        pool.replace(0, &(0..40).collect::<Vec<VertexId>>());
        assert_eq!(pool.spans[0].offset, moved.offset);
        // A never-used slot gets the minimum capacity, like `insert_sorted`.
        let slot = pool.push_slot();
        pool.replace(slot, &[4]);
        assert_eq!(pool.spans[slot].cap, MIN_SPAN_CAP);
    }

    #[test]
    fn replace_equals_a_clear_and_reinsert_rebuild() {
        let lists: [&[VertexId]; 4] = [&[], &[3], &[0, 2, 4, 6, 8, 10, 12], &[1, 5]];
        let mut replaced = pool_with_lists(&[&[1, 2, 3], &[], &[7, 8], &[0, 1, 2, 3, 4, 5]]);
        let mut rebuilt = replaced.clone();
        for (slot, list) in lists.iter().enumerate() {
            replaced.replace(slot, list);
            rebuilt.clear_slot(slot);
            for &v in *list {
                assert!(rebuilt.insert_sorted(slot, v));
            }
        }
        assert_eq!(replaced, rebuilt);
        assert_eq!(replaced, pool_with_lists(&lists));
    }

    #[test]
    fn replace_interleaves_with_compaction() {
        let evens = |n: u32| (0..n).map(|i| i * 2).collect::<Vec<VertexId>>();
        let mut pool = AdjPool::with_slots(8);
        for slot in 0..8 {
            pool.replace(slot, &evens(100));
        }
        // Outgrow half the spans, then tombstone most slots: relocation
        // and clearing together push garbage past half the arena.
        for slot in 0..4 {
            pool.replace(slot, &evens(201));
        }
        assert_eq!(pool.garbage(), 4 * 100);
        assert!(!pool.maybe_compact(), "relocation alone stays under half");
        for slot in 2..8 {
            pool.clear_slot(slot);
        }
        assert!(pool.maybe_compact());
        assert_eq!(pool.garbage(), 0);
        assert_eq!(pool.arena_len(), 2 * 201, "tight spans, live entries only");
        // Compacted spans are exact-fit: shrinking stays put, a cleared
        // slot coming back relocates to the arena end.
        pool.replace(0, &evens(50));
        assert_eq!(pool.arena_len(), 2 * 201);
        pool.replace(5, &evens(7));
        assert_eq!(pool.arena_len(), 2 * 201 + 7);
        assert_eq!(pool.neighbors(0), evens(50).as_slice());
        assert_eq!(pool.neighbors(1), evens(201).as_slice());
        assert_eq!(pool.neighbors(5), evens(7).as_slice());
        for slot in [2, 3, 4, 6, 7] {
            assert_eq!(pool.neighbors(slot), &[] as &[VertexId]);
        }
    }

    #[test]
    fn maybe_compact_respects_garbage_floor() {
        let mut pool = pool_with_lists(&[&[1, 2, 3]]);
        pool.clear_slot(0);
        assert!(!pool.maybe_compact(), "tiny garbage never compacts");
    }

    #[test]
    fn equality_is_layout_invariant() {
        // Same logical lists, very different histories/layouts.
        let mut churned = AdjPool::with_slots(2);
        for v in 0..100u32 {
            churned.insert_sorted(0, v);
        }
        for v in 0..100u32 {
            if v % 2 == 0 {
                churned.remove_sorted(0, v);
            }
        }
        churned.insert_sorted(1, 7);

        let odds: Vec<VertexId> = (1..100u32).step_by(2).collect();
        let mut fresh = AdjPool::from_lists(51, [&odds[..], &[7][..]].into_iter());

        assert_eq!(churned, fresh);
        churned.compact();
        assert_eq!(churned, fresh, "compaction is logically invisible");
        fresh.remove_sorted(1, 7);
        assert_ne!(churned, fresh);
    }

    #[test]
    fn push_slot_appends_empty_slots() {
        let mut pool = AdjPool::default();
        assert_eq!(pool.push_slot(), 0);
        assert_eq!(pool.push_slot(), 1);
        assert_eq!(pool.num_slots(), 2);
        pool.insert_sorted(1, 9);
        assert_eq!(pool.neighbors(1), &[9]);
        assert_eq!(pool.neighbors(0), &[] as &[VertexId]);
    }
}
