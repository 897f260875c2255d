//! Structural diffs between two [`DynGraph`] states — the graph slice of
//! the workspace's incremental (delta-encoded) checkpoints.
//!
//! A [`GraphDiff`] captures *current* against *base* as the set of slots
//! whose liveness or adjacency changed, plus the slot-space growth and
//! the resulting bookkeeping totals. Each changed slot carries only its
//! **added and removed neighbours** relative to the base — not its full
//! final list — so a degree-30 vertex that gained one edge costs two
//! varints, not thirty-one. That is what keeps the encoding
//! O(changed-edges) under churn that touches most slots shallowly, the
//! common streaming regime. Computing one is O(changed + their degrees)
//! given the changed-slot set that mutation paths track anyway (the
//! partitioner's checkpoint-changed record, an `apg_exec::ActiveSet`), and
//! applying one to the base turns it, in place, into exactly the current
//! graph — including tombstone slots, so the never-reused id space stays
//! aligned.
//!
//! # Trust boundary
//!
//! Diffs are decoded from disk, so [`GraphDiff::apply_to`] runs a full
//! read-only resolution pass *before* mutating anything: slot bounds,
//! ascending adjacency, added edges absent from (and removed edges
//! present in) the base, symmetry of every added and removed edge in the
//! final state, tombstone rules, and the edge/live-count cross-check. A
//! rejected diff leaves the base graph untouched.
//!
//! # Example
//!
//! ```
//! use apg_graph::{DynGraph, Graph, GraphDiff};
//!
//! let mut base = DynGraph::with_vertices(3);
//! base.add_edge(0, 1);
//! let mut current = base.clone();
//! current.add_edge(1, 2);
//! let v = current.add_vertex();
//! current.add_edge(0, v);
//!
//! let diff = GraphDiff::between(&base, &current, &[0, 1, 2, v as usize]);
//! let mut replayed = base.clone();
//! diff.apply_to(&mut replayed).unwrap();
//! assert_eq!(replayed, current);
//! ```

use apg_persist::{decode_len, Decode, DecodeError, Decoder, Encode, Encoder};

use crate::dynamic::DynGraph;
use crate::types::{Graph, VertexId};

/// One changed slot: its final liveness and its adjacency edits relative
/// to the base.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotDiff {
    /// The vertex slot this entry edits.
    pub slot: usize,
    /// Whether the slot is live in the final state.
    pub alive: bool,
    /// Neighbours gained since the base, strictly ascending. Must be
    /// disjoint from the base's list (an edge cannot be added twice).
    pub added: Vec<VertexId>,
    /// Neighbours lost since the base, strictly ascending. Every entry
    /// must appear in the base's list.
    pub removed: Vec<VertexId>,
}

/// A changed slot with its final neighbour list materialised — what the
/// resolution pass hands to the infallible mutation pass.
pub(crate) struct ResolvedSlot {
    pub(crate) slot: usize,
    pub(crate) alive: bool,
    pub(crate) neighbors: Vec<VertexId>,
}

/// A structural delta from a base [`DynGraph`] to a current one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphDiff {
    /// Slot count of the final state (never below the base's — ids are
    /// never reused, so the slot space only grows).
    pub new_slots: usize,
    /// Live-vertex count of the final state (cross-checked on apply).
    pub new_live: usize,
    /// Edge count of the final state (cross-checked on apply).
    pub new_edges: usize,
    /// Changed slots, strictly ascending by slot. Every newborn slot
    /// (`>= base` slot count) must appear here.
    pub changed: Vec<SlotDiff>,
}

impl GraphDiff {
    /// The ascending slots a diff from a `base_n`-slot base to a
    /// `cur_n`-slot current state visits: the candidates that already
    /// existed in the base, then every newborn slot. Newborns are the
    /// contiguous range `base_n..cur_n` above every older slot, so they
    /// are visited whether or not `candidates` (strictly ascending) lists
    /// them. Every per-slot record of a delta walks this one sequence.
    pub fn slots_to_visit(
        candidates: &[usize],
        base_n: usize,
        cur_n: usize,
    ) -> impl Iterator<Item = usize> + '_ {
        let old = candidates.partition_point(|&slot| slot < base_n);
        candidates[..old].iter().copied().chain(base_n..cur_n)
    }

    /// Computes the diff from `base` to `current`, given a sorted,
    /// deduplicated superset of the slots that may have changed
    /// (typically the partitioner's changed-slot record). Slots whose state is in fact
    /// identical are filtered out, so conservative over-marking costs
    /// bytes never correctness; newborn slots missing from `candidates`
    /// are picked up unconditionally.
    ///
    /// # Panics
    ///
    /// Panics if `current` has fewer slots than `base` (ids are never
    /// reused) or `candidates` is not strictly ascending.
    pub fn between(base: &DynGraph, current: &DynGraph, candidates: &[usize]) -> GraphDiff {
        let slot = |s| Some((base.is_vertex(s as VertexId), base.neighbors(s as VertexId)));
        Self::from_base(base.num_vertices(), slot, current, candidates)
            .expect("a graph has every slot")
    }

    /// [`GraphDiff::between`] from a `base_n`-slot base that `base` reads
    /// slot by slot — liveness and ascending neighbour list — or cannot
    /// (`None`, and then neither can this). Panics as `between` does.
    pub fn from_base<'b>(
        base_n: usize,
        base: impl Fn(usize) -> Option<(bool, &'b [VertexId])>,
        current: &DynGraph,
        candidates: &[usize],
    ) -> Option<GraphDiff> {
        let cur_n = current.num_vertices();
        assert!(cur_n >= base_n, "current graph lost slots");
        debug_assert!(
            candidates.windows(2).all(|w| w[0] < w[1]),
            "candidate slots not strictly ascending"
        );
        debug_assert!(
            candidates.last().is_none_or(|&slot| slot < cur_n),
            "candidate slot out of range"
        );
        let mut changed = Vec::new();
        for slot in Self::slots_to_visit(candidates, base_n, cur_n) {
            let cur_alive = current.is_vertex(slot as VertexId);
            let cur_list = current.neighbors(slot as VertexId);
            let (base_alive, base_list) = if slot < base_n {
                base(slot)?
            } else {
                (false, &[][..])
            };
            // Two-pointer walk over the sorted lists: what the base has
            // and the current lacks was removed, the converse added.
            let mut added = Vec::new();
            let mut removed = Vec::new();
            let (mut i, mut j) = (0, 0);
            while i < base_list.len() && j < cur_list.len() {
                match base_list[i].cmp(&cur_list[j]) {
                    std::cmp::Ordering::Less => {
                        removed.push(base_list[i]);
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        added.push(cur_list[j]);
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        i += 1;
                        j += 1;
                    }
                }
            }
            removed.extend_from_slice(&base_list[i..]);
            added.extend_from_slice(&cur_list[j..]);
            if slot < base_n && cur_alive == base_alive && added.is_empty() && removed.is_empty() {
                continue;
            }
            changed.push(SlotDiff {
                slot,
                alive: cur_alive,
                added,
                removed,
            });
        }
        Some(GraphDiff {
            new_slots: cur_n,
            new_live: current.num_live_vertices(),
            new_edges: current.num_edges(),
            changed,
        })
    }

    /// Whether the diff rewrites no slots (the bookkeeping totals then
    /// necessarily match the base's).
    pub fn is_empty(&self) -> bool {
        self.changed.is_empty()
    }

    /// Resolves every changed slot's final neighbour list against `base`,
    /// validating the full invariant list along the way. This is the
    /// trust boundary: nothing escapes un-checked, and the caller gets
    /// materialised lists the mutation pass can install infallibly.
    fn resolve_against(&self, base: &DynGraph) -> Result<Vec<ResolvedSlot>, DecodeError> {
        let base_n = base.num_vertices();
        if self.new_slots < base_n {
            return Err(DecodeError::Corrupt("graph diff shrinks the slot space"));
        }
        // Changed slots: strictly ascending, in range.
        let mut prev: Option<usize> = None;
        for entry in &self.changed {
            if entry.slot >= self.new_slots {
                return Err(DecodeError::Corrupt("diff slot out of range"));
            }
            if prev.is_some_and(|p| p >= entry.slot) {
                return Err(DecodeError::Corrupt("diff slots not strictly ascending"));
            }
            prev = Some(entry.slot);
        }
        let entry_index = |slot: usize| -> Option<usize> {
            self.changed.binary_search_by_key(&slot, |e| e.slot).ok()
        };
        // Every newborn slot must be described by the diff (its liveness
        // and adjacency are otherwise unknowable).
        for slot in base_n..self.new_slots {
            if entry_index(slot).is_none() {
                return Err(DecodeError::Corrupt("newborn slot missing from the diff"));
            }
        }
        // First pass: per-slot local checks, and materialise each changed
        // slot's final list by merging the base list with the edits.
        let mut resolved = Vec::with_capacity(self.changed.len());
        let mut degree_delta: i64 = 0;
        let mut live_delta: i64 = 0;
        for entry in &self.changed {
            let slot = entry.slot;
            let base_alive = slot < base_n && base.is_vertex(slot as VertexId);
            let base_list: &[VertexId] = if slot < base_n {
                base.neighbors(slot as VertexId)
            } else {
                &[]
            };
            if slot < base_n && !base_alive && entry.alive {
                return Err(DecodeError::Corrupt(
                    "diff resurrects a tombstone (ids are never reused)",
                ));
            }
            let ascending = |list: &[VertexId]| list.windows(2).all(|w| w[0] < w[1]);
            if !ascending(&entry.added) || !ascending(&entry.removed) {
                return Err(DecodeError::Corrupt(
                    "diff adjacency edits not strictly ascending",
                ));
            }
            for &w in &entry.added {
                let wi = w as usize;
                if wi >= self.new_slots {
                    return Err(DecodeError::Corrupt("diff adjacency endpoint out of range"));
                }
                if wi == slot {
                    return Err(DecodeError::Corrupt("diff adjacency holds a self loop"));
                }
                if base_list.binary_search(&w).is_ok() {
                    return Err(DecodeError::Corrupt(
                        "diff adds an edge the base already has",
                    ));
                }
            }
            for &w in &entry.removed {
                if base_list.binary_search(&w).is_err() {
                    return Err(DecodeError::Corrupt(
                        "diff removes an edge the base does not have",
                    ));
                }
            }
            // Merge: (base \ removed) ∪ added. Both edit lists are sorted
            // and anchored to the base list, so the result stays strictly
            // ascending without re-sorting.
            let mut neighbors =
                Vec::with_capacity(base_list.len() + entry.added.len() - entry.removed.len());
            let mut removed_it = entry.removed.iter().peekable();
            let mut added_it = entry.added.iter().peekable();
            for &w in base_list {
                if removed_it.peek() == Some(&&w) {
                    removed_it.next();
                    continue;
                }
                while let Some(&&a) = added_it.peek() {
                    if a < w {
                        neighbors.push(a);
                        added_it.next();
                    } else {
                        break;
                    }
                }
                neighbors.push(w);
            }
            neighbors.extend(added_it.copied());
            if !entry.alive && !neighbors.is_empty() {
                return Err(DecodeError::Corrupt("dead diff slot retains adjacency"));
            }
            degree_delta += entry.added.len() as i64 - entry.removed.len() as i64;
            live_delta += i64::from(entry.alive) - i64::from(base_alive);
            resolved.push(ResolvedSlot {
                slot,
                alive: entry.alive,
                neighbors,
            });
        }
        // Second pass: cross-slot checks against the final state. Edges
        // untouched by any edit stay symmetric because the base was; only
        // the edited ones need their counterpart verified.
        let final_alive = |slot: usize| -> bool {
            match entry_index(slot) {
                Some(i) => resolved[i].alive,
                None => base.is_vertex(slot as VertexId),
            }
        };
        let final_has = |slot: usize, w: VertexId| -> bool {
            match entry_index(slot) {
                Some(i) => resolved[i].neighbors.binary_search(&w).is_ok(),
                None => base.neighbors(slot as VertexId).binary_search(&w).is_ok(),
            }
        };
        for entry in &self.changed {
            let v = entry.slot as VertexId;
            for &w in &entry.added {
                if !final_alive(w as usize) {
                    return Err(DecodeError::Corrupt(
                        "diff adjacency endpoint is dead in the final state",
                    ));
                }
                if !final_has(w as usize, v) {
                    return Err(DecodeError::Corrupt("diff adjacency is asymmetric"));
                }
            }
            // Removed-edge closure: the other endpoint must drop the edge
            // too, or it would retain the asymmetric half.
            for &w in &entry.removed {
                if final_has(w as usize, v) {
                    return Err(DecodeError::Corrupt(
                        "removed edge's other endpoint missing from the diff",
                    ));
                }
            }
        }
        // Both endpoints of every added and removed edge record the edit
        // (the symmetry + closure checks above), so the summed degree
        // delta counts each exactly twice.
        if degree_delta % 2 != 0 {
            return Err(DecodeError::Corrupt("diff edge accounting is inconsistent"));
        }
        let expected_edges = base.num_edges() as i64 + degree_delta / 2;
        if expected_edges != self.new_edges as i64 {
            return Err(DecodeError::Corrupt(
                "diff edge count does not match its adjacency",
            ));
        }
        let expected_live = base.num_live_vertices() as i64 + live_delta;
        if expected_live != self.new_live as i64 {
            return Err(DecodeError::Corrupt(
                "diff live count does not match its liveness flags",
            ));
        }
        Ok(resolved)
    }

    /// Applies the diff to `base`, turning it into the final state.
    ///
    /// Resolution (validation + final-list materialisation) runs first
    /// and the mutation pass is infallible, so a rejected diff leaves
    /// `base` exactly as it was.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Corrupt`] from the resolution pass.
    pub fn apply_to(&self, base: &mut DynGraph) -> Result<(), DecodeError> {
        let resolved = self.resolve_against(base)?;
        base.apply_validated_diff(self.new_slots, &resolved, self.new_live, self.new_edges);
        Ok(())
    }
}

impl Encode for SlotDiff {
    fn encode(&self, enc: &mut Encoder) {
        self.slot.encode(enc);
        self.alive.encode(enc);
        self.added.encode(enc);
        self.removed.encode(enc);
    }
}

impl Decode for SlotDiff {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(SlotDiff {
            slot: usize::decode(dec)?,
            alive: bool::decode(dec)?,
            added: Vec::decode(dec)?,
            removed: Vec::decode(dec)?,
        })
    }
}

impl Encode for GraphDiff {
    fn encode(&self, enc: &mut Encoder) {
        self.new_slots.encode(enc);
        self.new_live.encode(enc);
        self.new_edges.encode(enc);
        self.changed.encode(enc);
    }
}

impl Decode for GraphDiff {
    /// Structural validation that needs the base graph runs in
    /// [`GraphDiff::apply_to`]; decoding checks only what the bytes alone
    /// can prove.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let new_slots = usize::decode(dec)?;
        let new_live = usize::decode(dec)?;
        let new_edges = usize::decode(dec)?;
        let len = decode_len(dec, 4)?;
        let mut changed = Vec::with_capacity(len.min(dec.remaining()));
        for _ in 0..len {
            changed.push(SlotDiff::decode(dec)?);
        }
        Ok(GraphDiff {
            new_slots,
            new_live,
            new_edges,
            changed,
        })
    }
}
