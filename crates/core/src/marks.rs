//! The single touch point between a partitioner mutation and its slot
//! records.
//!
//! The decision sweep visits only *sweep-dirty* slots and an incremental
//! checkpoint re-encodes only *checkpoint-changed* ones, so both are
//! exactly as correct as the marking at every mutation site. The sites
//! therefore never see the records: they report the **fact** that occurred
//! — an edge gained or lost with its far endpoint, a neighbour relabelled
//! with its class, a vertex retired with its margin or refused with its
//! candidates — and [`SlotMarks`] turns it into the right combination of
//! marks. "Dirtied its own state but forgot the checkpoint record" cannot
//! be written.
//!
//! The checkpoint record is also a [`Journal`]: the verb that first marks
//! a slot changed since the durable root copies what the slot was there,
//! so an incremental checkpoint needs no second graph to diff against.
//!
//! # What a slot's last evaluation proved
//!
//! Besides the two bitmaps, each slot keeps what its last evaluation
//! proved, so the sweep re-reads only what changed:
//!
//! * A **retired** slot (it decided *Stay*) keeps its *stay margin*: a
//!   saturating `u8` lower bound on `home count (+ self) − best foreign
//!   count`, reported by the kernel from the walk it already does. Every
//!   event in its view spends the bound by the most that event can move the
//!   tally — a foreign edge gained −1, a home edge gained +1, a home edge
//!   lost −1, a foreign edge lost 0, a neighbour relabelled away from home
//!   −2, into home +1, between two foreign partitions −1 — and the slot
//!   re-enters the sweep only when the bound goes negative. While the bound
//!   holds, *Stay* still wins, so skipping the slot is exact.
//! * A slot whose proposal quota refused after a fresh walk is *parked*:
//!   it leaves the sweep with its *candidate memo* — the best-count foreign
//!   partitions in first-occurrence order — and waits, ordered by id, in the
//!   queue of every pair `(home, candidate)` it could move by. Admission
//!   reads a queue only while its pair has budget, and a parked slot it
//!   reaches is evaluated from its memo: the willingness roll plus the
//!   kernel's tie-break over that list, draw for draw what a fresh walk
//!   would do, with no neighbour read. A parked slot admission does not
//!   reach would have been refused whatever it drew. Any event in its view
//!   — an edge gained or lost, a neighbour relabelled (even into home: its
//!   margin byte means nothing), its own relabel, a mass move — drops the
//!   memo and returns it to the sweep.
//!
//! The parked slots are exactly the memo-holders, disjoint from the sweep,
//! and a margin is read only for a slot in neither. Margins, memos and
//! queues start empty and grow on first write; restore starts from the
//! saturated record, which needs none of them. Queue entries of unparked
//! slots are deleted lazily: admission skips them and drops the ones it
//! passed, and the queues are compacted once such entries outnumber the
//! live ones.
//!
//! An iteration's relabel events are folded as one set: per neighbour the
//! deltas are summed — gains first, saturating, then losses — and the
//! neighbour re-enters iff the sum takes its margin negative (a parked one
//! on any event). The result does not depend on event order, so the serial
//! and the sharded apply leave the same active set. An iteration that moves
//! a large share of the graph (a *mass move*, the partitioner decides)
//! skips the margins instead: every neighbour of a migrant re-enters and
//! every parked slot is unparked, which is conservative and costs one mark
//! per event.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeMap, BinaryHeap};

use apg_exec::ActiveSet;
use apg_graph::{DynGraph, Graph, VertexId};
use apg_partition::{PartitionId, Partitioning};

/// One neighbour relabel, as seen by the neighbour: four bytes — the slot
/// in the low 30 bits, what the relabel can take from its margin (0, 1 or
/// 2) in the top two — so an apply shard's events cost what its old slot
/// lists did. Whether it is a gain (a move into the slot's partition) is
/// where it sits in its [`RelabelBuffer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Relabel(u32);

/// Slots at or above this cannot be packed into a [`Relabel`].
pub(crate) const RELABEL_SLOT_LIMIT: usize = 1 << 30;

impl Relabel {
    #[inline]
    fn slot(self) -> usize {
        (self.0 & (RELABEL_SLOT_LIMIT as u32 - 1)) as usize
    }

    /// The margin a loss takes.
    #[inline]
    fn cost(self) -> i32 {
        (self.0 >> 30) as i32
    }
}

/// The relabels one apply shard saw, recorded the way the iteration folds
/// them.
#[derive(Debug)]
pub(crate) enum Relabels {
    /// Events that spend margins.
    Margins(RelabelBuffer),
    /// A mass move's (see [`SlotMarks::neighbours_relabelled`]): just the
    /// slots that saw one.
    EnMasse(Vec<VertexId>),
}

impl Relabels {
    /// Room for `reads` relabels — one per neighbour the shard reads.
    pub(crate) fn with_reads(reads: usize, en_masse: bool) -> Self {
        if en_masse {
            Relabels::EnMasse(Vec::with_capacity(reads))
        } else {
            Relabels::Margins(RelabelBuffer::with_reads(reads))
        }
    }

    /// Records what `slot`, labelled `home`, saw of a neighbour moving
    /// `from` → `to`. Spending margins, the event is kept only if `wanted`
    /// says so (asked only then); en masse, the slot is.
    #[inline]
    pub(crate) fn record(
        &mut self,
        slot: VertexId,
        home: PartitionId,
        from: PartitionId,
        to: PartitionId,
        wanted: impl FnOnce() -> bool,
    ) {
        match self {
            Relabels::Margins(buffer) => buffer.record(slot, home, from, to, wanted()),
            Relabels::EnMasse(slots) => slots.push(slot),
        }
    }

    fn margins(&self) -> Option<&RelabelBuffer> {
        match self {
            Relabels::Margins(buffer) => Some(buffer),
            Relabels::EnMasse(_) => None,
        }
    }
}

/// One apply shard's relabel events in one buffer sized to the shard's
/// neighbour reads: gains (+1) fill it from the front, losses (−1 or −2)
/// from the back, and an unwanted event is written to the free middle and
/// not counted — so recording an event takes no branch on its class or on
/// whether it is wanted, and the fold walks each half once.
#[derive(Debug)]
pub(crate) struct RelabelBuffer {
    events: Vec<Relabel>,
    gains: usize,
    losses: usize,
}

impl RelabelBuffer {
    /// Room for `reads` events — one per neighbour the shard reads.
    fn with_reads(reads: usize) -> Self {
        RelabelBuffer {
            events: vec![Relabel(0); reads],
            gains: 0,
            losses: reads,
        }
    }

    /// Records what `slot`, labelled `home`, saw of a neighbour moving
    /// `from` → `to`, if `wanted`. At most one call per read: the free
    /// middle is never empty while a read is left.
    #[inline]
    fn record(
        &mut self,
        slot: VertexId,
        home: PartitionId,
        from: PartitionId,
        to: PartitionId,
        wanted: bool,
    ) {
        debug_assert!((slot as usize) < RELABEL_SLOT_LIMIT);
        // Away from home costs 2, between two foreign partitions 1, into
        // home is a gain (from ≠ to, so at most one of the two holds).
        let (away, gain) = (u32::from(from == home), to == home);
        let cost = (1 + away) * u32::from(!gain);
        let at = if gain { self.gains } else { self.losses - 1 };
        self.events[at] = Relabel(slot | cost << 30);
        self.gains += usize::from(wanted & gain);
        self.losses -= usize::from(wanted & !gain);
    }

    fn gains(&self) -> &[Relabel] {
        &self.events[..self.gains]
    }

    fn losses(&self) -> &[Relabel] {
        &self.events[self.losses..]
    }
}

/// The live graph and labels a verb reads a slot's pre-image from.
pub(crate) type Live<'a> = (&'a DynGraph, &'a Partitioning);

/// What each slot changed since the durable root was there — its label
/// and neighbour list — recorded on its first change. Only live slots
/// change. Cleared in place, capacity kept.
#[derive(Debug, Clone, Default)]
pub(crate) struct Journal {
    /// The root's slot count; slots born since need no pre-image. Zero
    /// until there is a root, so a saturated record journals nothing.
    root_slots: usize,
    /// Per journalled slot, in journal order: `(slot, label, end of its
    /// list in lists)`.
    entries: Vec<(usize, PartitionId, usize)>,
    lists: Vec<VertexId>,
    /// `slot` → its index in `entries`, valid while that entry names the
    /// slot back (so clearing never touches it).
    index: Vec<u32>,
}

impl Journal {
    /// Journals `slot` as `live` holds it, unless it was born since the
    /// root. An event that changed the edge to `w` passes `Some((w, had))`:
    /// the slot had that edge before iff `had`, whether or not `live`
    /// shows the event yet.
    fn record(&mut self, slot: usize, (graph, labels): Live<'_>, edge: Option<(VertexId, bool)>) {
        if slot >= self.root_slots {
            return;
        }
        let list = graph.neighbors(slot as VertexId);
        match edge {
            None => self.lists.extend_from_slice(list),
            Some((w, had)) => {
                let (below, rest) = list.split_at(list.partition_point(|&x| x < w));
                self.lists.extend_from_slice(below);
                self.lists.extend(had.then_some(w));
                self.lists
                    .extend_from_slice(rest.strip_prefix(&[w]).unwrap_or(rest));
            }
        }
        self.index.resize(self.index.len().max(self.root_slots), 0);
        self.index[slot] = self.entries.len() as u32;
        let label = labels.partition_of(slot as VertexId);
        self.entries.push((slot, label, self.lists.len()));
    }

    /// `slot`'s label and neighbour list at the root, if journalled.
    pub(crate) fn pre_image(&self, slot: usize) -> Option<(PartitionId, &[VertexId])> {
        let i = *self.index.get(slot)? as usize;
        let &(_, label, end) = self.entries.get(i).filter(|e| e.0 == slot)?;
        let start = i.checked_sub(1).map_or(0, |prev| self.entries[prev].2);
        Some((label, &self.lists[start..end]))
    }
}

/// The sweep record, the checkpoint record with its journal, and what each
/// slot's last evaluation proved, over the vertex slot range.
#[derive(Debug, Clone)]
pub(crate) struct SlotMarks {
    /// Slots the next decision sweep must visit.
    sweep: ActiveSet,
    /// Slots whose own state (liveness, adjacency or label) mutated since
    /// the last [`SlotMarks::checkpointed`].
    changed: ActiveSet,
    /// What the `changed` slots below the root were at the root.
    pub(crate) journal: Journal,
    /// Stay margins, meaningful for retired live slots only; grows on the
    /// first retirement past its end.
    margins: Vec<u8>,
    /// Refused proposers waiting out of the sweep, with their memos.
    parked: Parked,
}

impl SlotMarks {
    /// The record for a fresh or restored partitioner: every live vertex
    /// owes the sweep an evaluation (exact — one the original had retired
    /// just decides *Stay* again), and with no checkpoint base to diff
    /// against yet every slot counts as changed, which journals nothing.
    /// Marked by words, then the tombstones cleared. Nothing is parked.
    pub(crate) fn saturated(graph: &DynGraph) -> Self {
        let n = graph.num_vertices();
        let mut sweep = ActiveSet::with_default_shards(n);
        sweep.mark_all();
        if graph.num_live_vertices() < n {
            for slot in (0..n).filter(|&v| !graph.is_vertex(v as VertexId)) {
                sweep.clear(slot);
            }
        }
        let mut changed = ActiveSet::with_default_shards(n);
        changed.mark_all();
        SlotMarks {
            sweep,
            changed,
            journal: Journal::default(),
            margins: Vec::new(),
            parked: Parked::empty(),
        }
    }

    /// `slot` is a newly inserted vertex (the slot range grows to cover
    /// it): it owes a first evaluation and no checkpoint base knows it.
    pub(crate) fn born(&mut self, slot: usize) {
        self.sweep.grow_to(slot + 1);
        self.changed.grow_to(slot + 1);
        self.sweep.mark(slot);
        self.changed.mark(slot);
    }

    /// `slot` is about to change label (it migrates): its whole view
    /// moves, and a checkpoint must re-encode it.
    #[inline]
    pub(crate) fn relabelled(&mut self, slot: usize, live: Live<'_>) {
        self.parked.drop(slot);
        self.sweep.mark(slot);
        self.change(slot, live, None);
    }

    /// `slot` gained the edge to `other`.
    #[inline]
    pub(crate) fn edge_gained(&mut self, slot: usize, other: VertexId, live: Live<'_>) {
        let home = live.1.partition_of(slot as VertexId) == live.1.partition_of(other);
        self.change(slot, live, Some((other, false)));
        self.spend(slot, if home { 1 } else { -1 });
    }

    /// `slot` lost the edge to `other`.
    #[inline]
    pub(crate) fn edge_lost(&mut self, slot: usize, other: VertexId, live: Live<'_>) {
        let home = live.1.partition_of(slot as VertexId) == live.1.partition_of(other);
        self.change(slot, live, Some((other, true)));
        self.spend(slot, if home { -1 } else { 0 });
    }

    /// Whether a relabel seen by `slot` would change anything: it does
    /// unless `slot` is already awaiting the sweep (which holds no memo).
    /// Reads only the sweep bitmap, so the apply fan-out may ask while the
    /// records are frozen.
    #[inline]
    pub(crate) fn wants_relabel(&self, slot: usize) -> bool {
        !self.sweep.contains(slot)
    }

    /// One iteration's neighbour relabels, folded as one set (see the
    /// module docs): each affected slot's margin takes the sum of its
    /// events, gains applied before losses, and the slot re-enters the
    /// sweep iff that sum is negative; a parked slot re-enters on any
    /// event. Neither the order of `relabels` nor the order within them
    /// matters. A parked slot's margin is meaningless (retiring rewrites
    /// it), so the fold updates every slot's byte alike instead of asking
    /// first.
    ///
    /// A mass move's relabels skip the margins: every slot that saw one
    /// re-enters the sweep and every parked slot is unparked. Conservative,
    /// so exact, and one bitmap mark per neighbour read — when a large
    /// share of the graph moves, most of its neighbours would be
    /// re-evaluated anyway and spending margins costs more than the walks
    /// it saves.
    pub(crate) fn neighbours_relabelled<'a, R>(&mut self, relabels: R)
    where
        R: IntoIterator<Item = &'a Relabels> + Clone,
    {
        let mut en_masse = false;
        for relabels in relabels.clone() {
            if let Relabels::EnMasse(slots) = relabels {
                en_masse = true;
                for &slot in slots {
                    self.sweep.mark(slot as usize);
                }
            }
        }
        if en_masse {
            for slot in self.parked.slots() {
                self.sweep.mark(slot);
            }
            self.parked.forget_all();
            return;
        }
        let buffers = || relabels.clone().into_iter().filter_map(Relabels::margins);
        if self.margins.len() < self.sweep.len() {
            self.margins.resize(self.sweep.len(), 0);
        }
        for buffer in buffers() {
            for &event in buffer.gains() {
                let slot = event.slot();
                self.margins[slot] = self.margins[slot].saturating_add(1);
                self.unpark(slot);
            }
        }
        for buffer in buffers() {
            for &event in buffer.losses() {
                let slot = event.slot();
                let margin = i32::from(self.margins[slot]) - event.cost();
                self.margins[slot] = margin.max(0) as u8;
                if margin < 0 {
                    self.sweep.mark(slot);
                }
                self.unpark(slot);
            }
        }
    }

    /// `slot` is about to become a tombstone: a checkpoint change that
    /// leaves the sweep.
    pub(crate) fn tombstoned(&mut self, slot: usize, live: Live<'_>) {
        self.parked.drop(slot);
        self.sweep.clear(slot);
        self.change(slot, live, None);
    }

    /// The sweep evaluated `slot` to a stable *Stay*, `margin` ahead of its
    /// best foreign partition.
    #[inline]
    pub(crate) fn retired(&mut self, slot: usize, margin: u8) {
        debug_assert!(!self.parked.holds(slot), "parked slot {slot} retired");
        if slot >= self.margins.len() {
            self.margins.resize(self.sweep.len(), 0);
        }
        self.margins[slot] = margin;
        self.sweep.clear(slot);
    }

    /// Quota refused `slot`'s proposal, drawn by a fresh walk from
    /// `candidates` while labelled `home`: the slot is parked — it leaves
    /// the sweep and keeps the list until its view changes. A slot already
    /// parked (the exhaustive reference walks them too) keeps its memo,
    /// which equals `candidates`.
    #[inline]
    pub(crate) fn refused(&mut self, slot: usize, home: PartitionId, candidates: &[PartitionId]) {
        if self.parked.holds(slot) {
            debug_assert_eq!(self.parked.memo(slot), Some(candidates));
            return;
        }
        debug_assert!(self.sweep.contains(slot), "refused slot {slot} is retired");
        self.sweep.clear(slot);
        self.parked.hold(slot, home, candidates, self.sweep.len());
    }

    /// The admissions of one iteration are done, and the merge over the
    /// parked queues passed the `passed` leading entries of each (see
    /// [`ParkedMerge::finish`]): drop the stale ones among those, order the
    /// queues again, and reclaim memo and queue space once most of it is
    /// stale.
    pub(crate) fn parked_settled(&mut self, passed: &[(Pair, usize)]) {
        self.parked.settle(passed);
    }

    /// `slot`'s candidate memo, if it is parked.
    #[inline]
    pub(crate) fn memo(&self, slot: usize) -> Option<&[PartitionId]> {
        self.parked.memo(slot)
    }

    /// Whether `slot` is parked.
    #[inline]
    pub(crate) fn is_parked(&self, slot: usize) -> bool {
        self.parked.holds(slot)
    }

    /// Parked slots.
    pub(crate) fn num_parked(&self) -> usize {
        self.parked.held.num_active()
    }

    /// Admission's ascending walk over the parked queues (see
    /// [`ParkedMerge`]).
    pub(crate) fn parked_merge(&self) -> ParkedMerge<'_> {
        let queues: Vec<_> = self
            .parked
            .queues
            .iter()
            .filter(|(_, queue)| !queue.slots.is_empty())
            .map(|(&pair, queue)| (pair, queue.slots.as_slice(), 0))
            .collect();
        let heads = queues
            .iter()
            .enumerate()
            .map(|(q, (_, slots, _))| Reverse((slots[0], q)))
            .collect();
        ParkedMerge {
            parked: &self.parked,
            queues,
            heads,
            last: None,
        }
    }

    /// The stay margin recorded for `slot`, a retired live slot.
    pub(crate) fn margin(&self, slot: usize) -> u8 {
        debug_assert!(!self.sweep.contains(slot), "slot {slot} is active");
        debug_assert!(!self.parked.holds(slot), "slot {slot} is parked");
        self.margins[slot]
    }

    /// The current state just became (or was just restored from) the
    /// durable checkpoint base: nothing has changed relative to it, and the
    /// journal starts over relative to it.
    pub(crate) fn checkpointed(&mut self) {
        self.changed.clear_all();
        self.journal.root_slots = self.changed.len();
        self.journal.entries.clear();
        self.journal.lists.clear();
    }

    /// Read-only view of the sweep-dirty set, for scheduling the sweep.
    pub(crate) fn sweep(&self) -> &ActiveSet {
        &self.sweep
    }

    /// The checkpoint-changed slots, ascending.
    pub(crate) fn changed_slots(&self) -> Vec<usize> {
        let mut slots = Vec::with_capacity(self.changed.num_active());
        slots.extend(self.changed.iter());
        slots
    }

    /// Parked slots, ascending.
    pub(crate) fn parked_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.parked.slots()
    }

    /// Audits the records against `graph` and its `labels`: exact internal
    /// counts, full slot coverage, no tombstone awaiting a sweep or parked,
    /// parked slots disjoint from the sweep, each parked at its current
    /// label and reachable from the queue of every pair its memo names.
    /// (Whether each margin and memo is *true* needs a walk; the
    /// partitioner's audit checks that.)
    ///
    /// # Panics
    ///
    /// Panics when an invariant is violated.
    pub(crate) fn audit(&self, graph: &DynGraph, labels: &Partitioning) {
        for set in [&self.sweep, &self.changed] {
            set.audit();
            assert_eq!(
                set.len(),
                graph.num_vertices(),
                "slot marks do not cover the slot range"
            );
        }
        for slot in self.sweep.iter() {
            assert!(
                graph.is_vertex(slot as VertexId),
                "tombstone {slot} lingering in the active set"
            );
        }
        for slot in self.parked.slots() {
            assert!(
                !self.sweep.contains(slot),
                "parked slot {slot} is also in the sweep"
            );
            assert!(graph.is_vertex(slot as VertexId), "tombstone {slot} parked");
            let home = self.parked.entry(slot).expect("held")[1];
            assert_eq!(
                home,
                labels.partition_of(slot as VertexId),
                "slot {slot} parked away from its label"
            );
        }
        self.parked.audit();
    }

    /// Marks `slot` changed, journalling what it was if this is its first
    /// change since the root.
    #[inline]
    fn change(&mut self, slot: usize, live: Live<'_>, edge: Option<(VertexId, bool)>) {
        if self.changed.mark(slot) {
            self.journal.record(slot, live, edge);
        }
    }

    /// Spends `delta` of `slot`'s margin: a slot awaiting the sweep has
    /// nothing to spend and a parked one is unparked (its view changed); a
    /// retired one re-enters the sweep when the margin would go negative.
    #[inline]
    fn spend(&mut self, slot: usize, delta: i32) {
        if self.sweep.contains(slot) || self.unpark(slot) {
            return;
        }
        let margin = i32::from(self.margins[slot]) + delta;
        if margin < 0 {
            self.sweep.mark(slot);
        } else {
            self.margins[slot] = margin.min(i32::from(u8::MAX)) as u8;
        }
    }

    /// Returns `slot` to the sweep if it is parked; whether it was.
    #[inline]
    fn unpark(&mut self, slot: usize) -> bool {
        let parked = self.parked.drop(slot);
        if parked {
            self.sweep.mark(slot);
        }
        parked
    }
}

/// A `(from, to)` quota pair: a parked slot's home and one of its
/// candidates.
pub(crate) type Pair = (PartitionId, PartitionId);

/// The parked slots: which they are, their memos, and the queue of each
/// pair they could move by. Everything starts empty and grows on first
/// write.
#[derive(Debug, Clone)]
struct Parked {
    /// Which slots are parked.
    held: ActiveSet,
    /// Where `slot`'s memo starts in `lists` (meaningful while held).
    at: Vec<u32>,
    /// Each memo as `[len, home, candidates…]`; the entries of dropped
    /// memos are garbage until the next compaction.
    lists: Vec<PartitionId>,
    /// Entries of `lists` owned by held memos.
    live: usize,
    /// Per pair, the slots parked on it; entries of unparked slots linger
    /// until a merge passes them or the queues are compacted.
    queues: BTreeMap<Pair, Queue>,
    /// Queue entries owned by parked slots: their memo lengths, summed.
    queued: usize,
}

/// One pair's queue.
#[derive(Debug, Clone, Default)]
struct Queue {
    /// Parked slots, strictly ascending up to `sorted`; the entries after
    /// it were parked since the queue was last settled, ascending too (one
    /// admission parks in vertex order).
    slots: Vec<VertexId>,
    sorted: usize,
}

impl Queue {
    /// Queues `slot` unless an entry left from an earlier parking on this
    /// pair, not yet compacted away, already stands for it.
    fn park(&mut self, slot: VertexId) {
        let sorted = &self.slots[..self.sorted];
        if sorted.last() < Some(&slot) || sorted.binary_search(&slot).is_err() {
            self.slots.push(slot);
        }
    }

    /// Merges the entries parked since the last settle into the ascending
    /// prefix, from the back: each moves the block of larger entries past
    /// it once, so a newborn's entry — the largest id — costs one write.
    fn settle(&mut self) {
        let mut tail = self.slots.split_off(self.sorted);
        tail.sort_unstable();
        let (mut sorted, mut end) = (self.sorted, self.sorted + tail.len());
        self.slots.resize(end, 0);
        for &slot in tail.iter().rev() {
            let at = self.slots[..sorted].partition_point(|&s| s < slot);
            self.slots.copy_within(at..sorted, end - (sorted - at));
            end -= sorted - at + 1;
            sorted = at;
            self.slots[end] = slot;
        }
        self.sorted = self.slots.len();
    }
}

/// Garbage below which memo and queue space is never compacted.
const MEMO_COMPACT_FLOOR: usize = 4096;

impl Parked {
    fn empty() -> Self {
        Parked {
            held: ActiveSet::with_default_shards(0),
            at: Vec::new(),
            lists: Vec::new(),
            live: 0,
            queues: BTreeMap::new(),
            queued: 0,
        }
    }

    #[inline]
    fn holds(&self, slot: usize) -> bool {
        slot < self.held.len() && self.held.contains(slot)
    }

    /// `slot`'s memo as `[len, home, candidates…]`, if held.
    #[inline]
    fn entry(&self, slot: usize) -> Option<&[PartitionId]> {
        if !self.holds(slot) {
            return None;
        }
        let start = self.at[slot] as usize;
        Some(&self.lists[start..start + 2 + self.lists[start] as usize])
    }

    #[inline]
    fn memo(&self, slot: usize) -> Option<&[PartitionId]> {
        self.entry(slot).map(|entry| &entry[2..])
    }

    /// Whether `slot` is parked on `pair`: held, home `pair.0`, and `pair.1`
    /// among its candidates.
    fn is_queued(&self, slot: usize, (home, to): Pair) -> bool {
        self.entry(slot)
            .is_some_and(|entry| entry[1] == home && entry[2..].contains(&to))
    }

    /// Parks `slot` (of a range of `slots`) at `home` with `candidates`.
    fn hold(&mut self, slot: usize, home: PartitionId, candidates: &[PartitionId], slots: usize) {
        debug_assert!(!candidates.is_empty() && slot < slots && !self.holds(slot));
        if slot >= self.at.len() {
            self.held.grow_to(slots);
            self.at.resize(slots, 0);
        }
        self.held.mark(slot);
        self.at[slot] = u32::try_from(self.lists.len()).expect("memo space over 4G entries");
        // A candidate list never holds the home partition, so its length
        // is below `k` and fits a partition id.
        self.lists.push(candidates.len() as PartitionId);
        self.lists.push(home);
        self.lists.extend_from_slice(candidates);
        self.live += 2 + candidates.len();
        self.queued += candidates.len();
        for &to in candidates {
            self.queues
                .entry((home, to))
                .or_default()
                .park(slot as VertexId);
        }
    }

    /// Unparks `slot`; whether it was parked. Its queue entries go stale.
    #[inline]
    fn drop(&mut self, slot: usize) -> bool {
        if slot < self.held.len() && self.held.clear(slot) {
            let len = self.lists[self.at[slot] as usize] as usize;
            self.live -= 2 + len;
            self.queued -= len;
            true
        } else {
            false
        }
    }

    fn forget_all(&mut self) {
        self.held.clear_all();
        self.lists.clear();
        self.live = 0;
        self.queues.clear();
        self.queued = 0;
    }

    fn slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.held.iter()
    }

    /// Drops the stale entries among each queue's `passed` leading ones,
    /// merges each queue's newly parked tail into its order, then rebuilds
    /// the queues once stale entries outnumber live ones, and `lists` from
    /// the held memos once garbage outweighs them.
    fn settle(&mut self, passed: &[(Pair, usize)]) {
        let mut queues = std::mem::take(&mut self.queues);
        // Stale entries sit where the merge starts reading — unparked
        // slots are mostly admitted ones, the lowest ids of their pairs —
        // so the ones a merge passed go now, before the next merge passes
        // them again.
        for &(pair, passed) in passed {
            let queue = queues.get_mut(&pair).expect("a merged queue");
            let mut kept = 0;
            for i in 0..passed {
                let slot = queue.slots[i];
                if self.is_queued(slot as usize, pair) {
                    queue.slots[kept] = slot;
                    kept += 1;
                }
            }
            queue.slots.drain(kept..passed);
            queue.sorted -= passed - kept;
        }
        let mut entries = 0;
        for queue in queues.values_mut() {
            queue.settle();
            entries += queue.slots.len();
        }
        let stale = entries - self.queued;
        if stale > MEMO_COMPACT_FLOOR && stale > self.queued {
            queues.retain(|&pair, queue| {
                queue
                    .slots
                    .retain(|&slot| self.is_queued(slot as usize, pair));
                queue.sorted = queue.slots.len();
                !queue.slots.is_empty()
            });
        }
        self.queues = queues;
        let garbage = self.lists.len() - self.live;
        if garbage <= MEMO_COMPACT_FLOOR || garbage <= self.live {
            return;
        }
        let mut packed = Vec::with_capacity(self.live);
        for slot in self.held.iter() {
            let start = self.at[slot] as usize;
            let end = start + 2 + self.lists[start] as usize;
            self.at[slot] = packed.len() as u32;
            packed.extend_from_slice(&self.lists[start..end]);
        }
        self.lists = packed;
    }

    fn audit(&self) {
        let owned: usize = self
            .slots()
            .map(|slot| 2 + self.lists[self.at[slot] as usize] as usize)
            .sum();
        assert_eq!(owned, self.live, "memo space accounting drifted");
        let mut queued = 0;
        for slot in self.slots() {
            let entry = self.entry(slot).expect("held");
            for &to in &entry[2..] {
                let reachable = self
                    .queues
                    .get(&(entry[1], to))
                    .is_some_and(|queue| queue.slots.binary_search(&(slot as VertexId)).is_ok());
                assert!(
                    reachable,
                    "parked slot {slot} missing from the queue of ({}, {to})",
                    entry[1]
                );
                queued += 1;
            }
        }
        assert_eq!(queued, self.queued, "queue accounting drifted");
        for (pair, queue) in &self.queues {
            assert_eq!(queue.sorted, queue.slots.len(), "queue {pair:?} unsettled");
            assert!(
                queue.slots.windows(2).all(|w| w[0] < w[1]),
                "queue {pair:?} out of order"
            );
        }
    }
}

/// Admission's walk over the parked queues: every parked slot at least one
/// of whose queues is still live, once each, ascending. A queue drops out
/// for good the first time its pair is found dead — budgets only fall
/// within an iteration — so a slot none of whose queues is live is never
/// read, and a queue is read only while its pair has budget.
#[derive(Debug)]
pub(crate) struct ParkedMerge<'a> {
    parked: &'a Parked,
    /// Each queue: its pair, its entries and how many of them the merge
    /// has passed.
    queues: Vec<(Pair, &'a [VertexId], usize)>,
    /// `(head entry, queue)` of every queue still in the merge, least
    /// first.
    heads: BinaryHeap<Reverse<(VertexId, usize)>>,
    /// The last slot handed out.
    last: Option<VertexId>,
}

impl ParkedMerge<'_> {
    /// The next parked slot past the last one handled that sits at the
    /// head of a queue whose pair `live` still accepts, skipping stale
    /// entries. Asking again without [`ParkedMerge::handled`] returns the
    /// same slot, unless its queues died meanwhile.
    pub(crate) fn peek(
        &mut self,
        live: impl Fn(PartitionId, PartitionId) -> bool,
    ) -> Option<VertexId> {
        while let Some(mut top) = self.heads.peek_mut() {
            let Reverse((slot, q)) = *top;
            let (pair, entries, passed) = &mut self.queues[q];
            if !live(pair.0, pair.1) {
                PeekMut::pop(top);
                continue;
            }
            if self.last.is_some_and(|last| slot <= last)
                || !self.parked.is_queued(slot as usize, *pair)
            {
                *passed += 1;
                match entries.get(*passed) {
                    Some(&next) => *top = Reverse((next, q)),
                    None => {
                        PeekMut::pop(top);
                    }
                }
                continue;
            }
            return Some(slot);
        }
        None
    }

    /// `slot`, the last [`ParkedMerge::peek`], has been handled.
    pub(crate) fn handled(&mut self, slot: VertexId) {
        self.last = Some(slot);
    }

    /// Ends the merge: how many leading entries of each queue it passed,
    /// for [`SlotMarks::parked_settled`].
    pub(crate) fn finish(self) -> Vec<(Pair, usize)> {
        let passed = self.queues.into_iter().filter(|&(_, _, passed)| passed > 0);
        passed.map(|(pair, _, passed)| (pair, passed)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` isolated vertices in partition 0: the live state the verbs of
    /// these tests read (they record events without applying them).
    fn isolated(n: usize) -> (DynGraph, Partitioning) {
        (DynGraph::with_vertices(n), Partitioning::new(n, 3))
    }

    fn retired_path() -> SlotMarks {
        // A 4-vertex path: every slot retired with margin 2.
        let mut g = DynGraph::with_vertices(4);
        for v in 0..3 {
            g.add_edge(v, v + 1);
        }
        let mut marks = SlotMarks::saturated(&g);
        for slot in 0..4 {
            marks.retired(slot, 2);
        }
        marks
    }

    #[test]
    fn a_margin_absorbs_exactly_its_worth_of_foreign_edges() {
        // Slot 3 is foreign to the rest.
        let (graph, mut labels) = isolated(4);
        labels.move_vertex(3, 1);
        let live = (&graph, &labels);
        let mut marks = retired_path();
        marks.checkpointed();
        marks.edge_gained(1, 3, live);
        marks.edge_gained(1, 3, live);
        assert!(!marks.sweep().contains(1), "margin 2 absorbs two");
        assert_eq!(marks.changed_slots(), vec![1], "every edge is a change");
        marks.edge_gained(1, 3, live);
        assert!(marks.sweep().contains(1), "the third spends it");
        // Home gains and foreign losses never reactivate.
        marks.edge_gained(2, 0, live);
        marks.edge_lost(2, 3, live);
        marks.edge_lost(2, 0, live);
        marks.edge_lost(2, 0, live);
        marks.edge_lost(2, 0, live);
        assert!(!marks.sweep().contains(2));
        assert_eq!(marks.margin(2), 0);
    }

    /// `(from, to)` moves as slot 3, labelled 0, sees them.
    const AWAY: (PartitionId, PartitionId) = (0, 1);
    const INTO: (PartitionId, PartitionId) = (1, 0);
    const OTHER: (PartitionId, PartitionId) = (1, 2);

    fn buffer(moves: &[(PartitionId, PartitionId)]) -> Relabels {
        let mut buffer = Relabels::with_reads(moves.len() + 1, false);
        for &(from, to) in moves {
            buffer.record(3, 0, from, to, || true);
        }
        // An unwanted event lands in the middle and is never folded.
        buffer.record(1, 0, 0, 1, || false);
        buffer
    }

    #[test]
    fn relabels_fold_gains_before_losses_in_any_order() {
        let mut orders = Vec::new();
        for moves in [
            [AWAY, INTO, OTHER],
            [INTO, AWAY, OTHER],
            [OTHER, AWAY, INTO],
        ] {
            let mut marks = retired_path();
            // margin 2 + 1 − 2 − 1 = 0: stays retired in every order.
            marks.neighbours_relabelled([&buffer(&moves)]);
            orders.push((marks.sweep().contains(3), marks.margin(3), marks.margin(1)));
        }
        assert_eq!(orders, vec![(false, 0, 2); 3]);
        // Split over two buffers, the sum is the same.
        let mut marks = retired_path();
        marks.neighbours_relabelled([&buffer(&[AWAY]), &buffer(&[INTO])]);
        assert!(!marks.sweep().contains(3));
        assert_eq!(marks.margin(3), 1);
        marks.neighbours_relabelled([&buffer(&[OTHER, INTO]), &buffer(&[AWAY])]);
        assert!(marks.sweep().contains(3), "1 + 1 − 1 − 2 < 0");
    }

    #[test]
    fn a_mass_move_reactivates_without_spending_and_forgets_memos() {
        let mut marks = retired_path();
        marks.born(4);
        marks.refused(4, 0, &[1]);
        assert!(!marks.sweep().contains(4) && marks.is_parked(4));
        let mut en_masse = Relabels::with_reads(1, true);
        en_masse.record(2, 0, 1, 0, || unreachable!("a mass move asks nothing"));
        marks.neighbours_relabelled([&en_masse]);
        assert!(marks.sweep().contains(2), "even a gain reactivates");
        assert!(!marks.sweep().contains(1));
        assert!(marks.sweep().contains(4), "every parked slot re-enters");
        assert_eq!((marks.memo(4), marks.num_parked()), (None, 0));
        marks.parked.audit();
    }

    #[test]
    fn a_gain_only_relabel_unparks_a_parked_neighbour() {
        let mut marks = retired_path();
        marks.born(4);
        marks.refused(4, 0, &[1, 2]);
        assert_eq!(marks.memo(4), Some(&[1, 2][..]));
        // A neighbour moving into slot 4's home only adds to its margin
        // byte, which means nothing while parked: the slot must unpark.
        let mut gain = Relabels::with_reads(1, false);
        gain.record(4, 0, 1, 0, || marks.wants_relabel(4));
        marks.neighbours_relabelled([&gain]);
        assert!(marks.sweep().contains(4), "a gain left the slot parked");
        assert_eq!((marks.memo(4), marks.num_parked()), (None, 0));
        marks.parked_settled(&[]);
        marks.parked.audit();
    }

    #[test]
    fn memos_stand_until_the_view_changes_and_compact_away() {
        let n = 20_000;
        let (graph, labels) = isolated(n);
        let live = (&graph, &labels);
        let mut marks = SlotMarks::saturated(&graph);
        for slot in 0..n {
            marks.refused(slot, 0, &[1, 2]);
        }
        assert_eq!(
            marks.sweep().num_active(),
            0,
            "parked slots leave the sweep"
        );
        assert_eq!(marks.memo(7), Some(&[1, 2][..]));
        marks.edge_lost(7, 0, live);
        assert_eq!(marks.memo(7), None, "any event drops it");
        assert!(marks.sweep().contains(7));
        for slot in (0..n).filter(|s| s % 10 != 0) {
            marks.relabelled(slot, live);
        }
        marks.parked_settled(&[]);
        assert_eq!(marks.parked.lists.len(), marks.parked.live, "compacted");
        for pair in [(0, 1), (0, 2)] {
            assert_eq!(
                marks.parked.queues[&pair].slots.len(),
                n / 10,
                "queue compacted"
            );
        }
        assert_eq!(marks.memo(10), Some(&[1, 2][..]));
        assert_eq!(marks.parked_slots().count(), n / 10);
        marks.tombstoned(20, live);
        assert_eq!(marks.memo(20), None);
        marks.parked_settled(&[]);
        marks.parked.audit();
    }

    #[test]
    fn the_merge_reads_live_queues_once_each_ascending() {
        let (graph, labels) = isolated(8);
        let mut marks = SlotMarks::saturated(&graph);
        marks.refused(1, 0, &[1, 2]);
        marks.refused(3, 0, &[2]);
        marks.refused(5, 0, &[1]);
        marks.refused(6, 1, &[0]);
        marks.relabelled(5, (&graph, &labels));
        marks.parked_settled(&[]);
        // Pair (0, 2) is dead: slot 3 is never read, slot 1 is through
        // (0, 1), and the stale entry of slot 5 is skipped.
        let live = |from, to| (from, to) != (0, 2);
        let mut merge = marks.parked_merge();
        let mut read = Vec::new();
        while let Some(slot) = merge.peek(live) {
            assert_eq!(merge.peek(live), Some(slot), "peeking again moved on");
            merge.handled(slot);
            read.push(slot);
        }
        assert_eq!(read, vec![1, 6]);
    }

    #[test]
    fn a_saturated_record_journals_nothing() {
        let (mut runner, mut source) = crate::persist::growth_runner(2);
        runner.drive(&mut source, 20);
        let p = runner.partitioner();
        assert!(p.graph().num_vertices() > 200 && p.iteration() > 0);
        let journal = p.journal();
        assert_eq!((journal.entries.len(), journal.lists.len()), (0, 0));
        assert_eq!(journal.index.len(), 0, "nothing was ever journalled");
    }

    #[test]
    fn the_journal_holds_exactly_the_changed_slots_below_the_root() {
        use apg_graph::UpdateBatch;
        use apg_streams::StreamSource;
        let mut contents = Vec::new();
        for parallelism in [1, 2, 8] {
            let (mut runner, mut source) = crate::persist::growth_runner(parallelism);
            runner.drive(&mut source, 10);
            let base = runner.checkpoint();
            let graph = &base.state.graph;
            runner.partitioner_mut().clear_changed();
            // An edge the graph already has changes nothing: no mark, no
            // pre-image.
            let (u, w) = graph.edges().next().expect("an edge");
            assert!(!runner.partitioner_mut().add_edge(u, w));
            assert!(runner.partitioner().changed_slots().is_empty());
            assert!(runner.partitioner().journal().entries.is_empty());
            // Churn: tombstones, lost edges, an emptied list, growth and
            // relabels.
            let mut churn = UpdateBatch::new();
            let hub = graph.vertices().max_by_key(|&v| graph.degree(v)).unwrap();
            churn.remove_vertex(hub);
            churn.remove_edge(u, w);
            let lone = graph
                .vertices()
                .filter(|&v| v != hub && graph.degree(v) > 0)
                .min_by_key(|&v| graph.degree(v))
                .unwrap();
            for &x in graph.neighbors(lone) {
                churn.remove_edge(lone, x);
            }
            runner.ingest(&churn);
            runner.drive(&mut source, 5);
            runner.ingest(&source.next_batch().unwrap());

            let p = runner.partitioner();
            let changed = p.changed_slots();
            let journal = p.journal();
            let root = graph.num_vertices();
            assert!(changed.contains(&(hub as usize)) && changed.contains(&(lone as usize)));
            assert!(
                changed.iter().any(|&slot| slot < root
                    && base.state.partitioning.as_slice()[slot]
                        != p.partitioning().as_slice()[slot]),
                "no slot below the root was relabelled"
            );
            for slot in 0..p.graph().num_vertices() {
                let v = slot as VertexId;
                let expected = (slot < root && changed.binary_search(&slot).is_ok()).then(|| {
                    assert!(graph.is_vertex(v), "tombstone {slot} changed");
                    (base.state.partitioning.partition_of(v), graph.neighbors(v))
                });
                assert_eq!(journal.pre_image(slot), expected, "slot {slot}");
            }
            let below_root = changed.partition_point(|&slot| slot < root);
            assert_eq!(journal.entries.len(), below_root);
            contents.push((journal.entries.clone(), journal.lists.clone()));

            // Clearing starts over in place, capacity kept.
            let capacity = journal.lists.capacity();
            runner.partitioner_mut().clear_changed();
            let journal = runner.partitioner().journal();
            assert!(journal.entries.is_empty() && journal.lists.is_empty());
            assert_eq!(journal.lists.capacity(), capacity);
            assert_eq!(journal.pre_image(hub as usize), None);
        }
        assert!(contents.windows(2).all(|pair| pair[0] == pair[1]));
    }
}
