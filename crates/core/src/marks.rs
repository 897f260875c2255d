//! The single touch point between a partitioner mutation and its slot
//! records.
//!
//! The decision sweep visits only *sweep-dirty* slots and an incremental
//! checkpoint re-encodes only *checkpoint-changed* ones, so both are
//! exactly as correct as the marking at every mutation site. The sites
//! therefore never see the records: they report the **fact** that occurred
//! — an edge gained or lost with its label relation, a neighbour relabelled
//! with its class, a vertex retired with its margin or refused with its
//! candidates — and [`SlotMarks`] turns it into the right combination of
//! marks. "Dirtied its own state but forgot the checkpoint record" cannot
//! be written.
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
//! * An **active** slot whose proposal quota refused keeps its *candidate
//!   memo* — the best-count foreign partitions in first-occurrence order —
//!   until any event touches its view. Its next evaluation is then the
//!   willingness roll plus the kernel's tie-break over that list, draw for
//!   draw what a fresh walk would do, with no neighbour read.
//!
//! A memo is held only by an active slot and a margin is read only for a
//! retired one. Both start empty and grow on first write; restore starts
//! from the saturated record, which needs neither.
//!
//! An iteration's relabel events are folded as one set: per neighbour the
//! deltas are summed — gains first, saturating, then losses — and the
//! neighbour re-enters iff the sum takes its margin negative. The result
//! does not depend on event order, so the serial and the sharded apply
//! leave the same active set. An iteration that moves a large share of the
//! graph (a *mass move*, the partitioner decides) skips the margins
//! instead: every neighbour of a migrant re-enters and every memo is
//! forgotten, which is conservative and costs one mark per event.

use apg_exec::ActiveSet;
use apg_graph::{DynGraph, Graph, VertexId};
use apg_partition::PartitionId;

/// Where an edge's far endpoint sits relative to the slot's own label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Relation {
    /// Same partition as the slot.
    Home,
    /// Any other partition.
    Foreign,
}

impl Relation {
    /// The relation between two labels (symmetric: both endpoints of an
    /// edge see the same one).
    #[inline]
    pub(crate) fn between(a: PartitionId, b: PartitionId) -> Self {
        if a == b {
            Relation::Home
        } else {
            Relation::Foreign
        }
    }
}

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

/// The sweep record, the checkpoint record and what each slot's last
/// evaluation proved, over the vertex slot range.
#[derive(Debug, Clone)]
pub(crate) struct SlotMarks {
    /// Slots the next decision sweep must visit.
    sweep: ActiveSet,
    /// Slots whose own state (liveness, adjacency or label) mutated since
    /// the last [`SlotMarks::checkpointed`].
    changed: ActiveSet,
    /// Stay margins, meaningful for retired live slots only; grows on the
    /// first retirement past its end.
    margins: Vec<u8>,
    /// Candidate memos of refused proposers.
    memos: Memos,
}

impl SlotMarks {
    /// The record for a fresh or restored partitioner: every live vertex
    /// owes the sweep an evaluation (exact — one the original had retired
    /// just decides *Stay* again), and with no checkpoint base to diff
    /// against yet every slot counts as changed. Marked by words, then the
    /// tombstones cleared.
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
            margins: Vec::new(),
            memos: Memos::empty(),
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

    /// `slot` changed label (it migrated): its whole view moved, and a
    /// checkpoint must re-encode it.
    #[inline]
    pub(crate) fn relabelled(&mut self, slot: usize) {
        self.memos.drop(slot);
        self.sweep.mark(slot);
        self.changed.mark(slot);
    }

    /// `slot` gained an edge to a neighbour in `relation` to it.
    #[inline]
    pub(crate) fn edge_gained(&mut self, slot: usize, relation: Relation) {
        self.changed.mark(slot);
        self.spend(
            slot,
            match relation {
                Relation::Home => 1,
                Relation::Foreign => -1,
            },
        );
    }

    /// `slot` lost an edge to a neighbour in `relation` to it.
    #[inline]
    pub(crate) fn edge_lost(&mut self, slot: usize, relation: Relation) {
        self.changed.mark(slot);
        self.spend(
            slot,
            match relation {
                Relation::Home => -1,
                Relation::Foreign => 0,
            },
        );
    }

    /// Whether a relabel seen by `slot` would change anything: it does
    /// unless `slot` is already awaiting the sweep with no memo to drop.
    /// Reads only the sweep bitmap and the memo bits, so the apply fan-out
    /// may ask while the records are frozen.
    #[inline]
    pub(crate) fn wants_relabel(&self, slot: usize) -> bool {
        !self.sweep.contains(slot) | self.memos.holds(slot)
    }

    /// One iteration's neighbour relabels, folded as one set (see the
    /// module docs): each affected slot's margin takes the sum of its
    /// events, gains applied before losses, and the slot re-enters the
    /// sweep iff that sum is negative; an active slot just drops its memo.
    /// Neither the order of `relabels` nor the order within them matters.
    /// An active slot's margin is meaningless (retiring rewrites it), so
    /// the fold updates every slot's byte alike instead of asking first.
    ///
    /// A mass move's relabels skip the margins: every slot that saw one
    /// re-enters the sweep and every memo is forgotten. Conservative, so
    /// exact, and one bitmap mark per neighbour read — when a large share
    /// of the graph moves, most of its neighbours would be re-evaluated
    /// anyway and spending margins costs more than the walks it saves.
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
            self.memos.forget_all();
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
                self.memos.drop(slot);
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
                self.memos.drop(slot);
            }
        }
    }

    /// `slot` became a tombstone: a checkpoint change that leaves the sweep.
    pub(crate) fn tombstoned(&mut self, slot: usize) {
        self.memos.drop(slot);
        self.sweep.clear(slot);
        self.changed.mark(slot);
    }

    /// The sweep evaluated `slot` to a stable *Stay*, `margin` ahead of its
    /// best foreign partition.
    #[inline]
    pub(crate) fn retired(&mut self, slot: usize, margin: u8) {
        debug_assert!(!self.memos.holds(slot), "slot {slot} retired with a memo");
        if slot >= self.margins.len() {
            self.margins.resize(self.sweep.len(), 0);
        }
        self.margins[slot] = margin;
        self.sweep.clear(slot);
    }

    /// Quota refused `slot`'s proposal, drawn from `candidates` by a fresh
    /// walk: the slot stays active and keeps the list until its view
    /// changes.
    #[inline]
    pub(crate) fn refused(&mut self, slot: usize, candidates: &[PartitionId]) {
        debug_assert!(self.sweep.contains(slot), "refused slot {slot} is inactive");
        self.memos.hold(slot, candidates, self.sweep.len());
    }

    /// The admissions of one iteration are done: reclaim memo space once
    /// most of it belongs to dropped memos.
    pub(crate) fn memos_settled(&mut self) {
        self.memos.maybe_compact();
    }

    /// `slot`'s standing candidate memo, if it holds one.
    #[inline]
    pub(crate) fn memo(&self, slot: usize) -> Option<&[PartitionId]> {
        self.memos.get(slot)
    }

    /// The stay margin recorded for `slot`, a retired live slot.
    pub(crate) fn margin(&self, slot: usize) -> u8 {
        debug_assert!(!self.sweep.contains(slot), "slot {slot} is active");
        self.margins[slot]
    }

    /// The current state just became (or was just restored from) the
    /// durable checkpoint base: nothing has changed relative to it.
    pub(crate) fn checkpointed(&mut self) {
        self.changed.clear_all();
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

    /// Slots holding a standing memo, ascending.
    pub(crate) fn memo_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.memos.slots()
    }

    /// Audits the records against `graph`: exact internal counts, full
    /// slot coverage, no tombstone awaiting a sweep, and memos held only by
    /// active slots. (Whether each margin and memo is *true* needs the
    /// labels; the partitioner's audit checks that.)
    ///
    /// # Panics
    ///
    /// Panics when an invariant is violated.
    pub(crate) fn audit(&self, graph: &DynGraph) {
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
        for slot in self.memos.slots() {
            assert!(
                self.sweep.contains(slot),
                "inactive slot {slot} holds a memo"
            );
        }
        self.memos.audit();
    }

    /// Spends `delta` of `slot`'s margin: an active slot only loses its
    /// memo (its view changed); a retired one re-enters the sweep when the
    /// margin would go negative.
    #[inline]
    fn spend(&mut self, slot: usize, delta: i32) {
        if self.sweep.contains(slot) {
            self.memos.drop(slot);
            return;
        }
        let margin = i32::from(self.margins[slot]) + delta;
        if margin < 0 {
            self.sweep.mark(slot);
        } else {
            self.margins[slot] = margin.min(i32::from(u8::MAX)) as u8;
        }
    }
}

/// Candidate memos: which slots hold one, where each starts, and the lists
/// back to back. All three start empty and grow on first write.
#[derive(Debug, Clone)]
struct Memos {
    /// Slots holding a memo.
    held: ActiveSet,
    /// Where `slot`'s memo starts in `lists` (meaningful while held).
    at: Vec<u32>,
    /// Each memo as `[len, candidates…]`; the entries of dropped memos are
    /// garbage until the next compaction.
    lists: Vec<PartitionId>,
    /// Entries of `lists` owned by held memos.
    live: usize,
}

/// Garbage below which memo space is never compacted.
const MEMO_COMPACT_FLOOR: usize = 4096;

impl Memos {
    fn empty() -> Self {
        Memos {
            held: ActiveSet::with_default_shards(0),
            at: Vec::new(),
            lists: Vec::new(),
            live: 0,
        }
    }

    #[inline]
    fn holds(&self, slot: usize) -> bool {
        slot < self.held.len() && self.held.contains(slot)
    }

    #[inline]
    fn get(&self, slot: usize) -> Option<&[PartitionId]> {
        if !self.holds(slot) {
            return None;
        }
        let start = self.at[slot] as usize;
        let len = self.lists[start] as usize;
        Some(&self.lists[start + 1..start + 1 + len])
    }

    /// `slot` (of a range of `slots`) holds `candidates` from now on.
    fn hold(&mut self, slot: usize, candidates: &[PartitionId], slots: usize) {
        debug_assert!(!candidates.is_empty() && slot < slots);
        self.drop(slot);
        if slot >= self.at.len() {
            self.held.grow_to(slots);
            self.at.resize(slots, 0);
        }
        self.held.mark(slot);
        self.at[slot] = u32::try_from(self.lists.len()).expect("memo space over 4G entries");
        // A candidate list never holds the home partition, so its length
        // is below `k` and fits a partition id.
        self.lists.push(candidates.len() as PartitionId);
        self.lists.extend_from_slice(candidates);
        self.live += 1 + candidates.len();
    }

    #[inline]
    fn drop(&mut self, slot: usize) {
        if slot < self.held.len() && self.held.clear(slot) {
            self.live -= 1 + self.lists[self.at[slot] as usize] as usize;
        }
    }

    fn forget_all(&mut self) {
        self.held.clear_all();
        self.lists.clear();
        self.live = 0;
    }

    fn slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.held.iter()
    }

    /// Rebuilds `lists` from the held memos once garbage outweighs them.
    fn maybe_compact(&mut self) {
        let garbage = self.lists.len() - self.live;
        if garbage <= MEMO_COMPACT_FLOOR || garbage <= self.live {
            return;
        }
        let mut packed = Vec::with_capacity(self.live);
        for slot in self.held.iter() {
            let start = self.at[slot] as usize;
            let end = start + 1 + self.lists[start] as usize;
            self.at[slot] = packed.len() as u32;
            packed.extend_from_slice(&self.lists[start..end]);
        }
        self.lists = packed;
    }

    fn audit(&self) {
        let owned: usize = self
            .slots()
            .map(|slot| 1 + self.lists[self.at[slot] as usize] as usize)
            .sum();
        assert_eq!(owned, self.live, "memo space accounting drifted");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut marks = retired_path();
        marks.checkpointed();
        marks.edge_gained(1, Relation::Foreign);
        marks.edge_gained(1, Relation::Foreign);
        assert!(!marks.sweep().contains(1), "margin 2 absorbs two");
        assert_eq!(marks.changed_slots(), vec![1], "every edge is a change");
        marks.edge_gained(1, Relation::Foreign);
        assert!(marks.sweep().contains(1), "the third spends it");
        // Home gains and foreign losses never reactivate.
        marks.edge_gained(2, Relation::Home);
        marks.edge_lost(2, Relation::Foreign);
        marks.edge_lost(2, Relation::Home);
        marks.edge_lost(2, Relation::Home);
        marks.edge_lost(2, Relation::Home);
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
        marks.refused(4, &[1]);
        let mut en_masse = Relabels::with_reads(1, true);
        en_masse.record(2, 0, 1, 0, || unreachable!("a mass move asks nothing"));
        marks.neighbours_relabelled([&en_masse]);
        assert!(marks.sweep().contains(2), "even a gain reactivates");
        assert!(!marks.sweep().contains(1));
        assert_eq!(marks.memo(4), None);
        marks.memos.audit();
    }

    #[test]
    fn memos_stand_until_the_view_changes_and_compact_away() {
        let n = 20_000;
        let mut marks = SlotMarks::saturated(&DynGraph::with_vertices(n));
        for slot in 0..n {
            marks.refused(slot, &[1, 2]);
        }
        assert_eq!(marks.memo(7), Some(&[1, 2][..]));
        marks.edge_lost(7, Relation::Foreign);
        assert_eq!(marks.memo(7), None, "any event drops it");
        assert!(marks.sweep().contains(7));
        for slot in (0..n).filter(|s| s % 10 != 0) {
            marks.relabelled(slot);
        }
        marks.memos_settled();
        assert_eq!(marks.memos.lists.len(), marks.memos.live, "compacted");
        assert_eq!(marks.memo(10), Some(&[1, 2][..]));
        assert_eq!(marks.memo_slots().count(), n / 10);
        marks.tombstoned(20);
        assert_eq!(marks.memo(20), None);
        marks.memos.audit();
    }
}
