//! Streaming ingestion: batched graph updates interleaved with
//! repartitioning rounds.
//!
//! This is the paper's operating loop made explicit: a stream of buffered
//! [`UpdateBatch`]es lands on the graph, and between batches the adaptive
//! heuristic iterates to absorb the change. [`StreamingRunner`] owns an
//! [`AdaptivePartitioner`], pulls batches from any
//! [`StreamSource`], applies them through the
//! shared delta model (incremental cut maintained across every delta), runs
//! the per-batch iteration budget, and records one [`TimelineStats`] entry
//! per batch.
//!
//! The budget is *adaptive*: each batch is charged the full
//! `iterations_per_batch`, but once the active set is empty the remaining
//! iterations are skipped and fast-forwarded instead of executed — budget
//! goes where the batch landed. Every skipped iteration is provably a
//! no-op, so the recorded timeline is byte-identical to a fixed-budget run
//! — which needs no mode here to compare against: it is `apply_batch` plus
//! `iterations_per_batch` calls of `iterate` on a bare
//! [`AdaptivePartitioner`], the oracle the tests use.
//!
//! The runner keeps no copy of the batches it ingests: the durable history
//! of batches is the store's write-ahead segments. A caller that wants an
//! in-memory replay log records into its own [`DeltaLog`] beside
//! [`StreamingRunner::ingest`].
//!
//! [`DeltaLog`]: apg_graph::DeltaLog
//!
//! # Determinism
//!
//! Delta application and the quota merge are single-threaded and ordered;
//! only the decision sweep fans out. For a fixed seed the timeline is
//! therefore identical at every [`AdaptiveConfig::parallelism`] level —
//! wall-clock aside, which is why [`TimelineStats`] equality deliberately
//! ignores it.
//!
//! [`AdaptiveConfig::parallelism`]: crate::AdaptiveConfig::parallelism
//!
//! # Example
//!
//! ```
//! use apg_core::{AdaptiveConfig, AdaptivePartitioner, StreamingRunner};
//! use apg_graph::DynGraph;
//! use apg_partition::InitialStrategy;
//! use apg_streams::{CdrConfig, CdrStream};
//!
//! let config = CdrConfig { initial_subscribers: 500, ..CdrConfig::default() };
//! let mut stream = CdrStream::new(config, 7);
//! let graph = DynGraph::with_vertices(config.initial_subscribers);
//! let partitioner = AdaptivePartitioner::with_strategy(
//!     &graph,
//!     InitialStrategy::Hash,
//!     &AdaptiveConfig::builder(4).build().unwrap(),
//!     7,
//! );
//! let mut runner = StreamingRunner::new(partitioner).iterations_per_batch(3);
//! let consumed = runner.drive(&mut stream, 10);
//! assert_eq!(consumed, 10);
//! assert_eq!(runner.timeline().len(), 10);
//! ```

use std::time::Instant;

use serde::{Deserialize, Serialize};

use apg_graph::{ApplyReport, UpdateBatch};
use apg_serve::{QueryRouter, QueryWorkload, ServeStats};
use apg_streams::StreamSource;

use crate::partitioner::AdaptivePartitioner;

/// Per-batch observables of a streaming run.
///
/// Everything except `wall_ms` is a pure function of the seed, the stream,
/// and the configuration — the determinism contract. `wall_ms` is a
/// measurement of the host, so **equality ignores it**: two timelines
/// compare equal iff every deterministic field matches.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimelineStats {
    /// Batch index within the run (0-based).
    pub batch: usize,
    /// Deltas the batch scheduled.
    pub deltas: usize,
    /// Vertices the batch added.
    pub vertices_added: usize,
    /// Vertices the batch removed.
    pub vertices_removed: usize,
    /// Edges the batch added.
    pub edges_added: usize,
    /// Edges the batch removed (vertex-removal casualties included).
    pub edges_removed: usize,
    /// Cut edges before the batch landed.
    pub cut_before: usize,
    /// Cut edges right after ingestion, before any repartitioning.
    pub cut_after_ingest: usize,
    /// Cut edges after this batch's repartitioning iterations.
    pub cut_after: usize,
    /// Vertices migrated by this batch's iterations.
    pub migrations: usize,
    /// Repartitioning iterations run for this batch.
    pub iterations: usize,
    /// Live vertices after the batch.
    pub live_vertices: usize,
    /// Edges after the batch.
    pub num_edges: usize,
    /// Wall-clock for ingest + iterations, milliseconds. Measurement, not
    /// state: ignored by `==` and never persisted (a checkpoint stores
    /// `0.0` in its place, so a resumed timeline reads zero here).
    pub wall_ms: f64,
}

impl TimelineStats {
    /// Cut ratio after the batch's iterations (0 for edgeless graphs).
    pub fn cut_ratio_after(&self) -> f64 {
        if self.num_edges == 0 {
            0.0
        } else {
            self.cut_after as f64 / self.num_edges as f64
        }
    }

    /// Cut ratio right after ingestion, before the batch's iterations (0
    /// for edgeless graphs) — the spike the repartitioning rounds then
    /// work off.
    pub fn cut_ratio_after_ingest(&self) -> f64 {
        if self.num_edges == 0 {
            0.0
        } else {
            self.cut_after_ingest as f64 / self.num_edges as f64
        }
    }

    /// The deterministic fields, as a fixed-order array (fingerprinting,
    /// equality, and test diagnostics all key off this).
    pub fn deterministic_fields(&self) -> [usize; 13] {
        [
            self.batch,
            self.deltas,
            self.vertices_added,
            self.vertices_removed,
            self.edges_added,
            self.edges_removed,
            self.cut_before,
            self.cut_after_ingest,
            self.cut_after,
            self.migrations,
            self.iterations,
            self.live_vertices,
            self.num_edges,
        ]
    }
}

impl PartialEq for TimelineStats {
    /// Deterministic fields only — `wall_ms` is measurement noise.
    fn eq(&self, other: &Self) -> bool {
        self.deterministic_fields() == other.deterministic_fields()
    }
}

impl Eq for TimelineStats {}

/// Seed for the rolling timeline digest: the FNV-1a 64-bit offset basis.
/// A runner that has evicted nothing carries exactly this value.
pub const TIMELINE_DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one evicted [`TimelineStats`] entry into the rolling digest:
/// FNV-1a over the little-endian bytes of every deterministic field, in
/// [`TimelineStats::deterministic_fields`] order (`wall_ms` excluded — the
/// digest must be reproducible across hosts and resumes).
///
/// The digest is how a bounded timeline keeps the full-history equality
/// contract: two runs whose retained suffixes match *and* whose digests
/// match processed identical timelines, entry for entry.
pub fn fold_timeline_digest(digest: u64, stats: &TimelineStats) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut digest = digest;
    for field in stats.deterministic_fields() {
        for byte in (field as u64).to_le_bytes() {
            digest ^= u64::from(byte);
            digest = digest.wrapping_mul(FNV_PRIME);
        }
    }
    digest
}

/// The optional interleaved serving phase: a query workload served once
/// per ingested batch, with its own per-round timeline.
#[derive(Debug, Clone)]
struct ServePhase {
    workload: QueryWorkload,
    timeline: Vec<ServeStats>,
}

/// The runner's four persisted scalars — its settings and its stream
/// position — declared here once. The live [`StreamingRunner`] holds the
/// block; a checkpoint, a checkpoint view and a checkpoint delta (see
/// [`crate::persist`]) each carry a copy, and resume hands it back whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunnerScalars {
    /// Repartitioning iterations charged to every batch.
    pub iterations_per_batch: usize,
    /// Retained timeline entries are capped at this many; older entries
    /// are folded into `timeline_digest` and dropped. `usize::MAX` means
    /// unbounded (the default — full history in memory and on disk).
    pub timeline_window: usize,
    /// Batches ingested over the runner's whole life, eviction-proof: the
    /// global batch counter `TimelineStats::batch` is stamped from, and
    /// the stream position the source cursor derives from.
    pub batches_ingested: usize,
    /// FNV-1a fold over every evicted timeline entry, in eviction order;
    /// [`TIMELINE_DIGEST_SEED`] while nothing has been evicted.
    pub timeline_digest: u64,
}

/// Drives batched ingestion through an [`AdaptivePartitioner`].
///
/// Construction is builder-style: wrap a partitioner, optionally set the
/// per-batch iteration budget, the timeline window, and an interleaved
/// [serve phase](StreamingRunner::serve_workload), then feed batches with
/// [`StreamingRunner::ingest`] or pull a whole stream with
/// [`StreamingRunner::drive`].
#[derive(Debug, Clone)]
pub struct StreamingRunner {
    partitioner: AdaptivePartitioner,
    scalars: RunnerScalars,
    timeline: Vec<TimelineStats>,
    serve: Option<ServePhase>,
    iterations_skipped: usize,
}

impl StreamingRunner {
    /// Wraps a partitioner with the default budget of 5 iterations per
    /// batch.
    pub fn new(partitioner: AdaptivePartitioner) -> Self {
        let scalars = RunnerScalars {
            iterations_per_batch: 5,
            timeline_window: usize::MAX,
            batches_ingested: 0,
            timeline_digest: TIMELINE_DIGEST_SEED,
        };
        Self::from_checkpoint_parts(partitioner, scalars, Vec::new())
    }

    /// Sets how many repartitioning iterations run after each batch
    /// (0 = ingest only; useful when the caller owns the iteration
    /// schedule).
    pub fn iterations_per_batch(mut self, n: usize) -> Self {
        self.scalars.iterations_per_batch = n;
        self
    }

    /// Bounds the retained timeline to the most recent `window` entries.
    /// Older entries are folded — oldest first — into the
    /// [rolling digest](StreamingRunner::timeline_digest) and dropped, so
    /// checkpoints stay O(window) instead of O(stream) while the
    /// (suffix, digest, [`batches_ingested`]) triple still pins the full
    /// history byte-for-byte.
    ///
    /// The default is `usize::MAX` (keep everything). Shrinking the window
    /// on a runner that already holds more entries evicts immediately.
    ///
    /// The same window bounds the [serve timeline](Self::serve_timeline):
    /// it keeps the most recent `window` rounds and drops older ones
    /// (without a digest — serve rounds are not checkpointed).
    ///
    /// [`batches_ingested`]: StreamingRunner::batches_ingested
    ///
    /// # Panics
    ///
    /// Panics if `window` is 0: a checkpoint must retain at least the
    /// latest entry so resume can re-anchor the stream position.
    pub fn timeline_window(mut self, window: usize) -> Self {
        assert!(window > 0, "timeline window must retain at least one entry");
        self.scalars.timeline_window = window;
        self.evict_timeline_overflow();
        self.evict_serve_overflow();
        self
    }

    /// Folds and drops timeline entries past the window, oldest first.
    fn evict_timeline_overflow(&mut self) {
        let window = self.scalars.timeline_window;
        let excess = self.timeline.len().saturating_sub(window);
        if excess == 0 {
            return;
        }
        for stats in self.timeline.drain(..excess) {
            self.scalars.timeline_digest =
                fold_timeline_digest(self.scalars.timeline_digest, &stats);
        }
    }

    /// Drops serve rounds past the window, oldest first. The serve
    /// timeline is outside the checkpoint wire format, so unlike the
    /// ingest timeline there is no digest to fold evicted rounds into.
    fn evict_serve_overflow(&mut self) {
        let window = self.scalars.timeline_window;
        if let Some(phase) = self.serve.as_mut() {
            let excess = phase.timeline.len().saturating_sub(window);
            phase.timeline.drain(..excess);
        }
    }

    /// Attaches an interleaved serving phase: after each batch's
    /// repartitioning iterations, one round of `workload` is served
    /// read-only against the fresh `(graph, partitioning)` snapshot (round
    /// index = batch index, parallelism = the partitioner's configured
    /// [`parallelism`](crate::AdaptiveConfig::parallelism)), and its
    /// [`ServeStats`] appended to [`StreamingRunner::serve_timeline`] —
    /// which retains the most recent
    /// [`timeline_window`](StreamingRunner::timeline_window) rounds, like
    /// the ingest timeline (everything, at the default window).
    ///
    /// In debug builds every serve round is followed by a full
    /// [`AdaptivePartitioner::audit`] plus active-set and cut checks,
    /// proving the read-only traversal dirtied nothing.
    ///
    /// The serve phase is *not* part of the checkpoint wire format:
    /// [resumed](crate::persist) runners come back without one, and callers
    /// that want serving after a resume re-attach it here.
    pub fn serve_workload(mut self, workload: QueryWorkload) -> Self {
        self.serve = Some(ServePhase {
            workload,
            timeline: Vec::new(),
        });
        self
    }

    /// Applies one batch, runs the per-batch iteration budget, and records
    /// + returns the batch's [`TimelineStats`].
    ///
    /// The recorded `iterations` field is the *charged* budget
    /// (`iterations_per_batch`), not the executed count: once the active
    /// set is empty the remaining iterations are skipped — each would have
    /// been a no-op, since every inactive vertex decides *Stay* — and
    /// fast-forwarded through the partitioner's counters, which key the
    /// per-vertex RNG streams. The stats are identical whether they ran or
    /// not.
    pub fn ingest(&mut self, batch: &UpdateBatch) -> TimelineStats {
        let cut_before = self.partitioner.cut_edges();
        let start = Instant::now();
        let report: ApplyReport = self.partitioner.apply_batch(batch);
        let cut_after_ingest = self.partitioner.cut_edges();
        let mut migrations = 0usize;
        let mut executed = 0usize;
        while executed < self.scalars.iterations_per_batch {
            if self.partitioner.num_active_vertices() == 0 {
                break;
            }
            migrations += self.partitioner.iterate().migrations;
            executed += 1;
        }
        let skipped = self.scalars.iterations_per_batch - executed;
        if skipped > 0 {
            self.partitioner.charge_quiet_iterations(skipped);
            self.iterations_skipped += skipped;
        }
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        use apg_graph::Graph;
        let stats = TimelineStats {
            batch: self.scalars.batches_ingested,
            deltas: batch.len(),
            vertices_added: report.new_vertices.len(),
            vertices_removed: report.vertices_removed,
            edges_added: report.edges_added,
            edges_removed: report.edges_removed,
            cut_before,
            cut_after_ingest,
            cut_after: self.partitioner.cut_edges(),
            migrations,
            iterations: self.scalars.iterations_per_batch,
            live_vertices: self.partitioner.graph().num_live_vertices(),
            num_edges: self.partitioner.graph().num_edges(),
            wall_ms,
        };
        self.timeline.push(stats.clone());
        self.scalars.batches_ingested += 1;
        self.evict_timeline_overflow();
        self.serve_after_batch(stats.batch as u64);
        stats
    }

    /// Serves one workload round against the post-batch snapshot (no-op
    /// without an attached serve phase). In debug builds, proves serving
    /// left the partitioner untouched.
    fn serve_after_batch(&mut self, round: u64) {
        let Some(phase) = self.serve.as_mut() else {
            return;
        };
        let partitioner = &self.partitioner;
        #[cfg(debug_assertions)]
        let (active_before, cut_before) =
            (partitioner.num_active_vertices(), partitioner.cut_edges());
        let router = QueryRouter::new(partitioner.graph(), partitioner.partitioning());
        let stats = router.serve_round(&phase.workload, round, partitioner.config().parallelism);
        phase.timeline.push(stats);
        #[cfg(debug_assertions)]
        {
            debug_assert_eq!(
                active_before,
                partitioner.num_active_vertices(),
                "serve round {round} dirtied the active set"
            );
            debug_assert_eq!(
                cut_before,
                partitioner.cut_edges(),
                "serve round {round} moved the cut"
            );
            partitioner.audit();
        }
        self.evict_serve_overflow();
    }

    /// The per-round serving timeline, oldest first (empty when no
    /// [workload is attached](StreamingRunner::serve_workload)). Holds the
    /// most recent [`timeline_window`](StreamingRunner::timeline_window)
    /// rounds; each round's `round` field is its global batch index, so a
    /// windowed suffix still says which batches it covers.
    pub fn serve_timeline(&self) -> &[ServeStats] {
        self.serve.as_ref().map_or(&[], |phase| &phase.timeline)
    }

    /// Pulls and ingests up to `max_batches` batches from `source`;
    /// returns how many were consumed (fewer only if the stream ended).
    pub fn drive<S: StreamSource>(&mut self, source: &mut S, max_batches: usize) -> usize {
        for consumed in 0..max_batches {
            match source.next_batch() {
                Some(batch) => {
                    self.ingest(&batch);
                }
                None => return consumed,
            }
        }
        max_batches
    }

    /// The retained per-batch timeline, oldest first. With an unbounded
    /// [window](StreamingRunner::timeline_window) (the default) this is
    /// the whole run; with a bounded one it is the most recent `window`
    /// entries (earlier ones live on in the
    /// [digest](StreamingRunner::timeline_digest)).
    pub fn timeline(&self) -> &[TimelineStats] {
        &self.timeline
    }

    /// Batches ingested over the runner's whole life — the stream
    /// position, independent of how many timeline entries are retained.
    pub fn batches_ingested(&self) -> usize {
        self.scalars.batches_ingested
    }

    /// The rolling FNV-1a digest over every evicted timeline entry
    /// ([`TIMELINE_DIGEST_SEED`] while nothing has been evicted). Together
    /// with the retained suffix and [`batches_ingested`], this pins the
    /// full per-batch history: equality of the triple implies the two runs
    /// recorded identical `TimelineStats` for every batch ever ingested.
    ///
    /// [`batches_ingested`]: StreamingRunner::batches_ingested
    pub fn timeline_digest(&self) -> u64 {
        self.scalars.timeline_digest
    }

    /// How many timeline entries have been evicted into the digest.
    pub fn timeline_evicted(&self) -> usize {
        self.scalars.batches_ingested - self.timeline.len()
    }

    /// Total budgeted iterations the adaptive budget skipped (rather than
    /// executed) across the run so far — 0 when no batch drained early.
    /// Skipped iterations are still charged to the partitioner's iteration
    /// counter and to each batch's recorded `iterations`, so this is pure
    /// wall-clock savings, not a history change.
    pub fn iterations_skipped(&self) -> usize {
        self.iterations_skipped
    }

    /// The runner's persisted scalars: iteration budget, timeline window,
    /// stream position and evicted-entry digest.
    pub fn scalars(&self) -> RunnerScalars {
        self.scalars
    }

    /// Assembles a runner from its persisted parts: fresh ones
    /// ([`StreamingRunner::new`]) or checkpointed ones (resume; see
    /// [`crate::persist`]).
    pub(crate) fn from_checkpoint_parts(
        partitioner: AdaptivePartitioner,
        scalars: RunnerScalars,
        timeline: Vec<TimelineStats>,
    ) -> Self {
        StreamingRunner {
            partitioner,
            scalars,
            timeline,
            // The serve phase is deliberately outside the wire format (the
            // workload is an in-process concern); resumed runners re-attach
            // one via `serve_workload`, like new ones attach theirs.
            serve: None,
            // A skip diagnostic, not logical state: the skipped iterations
            // are already charged into the partitioner's counters.
            iterations_skipped: 0,
        }
    }

    /// The wrapped partitioner.
    pub fn partitioner(&self) -> &AdaptivePartitioner {
        &self.partitioner
    }

    /// Mutable access to the wrapped partitioner (for interleaving manual
    /// iterations or audits between batches).
    pub fn partitioner_mut(&mut self) -> &mut AdaptivePartitioner {
        &mut self.partitioner
    }

    /// Unwraps the partitioner, discarding the timeline.
    pub fn into_partitioner(self) -> AdaptivePartitioner {
        self.partitioner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AdaptiveConfig;
    use apg_graph::{DynGraph, Graph};
    use apg_partition::{cut_edges, InitialStrategy};
    use apg_streams::{CdrConfig, CdrStream, TwitterConfig, TwitterStream};

    fn runner(graph: &DynGraph, k: u16, parallelism: usize, seed: u64) -> StreamingRunner {
        let cfg = AdaptiveConfig::builder(k)
            .parallelism(parallelism)
            .build()
            .unwrap();
        StreamingRunner::new(AdaptivePartitioner::with_strategy(
            graph,
            InitialStrategy::Hash,
            &cfg,
            seed,
        ))
        .iterations_per_batch(3)
    }

    #[test]
    fn ingest_maintains_incremental_cut() {
        let config = CdrConfig {
            initial_subscribers: 800,
            ..CdrConfig::default()
        };
        let mut stream = CdrStream::new(config, 3);
        let graph = DynGraph::with_vertices(config.initial_subscribers);
        let mut r = runner(&graph, 4, 1, 3);
        for _ in 0..2 * config.batches_per_week {
            let batch = apg_streams::StreamSource::next_batch(&mut stream).unwrap();
            let stats = r.ingest(&batch);
            assert_eq!(
                r.partitioner().cut_edges(),
                cut_edges(r.partitioner().graph(), r.partitioner().partitioning()),
                "incremental cut drifted at batch {}",
                stats.batch
            );
            r.partitioner().audit();
        }
        assert!(r.timeline().len() == 2 * config.batches_per_week);
    }

    #[test]
    fn a_caller_kept_log_replays_to_identical_graph() {
        let config = TwitterConfig {
            initial_users: 300,
            ..TwitterConfig::default()
        };
        let mut stream = TwitterStream::new(config, 5).with_clock(19.0, 900.0);
        let base = DynGraph::with_vertices(config.initial_users);
        let mut r = runner(&base, 3, 1, 5);
        let mut log = apg_graph::DeltaLog::new();
        for _ in 0..6 {
            let batch = apg_streams::StreamSource::next_batch(&mut stream).unwrap();
            r.ingest(&batch);
            log.record(batch);
        }
        let mut fresh = base.clone();
        log.replay(&mut fresh);
        assert_eq!(&fresh, r.partitioner().graph());
    }

    #[test]
    fn timeline_is_parallelism_invariant() {
        let run = |parallelism: usize| {
            let config = CdrConfig {
                initial_subscribers: 1500,
                ..CdrConfig::default()
            };
            let mut stream = CdrStream::new(config, 11);
            let graph = DynGraph::with_vertices(config.initial_subscribers);
            let mut r = runner(&graph, 6, parallelism, 11);
            r.drive(&mut stream, 10);
            r.timeline().to_vec()
        };
        let sequential = run(1);
        assert_eq!(sequential, run(4));
        let migrations: usize = sequential.iter().map(|s| s.migrations).sum();
        assert!(migrations > 0, "scenario too quiet to prove anything");
    }

    #[test]
    fn adaptive_budget_preserves_the_timeline_and_skips_work() {
        // A generous budget on a modest stream: most batches drain their
        // active set before the budget runs out, so the runner skips real
        // work — while recording exactly the timeline of the fixed-budget
        // oracle: a bare partitioner that applies each batch and then
        // executes every budgeted iteration.
        const BUDGET: usize = 25;
        let config = CdrConfig {
            initial_subscribers: 300,
            ..CdrConfig::default()
        };
        let graph = DynGraph::with_vertices(config.initial_subscribers);
        let cfg = AdaptiveConfig::builder(2).willingness(1.0).build().unwrap();
        let fresh = || AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &cfg, 7);

        let mut adaptive = StreamingRunner::new(fresh()).iterations_per_batch(BUDGET);
        adaptive.drive(&mut CdrStream::new(config, 7), 8);

        let mut fixed = fresh();
        let mut stream = CdrStream::new(config, 7);
        let fixed_timeline: Vec<TimelineStats> = (0..8)
            .map(|batch_index| {
                let batch = apg_streams::StreamSource::next_batch(&mut stream).unwrap();
                let cut_before = fixed.cut_edges();
                let report = fixed.apply_batch(&batch);
                let cut_after_ingest = fixed.cut_edges();
                let migrations = fixed.run_for(BUDGET).iter().map(|s| s.migrations).sum();
                TimelineStats {
                    batch: batch_index,
                    deltas: batch.len(),
                    vertices_added: report.new_vertices.len(),
                    vertices_removed: report.vertices_removed,
                    edges_added: report.edges_added,
                    edges_removed: report.edges_removed,
                    cut_before,
                    cut_after_ingest,
                    cut_after: fixed.cut_edges(),
                    migrations,
                    iterations: BUDGET,
                    live_vertices: fixed.graph().num_live_vertices(),
                    num_edges: fixed.graph().num_edges(),
                    wall_ms: 0.0,
                }
            })
            .collect();

        assert!(
            adaptive.iterations_skipped() > 0,
            "a 25-iteration budget should drain early on this stream"
        );
        assert_eq!(adaptive.timeline(), fixed_timeline);
        assert_eq!(
            adaptive.partitioner().iteration(),
            fixed.iteration(),
            "skipped iterations must still be charged to the counter"
        );
        assert_eq!(adaptive.partitioner().partitioning(), fixed.partitioning());
        adaptive.partitioner().audit();
    }

    #[test]
    fn equality_ignores_wall_clock() {
        let mk = |wall: f64| TimelineStats {
            batch: 0,
            deltas: 5,
            vertices_added: 1,
            vertices_removed: 0,
            edges_added: 4,
            edges_removed: 0,
            cut_before: 10,
            cut_after_ingest: 12,
            cut_after: 8,
            migrations: 3,
            iterations: 5,
            live_vertices: 100,
            num_edges: 200,
            wall_ms: wall,
        };
        assert_eq!(mk(1.0), mk(99.0));
        let mut other = mk(1.0);
        other.migrations = 4;
        assert_ne!(mk(1.0), other);
    }

    #[test]
    fn serve_phase_appends_one_round_per_batch_and_mutates_nothing() {
        use apg_serve::{QueryMix, QueryWorkload};
        let config = CdrConfig {
            initial_subscribers: 600,
            ..CdrConfig::default()
        };
        let graph = DynGraph::with_vertices(config.initial_subscribers);
        let run = |serve: bool| {
            let mut stream = CdrStream::new(config, 9);
            let mut r = runner(&graph, 4, 2, 9);
            if serve {
                r = r.serve_workload(QueryWorkload::new(QueryMix::Uniform, 32, 5));
            }
            r.drive(&mut stream, 8);
            r
        };
        let with_serve = run(true);
        assert_eq!(with_serve.serve_timeline().len(), 8);
        for (i, round) in with_serve.serve_timeline().iter().enumerate() {
            assert_eq!(round.round, i as u64);
            assert_eq!(round.queries, 32);
        }
        // Serving is read-only: the ingest timeline is byte-identical to a
        // run without the serve phase.
        let without = run(false);
        assert!(without.serve_timeline().is_empty());
        assert_eq!(with_serve.timeline(), without.timeline());
    }

    #[test]
    fn serve_timeline_honours_the_timeline_window() {
        use apg_serve::{QueryMix, QueryWorkload};
        const BATCHES: usize = 200;
        const WINDOW: usize = 16;
        let config = CdrConfig {
            initial_subscribers: 200,
            ..CdrConfig::default()
        };
        let graph = DynGraph::with_vertices(config.initial_subscribers);
        let run = |window: Option<usize>| {
            let mut r = runner(&graph, 3, 1, 21)
                .iterations_per_batch(1)
                .serve_workload(QueryWorkload::new(QueryMix::Uniform, 8, 3));
            if let Some(w) = window {
                r = r.timeline_window(w);
            }
            assert_eq!(r.drive(&mut CdrStream::new(config, 21), BATCHES), BATCHES);
            r
        };
        let full = run(None);
        assert_eq!(full.serve_timeline().len(), BATCHES, "default keeps all");
        let mut windowed = run(Some(WINDOW));
        assert_eq!(windowed.timeline().len(), WINDOW);
        assert_eq!(windowed.serve_timeline().len(), WINDOW);
        // The newest rounds, unchanged by the eviction of older ones.
        assert_eq!(
            windowed.serve_timeline(),
            &full.serve_timeline()[BATCHES - WINDOW..]
        );
        assert_eq!(
            windowed.serve_timeline()[0].round,
            (BATCHES - WINDOW) as u64
        );
        // Shrinking the window evicts serve rounds at once, as it does
        // ingest entries.
        windowed = windowed.timeline_window(4);
        assert_eq!(
            windowed.serve_timeline(),
            &full.serve_timeline()[BATCHES - 4..]
        );
    }

    #[test]
    fn serve_timeline_is_parallelism_invariant() {
        use apg_serve::{QueryMix, QueryWorkload};
        let config = CdrConfig {
            initial_subscribers: 900,
            ..CdrConfig::default()
        };
        let graph = DynGraph::with_vertices(config.initial_subscribers);
        let run = |parallelism: usize| {
            let mut stream = CdrStream::new(config, 13);
            let mut r = runner(&graph, 6, parallelism, 13).serve_workload(QueryWorkload::new(
                QueryMix::CommunityBiased,
                48,
                21,
            ));
            r.drive(&mut stream, 6);
            r.serve_timeline().to_vec()
        };
        let sequential = run(1);
        assert_eq!(sequential, run(4));
        let hops: usize = sequential.iter().map(|s| s.hops).sum();
        assert!(hops > 0, "scenario too quiet to prove anything");
    }

    #[test]
    fn drive_stops_at_stream_end() {
        let graph = DynGraph::from(&apg_graph::gen::mesh3d(6, 6, 6));
        let cfg = apg_streams::ForestFireConfig::burst(20, 3);
        let mut source = apg_streams::ForestFireSource::new(&graph, &cfg, 8);
        let mut r = runner(&graph, 4, 1, 7);
        let consumed = r.drive(&mut source, 100);
        assert_eq!(consumed, 3); // ceil(20 / 8)
        assert_eq!(
            r.partitioner().graph().num_live_vertices(),
            graph.num_live_vertices() + 20
        );
    }
}
