//! The five workloads, and the loop that runs one repetition of one of
//! them in this process.
//!
//! Load shape, all workloads: a closed loop with one driver thread. The
//! stream source is the load generator, not the system: a batch is pulled
//! *between* steps and is never inside a step or a denominator. A step is
//! what a user waits for — for the streaming workloads, from handing a
//! batch to `ingest` until it is applied, repartitioned, durable (where
//! the workload has a store) and a serve round on the fresh snapshot has
//! returned (where it has queries); for `powerlaw_refine`, one
//! partitioning job. `run_s` is the sum of the step times.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::metrics;
use crate::stats::{Dist, Quartiles};
use crate::sut::{
    BareGraph, Batch, Capture, Fnv, Ingested, Installed, Partitioner, PowerlawGraph, Queries,
    Runner, Served, Store, Stream, MAX_ITERATIONS,
};
use crate::trace::{Attribution, Span, Tracer};

/// Repartitioning budget per batch, every streaming workload.
const ITERATIONS_PER_BATCH: usize = 4;

/// Timeline entries a durable runner retains (and every snapshot carries).
const TIMELINE_WINDOW: usize = 64;

/// Holme–Kim parameters of both power-law workloads.
const POWERLAW_M: usize = 8;
const POWERLAW_P: f64 = 0.1;

/// Seed of `growth_ingest`'s base graph and of the partitioner converged on
/// it in set-up; `--seed` drives the growth stream only. The converged
/// start state decides, chaotically, which of two regimes the whole run
/// sits in — quota-blocked vertices stay active and an iteration costs 5 ms
/// instead of 1.5 — so across start states `run_s` spreads over 7 to 22 s,
/// while across streams on one start state it holds to a few percent. This
/// is the start state the workload was sized on.
const GROWTH_BASE_SEED: u64 = 42;

/// Cold opens behind `recover_ms`.
const RECOVERIES: usize = 3;

/// A traced run side-measures capture and full encoding on at most this
/// many of its installs, evenly spaced: each costs as much as the install
/// it explains.
const SIDE_SAMPLED_INSTALLS: usize = 32;

/// `--seconds` at which the step counts are the ones below. Other values
/// scale the number of steps, never the graphs.
pub const NOMINAL_SECONDS: u64 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub fn label(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }

    pub fn parse(text: &str) -> Option<Scale> {
        [Scale::Full, Scale::Smoke]
            .into_iter()
            .find(|s| s.label() == text)
    }
}

struct Sizes {
    subscribers: usize,
    durable_batches_per_week: usize,
    durable_batches: usize,
    durable_queries: usize,
    serve_batches_per_week: usize,
    serve_warm_batches: usize,
    serve_batches: usize,
    serve_queries: usize,
    growth_vertices: usize,
    growth_batches: usize,
    growth_batch: usize,
    refine_vertices: usize,
    refine_jobs: usize,
}

const FULL: Sizes = Sizes {
    subscribers: 100_000,
    durable_batches_per_week: 70,
    durable_batches: 280,
    durable_queries: 1024,
    serve_batches_per_week: 140,
    serve_warm_batches: 140,
    serve_batches: 280,
    serve_queries: 20_000,
    growth_vertices: 300_000,
    growth_batches: 1000,
    growth_batch: 500,
    refine_vertices: 500_000,
    refine_jobs: 8,
};

/// Toy sizes for `smoke`: every code path, two CDR weeks (so removals
/// happen), seconds in a debug build.
const SMOKE: Sizes = Sizes {
    subscribers: 2_000,
    durable_batches_per_week: 4,
    durable_batches: 8,
    durable_queries: 64,
    serve_batches_per_week: 4,
    serve_warm_batches: 4,
    serve_batches: 8,
    serve_queries: 500,
    growth_vertices: 5_000,
    growth_batches: 8,
    growth_batch: 50,
    refine_vertices: 5_000,
    refine_jobs: 2,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Streaming(Streaming),
    PowerlawRefine,
}

/// The workloads that ingest a stream batch by batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Streaming {
    CdrDurable { install_every: usize },
    GrowthIngest,
    CdrServe,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists: which layer it loads and what should show
    /// here first.
    pub why: &'static str,
    kind: Kind,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "cdr_durable_c1",
        why: "CDR churn with a durable install every batch: persist does most of the work, so capture, encode and fsync cost shows here first",
        kind: Kind::Streaming(Streaming::CdrDurable { install_every: 1 }),
    },
    Workload {
        name: "cdr_durable_c8",
        why: "the same stream with an install every 8 batches: the balanced pipeline, append-heavy, long chains and tails, so slower recovery shows here",
        kind: Kind::Streaming(Streaming::CdrDurable { install_every: 8 }),
    },
    Workload {
        name: "growth_ingest",
        why: "power-law growth, no store, no queries: core's small-active-set iterations over graph's batch apply, 1000 short steps for a real tail",
        kind: Kind::Streaming(Streaming::GrowthIngest),
    },
    Workload {
        name: "powerlaw_refine",
        why: "the paper's experiment: static power-law graph refined from hash to convergence, every vertex active, no stream, store or router",
        kind: Kind::PowerlawRefine,
    },
    Workload {
        name: "cdr_serve",
        why: "CDR churn with 20k uniform 2-hop queries after every batch: serve dominates, reads beside writes; core and persist changes leave it flat",
        kind: Kind::Streaming(Streaming::CdrServe),
    },
];

impl Workload {
    pub fn named(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Whether a one-thread repetition of this workload is part of `run`
    /// (it feeds `exec.speedup_vs_1t`).
    pub fn wants_one_thread_rep(&self) -> bool {
        self.kind == Kind::PowerlawRefine
    }
}

/// What one repetition is run with.
#[derive(Debug, Clone)]
pub struct RepParams {
    pub seed: u64,
    pub threads: usize,
    pub scale: Scale,
    pub seconds: u64,
    pub traced: bool,
    /// Where store directories and trace files go (`benchmark/out`).
    pub out_dir: PathBuf,
}

/// What one repetition produced.
#[derive(Debug)]
pub struct Rep {
    /// Steps attempted.
    pub steps: usize,
    /// Store calls that returned `Err` and checks that failed, one line each.
    pub failures: Vec<String>,
    /// Identical for every repetition of a workload at a seed and size,
    /// traced or not, at any thread count.
    pub fingerprint: u64,
    pub metrics: Vec<(&'static str, f64)>,
    pub spans: Vec<Span>,
}

/// A directory under `out/` that is removed when the guard drops: on
/// success, on error and on panic alike.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(parent: &Path, name: &str) -> Result<ScratchDir, String> {
        let path = parent.join(name);
        if path.exists() {
            fs::remove_dir_all(&path).map_err(|e| format!("clearing {}: {e}", path.display()))?;
        }
        fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Nothing useful can be done about a failure here, and a panic in
        // drop would abort an unwinding process.
        let _ = fs::remove_dir_all(&self.0);
    }
}

#[derive(Debug, Default)]
struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64) {
        assert!(
            metrics::unit_of(name).is_some(),
            "metric {name} is not in the tables"
        );
        assert!(value.is_finite(), "metric {name} is {value}");
        self.0.push((name, value));
    }

    /// `[p50, p95, sum]` names for millisecond samples; the sum is in
    /// seconds. Emits nothing for no samples and no p95 below 200.
    fn put_dist(&mut self, names: [&'static str; 3], samples_ms: &[f64]) {
        let Some(dist) = Dist::of(samples_ms) else {
            return;
        };
        self.put(names[0], dist.p50);
        if let Some(p95) = dist.p95 {
            self.put(names[1], p95);
        }
        self.put(names[2], dist.sum / 1e3);
    }

    fn put_p50(&mut self, name: &'static str, samples: &[f64]) {
        if let Some(dist) = Dist::of(samples) {
            self.put(name, dist.p50);
        }
    }
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn span_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// Step counts follow `--seconds`; graphs and batch sizes never do.
fn scaled(steps: usize, seconds: u64) -> usize {
    (steps as u64 * seconds / NOMINAL_SECONDS).max(1) as usize
}

/// Set-ups behind one repetition's `setup_s`, which is their median: the
/// driver of `BENCHMARK.json` judges the one number a process reports.
const SETUPS: usize = 3;

/// Runs `build` `SETUPS` times, keeping the last product and reporting the
/// median build time. Each product is dropped before the next is built, so
/// set-up never holds two graphs (or two store directories) at once.
fn repeat_setup<T>(mut build: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut seconds = Vec::with_capacity(SETUPS);
    let mut product = None;
    for _ in 0..SETUPS {
        drop(product.take());
        let start = Instant::now();
        product = Some(build()?);
        seconds.push(start.elapsed().as_secs_f64());
    }
    let product = product.expect("SETUPS is at least one");
    Ok((product, Quartiles::of(&seconds).median))
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Runs one repetition of `workload` in this process.
pub fn run_rep(workload: &Workload, p: &RepParams) -> Result<Rep, String> {
    let sizes = match p.scale {
        Scale::Full => &FULL,
        Scale::Smoke => &SMOKE,
    };
    let mut rep = match workload.kind {
        Kind::PowerlawRefine => run_refine(sizes, p)?,
        Kind::Streaming(kind) => run_streaming(workload.name, kind, sizes, p)?,
    };
    rep.metrics.push(("peak_rss_mb", peak_rss_mb()?));
    Ok(rep)
}

// ---- streaming workloads --------------------------------------------------

/// What set-up hands to the measured loop.
struct Prepared {
    partitioner: Partitioner,
    stream: Stream,
    store: Option<(Store, ScratchDir)>,
}

struct StreamingPlan {
    batches: usize,
    /// Install on every step whose index is a multiple of this.
    install_every: Option<usize>,
    window: Option<usize>,
    queries: Option<Queries>,
    /// `queries_per_s` is an end-to-end number only where queries are what
    /// the run is for.
    serving_is_the_point: bool,
}

fn plan_for(kind: Streaming, sizes: &Sizes, p: &RepParams) -> StreamingPlan {
    match kind {
        Streaming::CdrDurable { install_every } => StreamingPlan {
            batches: scaled(sizes.durable_batches, p.seconds),
            install_every: Some(install_every),
            window: Some(TIMELINE_WINDOW),
            queries: Some(Queries::community_biased(sizes.durable_queries, p.seed)),
            serving_is_the_point: false,
        },
        Streaming::GrowthIngest => StreamingPlan {
            batches: scaled(sizes.growth_batches, p.seconds),
            install_every: None,
            window: None,
            queries: None,
            serving_is_the_point: false,
        },
        Streaming::CdrServe => StreamingPlan {
            batches: scaled(sizes.serve_batches, p.seconds),
            install_every: None,
            window: None,
            queries: Some(Queries::uniform(sizes.serve_queries, p.seed)),
            serving_is_the_point: true,
        },
    }
}

/// Applies `batch` and spends the per-batch budget the way
/// `StreamingRunner::ingest` does: stop once the active set is empty.
fn ingest_bare(partitioner: &mut Partitioner, batch: &Batch) {
    partitioner.apply_batch(batch);
    for _ in 0..ITERATIONS_PER_BATCH {
        if partitioner.drained() {
            break;
        }
        partitioner.iterate();
    }
}

fn prepare(name: &str, kind: Streaming, sizes: &Sizes, p: &RepParams) -> Result<Prepared, String> {
    match kind {
        Streaming::CdrDurable { .. } => {
            let partitioner = Partitioner::isolated(sizes.subscribers, p.threads, p.seed);
            let stream = Stream::cdr(sizes.subscribers, sizes.durable_batches_per_week, p.seed);
            let dir =
                ScratchDir::create(&p.out_dir, &format!("store-{name}-{}", std::process::id()))?;
            let (store, found) = Store::open(dir.path())?;
            if found.is_some() {
                return Err(format!(
                    "fresh store directory {} held a checkpoint",
                    dir.path().display()
                ));
            }
            Ok(Prepared {
                partitioner,
                stream,
                store: Some((store, dir)),
            })
        }
        Streaming::GrowthIngest => {
            let graph = PowerlawGraph::holme_kim(
                sizes.growth_vertices,
                POWERLAW_M,
                POWERLAW_P,
                GROWTH_BASE_SEED,
            );
            let mut partitioner = Partitioner::hashed(&graph, p.threads, GROWTH_BASE_SEED);
            partitioner.run_to_convergence();
            let stream = Stream::growth(&partitioner, POWERLAW_M, sizes.growth_batch, p.seed);
            Ok(Prepared {
                partitioner,
                stream,
                store: None,
            })
        }
        Streaming::CdrServe => {
            let mut partitioner = Partitioner::isolated(sizes.subscribers, p.threads, p.seed);
            let mut stream = Stream::cdr(sizes.subscribers, sizes.serve_batches_per_week, p.seed);
            for _ in 0..sizes.serve_warm_batches {
                ingest_bare(&mut partitioner, &stream.next_batch());
            }
            partitioner.run_to_convergence();
            Ok(Prepared {
                partitioner,
                stream,
                store: None,
            })
        }
    }
}

/// Side measurements of a traced run. All of it happens outside the step
/// timer and none of it touches the measured runner or store.
#[derive(Debug, Default)]
struct Side {
    next_batch_s: f64,
    wal_encode_ms: Vec<f64>,
    apply_batch_s: f64,
    iterate_us: Vec<f64>,
    graph_apply_s: f64,
    capture_ms: Vec<f64>,
    encode_full_ms: Vec<f64>,
    delta_bytes_ratio: Vec<f64>,
    generate_ms: Vec<f64>,
}

/// The shadow: a second partitioner with the runner's graph, config and
/// seed, driven call by call, and a bare graph taking the same batches.
/// They attribute what `ingest` lumps together, and their trajectory must
/// equal the runner's exactly.
///
/// The shadow runs *after* the measured loop, pulling the same batches from
/// its own copy of the stream. Taking turns with the runner, batch by
/// batch, would keep the shadow's graph in the caches the runner's next
/// step wants warm: on `growth_ingest` that made the traced steps 20%
/// slower. (Keeping the run's batches for it instead would hold 180 MB on
/// the durable workloads and move their installs' page faults around.)
struct Shadow {
    partitioner: Partitioner,
    graph: BareGraph,
    stream: Stream,
}

impl Shadow {
    /// Takes the next batch: the one the runner made `expected` of.
    fn follow(&mut self, expected: &Ingested, side: &mut Side) -> Result<(), String> {
        let batch = &self.stream.next_batch();
        let start = Instant::now();
        self.partitioner.apply_batch(batch);
        side.apply_batch_s += start.elapsed().as_secs_f64();
        let mut migrations = 0;
        let mut cut = 0;
        for _ in 0..ITERATIONS_PER_BATCH {
            // Once the active set is empty the runner skips the rest of the
            // batch's budget and charges it to its counters. `iterate()` on
            // an empty active set is that same no-op, so the shadow makes
            // the call, to stay in step, but keeps it out of the timings.
            let executed = !self.partitioner.drained();
            let start = Instant::now();
            let iteration = self.partitioner.iterate();
            if executed {
                side.iterate_us.push(start.elapsed().as_secs_f64() * 1e6);
            } else if iteration.migrations != 0 {
                return Err("an iteration on an empty active set migrated vertices".into());
            }
            migrations += iteration.migrations;
            cut = iteration.cut_edges;
        }
        let start = Instant::now();
        self.graph.apply(batch);
        side.graph_apply_s += start.elapsed().as_secs_f64();
        check_shadow(expected, cut, migrations, self.graph.edges())
    }
}

/// The shadow check: after a batch, the shadow's cut and migration count
/// (and the bare graph's edge count) must be the runner's.
pub fn check_shadow(
    expected: &Ingested,
    cut: usize,
    migrations: usize,
    bare_edges: usize,
) -> Result<(), String> {
    if (cut, migrations) != (expected.cut_after, expected.migrations) {
        return Err(format!(
            "shadow partitioner reached (cut {cut}, {migrations} migrations), the runner (cut {}, {} migrations)",
            expected.cut_after, expected.migrations
        ));
    }
    if bare_edges != expected.num_edges {
        return Err(format!(
            "shadow bare graph has {bare_edges} edges, the runner's {}",
            expected.num_edges
        ));
    }
    Ok(())
}

/// The smallest prime that is at least `n`.
fn next_prime(n: usize) -> usize {
    (n.max(2)..)
        .find(|&c| (2..).take_while(|d| d * d <= c).all(|d| c % d != 0))
        .expect("there is always a larger prime")
}

/// File count and summed file size under `dir`, by walking it.
fn walk_bytes(dir: &Path) -> Result<(usize, u64), String> {
    let mut files = 0;
    let mut bytes = 0;
    let entries = fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("reading {}: {e}", dir.display()))?;
        let meta = entry
            .metadata()
            .map_err(|e| format!("stat {}: {e}", entry.path().display()))?;
        if meta.is_dir() {
            let (f, b) = walk_bytes(&entry.path())?;
            files += f;
            bytes += b;
        } else {
            files += 1;
            bytes += meta.len();
        }
    }
    Ok((files, bytes))
}

fn run_streaming(name: &str, kind: Streaming, sizes: &Sizes, p: &RepParams) -> Result<Rep, String> {
    let plan = plan_for(kind, sizes, p);
    let mut m = Metrics::default();
    let mut failures = Vec::new();

    let (prepared, setup_s) = repeat_setup(|| prepare(name, kind, sizes, p))?;
    m.put("setup_s", setup_s);
    let Prepared {
        partitioner,
        mut stream,
        store,
    } = prepared;
    let shadow = p.traced.then(|| Shadow {
        graph: partitioner.bare_graph(),
        partitioner: partitioner.clone(),
        stream: stream.clone(),
    });
    let mut runner = Runner::new(partitioner, ITERATIONS_PER_BATCH, plan.window);
    let (mut store, store_dir) = match store {
        Some((store, dir)) => (Some(store), Some(dir)),
        None => (None, None),
    };

    let mut tracer = Tracer::new(p.traced);
    let mut fingerprint = Fnv::new();
    let mut side = Side::default();
    // A traced run keeps what the runner made of each batch, for the shadow.
    let mut trajectory: Vec<Ingested> = Vec::new();
    let mut step_ms = Vec::with_capacity(plan.batches);
    let (mut deltas, mut migrations) = (0usize, 0usize);
    let (mut wal_bytes, mut install_bytes) = (0usize, 0usize);
    let (mut installs, mut incremental_installs) = (0usize, 0usize);
    let mut served_total = Served::default();
    let expected_installs = plan
        .install_every
        .map_or(0, |every| plan.batches.div_ceil(every));
    // Installs fall into a rhythm — by default every ninth is a full
    // snapshot — and a prime stride does not lock onto it.
    let side_stride = next_prime(expected_installs.div_ceil(SIDE_SAMPLED_INSTALLS));

    for i in 0..plan.batches {
        let start = Instant::now();
        let batch = stream.next_batch();
        side.next_batch_s += start.elapsed().as_secs_f64();
        if store.is_some() {
            // The bytes `append` is about to write, encoded here so that
            // counting them costs the step nothing.
            let start = Instant::now();
            wal_bytes += batch.wal_payload().len();
            side.wal_encode_ms.push(ms_since(start));
        }

        let step_id = i as u64;
        let started = Instant::now();
        let step = tracer.begin("step", None, step_id);
        let ingested = tracer.time("core.ingest", step, step_id, || runner.ingest(&batch));
        let mut installed: Option<Installed> = None;
        if let (Some(store), Some(every)) = (store.as_mut(), plan.install_every) {
            let mut outcome = tracer.time("persist.append", step, step_id, || store.append(&batch));
            if outcome.is_ok() && i % every == 0 {
                outcome = tracer
                    .time("persist.install", step, step_id, || {
                        store.install(&mut runner)
                    })
                    .map(|report| installed = Some(report));
            }
            if let Err(e) = outcome {
                failures.push(format!("step {i}: {e}"));
            }
        }
        let served = plan.queries.as_ref().map(|q| {
            tracer.time("serve.round", step, step_id, || {
                runner.serve_round(q, step_id, p.threads)
            })
        });
        tracer.end(step);
        step_ms.push(ms_since(started));

        deltas += ingested.deltas;
        migrations += ingested.migrations;
        ingested.fold_into(&mut fingerprint);
        if let Some(served) = served {
            served_total.queries += served.queries;
            served_total.hops += served.hops;
            served_total.local_hops += served.local_hops;
            served_total.misses += served.misses;
            for count in [
                served.queries,
                served.hops,
                served.local_hops,
                served.misses,
            ] {
                fingerprint.fold(count as u64);
            }
        }
        if let Some(report) = installed {
            if p.traced && installs % side_stride == 0 {
                let start = Instant::now();
                let capture = runner.capture();
                side.capture_ms.push(ms_since(start));
                let start = Instant::now();
                let full_bytes = capture.encode().len();
                side.encode_full_ms.push(ms_since(start));
                if report.incremental {
                    side.delta_bytes_ratio
                        .push(report.bytes as f64 / full_bytes as f64);
                }
            }
            installs += 1;
            incremental_installs += usize::from(report.incremental);
            install_bytes += report.bytes;
        }
        if p.traced {
            if let Some(q) = plan.queries.as_ref() {
                let start = Instant::now();
                std::hint::black_box(runner.generate_queries(q, step_id));
                side.generate_ms.push(ms_since(start));
            }
            trajectory.push(ingested);
        }
    }

    if let Some(mut shadow) = shadow {
        for (i, ingested) in trajectory.iter().enumerate() {
            if let Err(e) = shadow.follow(ingested, &mut side) {
                failures.push(format!("step {i}: {e}"));
            }
        }
    }

    runner.audit();
    let summary = runner.summary();
    let run_s = step_ms.iter().sum::<f64>() / 1e3;
    let steps = Dist::of(&step_ms).expect("at least one step");
    m.put("run_s", run_s);
    m.put("deltas_per_s", deltas as f64 / run_s);
    m.put("step_ms_p50", steps.p50);
    if let Some(p95) = steps.p95 {
        m.put("step_ms_p95", p95);
    }
    if plan.serving_is_the_point {
        m.put("queries_per_s", served_total.queries as f64 / run_s);
    }
    m.put("final_cut_ratio", summary.cut_ratio);
    if served_total.hops > 0 {
        m.put(
            "local_hop_pct",
            served_total.local_hops as f64 * 100.0 / served_total.hops as f64,
        );
    }

    // Recovery: what a restart after this run would cost, and whether it
    // would come back as the runner that is live now.
    let (mut open_ms, mut resume_ms, mut recover_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut store_files = 0;
    if let Some(dir) = store_dir.as_ref() {
        drop(store.take());
        let (files, bytes) = walk_bytes(dir.path())?;
        store_files = files;
        m.put(
            "store_bytes_per_delta",
            (install_bytes + wal_bytes) as f64 / deltas as f64,
        );
        m.put("store_live_bytes", bytes as f64);
        for _ in 0..RECOVERIES {
            let start = Instant::now();
            let opened = Store::open(dir.path());
            let open = ms_since(start);
            match opened {
                Err(e) => failures.push(format!("recovery: {e}")),
                Ok((_, None)) => {
                    failures.push("recovery: the store held no durable checkpoint".into())
                }
                Ok((_store, Some(found))) => {
                    let start = Instant::now();
                    let recovered = found.resume();
                    let resume = ms_since(start);
                    open_ms.push(open);
                    resume_ms.push(resume);
                    recover_ms.push(open + resume);
                    // The equality check is not part of what a restart costs.
                    if let Err(e) = recovered.same_history_as(&runner) {
                        failures.push(format!("recovery: {e}"));
                    }
                }
            }
        }
        if !recover_ms.is_empty() {
            m.put("recover_ms", Quartiles::of(&recover_ms).median);
        }
    }

    fingerprint.fold(runner.batches_ingested() as u64);
    fingerprint.fold(runner.timeline_digest());
    fingerprint.fold(summary.assignment_hash);
    fingerprint.fold(summary.cut_ratio.to_bits());

    if p.traced {
        let spans = tracer.spans();
        let attribution = Attribution::of(spans);
        m.put("trace.run_s", attribution.step_ns as f64 / 1e9);
        m.put("trace.step_coverage_pct", attribution.coverage_pct());

        m.put("streams.next_batch_sum_s", side.next_batch_s);
        m.put("streams.deltas", deltas as f64);
        m.put(
            "streams.batch_deltas_mean",
            deltas as f64 / plan.batches as f64,
        );

        m.put("graph.apply_sum_s", side.graph_apply_s);
        m.put(
            "graph.apply_us_per_delta",
            side.graph_apply_s * 1e6 / deltas as f64,
        );
        m.put("graph.final_vertices", summary.vertices as f64);
        m.put("graph.final_edges", summary.edges as f64);
        m.put("partition.max_load_ratio", summary.max_load_ratio);

        m.put_dist(
            [
                "core.ingest_ms_p50",
                "core.ingest_ms_p95",
                "core.ingest_sum_s",
            ],
            &span_ms(spans, "core.ingest"),
        );
        m.put("core.share_pct", attribution.share_pct("core"));
        m.put("core.apply_batch_sum_s", side.apply_batch_s);
        m.put(
            "core.iterate_sum_s",
            side.iterate_us.iter().sum::<f64>() / 1e6,
        );
        m.put("core.iterate_calls", side.iterate_us.len() as f64);
        m.put_p50("core.iterate_us_p50", &side.iterate_us);
        m.put("core.migrations", migrations as f64);
        m.put(
            "core.migrations_per_delta",
            migrations as f64 / deltas as f64,
        );

        if store_dir.is_some() {
            m.put_dist(
                [
                    "persist.append_ms_p50",
                    "persist.append_ms_p95",
                    "persist.append_sum_s",
                ],
                &span_ms(spans, "persist.append"),
            );
            m.put_dist(
                [
                    "persist.install_ms_p50",
                    "persist.install_ms_p95",
                    "persist.install_sum_s",
                ],
                &span_ms(spans, "persist.install"),
            );
            m.put("persist.share_pct", attribution.share_pct("persist"));
            m.put_p50("persist.capture_ms_p50", &side.capture_ms);
            m.put_p50("persist.encode_full_ms_p50", &side.encode_full_ms);
            m.put_p50("persist.wal_encode_ms_p50", &side.wal_encode_ms);
            let bytes = runner.capture().encode();
            let start = Instant::now();
            let decoded = Capture::decode(&bytes);
            m.put("persist.decode_full_ms", ms_since(start));
            if let Err(e) = decoded {
                failures.push(e);
            }
            m.put("persist.installs", installs as f64);
            m.put("persist.incremental_installs", incremental_installs as f64);
            m.put("persist.install_bytes_sum", install_bytes as f64);
            m.put("persist.wal_bytes_sum", wal_bytes as f64);
            m.put_p50("persist.delta_bytes_ratio_p50", &side.delta_bytes_ratio);
            m.put("persist.files", store_files as f64);
            if !open_ms.is_empty() {
                m.put("persist.open_ms", Quartiles::of(&open_ms).median);
                m.put("persist.resume_ms", Quartiles::of(&resume_ms).median);
            }
        }

        if plan.queries.is_some() {
            let rounds = span_ms(spans, "serve.round");
            let round_ns = rounds.iter().sum::<f64>() * 1e6;
            m.put_dist(
                [
                    "serve.round_ms_p50",
                    "serve.round_ms_p95",
                    "serve.round_sum_s",
                ],
                &rounds,
            );
            m.put("serve.share_pct", attribution.share_pct("serve"));
            m.put("serve.queries", served_total.queries as f64);
            m.put("serve.hops", served_total.hops as f64);
            m.put("serve.misses", served_total.misses as f64);
            m.put(
                "serve.us_per_query",
                round_ns / 1e3 / served_total.queries as f64,
            );
            if served_total.hops > 0 {
                m.put("serve.ns_per_hop", round_ns / served_total.hops as f64);
            }
            m.put_p50("serve.generate_ms_p50", &side.generate_ms);
        }
    }

    Ok(Rep {
        steps: plan.batches,
        failures,
        fingerprint: fingerprint.0,
        metrics: m.0,
        spans: tracer.spans().to_vec(),
    })
}

// ---- powerlaw_refine ------------------------------------------------------

fn run_refine(sizes: &Sizes, p: &RepParams) -> Result<Rep, String> {
    let jobs = scaled(sizes.refine_jobs, p.seconds);
    let mut m = Metrics::default();
    let (graph, setup_s) = repeat_setup(|| {
        Ok(PowerlawGraph::holme_kim(
            sizes.refine_vertices,
            POWERLAW_M,
            POWERLAW_P,
            p.seed,
        ))
    })?;
    m.put("setup_s", setup_s);

    let mut tracer = Tracer::new(p.traced);
    let mut fingerprint = Fnv::new();
    let mut job_ms = Vec::with_capacity(jobs);
    let (mut cuts, mut iterations_to_converge) = (Vec::new(), Vec::new());
    let mut migrations = 0usize;
    let mut max_load_ratio = 0f64;
    let mut last = None;

    for job in 0..jobs {
        let step_id = job as u64;
        let seed = p.seed + step_id;
        let started = Instant::now();
        let step = tracer.begin("step", None, step_id);
        let (partitioner, iterations) = if tracer.enabled() {
            // The same job spelled out call by call: the fingerprint proves
            // it takes `run_to_convergence()`'s path.
            let mut partitioner = tracer.time("core.build", step, step_id, || {
                Partitioner::hashed(&graph, p.threads, seed)
            });
            let mut iterations = 0;
            while iterations < MAX_ITERATIONS {
                migrations += tracer
                    .time("core.iterate", step, step_id, || partitioner.iterate())
                    .migrations;
                iterations += 1;
                if partitioner.is_converged() {
                    break;
                }
            }
            (partitioner, iterations)
        } else {
            let mut partitioner = Partitioner::hashed(&graph, p.threads, seed);
            let iterations = partitioner.run_to_convergence();
            (partitioner, iterations)
        };
        tracer.end(step);
        job_ms.push(ms_since(started));

        partitioner.audit();
        let summary = partitioner.summary();
        cuts.push(summary.cut_ratio);
        iterations_to_converge.push(iterations as f64);
        max_load_ratio = max_load_ratio.max(summary.max_load_ratio);
        fingerprint.fold(iterations as u64);
        fingerprint.fold(summary.assignment_hash);
        fingerprint.fold(summary.cut_ratio.to_bits());
        last = Some(summary);
    }

    let last = last.expect("at least one job");
    m.put("run_s", job_ms.iter().sum::<f64>() / 1e3);
    m.put(
        "step_ms_p50",
        Dist::of(&job_ms).expect("at least one job").p50,
    );
    m.put("final_cut_ratio", Quartiles::of(&cuts).median);

    if p.traced {
        let spans = tracer.spans();
        let attribution = Attribution::of(spans);
        let iterate_ms = span_ms(spans, "core.iterate");
        let iterate = Dist::of(&iterate_ms).expect("every job iterates at least once");
        m.put("trace.run_s", attribution.step_ns as f64 / 1e9);
        m.put("trace.step_coverage_pct", attribution.coverage_pct());
        m.put("graph.final_vertices", last.vertices as f64);
        m.put("graph.final_edges", last.edges as f64);
        m.put("partition.max_load_ratio", max_load_ratio);
        m.put("core.share_pct", attribution.share_pct("core"));
        m.put_p50("core.build_ms_p50", &span_ms(spans, "core.build"));
        m.put_p50("core.iters_to_converge_p50", &iterations_to_converge);
        m.put("core.iter_ms_p50", iterate.p50);
        m.put("core.iter_ms_max", iterate.max);
        m.put("core.iterate_sum_s", iterate.sum / 1e3);
        m.put("core.iterate_calls", iterate.n as f64);
        m.put("core.iterate_us_p50", iterate.p50 * 1e3);
        m.put("core.migrations", migrations as f64);
    }

    Ok(Rep {
        steps: jobs,
        failures: Vec::new(),
        fingerprint: fingerprint.0,
        metrics: m.0,
        spans: tracer.spans().to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const THREADS: usize = 2;

    fn out_dir(test: &str) -> ScratchDir {
        let parent = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        ScratchDir::create(&parent, &format!("unit-{test}-{}", std::process::id())).unwrap()
    }

    fn small_cdr_runner(batches: usize) -> (Runner, Vec<Ingested>) {
        let mut stream = Stream::cdr(500, 4, 5);
        let mut runner = Runner::new(
            Partitioner::isolated(500, THREADS, 5),
            ITERATIONS_PER_BATCH,
            Some(4),
        );
        let ingested = (0..batches)
            .map(|_| runner.ingest(&stream.next_batch()))
            .collect();
        (runner, ingested)
    }

    #[test]
    fn a_recovered_runner_one_batch_behind_is_rejected() {
        let (live, _) = small_cdr_runner(6);
        let (same, _) = small_cdr_runner(6);
        let (behind, _) = small_cdr_runner(5);
        assert_eq!(same.same_history_as(&live), Ok(()));
        let err = behind.same_history_as(&live).unwrap_err();
        assert!(err.contains("batch 5") && err.contains("at 6"), "{err}");
    }

    #[test]
    fn a_recovered_runner_with_another_history_is_rejected() {
        let (live, _) = small_cdr_runner(6);
        let mut stream = Stream::cdr(500, 4, 6);
        let mut other = Runner::new(
            Partitioner::isolated(500, THREADS, 5),
            ITERATIONS_PER_BATCH,
            Some(4),
        );
        for _ in 0..6 {
            other.ingest(&stream.next_batch());
        }
        assert!(other.same_history_as(&live).is_err());
    }

    #[test]
    fn a_shadow_off_by_one_migration_is_rejected() {
        let (_, ingested) = small_cdr_runner(3);
        let last = ingested[2];
        assert_eq!(
            check_shadow(&last, last.cut_after, last.migrations, last.num_edges),
            Ok(())
        );
        let err =
            check_shadow(&last, last.cut_after, last.migrations + 1, last.num_edges).unwrap_err();
        assert!(err.contains("migrations"), "{err}");
        assert!(check_shadow(&last, last.cut_after + 1, last.migrations, last.num_edges).is_err());
        assert!(check_shadow(&last, last.cut_after, last.migrations, last.num_edges + 1).is_err());
    }

    #[test]
    fn the_shadow_follows_a_real_runner_batch_for_batch() {
        let mut stream = Stream::cdr(500, 4, 9);
        let partitioner = Partitioner::isolated(500, THREADS, 9);
        let mut shadow = Shadow {
            graph: partitioner.bare_graph(),
            partitioner: partitioner.clone(),
            stream: stream.clone(),
        };
        let mut runner = Runner::new(partitioner, ITERATIONS_PER_BATCH, None);
        let mut side = Side::default();
        for _ in 0..10 {
            let ingested = runner.ingest(&stream.next_batch());
            assert_eq!(shadow.follow(&ingested, &mut side), Ok(()));
        }
        assert!(!side.iterate_us.is_empty());
    }

    #[test]
    fn side_sampling_strides_are_prime() {
        let primes: Vec<usize> = [0, 1, 2, 3, 4, 9, 10, 24].map(next_prime).to_vec();
        assert_eq!(primes, [2, 2, 2, 3, 5, 11, 11, 29]);
    }

    #[test]
    fn step_counts_scale_with_seconds_and_never_reach_zero() {
        assert_eq!(scaled(280, NOMINAL_SECONDS), 280);
        assert_eq!(scaled(280, NOMINAL_SECONDS / 2), 140);
        assert_eq!(scaled(8, 1), 1);
        assert_eq!(scaled(8, 20), 16);
    }

    #[test]
    fn set_up_reports_the_median_and_keeps_the_last_product() {
        let mut built = 0;
        let (product, median) = repeat_setup(|| {
            built += 1;
            Ok(built)
        })
        .unwrap();
        assert_eq!((product, built), (SETUPS, SETUPS));
        assert!(median >= 0.0);
        assert_eq!(
            repeat_setup(|| Err::<(), _>("no".to_string())),
            Err("no".to_string())
        );
    }

    #[test]
    fn a_scratch_dir_is_removed_on_success_error_and_panic() {
        let parent = out_dir("scratch");
        let kept = {
            let dir = ScratchDir::create(parent.path(), "ok").unwrap();
            fs::write(dir.path().join("file"), b"x").unwrap();
            dir.path().to_path_buf()
        };
        assert!(!kept.exists(), "dropped on success");

        let failing = || -> Result<(), String> {
            let dir = ScratchDir::create(parent.path(), "err")?;
            fs::write(dir.path().join("file"), b"x").unwrap();
            Err("store said no".into())
        };
        assert!(failing().is_err());
        assert!(!parent.path().join("err").exists(), "dropped on error");

        let panicking = std::panic::catch_unwind(|| {
            let dir = ScratchDir::create(parent.path(), "panic").unwrap();
            fs::write(dir.path().join("file"), b"x").unwrap();
            panic!("audit failed");
        });
        assert!(panicking.is_err());
        assert!(!parent.path().join("panic").exists(), "dropped on panic");
    }

    #[test]
    fn a_smoke_repetition_of_each_workload_passes_its_checks() {
        let dir = out_dir("rep");
        for workload in &WORKLOADS {
            let mut fingerprints = Vec::new();
            for traced in [false, true] {
                let params = RepParams {
                    seed: 3,
                    threads: THREADS,
                    scale: Scale::Smoke,
                    seconds: NOMINAL_SECONDS,
                    traced,
                    out_dir: dir.path().to_path_buf(),
                };
                let rep = run_rep(workload, &params).unwrap();
                assert_eq!(rep.failures, Vec::<String>::new(), "{}", workload.name);
                assert_eq!(rep.spans.is_empty(), !traced);
                for (name, value) in &rep.metrics {
                    let is_e2e = metrics::end_to_end(name).is_some();
                    assert!(traced || is_e2e, "{name} from an untraced run");
                    assert!(*value >= 0.0, "{name} = {value}");
                }
                fingerprints.push(rep.fingerprint);
            }
            assert_eq!(
                fingerprints[0], fingerprints[1],
                "{}: traced run took another path",
                workload.name
            );
        }
        assert_eq!(
            fs::read_dir(dir.path()).unwrap().count(),
            0,
            "store directories were removed"
        );
    }
}
