//! Crash/resume determinism: a streaming run killed mid-stream and
//! restarted from `(snapshot, log tail)` must reproduce the
//! uninterrupted run's [`TimelineStats`] timeline **exactly** (`wall_ms`
//! aside) — for each of the four `StreamSource` families, at parallelism
//! 1, 2 and 8.
//!
//! The interrupted run exercises the whole durable path: checkpoint at one
//! batch boundary, write-ahead the following batches into the tail,
//! serialise the checkpoint to bytes, drop every live object ("the
//! crash"), decode, fast-forward a freshly reconstructed source to the
//! cursor, resume, and finish the stream.

use apg::core::{AdaptiveConfig, AdaptivePartitioner, StreamCheckpoint, StreamingRunner};
use apg::graph::{gen, DynGraph, Graph};
use apg::partition::InitialStrategy;
use apg::streams::{
    CdrConfig, CdrStream, ForestFireConfig, ForestFireSource, PowerLawGrowth, RestartableSource,
    TwitterConfig, TwitterStream,
};

const SEED: u64 = 41;

fn runner(graph: &DynGraph, parallelism: usize) -> StreamingRunner {
    let cfg = AdaptiveConfig::builder(6)
        .parallelism(parallelism)
        .build()
        .unwrap();
    StreamingRunner::new(AdaptivePartitioner::with_strategy(
        graph,
        InitialStrategy::Hash,
        &cfg,
        SEED,
    ))
    .iterations_per_batch(3)
}

/// Runs `total` batches uninterrupted; then reruns with a kill at
/// `snapshot_at` + `crash_at`, resumes from decoded bytes, and asserts the
/// two runs are indistinguishable.
fn check_kill_and_resume<S, F>(
    name: &str,
    graph: &DynGraph,
    make_source: F,
    parallelism: usize,
    total: usize,
    snapshot_at: usize,
    crash_at: usize,
) where
    S: RestartableSource,
    F: Fn() -> S,
{
    assert!(snapshot_at < crash_at && crash_at < total);

    // The uninterrupted reference run.
    let mut reference = runner(graph, parallelism);
    let mut source = make_source();
    assert_eq!(reference.drive(&mut source, total), total);

    // The interrupted run: snapshot early, write-ahead until the crash.
    let bytes = {
        let mut r = runner(graph, parallelism);
        let mut s = make_source();
        assert_eq!(r.drive(&mut s, snapshot_at), snapshot_at);
        let mut ckpt = r.checkpoint();
        for _ in snapshot_at..crash_at {
            let batch = apg::streams::StreamSource::next_batch(&mut s)
                .expect("stream ended before the crash point");
            r.ingest(&batch);
            ckpt.append(batch);
        }
        assert_eq!(ckpt.cursor(), s.cursor(), "cursor must track the source");
        ckpt.to_bytes()
        // r, s, ckpt drop here: the crash.
    };

    // Recovery: decode, rebuild the source, resume, finish the stream.
    let ckpt = StreamCheckpoint::from_bytes(&bytes)
        .unwrap_or_else(|e| panic!("{name}: checkpoint failed to decode: {e}"));
    let mut s = make_source();
    s.fast_forward(ckpt.cursor());
    let mut resumed = StreamingRunner::resume(ckpt);
    assert_eq!(resumed.timeline().len(), crash_at);
    assert_eq!(resumed.drive(&mut s, total - crash_at), total - crash_at);

    // Byte-identical observables (TimelineStats equality ignores wall_ms
    // only; the projection pins every deterministic field literally).
    assert_eq!(
        resumed.timeline(),
        reference.timeline(),
        "{name}@{parallelism}: timeline diverged after resume"
    );
    let project = |r: &StreamingRunner| -> String {
        r.timeline()
            .iter()
            .map(|t| format!("{:?}", t.deterministic_fields()))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(project(&resumed), project(&reference));
    assert_eq!(
        resumed.partitioner().graph(),
        reference.partitioner().graph(),
        "{name}@{parallelism}: graph diverged"
    );
    assert_eq!(
        resumed.partitioner().partitioning(),
        reference.partitioner().partitioning(),
        "{name}@{parallelism}: assignment diverged"
    );
    assert_eq!(
        resumed.partitioner().cut_edges(),
        reference.partitioner().cut_edges()
    );
    resumed.partitioner().audit();

    // The run must have been busy enough to prove something.
    let migrations: usize = reference.timeline().iter().map(|t| t.migrations).sum();
    assert!(migrations > 0, "{name}: too quiet to prove anything");
}

#[test]
fn cdr_stream_survives_kill_and_resume() {
    let config = CdrConfig {
        initial_subscribers: 3_000,
        ..CdrConfig::default()
    };
    let graph = DynGraph::with_vertices(config.initial_subscribers);
    for parallelism in [1usize, 2, 8] {
        check_kill_and_resume(
            "cdr",
            &graph,
            || CdrStream::new(config, SEED),
            parallelism,
            16,
            5,
            11,
        );
    }
}

#[test]
fn twitter_stream_survives_kill_and_resume() {
    let config = TwitterConfig {
        initial_users: 2_000,
        ..TwitterConfig::default()
    };
    let graph = DynGraph::with_vertices(config.initial_users);
    for parallelism in [1usize, 2, 8] {
        check_kill_and_resume(
            "twitter",
            &graph,
            || TwitterStream::new(config, SEED).with_clock(17.0, 600.0),
            parallelism,
            9,
            3,
            6,
        );
    }
}

#[test]
fn forest_fire_burst_survives_kill_and_resume() {
    let base = DynGraph::from(&gen::holme_kim(4_000, 5, 0.1, 9));
    let cfg = ForestFireConfig::burst(400, SEED);
    for parallelism in [1usize, 2, 8] {
        check_kill_and_resume(
            "forest-fire",
            &base,
            || ForestFireSource::new(&base, &cfg, 50),
            parallelism,
            8,
            2,
            5,
        );
    }
}

#[test]
fn power_law_growth_survives_kill_and_resume() {
    let base = DynGraph::from(&gen::holme_kim(3_000, 5, 0.1, 9));
    for parallelism in [1usize, 2, 8] {
        check_kill_and_resume(
            "powerlaw-growth",
            &base,
            || PowerLawGrowth::new(&base, 4, 150, SEED),
            parallelism,
            8,
            3,
            6,
        );
    }
}

/// Growth over a denser base, in batches big enough that quota refuses
/// newcomers: the kill point holds parked proposers (read through the
/// sweep profile's counter, on a copy), a resumed runner starts with none
/// parked — restore re-marks every live vertex for the sweep — and the
/// resumed timeline still equals the uninterrupted one.
#[test]
fn a_parked_population_survives_kill_and_resume() {
    let base = DynGraph::from(&gen::holme_kim(3_000, 8, 0.1, 9));
    let source = || PowerLawGrowth::new(&base, 8, 400, SEED);
    let (total, snapshot_at, crash_at) = (8, 3, 6);

    let mut killed = runner(&base, 1);
    assert_eq!(killed.drive(&mut source(), crash_at), crash_at);
    let (_, at_kill) = killed.partitioner().clone().iterate_profiled();
    assert!(at_kill.parked > 0, "nothing parked at the kill point");
    let resumed = StreamingRunner::resume(
        StreamCheckpoint::from_bytes(&killed.checkpoint().to_bytes()).unwrap(),
    );
    let (_, at_resume) = resumed.partitioner().clone().iterate_profiled();
    assert_eq!(at_resume.parked, 0, "restore parked someone");
    assert_eq!(
        at_resume.active_before,
        resumed.partitioner().graph().num_live_vertices(),
        "restore must start from the saturated sweep"
    );

    for parallelism in [1usize, 2, 8] {
        check_kill_and_resume(
            "parked-growth",
            &base,
            source,
            parallelism,
            total,
            snapshot_at,
            crash_at,
        );
    }
}
