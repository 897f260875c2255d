//! Serving-locality benchmark: what adaptive partitioning buys a query
//! router.
//!
//! Not a figure from the paper: it measures the PR 6 serving layer. A CDR
//! churn stream (the paper's final use case: community-structured calls,
//! weekly subscriber turnover) drives a [`StreamingRunner`] with an
//! interleaved serve phase, and the same deterministic query stream is
//! served under three partitioner arms:
//!
//! * **adaptive** — hash-initialised, pre-converged, then the paper's
//!   heuristic keeps adapting between batches;
//! * **hash** — the `H(v) mod k` baseline most systems default to, never
//!   adapted;
//! * **static-range** — contiguous vertex ranges, never adapted (the
//!   "partition once, then let it rot" strawman).
//!
//! Because query generation reads only `(graph, seed, round)` — never the
//! assignment — all three arms answer the *identical* queries; the only
//! thing that moves is how many traversal hops stay inside the anchor's
//! partition. The sweep covers query mix × churn rate. That the serve
//! timeline is byte-identical at any thread count is
//! `tests/serve_correctness.rs`'s to check, not this bench's.
//!
//! The `serve` binary prints the table and writes `BENCH_serve.json`.

use apg_core::{AdaptiveConfig, AdaptivePartitioner, StreamingRunner};
use apg_graph::{DynGraph, Graph};
use apg_partition::{InitialStrategy, PartitionId, Partitioning};
use apg_serve::{QueryMix, QueryWorkload};
use apg_streams::{CdrConfig, CdrStream};

use crate::Scale;

/// Partitions (k) used throughout (matches the other benches).
const K: PartitionId = 8;

/// Traversal depth of generated k-hop queries.
const KHOP_DEPTH: usize = 2;

/// Repartitioning iterations per batch on the adaptive arm.
const ADAPTIVE_ITERS_PER_BATCH: usize = 5;

/// Subscribers at stream start per scale.
pub fn subscribers(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 2_000,
        Scale::Quick => 8_000,
        Scale::Paper | Scale::Xl => 20_000,
    }
}

/// Queries served per batch.
fn queries_per_round(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 64,
        Scale::Quick => 256,
        Scale::Paper | Scale::Xl => 512,
    }
}

/// Batches streamed (and therefore serve rounds) per arm.
fn batches(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 8,
        Scale::Quick => 14,             // one CDR week
        Scale::Paper | Scale::Xl => 28, // two weeks
    }
}

/// The three serving-domain assignments under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    Adaptive,
    Hash,
    StaticRange,
}

impl Arm {
    const ALL: [Arm; 3] = [Arm::Adaptive, Arm::Hash, Arm::StaticRange];

    fn label(self) -> &'static str {
        match self {
            Arm::Adaptive => "adaptive",
            Arm::Hash => "hash",
            Arm::StaticRange => "static-range",
        }
    }
}

/// The two churn intensities swept (weekly addition/removal rates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Churn {
    /// The paper's measured turnover: 8% additions, 4% removals per week.
    Paper,
    /// Triple turnover — the partitioning decays faster than the paper's
    /// trace, stressing the adaptive arm's ability to keep up.
    Hot,
}

impl Churn {
    const ALL: [Churn; 2] = [Churn::Paper, Churn::Hot];

    /// Label used in the report and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Churn::Paper => "paper",
            Churn::Hot => "hot",
        }
    }

    fn apply(self, mut config: CdrConfig) -> CdrConfig {
        if self == Churn::Hot {
            config.weekly_addition_rate *= 3.0;
            config.weekly_removal_rate *= 3.0;
            config.dormancy_rate *= 3.0;
        }
        config
    }
}

/// One arm's aggregate over a full scenario run.
#[derive(Debug, Clone)]
pub struct ArmResult {
    /// `"adaptive"`, `"hash"`, or `"static-range"`.
    pub partitioner: &'static str,
    /// Serve rounds run (= batches ingested).
    pub rounds: usize,
    /// Queries served across all rounds.
    pub queries: usize,
    /// Traversal hops performed across all rounds.
    pub hops: usize,
    /// Hops that stayed in the anchor's partition.
    pub local_hops: usize,
    /// Total serve wall-clock, milliseconds (measurement, not contract).
    pub wall_ms: f64,
    /// Cut ratio of the arm's assignment after the final batch.
    pub final_cut_ratio: f64,
}

impl ArmResult {
    /// Percentage of hops that stayed local — the headline metric.
    pub fn local_hop_pct(&self) -> f64 {
        if self.hops == 0 {
            100.0
        } else {
            100.0 * self.local_hops as f64 / self.hops as f64
        }
    }

    /// Mean traversal hops per query.
    pub fn hops_per_query(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.hops as f64 / self.queries as f64
        }
    }

    /// Mean query latency in microseconds (wall-clock; varies run to run).
    pub fn mean_query_us(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.wall_ms * 1e3 / self.queries as f64
        }
    }
}

/// All three arms over one query-mix × churn scenario.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Anchor distribution of the query stream.
    pub mix: QueryMix,
    /// Churn intensity.
    pub churn: Churn,
    /// One entry per arm: adaptive, hash, static-range.
    pub arms: Vec<ArmResult>,
}

impl ScenarioResult {
    fn arm(&self, name: &str) -> &ArmResult {
        self.arms
            .iter()
            .find(|a| a.partitioner == name)
            .expect("all arms always run")
    }

    /// Local-hop advantage of the adaptive arm over the hash baseline, in
    /// percentage points.
    pub fn adaptive_advantage_pts(&self) -> f64 {
        self.arm("adaptive").local_hop_pct() - self.arm("hash").local_hop_pct()
    }
}

/// Full experiment output.
#[derive(Debug, Clone)]
pub struct ServeResult {
    /// Scale name (`tiny` / `quick` / `paper`) the run was sized by.
    pub scale: &'static str,
    /// Hardware threads the host reports.
    pub threads_available: usize,
    /// Subscribers at stream start.
    pub subscribers: usize,
    /// Queries served per round.
    pub queries_per_round: usize,
    /// Batches (= serve rounds) per arm.
    pub batches: usize,
    /// One entry per query-mix × churn combination.
    pub scenarios: Vec<ScenarioResult>,
}

impl ServeResult {
    /// Whether the adaptive arm beats the hash baseline on % local hops in
    /// at least one scenario — the experiment's acceptance claim.
    pub fn adaptive_beats_hash(&self) -> bool {
        self.scenarios
            .iter()
            .any(|s| s.adaptive_advantage_pts() > 0.0)
    }
}

/// Runs one arm over one scenario, returning its aggregate.
fn run_arm(arm: Arm, cdr: CdrConfig, mix: QueryMix, scale: Scale, seed: u64) -> ArmResult {
    let graph = DynGraph::with_vertices(cdr.initial_subscribers);
    // Bounded convergence run for the adaptive warm-up; the non-adapting
    // arms share the config so all three place streamed-in vertices the
    // same way.
    let config = AdaptiveConfig::builder(K)
        .parallelism(apg_exec::available_parallelism().min(8))
        .max_iterations(120)
        .build()
        .expect("static bench configuration is valid");
    let mut partitioner = match arm {
        Arm::Adaptive | Arm::Hash => {
            AdaptivePartitioner::with_strategy(&graph, InitialStrategy::Hash, &config, seed)
        }
        Arm::StaticRange => {
            // Contiguous slot ranges: slot v goes to partition v*k/n.
            let n = graph.num_vertices();
            let assignment = (0..n)
                .map(|v| (v * K as usize / n) as PartitionId)
                .collect();
            AdaptivePartitioner::from_partitioning(
                &graph,
                Partitioning::from_assignment(assignment, K),
                &config,
                seed,
            )
        }
    };
    let iters_per_batch = if arm == Arm::Adaptive {
        // Warm start: converge on the initial graph, then keep adapting.
        partitioner.run_to_convergence();
        ADAPTIVE_ITERS_PER_BATCH
    } else {
        0
    };

    let workload =
        QueryWorkload::new(mix, queries_per_round(scale), seed ^ 0x5e7e).khop_depth(KHOP_DEPTH);
    let mut runner = StreamingRunner::new(partitioner)
        .iterations_per_batch(iters_per_batch)
        .serve_workload(workload);
    let mut stream = CdrStream::new(cdr, seed);
    let consumed = runner.drive(&mut stream, batches(scale));
    assert_eq!(consumed, batches(scale), "CDR streams never end");

    let timeline = runner.serve_timeline();
    let partitioner = runner.partitioner();
    let edges = partitioner.graph().num_edges();
    ArmResult {
        partitioner: arm.label(),
        rounds: timeline.len(),
        queries: timeline.iter().map(|s| s.queries).sum(),
        hops: timeline.iter().map(|s| s.hops).sum(),
        local_hops: timeline.iter().map(|s| s.local_hops).sum(),
        wall_ms: timeline.iter().map(|s| s.wall_ms).sum(),
        final_cut_ratio: if edges == 0 {
            0.0
        } else {
            partitioner.cut_edges() as f64 / edges as f64
        },
    }
}

/// Runs the full sweep: query mix × churn × arm.
pub fn run(scale: Scale, seed: u64) -> ServeResult {
    let base = CdrConfig {
        initial_subscribers: subscribers(scale),
        ..CdrConfig::default()
    };
    let mixes = [
        QueryMix::Uniform,
        QueryMix::DegreeBiased,
        QueryMix::CommunityBiased,
    ];

    let mut scenarios = Vec::new();
    for mix in mixes {
        for churn in Churn::ALL {
            let cdr = churn.apply(base);
            let arms = Arm::ALL
                .iter()
                .map(|&arm| run_arm(arm, cdr, mix, scale, seed))
                .collect();
            scenarios.push(ScenarioResult { mix, churn, arms });
        }
    }

    ServeResult {
        scale: scale.name(),
        threads_available: apg_exec::available_parallelism(),
        subscribers: base.initial_subscribers,
        queries_per_round: queries_per_round(scale),
        batches: batches(scale),
        scenarios,
    }
}

/// Serialises the result as JSON (hand-rolled: the vendored `serde`
/// carries no data model).
pub fn to_json(result: &ServeResult) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"experiment\": \"serving-locality\",\n");
    out.push_str(&format!(
        "  \"scale\": \"{}\", \"threads_available\": {},\n",
        result.scale, result.threads_available
    ));
    out.push_str(&format!(
        "  \"stream\": {{\"family\": \"cdr\", \"subscribers\": {}, \"batches\": {}}},\n",
        result.subscribers, result.batches
    ));
    out.push_str(&format!(
        "  \"queries_per_round\": {}, \"khop_depth\": {KHOP_DEPTH}, \"k\": {K},\n",
        result.queries_per_round
    ));
    out.push_str(&format!(
        "  \"adaptive_beats_hash\": {},\n",
        result.adaptive_beats_hash()
    ));
    out.push_str("  \"scenarios\": [\n");
    for (i, s) in result.scenarios.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mix\": \"{}\", \"churn\": \"{}\", \"adaptive_advantage_pts\": {:.2}, \"arms\": [\n",
            s.mix.label(),
            s.churn.label(),
            s.adaptive_advantage_pts()
        ));
        for (j, a) in s.arms.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"partitioner\": \"{}\", \"local_hop_pct\": {:.2}, \
                 \"hops_per_query\": {:.2}, \"mean_query_us\": {:.2}, \
                 \"queries\": {}, \"hops\": {}, \"local_hops\": {}, \
                 \"final_cut_ratio\": {:.4}}}{}\n",
                a.partitioner,
                a.local_hop_pct(),
                a.hops_per_query(),
                a.mean_query_us(),
                a.queries,
                a.hops,
                a.local_hops,
                a.final_cut_ratio,
                if j + 1 < s.arms.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "    ]}}{}\n",
            if i + 1 < result.scenarios.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Prints the comparison table.
pub fn print(result: &ServeResult) {
    println!(
        "Serving locality: {} CDR subscribers, k = {K}, {} batches x {} queries \
         (k-hop depth {KHOP_DEPTH})",
        result.subscribers, result.batches, result.queries_per_round
    );
    println!(
        "{:>18} {:>7} {:>14} {:>12} {:>12} {:>12} {:>10}",
        "mix", "churn", "partitioner", "local hops", "hops/query", "query us", "cut ratio"
    );
    for s in &result.scenarios {
        for a in &s.arms {
            println!(
                "{:>18} {:>7} {:>14} {:>11.1}% {:>12.2} {:>12.2} {:>10.4}",
                s.mix.label(),
                s.churn.label(),
                a.partitioner,
                a.local_hop_pct(),
                a.hops_per_query(),
                a.mean_query_us(),
                a.final_cut_ratio,
            );
        }
    }
    println!(
        "adaptive beats hash in {}/{} scenarios",
        result
            .scenarios
            .iter()
            .filter(|s| s.adaptive_advantage_pts() > 0.0)
            .count(),
        result.scenarios.len(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_beats_hash() {
        let result = run(Scale::Tiny, 42);
        assert_eq!(result.scenarios.len(), 6);
        assert!(
            result.adaptive_beats_hash(),
            "adaptive never beat the hash baseline on local hops"
        );
        // On the community-structured CDR graph the converged adaptive
        // assignment should hold a clear lead over hash (~1/k local) in the
        // community-biased scenario, not squeak by.
        let s = result
            .scenarios
            .iter()
            .find(|s| s.mix == QueryMix::CommunityBiased && s.churn == Churn::Paper)
            .unwrap();
        assert!(
            s.adaptive_advantage_pts() > 10.0,
            "advantage only {:.1} pts",
            s.adaptive_advantage_pts()
        );
        for scenario in &result.scenarios {
            for arm in &scenario.arms {
                assert_eq!(arm.rounds, result.batches);
                assert_eq!(arm.queries, result.batches * result.queries_per_round);
                assert!(arm.hops > 0, "{} served no hops", arm.partitioner);
            }
        }
    }

    #[test]
    fn json_is_balanced_and_carries_all_arms() {
        let result = run(Scale::Tiny, 7);
        let json = to_json(&result);
        assert_eq!(json.matches("\"partitioner\": \"adaptive\"").count(), 6);
        assert_eq!(json.matches("\"partitioner\": \"hash\"").count(), 6);
        assert_eq!(json.matches("\"partitioner\": \"static-range\"").count(), 6);
        assert_eq!(json.matches("\"local_hop_pct\"").count(), 18);
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON:\n{json}"
        );
    }
}
