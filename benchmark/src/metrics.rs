//! Every metric the benchmark can emit, by name, with its unit, its better
//! direction and — for end-to-end metrics — the bound by which it may get
//! worse before `compare` calls it a regression. A workload emits the
//! subset it can measure and omits the rest.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far a metric may move in its worse direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the base run's median.
    Relative(f64),
    /// In the metric's own unit (deterministic quality numbers).
    Absolute(f64),
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
    /// A pure function of (workload, seed, size): two runs must agree to
    /// within this relative tolerance, whatever the machine does.
    pub deterministic: Option<f64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

use Better::{Higher, Lower};
use Bound::{Absolute, Relative};

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: Bound) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        deterministic: None,
    }
}

const fn exact(mut def: EndToEnd, tolerance: f64) -> EndToEnd {
    def.deterministic = Some(tolerance);
    def
}

pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Lower, Relative(0.15)),
    e2e("run_s", "s", Lower, Relative(0.10)),
    e2e("deltas_per_s", "deltas/s", Higher, Relative(0.10)),
    e2e("step_ms_p50", "ms", Lower, Relative(0.10)),
    e2e("step_ms_p95", "ms", Lower, Relative(0.15)),
    e2e("queries_per_s", "queries/s", Higher, Relative(0.10)),
    e2e("recover_ms", "ms", Lower, Relative(0.15)),
    // `wall_ms` sits inside the encoded timeline, so byte counts wobble in
    // their last digits from run to run.
    exact(
        e2e("store_bytes_per_delta", "bytes", Lower, Relative(0.02)),
        1e-4,
    ),
    exact(
        e2e("store_live_bytes", "bytes", Lower, Relative(0.02)),
        1e-4,
    ),
    exact(e2e("final_cut_ratio", "ratio", Lower, Absolute(0.002)), 0.0),
    exact(e2e("local_hop_pct", "%", Higher, Absolute(0.2)), 0.0),
    e2e("peak_rss_mb", "MB", Lower, Relative(0.10)),
    e2e("failed_ops_pct", "%", Lower, Absolute(0.0)),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: &[PerLayer] = &[
    // streams: the load generator, outside every step.
    layer("streams.next_batch_sum_s", "s", Lower),
    layer("streams.deltas", "count", Higher),
    layer("streams.batch_deltas_mean", "count", Higher),
    // graph: the floor of ingest, from the shadow bare graph.
    layer("graph.apply_sum_s", "s", Lower),
    layer("graph.apply_us_per_delta", "us", Lower),
    layer("graph.final_vertices", "count", Higher),
    layer("graph.final_edges", "count", Higher),
    layer("partition.max_load_ratio", "ratio", Lower),
    layer("exec.speedup_vs_1t", "ratio", Higher),
    // core: spans around `ingest`, shadow partitioner for what it lumps.
    layer("core.ingest_ms_p50", "ms", Lower),
    layer("core.ingest_ms_p95", "ms", Lower),
    layer("core.ingest_sum_s", "s", Lower),
    layer("core.share_pct", "%", Lower),
    layer("core.apply_batch_sum_s", "s", Lower),
    layer("core.iterate_sum_s", "s", Lower),
    layer("core.iterate_calls", "count", Lower),
    layer("core.iterate_us_p50", "us", Lower),
    layer("core.migrations", "count", Lower),
    layer("core.migrations_per_delta", "ratio", Lower),
    layer("core.build_ms_p50", "ms", Lower),
    layer("core.iters_to_converge_p50", "count", Lower),
    layer("core.iter_ms_p50", "ms", Lower),
    layer("core.iter_ms_max", "ms", Lower),
    // persist: spans around `append` and `install`, side capture/encode.
    layer("persist.append_ms_p50", "ms", Lower),
    layer("persist.append_ms_p95", "ms", Lower),
    layer("persist.append_sum_s", "s", Lower),
    layer("persist.install_ms_p50", "ms", Lower),
    layer("persist.install_ms_p95", "ms", Lower),
    layer("persist.install_sum_s", "s", Lower),
    layer("persist.share_pct", "%", Lower),
    layer("persist.capture_ms_p50", "ms", Lower),
    layer("persist.encode_full_ms_p50", "ms", Lower),
    layer("persist.wal_encode_ms_p50", "ms", Lower),
    layer("persist.decode_full_ms", "ms", Lower),
    layer("persist.installs", "count", Lower),
    layer("persist.incremental_installs", "count", Higher),
    layer("persist.install_bytes_sum", "bytes", Lower),
    layer("persist.wal_bytes_sum", "bytes", Lower),
    layer("persist.delta_bytes_ratio_p50", "ratio", Lower),
    layer("persist.files", "count", Lower),
    layer("persist.open_ms", "ms", Lower),
    layer("persist.resume_ms", "ms", Lower),
    // serve: spans around `serve_round`.
    layer("serve.round_ms_p50", "ms", Lower),
    layer("serve.round_ms_p95", "ms", Lower),
    layer("serve.round_sum_s", "s", Lower),
    layer("serve.share_pct", "%", Lower),
    layer("serve.queries", "count", Higher),
    layer("serve.hops", "count", Lower),
    layer("serve.misses", "count", Lower),
    layer("serve.us_per_query", "us", Lower),
    layer("serve.ns_per_hop", "ns", Lower),
    layer("serve.generate_ms_p50", "ms", Lower),
    // The traced run itself.
    layer("trace.run_s", "s", Lower),
    layer("trace.step_coverage_pct", "%", Higher),
    layer("trace.overhead_pct", "%", Lower),
];

/// The end-to-end metrics every workload emits and none reads zero on: the
/// ones `BENCHMARK.json` can declare, because it wants each of its metrics
/// from every workload. The workload-specific ones are reported by `run`
/// and judged by `compare`.
///
/// Each comes with the bound `BENCHMARK.json` declares for it, which
/// overrides the table's: the table's bounds judge two sets of runs on one
/// seed, the driver's judge runs on ten different seeds taken minutes
/// apart, must be a share of the median (so no `+0.002 absolute`), and must
/// be wider than the spread across those seeds or the driver refuses the
/// benchmark. README, "What `BENCHMARK.json` declares", has the measured
/// spreads these were sized on.
pub const DRIVER_END_TO_END: &[(&str, f64)] = &[
    ("setup_s", 0.25),
    ("run_s", 0.25),
    ("step_ms_p50", 0.25),
    ("final_cut_ratio", 0.05),
    ("peak_rss_mb", 0.25),
];

/// The per-layer metrics `BENCHMARK.json` declares: timings only where
/// every workload has the layer, plus counts, ratios and time shares, for
/// which zero is the true reading of a layer a workload never enters.
pub const DRIVER_PER_LAYER: &[&str] = &[
    "streams.deltas",
    "graph.final_vertices",
    "graph.final_edges",
    "partition.max_load_ratio",
    "core.share_pct",
    "core.iterate_sum_s",
    "core.iterate_calls",
    "core.iterate_us_p50",
    "core.migrations",
    "persist.share_pct",
    "persist.installs",
    "persist.incremental_installs",
    "persist.install_bytes_sum",
    "persist.wal_bytes_sum",
    "persist.files",
    "serve.share_pct",
    "serve.queries",
    "serve.hops",
    "serve.misses",
    "trace.run_s",
    "trace.step_coverage_pct",
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// The unit of any known metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| per_layer(name).map(|m| m.unit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{valid_name, Json};

    #[test]
    fn every_metric_name_is_valid_and_used_once() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
    }

    #[test]
    fn per_layer_names_carry_their_crate() {
        for m in PER_LAYER {
            let layer = m.name.split('.').next().unwrap();
            assert!(
                [
                    "streams",
                    "graph",
                    "partition",
                    "exec",
                    "core",
                    "persist",
                    "serve",
                    "trace"
                ]
                .contains(&layer),
                "{}",
                m.name
            );
        }
    }

    /// `BENCHMARK.json` is written by hand; this keeps it and the tables
    /// from drifting apart.
    #[test]
    fn benchmark_json_declares_the_subsets_with_the_tables_units() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let declared = |section: &str| -> Vec<(String, String, String)> {
            let text =
                |entry: &Json, key: &str| entry.get(key).unwrap().as_str().unwrap().to_string();
            doc.get(section)
                .unwrap()
                .items()
                .iter()
                .map(|e| (text(e, "name"), text(e, "unit"), text(e, "better")))
                .collect()
        };
        let end_to_end: Vec<_> = DRIVER_END_TO_END
            .iter()
            .map(|(name, _)| end_to_end(name).unwrap())
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.label().to_string(),
                )
            })
            .collect();
        assert_eq!(declared("end_to_end"), end_to_end);
        let bounds: Vec<f64> = doc
            .get("end_to_end")
            .unwrap()
            .items()
            .iter()
            .map(|e| e.get("bound").unwrap().as_f64().unwrap())
            .collect();
        let ours: Vec<f64> = DRIVER_END_TO_END.iter().map(|(_, bound)| *bound).collect();
        assert_eq!(bounds, ours);
        let per_layer: Vec<_> = DRIVER_PER_LAYER
            .iter()
            .map(|name| per_layer(name).unwrap())
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.label().to_string(),
                )
            })
            .collect();
        assert_eq!(declared("per_layer"), per_layer);
        let workloads: Vec<String> = doc
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap().to_string())
            .collect();
        let ours: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
        assert_eq!(doc.get("paths").unwrap().items(), [Json::from("benchmark")]);
    }

    #[test]
    fn the_declared_subsets_exist() {
        for (name, bound) in DRIVER_END_TO_END {
            assert!(end_to_end(name).is_some(), "{name}");
            assert!(*bound > 0.0 && *bound <= 0.25, "{name}: {bound}");
        }
        for name in DRIVER_PER_LAYER {
            assert!(per_layer(name).is_some(), "{name}");
        }
        assert!(DRIVER_END_TO_END.iter().any(|(name, _)| *name == "setup_s"));
    }
}
