//! From repetitions to a result: the record one repetition hands back,
//! the per-workload aggregate with its cross-repetition checks, the
//! results file, and the table printed to the terminal.

use crate::json::{valid_name, Json};
use crate::metrics::{self, Bound};
use crate::stats::Quartiles;
use crate::workloads::{Rep, Workload};

/// Child spans must cover this share of the step time, or the per-layer
/// numbers do not explain the end-to-end one.
pub const MIN_STEP_COVERAGE_PCT: f64 = 98.0;

/// One repetition, as it crosses the process boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct RepRecord {
    pub steps: usize,
    pub failures: Vec<String>,
    pub fingerprint: String,
    pub metrics: Vec<(String, f64)>,
}

impl RepRecord {
    pub fn of(rep: &Rep) -> RepRecord {
        RepRecord {
            steps: rep.steps,
            failures: rep.failures.clone(),
            fingerprint: format!("{:016x}", rep.fingerprint),
            metrics: rep
                .metrics
                .iter()
                .map(|(name, value)| (name.to_string(), *value))
                .collect(),
        }
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    pub fn to_json(&self) -> Json {
        let mut metrics = Json::obj();
        for (name, value) in &self.metrics {
            metrics.set(name, *value);
        }
        let mut doc = Json::obj();
        doc.set("steps", self.steps)
            .set(
                "failures",
                Json::array(self.failures.iter().map(String::as_str)),
            )
            .set("fingerprint", self.fingerprint.as_str())
            .set("metrics", metrics);
        doc
    }

    pub fn from_json(doc: &Json) -> Result<RepRecord, String> {
        let field = |key: &str| {
            doc.get(key)
                .ok_or_else(|| format!("repetition record lacks {key:?}"))
        };
        Ok(RepRecord {
            steps: field("steps")?.as_f64().ok_or("steps is not a number")? as usize,
            failures: field("failures")?
                .items()
                .iter()
                .map(|f| {
                    f.as_str()
                        .map(str::to_string)
                        .ok_or("a failure is not a string")
                })
                .collect::<Result<_, _>>()?,
            fingerprint: field("fingerprint")?
                .as_str()
                .ok_or("fingerprint is not a string")?
                .to_string(),
            metrics: field("metrics")?
                .members()
                .iter()
                .map(|(name, value)| {
                    value
                        .as_f64()
                        .map(|v| (name.clone(), v))
                        .ok_or("a metric is not a number")
                })
                .collect::<Result<_, _>>()?,
        })
    }
}

/// The fingerprint check: every repetition of a workload — traced or not,
/// at any thread count — must have taken the same path.
pub fn check_fingerprints(reps: &[(&str, &str)]) -> Result<(), String> {
    let Some(((first_label, first), rest)) = reps.split_first() else {
        return Ok(());
    };
    match rest.iter().find(|(_, fingerprint)| fingerprint != first) {
        None => Ok(()),
        Some((label, fingerprint)) => Err(format!(
            "fingerprint of {label} is {fingerprint}, of {first_label} {first}: the runs took different paths"
        )),
    }
}

/// One end-to-end metric of one workload across its untraced repetitions.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: &'static str,
    pub values: Vec<f64>,
    pub quartiles: Quartiles,
}

#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub name: &'static str,
    pub why: &'static str,
    pub steps: usize,
    pub fingerprint: String,
    pub end_to_end: Vec<Measured>,
    pub per_layer: Vec<(&'static str, f64)>,
    /// Failed store calls and failed checks, across every repetition.
    pub failures: Vec<String>,
}

/// Folds a workload's repetitions into its result and runs the checks
/// that need more than one repetition. `gate_overhead` is off at smoke
/// size, where a run is too short for its time to mean anything.
pub fn aggregate(
    workload: &Workload,
    untraced: &[RepRecord],
    traced: Option<&RepRecord>,
    one_thread: Option<&RepRecord>,
    gate_overhead: bool,
) -> WorkloadResult {
    assert!(
        !untraced.is_empty(),
        "a workload needs an untraced repetition"
    );
    let mut failures = Vec::new();
    let mut attempted = 0;
    let mut labelled: Vec<(String, &RepRecord)> = untraced
        .iter()
        .enumerate()
        .map(|(i, r)| (format!("repetition {}", i + 1), r))
        .collect();
    labelled.extend(traced.map(|r| ("the traced run".to_string(), r)));
    labelled.extend(one_thread.map(|r| ("the one-thread run".to_string(), r)));
    for (label, rep) in &labelled {
        attempted += rep.steps;
        failures.extend(rep.failures.iter().map(|f| format!("{label}: {f}")));
    }
    let fingerprints: Vec<(&str, &str)> = labelled
        .iter()
        .map(|(label, r)| (label.as_str(), r.fingerprint.as_str()))
        .collect();
    failures.extend(check_fingerprints(&fingerprints).err());

    let mut end_to_end: Vec<Measured> = metrics::END_TO_END
        .iter()
        .filter_map(|def| {
            let values: Vec<f64> = untraced.iter().filter_map(|r| r.metric(def.name)).collect();
            (!values.is_empty()).then(|| Measured {
                name: def.name,
                quartiles: Quartiles::of(&values),
                values,
            })
        })
        .collect();
    let median_of = |name: &str, list: &[Measured]| {
        list.iter()
            .find(|m| m.name == name)
            .map(|m| m.quartiles.median)
    };
    let run_s = median_of("run_s", &end_to_end).expect("every workload reports run_s");

    let mut per_layer: Vec<(&'static str, f64)> = Vec::new();
    if let Some(traced) = traced {
        for def in metrics::PER_LAYER {
            per_layer.extend(traced.metric(def.name).map(|v| (def.name, v)));
        }
        if let Some(traced_run_s) = traced.metric("run_s") {
            let overhead = (traced_run_s - run_s) * 100.0 / run_s;
            per_layer.push(("trace.overhead_pct", overhead));
            let Bound::Relative(bound) = metrics::end_to_end("run_s")
                .expect("run_s is defined")
                .bound
            else {
                unreachable!("run_s has a relative bound");
            };
            if gate_overhead && overhead > bound * 100.0 {
                failures.push(format!(
                    "the traced run took {traced_run_s:.3} s against an untraced median of {run_s:.3} s: tracing overhead {overhead:.1}% is beyond run_s's own bound"
                ));
            }
        }
        match traced.metric("trace.step_coverage_pct") {
            Some(coverage) if coverage >= MIN_STEP_COVERAGE_PCT => {}
            coverage => failures.push(format!(
                "child spans cover {coverage:?}% of the step time, below {MIN_STEP_COVERAGE_PCT}%"
            )),
        }
    }
    if let Some(one_thread_s) = one_thread.and_then(|r| r.metric("run_s")) {
        per_layer.push(("exec.speedup_vs_1t", one_thread_s / run_s));
    }

    let failed_pct = failures.len() as f64 * 100.0 / attempted as f64;
    end_to_end.push(Measured {
        name: "failed_ops_pct",
        values: vec![failed_pct],
        quartiles: Quartiles::of(&[failed_pct]),
    });

    WorkloadResult {
        name: workload.name,
        why: workload.why,
        steps: untraced[0].steps,
        fingerprint: untraced[0].fingerprint.clone(),
        end_to_end,
        per_layer,
        failures,
    }
}

/// What a whole invocation ran with.
#[derive(Debug, Clone, PartialEq)]
pub struct RunInfo {
    pub seed: u64,
    pub threads: usize,
    pub cores: usize,
    pub reps: usize,
    pub scale: &'static str,
}

/// The results file.
pub fn results_json(info: &RunInfo, results: &[WorkloadResult]) -> Json {
    let mut workloads = Json::obj();
    for result in results {
        assert!(valid_name(result.name), "workload name {:?}", result.name);
        let mut end_to_end = Json::obj();
        for measured in &result.end_to_end {
            let def = metrics::end_to_end(measured.name).expect("aggregated from the table");
            let q = &measured.quartiles;
            let mut entry = Json::obj();
            entry
                .set("unit", def.unit)
                .set("better", def.better.label())
                .set("median", q.median)
                .set("q1", q.q1)
                .set("q3", q.q3)
                .set("n", q.n)
                .set("values", Json::array(measured.values.iter().copied()));
            end_to_end.set(measured.name, entry);
        }
        let mut per_layer = Json::obj();
        for (name, value) in &result.per_layer {
            let mut entry = Json::obj();
            entry
                .set(
                    "unit",
                    metrics::unit_of(name).expect("aggregated from the table"),
                )
                .set("value", *value);
            per_layer.set(name, entry);
        }
        let mut doc = Json::obj();
        doc.set("why", result.why)
            .set("steps", result.steps)
            .set("fingerprint", result.fingerprint.as_str())
            .set(
                "failures",
                Json::array(result.failures.iter().map(String::as_str)),
            )
            .set("end_to_end", end_to_end)
            .set("per_layer", per_layer);
        workloads.set(result.name, doc);
    }
    let mut doc = Json::obj();
    doc.set("seed", info.seed)
        .set("threads", info.threads)
        .set("cores", info.cores)
        .set("reps", info.reps)
        .set("scale", info.scale)
        .set("workloads", workloads);
    doc
}

/// Four significant digits or so, without exponents.
pub fn show(value: f64) -> String {
    let magnitude = value.abs();
    if magnitude == 0.0 || magnitude >= 1000.0 {
        format!("{value:.0}")
    } else if magnitude >= 10.0 {
        format!("{value:.2}")
    } else if magnitude >= 0.1 {
        format!("{value:.4}")
    } else {
        format!("{value:.6}")
    }
}

/// Every metric by name, with its unit.
pub fn print_table(info: &RunInfo, results: &[WorkloadResult]) {
    println!(
        "seed {}, {} threads on {} cores, {} untraced repetitions per workload, {} size",
        info.seed, info.threads, info.cores, info.reps, info.scale
    );
    for result in results {
        println!();
        println!(
            "{} — {} steps, fingerprint {}",
            result.name, result.steps, result.fingerprint
        );
        println!("  {}", result.why);
        println!("  end to end: median [q1 .. q3] over n untraced repetitions");
        for measured in &result.end_to_end {
            let def = metrics::end_to_end(measured.name).expect("aggregated from the table");
            let q = &measured.quartiles;
            println!(
                "    {:<24} {:>14} {:<10} [{} .. {}] n={}",
                measured.name,
                show(q.median),
                def.unit,
                show(q.q1),
                show(q.q3),
                q.n
            );
        }
        if !result.per_layer.is_empty() {
            println!("  per layer: the traced run");
            for (name, value) in &result.per_layer {
                let unit = metrics::unit_of(name).expect("aggregated from the table");
                println!("    {:<32} {:>14} {}", name, show(*value), unit);
            }
        }
        for failure in &result.failures {
            println!("  FAILED: {failure}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(fingerprint: &str, run_s: f64, traced: bool) -> RepRecord {
        let mut metrics = vec![
            ("setup_s".to_string(), 0.5),
            ("run_s".to_string(), run_s),
            ("final_cut_ratio".to_string(), 0.664),
        ];
        if traced {
            metrics.push(("trace.step_coverage_pct".to_string(), 99.9));
            metrics.push(("core.share_pct".to_string(), 99.9));
        }
        RepRecord {
            steps: 8,
            failures: Vec::new(),
            fingerprint: fingerprint.to_string(),
            metrics,
        }
    }

    fn refine() -> &'static Workload {
        Workload::named("powerlaw_refine").unwrap()
    }

    #[test]
    fn a_repetition_record_survives_the_process_boundary() {
        let mut rec = record("00ff", 8.25, true);
        rec.failures
            .push("step 3: store append: \"disk\" said\nno".to_string());
        let line = rec.to_json().compact();
        assert!(!line.contains('\n'));
        assert_eq!(RepRecord::from_json(&Json::parse(&line).unwrap()), Ok(rec));
        assert!(RepRecord::from_json(&Json::parse("{\"steps\":8}").unwrap()).is_err());
    }

    #[test]
    fn a_fingerprint_that_differs_between_repetitions_is_rejected() {
        assert_eq!(check_fingerprints(&[]), Ok(()));
        assert_eq!(
            check_fingerprints(&[("a", "1f"), ("b", "1f"), ("c", "1f")]),
            Ok(())
        );
        let err = check_fingerprints(&[
            ("repetition 1", "1f"),
            ("repetition 2", "1f"),
            ("the traced run", "2e"),
        ])
        .unwrap_err();
        assert!(
            err.contains("the traced run") && err.contains("2e"),
            "{err}"
        );

        let reps = [record("1f", 8.0, false), record("2e", 8.1, false)];
        let result = aggregate(refine(), &reps, None, None, true);
        assert_eq!(result.failures.len(), 1, "{:?}", result.failures);
        let failed = result
            .end_to_end
            .iter()
            .find(|m| m.name == "failed_ops_pct")
            .unwrap();
        assert_eq!(failed.quartiles.median, 100.0 / 16.0);
    }

    #[test]
    fn repetitions_fold_to_median_and_quartiles() {
        let reps = [
            record("1f", 8.4, false),
            record("1f", 8.0, false),
            record("1f", 8.1, false),
        ];
        let traced = record("1f", 8.2, true);
        let one_thread = record("1f", 10.8, false);
        let result = aggregate(refine(), &reps, Some(&traced), Some(&one_thread), true);
        assert_eq!(result.failures, Vec::<String>::new());
        let run_s = result
            .end_to_end
            .iter()
            .find(|m| m.name == "run_s")
            .unwrap();
        assert_eq!(
            (
                run_s.quartiles.q1,
                run_s.quartiles.median,
                run_s.quartiles.q3
            ),
            (8.0, 8.1, 8.4)
        );
        assert_eq!(run_s.values, vec![8.4, 8.0, 8.1]);
        let layer = |name: &str| {
            result
                .per_layer
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
        };
        assert!((layer("trace.overhead_pct").unwrap() - 0.1 * 100.0 / 8.1).abs() < 1e-9);
        assert!((layer("exec.speedup_vs_1t").unwrap() - 10.8 / 8.1).abs() < 1e-12);
        assert_eq!(layer("core.share_pct"), Some(99.9));
        assert!(
            result.end_to_end.iter().all(|m| m.name != "recover_ms"),
            "absent metrics stay absent"
        );
    }

    #[test]
    fn slow_or_thinly_covered_traced_runs_are_rejected() {
        let reps = [record("1f", 8.0, false), record("1f", 8.1, false)];
        let slow = record("1f", 9.0, true);
        assert_eq!(
            aggregate(refine(), &reps, Some(&slow), None, true)
                .failures
                .len(),
            1
        );
        assert_eq!(
            aggregate(refine(), &reps[..1], Some(&slow), None, true)
                .failures
                .len(),
            1,
            "one untraced repetition is its own median"
        );
        let within = record("1f", 8.8, true);
        assert_eq!(
            aggregate(refine(), &reps, Some(&within), None, true).failures,
            Vec::<String>::new()
        );
        assert_eq!(
            aggregate(refine(), &reps, Some(&slow), None, false).failures,
            Vec::<String>::new(),
            "smoke size is not gated"
        );
        let mut thin = record("1f", 8.0, true);
        thin.metrics.retain(|(n, _)| n != "trace.step_coverage_pct");
        thin.metrics
            .push(("trace.step_coverage_pct".to_string(), 91.0));
        let result = aggregate(refine(), &reps, Some(&thin), None, true);
        assert!(result.failures[0].contains("91"), "{:?}", result.failures);
    }

    #[test]
    fn the_results_file_is_valid_json_with_valid_names() {
        let reps = [record("1f", 8.4, false), record("1f", 8.0, false)];
        let traced = record("1f", 8.2, true);
        let result = aggregate(refine(), &reps, Some(&traced), None, true);
        let info = RunInfo {
            seed: 42,
            threads: 2,
            cores: 2,
            reps: 2,
            scale: "full",
        };
        let parsed = Json::parse(&results_json(&info, &[result]).pretty()).unwrap();
        assert_eq!(parsed.get("seed").unwrap().as_f64(), Some(42.0));
        let workloads = parsed.get("workloads").unwrap().members();
        assert_eq!(workloads.len(), 1);
        for (workload, doc) in workloads {
            assert!(valid_name(workload), "{workload}");
            for section in ["end_to_end", "per_layer"] {
                for (metric, entry) in doc.get(section).unwrap().members() {
                    assert!(valid_name(metric), "{metric}");
                    assert_eq!(
                        entry.get("unit").unwrap().as_str(),
                        metrics::unit_of(metric)
                    );
                }
            }
            let run_s = doc.get("end_to_end").unwrap().get("run_s").unwrap();
            assert_eq!(run_s.get("median").unwrap().as_f64(), Some(8.2));
            assert_eq!(run_s.get("n").unwrap().as_f64(), Some(2.0));
        }
    }

    #[test]
    fn numbers_print_without_exponents() {
        assert_eq!(show(5_700_000.4), "5700000");
        assert_eq!(show(17.523), "17.52");
        assert_eq!(show(0.66412), "0.6641");
        assert_eq!(show(0.00123456), "0.001235");
        assert_eq!(show(0.0), "0");
    }
}
