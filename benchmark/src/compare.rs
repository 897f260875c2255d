//! `compare A.json B.json`: two result files, workload by workload and
//! end-to-end metric by metric. A is the base, B the change.

use crate::json::Json;
use crate::metrics::{self, Better, Bound, EndToEnd};
use crate::report::show;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    /// The run-to-run spread is wider than the bound and the two sets of
    /// runs overlap, or a side has too few runs to show its spread: the
    /// metric can say neither "worse" nor "unchanged".
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric of one workload from one file.
#[derive(Debug, Clone, PartialEq)]
pub struct Runs {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub values: Vec<f64>,
}

impl Runs {
    fn from_json(entry: &Json) -> Result<Runs, String> {
        let number = |key: &str| {
            entry
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric entry lacks a number {key:?}"))
        };
        Ok(Runs {
            median: number("median")?,
            q1: number("q1")?,
            q3: number("q3")?,
            values: entry
                .get("values")
                .map(|v| v.items().iter().filter_map(Json::as_f64).collect())
                .unwrap_or_default(),
        })
    }

    fn spread(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// How far `change` sits from `base` in the metric's worse direction, in
/// the metric's own unit (negative: it got better).
fn worsening(def: &EndToEnd, base: f64, change: f64) -> f64 {
    match def.better {
        Better::Lower => change - base,
        Better::Higher => base - change,
    }
}

/// Runs a side needs before the quartiles of a measured (not computed)
/// metric say anything: below it q1 = q3 = the median and noise would read
/// as `worse`.
const MIN_RUNS: usize = 3;

pub fn judge(def: &EndToEnd, base: &Runs, change: &Runs) -> Verdict {
    let bound = match def.bound {
        Bound::Relative(share) => share * base.median.abs(),
        Bound::Absolute(amount) => amount,
    };
    let measured = def.deterministic.is_none() && matches!(def.bound, Bound::Relative(_));
    if measured && base.values.len().min(change.values.len()) < MIN_RUNS {
        return Verdict::Unresolved;
    }
    if base.spread().max(change.spread()) > bound {
        // Too noisy for the medians to decide: only a clean separation of
        // every run of one side from every run of the other does.
        let gaps: Vec<f64> = base
            .values
            .iter()
            .flat_map(|b| change.values.iter().map(move |c| worsening(def, *b, *c)))
            .collect();
        return if !gaps.is_empty() && gaps.iter().all(|g| *g < 0.0) {
            Verdict::Better
        } else if !gaps.is_empty() && gaps.iter().all(|g| *g > 0.0) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    let moved = worsening(def, base.median, change.median);
    if moved > bound {
        Verdict::Worse
    } else if moved < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// Whether two readings of a deterministic metric agree.
fn agree(tolerance: f64, a: f64, b: f64) -> bool {
    (a - b).abs() <= tolerance * a.abs().max(b.abs())
}

/// Prints the comparison; `Ok(true)` when nothing is worse and nothing
/// that must repeat exactly moved.
pub fn compare(base: &Json, change: &Json) -> Result<bool, String> {
    let setting = |doc: &Json, key: &str| doc.get(key).cloned().unwrap_or(Json::Null);
    let same_inputs = ["seed", "scale"]
        .iter()
        .all(|key| setting(base, key) == setting(change, key));
    if !same_inputs {
        println!("the two files differ in seed or size: fingerprints and deterministic metrics are not compared");
    }
    let workloads = |doc: &Json| {
        doc.get("workloads")
            .map(|w| w.members().to_vec())
            .unwrap_or_default()
    };
    let (base_workloads, change_workloads) = (workloads(base), workloads(change));
    let mut ok = true;
    for (name, _) in &change_workloads {
        if !base_workloads.iter().any(|(n, _)| n == name) {
            println!("{name}: only in the change file");
            ok = false;
        }
    }
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>22}  verdict",
        "workload", "metric", "base median", "change median", "change"
    );
    for (name, base_doc) in base_workloads {
        let Some((_, change_doc)) = change_workloads.iter().find(|(n, _)| *n == name) else {
            println!("{name}: only in the base file");
            ok = false;
            continue;
        };
        if same_inputs && base_doc.get("fingerprint") != change_doc.get("fingerprint") {
            println!("{name}: FINGERPRINT MISMATCH: the two runs took different paths");
            ok = false;
        }
        let metrics_of = |doc: &Json| {
            doc.get("end_to_end")
                .map(|m| m.members().to_vec())
                .unwrap_or_default()
        };
        let (base_metrics, change_metrics) = (metrics_of(&base_doc), metrics_of(change_doc));
        for (metric, _) in &change_metrics {
            if !base_metrics.iter().any(|(m, _)| m == metric) {
                println!("{name}: {metric} is only in the change file");
                ok = false;
            }
        }
        for (metric, base_entry) in base_metrics {
            let Some(def) = metrics::end_to_end(&metric) else {
                println!("{name}: {metric} is not a metric this build knows");
                continue;
            };
            let Some((_, change_entry)) = change_metrics.iter().find(|(m, _)| *m == metric) else {
                println!("{name}: {metric} is only in the base file");
                ok = false;
                continue;
            };
            let (a, b) = (
                Runs::from_json(&base_entry)?,
                Runs::from_json(change_entry)?,
            );
            let verdict = judge(def, &a, &b);
            let delta = b.median - a.median;
            let moved = if a.median == 0.0 {
                format!(
                    "{}{} {}",
                    if delta >= 0.0 { "+" } else { "" },
                    show(delta),
                    def.unit
                )
            } else {
                format!(
                    "{:+.2}% of {} {}",
                    delta * 100.0 / a.median,
                    show(a.median),
                    def.unit
                )
            };
            let mut line = format!(
                "{:<16} {:<22} {:>14} {:>14} {:>22}  {}",
                name,
                metric,
                show(a.median),
                show(b.median),
                moved,
                verdict.label()
            );
            if verdict == Verdict::Worse {
                ok = false;
            }
            if let Some(tolerance) = def.deterministic.filter(|_| same_inputs) {
                if !agree(tolerance, a.median, b.median) {
                    line.push_str("  DETERMINISTIC METRIC MOVED");
                    ok = false;
                }
            }
            println!("{line}");
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(values: &[f64]) -> Runs {
        let q = crate::stats::Quartiles::of(values);
        Runs {
            median: q.median,
            q1: q.q1,
            q3: q.q3,
            values: values.to_vec(),
        }
    }

    fn def(name: &str) -> &'static EndToEnd {
        metrics::end_to_end(name).unwrap()
    }

    #[test]
    fn medians_decide_when_the_spread_is_inside_the_bound() {
        let run_s = def("run_s"); // lower is better, 10%
        let base = runs(&[10.0, 10.1, 10.2]);
        assert_eq!(
            judge(run_s, &base, &runs(&[10.3, 10.4, 10.5])),
            Verdict::WithinBound
        );
        assert_eq!(
            judge(run_s, &base, &runs(&[11.3, 11.4, 11.5])),
            Verdict::Worse
        );
        assert_eq!(
            judge(run_s, &base, &runs(&[8.0, 8.1, 8.2])),
            Verdict::Better
        );
        let rate = def("deltas_per_s"); // higher is better, 10%
        let base = runs(&[1000.0, 1010.0, 1020.0]);
        assert_eq!(
            judge(rate, &base, &runs(&[800.0, 810.0, 820.0])),
            Verdict::Worse
        );
        assert_eq!(
            judge(rate, &base, &runs(&[1200.0, 1210.0, 1220.0])),
            Verdict::Better
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_the_runs_separate() {
        let run_s = def("run_s");
        let noisy = runs(&[9.0, 10.0, 12.0]);
        assert_eq!(
            judge(run_s, &noisy, &runs(&[9.5, 10.5, 11.0])),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(run_s, &noisy, &runs(&[12.5, 13.0, 14.0])),
            Verdict::Worse
        );
        assert_eq!(
            judge(run_s, &noisy, &runs(&[7.0, 8.0, 8.5])),
            Verdict::Better
        );
    }

    #[test]
    fn fewer_than_three_runs_a_side_leave_a_measured_metric_unresolved() {
        let run_s = def("run_s");
        assert_eq!(
            judge(run_s, &runs(&[10.0]), &runs(&[12.0])),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(run_s, &runs(&[10.0, 10.1, 10.2]), &runs(&[12.0, 12.1])),
            Verdict::Unresolved
        );
        // A computed metric needs one run to be known.
        assert_eq!(
            judge(def("store_live_bytes"), &runs(&[1e6]), &runs(&[1.1e6])),
            Verdict::Worse
        );
    }

    #[test]
    fn absolute_bounds_are_in_the_metrics_own_unit() {
        let cut = def("final_cut_ratio"); // +0.002 absolute
        assert_eq!(
            judge(cut, &runs(&[0.664]), &runs(&[0.6655])),
            Verdict::WithinBound
        );
        assert_eq!(judge(cut, &runs(&[0.664]), &runs(&[0.667])), Verdict::Worse);
        let failed = def("failed_ops_pct"); // any rise is a regression
        assert_eq!(
            judge(failed, &runs(&[0.0]), &runs(&[0.0])),
            Verdict::WithinBound
        );
        assert_eq!(judge(failed, &runs(&[0.0]), &runs(&[0.4])), Verdict::Worse);
    }

    #[test]
    fn deterministic_readings_agree_within_their_tolerance() {
        assert!(agree(0.0, 0.664, 0.664));
        assert!(!agree(0.0, 0.664, 0.664_000_1));
        assert!(agree(1e-4, 1_000_000.0, 1_000_050.0));
        assert!(!agree(1e-4, 1_000_000.0, 1_000_200.0));
    }

    /// A results file with one workload, `powerlaw_refine`.
    fn file_with(seed: u64, fingerprint: &str, metrics: &[(&str, &[f64])]) -> Json {
        let mut end_to_end = Json::obj();
        for (name, values) in metrics {
            let r = runs(values);
            let mut entry = Json::obj();
            entry
                .set("median", r.median)
                .set("q1", r.q1)
                .set("q3", r.q3)
                .set("values", Json::array(values.iter().copied()));
            end_to_end.set(name, entry);
        }
        let mut workload = Json::obj();
        workload
            .set("fingerprint", fingerprint)
            .set("end_to_end", end_to_end);
        let mut workloads = Json::obj();
        workloads.set("powerlaw_refine", workload);
        doc(seed, workloads)
    }

    fn doc(seed: u64, workloads: Json) -> Json {
        let mut doc = Json::obj();
        doc.set("seed", seed)
            .set("scale", "full")
            .set("workloads", workloads);
        doc
    }

    fn file(seed: u64, fingerprint: &str, run_s: &[f64], cut: f64) -> Json {
        file_with(
            seed,
            fingerprint,
            &[("run_s", run_s), ("final_cut_ratio", &[cut])],
        )
    }

    #[test]
    fn compare_fails_on_worse_on_fingerprints_and_on_moved_deterministic_metrics() {
        let base = file(42, "1f", &[8.0, 8.1, 8.2], 0.664);
        assert_eq!(
            compare(&base, &file(42, "1f", &[8.1, 8.2, 8.3], 0.664)),
            Ok(true)
        );
        assert_eq!(
            compare(&base, &file(42, "1f", &[9.1, 9.2, 9.3], 0.664)),
            Ok(false),
            "worse"
        );
        assert_eq!(
            compare(&base, &file(42, "2e", &[8.0, 8.1, 8.2], 0.664)),
            Ok(false),
            "fingerprint"
        );
        assert_eq!(
            compare(&base, &file(42, "1f", &[8.0, 8.1, 8.2], 0.6645)),
            Ok(false),
            "cut moved"
        );
        // Another seed is another input: only the bounds apply.
        assert_eq!(
            compare(&base, &file(7, "2e", &[8.0, 8.1, 8.2], 0.6645)),
            Ok(true)
        );
    }

    #[test]
    fn compare_fails_on_a_workload_or_metric_that_only_one_file_has() {
        let base = file(42, "1f", &[8.0, 8.1, 8.2], 0.664);
        let empty = doc(42, Json::obj());
        assert_eq!(compare(&base, &empty), Ok(false), "dropped workload");
        assert_eq!(compare(&empty, &base), Ok(false), "new workload");
        let fewer = file_with(42, "1f", &[("final_cut_ratio", &[0.664])]);
        assert_eq!(compare(&base, &fewer), Ok(false), "dropped metric");
        assert_eq!(compare(&fewer, &base), Ok(false), "new metric");
    }
}
