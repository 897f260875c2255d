//! The harness's own arithmetic: percentiles of per-step samples and the
//! median and quartiles of repetitions.

/// A tail percentile is reported only with ten samples beyond it, and p95
/// is the one tail the metrics name: 200 samples or none.
const P95_MIN_SAMPLES: usize = 200;

/// Nearest-rank percentile of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Per-call timings of one kind of call within one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Dist {
    pub n: usize,
    pub sum: f64,
    pub p50: f64,
    /// Present only when the sample supports it (n >= 200).
    pub p95: Option<f64>,
    pub max: f64,
}

impl Dist {
    /// `None` for no samples: a workload omits what it cannot measure.
    pub fn of(samples: &[f64]) -> Option<Dist> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let supports_p95 = sorted.len() >= P95_MIN_SAMPLES;
        Some(Dist {
            n: sorted.len(),
            sum: sorted.iter().sum(),
            p50: percentile(&sorted, 50.0),
            p95: supports_p95.then(|| percentile(&sorted, 95.0)),
            max: sorted[sorted.len() - 1],
        })
    }
}

/// Median and quartiles over repetitions, as Python's
/// `statistics.median` and `statistics.quantiles(values, n=4)` give them
/// (the acceptance check computes its spreads that way).
#[derive(Debug, Clone, PartialEq)]
pub struct Quartiles {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Quartiles {
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(values: &[f64]) -> Quartiles {
        assert!(!values.is_empty(), "quartiles of no repetitions");
        let mut x = values.to_vec();
        x.sort_by(f64::total_cmp);
        let n = x.len();
        let median = if n % 2 == 1 {
            x[n / 2]
        } else {
            (x[n / 2 - 1] + x[n / 2]) / 2.0
        };
        // The "exclusive" method: cut point i of 4 sits at position
        // i * (n + 1) / 4, interpolated between its neighbours.
        let cut = |i: usize| {
            if n == 1 {
                return x[0];
            }
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
        };
        Quartiles {
            n,
            q1: cut(1),
            median,
            q3: cut(3),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        let first = |n: u32| (1..=n).map(f64::from).collect::<Vec<f64>>();
        assert_eq!(Dist::of(&first(199)).unwrap().p95, None);
        assert_eq!(Dist::of(&first(200)).unwrap().p95, Some(190.0));
        assert_eq!(Dist::of(&first(1000)).unwrap().p95, Some(950.0));
    }

    #[test]
    fn few_samples_report_the_median_only() {
        let eight: Vec<f64> = (1..=8).map(f64::from).collect();
        let d = Dist::of(&eight).unwrap();
        assert_eq!((d.n, d.p50, d.p95, d.max), (8, 4.0, None, 8.0));
        let nineteen: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(Dist::of(&nineteen).unwrap().p95, None);
        assert_eq!(Dist::of(&[]), None);
    }

    #[test]
    fn two_hundred_samples_report_p95_by_nearest_rank() {
        let samples: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let d = Dist::of(&samples).unwrap();
        assert_eq!(d.p50, 100.0);
        assert_eq!(d.p95, Some(190.0));
        assert_eq!(d.sum, 200.0 * 201.0 / 2.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&s, 50.0), 20.0);
        assert_eq!(percentile(&s, 75.0), 30.0);
        assert_eq!(percentile(&s, 76.0), 40.0);
        assert_eq!(percentile(&s, 100.0), 40.0);
        assert_eq!(percentile(&s, 0.0), 10.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&ten);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        let q = Quartiles::of(&[8.0, 1.0, 4.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.25, 3.0, 7.0));
        // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]
        let q = Quartiles::of(&[9.0, 5.0]);
        assert_eq!((q.q1, q.median, q.q3), (4.0, 7.0, 10.0));
    }

    #[test]
    fn one_repetition_is_its_own_quartiles() {
        let q = Quartiles::of(&[7.5]);
        assert_eq!((q.n, q.q1, q.median, q.q3), (1, 7.5, 7.5, 7.5));
    }
}
