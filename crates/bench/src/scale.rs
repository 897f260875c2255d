//! Experiment scaling knobs.

/// How big to run an experiment.
///
/// `Paper` uses the paper's graph sizes where a single machine can hold
/// them (64kcube, epinions, the Figure 6 families) and the documented
/// scaled substitutes elsewhere (the 10^8 heart mesh runs at 10^6).
/// `Quick` shrinks everything ~8x for smoke tests and Criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Miniature inputs for Criterion sampling (sub-second per run).
    Tiny,
    /// Fast, small inputs (CI, smoke tests).
    Quick,
    /// The paper's sizes (or their documented substitutes).
    Paper,
    /// Beyond-paper stress sizes (the scaling bench runs 10M vertices).
    /// Opt-in only — `--scale xl` — and single-repetition,
    /// since one run is minutes of work and gigabytes of graph.
    /// Experiments without a dedicated stress configuration treat `Xl`
    /// like [`Scale::Paper`].
    Xl,
}

impl Scale {
    /// Parses from a CLI argument (`quick`/`paper`/`xl`).
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" | "t" => Some(Scale::Tiny),
            "quick" | "small" | "q" => Some(Scale::Quick),
            "paper" | "full" | "p" => Some(Scale::Paper),
            "xl" | "x" => Some(Scale::Xl),
            _ => None,
        }
    }

    /// Canonical lowercase name, as recorded in `BENCH_*.json` headers so
    /// every artefact is self-describing about the scale it ran at.
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Quick => "quick",
            Scale::Paper => "paper",
            Scale::Xl => "xl",
        }
    }

    /// Repetitions for mean ± SEM reporting (paper uses n = 10).
    pub fn reps(&self) -> usize {
        match self {
            Scale::Tiny => 1,
            Scale::Quick => 3,
            Scale::Paper => 10,
            Scale::Xl => 1,
        }
    }
}

/// Reads `--scale` and `--reps` style overrides from `std::env::args`.
///
/// Recognised: `--scale quick|paper`, `--reps N`, `--seed N`.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Requested scale (default quick).
    pub scale: Scale,
    /// Repetition override.
    pub reps: Option<usize>,
    /// Base RNG seed.
    pub seed: u64,
}

impl RunArgs {
    /// Parses the current process arguments, ignoring unknown flags.
    pub fn from_env() -> Self {
        let mut args = RunArgs {
            scale: Scale::Quick,
            reps: None,
            seed: 42,
        };
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--scale" => {
                    if let Some(v) = it.next().as_deref().and_then(Scale::parse) {
                        args.scale = v;
                    }
                }
                "--reps" => {
                    if let Some(v) = it.next().and_then(|v| v.parse().ok()) {
                        args.reps = Some(v);
                    }
                }
                "--seed" => {
                    if let Some(v) = it.next().and_then(|v| v.parse().ok()) {
                        args.seed = v;
                    }
                }
                _ => {}
            }
        }
        args
    }

    /// Effective repetition count.
    pub fn reps(&self) -> usize {
        self.reps.unwrap_or_else(|| self.scale.reps())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_aliases() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("PAPER"), Some(Scale::Paper));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn names_round_trip_through_parse() {
        for scale in [Scale::Tiny, Scale::Quick, Scale::Paper, Scale::Xl] {
            assert_eq!(Scale::parse(scale.name()), Some(scale));
        }
    }

    #[test]
    fn reps_default_by_scale() {
        assert_eq!(Scale::Quick.reps(), 3);
        assert_eq!(Scale::Paper.reps(), 10);
    }
}
