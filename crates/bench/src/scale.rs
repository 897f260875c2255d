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
}

impl Scale {
    /// Parses from a CLI argument (`tiny`/`quick`/`paper`, any case, or
    /// the aliases `t`, `small`/`q`, `full`/`p`).
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" | "t" => Some(Scale::Tiny),
            "quick" | "small" | "q" => Some(Scale::Quick),
            "paper" | "full" | "p" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Repetitions for mean ± SEM reporting (paper uses n = 10).
    pub fn reps(&self) -> usize {
        match self {
            Scale::Tiny => 1,
            Scale::Quick => 3,
            Scale::Paper => 10,
        }
    }
}

/// What every experiment binary accepts.
const USAGE: &str = "usage: [--scale tiny|quick|paper] [--reps N] [--seed N]";

/// The experiment binaries' command line: `--scale tiny|quick|paper`,
/// `--reps N`, `--seed N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunArgs {
    /// Requested scale (default quick).
    pub scale: Scale,
    /// Repetition override.
    pub reps: Option<usize>,
    /// Base RNG seed.
    pub seed: u64,
}

impl RunArgs {
    /// Parses the process arguments. An unknown flag, a missing value or
    /// one that does not parse prints the error and a usage line and exits
    /// with code 2, so a mistyped `--scale` never runs the default size.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        })
    }

    /// Parses arguments (the program name already skipped); the error
    /// names the first unknown flag, missing value or unparsable value.
    fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut parsed = RunArgs {
            scale: Scale::Quick,
            reps: None,
            seed: 42,
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            if !matches!(flag.as_str(), "--scale" | "--reps" | "--seed") {
                return Err(format!("unknown argument `{flag}`"));
            }
            let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
            let bad = || format!("bad value `{value}` for `{flag}`");
            match flag.as_str() {
                "--scale" => parsed.scale = Scale::parse(&value).ok_or_else(bad)?,
                "--reps" => parsed.reps = Some(value.parse().map_err(|_| bad())?),
                _ => parsed.seed = value.parse().map_err(|_| bad())?,
            }
        }
        Ok(parsed)
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

    fn parse(args: &[&str]) -> Result<RunArgs, String> {
        RunArgs::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn accepts_every_documented_form() {
        let defaults = RunArgs {
            scale: Scale::Quick,
            reps: None,
            seed: 42,
        };
        assert_eq!(parse(&[]), Ok(defaults));
        for (value, scale) in [
            ("tiny", Scale::Tiny),
            ("t", Scale::Tiny),
            ("quick", Scale::Quick),
            ("small", Scale::Quick),
            ("q", Scale::Quick),
            ("paper", Scale::Paper),
            ("full", Scale::Paper),
            ("p", Scale::Paper),
            ("Tiny", Scale::Tiny),
        ] {
            let args = parse(&["--scale", value]).unwrap();
            assert_eq!(args, RunArgs { scale, ..defaults }, "--scale {value}");
        }
        let args = parse(&["--seed", "7", "--reps", "4", "--scale", "paper"]).unwrap();
        assert_eq!(
            args,
            RunArgs {
                scale: Scale::Paper,
                reps: Some(4),
                seed: 7,
            }
        );
        assert_eq!(args.reps(), 4);
    }

    #[test]
    fn rejects_what_it_cannot_parse() {
        for bad in [
            &["--scale", "papr"][..],
            &["--scale", "xl"],
            &["--scale"],
            &["--reps", "three"],
            &["--reps", "-1"],
            &["--seed", "0x2a"],
            &["--sacle", "paper"],
            &["tiny"],
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(
            parse(&["--scale", "papr"]),
            Err("bad value `papr` for `--scale`".to_string())
        );
        assert_eq!(
            parse(&["--verbose"]),
            Err("unknown argument `--verbose`".to_string())
        );
    }

    #[test]
    fn reps_default_by_scale() {
        assert_eq!(Scale::Quick.reps(), 3);
        assert_eq!(Scale::Paper.reps(), 10);
    }
}
