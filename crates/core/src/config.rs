//! Configuration of the adaptive partitioner.
//!
//! Ten fields, each one a setting some caller actually varies. Where a
//! newborn vertex starts and when a batch's iteration budget stops are
//! rules, not settings: [`crate::place_new_vertex`] hashes with a
//! least-loaded fallback, and [`crate::StreamingRunner::ingest`] stops
//! once the active set is empty.

use serde::{Deserialize, Serialize};

use apg_partition::PartitionId;

/// The evaluation's capacity factor (paper §4): the default of
/// [`AdaptiveConfig::capacity_factor`], and what an engine without an
/// adaptive configuration balances newborn vertices against.
pub const DEFAULT_CAPACITY_FACTOR: f64 = 1.10;

/// How per-iteration migration budgets are derived (paper §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QuotaRule {
    /// The paper's worst-case split: partition `j` offers each other
    /// partition a quota of `C^t(j) / (k - 1)` incoming vertices per
    /// iteration, so uncoordinated senders can never overflow `j`.
    PerSourceSplit,
    /// No quota at all — used by the ablation benches to demonstrate the
    /// node-densification failure mode the quotas exist to prevent.
    Unbounded,
}

/// A linear schedule for the willingness to move: start high to migrate
/// aggressively while the partitioning is poor, then cool down to damp the
/// chasing effect near convergence. An extension over the paper's constant
/// `s = 0.5` (its §2.3 notes the trade-off this schedule navigates).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Anneal {
    /// Willingness at iteration 0.
    pub start: f64,
    /// Willingness from `over_iterations` onwards.
    pub end: f64,
    /// Iterations over which to interpolate linearly.
    pub over_iterations: usize,
}

impl Anneal {
    /// Willingness at a given iteration.
    pub fn at(&self, iteration: usize) -> f64 {
        if self.over_iterations == 0 || iteration >= self.over_iterations {
            return self.end;
        }
        let t = iteration as f64 / self.over_iterations as f64;
        self.start + (self.end - self.start) * t
    }
}

/// Why [`AdaptiveConfig::validate`] rejected a configuration.
///
/// One rule set serves both ways a configuration comes into being:
/// [`AdaptiveConfigBuilder::build`] returns the violation as is, and the
/// checkpoint decoder reports it as corruption — so every configuration
/// that builds can be recovered from disk, and every one that decodes
/// could have been built.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// `k == 0`: there is nothing to partition into.
    ZeroPartitions,
    /// Willingness `s` outside `[0, 1]` (carries the offending value).
    WillingnessOutOfRange(f64),
    /// Capacity factor below `1.0`, i.e. less than the balanced load, or
    /// not finite (carries the offending factor — NaN and `+∞` land here).
    CapacityFactorBelowOne(f64),
    /// `parallelism == 0`: the decision sweep needs at least one thread.
    ZeroParallelism,
    /// An annealing endpoint outside `[0, 1]`.
    AnnealOutOfRange {
        /// Willingness at iteration 0.
        start: f64,
        /// Willingness at the end of the schedule.
        end: f64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroPartitions => write!(f, "need at least one partition"),
            ConfigError::WillingnessOutOfRange(s) => {
                write!(f, "willingness s = {s} outside [0, 1]")
            }
            ConfigError::CapacityFactorBelowOne(c) => {
                write!(
                    f,
                    "capacity factor {c} not a finite multiple >= 1.0 of the balanced load"
                )
            }
            ConfigError::ZeroParallelism => write!(f, "need at least one decision-sweep thread"),
            ConfigError::AnnealOutOfRange { start, end } => {
                write!(f, "anneal endpoints ({start}, {end}) outside [0, 1]")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validating builder for [`AdaptiveConfig`], created by
/// [`AdaptiveConfig::builder`].
///
/// The one way to construct an [`AdaptiveConfig`]: the setters accept any
/// value and [`build`](AdaptiveConfigBuilder::build) runs
/// [`AdaptiveConfig::validate`], returning a typed [`ConfigError`] — no
/// panics, no silent clamping.
///
/// # Example
///
/// ```
/// use apg_core::{AdaptiveConfig, ConfigError};
///
/// let config = AdaptiveConfig::builder(16)
///     .capacity_factor(1.1)
///     .parallelism(8)
///     .build()
///     .unwrap();
/// assert!((config.capacity_factor - 1.1).abs() < 1e-12);
///
/// let err = AdaptiveConfig::builder(16).willingness(1.5).build();
/// assert_eq!(err, Err(ConfigError::WillingnessOutOfRange(1.5)));
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveConfigBuilder {
    /// The settings accumulated so far; unchecked until `build`.
    config: AdaptiveConfig,
}

impl AdaptiveConfigBuilder {
    /// Sets the willingness to move `s` (validated to `[0, 1]` at build).
    pub fn willingness(mut self, s: f64) -> Self {
        self.config.willingness = s;
        self
    }

    /// Sets the per-partition capacity as a factor of the balanced load
    /// (validated to finite and `>= 1.0` at build).
    pub fn capacity_factor(mut self, factor: f64) -> Self {
        self.config.capacity_factor = factor;
        self
    }

    /// Sets the hard iteration cap for convergence runs.
    pub fn max_iterations(mut self, cap: usize) -> Self {
        self.config.max_iterations = cap;
        self
    }

    /// Sets the migration budget rule.
    pub fn quota_rule(mut self, rule: QuotaRule) -> Self {
        self.config.quota_rule = rule;
        self
    }

    /// Sets whether a vertex counts itself when scoring its own partition.
    pub fn count_self(mut self, yes: bool) -> Self {
        self.config.count_self = yes;
        self
    }

    /// Switches the balance objective to edge endpoints (paper §6).
    pub fn balance_on_edges(mut self, yes: bool) -> Self {
        self.config.balance_edges = yes;
        self
    }

    /// Sets the decision-sweep thread count (validated to `>= 1` at
    /// build). Results are identical at any value for a fixed seed.
    pub fn parallelism(mut self, threads: usize) -> Self {
        self.config.parallelism = threads;
        self
    }

    /// Anneals the willingness linearly from `start` to `end` over the
    /// given number of iterations (endpoints validated to `[0, 1]` at
    /// build).
    pub fn anneal_willingness(mut self, start: f64, end: f64, over_iterations: usize) -> Self {
        self.config.anneal = Some(Anneal {
            start,
            end,
            over_iterations,
        });
        self
    }

    /// Validates the accumulated settings
    /// ([`AdaptiveConfig::validate`]) and produces the configuration.
    pub fn build(self) -> Result<AdaptiveConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// Configuration for [`crate::AdaptivePartitioner`].
///
/// Defaults follow the paper's evaluation: willingness to move `s = 0.5`
/// (§2.3), capacity 110% of the balanced load (§4.2.1), convergence after
/// 30 migration-free iterations (§2.3).
///
/// Every field is a knob of the algorithm and every field is persisted in
/// a checkpoint. There is one construction path —
/// [`AdaptiveConfig::builder`], whose
/// [`build`](AdaptiveConfigBuilder::build) returns
/// `Result<_, ConfigError>` — and one rule set,
/// [`AdaptiveConfig::validate`], which the checkpoint decoder applies too.
///
/// # Example
///
/// ```
/// use apg_core::AdaptiveConfig;
///
/// let config = AdaptiveConfig::builder(9)
///     .willingness(0.8)
///     .capacity_factor(1.2)
///     .build()
///     .unwrap();
/// assert_eq!(config.num_partitions, 9);
/// assert!((config.willingness - 0.8).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// Number of partitions `k`.
    pub num_partitions: PartitionId,
    /// Willingness to move `s ∈ (0, 1]`: each vertex evaluates migration
    /// with this probability per iteration.
    pub willingness: f64,
    /// Per-partition capacity as a factor of the balanced load (finite,
    /// `>= 1.0`).
    pub capacity_factor: f64,
    /// Iterations without any migration before declaring convergence (the
    /// paper's 30 by default).
    pub convergence_window: usize,
    /// Hard iteration cap for [`crate::AdaptivePartitioner::run_to_convergence`].
    pub max_iterations: usize,
    /// Migration budget rule.
    pub quota_rule: QuotaRule,
    /// Optional annealing schedule overriding the constant willingness.
    pub anneal: Option<Anneal>,
    /// Balance partitions on edge endpoints (degree mass) instead of vertex
    /// counts — the extension the paper proposes in §6 ("many graph
    /// algorithms like PageRank have a complexity that is proportional to
    /// the number of edges"). Capacities and quotas are then denominated in
    /// degree-mass units.
    pub balance_edges: bool,
    /// Count the vertex itself towards its current partition when scoring
    /// candidates (the literal reading of the paper's `Γ(v,t) = {v} ∪ N(v)`;
    /// adds one unit of stickiness). Default `false`, matching the prose
    /// ("the partition where the highest number of its *neighbouring*
    /// vertices are") — the ablation bench compares both.
    pub count_self: bool,
    /// Threads for the per-iteration decision sweep (default: available
    /// cores; `1` runs inline on the caller's thread with no spawn).
    ///
    /// The sweep is sharded deterministically by vertex range with one RNG
    /// draw sequence per vertex (`apg-exec`), so for a fixed seed the
    /// migration history is **identical at every parallelism level** — this
    /// knob trades wall-clock only, never results.
    pub parallelism: usize,
}

impl AdaptiveConfig {
    /// Starts a builder with the paper defaults for `k` partitions.
    /// Nothing is checked until [`build`](AdaptiveConfigBuilder::build),
    /// which returns `Err(ConfigError)` for any invalid combination —
    /// including `k == 0`.
    pub fn builder(k: PartitionId) -> AdaptiveConfigBuilder {
        AdaptiveConfigBuilder {
            config: AdaptiveConfig {
                num_partitions: k,
                willingness: 0.5,
                capacity_factor: DEFAULT_CAPACITY_FACTOR,
                convergence_window: 30,
                max_iterations: 1000,
                quota_rule: QuotaRule::PerSourceSplit,
                anneal: None,
                balance_edges: false,
                count_self: false,
                parallelism: apg_exec::available_parallelism(),
            },
        }
    }

    /// Checks every rule a configuration must satisfy, in a fixed order
    /// (partitions, willingness, capacity, parallelism, anneal), and
    /// returns the first violation. `s = 0` is allowed: the paper notes it
    /// "causes no migration whatsoever", which experiments use. NaN fails
    /// every range it is tested against.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let unit = 0.0..=1.0;
        if self.num_partitions == 0 {
            return Err(ConfigError::ZeroPartitions);
        }
        if !unit.contains(&self.willingness) {
            return Err(ConfigError::WillingnessOutOfRange(self.willingness));
        }
        if !self.capacity_factor.is_finite() || self.capacity_factor < 1.0 {
            return Err(ConfigError::CapacityFactorBelowOne(self.capacity_factor));
        }
        if self.parallelism == 0 {
            return Err(ConfigError::ZeroParallelism);
        }
        match self.anneal {
            Some(Anneal { start, end, .. }) if !unit.contains(&start) || !unit.contains(&end) => {
                Err(ConfigError::AnnealOutOfRange { start, end })
            }
            _ => Ok(()),
        }
    }

    /// Effective willingness at an iteration (constant unless annealed).
    pub fn willingness_at(&self, iteration: usize) -> f64 {
        match &self.anneal {
            Some(a) => a.at(iteration),
            None => self.willingness,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn defaults(k: PartitionId) -> AdaptiveConfig {
        AdaptiveConfig::builder(k).build().unwrap()
    }

    #[test]
    fn defaults_match_paper() {
        let c = defaults(9);
        assert_eq!(c.num_partitions, 9);
        assert!((c.willingness - 0.5).abs() < 1e-12);
        assert!((c.capacity_factor - 1.10).abs() < 1e-12);
        assert_eq!(c.convergence_window, 30);
        assert_eq!(c.quota_rule, QuotaRule::PerSourceSplit);
        assert!(!c.count_self);
        assert!(!c.balance_edges);
    }

    #[test]
    fn builder_chains() {
        let c = AdaptiveConfig::builder(4)
            .willingness(1.0)
            .capacity_factor(2.0)
            .max_iterations(10)
            .quota_rule(QuotaRule::Unbounded)
            .count_self(true)
            .build()
            .unwrap();
        assert_eq!(c.max_iterations, 10);
        assert!(c.count_self);
    }

    #[test]
    fn anneal_interpolates_and_clamps() {
        let c = AdaptiveConfig::builder(2)
            .anneal_willingness(0.9, 0.3, 10)
            .build()
            .unwrap();
        assert!((c.willingness_at(0) - 0.9).abs() < 1e-12);
        assert!((c.willingness_at(5) - 0.6).abs() < 1e-12);
        assert!((c.willingness_at(10) - 0.3).abs() < 1e-12);
        assert!((c.willingness_at(1000) - 0.3).abs() < 1e-12);
        // Constant when no schedule is set.
        let plain = defaults(2);
        assert!((plain.willingness_at(7) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn parallelism_defaults_to_available_cores() {
        let c = defaults(4);
        assert_eq!(c.parallelism, apg_exec::available_parallelism());
        assert!(c.parallelism >= 1);
        let c = AdaptiveConfig::builder(4).parallelism(6).build().unwrap();
        assert_eq!(c.parallelism, 6);
    }

    #[test]
    fn builder_accepts_the_blessed_chain() {
        let c = AdaptiveConfig::builder(8)
            .capacity_factor(1.1)
            .parallelism(8)
            .willingness(0.7)
            .max_iterations(200)
            .quota_rule(QuotaRule::Unbounded)
            .count_self(true)
            .balance_on_edges(true)
            .anneal_willingness(0.9, 0.2, 40)
            .build()
            .unwrap();
        assert_eq!(c.num_partitions, 8);
        assert!((c.capacity_factor - 1.1).abs() < 1e-12);
        assert_eq!(c.parallelism, 8);
        assert!(c.count_self && c.balance_edges);
        assert_eq!(c.quota_rule, QuotaRule::Unbounded);
        assert_eq!(
            c.anneal,
            Some(Anneal {
                start: 0.9,
                end: 0.2,
                over_iterations: 40
            })
        );
    }

    #[test]
    fn builder_rejects_each_invalid_setting_with_a_typed_error() {
        use ConfigError::*;
        assert_eq!(AdaptiveConfig::builder(0).build(), Err(ZeroPartitions));
        assert_eq!(
            AdaptiveConfig::builder(4).willingness(-0.1).build(),
            Err(WillingnessOutOfRange(-0.1))
        );
        assert!(matches!(
            AdaptiveConfig::builder(4).willingness(f64::NAN).build(),
            Err(WillingnessOutOfRange(s)) if s.is_nan()
        ));
        assert!(matches!(
            AdaptiveConfig::builder(4).capacity_factor(f64::NAN).build(),
            Err(CapacityFactorBelowOne(c)) if c.is_nan()
        ));
        assert_eq!(
            AdaptiveConfig::builder(4).capacity_factor(0.9).build(),
            Err(CapacityFactorBelowOne(0.9))
        );
        assert_eq!(
            AdaptiveConfig::builder(4)
                .capacity_factor(f64::INFINITY)
                .build(),
            Err(CapacityFactorBelowOne(f64::INFINITY))
        );
        let mut negative_slack = defaults(4);
        negative_slack.capacity_factor = 1.0 + -0.2;
        assert_eq!(negative_slack.validate(), Err(CapacityFactorBelowOne(0.8)));
        assert_eq!(
            AdaptiveConfig::builder(4).parallelism(0).build(),
            Err(ZeroParallelism)
        );
        assert_eq!(
            AdaptiveConfig::builder(4)
                .anneal_willingness(0.5, 1.2, 10)
                .build(),
            Err(AnnealOutOfRange {
                start: 0.5,
                end: 1.2
            })
        );
    }

    #[test]
    fn builder_checks_only_at_build() {
        // Setting an invalid value then overwriting it is fine — validation
        // is deferred, never incremental.
        let c = AdaptiveConfig::builder(4)
            .willingness(7.0)
            .willingness(0.5)
            .build();
        assert!(c.is_ok());
    }

    #[test]
    fn config_error_displays_the_offending_value() {
        let e = ConfigError::WillingnessOutOfRange(1.5);
        assert!(e.to_string().contains("1.5"));
        let e: Box<dyn std::error::Error> = Box::new(ConfigError::ZeroPartitions);
        assert!(e.to_string().contains("at least one partition"));
    }
}
