//! Wire codecs for the values persist carries but does not own.
//!
//! In: the configuration types, a [`TimelineStats`] entry, and the two
//! scalar blocks ([`PartitionerScalars`], [`RunnerScalars`]). Out: their
//! bytes, in the one field order the `APGC` and `APGD` layouts share, and
//! back — a decoded configuration held to [`AdaptiveConfig::validate`].
//! Each block is one contiguous run of bytes in both layouts.

use apg_persist::{Decode, DecodeError, Decoder, Encode, Encoder};

use crate::config::{AdaptiveConfig, Anneal, ConfigError, QuotaRule};
use crate::partitioner::PartitionerScalars;
use crate::streaming::{RunnerScalars, TimelineStats};

impl Encode for QuotaRule {
    fn encode(&self, enc: &mut Encoder) {
        let tag: u8 = match self {
            QuotaRule::PerSourceSplit => 0,
            QuotaRule::Unbounded => 1,
        };
        tag.encode(enc);
    }
}

impl Decode for QuotaRule {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match u8::decode(dec)? {
            0 => Ok(QuotaRule::PerSourceSplit),
            1 => Ok(QuotaRule::Unbounded),
            _ => Err(DecodeError::Corrupt("unknown QuotaRule tag")),
        }
    }
}

impl Encode for Anneal {
    fn encode(&self, enc: &mut Encoder) {
        self.start.encode(enc);
        self.end.encode(enc);
        self.over_iterations.encode(enc);
    }
}

impl Decode for Anneal {
    /// Field-wise only: the endpoint ranges are
    /// [`AdaptiveConfig::validate`]'s to check, with every other rule.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Anneal {
            start: f64::decode(dec)?,
            end: f64::decode(dec)?,
            over_iterations: usize::decode(dec)?,
        })
    }
}

impl Encode for AdaptiveConfig {
    /// Destructures exhaustively, so a field that is not put on the wire
    /// does not compile.
    fn encode(&self, enc: &mut Encoder) {
        let AdaptiveConfig {
            num_partitions,
            willingness,
            capacity_factor,
            convergence_window,
            max_iterations,
            quota_rule,
            anneal,
            balance_edges,
            count_self,
            parallelism,
        } = self;
        num_partitions.encode(enc);
        willingness.encode(enc);
        capacity_factor.encode(enc);
        convergence_window.encode(enc);
        max_iterations.encode(enc);
        quota_rule.encode(enc);
        anneal.encode(enc);
        balance_edges.encode(enc);
        count_self.encode(enc);
        parallelism.encode(enc);
    }
}

/// A decoded configuration that [`AdaptiveConfig::validate`] rejects is a
/// corrupt one: nothing the builder accepts encodes to it.
impl From<ConfigError> for DecodeError {
    fn from(violation: ConfigError) -> Self {
        DecodeError::Corrupt(match violation {
            ConfigError::ZeroPartitions => "config has zero partitions",
            ConfigError::WillingnessOutOfRange(_) => "willingness outside [0, 1]",
            ConfigError::CapacityFactorBelowOne(_) => "capacity factor not finite or below 1.0",
            ConfigError::ZeroParallelism => "config has zero parallelism",
            ConfigError::AnnealOutOfRange { .. } => "anneal endpoint outside [0, 1]",
        })
    }
}

impl Decode for AdaptiveConfig {
    /// Applies the builder's own rule set ([`AdaptiveConfig::validate`]),
    /// returning its violations as [`DecodeError::Corrupt`].
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let config = AdaptiveConfig {
            num_partitions: u16::decode(dec)?,
            willingness: f64::decode(dec)?,
            capacity_factor: f64::decode(dec)?,
            convergence_window: usize::decode(dec)?,
            max_iterations: usize::decode(dec)?,
            quota_rule: QuotaRule::decode(dec)?,
            anneal: Option::<Anneal>::decode(dec)?,
            balance_edges: bool::decode(dec)?,
            count_self: bool::decode(dec)?,
            parallelism: usize::decode(dec)?,
        };
        config.validate()?;
        Ok(config)
    }
}

impl Encode for TimelineStats {
    fn encode(&self, enc: &mut Encoder) {
        for field in self.deterministic_fields() {
            field.encode(enc);
        }
        // `wall_ms` keeps its position but not its value: a clock
        // reading must not reach durable bytes, or chain digests (and,
        // through their varints, lengths) would differ run to run.
        0.0f64.encode(enc);
    }
}

impl Decode for TimelineStats {
    /// The `wall_ms` position must hold the `0.0` every encoder writes
    /// there: anything else would decode to a value that re-encodes to
    /// different bytes.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let stats = TimelineStats {
            batch: usize::decode(dec)?,
            deltas: usize::decode(dec)?,
            vertices_added: usize::decode(dec)?,
            vertices_removed: usize::decode(dec)?,
            edges_added: usize::decode(dec)?,
            edges_removed: usize::decode(dec)?,
            cut_before: usize::decode(dec)?,
            cut_after_ingest: usize::decode(dec)?,
            cut_after: usize::decode(dec)?,
            migrations: usize::decode(dec)?,
            iterations: usize::decode(dec)?,
            live_vertices: usize::decode(dec)?,
            num_edges: usize::decode(dec)?,
            wall_ms: f64::decode(dec)?,
        };
        if stats.wall_ms.to_bits() != 0 {
            return Err(DecodeError::Corrupt("timeline entry carries a wall-clock"));
        }
        Ok(stats)
    }
}

impl Encode for PartitionerScalars {
    fn encode(&self, enc: &mut Encoder) {
        self.config.encode(enc);
        self.seed.encode(enc);
        self.iteration.encode(enc);
        self.quiet_streak.encode(enc);
        self.fixed_capacities.encode(enc);
    }
}

impl Decode for PartitionerScalars {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(PartitionerScalars {
            config: AdaptiveConfig::decode(dec)?,
            seed: u64::decode(dec)?,
            iteration: usize::decode(dec)?,
            quiet_streak: usize::decode(dec)?,
            fixed_capacities: Option::decode(dec)?,
        })
    }
}

impl Encode for RunnerScalars {
    fn encode(&self, enc: &mut Encoder) {
        self.iterations_per_batch.encode(enc);
        self.timeline_window.encode(enc);
        self.batches_ingested.encode(enc);
        self.timeline_digest.encode(enc);
    }
}

impl Decode for RunnerScalars {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(RunnerScalars {
            iterations_per_batch: usize::decode(dec)?,
            timeline_window: usize::decode(dec)?,
            batches_ingested: usize::decode(dec)?,
            timeline_digest: u64::decode(dec)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::{growth_runner, StreamCheckpoint};
    use super::*;

    #[test]
    fn config_decoder_rejects_out_of_range_settings() {
        let cfg = AdaptiveConfig::builder(3).build().unwrap();
        // Willingness out of range.
        let mut bad = cfg;
        bad.willingness = 7.5;
        assert!(matches!(
            AdaptiveConfig::from_bytes(&bad.to_bytes()).unwrap_err(),
            DecodeError::Corrupt("willingness outside [0, 1]")
        ));
    }

    /// A clock reading never reaches the bytes: whatever `wall_ms` a live
    /// entry holds, its position is written as `0.0` — and only that
    /// decodes, so every accepted entry re-encodes to the bytes it came from.
    #[test]
    fn timeline_entries_persist_no_wall_clock() {
        let (mut runner, mut source) = growth_runner(1);
        runner.drive(&mut source, 1);
        let mut timed = runner.timeline()[0].clone();
        timed.wall_ms = 12.5;
        let mut untimed = timed.clone();
        untimed.wall_ms = 0.0;
        let bytes = timed.to_bytes();
        assert_eq!(bytes, untimed.to_bytes());
        let back = TimelineStats::from_bytes(&bytes).unwrap();
        assert_eq!(back.wall_ms.to_bits(), 0);
        assert_eq!(back, timed, "equality ignores the wall-clock");
        for bit in [0u8, 63] {
            let mut forged = bytes.clone();
            let wall_byte = forged.len() - 8 + bit as usize / 8;
            forged[wall_byte] ^= 1 << (bit % 8);
            assert!(matches!(
                TimelineStats::from_bytes(&forged).unwrap_err(),
                DecodeError::Corrupt("timeline entry carries a wall-clock")
            ));
        }
    }

    /// One rule set, two doors: every setting `build()` rejects is also
    /// rejected when a checkpoint carrying it is decoded, and every setting
    /// `build()` accepts survives the checkpoint round trip unchanged — so
    /// nothing that builds is unrecoverable and nothing that decodes is
    /// unbuildable.
    #[test]
    fn builder_and_decoder_agree_on_every_config_rule() {
        use ConfigError::*;
        /// A row's settings, applied to a fresh builder.
        type Tune = fn(crate::AdaptiveConfigBuilder) -> crate::AdaptiveConfigBuilder;

        let (mut runner, mut source) = growth_runner(1);
        runner.drive(&mut source, 2);
        let valid = runner.checkpoint();

        // Puts the setting a violation names into a configuration,
        // bypassing the builder — the hand-patch a corrupt file amounts to.
        // Exhaustive: a new `ConfigError` variant must add a row below.
        fn carry(config: &mut AdaptiveConfig, violation: ConfigError) {
            match violation {
                ZeroPartitions => config.num_partitions = 0,
                WillingnessOutOfRange(s) => config.willingness = s,
                CapacityFactorBelowOne(c) => config.capacity_factor = c,
                ZeroParallelism => config.parallelism = 0,
                AnnealOutOfRange { start, end } => {
                    config.anneal = Some(Anneal {
                        start,
                        end,
                        over_iterations: 10,
                    })
                }
            }
        }

        let nan = f64::NAN;
        let inf = f64::INFINITY;
        let rejected: [(Tune, u16, ConfigError); 11] = [
            (|b| b, 0, ZeroPartitions),
            (|b| b.willingness(-0.1), 4, WillingnessOutOfRange(-0.1)),
            (|b| b.willingness(1.5), 4, WillingnessOutOfRange(1.5)),
            (|b| b.willingness(f64::NAN), 4, WillingnessOutOfRange(nan)),
            (|b| b.capacity_factor(0.9), 4, CapacityFactorBelowOne(0.9)),
            (
                |b| b.capacity_factor(f64::NAN),
                4,
                CapacityFactorBelowOne(nan),
            ),
            (
                |b| b.capacity_factor(f64::INFINITY),
                4,
                CapacityFactorBelowOne(inf),
            ),
            (|b| b.parallelism(0), 4, ZeroParallelism),
            (
                |b| b.anneal_willingness(1.2, 0.5, 10),
                4,
                AnnealOutOfRange {
                    start: 1.2,
                    end: 0.5,
                },
            ),
            (
                |b| b.anneal_willingness(0.5, -0.2, 10),
                4,
                AnnealOutOfRange {
                    start: 0.5,
                    end: -0.2,
                },
            ),
            (
                |b| b.anneal_willingness(f64::NAN, 0.5, 10),
                4,
                AnnealOutOfRange {
                    start: nan,
                    end: 0.5,
                },
            ),
        ];
        for (tune, k, expected) in rejected {
            let violation = tune(AdaptiveConfig::builder(k)).build().unwrap_err();
            // Debug strings, because NaN payloads defeat `==`.
            assert_eq!(format!("{violation:?}"), format!("{expected:?}"));
            let mut patched = valid.clone();
            carry(&mut patched.state.scalars.config, violation);
            let DecodeError::Corrupt(expected_reason) = DecodeError::from(violation) else {
                unreachable!("config violations decode as Corrupt");
            };
            match StreamCheckpoint::from_bytes(&patched.to_bytes()) {
                Err(DecodeError::Corrupt(reason)) => assert_eq!(reason, expected_reason),
                other => panic!("{expected:?} decoded to {other:?}"),
            }
        }

        let accepted: [Tune; 9] = [
            |b| b,
            |b| b.willingness(0.0),
            |b| b.willingness(1.0),
            |b| b.capacity_factor(1.0),
            |b| b.capacity_factor(f64::MAX),
            |b| b.parallelism(1),
            |b| b.anneal_willingness(0.0, 1.0, 0),
            |b| b.anneal_willingness(1.0, 0.0, 40),
            |b| {
                b.quota_rule(QuotaRule::Unbounded)
                    .balance_on_edges(true)
                    .count_self(true)
                    .max_iterations(0)
            },
        ];
        for tune in accepted {
            let mut ckpt = valid.clone();
            ckpt.state.scalars.config = tune(AdaptiveConfig::builder(4)).build().unwrap();
            let back = StreamCheckpoint::from_bytes(&ckpt.to_bytes()).unwrap();
            assert_eq!(back, ckpt);
        }
        // No setter reaches the convergence window: its floor, set on the
        // public field, round-trips too.
        let mut ckpt = valid;
        ckpt.state.scalars.config.convergence_window = 0;
        let back = StreamCheckpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(back, ckpt);
    }
}
