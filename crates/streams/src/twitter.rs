//! Synthetic Twitter mention stream with a diurnal rate profile.
//!
//! Figure 8 plots tweets/second collected in London over a full day
//! (Friday 5 Oct 2012): an overnight trough around 4–5 am, a climb through
//! the morning, and a sustained evening peak — with momentary rates up to
//! ~50 tweets/s. The generator reproduces that shape with a double-Gaussian
//! day curve and draws mention endpoints by preferential attachment
//! (activity and attention on Twitter are both heavy-tailed).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use apg_graph::{UpdateBatch, VertexId};

use crate::source::{RestartableSource, SourceCursor, StreamSource};

/// Configuration of the synthetic stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwitterConfig {
    /// Peak tweet rate, tweets per second (Figure 8 shows ~40–50).
    pub peak_rate: f64,
    /// Probability a tweet contains a mention (creates/refreshes an edge).
    pub mention_prob: f64,
    /// Users present at stream start.
    pub initial_users: usize,
    /// Probability a tweeting user is brand new (population growth).
    pub new_user_prob: f64,
    /// Probability a mention stays within the author's community. A
    /// geographically collected stream (the paper's is London-only) has
    /// strong conversational communities; this is what gives adaptive
    /// partitioning locality to exploit.
    pub community_prob: f64,
    /// Mean community size.
    pub mean_community: usize,
}

impl Default for TwitterConfig {
    fn default() -> Self {
        TwitterConfig {
            peak_rate: 45.0,
            mention_prob: 0.5,
            initial_users: 2000,
            new_user_prob: 0.002,
            community_prob: 0.85,
            mean_community: 50,
        }
    }
}

/// One window of streamed activity.
#[derive(Debug, Clone, PartialEq)]
pub struct MentionBatch {
    /// Window start, in hours from stream start.
    pub hour: f64,
    /// Tweets observed in the window.
    pub tweets: usize,
    /// Mention edges (by user index; indices beyond the previous user count
    /// are new users).
    pub edges: Vec<(usize, usize)>,
    /// Total users after this window.
    pub num_users: usize,
}

impl MentionBatch {
    /// Average tweets per second over a window of `seconds`.
    pub fn tweets_per_sec(&self, seconds: f64) -> f64 {
        self.tweets as f64 / seconds
    }

    /// Re-expresses the window as an [`UpdateBatch`] against a graph that
    /// currently holds `known_users` vertex slots: users beyond that count
    /// become vertex additions (ids align because both sides allocate
    /// densely), every mention becomes an edge addition. Repeat mentions
    /// are rejected at apply time — the graph keeps unique mention ties.
    pub fn to_update_batch(&self, known_users: usize) -> UpdateBatch {
        let mut batch = UpdateBatch::new();
        for _ in known_users..self.num_users {
            batch.add_vertex(Vec::new());
        }
        for &(a, b) in &self.edges {
            batch.add_edge(a as VertexId, b as VertexId);
        }
        batch
    }
}

/// Generator of diurnal mention traffic.
///
/// # Example
///
/// ```
/// use apg_streams::{TwitterConfig, TwitterStream};
///
/// let mut stream = TwitterStream::new(TwitterConfig::default(), 7);
/// let night = stream.window(4.0, 600.0);  // 10 minutes at 4 am
/// let evening = stream.window(20.0, 600.0); // 10 minutes at 8 pm
/// assert!(evening.tweets > 3 * night.tweets);
/// ```
#[derive(Debug, Clone)]
pub struct TwitterStream {
    config: TwitterConfig,
    rng: StdRng,
    /// One entry per mention endpoint: sampling uniformly = preferential
    /// attachment on attention.
    endpoint_repeats: Vec<usize>,
    /// Community of each user.
    community: Vec<u32>,
    /// Members of each community.
    members: Vec<Vec<usize>>,
    num_users: usize,
    /// Simulated clock for the [`StreamSource`] view, in hours.
    clock_hour: f64,
    /// Window length for the [`StreamSource`] view, in seconds.
    window_secs: f64,
    /// Users already emitted as vertices through the [`StreamSource`] view.
    emitted_users: usize,
    /// Batches emitted through [`StreamSource::next_batch`] (the resume
    /// cursor).
    emitted_batches: u64,
}

impl TwitterStream {
    /// Creates a stream.
    ///
    /// # Panics
    ///
    /// Panics if `initial_users < 2` or probabilities are out of range.
    pub fn new(config: TwitterConfig, seed: u64) -> Self {
        assert!(config.initial_users >= 2, "need at least two users");
        assert!(
            (0.0..=1.0).contains(&config.mention_prob),
            "bad mention_prob"
        );
        assert!(
            (0.0..=1.0).contains(&config.new_user_prob),
            "bad new_user_prob"
        );
        assert!(
            (0.0..=1.0).contains(&config.community_prob),
            "bad community_prob"
        );
        assert!(config.mean_community >= 2, "communities need members");
        let mut stream = TwitterStream {
            config,
            rng: StdRng::seed_from_u64(seed),
            endpoint_repeats: Vec::new(),
            community: Vec::new(),
            members: Vec::new(),
            num_users: 0,
            clock_hour: 0.0,
            window_secs: 600.0,
            emitted_users: config.initial_users,
            emitted_batches: 0,
        };
        for _ in 0..config.initial_users {
            stream.spawn_user();
        }
        stream
    }

    /// Registers a new user into a community.
    fn spawn_user(&mut self) -> usize {
        let id = self.num_users;
        let c = if self.members.is_empty()
            || self.members[self.members.len() - 1].len() >= self.config.mean_community
        {
            self.members.push(Vec::new());
            self.members.len() - 1
        } else {
            self.members.len() - 1
        };
        self.community.push(c as u32);
        self.members[c].push(id);
        self.num_users += 1;
        id
    }

    /// The diurnal intensity profile: fraction of peak rate at `hour`
    /// (0–24, wraps). Calm overnight, morning rise, evening peak.
    pub fn rate_fraction(hour: f64) -> f64 {
        let h = hour.rem_euclid(24.0);
        let bump = |centre: f64, width: f64, height: f64| -> f64 {
            let mut d = (h - centre).abs();
            d = d.min(24.0 - d); // wrap around midnight
            height * (-d * d / (2.0 * width * width)).exp()
        };
        // Base load + commute/morning bump + evening-social bump.
        (0.12 + bump(9.0, 2.5, 0.45) + bump(20.5, 3.0, 0.88)).min(1.0)
    }

    /// Current tweet rate (tweets/second) at `hour`.
    pub fn rate_at(&self, hour: f64) -> f64 {
        self.config.peak_rate * Self::rate_fraction(hour)
    }

    /// Users known so far.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Positions the [`StreamSource`] clock: batches pulled via
    /// [`StreamSource::next_batch`] start at `start_hour` and each cover
    /// `window_secs` of simulated time (default: midnight, 10-minute
    /// windows).
    ///
    /// # Panics
    ///
    /// Panics if `window_secs` is not positive.
    pub fn with_clock(mut self, start_hour: f64, window_secs: f64) -> Self {
        assert!(window_secs > 0.0, "window must have positive length");
        self.clock_hour = start_hour;
        self.window_secs = window_secs;
        self
    }

    /// The [`StreamSource`] clock's current hour (wraps daily inside the
    /// rate profile, counts up monotonically here).
    pub fn clock_hour(&self) -> f64 {
        self.clock_hour
    }

    /// Generates the traffic of a window of `seconds` starting at `hour`.
    pub fn window(&mut self, hour: f64, seconds: f64) -> MentionBatch {
        let expected = self.rate_at(hour) * seconds;
        // Poisson-ish tweet count via normal approximation (fine for
        // expected counts >> 1; clamped for tiny windows).
        let noise: f64 = {
            // Box-Muller from two uniforms.
            let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = self.rng.gen_range(0.0..std::f64::consts::TAU);
            (-2.0 * u1.ln()).sqrt() * u2.cos()
        };
        let tweets = (expected + noise * expected.sqrt()).max(0.0).round() as usize;

        let mut edges = Vec::new();
        for _ in 0..tweets {
            if self.rng.gen_bool(self.config.new_user_prob) {
                self.spawn_user();
            }
            if !self.rng.gen_bool(self.config.mention_prob) {
                continue;
            }
            let author = self.pick_user();
            let mentioned = if self.rng.gen_bool(self.config.community_prob) {
                self.pick_in_community(self.community[author] as usize)
            } else {
                self.pick_user()
            };
            if author != mentioned {
                self.endpoint_repeats.push(author);
                self.endpoint_repeats.push(mentioned);
                edges.push((author, mentioned));
            }
        }
        MentionBatch {
            hour,
            tweets,
            edges,
            num_users: self.num_users,
        }
    }

    /// Preferential pick: mostly proportional to past mention activity,
    /// sometimes uniform (new entrants get attention too).
    fn pick_user(&mut self) -> usize {
        if !self.endpoint_repeats.is_empty() && self.rng.gen_bool(0.75) {
            let idx = self.rng.gen_range(0..self.endpoint_repeats.len());
            self.endpoint_repeats[idx]
        } else {
            self.rng.gen_range(0..self.num_users)
        }
    }

    /// Preferential pick restricted to one community: rejection-sample the
    /// global activity distribution, falling back to a uniform member.
    fn pick_in_community(&mut self, c: usize) -> usize {
        if !self.endpoint_repeats.is_empty() {
            for _ in 0..8 {
                let idx = self.rng.gen_range(0..self.endpoint_repeats.len());
                let pick = self.endpoint_repeats[idx];
                if self.community[pick] as usize == c {
                    return pick;
                }
            }
        }
        let peers = &self.members[c];
        peers[self.rng.gen_range(0..peers.len())]
    }
}

/// The canonical ingestion view: each pull generates one window at the
/// internal clock (see [`TwitterStream::with_clock`]), advances the clock,
/// and re-expresses the window's growth and mentions as deltas. The stream
/// is open-ended.
///
/// Don't interleave direct [`TwitterStream::window`] calls with this:
/// users spawned by a direct window would be emitted as vertex additions
/// on the *next* pull, but its mention edges would be lost.
impl StreamSource for TwitterStream {
    fn next_batch(&mut self) -> Option<UpdateBatch> {
        let hour = self.clock_hour;
        let window = self.window(hour, self.window_secs);
        self.clock_hour = hour + self.window_secs / 3600.0;
        let batch = window.to_update_batch(self.emitted_users);
        self.emitted_users = window.num_users;
        self.emitted_batches += 1;
        Some(batch)
    }
}

impl RestartableSource for TwitterStream {
    fn cursor(&self) -> SourceCursor {
        SourceCursor::at(self.emitted_batches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diurnal_shape_has_trough_and_peak() {
        let at = TwitterStream::rate_fraction;
        assert!(at(4.0) < 0.25, "4am should be calm: {}", at(4.0));
        assert!(at(20.5) > 0.9, "evening should peak: {}", at(20.5));
        assert!(at(9.0) > at(4.0) * 2.0, "morning rise missing");
        // Wrap-around continuity: 23.9h vs 0.1h nearly equal.
        assert!((at(23.9) - at(0.1)).abs() < 0.05);
    }

    #[test]
    fn window_rates_track_profile() {
        let mut s = TwitterStream::new(TwitterConfig::default(), 1);
        let night = s.window(4.0, 600.0);
        let peak = s.window(20.5, 600.0);
        assert!(
            peak.tweets > 3 * night.tweets,
            "{} vs {}",
            peak.tweets,
            night.tweets
        );
        // Peak ~45 tweets/s for 600s ≈ 27000 tweets.
        assert!((20_000..35_000).contains(&peak.tweets), "{}", peak.tweets);
    }

    #[test]
    fn mentions_are_heavy_tailed() {
        let mut s = TwitterStream::new(TwitterConfig::default(), 3);
        let mut degree = std::collections::HashMap::new();
        for w in 0..24 {
            let batch = s.window(w as f64, 300.0);
            for (a, b) in batch.edges {
                *degree.entry(a).or_insert(0usize) += 1;
                *degree.entry(b).or_insert(0usize) += 1;
            }
        }
        let max = *degree.values().max().unwrap();
        let mean = degree.values().sum::<usize>() as f64 / degree.len() as f64;
        assert!(max as f64 > 10.0 * mean, "max {max} mean {mean}");
    }

    #[test]
    fn population_grows() {
        let mut s = TwitterStream::new(TwitterConfig::default(), 5);
        let before = s.num_users();
        for w in 0..24 {
            s.window(w as f64, 1800.0);
        }
        assert!(s.num_users() > before, "no growth");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = TwitterStream::new(TwitterConfig::default(), 9);
        let mut b = TwitterStream::new(TwitterConfig::default(), 9);
        assert_eq!(a.window(10.0, 60.0), b.window(10.0, 60.0));
    }

    #[test]
    fn no_self_mentions() {
        let mut s = TwitterStream::new(TwitterConfig::default(), 11);
        for w in 0..6 {
            for (a, b) in s.window(w as f64 * 4.0, 600.0).edges {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn stream_source_tracks_population_growth() {
        use apg_graph::{DynGraph, Graph};
        let config = TwitterConfig::default();
        let mut s = TwitterStream::new(config, 13).with_clock(18.0, 1800.0);
        let mut g = DynGraph::with_vertices(config.initial_users);
        for _ in 0..8 {
            let batch = s.next_batch().expect("stream is open-ended");
            let report = batch.apply(&mut g);
            // Every scheduled edge lands or is a repeat mention; nothing
            // can reference an unknown user if ids stay aligned.
            assert_eq!(
                report.edges_added + report.rejected,
                batch.num_edge_additions()
            );
        }
        assert_eq!(g.num_vertices(), s.num_users(), "id spaces drifted");
        assert!((s.clock_hour() - 22.0).abs() < 1e-9);
        assert!(g.num_edges() > 0);
    }

    #[test]
    fn stream_source_is_deterministic_per_seed() {
        let pull = |seed: u64| {
            let mut s = TwitterStream::new(TwitterConfig::default(), seed).with_clock(9.0, 900.0);
            (0..4).map(|_| s.next_batch().unwrap()).collect::<Vec<_>>()
        };
        assert_eq!(pull(3), pull(3));
    }
}
