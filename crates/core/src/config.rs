//! Decomposition configuration.

use kcore_buckets::BucketStrategy;

/// Configuration for a [`crate::PeelEngine`] run — shared by every
/// problem behind the [`crate::Decomposition`] builder.
///
/// The defaults reproduce the paper's final design: the adaptive
/// bucketing strategy (plain scanning until the θ-core, HBS beyond it)
/// with statistics collection on and the Sec. 4 techniques off.
/// Techniques that do not apply to a problem are ignored (sampling and
/// VGC assume unit incidences and are skipped for k-truss). Enable
/// the techniques through [`Config::techniques`]:
///
/// ```
/// use kcore::{Config, Decomposition, Techniques};
/// use kcore_graph::gen;
///
/// let g = gen::barabasi_albert(2000, 4, 7);
/// let config = Config { techniques: Techniques::all_online(), ..Config::default() };
/// let result = Decomposition::kcore(&g).exact_config(config).run();
/// assert!(result.stats().sampled_vertices > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// How per-round initial frontiers are produced (the third axis of
    /// the paper's Tab. 3 ablation).
    pub bucket_strategy: BucketStrategy,
    /// Round at which [`BucketStrategy::Adaptive`] switches from the
    /// flat active array to HBS (the paper's θ; Sec. 5.3). Ignored by
    /// the other strategies.
    pub adaptive_theta: u32,
    /// Whether to fill [`kcore_parallel::RunStats`] (rounds, subrounds,
    /// work, burdened span). Cheap relative to the peeling itself, so
    /// on by default; benchmarks can turn it off.
    pub collect_stats: bool,
    /// The paper's Sec. 4 practical techniques (sampling, vertical
    /// granularity control) and the online/offline driver choice.
    pub techniques: Techniques,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            bucket_strategy: BucketStrategy::Adaptive,
            adaptive_theta: 16,
            collect_stats: true,
            techniques: Techniques::default(),
        }
    }
}

impl Config {
    /// Config using a specific bucketing strategy, other fields default.
    pub fn with_strategy(strategy: BucketStrategy) -> Self {
        Self { bucket_strategy: strategy, ..Self::default() }
    }

    /// Config using a specific techniques block, other fields default.
    pub fn with_techniques(techniques: Techniques) -> Self {
        Self { techniques, ..Self::default() }
    }

    /// Applies the `KCORE_TECHNIQUES` environment override, if set.
    ///
    /// The variable holds a comma-separated subset of `sampling`, `vgc`,
    /// `offline`, or the shorthand `all` (= `sampling,vgc`). CI uses it
    /// to force the techniques subsystem on for the whole test suite, so
    /// the default-off configuration cannot silently rot. Overrides only
    /// ever *enable* features (with their default parameters); an unset
    /// or empty variable leaves the config untouched.
    pub fn apply_env_overrides(self) -> Self {
        self.apply_env_overrides_filtered(&["sampling", "vgc", "offline"])
    }

    /// Applies the `KCORE_TECHNIQUES` environment override restricted
    /// to `supported` tokens; known-but-unsupported tokens are dropped,
    /// unknown tokens still panic.
    ///
    /// This is the env-override entry for problem facades whose axes
    /// reject some techniques outright ([`crate::ApproxDensest`],
    /// [`crate::KhCore`]): the engine panics on an *explicitly*
    /// configured sampling/offline block under threshold rounds or
    /// recompute incidences, but a CI matrix leg forcing
    /// `KCORE_TECHNIQUES=offline` over the whole suite is a blanket
    /// request, not a per-problem one — those facades honor the tokens
    /// that apply to them and drop the rest, so the forced legs still
    /// exercise every problem instead of tripping the combination
    /// guard.
    pub fn apply_env_overrides_filtered(self, supported: &[&str]) -> Self {
        match std::env::var("KCORE_TECHNIQUES") {
            Ok(spec) => self.apply_techniques_spec_filtered(&spec, supported),
            Err(_) => self,
        }
    }

    /// Applies a `KCORE_TECHNIQUES`-style spec string (see
    /// [`Config::apply_env_overrides`]). Split out so the parsing is
    /// testable without mutating process environment.
    ///
    /// # Panics
    ///
    /// Panics on unknown tokens — a misspelled CI override should fail
    /// loudly, not silently run the baseline.
    pub fn apply_techniques_spec(self, spec: &str) -> Self {
        self.apply_techniques_spec_filtered(spec, &["sampling", "vgc", "offline"])
    }

    /// Spec application restricted to `supported` tokens (the testable
    /// core of [`Config::apply_env_overrides_filtered`]). The `all`
    /// shorthand expands to `sampling,vgc` first and each component is
    /// filtered individually.
    ///
    /// # Panics
    ///
    /// Panics on unknown tokens, exactly like
    /// [`Config::apply_techniques_spec`].
    pub fn apply_techniques_spec_filtered(mut self, spec: &str, supported: &[&str]) -> Self {
        let on = |name: &str| supported.contains(&name);
        for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            match token {
                "sampling" if on("sampling") => {
                    self.techniques.sampling.get_or_insert_with(Sampling::default);
                }
                "vgc" if on("vgc") => {
                    self.techniques.vgc.get_or_insert_with(Vgc::default);
                }
                "offline" if on("offline") => {
                    self.techniques.mode = PeelMode::Offline(Offline::default());
                }
                "all" => {
                    if on("sampling") {
                        self.techniques.sampling.get_or_insert_with(Sampling::default);
                    }
                    if on("vgc") {
                        self.techniques.vgc.get_or_insert_with(Vgc::default);
                    }
                }
                // Known token, filtered out for this problem's axes.
                "sampling" | "vgc" | "offline" => {}
                other => panic!(
                    "KCORE_TECHNIQUES: unknown token {other:?} \
                     (valid: sampling, vgc, offline, all)"
                ),
            }
        }
        self
    }
}

/// The Sec. 4 techniques block: which practical refinements the peeling
/// framework runs with. Everything defaults to *off*, which is the plain
/// framework of Alg. 1; [`Techniques::all_online`] is the paper's full
/// online design.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Techniques {
    /// Sec. 4.1: approximate induced-degree tracking on high-degree
    /// vertices via edge sampling, with exact recounts at peel decisions.
    pub sampling: Option<Sampling>,
    /// Sec. 4.2: vertical granularity control — collapse hash-bag
    /// subrounds by chasing local peel chains sequentially.
    pub vgc: Option<Vgc>,
    /// Online (hash-bag subrounds) or offline (Julienne-style histogram)
    /// peeling driver.
    pub mode: PeelMode,
}

impl Techniques {
    /// Sampling + VGC with default parameters, online driver — the
    /// paper's full practical design.
    pub fn all_online() -> Self {
        Self {
            sampling: Some(Sampling::default()),
            vgc: Some(Vgc::default()),
            mode: PeelMode::Online,
        }
    }

    /// Offline histogram peeling with default parameters (sampling and
    /// VGC are online-only and stay off).
    pub fn offline() -> Self {
        Self { sampling: None, vgc: None, mode: PeelMode::Offline(Offline::default()) }
    }
}

/// Which peeling driver executes the rounds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PeelMode {
    /// Alg. 1: atomic clamped decrements + hash-bag subrounds.
    #[default]
    Online,
    /// Julienne-style offline peeling: per subround, gather the
    /// frontier's neighborhood, histogram it, and apply bulk decrements
    /// — no per-edge atomics, more global synchronizations.
    Offline(Offline),
}

/// Parameters of the sampling scheme (Sec. 4.1).
///
/// A vertex whose initial degree is at least [`Sampling::threshold`]
/// enters *sample mode*: instead of an exact induced degree maintained
/// by per-edge atomic decrements (the contention hotspot), it tracks the
/// count of *sampled* incident edges — each edge is in the sample with
/// probability `2^-rate_log2`, decided by a deterministic hash of the
/// endpoints and [`Sampling::seed`]. Removals of sampled edges decrement
/// the counter (clamped at zero); when the counter crosses a watermark
/// near the current round, the vertex is exactly re-counted
/// ([`kcore_parallel::RunStats::resamples`]). A vertex in sample mode is
/// only ever peeled after an exact recount confirms its induced degree,
/// and an undershoot discovered in a round's initial frontier (the
/// vertex should have been peeled earlier — the frontier is *polluted*)
/// triggers a Las-Vegas restart without sampling
/// ([`kcore_parallel::RunStats::restarts`], expected 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sampling {
    /// Minimum initial degree for a vertex to enter sample mode.
    pub threshold: u32,
    /// Sampling rate exponent: each edge is sampled with probability
    /// `2^-rate_log2`.
    pub rate_log2: u32,
    /// Additive slack on the recount watermarks. Larger slack means
    /// earlier recounts (more exact work, smaller failure probability).
    pub slack: u32,
    /// End-of-round validation policy.
    pub validation: Validation,
    /// Seed of the deterministic edge-sampling hash.
    pub seed: u64,
}

impl Default for Sampling {
    fn default() -> Self {
        Self {
            threshold: 128,
            rate_log2: 2,
            slack: 32,
            validation: Validation::Full,
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl Sampling {
    /// Sampling with a degree threshold of `threshold`, other parameters
    /// default. Tests use low thresholds to force sample mode on small
    /// graphs.
    pub fn with_threshold(threshold: u32) -> Self {
        Self { threshold, ..Self::default() }
    }
}

/// How sample-mode vertices are validated at the end of each round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Validation {
    /// Exactly re-count, when a round's frontier drains, every live
    /// sample-mode vertex that could settle in it. Deterministically
    /// exact: the round-start invariant "every live vertex has induced
    /// degree > k" is verified outright. Two skips keep it cheap without
    /// weakening that. A vertex with no neighbour removed since its last
    /// recount has an exact stored priority. A vertex whose sampled
    /// counter exceeds `k` has more than `k` live neighbours, since the
    /// counter counts a subset of them. So the extra work is one
    /// `O(d(v))` walk per hub per round that both lost a neighbour and
    /// could reach `k`, not one per hub per round. The default, and the
    /// mode the oracle test matrix runs.
    #[default]
    Full,
    /// Re-count only vertices whose sampled counter sits below the
    /// validation watermark — the paper's fast path. Correct with high
    /// probability; a miss that surfaces in a later round's frontier is
    /// caught by the frontier recount and repaired by a Las-Vegas
    /// restart with sampling disabled.
    Watermark,
}

/// Parameters of vertical granularity control (Sec. 4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vgc {
    /// Maximum number of vertices one worker chases sequentially within
    /// a subround before spilling back to the hash bag. Bounds the
    /// per-subround chain term of the burdened span
    /// (`Õ(ρ′(ω + L))`, Tab. 2).
    pub chain_limit: u32,
}

impl Default for Vgc {
    fn default() -> Self {
        Self { chain_limit: 128 }
    }
}

/// Parameters of the offline (Julienne-style) driver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Offline {
    /// Which histogram implementation counts the gathered neighborhood.
    pub histogram: HistogramKind,
}

/// Histogram implementation selector for offline peeling (see
/// [`kcore_parallel::histogram`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum HistogramKind {
    /// Pick per subround: atomic counting when the gathered list is
    /// dense relative to the vertex set, sort + run-length encode
    /// otherwise.
    #[default]
    Auto,
    /// Always parallel sort + run-length encode (`O(t log t)` work).
    Sort,
    /// Always atomic counting into a vertex-indexed array
    /// (`O(t + n)` work).
    Atomic,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_papers_final_design() {
        let c = Config::default();
        assert_eq!(c.bucket_strategy, BucketStrategy::Adaptive);
        assert_eq!(c.adaptive_theta, 16);
        assert!(c.collect_stats);
        // Techniques are opt-in: the default config is the plain
        // framework (the ablation baseline).
        assert_eq!(c.techniques, Techniques::default());
        assert!(c.techniques.sampling.is_none());
        assert!(c.techniques.vgc.is_none());
        assert_eq!(c.techniques.mode, PeelMode::Online);
    }

    #[test]
    fn with_strategy_overrides_only_the_strategy() {
        let c = Config::with_strategy(BucketStrategy::Fixed(16));
        assert_eq!(c.bucket_strategy, BucketStrategy::Fixed(16));
        assert_eq!(c.adaptive_theta, Config::default().adaptive_theta);
    }

    #[test]
    fn all_online_enables_sampling_and_vgc() {
        let t = Techniques::all_online();
        assert!(t.sampling.is_some());
        assert!(t.vgc.is_some());
        assert_eq!(t.mode, PeelMode::Online);
        assert_eq!(t.sampling.unwrap().validation, Validation::Full);
    }

    #[test]
    fn offline_preset_selects_the_offline_driver() {
        let t = Techniques::offline();
        assert!(matches!(t.mode, PeelMode::Offline(_)));
        assert!(t.sampling.is_none());
    }

    #[test]
    fn with_techniques_overrides_only_techniques() {
        let c = Config::with_techniques(Techniques::offline());
        assert!(matches!(c.techniques.mode, PeelMode::Offline(_)));
        assert_eq!(c.bucket_strategy, Config::default().bucket_strategy);
    }

    #[test]
    fn techniques_spec_enables_features() {
        let c = Config::default().apply_techniques_spec("sampling,vgc");
        assert!(c.techniques.sampling.is_some());
        assert!(c.techniques.vgc.is_some());
        assert_eq!(c.techniques.mode, PeelMode::Online);

        let c = Config::default().apply_techniques_spec("all,offline");
        assert!(c.techniques.sampling.is_some());
        assert!(c.techniques.vgc.is_some());
        assert!(matches!(c.techniques.mode, PeelMode::Offline(_)));

        // Empty spec and stray separators are no-ops.
        assert_eq!(Config::default().apply_techniques_spec(" , "), Config::default());
    }

    #[test]
    fn techniques_spec_does_not_downgrade_explicit_settings() {
        // A config that already enables sampling with custom parameters
        // keeps them; the spec only fills gaps.
        let custom = Sampling::with_threshold(7);
        let base =
            Config::with_techniques(Techniques { sampling: Some(custom), ..Techniques::default() });
        let c = base.apply_techniques_spec("sampling,vgc");
        assert_eq!(c.techniques.sampling, Some(custom));
        assert!(c.techniques.vgc.is_some());
    }

    #[test]
    #[should_panic(expected = "unknown token")]
    fn techniques_spec_rejects_typos() {
        let _ = Config::default().apply_techniques_spec("samplign");
    }

    #[test]
    fn filtered_spec_drops_unsupported_tokens() {
        let c = Config::default().apply_techniques_spec_filtered("sampling,vgc,offline", &["vgc"]);
        assert!(c.techniques.sampling.is_none(), "sampling filtered out");
        assert!(c.techniques.vgc.is_some(), "vgc passes the filter");
        assert_eq!(c.techniques.mode, PeelMode::Online, "offline filtered out");
        // The `all` shorthand filters per component.
        let c = Config::default().apply_techniques_spec_filtered("all", &["vgc"]);
        assert!(c.techniques.sampling.is_none());
        assert!(c.techniques.vgc.is_some());
    }

    #[test]
    #[should_panic(expected = "unknown token")]
    fn filtered_spec_still_rejects_typos() {
        let _ = Config::default().apply_techniques_spec_filtered("offlien", &["vgc"]);
    }
}
