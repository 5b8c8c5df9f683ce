//! Decomposition configuration.

use kcore_buckets::BucketStrategy;

/// Configuration for a [`crate::PeelEngine`] run — shared by every
/// problem behind the [`crate::Decomposition`] builder.
///
/// The defaults are the paper's design as far as it has been measured
/// to pay on this codebase: the adaptive bucketing strategy (plain
/// scanning until the θ-core, HBS beyond it), the online driver with
/// vertical granularity control ([`Vgc::default`], Sec. 4.2). Run
/// statistics are always collected. VGC collapses the tiny subrounds
/// of road-like graphs and was not slower than the plain framework on
/// any workload of the repository benchmark.
///
/// Sampling (Sec. 4.1) stays off by default. On a 2-core machine, at 1
/// and 2 workers, VGC plus sampling at the default threshold cost
/// 1.26–1.72× VGC alone on power-law and dense-core graphs: with so few
/// workers there is little decrement contention for it to shed. The
/// paper measures the hotspot at high core counts; a rule that enrols
/// hubs by pool width needs measurements above 2 cores, so no such
/// rule is guessed here.
///
/// Each problem honours the techniques its peel admits. k-core, densest
/// subgraph and [`crate::DynamicGraph`] run both. k-truss ignores
/// sampling and VGC: it runs its two-phase step under every techniques
/// block.
/// [`Techniques::default()`] is the plain framework of Alg. 1, the
/// ablation baseline; set it through [`Config::techniques`] to opt out
/// of VGC, or pick another block:
///
/// ```
/// use kcore::{Config, Decomposition, Techniques};
/// use kcore_graph::gen;
///
/// let g = gen::barabasi_albert(2000, 4, 7);
/// let config = Config { techniques: Techniques::all_online(), ..Config::default() };
/// let result = Decomposition::kcore(&g).config(config).run();
/// assert!(result.stats().sampled_vertices > 0);
///
/// let plain = Config { techniques: Techniques::default(), ..Config::default() };
/// let baseline = Decomposition::kcore(&g).config(plain).run();
/// assert_eq!(baseline.coreness(), result.coreness());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// How per-round initial frontiers are produced (the third axis of
    /// the paper's Tab. 3 ablation).
    pub bucket_strategy: BucketStrategy,
    /// The paper's Sec. 4 practical techniques (sampling, vertical
    /// granularity control).
    pub techniques: Techniques,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            bucket_strategy: BucketStrategy::Adaptive,
            techniques: Techniques { sampling: None, vgc: Some(Vgc::default()) },
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
}

/// The Sec. 4 techniques block: which practical refinements the peeling
/// framework runs with. Everything defaults to *off*, which is the plain
/// framework of Alg. 1 (the ablation baseline; [`Config::default`]
/// turns VGC on); [`Techniques::all_online`] is the paper's full online
/// design.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Techniques {
    /// Sec. 4.1: approximate induced-degree tracking on high-degree
    /// vertices via edge sampling, with exact recounts at peel decisions.
    pub sampling: Option<Sampling>,
    /// Sec. 4.2: vertical granularity control — collapse hash-bag
    /// subrounds by chasing local peel chains sequentially.
    pub vgc: Option<Vgc>,
}

impl Techniques {
    /// Sampling + VGC with default parameters — the paper's full
    /// practical design.
    pub fn all_online() -> Self {
        Self { sampling: Some(Sampling::default()), vgc: Some(Vgc::default()) }
    }
}

/// Parameters of the sampling scheme (Sec. 4.1).
///
/// A vertex whose initial degree is at least [`Sampling::threshold`]
/// enters *sample mode*: instead of an exact induced degree maintained
/// by per-edge atomic decrements (the contention hotspot), it tracks the
/// count of *sampled* incident edges — each edge is in the sample with
/// probability `2^-rate_log2`, decided by a deterministic hash of the
/// endpoints and a fixed seed. Removals of sampled edges decrement
/// the counter, a lower bound on the live degree. When a round's
/// frontier drains, every live sample-mode vertex whose counter has
/// fallen to the round is recounted exactly
/// ([`kcore_parallel::RunStats::validate_calls`]). That recount ends
/// its sample mode: the vertex either settles in the round or keeps the
/// exact degree and leaves sample mode, so each vertex is recounted at
/// most once ([`kcore_parallel::RunStats::recount_arcs`] ≤ Σ d(v)). So
/// every round starts with every live vertex's stored priority exact
/// or an upper bound at or above the round, and every sample-mode
/// settle is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sampling {
    /// Minimum initial degree for a vertex to enter sample mode.
    pub threshold: u32,
    /// Sampling rate exponent: each edge is sampled with probability
    /// `2^-rate_log2`. Valid range `0..=63`; a run panics on larger
    /// values.
    pub rate_log2: u32,
}

impl Default for Sampling {
    fn default() -> Self {
        Self { threshold: 128, rate_log2: 2 }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_papers_final_design() {
        let c = Config::default();
        assert_eq!(c.bucket_strategy, BucketStrategy::Adaptive);
        // VGC on, sampling opt-in; the techniques block alone still
        // defaults to the plain framework (the ablation baseline).
        assert!(c.techniques.sampling.is_none());
        assert_eq!(c.techniques.vgc, Some(Vgc::default()));
        assert_eq!(Techniques::default(), Techniques { vgc: None, ..c.techniques });
    }

    #[test]
    fn with_strategy_overrides_only_the_strategy() {
        let c = Config::with_strategy(BucketStrategy::Fixed);
        assert_eq!(c.bucket_strategy, BucketStrategy::Fixed);
        assert_eq!(c.techniques, Config::default().techniques);
    }

    #[test]
    fn all_online_enables_sampling_and_vgc() {
        let t = Techniques::all_online();
        assert!(t.sampling.is_some());
        assert!(t.vgc.is_some());
    }

    #[test]
    fn with_techniques_overrides_only_techniques() {
        let c = Config::with_techniques(Techniques::default());
        assert_eq!(c.techniques, Techniques::default());
        assert_eq!(c.bucket_strategy, Config::default().bucket_strategy);
    }
}
