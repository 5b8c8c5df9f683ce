//! (2+ε)-approximate densest subgraph as a [`PeelProblem`] — the
//! threshold-policy client, peeling whole priority ranges per round.
//!
//! [`crate::Decomposition::densest`] peels min-degree rounds (Charikar's
//! greedy, a 2-approximation) and therefore runs as many rounds as the
//! degeneracy. The batched variant (Bahmani–Kumar–Vassilvitskii)
//! trades a factor in the guarantee for exponentially fewer rounds:
//! each round removes **every** vertex whose induced degree is at most
//! `(1 + ε/2) ·` (live average degree), which shrinks the vertex set
//! geometrically — `O(log₁₊ε n)` rounds — while the best standing
//! subgraph along the way has density at least `ρ* / (2 + ε)`.
//!
//! On the engine this is precisely [`RoundPolicy::Threshold`]: the
//! policy computes the round threshold from the live
//! [`RoundAggregates`] (`priority_sum / remaining` is the live average
//! degree), the bucket structure drains the whole range in one step,
//! and the clamp floors at the threshold, so a vertex dragged down to
//! it mid-round settles in the same round. The cascade makes every
//! round's standing set a *core* of the input graph (the maximal
//! sub-threshold-closed set), which yields the sandwich the tests
//! assert: every checkpoint is a suffix state of any sequential
//! min-degree greedy order, so
//! `oracle / (2+ε) <= parallel <= oracle`
//! against [`crate::sequential_greedy_density`] — the lower bound from
//! the Bahmani guarantee (`parallel >= ρ*/(2+ε) >= oracle/(2+ε)`), the
//! upper bound from checkpoint containment.
//!
//! Note the rate: the paper-named "(2+ε)-approximation" needs the peel
//! threshold `(1 + ε/2)·avg`, since a removal rate of `1 + β` gives a
//! `2(1 + β)`-approximation; `β = ε/2` makes the end-to-end factor
//! exactly `2 + ε`.

use crate::peel::engine::{Incidence, PeelProblem, RoundAggregates, RoundPolicy, ThresholdPolicy};
use kcore_graph::CsrGraph;
use kcore_parallel::RunStats;

/// The canonical ε sweep shared by the proptest sandwich/rounds
/// assertions and the `bench_problems` timing entries — one list, so
/// the measured sweep and the asserted `O(log₁₊ε n)` law cannot drift
/// apart.
pub const SWEPT_EPSILONS: [f64; 3] = [0.1, 0.5, 1.0];

/// The batched densest-subgraph problem over one graph.
///
/// All four bucket strategies drain its threshold rounds natively, and
/// VGC composes with the in-round cascade; sampling does not apply to
/// threshold rounds.
pub(crate) struct ApproxDensestProblem<'g> {
    g: &'g CsrGraph,
    /// Removal rate `1 + ε/2`.
    rate: f64,
}

impl<'g> ApproxDensestProblem<'g> {
    /// The problem targeting a `2 + epsilon` approximation factor.
    pub(crate) fn new(g: &'g CsrGraph, epsilon: f64) -> Self {
        Self { g, rate: 1.0 + epsilon / 2.0 }
    }
}

impl ThresholdPolicy for ApproxDensestProblem<'_> {
    fn threshold(&self, agg: &RoundAggregates) -> u32 {
        if agg.remaining == 0 {
            return agg.floor;
        }
        let avg = agg.priority_sum as f64 / agg.remaining as f64;
        // floor(rate · avg) >= the live minimum degree (an integer at
        // most avg <= rate·avg), so every round settles at least the
        // minimum-degree vertex: progress needs no special casing.
        (self.rate * avg).floor() as u32
    }
}

impl PeelProblem for ApproxDensestProblem<'_> {
    type Output = ApproxDensestResult;

    fn name(&self) -> &'static str {
        "approx-densest"
    }

    fn num_elements(&self) -> usize {
        self.g.num_vertices()
    }

    fn init_priorities(&self) -> Vec<u32> {
        self.g.degrees()
    }

    fn incidence(&self) -> Incidence<'_> {
        Incidence::Unit(self.g)
    }

    fn round_policy(&self) -> RoundPolicy<'_> {
        RoundPolicy::Threshold(self)
    }

    fn assemble(&self, rounds: Vec<u32>, stats: RunStats) -> ApproxDensestResult {
        // rounds[v] is the batch round in which v settled; the standing
        // set at the start of round r is {v : rounds[v] >= r}. Count
        // its vertices and surviving edges for every r at once by
        // suffix-summing histograms, exactly like the exact greedy.
        let rmax = rounds.iter().copied().max().unwrap_or(0) as usize;
        let mut n_hist = vec![0u64; rmax + 2];
        for &r in &rounds {
            n_hist[r as usize] += 1;
        }
        let mut m_hist = vec![0u64; rmax + 2];
        for (u, v) in self.g.edges() {
            let lvl = rounds[u as usize].min(rounds[v as usize]) as usize;
            m_hist[lvl] += 1;
        }
        let (mut n_at, mut m_at) = (0u64, 0u64);
        let mut densities = vec![0f64; rmax + 1];
        let mut best_round = 0u32;
        let mut best = f64::NEG_INFINITY;
        for r in (0..=rmax).rev() {
            n_at += n_hist[r];
            m_at += m_hist[r];
            let d = if n_at == 0 { 0.0 } else { m_at as f64 / n_at as f64 };
            densities[r] = d;
            // `>=` while walking r downward: ties resolve to the
            // earliest round, i.e. the largest standing subgraph.
            if d >= best {
                best = d;
                best_round = r as u32;
            }
        }
        let membership = rounds.iter().map(|&r| r >= best_round).collect();
        ApproxDensestResult { rounds, densities, membership, best_round, stats }
    }
}

/// The result of a batched approximate densest-subgraph run.
#[derive(Debug, Clone, Default)]
pub struct ApproxDensestResult {
    rounds: Vec<u32>,
    /// `densities[r]` = density of the subgraph standing at the start
    /// of batch round `r`.
    densities: Vec<f64>,
    membership: Vec<bool>,
    best_round: u32,
    stats: RunStats,
}

impl ApproxDensestResult {
    /// Density (undirected edges per vertex) of the returned subgraph —
    /// at least `optimum / (2 + ε)`.
    pub fn density(&self) -> f64 {
        self.densities.get(self.best_round as usize).copied().unwrap_or(0.0)
    }

    /// The batch round whose standing subgraph is returned.
    pub fn best_round(&self) -> u32 {
        self.best_round
    }

    /// Membership mask of the returned subgraph.
    pub fn members(&self) -> &[bool] {
        &self.membership
    }

    /// Number of vertices in the returned subgraph.
    pub fn num_members(&self) -> usize {
        self.membership.iter().filter(|&&m| m).count()
    }

    /// The per-round density curve of the standing subgraphs.
    pub fn densities(&self) -> &[f64] {
        &self.densities
    }

    /// Each vertex's settle (batch) round — the removal-order
    /// certificate.
    pub fn rounds(&self) -> &[u32] {
        &self.rounds
    }

    /// Number of batch rounds the peel ran — the `O(log₁₊ε n)`
    /// quantity the rounds-vs-ε sweep measures.
    pub fn num_rounds(&self) -> u64 {
        self.stats.rounds
    }

    /// Run counters (rounds, subrounds, work, burdened span, ...).
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Sampling, Techniques, Vgc};
    use crate::problems::densest::sequential_greedy_density;
    use crate::{Config, Decomposition};
    use kcore_buckets::BucketStrategy;
    use kcore_graph::{gen, CsrGraph, GraphBuilder};

    const EPSILONS: [f64; 3] = SWEPT_EPSILONS;

    fn assert_sandwich(g: &CsrGraph, label: &str) {
        let oracle = sequential_greedy_density(g);
        for eps in EPSILONS {
            for strategy in BucketStrategy::ALL {
                let config = Config::with_strategy(strategy);
                let r = Decomposition::approx_densest(g, eps).config(config).run();
                let got = r.density();
                assert!(
                    got <= oracle + 1e-9,
                    "{label}/{strategy}/eps {eps}: parallel {got} exceeds the greedy {oracle}"
                );
                assert!(
                    got * (2.0 + eps) + 1e-9 >= oracle,
                    "{label}/{strategy}/eps {eps}: parallel {got} below oracle/(2+eps) ({oracle})"
                );
            }
        }
    }

    #[test]
    fn sandwich_on_generator_families() {
        assert_sandwich(&gen::barabasi_albert(200, 3, 7), "ba");
        assert_sandwich(&gen::erdos_renyi(150, 450, 3), "er");
        assert_sandwich(&gen::planted_core(150, 2, 30, 9), "planted");
        assert_sandwich(&gen::grid2d(12, 12), "grid");
        assert_sandwich(&gen::hcns(12), "hcns");
    }

    #[test]
    fn rounds_shrink_as_epsilon_grows() {
        for (label, g) in [
            ("ba", gen::barabasi_albert(2000, 4, 13)),
            ("hcns", gen::hcns(40)),
            ("planted", gen::planted_core(800, 3, 60, 5)),
        ] {
            let rounds: Vec<u64> = EPSILONS
                .iter()
                .map(|&eps| {
                    Decomposition::approx_densest(&g, eps)
                        .config(Config::default())
                        .run()
                        .num_rounds()
                })
                .collect();
            assert!(
                rounds.windows(2).all(|w| w[1] <= w[0]),
                "{label}: rounds must not grow with eps, got {rounds:?}"
            );
            // The O(log_{1+eps/2} n) bound, with slack for the +1-ish
            // boundary rounds.
            for (&eps, &r) in EPSILONS.iter().zip(&rounds) {
                let bound = (g.num_vertices() as f64).ln() / (1.0 + eps / 2.0).ln() + 2.0;
                assert!(
                    (r as f64) <= bound,
                    "{label}/eps {eps}: {r} rounds exceeds the log bound {bound:.1}"
                );
            }
        }
    }

    #[test]
    fn far_fewer_rounds_than_the_exact_greedy() {
        let g = gen::hcns(40); // degeneracy ~40: many min-bucket rounds
        let exact = Decomposition::densest(&g).config(Config::default()).run();
        let batched = Decomposition::approx_densest(&g, 0.5).config(Config::default()).run();
        assert!(
            batched.num_rounds() * 3 < exact.stats().rounds,
            "batching must collapse rounds: {} vs {}",
            batched.num_rounds(),
            exact.stats().rounds
        );
    }

    #[test]
    fn returned_subgraph_really_has_the_reported_density() {
        let g = gen::planted_core(300, 2, 50, 21);
        let r = Decomposition::approx_densest(&g, 0.5).config(Config::default()).run();
        let members = r.members();
        let mk = g.edges().filter(|&(u, v)| members[u as usize] && members[v as usize]).count();
        assert_eq!(r.density(), mk as f64 / r.num_members() as f64);
        assert!(r.density() >= 15.0, "the planted 50-clique dominates, got {}", r.density());
    }

    #[test]
    fn epsilon_zero_still_terminates_with_factor_two() {
        let g = gen::barabasi_albert(150, 3, 3);
        let oracle = sequential_greedy_density(&g);
        let r = Decomposition::approx_densest(&g, 0.0).config(Config::default()).run();
        assert!(r.density() <= oracle + 1e-9);
        assert!(r.density() * 2.0 + 1e-9 >= oracle);
    }

    #[test]
    fn vgc_composes_with_threshold_rounds() {
        let g = gen::barabasi_albert(400, 3, 9);
        let plain = Decomposition::approx_densest(&g, 0.5)
            .config(Config::with_techniques(Techniques::default()))
            .run();
        let vgc = Config::with_techniques(Techniques {
            vgc: Some(Vgc::default()),
            ..Techniques::default()
        });
        let chased = Decomposition::approx_densest(&g, 0.5).config(vgc).run();
        assert_eq!(plain.rounds(), chased.rounds(), "VGC only reorders work within a round");
        assert_eq!(plain.densities(), chased.densities());
    }

    #[test]
    fn deterministic_for_fixed_input() {
        let g = gen::rmat(8, 6, 0.57, 0.19, 0.19, 4);
        let a = Decomposition::approx_densest(&g, 0.5).config(Config::default()).run();
        let b = Decomposition::approx_densest(&g, 0.5).config(Config::default()).run();
        assert_eq!(a.rounds(), b.rounds());
        assert_eq!(a.best_round(), b.best_round());
        assert_eq!(a.densities(), b.densities());
    }

    #[test]
    fn empty_and_trivial() {
        let r =
            Decomposition::approx_densest(&CsrGraph::empty(), 0.5).config(Config::default()).run();
        assert_eq!(r.density(), 0.0);
        assert_eq!(r.num_members(), 0);
        let r = Decomposition::approx_densest(&GraphBuilder::new(4).build(), 0.5)
            .config(Config::default())
            .run();
        assert_eq!(r.density(), 0.0);
        assert_eq!(r.num_rounds(), 1, "isolated vertices all drain in round 0");
    }

    #[test]
    #[should_panic(expected = "RoundPolicy::Threshold does not support the sampling technique")]
    fn explicit_sampling_is_rejected() {
        let techniques =
            Techniques { sampling: Some(Sampling::with_threshold(4)), ..Techniques::default() };
        let _ = Decomposition::approx_densest(&gen::path(10), 0.5)
            .config(Config::with_techniques(techniques))
            .run();
    }
}
