//! Greedy densest subgraph — the k-core peel plus a density post-pass,
//! a 2-approximation.
//!
//! Charikar's greedy algorithm repeatedly removes a minimum-degree
//! vertex and returns the densest suffix of the removal order; the
//! densest of those suffixes has density at least `ρ* / 2` (half the
//! optimum). The engine's round structure *is* a min-degree greedy
//! order — every vertex is settled while its induced degree equals the
//! current minimum — and the suffix standing at the start of round `k`
//! is exactly the k-core. So the parallel formulation is: run the k-core
//! peel, take the density of each round's standing subgraph, and
//! return the best core. There is no separate peeling problem:
//! [`crate::Decomposition::densest`] runs the k-core decomposition and
//! hands its coreness to [`DensestResult`]'s post-pass.
//!
//! The approximation argument survives the coarser (per-round)
//! checkpoints: consider an optimal subgraph `S*` with density `ρ*`,
//! and the first round `k` in which some vertex of `S*` settles. All of
//! `S*` is still standing at that round's start, so the settling vertex
//! has induced degree `>= ρ*`, hence `k >= ρ*`; the standing subgraph
//! (the k-core) has minimum degree `>= k`, and a graph with minimum
//! degree `δ` has density `>= δ/2`. Therefore
//! `max_k density(k-core) >= ρ*/2`.
//!
//! The density curve is assembled from the peel's output in one
//! `O(n + m + k_max)` post-pass: a vertex stands in round `k`'s
//! subgraph iff its coreness is `>= k`, and an edge survives iff the
//! smaller endpoint coreness is `>= k` — suffix sums over two
//! histograms give `(n_k, m_k)` for every round at once, which is the
//! running density the greedy tracks, at round granularity.

use crate::CorenessResult;
use kcore_graph::CsrGraph;
use kcore_parallel::RunStats;

/// The result of a greedy densest-subgraph run.
#[derive(Debug, Clone, Default)]
pub struct DensestResult {
    coreness: Vec<u32>,
    /// `densities[k]` = density (edges / vertices) of the subgraph
    /// standing at the start of round `k`, i.e. of the k-core.
    densities: Vec<f64>,
    membership: Vec<bool>,
    best_k: u32,
    stats: RunStats,
}

impl DensestResult {
    /// The density post-pass over a finished k-core peel of `g`: the
    /// per-round density curve and the best core.
    pub(crate) fn from_coreness(g: &CsrGraph, core: CorenessResult) -> Self {
        let stats = core.stats().clone();
        let coreness = core.into_coreness();
        // Count, per round k, the standing vertices (coreness >= k) and
        // surviving edges (both endpoint corenesses >= k) by
        // suffix-summing histograms.
        let kmax = coreness.iter().copied().max().unwrap_or(0) as usize;
        let mut n_hist = vec![0u64; kmax + 2];
        for &c in &coreness {
            n_hist[c as usize] += 1;
        }
        let mut m_hist = vec![0u64; kmax + 2];
        for (u, v) in g.edges() {
            let lvl = coreness[u as usize].min(coreness[v as usize]) as usize;
            m_hist[lvl] += 1;
        }
        // Suffix sums: n_at[k] / m_at[k] = standing counts at round k.
        let (mut n_at, mut m_at) = (0u64, 0u64);
        let mut densities = vec![0f64; kmax + 1];
        let mut best_k = 0u32;
        let mut best = f64::NEG_INFINITY;
        for k in (0..=kmax).rev() {
            n_at += n_hist[k];
            m_at += m_hist[k];
            let d = if n_at == 0 { 0.0 } else { m_at as f64 / n_at as f64 };
            densities[k] = d;
            // `>=` while walking k downward: ties resolve to the
            // smallest k, i.e. the largest among equally dense cores.
            if d >= best {
                best = d;
                best_k = k as u32;
            }
        }
        let membership = coreness.iter().map(|&c| c >= best_k).collect();
        DensestResult { coreness, densities, membership, best_k, stats }
    }

    /// Density (undirected edges per vertex) of the returned subgraph —
    /// at least half the optimum.
    pub fn density(&self) -> f64 {
        self.densities.get(self.best_k as usize).copied().unwrap_or(0.0)
    }

    /// The round whose standing subgraph (the `best_k`-core) is
    /// returned.
    pub fn best_k(&self) -> u32 {
        self.best_k
    }

    /// Membership mask of the returned subgraph (`true` = vertex is in
    /// the densest core found).
    pub fn members(&self) -> &[bool] {
        &self.membership
    }

    /// Number of vertices in the returned subgraph.
    pub fn num_members(&self) -> usize {
        self.membership.iter().filter(|&&m| m).count()
    }

    /// The running density curve: `densities()[k]` is the density of
    /// the k-core, for `k` in `0..=kmax`.
    pub fn densities(&self) -> &[f64] {
        &self.densities
    }

    /// The underlying coreness array (the peel order certificate).
    pub fn coreness(&self) -> &[u32] {
        &self.coreness
    }

    /// Run counters (rounds, subrounds, work, burdened span, ...).
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }
}

/// Sequential greedy densest-subgraph oracle: remove a minimum-degree
/// vertex one at a time (smallest id among minima, for determinism) and
/// return the best density over *every* suffix of the removal order.
///
/// This checks strictly more prefixes than the parallel per-round
/// checkpoints, so it upper-bounds [`DensestResult::density`]; both are
/// within a factor 2 of the optimum, giving the sandwich
/// `oracle / 2 <= parallel <= oracle` that the tests assert.
pub fn sequential_greedy_density(g: &CsrGraph) -> f64 {
    let n = g.num_vertices();
    if n == 0 {
        return 0.0;
    }
    let mut degree: Vec<usize> = (0..n).map(|v| g.degree(v as u32)).collect();
    let mut alive = vec![true; n];
    let mut edges_left = g.num_edges();
    let mut vertices_left = n;
    let mut best = edges_left as f64 / vertices_left as f64;
    while vertices_left > 1 {
        let v =
            (0..n).filter(|&v| alive[v]).min_by_key(|&v| degree[v]).expect("a live vertex remains");
        alive[v] = false;
        vertices_left -= 1;
        edges_left -= degree[v];
        for &u in g.neighbors(v as u32) {
            if alive[u as usize] {
                degree[u as usize] -= 1;
            }
        }
        best = best.max(edges_left as f64 / vertices_left as f64);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bz::bz_coreness;
    use crate::config::{Sampling, Techniques, Vgc};
    use crate::{Config, Decomposition};
    use kcore_buckets::BucketStrategy;
    use kcore_graph::{gen, GraphBuilder};

    fn assert_sandwich(g: &CsrGraph, label: &str) {
        let oracle = sequential_greedy_density(g);
        for strategy in BucketStrategy::ALL {
            let config = Config { bucket_strategy: strategy, techniques: Techniques::default() };
            let got = Decomposition::densest(g).config(config).run().density();
            assert!(
                got <= oracle + 1e-9,
                "{label}/{strategy}: parallel {got} exceeds the finer greedy {oracle}"
            );
            assert!(
                got * 2.0 + 1e-9 >= oracle,
                "{label}/{strategy}: parallel {got} below oracle/2 ({oracle})"
            );
        }
    }

    #[test]
    fn empty_and_trivial() {
        let r = Decomposition::densest(&CsrGraph::empty()).run();
        assert_eq!(r.density(), 0.0);
        assert_eq!(r.num_members(), 0);
        let r = Decomposition::densest(&GraphBuilder::new(4).build()).run();
        assert_eq!(r.density(), 0.0);
        assert_eq!(r.num_members(), 4, "isolated vertices form the (vacuous) 0-core");
    }

    #[test]
    fn clique_is_its_own_densest_subgraph() {
        // planted_core embeds a 50-clique (density ~24.5) in a sparse
        // BA(attach=2) halo whose shells top out around coreness 2-4:
        // the clique core dominates. Ties in the curve resolve to the
        // smallest k with that density, so best_k lands just above the
        // halo, not at the clique's coreness.
        let g = gen::planted_core(300, 2, 50, 21);
        let r = Decomposition::densest(&g).run();
        assert!(r.best_k() >= 3, "best core sits above the BA halo, got k = {}", r.best_k());
        assert!(r.density() >= 15.0, "clique density ~24.5, got {}", r.density());
        assert!(r.num_members() <= 80, "the dense core is small, got {}", r.num_members());
        // The returned subgraph really has that density.
        let members = r.members();
        let mk = g.edges().filter(|&(u, v)| members[u as usize] && members[v as usize]).count();
        assert_eq!(r.density(), mk as f64 / r.num_members() as f64);
    }

    #[test]
    fn density_curve_matches_independent_core_densities() {
        let g = gen::barabasi_albert(400, 3, 13);
        let r = Decomposition::densest(&g).run();
        let coreness = bz_coreness(&g);
        assert_eq!(r.coreness(), coreness.as_slice());
        for (k, &d) in r.densities().iter().enumerate() {
            let members: Vec<bool> = coreness.iter().map(|&c| c as usize >= k).collect();
            let nk = members.iter().filter(|&&m| m).count();
            let mk = g.edges().filter(|&(u, v)| members[u as usize] && members[v as usize]).count();
            let want = if nk == 0 { 0.0 } else { mk as f64 / nk as f64 };
            assert_eq!(d, want, "density of the {k}-core");
        }
        // The membership mask is exactly the best core.
        assert!(r.members().iter().zip(coreness.iter()).all(|(&m, &c)| m == (c >= r.best_k())));
    }

    #[test]
    fn sandwich_against_the_greedy_oracle() {
        assert_sandwich(&gen::barabasi_albert(200, 3, 7), "ba");
        assert_sandwich(&gen::erdos_renyi(150, 450, 3), "er");
        assert_sandwich(&gen::planted_core(150, 2, 30, 9), "planted");
        assert_sandwich(&gen::grid2d(12, 12), "grid");
        assert_sandwich(&gen::hcns(12), "hcns");
    }

    #[test]
    fn densest_is_deterministic() {
        let g = gen::rmat(8, 6, 0.57, 0.19, 0.19, 4);
        let a = Decomposition::densest(&g).run();
        let b = Decomposition::densest(&g).run();
        assert_eq!(a.coreness(), b.coreness());
        assert_eq!(a.best_k(), b.best_k());
        assert_eq!(a.densities(), b.densities());
    }

    #[test]
    fn techniques_do_not_change_the_answer() {
        let g = gen::barabasi_albert(300, 4, 5);
        let want =
            Decomposition::densest(&g).config(Config::with_techniques(Techniques::default())).run();
        for (name, techniques) in [
            (
                "sampling",
                Techniques { sampling: Some(Sampling::default()), ..Techniques::default() },
            ),
            ("vgc", Techniques { vgc: Some(Vgc::default()), ..Techniques::default() }),
            ("all", Techniques::all_online()),
        ] {
            let got = Decomposition::densest(&g).config(Config::with_techniques(techniques)).run();
            assert_eq!(got.best_k(), want.best_k(), "{name}");
            assert_eq!(got.densities(), want.densities(), "{name}");
        }
    }
}
