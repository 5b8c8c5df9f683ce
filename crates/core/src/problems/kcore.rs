//! k-core decomposition as a [`PeelProblem`] — the engine's first and
//! reference client.
//!
//! Elements are vertices, the initial priority is the degree, and the
//! incidence relation is the graph's adjacency under unit decrements
//! ([`Incidence::Unit`]): every settled neighbor costs one degree unit,
//! which is precisely the paper's Alg. 1. The settle round of a vertex
//! *is* its coreness, so `assemble` is the identity wrap into
//! [`CorenessResult`]. Every Sec. 4 technique applies: sampling (vertex
//! degrees over edges), VGC chains, and the offline histogram driver.
//!
//! This is the only degree-by-adjacency problem: greedy densest
//! subgraph is this peel plus a density post-pass
//! ([`crate::DensestResult`]), and [`crate::DynamicGraph`] peels it over
//! its overlay graph at construction and on full recomputes.

use crate::peel::engine::{Incidence, PeelProblem};
use crate::CorenessResult;
use kcore_graph::{CsrGraph, GraphBackend};
use kcore_parallel::RunStats;

/// The k-core decomposition problem over one graph, generic over the
/// adjacency backend: plain or mmapped CSR, or the overlay graph that
/// [`crate::DynamicGraph`] peels.
pub(crate) struct KCoreProblem<'g, G = CsrGraph> {
    pub(crate) g: &'g G,
}

impl<G: GraphBackend> PeelProblem for KCoreProblem<'_, G> {
    type Output = CorenessResult;

    fn name(&self) -> &'static str {
        "k-core"
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

    fn assemble(&self, rounds: Vec<u32>, stats: RunStats) -> CorenessResult {
        CorenessResult::new(rounds, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bz::bz_coreness;
    use crate::config::{PeelMode, Sampling, Techniques, Vgc};
    use crate::peel::engine::PeelEngine;
    use crate::{Config, Decomposition};
    use kcore_buckets::BucketStrategy;
    use kcore_graph::{gen, GraphBuilder};
    use kcore_parallel::pool::with_threads;

    /// Technique variants the oracle tests sweep. Sampling uses a low
    /// threshold so sample mode actually engages on test-sized graphs.
    fn technique_variants() -> Vec<(Techniques, &'static str)> {
        let sampling = Some(Sampling::with_threshold(4));
        vec![
            (Techniques::default(), "baseline"),
            (Techniques { sampling, ..Techniques::default() }, "sampling"),
            (Techniques { vgc: Some(Vgc::default()), ..Techniques::default() }, "vgc"),
            (
                Techniques { sampling, vgc: Some(Vgc { chain_limit: 8 }), ..Techniques::default() },
                "sampling+vgc",
            ),
            (Techniques::offline(), "offline"),
        ]
    }

    /// Asserts that every strategy × technique combination agrees with
    /// the BZ oracle on `g`.
    fn assert_matches_oracle(g: &CsrGraph, label: &str) {
        let want = bz_coreness(g);
        for strategy in BucketStrategy::ALL {
            for (techniques, tname) in technique_variants() {
                let config = Config { bucket_strategy: strategy, techniques };
                let got = Decomposition::kcore(g).config(config).run();
                assert_eq!(
                    got.coreness(),
                    want.as_slice(),
                    "{label}: strategy {strategy} + {tname} disagrees with BZ"
                );
            }
        }
    }

    #[test]
    fn empty_graph() {
        let r = Decomposition::kcore(&CsrGraph::empty()).run();
        assert_eq!(r.num_vertices(), 0);
        assert_eq!(r.kmax(), 0);
    }

    #[test]
    fn isolated_vertices_have_coreness_zero() {
        let g = GraphBuilder::new(5).build();
        let r = Decomposition::kcore(&g).run();
        assert_eq!(r.coreness(), &[0; 5]);
        assert_eq!(r.kmax(), 0);
    }

    #[test]
    fn structural_graphs_match_oracle() {
        assert_matches_oracle(&gen::path(40), "path");
        assert_matches_oracle(&gen::cycle(33), "cycle");
        assert_matches_oracle(&gen::star(65), "star");
        assert_matches_oracle(&gen::complete(20), "complete");
        assert_matches_oracle(&gen::complete_bipartite(4, 9), "bipartite");
    }

    #[test]
    fn grid_families_match_oracle() {
        assert_matches_oracle(&gen::grid2d(24, 17), "grid2d");
        assert_matches_oracle(&gen::grid3d(6, 7, 8), "grid3d");
        assert_matches_oracle(&gen::mesh(15, 15), "mesh");
        assert_matches_oracle(&gen::road(20, 20, 0.15, 0.1, 7), "road");
    }

    #[test]
    fn random_families_match_oracle() {
        assert_matches_oracle(&gen::erdos_renyi(300, 900, 3), "erdos_renyi");
        assert_matches_oracle(&gen::barabasi_albert(400, 3, 11), "barabasi_albert");
        assert_matches_oracle(&gen::rmat(9, 8, 0.57, 0.19, 0.19, 5), "rmat");
        assert_matches_oracle(&gen::knn(250, 4, 13), "knn");
        assert_matches_oracle(&gen::planted_core(200, 2, 40, 9), "planted_core");
    }

    #[test]
    fn hcns_exercises_deep_bucket_hierarchies() {
        assert_matches_oracle(&gen::hcns(40), "hcns");
    }

    #[test]
    fn grid_kmax_is_2() {
        let g = gen::grid2d(100, 100);
        let r = Decomposition::kcore(&g).run();
        assert_eq!(r.kmax(), 2);
    }

    #[test]
    fn stats_are_collected_by_default() {
        let g = gen::grid2d(30, 30);
        let r = Decomposition::kcore(&g).run();
        let s = r.stats();
        // Every vertex has coreness 2: keys 0 and 1 are skipped.
        let keys = s.rounds + s.keys_skipped;
        assert!(keys >= 3, "grid peels over keys 0..=2, got {keys}");
        assert!(s.subrounds >= s.rounds);
        assert!(s.work as usize >= g.num_vertices() + g.num_arcs());
        assert!(s.max_frontier > 0);
        assert_eq!(s.subrounds_per_round.len(), s.rounds as usize);
    }

    #[test]
    fn adaptive_switchover_crosses_theta() {
        // planted_core has kmax >= 39 > θ = 16, so Adaptive upgrades to
        // HBS mid-run; the result must be unaffected.
        let g = gen::planted_core(300, 2, 60, 21);
        let adaptive = Decomposition::kcore(&g).run();
        assert_eq!(adaptive.coreness(), bz_coreness(&g).as_slice());
        assert!(adaptive.kmax() >= 16);
    }

    #[test]
    fn peeling_is_deterministic_for_fixed_input() {
        let g = gen::rmat(8, 6, 0.57, 0.19, 0.19, 2);
        let a = Decomposition::kcore(&g).run();
        let b = Decomposition::kcore(&g).run();
        assert_eq!(a.coreness(), b.coreness());
    }

    #[test]
    fn sampling_counters_populate_on_power_law() {
        let g = gen::barabasi_albert(3000, 4, 11);
        let techniques = Techniques {
            sampling: Some(Sampling::with_threshold(16)),
            vgc: Some(Vgc::default()),
            mode: PeelMode::Online,
        };
        let r = Decomposition::kcore(&g).config(Config::with_techniques(techniques)).run();
        assert_eq!(r.coreness(), bz_coreness(&g).as_slice());
        let s = r.stats();
        assert!(s.sampled_vertices > 0, "hubs above the threshold must enter sample mode");
        assert!(s.resamples > 0, "sample-mode vertices are only peeled after exact recounts");
        assert!(s.validate_calls > 0, "end-of-round validation must have run");
        assert!(s.peak_chain >= 1, "subround chains feed peak_chain");
    }

    #[test]
    fn sampling_full_validation_is_exact_under_concurrency() {
        // Hammer concurrent removals that read the sample-mode flag
        // while the gaps flip it: a low threshold samples most of a
        // dense power-law graph.
        for seed in 0..5 {
            let g = gen::barabasi_albert(1200, 6, seed);
            let techniques =
                Techniques { sampling: Some(Sampling::with_threshold(8)), ..Techniques::default() };
            let r = Decomposition::kcore(&g).config(Config::with_techniques(techniques)).run();
            assert_eq!(r.coreness(), bz_coreness(&g).as_slice(), "seed {seed}");
        }
    }

    /// The sampling horizon caps the skip over empty keys. Hub 8 (degree
    /// 13: ten leaves and three members of the 8-clique on 0..8) drops
    /// to true priority 3 once the leaves settle in round 1, but its
    /// stale bucket key stays 13 and no other vertex has key 3. Only the
    /// horizon (its sampled counter, 3 when every edge is sampled) opens
    /// round 3, where validation settles it at its coreness; a skip to
    /// the clique's key 7 would settle it there.
    #[test]
    fn sampling_horizon_opens_the_round_where_a_hub_settles() {
        let mut b = GraphBuilder::new(19);
        for u in 0..8 {
            b = b.edges((u + 1..8).map(|v| (u, v)));
        }
        b = b.edges((0..3).chain(9..19).map(|u| (u, 8)));
        let g = b.build();
        let want = bz_coreness(&g);
        assert_eq!(want[8], 3);
        let base = Sampling::with_threshold(4);
        for strategy in BucketStrategy::ALL {
            for rate_log2 in [0, base.rate_log2] {
                for vgc in [None, Some(Vgc::default())] {
                    let sampling = Some(Sampling { rate_log2, ..base });
                    let techniques = Techniques { sampling, vgc, ..Techniques::default() };
                    let config = Config { bucket_strategy: strategy, techniques };
                    let r = Decomposition::kcore(&g).config(config).run();
                    let label = format!("{strategy}, rate 2^-{rate_log2}, {vgc:?}");
                    assert_eq!(r.coreness(), want.as_slice(), "{label}");
                    if rate_log2 == 0 {
                        // Counters are exact: rounds 1, 3 and 7 open and
                        // keys 0, 2 and 4-6 are skipped.
                        let s = r.stats();
                        assert_eq!((s.rounds, s.keys_skipped), (3, 5), "{label}");
                    }
                }
            }
        }
    }

    #[test]
    fn full_validation_recounts_only_hubs_that_changed_and_could_settle() {
        // Each sampled hub is recounted at most once, over its whole
        // adjacency: about 80 rounds on the planted core, and a BA
        // graph that samples most of its vertices.
        for (g, threshold) in
            [(gen::planted_core(3000, 4, 80, 7), 32), (gen::barabasi_albert(1200, 6, 3), 8)]
        {
            let sampling = Sampling::with_threshold(threshold);
            let techniques = Techniques {
                sampling: Some(sampling),
                vgc: Some(Vgc::default()),
                ..Techniques::default()
            };
            let r = Decomposition::kcore(&g).config(Config::with_techniques(techniques)).run();
            assert_eq!(r.coreness(), bz_coreness(&g).as_slice());
            let s = r.stats();
            let hubs: Vec<u32> = g.degrees().into_iter().filter(|&d| d >= threshold).collect();
            let hub_arcs: u64 = hubs.iter().map(|&d| u64::from(d)).sum();
            assert_eq!(s.sampled_vertices, hubs.len() as u64);
            assert!(s.sampled_vertices > 0, "hubs above the threshold must enter sample mode");
            assert_eq!(s.resamples, s.validate_calls, "validation is the only recount");
            assert!(
                s.validate_calls <= s.sampled_vertices,
                "{} recounts for {} sampled vertices",
                s.validate_calls,
                s.sampled_vertices
            );
            assert!(
                (1..=hub_arcs).contains(&s.recount_arcs),
                "{} recounted arcs, outside 1..={hub_arcs} (the hubs' arcs)",
                s.recount_arcs
            );
        }
    }

    #[test]
    #[should_panic(expected = "Sampling::rate_log2 must be in 0..=63, got 64")]
    fn sampling_rate_beyond_the_hash_width_is_rejected() {
        let g = gen::star(20);
        let sampling = Sampling { rate_log2: 64, ..Sampling::with_threshold(4) };
        let techniques = Techniques { sampling: Some(sampling), ..Techniques::default() };
        Decomposition::kcore(&g).config(Config::with_techniques(techniques)).run();
    }

    #[test]
    fn vgc_collapses_subrounds_on_a_path() {
        // A path peels inward from both ends: without VGC that is ~n/2
        // subrounds of 2 vertices; with VGC one worker chases the whole
        // chain. Run single-threaded for a deterministic chain shape.
        let g = gen::path(400);
        let (plain, chased) = with_threads(1, || {
            let plain = Config::with_techniques(Techniques::default());
            let plain = Decomposition::kcore(&g).config(plain).run();
            let vgc = Techniques { vgc: Some(Vgc { chain_limit: 1000 }), ..Techniques::default() };
            let chased = Decomposition::kcore(&g).config(Config::with_techniques(vgc)).run();
            (plain, chased)
        });
        assert_eq!(plain.coreness(), chased.coreness());
        let (ps, cs) = (plain.stats(), chased.stats());
        assert!(
            cs.subrounds < ps.subrounds / 4,
            "VGC must collapse subrounds: {} vs {}",
            cs.subrounds,
            ps.subrounds
        );
        assert!(cs.peak_chain > 8, "long chains must be recorded, got {}", cs.peak_chain);
        assert!(cs.burdened_span < ps.burdened_span, "fewer syncs must shrink the burdened span");
    }

    #[test]
    fn default_config_chases_chains_on_a_road_graph() {
        // The default is VGC on: it must stay BZ-exact and collapse the
        // tiny subrounds of the plain framework, within the chain bound.
        // (The path case is `vgc_collapses_subrounds_on_a_path`.)
        let g = gen::road(40, 40, 0.1, 0.1, 3);
        let chased = Decomposition::kcore(&g).config(Config::default()).run();
        let plain = Config::with_techniques(Techniques::default());
        let baseline = Decomposition::kcore(&g).config(plain).run();
        assert_eq!(chased.coreness(), bz_coreness(&g).as_slice());
        let (cs, ps) = (chased.stats(), baseline.stats());
        assert!(
            cs.subrounds < ps.subrounds,
            "the default must run fewer subrounds than plain: {} vs {}",
            cs.subrounds,
            ps.subrounds
        );
        let limit = u64::from(Vgc::default().chain_limit);
        assert!(0 < cs.peak_chain && cs.peak_chain <= limit, "chain {}", cs.peak_chain);
    }

    #[test]
    fn vgc_chain_limit_bounds_the_chain() {
        let g = gen::path(400);
        let vgc = Techniques { vgc: Some(Vgc { chain_limit: 10 }), ..Techniques::default() };
        let r =
            with_threads(1, || Decomposition::kcore(&g).config(Config::with_techniques(vgc)).run());
        assert_eq!(r.coreness(), bz_coreness(&g).as_slice());
        assert!(r.stats().peak_chain <= 10, "chain {} exceeds limit", r.stats().peak_chain);
    }

    #[test]
    fn offline_charges_more_syncs_per_subround() {
        let g = gen::mesh(20, 20);
        let online = Config::with_techniques(Techniques::default());
        let online = Decomposition::kcore(&g).config(online).run();
        let offline =
            Decomposition::kcore(&g).config(Config::with_techniques(Techniques::offline())).run();
        assert_eq!(online.coreness(), offline.coreness());
        let (on, off) = (online.stats(), offline.stats());
        assert_eq!(on.global_syncs, on.subrounds);
        assert_eq!(off.global_syncs, 3 * off.subrounds, "gather + histogram + apply");
        assert!(off.burdened_span > on.burdened_span);
    }

    #[test]
    fn kcore_members_agree_with_coreness() {
        for (label, g) in [
            ("ba", gen::barabasi_albert(500, 3, 7)),
            ("mesh", gen::mesh(20, 20)),
            ("hcns", gen::hcns(30)),
        ] {
            let coreness = Decomposition::kcore(&g).run();
            for k in [0, 1, 2, 3, 5, coreness.kmax(), coreness.kmax() + 1] {
                let members = Decomposition::kcore(&g).members(k);
                let want: Vec<bool> = coreness.coreness().iter().map(|&c| c >= k).collect();
                assert_eq!(members, want, "{label}: {k}-core membership");
            }
        }
    }

    #[test]
    fn engine_is_reusable_through_the_generic_entry_point() {
        // Drive the engine directly (as a new problem's author would)
        // and check it matches the facade.
        let g = gen::barabasi_albert(400, 3, 5);
        let via_facade = Decomposition::kcore(&g).config(Config::default()).run();
        let problem = KCoreProblem { g: &g };
        let via_engine = PeelEngine::new(&problem, Config::default()).run();
        assert_eq!(via_facade.coreness(), via_engine.coreness());
    }
}
