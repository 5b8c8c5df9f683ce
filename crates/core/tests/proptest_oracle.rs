//! Property-based correctness: on arbitrary graphs, every parallel
//! peeling configuration — the full (bucket strategy × sampling × VGC)
//! matrix — must agree vertex-for-vertex with the
//! sequential Batagelj–Zaveršnik oracle, and the coreness array must
//! satisfy the defining k-core property.

use kcore::bz::bz_coreness;
use kcore::{BucketStrategy, Config, Decomposition, Sampling, Techniques, Vgc};
use kcore_graph::{gen, CsrGraph, GraphBuilder};
use proptest::prelude::*;

/// The techniques axes: sampling × VGC off/on.
/// Sampling uses a low threshold (test graphs are small) and runs three
/// ways: the default rate, every edge sampled (the sampled counter then
/// equals the live priority, so the lower-bound skip is tight), and a
/// coarse rate whose counters start below the trigger watermark, so
/// mid-round recounts fire only when a counter bottoms out at zero. A
/// short VGC chain bound forces the spill path to execute too.
fn all_techniques() -> Vec<Techniques> {
    let base = Sampling::with_threshold(4);
    let samplings = [
        None,
        Some(base),
        Some(Sampling { rate_log2: 0, ..base }),
        Some(Sampling { rate_log2: 3, ..base }),
    ];
    let mut out = Vec::new();
    for sampling in samplings {
        for vgc in [None, Some(Vgc { chain_limit: 6 })] {
            out.push(Techniques { sampling, vgc });
        }
    }
    out
}

fn assert_all_configs_match(g: &CsrGraph) {
    let want = bz_coreness(g);
    for strategy in BucketStrategy::ALL {
        for techniques in all_techniques() {
            let config = Config { bucket_strategy: strategy, techniques };
            let got = Decomposition::kcore(g).config(config).run();
            prop_assert_eq!(
                got.coreness(),
                want.as_slice(),
                "strategy {} + techniques {:?} disagrees with BZ oracle",
                strategy,
                techniques
            );
        }
    }
}

/// Arbitrary messy edge list: duplicates and self-loops allowed.
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (2usize..48).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        (Just(n), proptest::collection::vec(edge, 0..192))
            .prop_map(|(n, edges)| GraphBuilder::new(n).edges(edges).build())
    })
}

proptest! {
    #[test]
    fn arbitrary_graphs_match_oracle(g in arb_graph()) {
        assert_all_configs_match(&g);
    }

    #[test]
    fn erdos_renyi_matches_oracle(n in 2usize..120, m in 0usize..400, seed in any::<u64>()) {
        let g = gen::erdos_renyi(n, m, seed);
        assert_all_configs_match(&g);
    }

    #[test]
    fn power_law_matches_oracle(n in 10usize..150, attach in 1usize..4, seed in any::<u64>()) {
        let g = gen::barabasi_albert(n.max(attach + 2), attach, seed);
        assert_all_configs_match(&g);
    }

    #[test]
    fn hcns_matches_oracle(kmax in 2usize..40) {
        // Exercises deep bucket hierarchies: one vertex per coreness
        // level plus a (kmax + 1)-clique.
        assert_all_configs_match(&gen::hcns(kmax));
    }

    #[test]
    fn planted_core_matches_oracle(
        n in 20usize..160,
        attach in 1usize..4,
        core in 5usize..40,
        seed in any::<u64>(),
    ) {
        // A clique far above the background's coreness leaves a wide
        // range of empty keys. Its members enter sample mode at the
        // test threshold, so skipping past that range must stop at the
        // sampling horizon.
        let n = n.max(core).max(attach + 2);
        assert_all_configs_match(&gen::planted_core(n, attach, core, seed));
    }

    #[test]
    fn grid_families_match_oracle(rows in 2usize..14, cols in 2usize..14, seed in any::<u64>()) {
        assert_all_configs_match(&gen::grid2d(rows, cols));
        assert_all_configs_match(&gen::road(rows, cols, 0.2, 0.1, seed));
    }

    #[test]
    fn knn_matches_oracle(n in 8usize..120, k in 1usize..5, seed in any::<u64>()) {
        assert_all_configs_match(&gen::knn(n, k, seed));
    }

    #[test]
    fn kcore_membership_agrees_with_coreness(g in arb_graph(), k in 0u32..8) {
        let coreness = Decomposition::kcore(&g).run();
        let members = Decomposition::kcore(&g).members(k);
        let want: Vec<bool> = coreness.coreness().iter().map(|&c| c >= k).collect();
        prop_assert_eq!(members, want);
    }

    #[test]
    fn coreness_satisfies_the_core_property(g in arb_graph()) {
        // Defining property: within the subgraph induced by vertices of
        // coreness >= c(v), v has degree >= c(v); and no vertex's
        // coreness exceeds its degree.
        let result = Decomposition::kcore(&g).run();
        let coreness = result.coreness();
        for v in g.vertices() {
            let c = coreness[v as usize];
            prop_assert!(c as usize <= g.degree(v));
            let within = g
                .neighbors(v)
                .iter()
                .filter(|&&u| coreness[u as usize] >= c)
                .count();
            prop_assert!(
                within >= c as usize,
                "vertex {} has only {} neighbors in its own {}-core",
                v,
                within,
                c
            );
        }
    }

    #[test]
    fn kmax_is_bounded_by_max_degree(g in arb_graph()) {
        let result = Decomposition::kcore(&g).run();
        prop_assert!(result.kmax() as usize <= g.max_degree());
        prop_assert_eq!(result.num_vertices(), g.num_vertices());
    }
}
