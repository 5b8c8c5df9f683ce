//! Property-based correctness for the non-k-core peel problems, plus
//! the engine-refactor regression guard.
//!
//! * **k-truss** must agree edge-for-edge with a sequential
//!   triangle-recount peeler (no incremental support bookkeeping to
//!   mirror a parallel bug) across every bucket strategy and both
//!   drivers.
//! * **densest subgraph** must produce exactly the k-core density
//!   curve, and its best density must sandwich against the sequential
//!   one-vertex-at-a-time greedy: `oracle / 2 <= parallel <= oracle`.
//! * **k-core on the engine** must stay bit-identical to the
//!   Batagelj–Zaveršnik oracle (the pre-refactor implementation was
//!   verified against BZ on exactly these families, so BZ equality is
//!   the bit-compatibility witness), and the `RoundPolicy::MinBucket`
//!   runs of k-core/k-truss/densest must reproduce the PR 4 run-stats
//!   snapshot exactly (the policy refactor may not perturb the
//!   historical round structure).
//! * **(k,h)-core** must agree vertex-for-vertex with its sequential
//!   ball-recount oracle across every bucket strategy.
//! * **approx densest** must satisfy the (2+ε) sandwich
//!   `oracle/(2+ε) <= parallel <= oracle` for every swept ε.
//!
//! Every run uses exactly the config it passes. The densest sweep
//! includes a sampling leg with a threshold low enough for these small
//! graphs, and a fixed-graph test per sampling problem (k-core,
//! densest) checks that this leg really puts vertices in sample mode.

use kcore::bz::bz_coreness;
use kcore::{
    sequential_greedy_density, sequential_kh_coreness, sequential_trussness, BucketStrategy,
    Config, Decomposition, Sampling, Techniques,
};
use kcore_graph::{gen, CsrGraph, GraphBuilder};
use proptest::prelude::*;

/// The paper's full online design (sampling + VGC) with a degree
/// threshold of 4: the default threshold (128) is beyond every degree
/// of these graphs (fewer than 32 vertices), so it would sample nothing.
fn low_threshold_sampling() -> Techniques {
    Techniques { sampling: Some(Sampling::with_threshold(4)), ..Techniques::all_online() }
}

/// Strategy × {plain, low-threshold sampling + VGC} sweep.
fn all_configs() -> Vec<Config> {
    let mut out = Vec::new();
    for strategy in BucketStrategy::ALL {
        for techniques in [Techniques::default(), low_threshold_sampling()] {
            out.push(Config { bucket_strategy: strategy, techniques });
        }
    }
    out
}

/// Arbitrary messy edge list: duplicates and self-loops allowed. Kept
/// small enough for the quadratic-ish truss recount oracle.
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (2usize..32).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        (Just(n), proptest::collection::vec(edge, 0..120))
            .prop_map(|(n, edges)| GraphBuilder::new(n).edges(edges).build())
    })
}

/// Every strategy; edge peeling ignores the techniques block, so the
/// sampling leg of [`all_configs`] would repeat the plain one.
fn assert_truss_matches_oracle(g: &CsrGraph) {
    let want = sequential_trussness(g);
    for strategy in BucketStrategy::ALL {
        let got = Decomposition::ktruss(g).config(Config::with_strategy(strategy)).run();
        assert_eq!(
            got.trussness(),
            want.as_slice(),
            "strategy {strategy} disagrees with the recount oracle"
        );
    }
}

fn assert_densest_sandwich(g: &CsrGraph) {
    let oracle = sequential_greedy_density(g);
    let coreness = bz_coreness(g);
    for config in all_configs() {
        let r = Decomposition::densest(g).config(config).run();
        let got = r.density();
        assert!(got <= oracle + 1e-9, "parallel {got} exceeds the finer greedy {oracle}");
        assert!(got * 2.0 + 1e-9 >= oracle, "parallel {got} below oracle/2 ({oracle})");
        // The curve is exactly the k-core densities.
        for (k, &d) in r.densities().iter().enumerate() {
            let nk = coreness.iter().filter(|&&c| c as usize >= k).count();
            let mk = g
                .edges()
                .filter(|&(u, v)| {
                    coreness[u as usize] as usize >= k && coreness[v as usize] as usize >= k
                })
                .count();
            let want = if nk == 0 { 0.0 } else { mk as f64 / nk as f64 };
            assert_eq!(d, want, "density of the {k}-core under {}", config.bucket_strategy);
        }
    }
}

/// The ε values the approx-densest sweep runs everywhere (tests and
/// benches alike) — one shared list, see its definition.
const EPSILONS: [f64; 3] = kcore::SWEPT_EPSILONS;

fn assert_khcore_matches_oracle(g: &CsrGraph, h: u32) {
    let want = sequential_kh_coreness(g, h);
    for strategy in BucketStrategy::ALL {
        let got = Decomposition::khcore(g, h).strategy(strategy).run();
        assert_eq!(
            got.kh_coreness(),
            want.as_slice(),
            "(k,{h})-core under {strategy} disagrees with the ball-recount oracle"
        );
    }
}

fn assert_approx_densest_sandwich(g: &CsrGraph) {
    let oracle = sequential_greedy_density(g);
    for eps in EPSILONS {
        for strategy in BucketStrategy::ALL {
            let r = Decomposition::approx_densest(g, eps).strategy(strategy).run();
            let got = r.density();
            assert!(
                got <= oracle + 1e-9,
                "{strategy}/eps {eps}: parallel {got} exceeds the finer greedy {oracle}"
            );
            assert!(
                got * (2.0 + eps) + 1e-9 >= oracle,
                "{strategy}/eps {eps}: parallel {got} below oracle/(2+eps) ({oracle})"
            );
        }
    }
}

proptest! {
    #[test]
    fn ktruss_matches_recount_oracle(g in arb_graph()) {
        assert_truss_matches_oracle(&g);
    }

    #[test]
    fn ktruss_on_powerlaw_matches_oracle(n in 10usize..60, seed in any::<u64>()) {
        assert_truss_matches_oracle(&gen::barabasi_albert(n, 3.min(n - 1), seed));
    }

    #[test]
    fn densest_sandwich_on_arbitrary_graphs(g in arb_graph()) {
        assert_densest_sandwich(&g);
    }

    #[test]
    fn densest_sandwich_on_powerlaw(n in 10usize..80, seed in any::<u64>()) {
        assert_densest_sandwich(&gen::barabasi_albert(n, 2.min(n - 1), seed));
    }

    #[test]
    fn khcore_matches_ball_recount_oracle(g in arb_graph(), h in 1u32..4) {
        assert_khcore_matches_oracle(&g, h);
    }

    #[test]
    fn khcore_on_powerlaw_matches_oracle(n in 10usize..40, seed in any::<u64>()) {
        assert_khcore_matches_oracle(&gen::barabasi_albert(n, 2.min(n - 1), seed), 2);
    }

    #[test]
    fn approx_densest_sandwich_on_arbitrary_graphs(g in arb_graph()) {
        assert_approx_densest_sandwich(&g);
    }

    #[test]
    fn approx_densest_sandwich_on_powerlaw(n in 10usize..80, seed in any::<u64>()) {
        assert_approx_densest_sandwich(&gen::barabasi_albert(n, 2.min(n - 1), seed));
    }

    #[test]
    fn approx_densest_rounds_shrink_with_epsilon(n in 50usize..200, seed in any::<u64>()) {
        let g = gen::barabasi_albert(n, 3.min(n - 1), seed);
        let rounds: Vec<u64> = EPSILONS
            .iter()
            .map(|&eps| Decomposition::approx_densest(&g, eps).run().num_rounds())
            .collect();
        prop_assert!(
            rounds.windows(2).all(|w| w[1] <= w[0]),
            "rounds must shrink as eps grows: {:?}", rounds
        );
        for (&eps, &r) in EPSILONS.iter().zip(&rounds) {
            let bound = (n as f64).ln() / (1.0 + eps / 2.0).ln() + 2.0;
            prop_assert!(
                (r as f64) <= bound,
                "eps {}: {} rounds exceeds the O(log n / log(1+eps/2)) bound {:.1}", eps, r, bound
            );
        }
    }

    #[test]
    fn trussness_is_bounded_by_coreness_plus_one(g in arb_graph()) {
        // Classical containment: the k-truss is a subgraph of the
        // (k-1)-core, so t(e) <= min(core(u), core(v)) + 1 for e={u,v}.
        let truss = Decomposition::ktruss(&g).run();
        let coreness = bz_coreness(&g);
        for ((u, v), t) in truss.edges() {
            let bound = coreness[u as usize].min(coreness[v as usize]) + 1;
            prop_assert!(
                t <= bound,
                "edge ({u},{v}): trussness {t} exceeds coreness bound {bound}"
            );
        }
    }
}

/// The sampling leg of [`all_configs`] must sample on graphs of the
/// sweep's size: a 30-vertex power-law graph puts vertices in sample
/// mode and still peels to the oracle's coreness.
#[test]
fn kcore_low_threshold_sampling_samples() {
    let g = gen::barabasi_albert(30, 3, 7);
    let r =
        Decomposition::kcore(&g).config(Config::with_techniques(low_threshold_sampling())).run();
    assert_eq!(r.coreness(), bz_coreness(&g).as_slice());
    assert!(r.stats().sampled_vertices > 0, "no vertex sampled: {:?}", r.stats());
}

/// As [`kcore_low_threshold_sampling_samples`], for the densest
/// subgraph's peel.
#[test]
fn densest_low_threshold_sampling_samples() {
    let g = gen::barabasi_albert(30, 3, 7);
    let config = Config::with_techniques(low_threshold_sampling());
    let r = Decomposition::densest(&g).config(config).run();
    assert_eq!(r.coreness(), bz_coreness(&g).as_slice());
    assert!(r.stats().sampled_vertices > 0, "no vertex sampled: {:?}", r.stats());
}

/// The engine-refactor regression guard: `PeelEngine`-based k-core must
/// be bit-identical to the pre-refactor coreness on the seed
/// generators, for every strategy. BZ is the witness (the pre-refactor
/// implementation matched it on these exact inputs).
#[test]
fn engine_kcore_bit_identical_on_seed_generators() {
    let graphs: Vec<(&str, CsrGraph)> = vec![
        ("path", gen::path(40)),
        ("cycle", gen::cycle(33)),
        ("star", gen::star(65)),
        ("complete", gen::complete(20)),
        ("bipartite", gen::complete_bipartite(4, 9)),
        ("grid2d", gen::grid2d(24, 17)),
        ("grid3d", gen::grid3d(6, 7, 8)),
        ("mesh", gen::mesh(15, 15)),
        ("road", gen::road(20, 20, 0.15, 0.1, 7)),
        ("erdos_renyi", gen::erdos_renyi(300, 900, 3)),
        ("barabasi_albert", gen::barabasi_albert(400, 3, 11)),
        ("rmat", gen::rmat(9, 8, 0.57, 0.19, 0.19, 5)),
        ("knn", gen::knn(250, 4, 13)),
        ("planted_core", gen::planted_core(200, 2, 40, 9)),
        ("hcns", gen::hcns(40)),
    ];
    for (label, g) in &graphs {
        let want = bz_coreness(g);
        for strategy in BucketStrategy::ALL {
            let got = Decomposition::kcore(g).strategy(strategy).run();
            assert_eq!(got.coreness(), want.as_slice(), "{label} under {strategy}");
        }
    }
}

/// Run-stats snapshot for the seed generators under the
/// technique-free config (`Techniques::default()`): per problem,
/// `[rounds, subrounds, global_syncs, work, max_frontier, burdened_span]`.
/// The engine then opened a round at every integer key; it now skips
/// keys with no live element, so slot 0 is compared against
/// `rounds + keys_skipped`, which counts the same keys.
/// Captured from the pre-`RoundPolicy` engine (commit 25f2ef3), where
/// these quantities were verified deterministic across
/// `RAYON_NUM_THREADS` ∈ {1, 4}; the Single and Adaptive strategies
/// produce identical stats on every one of these inputs. The k-truss
/// peel counts only the edges that lie in a triangle, so a
/// triangle-free graph's k-truss row is all zeros.
const PR4_STATS: &[(&str, [[u64; 6]; 3])] = &[
    ("path", [[2, 20, 20, 118, 2, 300020], [2, 20, 20, 118, 2, 300020], [0, 0, 0, 0, 0, 0]]),
    ("cycle", [[3, 1, 1, 99, 33, 15001], [3, 1, 1, 99, 33, 15001], [0, 0, 0, 0, 0, 0]]),
    ("star", [[2, 2, 2, 193, 64, 30002], [2, 2, 2, 193, 64, 30002], [0, 0, 0, 0, 0, 0]]),
    (
        "complete",
        [[20, 1, 1, 400, 20, 15001], [20, 1, 1, 400, 20, 15001], [19, 1, 2, 190, 190, 30001]],
    ),
    ("bipartite", [[5, 2, 2, 85, 9, 30002], [5, 2, 2, 85, 9, 30002], [0, 0, 0, 0, 0, 0]]),
    ("grid2d", [[3, 20, 20, 1958, 34, 300020], [3, 20, 20, 1958, 34, 300020], [0, 0, 0, 0, 0, 0]]),
    ("grid3d", [[4, 9, 9, 2060, 72, 135009], [4, 9, 9, 2060, 72, 135009], [0, 0, 0, 0, 0, 0]]),
    (
        "mesh",
        [
            [4, 14, 14, 1457, 32, 210014],
            [4, 14, 14, 1457, 32, 210014],
            [2, 14, 28, 1400, 80, 420014],
        ],
    ),
    (
        "road",
        [[3, 15, 15, 1740, 65, 225015], [3, 15, 15, 1740, 65, 225015], [2, 2, 4, 164, 104, 60002]],
    ),
    (
        "erdos_renyi",
        [[5, 15, 15, 2080, 49, 225015], [5, 15, 15, 2080, 49, 225015], [2, 2, 4, 118, 106, 60002]],
    ),
    (
        "barabasi_albert",
        [
            [4, 15, 15, 2788, 150, 225015],
            [4, 15, 15, 2788, 150, 225015],
            [3, 6, 12, 626, 254, 180006],
        ],
    ),
    (
        "rmat",
        [
            [21, 47, 47, 6140, 87, 705047],
            [21, 47, 47, 6140, 87, 705047],
            [13, 73, 146, 17579, 268, 2190073],
        ],
    ),
    (
        "knn",
        [[5, 4, 4, 1478, 107, 60004], [5, 4, 4, 1478, 107, 60004], [4, 8, 16, 958, 171, 240008]],
    ),
    (
        "planted_core",
        [
            [40, 16, 16, 2534, 83, 240016],
            [40, 16, 16, 2534, 83, 240016],
            [39, 8, 16, 1120, 780, 240008],
        ],
    ),
    (
        "hcns",
        [
            [41, 40, 40, 3280, 41, 600040],
            [41, 40, 40, 3280, 41, 600040],
            [40, 39, 78, 11479, 820, 1170039],
        ],
    ),
];

fn seed_graph(label: &str) -> CsrGraph {
    match label {
        "path" => gen::path(40),
        "cycle" => gen::cycle(33),
        "star" => gen::star(65),
        "complete" => gen::complete(20),
        "bipartite" => gen::complete_bipartite(4, 9),
        "grid2d" => gen::grid2d(24, 17),
        "grid3d" => gen::grid3d(6, 7, 8),
        "mesh" => gen::mesh(15, 15),
        "road" => gen::road(20, 20, 0.15, 0.1, 7),
        "erdos_renyi" => gen::erdos_renyi(300, 900, 3),
        "barabasi_albert" => gen::barabasi_albert(400, 3, 11),
        "rmat" => gen::rmat(9, 8, 0.57, 0.19, 0.19, 5),
        "knn" => gen::knn(250, 4, 13),
        "planted_core" => gen::planted_core(200, 2, 40, 9),
        "hcns" => gen::hcns(40),
        other => panic!("unknown seed generator {other}"),
    }
}

/// The stats half of the bit-identity guard: under
/// `RoundPolicy::MinBucket` (every problem's default), the refactored
/// engine must reproduce the PR 4 round structure *exactly* — rounds,
/// subrounds, syncs, work, frontier peaks, and burdened span — for
/// k-core, densest-subgraph, and k-truss on the seed generators.
/// The snapshot describes the technique-free baseline, so the config
/// asks for it with `Techniques::default()`.
#[test]
fn minbucket_stats_match_the_pr4_snapshot() {
    for strategy in [BucketStrategy::Single, BucketStrategy::Adaptive] {
        for (label, want) in PR4_STATS {
            let g = seed_graph(label);
            let config = Config { bucket_strategy: strategy, techniques: Techniques::default() };
            let kc = Decomposition::kcore(&g).config(config).run();
            let de = Decomposition::densest(&g).config(config).run();
            let kt = Decomposition::ktruss(&g).config(config).run();
            for (name, stats, snap) in [
                ("k-core", kc.stats(), &want[0]),
                ("densest", de.stats(), &want[1]),
                ("k-truss", kt.stats(), &want[2]),
            ] {
                let got = [
                    stats.rounds + stats.keys_skipped,
                    stats.subrounds,
                    stats.global_syncs,
                    stats.work,
                    stats.max_frontier as u64,
                    stats.burdened_span,
                ];
                assert_eq!(
                    &got, snap,
                    "{label}/{name} under {strategy}: stats drifted from the PR 4 snapshot"
                );
            }
        }
    }
}

/// Run-stats snapshot for the peel drivers [`PR4_STATS`] leaves
/// unpinned, on the same seed generators and under the same
/// technique-free baseline: per generator,
/// `[rounds, subrounds, global_syncs, work, max_frontier, burdened_span]`
/// for (k,h)-core with `h = 2` (recompute step) and approx densest with
/// `ε = 0.5` (threshold frontier source). As in [`PR4_STATS`], slot 0
/// holds `rounds + keys_skipped` (threshold rounds skip no keys).
const DRIVER_STATS: &[(&str, [[u64; 6]; 2])] = &[
    ("path", [[3, 20, 40, 114, 2, 600020], [1, 1, 1, 118, 40, 15001]]),
    ("cycle", [[5, 1, 2, 33, 33, 30001], [1, 1, 1, 99, 33, 15001]]),
    ("star", [[65, 1, 2, 65, 65, 30001], [1, 2, 2, 193, 64, 30002]]),
    ("complete", [[20, 1, 2, 20, 20, 30001], [1, 1, 1, 400, 20, 15001]]),
    ("bipartite", [[13, 1, 2, 13, 13, 30001], [1, 2, 2, 85, 9, 30002]]),
    ("grid2d", [[7, 25, 50, 1744, 26, 750025], [1, 1, 1, 1958, 408, 15001]]),
    ("grid3d", [[12, 14, 28, 1488, 52, 420014], [1, 1, 1, 2060, 336, 15001]]),
    ("mesh", [[12, 19, 38, 1199, 20, 570019], [1, 2, 2, 1457, 140, 30002]]),
    ("road", [[7, 35, 70, 1578, 32, 1050035], [1, 2, 2, 1740, 371, 30002]]),
    ("erdos_renyi", [[25, 49, 98, 2924, 63, 1470049], [1, 3, 3, 2080, 224, 45003]]),
    ("barabasi_albert", [[68, 93, 186, 6303, 68, 2790093], [1, 3, 3, 2788, 336, 45003]]),
    ("rmat", [[208, 141, 282, 16645, 208, 4230141], [2, 7, 7, 6140, 393, 105007]]),
    ("knn", [[10, 40, 80, 888, 18, 1200040], [1, 2, 2, 1478, 229, 30002]]),
    ("planted_core", [[57, 59, 118, 2367, 57, 1770059], [2, 3, 3, 2534, 155, 45003]]),
    ("hcns", [[80, 1, 2, 80, 80, 30001], [1, 2, 2, 3280, 51, 30002]]),
];

/// The stats half of the single-loop guard for the recompute and
/// threshold paths: both must keep their round structure exactly. They
/// pin the plain framework (`Techniques::default()`).
#[test]
fn khcore_and_approx_densest_stats_are_pinned() {
    let plain = Config::with_techniques(Techniques::default());
    for (label, want) in DRIVER_STATS {
        let g = seed_graph(label);
        let kh = Decomposition::khcore(&g, 2).config(plain).run();
        let ad = Decomposition::approx_densest(&g, 0.5).config(plain).run();
        for (name, stats, snap) in
            [("khcore-h2", kh.stats(), &want[0]), ("approx-densest-0.5", ad.stats(), &want[1])]
        {
            let got = [
                stats.rounds + stats.keys_skipped,
                stats.subrounds,
                stats.global_syncs,
                stats.work,
                stats.max_frontier as u64,
                stats.burdened_span,
            ];
            assert_eq!(&got, snap, "{label}/{name}: stats drifted from the snapshot");
        }
    }
}

/// Min-bucket rounds open only at keys that hold a live element: under
/// the default config, k-core opens one round per distinct coreness
/// value and k-truss one per distinct trussness value among the edges
/// it peels (those in a triangle, trussness >= 3, so its key 0 is
/// skipped), and the skipped keys make up the rest of `0..=` the last
/// round's key. The planted clique leaves a wide gap of empty keys
/// below its own.
#[test]
fn min_bucket_rounds_match_the_distinct_settle_keys() {
    let g = gen::planted_core(400, 2, 60, 5);
    let kc = Decomposition::kcore(&g).config(Config::default()).run();
    let kt = Decomposition::ktruss(&g).config(Config::default()).run();
    // Trussness is the settle key plus 2; k-truss peels keys from 1.
    for (name, values, offset, first_key, stats) in
        [("k-core", kc.coreness(), 0, 0, kc.stats()), ("k-truss", kt.trussness(), 2, 1, kt.stats())]
    {
        let mut keys: Vec<u32> =
            values.iter().map(|&v| v - offset).filter(|&k| k >= first_key).collect();
        keys.sort_unstable();
        keys.dedup();
        let last = u64::from(*keys.last().unwrap());
        assert_eq!(stats.rounds, keys.len() as u64, "{name}: one round per distinct key {keys:?}");
        assert_eq!(
            stats.rounds + stats.keys_skipped,
            last + 1,
            "{name}: every key opened or skipped"
        );
        assert!(stats.keys_skipped > 50, "{name}: the clique's gap must be skipped, {stats:?}");
    }
}

/// The three problems agree on their shared structure: the densest
/// run's coreness equals k-core's, and trussness respects it.
#[test]
fn problems_are_mutually_consistent() {
    let g = gen::planted_core(200, 2, 30, 17);
    let core = Decomposition::kcore(&g).run();
    let densest = Decomposition::densest(&g).run();
    assert_eq!(core.coreness(), densest.coreness());
    let truss = Decomposition::ktruss(&g).run();
    assert_eq!(truss.num_edges(), g.num_edges());
    assert!(truss.max_trussness() <= core.kmax() + 1);
}
