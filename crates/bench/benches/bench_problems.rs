//! Cross-problem sweep: the same graphs through every peeling problem
//! the engine ships — k-core (vertex peeling), k-truss (edge peeling,
//! two-phase snapshot rule), greedy densest subgraph (min-degree
//! peeling + density curve), (k,h)-core (recompute incidence over
//! h-hop balls), and the batched (2+ε)-approximate densest subgraph
//! (threshold-policy rounds, swept over ε) — under the default
//! adaptive strategy and, for the cheapest graph, the offline driver.
//!
//! This is the engine-generality benchmark: one loop, five element
//! universes / round structures. k-truss is reported in three cuts so
//! the trajectory record can attribute wins: `ktruss` (end-to-end:
//! fused setup + peel), `ktruss-setup` (the fused one-pass
//! orientation + edge index + supports build alone), and `ktruss-peel`
//! (peel over a pre-built [`TriangleCtx`], what
//! `Decomposition::with_ctx` makes possible). A per-kernel ablation
//! (`ktruss-kernel-*`, forced via [`TriangleCtx::build_with_kernel`])
//! runs on the two power-law-ish graphs where kernel choice actually
//! varies. `rmat-s12/ktruss-peel-uncached` peels over a context
//! without the triangle cache, the live-list enumeration a graph past
//! `TRI_CACHE_MAX_PAIRS` runs; every other k-truss entry peels cached.
//! The approx-densest ε sweep is the timing side of the
//! rounds-vs-ε law (`O(log₁₊ε n)` rounds, asserted in
//! `tests/proptest_problems.rs`): larger ε → fewer, fatter rounds.

use criterion::{black_box, criterion_group, Criterion};
use kcore::{Config, Decomposition, Techniques, TriKernel, TriangleCtx};
use kcore_graph::gen;

fn bench_problems(c: &mut Criterion) {
    let graphs = [
        ("ba-3000", gen::barabasi_albert(3000, 4, 42)),
        ("planted-core-1500", gen::planted_core(1500, 3, 70, 42)),
        ("grid2d-60x60", gen::grid2d(60, 60)),
    ];
    let config = Config { collect_stats: false, ..Config::default() };
    for (name, g) in &graphs {
        c.bench_function(&format!("problems/{name}/kcore"), |b| {
            b.iter(|| black_box(Decomposition::kcore(g).exact_config(config).run()))
        });
        c.bench_function(&format!("problems/{name}/densest"), |b| {
            b.iter(|| black_box(Decomposition::densest(g).exact_config(config).run()))
        });
        c.bench_function(&format!("problems/{name}/ktruss"), |b| {
            b.iter(|| black_box(Decomposition::ktruss(g).exact_config(config).run()))
        });
        c.bench_function(&format!("problems/{name}/ktruss-setup"), |b| {
            b.iter(|| black_box(TriangleCtx::build(g)))
        });
        let ctx = TriangleCtx::build(g);
        c.bench_function(&format!("problems/{name}/ktruss-peel"), |b| {
            b.iter(|| black_box(Decomposition::ktruss(g).with_ctx(&ctx).exact_config(config).run()))
        });
        for eps in kcore::SWEPT_EPSILONS {
            c.bench_function(&format!("problems/{name}/approx-densest-eps{eps}"), |b| {
                b.iter(|| {
                    black_box(Decomposition::approx_densest(g, eps).exact_config(config).run())
                })
            });
        }
    }
    // Kernel ablation: end-to-end k-truss (forced-kernel fused setup +
    // peel) on the graphs where pair skew makes the choice matter —
    // the BA power-law graph and the adversarial HCNS construction
    // (one kmax-clique of hubs plus a low-degree chain).
    let ablation = [("ba-3000", &graphs[0].1), ("hcns-150", &gen::hcns(150))];
    for (name, g) in ablation {
        for kernel in [TriKernel::Auto, TriKernel::Merge, TriKernel::Gallop, TriKernel::Bitset] {
            c.bench_function(&format!("problems/{name}/ktruss-kernel-{}", kernel.as_str()), |b| {
                b.iter(|| {
                    let ctx = TriangleCtx::build_with_kernel(g, kernel);
                    black_box(Decomposition::ktruss(g).with_ctx(&ctx).exact_config(config).run())
                })
            });
        }
    }
    // The uncached peel: per-death enumeration over live adjacency.
    let g = gen::rmat(12, 8, 0.57, 0.19, 0.19, 42);
    let mut uncached = TriangleCtx::build(&g);
    uncached.drop_triangle_cache();
    c.bench_function("problems/rmat-s12/ktruss-peel-uncached", |b| {
        b.iter(|| {
            black_box(Decomposition::ktruss(&g).with_ctx(&uncached).exact_config(config).run())
        })
    });
    // (k,h)-core: ball recomputes are the dominant cost (each is
    // O(|ball|) via the epoch-stamped scratch), so keep to the two
    // structured graphs where 2-hop balls stay bounded — BA hubs'
    // balls span the graph and would measure the BFS, not the engine.
    for (name, g) in [&graphs[1], &graphs[2]] {
        c.bench_function(&format!("problems/{name}/khcore-h2"), |b| {
            b.iter(|| black_box(Decomposition::khcore(g, 2).exact_config(config).run()))
        });
    }
    // Offline driver comparison on one representative.
    let (name, g) = &graphs[1];
    let offline =
        Config { collect_stats: false, techniques: Techniques::offline(), ..Config::default() };
    c.bench_function(&format!("problems/{name}/kcore-offline"), |b| {
        b.iter(|| black_box(Decomposition::kcore(g).exact_config(offline).run()))
    });
    c.bench_function(&format!("problems/{name}/ktruss-offline"), |b| {
        b.iter(|| black_box(Decomposition::ktruss(g).exact_config(offline).run()))
    });
}

criterion_group!(benches, bench_problems);
kcore_bench::bench_main!(benches);
