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
//! `Decomposition::with_ctx` makes possible). `rmat-s12/ktruss-peel`
//! adds a larger power-law peel over a pre-built context. Every k-truss entry peels on the same live
//! adjacency lists.
//! The approx-densest ε sweep is the timing side of the
//! rounds-vs-ε law (`O(log₁₊ε n)` rounds, asserted in
//! `tests/proptest_problems.rs`): larger ε → fewer, fatter rounds.

use criterion::{black_box, criterion_group, Criterion};
use kcore::{Config, Decomposition, Techniques, TriangleCtx};
use kcore_graph::gen;

fn bench_problems(c: &mut Criterion) {
    let graphs = [
        ("ba-3000", gen::barabasi_albert(3000, 4, 42)),
        ("planted-core-1500", gen::planted_core(1500, 3, 70, 42)),
        ("grid2d-60x60", gen::grid2d(60, 60)),
    ];
    let config = Config::default();
    for (name, g) in &graphs {
        c.bench_function(&format!("problems/{name}/kcore"), |b| {
            b.iter(|| black_box(Decomposition::kcore(g).config(config).run()))
        });
        c.bench_function(&format!("problems/{name}/densest"), |b| {
            b.iter(|| black_box(Decomposition::densest(g).config(config).run()))
        });
        c.bench_function(&format!("problems/{name}/ktruss"), |b| {
            b.iter(|| black_box(Decomposition::ktruss(g).config(config).run()))
        });
        c.bench_function(&format!("problems/{name}/ktruss-setup"), |b| {
            b.iter(|| black_box(TriangleCtx::build(g)))
        });
        let ctx = TriangleCtx::build(g);
        c.bench_function(&format!("problems/{name}/ktruss-peel"), |b| {
            b.iter(|| black_box(Decomposition::ktruss(g).with_ctx(&ctx).config(config).run()))
        });
        for eps in kcore::SWEPT_EPSILONS {
            c.bench_function(&format!("problems/{name}/approx-densest-eps{eps}"), |b| {
                b.iter(|| black_box(Decomposition::approx_densest(g, eps).config(config).run()))
            });
        }
    }
    // A larger power-law peel: per-death enumeration over live
    // adjacency, with the hub lists compacting as they thin out.
    let g = gen::rmat(12, 8, 0.57, 0.19, 0.19, 42);
    let ctx = TriangleCtx::build(&g);
    c.bench_function("problems/rmat-s12/ktruss-peel", |b| {
        b.iter(|| black_box(Decomposition::ktruss(&g).with_ctx(&ctx).config(config).run()))
    });
    // (k,h)-core: ball recomputes are the dominant cost (each is
    // O(|ball|) via the epoch-stamped scratch), so keep to the two
    // structured graphs where 2-hop balls stay bounded — BA hubs'
    // balls span the graph and would measure the BFS, not the engine.
    for (name, g) in [&graphs[1], &graphs[2]] {
        c.bench_function(&format!("problems/{name}/khcore-h2"), |b| {
            b.iter(|| black_box(Decomposition::khcore(g, 2).config(config).run()))
        });
    }
    // Offline driver comparison on one representative.
    let (name, g) = &graphs[1];
    let offline = Config::with_techniques(Techniques::offline());
    c.bench_function(&format!("problems/{name}/kcore-offline"), |b| {
        b.iter(|| black_box(Decomposition::kcore(g).config(offline).run()))
    });
}

criterion_group!(benches, bench_problems);
kcore_bench::bench_main!(benches);
