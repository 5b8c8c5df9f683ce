//! Cross-problem sweep: the same graphs through every peeling problem
//! the engine ships — k-core (vertex peeling), k-truss (edge peeling,
//! two-phase snapshot rule) and greedy densest subgraph (min-degree
//! peeling + density curve) — under the default adaptive strategy.
//!
//! This is the engine-generality benchmark: one loop, two element
//! universes (vertices and edges). k-truss is reported in three cuts so
//! the trajectory record can attribute wins: `ktruss` (end-to-end:
//! fused setup + peel), `ktruss-setup` (the fused one-pass
//! orientation + edge index + supports build alone), and `ktruss-peel`
//! (peel over a pre-built [`TriangleCtx`], what
//! `Decomposition::with_ctx` makes possible). `rmat-s12/ktruss-peel`
//! adds a larger power-law peel over a pre-built context. Every k-truss entry peels on the same live
//! adjacency lists.

use criterion::{black_box, criterion_group, Criterion};
use kcore::{Config, Decomposition, TriangleCtx};
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
    }
    // A larger power-law peel: per-death enumeration over live
    // adjacency, with the hub lists compacting as they thin out.
    let g = gen::rmat(12, 8, 0.57, 0.19, 0.19, 42);
    let ctx = TriangleCtx::build(&g);
    c.bench_function("problems/rmat-s12/ktruss-peel", |b| {
        b.iter(|| black_box(Decomposition::ktruss(&g).with_ctx(&ctx).config(config).run()))
    });
}

criterion_group!(benches, bench_problems);
kcore_bench::bench_main!(benches);
