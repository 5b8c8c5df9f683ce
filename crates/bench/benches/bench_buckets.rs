//! Bucketing-structure comparison (the paper's Fig. 8 axis): the same
//! decomposition under each of the three frontier-management strategies
//! (the flat array, HBS, and the adaptive switch between them at θ),
//! on the graphs that stress them — HCNS for bucket depth, a dense
//! planted core for high `k_max`, and a grid for the sparse regime.

use criterion::{black_box, criterion_group, Criterion};
use kcore::{BucketStrategy, Config, Decomposition};
use kcore_graph::gen;

fn bench_strategies(c: &mut Criterion) {
    let graphs = [
        ("hcns-120", gen::hcns(120)),
        ("planted-core-1500", gen::planted_core(1500, 3, 70, 42)),
        ("grid2d-80x80", gen::grid2d(80, 80)),
    ];
    for (name, g) in &graphs {
        for strategy in BucketStrategy::ALL {
            let config = Config::with_strategy(strategy);
            c.bench_function(&format!("buckets/{name}/{strategy}"), |b| {
                b.iter(|| black_box(Decomposition::kcore(g).config(config).run()))
            });
        }
    }
}

criterion_group!(benches, bench_strategies);
kcore_bench::bench_main!(benches);
