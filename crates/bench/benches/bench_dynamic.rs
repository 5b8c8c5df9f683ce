//! Batch-dynamic maintenance vs. recompute-from-scratch.
//!
//! The maintenance path exists to beat a full re-peel on small batches:
//! `DynamicGraph::apply_batch` confines the re-peel to the affected
//! region, so its cost should track the region size, not the graph
//! size. This bench measures the steady state on three graphs. Each
//! iteration applies ONE batch of B real edges — alternating between
//! deleting a batch and re-inserting the same batch, so the graph
//! oscillates around its starting state and iterations don't drift —
//! next to the full-recompute baseline a batch would otherwise pay. The
//! ns/iter numbers compare directly: one maintained batch vs. one fresh
//! decomposition.
//!
//! * ba-3000, B in {1, 16, 256}: near-uniform coreness, the
//!   flood-the-range worst case for the region computation. Expected
//!   shape: B = 1 and B = 16 sit well under the one-shot
//!   decomposition; B = 256 widens the confinement range until the
//!   region — or the full-recompute fallback — approaches the whole
//!   graph, and the advantage fades. That crossover is the point of
//!   the batch-size axis.
//! * rmat-s12, B = 32: power-law hubs, whose support mostly crosses the
//!   region boundary, so this row tracks what the boundary costs the
//!   re-peel.
//! * road-300, B = 32: nearly every vertex has coreness 2, so the
//!   confinement range covers the graph while the region is a handful
//!   of vertices. An eager sweep of the range would cost a restore
//!   batch about a full decomposition; the lazy gain search counts only
//!   what the surviving endpoints reach, so this row shows the gap
//!   between a flooded search and a tiny region.

use criterion::{black_box, criterion_group, Criterion};
use kcore::{Config, Decomposition, DynamicGraph};
use kcore_graph::{gen, CsrGraph};

/// Spread batches across the edge list: every stride-th edge, wrapping.
fn pick_batch(edges: &[(u32, u32)], start: usize, size: usize) -> Vec<(u32, u32)> {
    let stride = (edges.len() / size.max(1)).max(1) | 1;
    (0..size).map(|i| edges[(start + i * stride) % edges.len()]).collect()
}

fn bench_graph(c: &mut Criterion, name: &str, g: &CsrGraph, batches: &[usize]) {
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let config = Config::default();

    // Baseline: what a batch costs if every change triggers a fresh
    // one-shot decomposition of the full graph.
    c.bench_function(&format!("dynamic/{name}/full-recompute"), |b| {
        b.iter(|| black_box(Decomposition::kcore(g).exact_config(config).run()))
    });

    for &batch in batches {
        let mut dg = DynamicGraph::with_exact_config(g.clone(), config);
        let mut start = 0usize;
        let mut deleted: Option<Vec<(u32, u32)>> = None;
        c.bench_function(&format!("dynamic/{name}/apply-batch-{batch}"), |b| {
            b.iter(|| match deleted.take() {
                Some(changes) => black_box(dg.apply_batch(&changes, &[])),
                None => {
                    let changes = pick_batch(&edges, start, batch);
                    start = start.wrapping_add(1);
                    let v = dg.apply_batch(&[], &changes);
                    deleted = Some(changes);
                    black_box(v)
                }
            })
        });
        // Leave the graph whole for the next batch size.
        if let Some(changes) = deleted.take() {
            dg.apply_batch(&changes, &[]);
        }
    }
}

fn bench_dynamic(c: &mut Criterion) {
    bench_graph(c, "ba-3000", &gen::barabasi_albert(3000, 4, 42), &[1, 16, 256]);
    bench_graph(c, "rmat-s12", &gen::rmat(12, 8, 0.57, 0.19, 0.19, 42), &[32]);
    bench_graph(c, "road-300", &gen::road(300, 300, 0.15, 0.05, 42), &[32]);
}

criterion_group!(benches, bench_dynamic);
kcore_bench::bench_main!(benches);
