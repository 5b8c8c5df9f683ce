//! Property-based correctness for batch-dynamic coreness maintenance:
//! after every applied batch — random inserts (including universe
//! growth), random deletes of real edges, and no-op changes mixed in —
//! the maintained coreness must be bit-identical to a full
//! Batagelj–Zaveršnik recompute on a fresh CSR snapshot of the logical
//! graph, at every version, for every bucket strategy under the plain,
//! full online (sampling + VGC) and offline peel designs, and under the
//! full online design with a sampling threshold low enough for these
//! small graphs. The affected region must stay within the vertex
//! universe throughout. Two fixed-graph tests check that this
//! low-threshold leg really samples, in the initial peel and in a
//! batch's re-peel.
//!
//! The `mid_size_` family runs the same check on road and rmat graphs of
//! 256-1600 vertices under the batch shape of the benchmark's stream: a
//! spread-out batch of 16-64 edges deleted and then restored, plus
//! random mixed batches. Only at that size does the gain search of a
//! restore batch run past its first phase.

use kcore::bz::bz_coreness;
use kcore::{BucketStrategy, Config, DynamicGraph, Sampling, Techniques};
use kcore_graph::{gen, CsrGraph, GraphBuilder, VertexId};
use proptest::prelude::*;

/// Arbitrary messy base graph: duplicates and self-loops allowed (the
/// builder drops them), plus the empty and edgeless corners.
fn arb_base() -> impl Strategy<Value = CsrGraph> {
    (1usize..28).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        (Just(n), proptest::collection::vec(edge, 0..96))
            .prop_map(|(n, edges)| GraphBuilder::new(n).edges(edges).build())
    })
}

/// The full online design (sampling + VGC) with a degree threshold of
/// 4: the default threshold (128) is beyond every degree of the small
/// graphs here (fewer than 28 vertices), so it would sample nothing.
fn low_threshold_sampling() -> Techniques {
    Techniques { sampling: Some(Sampling::with_threshold(4)), ..Techniques::all_online() }
}

type Batch = (Vec<(VertexId, VertexId)>, Vec<u64>);

/// A batch: insert candidates drawn from a range slightly beyond the
/// base universe (exercising vertex growth), delete candidates as raw
/// picks resolved modulo the *current* edge list (so deletes really hit
/// edges, not just the absent-edge no-op path).
fn arb_batches() -> impl Strategy<Value = Vec<Batch>> {
    let insert = (0u32..32, 0u32..32);
    proptest::collection::vec(
        (proptest::collection::vec(insert, 0..5), proptest::collection::vec(any::<u64>(), 0..4)),
        1..5,
    )
}

/// Resolves raw delete picks against the current logical edge list.
fn resolve_deletes(dg: &DynamicGraph, picks: &[u64]) -> Vec<(u32, u32)> {
    let edges: Vec<(u32, u32)> = dg.graph().edges().collect();
    if edges.is_empty() {
        Vec::new()
    } else {
        picks.iter().map(|&p| edges[(p % edges.len() as u64) as usize]).collect()
    }
}

/// The shim's prop_assert macros are plain asserts (no shrinking), so a
/// panicking helper loses nothing.
fn replay_and_check(
    base: &CsrGraph,
    batches: &[Batch],
    strategy: BucketStrategy,
    techniques: Techniques,
) {
    let config = Config { bucket_strategy: strategy, techniques };
    let mut dg = DynamicGraph::new(base.clone(), config);
    assert_eq!(dg.coreness(), bz_coreness(base).as_slice(), "construction under {strategy}");
    for (inserts, delete_picks) in batches {
        let deletes = resolve_deletes(&dg, delete_picks);
        let version = dg.apply_batch(inserts, &deletes);
        assert_eq!(version, dg.version());
        let want = bz_coreness(&dg.snapshot());
        assert_eq!(
            dg.coreness(),
            want.as_slice(),
            "version {version:?} under {strategy}, {techniques:?} diverged from the BZ oracle"
        );
        let stats = dg.last_stats();
        assert!(
            stats.region <= dg.graph().num_vertices(),
            "affected region {} exceeds the universe {}",
            stats.region,
            dg.graph().num_vertices()
        );
        assert!(stats.seeds <= 2 * (stats.inserted + stats.deleted));
    }
}

proptest! {
    #[test]
    fn batches_stay_bit_identical_to_full_recompute(
        base in arb_base(),
        batches in arb_batches(),
    ) {
        for strategy in BucketStrategy::ALL {
            for techniques in [
                Techniques::default(),
                Techniques::all_online(),
                Techniques::offline(),
                low_threshold_sampling(),
            ] {
                replay_and_check(&base, &batches, strategy, techniques);
            }
        }
    }

    #[test]
    fn insert_only_and_delete_only_batches(
        base in arb_base(),
        edges in proptest::collection::vec((0u32..24, 0u32..24), 1..8),
    ) {
        // Insert a batch of genuinely fresh edges, then delete exactly
        // the same batch: the final coreness must equal the base's
        // (modulo universe growth) and every intermediate version must
        // match the oracle. Edges already in the base must be filtered
        // out — for those the insert is a no-op but the delete is not,
        // so the round trip would legitimately change the graph.
        let base_overlay = kcore_graph::OverlayGraph::new(base.clone());
        let fresh: Vec<(u32, u32)> = edges
            .into_iter()
            .filter(|&(u, v)| u != v && !base_overlay.has_edge(u, v))
            .collect();
        let mut dg = DynamicGraph::new(base.clone(), Config::default());
        dg.apply_batch(&fresh, &[]);
        prop_assert_eq!(dg.coreness(), bz_coreness(&dg.snapshot()).as_slice());
        dg.apply_batch(&[], &fresh);
        let want = bz_coreness(&dg.snapshot());
        prop_assert_eq!(dg.coreness(), want.as_slice());
        let n = base.num_vertices();
        prop_assert_eq!(&dg.coreness()[..n], bz_coreness(&base).as_slice());
        prop_assert!(dg.coreness()[n..].iter().all(|&c| c == 0));
    }

    #[test]
    fn compaction_preserves_the_decomposition(
        base in arb_base(),
        batches in arb_batches(),
    ) {
        // Force compaction after virtually every batch; the rebuilt CSR
        // must carry the same standing coreness.
        let mut dg = DynamicGraph::new(base.clone(), Config::default());
        dg.set_compaction_fraction(0.0);
        for (inserts, delete_picks) in &batches {
            let deletes = resolve_deletes(&dg, delete_picks);
            dg.apply_batch(inserts, &deletes);
            prop_assert_eq!(dg.graph().overlay_arcs(), 0, "compaction must have run");
            prop_assert_eq!(dg.coreness(), bz_coreness(&dg.snapshot()).as_slice());
        }
    }
}

/// A road grid of 20-40 vertices per side or an rmat graph of scale
/// 8-10, alone in its universe or padded with isolated vertices to 8
/// times its size. The padding keeps the gain search below the share of
/// the universe past which it finishes as the eager sweep, so the lazy
/// search runs to the end.
fn arb_mid_size() -> impl Strategy<Value = CsrGraph> {
    ((any::<bool>(), any::<bool>()), 20usize..41, 8u32..11, any::<u64>()).prop_map(
        |((road, pad), side, scale, seed)| {
            let g = if road {
                gen::road(side, side, 0.15, 0.05, seed)
            } else {
                gen::rmat(scale, 8, 0.57, 0.19, 0.19, seed)
            };
            let n = if pad { 8 * g.num_vertices() } else { g.num_vertices() };
            GraphBuilder::new(n).edges(g.edges()).build()
        },
    )
}

type Edge = (VertexId, VertexId);

/// Two delete-then-restore steps of a spread-out batch of `size` edges
/// (every `len / size`-th edge from `start`), then a mixed batch: each
/// pick inserts a random vertex pair, and half of them also delete an
/// existing edge.
fn mid_size_stream(
    base: &CsrGraph,
    size: usize,
    start: usize,
    picks: &[(u64, u64)],
) -> Vec<(Vec<Edge>, Vec<Edge>)> {
    let edges: Vec<(u32, u32)> = base.edges().collect();
    // Mixed inserts land among the graph's own vertices, not the padding.
    let n = edges.iter().map(|&(u, v)| u.max(v)).max().map_or(1, |m| m as u64 + 1);
    let stride = (edges.len() / size).max(1);
    let mut stream = Vec::new();
    for step in 0..2 {
        let batch: Vec<_> =
            (0..size).map(|i| edges[(start + step + i * stride) % edges.len()]).collect();
        stream.push((Vec::new(), batch.clone()));
        stream.push((batch, Vec::new()));
    }
    let inserts = picks.iter().map(|&(a, b)| ((a % n) as u32, (b % n) as u32)).collect();
    let deletes =
        picks.iter().step_by(2).map(|&(a, _)| edges[(a % edges.len() as u64) as usize]).collect();
    stream.push((inserts, deletes));
    stream
}

proptest! {
    #[test]
    fn mid_size_delete_restore_streams_stay_exact(
        base in arb_mid_size(),
        size in 16usize..65,
        start in 0usize..1 << 20,
        picks in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..24),
    ) {
        let stream = mid_size_stream(&base, size, start, &picks);
        for techniques in [Techniques::default(), Techniques::all_online(), Techniques::offline()] {
            let config = Config { techniques, ..Config::default() };
            let mut dg = DynamicGraph::new(base.clone(), config);
            for (inserts, deletes) in &stream {
                let old = dg.coreness().to_vec();
                let version = dg.apply_batch(inserts, deletes);
                let want = bz_coreness(&dg.snapshot());
                prop_assert_eq!(
                    dg.coreness(),
                    want.as_slice(),
                    "version {:?} under {:?} diverged from the BZ oracle",
                    version,
                    techniques
                );
                let moved = (0..want.len())
                    .filter(|&v| old.get(v).copied().unwrap_or(0) != want[v])
                    .count();
                prop_assert!(
                    dg.last_stats().region >= moved,
                    "{} vertices moved, region {}",
                    moved,
                    dg.last_stats().region
                );
            }
        }
    }
}

/// The low-threshold leg samples in the initial peel: a 27-vertex
/// power-law graph, the size of the small-graph sweep, puts vertices in
/// sample mode.
#[test]
fn low_threshold_sampling_samples_in_the_initial_peel() {
    let g = gen::barabasi_albert(27, 3, 7);
    let dg = DynamicGraph::new(g.clone(), Config::with_techniques(low_threshold_sampling()));
    assert_eq!(dg.coreness(), bz_coreness(&g).as_slice());
    let stats = dg.result().stats();
    assert!(stats.sampled_vertices > 0, "no vertex sampled: {stats:?}");
}

/// The low-threshold leg samples in a batch's region re-peel: deleting
/// one edge of an 8-clique that shares its universe with a 20-vertex
/// path re-peels the clique alone (no boundary arcs, internal degrees
/// 6 and 7, above the threshold), not the whole graph.
#[test]
fn low_threshold_sampling_samples_in_the_region_repeel() {
    let mut b = GraphBuilder::new(28);
    for u in 0..8u32 {
        for v in u + 1..8 {
            b.push_edge(u, v);
        }
    }
    for v in 8..27u32 {
        b.push_edge(v, v + 1);
    }
    let config = Config::with_techniques(low_threshold_sampling());
    let mut dg = DynamicGraph::new(b.build(), config);
    dg.apply_batch(&[], &[(0, 1)]);
    assert_eq!(dg.coreness(), bz_coreness(&dg.snapshot()).as_slice());
    let stats = dg.last_stats();
    assert!(!stats.full_recompute, "the clique is under half the graph: {stats:?}");
    assert_eq!(stats.region, 8, "the region is the clique: {stats:?}");
    assert!(stats.repeel.sampled_vertices > 0, "no vertex sampled: {:?}", stats.repeel);
}

/// The confinement guarantee in its most visible form: a single edge
/// change far away from the dense part of the graph re-peels only a
/// handful of vertices, never the whole graph.
#[test]
fn far_away_edge_confines_the_region() {
    // 40 separate 4-cliques (coreness 3) threaded on a path of
    // connector vertices (coreness 1): vertices 5i..5i+4 per block.
    let blocks = 40u32;
    let mut b = GraphBuilder::new((5 * blocks) as usize);
    for i in 0..blocks {
        let v = 5 * i;
        b.push_edge(v, v + 1);
        b.push_edge(v, v + 2);
        b.push_edge(v, v + 3);
        b.push_edge(v + 1, v + 2);
        b.push_edge(v + 1, v + 3);
        b.push_edge(v + 2, v + 3);
        b.push_edge(v + 3, v + 4);
        if i + 1 < blocks {
            b.push_edge(v + 4, v + 5);
        }
    }
    let g = b.build();
    let n = g.num_vertices();
    let mut dg = DynamicGraph::new(g, Config::default());

    // Delete an edge inside the last clique: both endpoints have
    // coreness 3, so the confinement range is exactly {3} and the BFS
    // cannot cross the coreness-1 connector chain into other blocks.
    let (u, v) = (5 * (blocks - 1), 5 * (blocks - 1) + 1);
    dg.apply_batch(&[], &[(u, v)]);
    let stats = dg.last_stats();
    assert!(!stats.full_recompute, "a single far-away edge must not trigger a full re-peel");
    assert!(stats.region * 4 < n, "region {} should be a small fraction of n = {n}", stats.region);
    assert_eq!(stats.confinement, (3, 3), "both endpoints sit inside one clique");
    assert_eq!(stats.region, 4, "only the touched clique is re-peeled");
    assert_eq!(dg.coreness(), bz_coreness(&dg.snapshot()).as_slice());
}
