//! Reference checks for the triangle subsystem.
//!
//! The triangle setup (degree-ordered orientation, fused index+supports
//! build) and the k-truss peel pick an intersection kernel per pair
//! from the two list lengths: the linear merge, or the probe of a hub's
//! bitmap. The choice only orders the work; it never changes what is
//! enumerated. This file is the end-to-end referee of that promise:
//!
//! * fused supports equal the reference full-list recount
//!   ([`kcore_graph::triangles::edge_supports`]);
//! * trussness equals the sequential recount oracle
//!   ([`sequential_trussness`]), through both the internal-setup path
//!   and the supplied-[`TriangleCtx`] path ([`Decomposition::with_ctx`]);
//! * a wheel sends every rim–hub pair through the hub probe inside the
//!   peel, also when the hub's pendant spokes (edges in no triangle,
//!   which the peel leaves out) make its element ids differ from its
//!   edge ids.
//!
//! Each kernel forced on every pair, both probe orientations and the
//! rank filter are covered by the unit tests of `kcore_graph::dodg`.
//!
//! The proptest generators mirror `proptest_problems.rs`: messy
//! arbitrary edge lists plus the power-law family where kernel choice
//! actually varies (hubs force skewed pairs).

use kcore::{sequential_trussness, Decomposition, TriangleCtx};
use kcore_graph::triangles::edge_supports;
use kcore_graph::{gen, CsrGraph, EdgeIndex, GraphBuilder};
use proptest::prelude::*;

/// Fused supports against the reference recount and trussness against
/// the sequential oracle (via the supplied-context path, so the peel
/// provably ran on this context's enumeration).
fn assert_kernel_matrix(g: &CsrGraph) {
    let idx = EdgeIndex::build(g);
    let ctx = TriangleCtx::build(g);
    assert_eq!(
        ctx.supports(),
        edge_supports(g, &idx).as_slice(),
        "supports drifted from the reference recount"
    );
    let r = Decomposition::ktruss(g).with_ctx(&ctx).run();
    assert_eq!(
        r.trussness(),
        sequential_trussness(g).as_slice(),
        "trussness drifted from the recount oracle"
    );
}

/// Arbitrary messy edge list (duplicates and self-loops allowed), kept
/// small enough for the quadratic-ish truss recount oracle.
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (2usize..32).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        (Just(n), proptest::collection::vec(edge, 0..120))
            .prop_map(|(n, edges)| GraphBuilder::new(n).edges(edges).build())
    })
}

proptest! {
    #[test]
    fn kernels_agree_on_arbitrary_graphs(g in arb_graph()) {
        assert_kernel_matrix(&g);
    }

    #[test]
    fn kernels_agree_on_powerlaw(n in 10usize..60, seed in any::<u64>()) {
        assert_kernel_matrix(&gen::barabasi_albert(n, 3.min(n - 1), seed));
    }
}

#[test]
fn kernels_agree_on_generator_families() {
    for g in [
        gen::complete(8),
        gen::rmat(6, 6, 0.57, 0.19, 0.19, 1),
        gen::planted_core(70, 2, 14, 3),
        gen::hcns(9),
        gen::grid2d(6, 7),
        gen::mesh(7, 7),
    ] {
        assert_kernel_matrix(&g);
    }
}

#[test]
fn forced_bitset_covers_hub_probes_in_both_orientations() {
    // The input forces the hub probe. First a wheel plus a pendant
    // path: hub 0 dominates every rim pair, so the hub's map is probed
    // with the rim side (the hub is the edge's first endpoint) while
    // rim–rim edges take the merge; trussness on the rim is driven
    // through hub-map enumeration during the peel.
    let n = 120u32;
    let rim = (1..n).map(|i| (i, if i + 1 < n { i + 1 } else { 1 }));
    let spokes = (1..n).map(|i| (0, i));
    let g = GraphBuilder::new(n as usize + 3)
        .edges(rim.clone().chain(spokes.clone()).chain([(n, n + 1), (n + 1, n + 2)]))
        .build();
    assert_kernel_matrix(&g);
    // Then a second hub `n` on the same rim: it is the second endpoint
    // of its spokes, so its map is probed from the other orientation.
    let g = GraphBuilder::new(n as usize + 1)
        .edges(rim.chain(spokes).chain((1..n).map(|i| (i, n))))
        .build();
    assert_kernel_matrix(&g);
}

#[test]
fn hub_probe_resolves_companions_in_element_ids() {
    // The k-truss peel numbers only the edges that lie in a triangle.
    // Hub 0 joins the pendants 1..=p, whose spokes lie in no triangle
    // and take the hub's lowest edge ids, and the rim p+1..=p+r. So at
    // the hub element ids and edge ids differ, and every companion the
    // hub probe finds inside the peel must be resolved in element ids.
    let (p, r) = (40u32, 100u32);
    let rim_vertex = |i: u32| p + 1 + i % r;
    let rim = (0..r).map(|i| (rim_vertex(i), rim_vertex(i + 1)));
    let spokes = (1..=p + r).map(|v| (0, v));
    let g =
        GraphBuilder::new((p + r + 1) as usize).edges(rim.clone().chain(spokes.clone())).build();
    assert_kernel_matrix(&g);
    let built = Decomposition::ktruss(&g).run();
    assert_eq!(built.trussness(), sequential_trussness(&g).as_slice(), "built context");
    // A second hub after the rim, with pendants of its own: it is the
    // second endpoint of its spokes, so its map is probed from the
    // other orientation.
    let hub = p + r + 1;
    let second = (p + 1..=p + r).chain(hub + 1..hub + 1 + p).map(|v| (hub, v));
    let g =
        GraphBuilder::new((hub + 1 + p) as usize).edges(rim.chain(spokes).chain(second)).build();
    assert_kernel_matrix(&g);
    let built = Decomposition::ktruss(&g).run();
    assert_eq!(built.trussness(), sequential_trussness(&g).as_slice(), "built context");
}

#[test]
fn default_run_matches_supplied_context() {
    // `Decomposition::ktruss(g).run()` builds the context internally;
    // the result must be indistinguishable from the supplied-context
    // path, edge ids included.
    let g = gen::barabasi_albert(150, 4, 2);
    let internal = Decomposition::ktruss(&g).run();
    let ctx = TriangleCtx::build(&g);
    let supplied = Decomposition::ktruss(&g).with_ctx(&ctx).run();
    assert_eq!(internal.trussness(), supplied.trussness());
    for e in 0..internal.num_edges() as u32 {
        assert_eq!(internal.edge_index().endpoints(e), supplied.edge_index().endpoints(e));
    }
}
