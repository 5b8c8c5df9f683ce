//! Kernel-equivalence matrix for the triangle subsystem.
//!
//! The triangle-kernel overhaul (degree-ordered orientation, hybrid
//! merge/gallop/bitset intersections, fused index+supports build)
//! promises *bit-identical* outputs under every `KCORE_TRI_KERNEL`
//! selection — the kernels differ only in how the work is ordered, not
//! in what is enumerated. This file is the referee:
//!
//! * fused supports equal the reference full-list recount
//!   ([`kcore_graph::triangles::edge_supports`]) for every kernel;
//! * trussness equals the sequential recount oracle
//!   ([`sequential_trussness`]) for every kernel, through both the
//!   internal-setup path and the supplied-[`TriangleCtx`] path
//!   ([`Decomposition::with_ctx`]);
//! * the forced `bitset` leg pushes *every* pair through the hub-map
//!   path (no degree threshold), covering both probe orientations and
//!   the rank filter;
//! * unknown `KCORE_TRI_KERNEL` tokens panic listing the valid ones,
//!   mirroring the `KCORE_TECHNIQUES` contract.
//!
//! The proptest generators mirror `proptest_problems.rs`: messy
//! arbitrary edge lists plus the power-law family where kernel choice
//! actually varies (hubs force skewed pairs).

use kcore::{sequential_trussness, Decomposition, TriKernel, TriangleCtx};
use kcore_graph::triangles::edge_supports;
use kcore_graph::{gen, CsrGraph, EdgeIndex, GraphBuilder};
use proptest::prelude::*;

const ALL_KERNELS: [TriKernel; 4] =
    [TriKernel::Auto, TriKernel::Merge, TriKernel::Gallop, TriKernel::Bitset];

/// The full matrix on one graph: per kernel, fused supports against the
/// reference recount and trussness against the sequential oracle (via
/// the supplied-context path, so the peel provably ran on this kernel's
/// enumeration).
fn assert_kernel_matrix(g: &CsrGraph) {
    let idx = EdgeIndex::build(g);
    let ref_supports = edge_supports(g, &idx);
    let want = sequential_trussness(g);
    for kernel in ALL_KERNELS {
        let ctx = TriangleCtx::build_with_kernel(g, kernel);
        assert_eq!(
            ctx.supports(),
            ref_supports.as_slice(),
            "{} supports drifted from the reference recount",
            kernel.as_str()
        );
        let r = Decomposition::ktruss(g).with_ctx(&ctx).run();
        assert_eq!(
            r.trussness(),
            want.as_slice(),
            "{} trussness drifted from the recount oracle",
            kernel.as_str()
        );
    }
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
    // A wheel plus a pendant path: the hub dominates every rim pair
    // (probe the hub's map with the small side) while rim–rim edges
    // exercise the similar-size orientation; trussness on the rim is
    // driven entirely through hub-map enumeration during the peel.
    let n = 120u32;
    let rim = (1..n).map(|i| (i, if i + 1 < n { i + 1 } else { 1 }));
    let spokes = (1..n).map(|i| (0, i));
    let g = GraphBuilder::new(n as usize + 3)
        .edges(rim.chain(spokes).chain([(n, n + 1), (n + 1, n + 2)]))
        .build();
    assert_kernel_matrix(&g);
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

#[test]
fn kernel_tokens_round_trip() {
    for token in TriKernel::TOKENS {
        assert_eq!(TriKernel::parse(token).as_str(), token);
    }
}

#[test]
#[should_panic(expected = "valid: auto, merge, gallop, bitset")]
fn unknown_kernel_token_panics_listing_valid_ones() {
    let _ = TriKernel::parse("quadratic");
}
