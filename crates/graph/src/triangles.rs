//! Parallel triangle enumeration primitives.
//!
//! k-truss peeling is driven by *edge support* — the number of
//! triangles each edge participates in — and by enumerating, when an
//! edge dies, the triangles it destroys. Both reduce to sorted-adjacency
//! intersection: the triangles containing edge `{u, v}` are exactly the
//! common neighbors of `u` and `v`. Intersections run sequentially
//! (they are tiny — `O(min(d(u), d(v)))`) and the parallelism is across
//! the edge set, matching the flat fork–join model everywhere else in
//! the workspace.
//!
//! [`edge_supports`] and [`for_each_triangle_of_edge`] here are the
//! straightforward full-list merge implementations — kept as the
//! *reference* the optimized path is checked against. Production
//! triangle work (the k-truss setup and peel, and [`triangle_count`])
//! runs through [`crate::dodg::TriangleCtx`]: the degree-ordered
//! orientation, the fused one-pass index+supports build, and the
//! merge/bitset kernels, all bit-identical to the functions in this
//! module.

use crate::csr::{CsrGraph, VertexId};
use crate::edges::EdgeIndex;
use kcore_parallel::primitives::intersect_sorted_positions;
use rayon::prelude::*;

/// Per-edge triangle counts (the k-truss initial priorities), parallel
/// over edges. `supports[e]` is the number of triangles containing edge
/// `e` of `idx`.
pub fn edge_supports(g: &CsrGraph, idx: &EdgeIndex) -> Vec<u32> {
    (0..idx.num_edges() as u32)
        .into_par_iter()
        .map(|e| {
            let (u, v) = idx.endpoints(e);
            let mut count = 0u32;
            intersect_sorted_positions(g.neighbors(u), g.neighbors(v), |_, _| count += 1);
            count
        })
        .collect()
}

/// Calls `f(fe, ge, w)` for every triangle `{u, v, w}` containing edge
/// `e = {u, v}`, where `fe` is the id of `{u, w}` and `ge` the id of
/// `{v, w}`. Sequential; parallelize across edges at the call site.
#[inline]
pub fn for_each_triangle_of_edge<F>(g: &CsrGraph, idx: &EdgeIndex, e: u32, mut f: F)
where
    F: FnMut(u32, u32, VertexId),
{
    let (u, v) = idx.endpoints(e);
    let (u_ids, v_ids) = (idx.edge_ids(g, u), idx.edge_ids(g, v));
    intersect_sorted_positions(g.neighbors(u), g.neighbors(v), |i, j| {
        f(u_ids[i], v_ids[j], g.neighbors(u)[i]);
    });
}

/// Total number of triangles in `g`: the supports of the fused
/// [`crate::dodg::TriangleCtx`] build summed (each triangle holds
/// three edges) and divided by 3.
pub fn triangle_count(g: &CsrGraph) -> u64 {
    let ctx = crate::dodg::TriangleCtx::build(g);
    ctx.supports().iter().map(|&s| s as u64).sum::<u64>() / 3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, GraphBuilder};

    fn naive_triangle_count(g: &CsrGraph) -> u64 {
        let mut count = 0u64;
        for (u, v) in g.edges() {
            for &w in g.neighbors(u) {
                if w > v && g.has_edge(v, w) {
                    count += 1;
                }
            }
        }
        count
    }

    #[test]
    fn known_counts() {
        let idx = |g: &CsrGraph| EdgeIndex::build(g);
        let tri = GraphBuilder::new(3).edges([(0, 1), (1, 2), (0, 2)]).build();
        assert_eq!(triangle_count(&tri), 1);
        assert_eq!(edge_supports(&tri, &idx(&tri)), vec![1, 1, 1]);

        // K5: C(5,3) = 10 triangles, every edge in 5 - 2 = 3 of them.
        let k5 = gen::complete(5);
        assert_eq!(triangle_count(&k5), 10);
        assert!(edge_supports(&k5, &idx(&k5)).iter().all(|&s| s == 3));

        // Bipartite graphs and trees are triangle-free.
        let kb = gen::complete_bipartite(3, 4);
        assert_eq!(triangle_count(&kb), 0);
        let path = gen::path(20);
        assert!(edge_supports(&path, &idx(&path)).iter().all(|&s| s == 0));
    }

    #[test]
    fn counts_match_naive_on_generators() {
        for g in [
            gen::barabasi_albert(250, 4, 9),
            gen::rmat(8, 6, 0.57, 0.19, 0.19, 3),
            gen::planted_core(150, 2, 30, 4),
            gen::hcns(12),
        ] {
            assert_eq!(triangle_count(&g), naive_triangle_count(&g));
        }
    }

    #[test]
    fn triangle_enumeration_yields_consistent_edge_ids() {
        let g = gen::planted_core(120, 2, 25, 7);
        let idx = EdgeIndex::build(&g);
        let supports = edge_supports(&g, &idx);
        for e in 0..idx.num_edges() as u32 {
            let (u, v) = idx.endpoints(e);
            let mut seen = 0u32;
            for_each_triangle_of_edge(&g, &idx, e, |fe, ge, w| {
                assert_eq!(idx.edge_id(&g, u, w), Some(fe));
                assert_eq!(idx.edge_id(&g, v, w), Some(ge));
                assert_ne!(fe, e);
                assert_ne!(ge, e);
                assert_ne!(fe, ge);
                seen += 1;
            });
            assert_eq!(seen, supports[e as usize], "edge {e} enumerates its support");
        }
    }
}
