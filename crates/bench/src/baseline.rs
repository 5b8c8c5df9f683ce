//! The pre-streaming CSR construction path, kept as the A/B baseline
//! of `bench_build` against `kcore_graph::builder::from_symmetric_arcs`.

use kcore_graph::{CsrGraph, VertexId};
use rayon::prelude::*;

/// Global parallel sort over all arcs, then dedup and a sequential
/// CSR fill. Takes the same symmetric, self-loop-free arc list as
/// `from_symmetric_arcs` and produces a bit-identical graph (sorted,
/// deduplicated per-vertex adjacency).
pub fn from_symmetric_arcs_by_sort(n: usize, mut arcs: Vec<(VertexId, VertexId)>) -> CsrGraph {
    debug_assert!(arcs.iter().all(|&(u, v)| u != v), "self-loop in symmetric arc list");
    arcs.par_sort_unstable();
    arcs.dedup();

    let mut offsets = vec![0usize; n + 1];
    for &(u, _) in &arcs {
        offsets[u as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let edges: Vec<VertexId> = arcs.into_iter().map(|(_, v)| v).collect();
    CsrGraph::from_parts_unchecked(offsets, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcore_graph::builder::from_symmetric_arcs;

    #[test]
    fn countsort_matches_sort_path_bit_for_bit() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let n = 500u32;
        let mut arcs = Vec::new();
        for _ in 0..20_000 {
            let (u, v) = (next() % n, next() % n);
            if u != v {
                arcs.push((u, v));
                arcs.push((v, u));
            }
        }
        let a = from_symmetric_arcs(n as usize, arcs.clone());
        let b = from_symmetric_arcs_by_sort(n as usize, arcs);
        assert_eq!(a, b);
        a.validate();
    }
}
