//! The graph-backend seam: one trait over every adjacency storage
//! layout the k-core peel runs over.
//!
//! [`GraphBackend`] abstracts the read API the peel actually uses —
//! vertex/arc counts, degrees, and neighbor slices — so the same peel
//! engine runs over the plain CSR arrays ([`crate::CsrGraph`]) and the
//! delta-overlay logical graph ([`crate::OverlayGraph`]) that
//! batch-dynamic maintenance re-peels.
//! Every backend serves a vertex's neighbors as a borrowed slice of
//! its own storage.

use crate::csr::VertexId;
use crate::stats::MemoryFootprint;
use rayon::prelude::*;

/// Read-only graph storage the peeling algorithms can run over.
///
/// Implementations must present the same *logical* graph contract as
/// [`crate::CsrGraph`]: symmetric arcs, strictly increasing per-vertex
/// neighbor lists, no self-loops. Algorithms over any two backends of
/// the same logical graph produce bit-identical results (enforced by
/// `proptest_maintain` in `kcore`).
pub trait GraphBackend: Sync {
    /// Number of vertices `n`.
    fn num_vertices(&self) -> usize;

    /// Degree of `v`. Must be O(1) — peel work accounting calls it on
    /// hot paths instead of materializing neighbor lists.
    fn degree(&self, v: VertexId) -> usize;

    /// The sorted neighbor list of `v` as a slice.
    fn neighbors_slice(&self, v: VertexId) -> &[VertexId];

    /// Degrees of all vertices as a vector (parallel).
    fn degrees(&self) -> Vec<u32> {
        (0..self.num_vertices())
            .into_par_iter()
            .map(|v| self.degree(v as VertexId) as u32)
            .collect()
    }

    /// The backend's memory footprint (see [`MemoryFootprint`]).
    fn memory(&self) -> MemoryFootprint;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn default_methods_match_csr_natives() {
        let g = gen::barabasi_albert(200, 3, 7);
        let b: &dyn GraphBackend = &g;
        assert_eq!(b.num_vertices(), g.num_vertices());
        assert_eq!(b.degrees(), g.degrees());
        assert_eq!(b.neighbors_slice(5), g.neighbors(5));
    }
}
