//! The graph-backend seam: one trait over every adjacency storage
//! layout the decompositions can peel.
//!
//! [`GraphBackend`] abstracts the read API the algorithms actually use
//! — vertex/arc counts, degrees, and neighbor access — so the same
//! peel engine runs over the plain CSR arrays ([`crate::CsrGraph`],
//! owned or mmap-backed), the delta-overlay logical graph
//! ([`crate::OverlayGraph`]), and the byte-compressed layout
//! ([`crate::CompressedCsr`]). Neighbor access comes in two flavors:
//!
//! * [`GraphBackend::neighbors_slice`] — a borrowed `&[VertexId]`
//!   slice, free for array-backed storage. Decode-on-the-fly backends
//!   serve it from a small per-thread scratch ring, so a caller may
//!   hold **at most one** slice per thread at a time (the documented
//!   contract on [`crate::CompressedCsr::neighbors`]).
//! * [`GraphBackend::for_each_neighbor`] — streaming visitation with
//!   no buffer at all; nested traversals (a scan inside a scan) must
//!   use this form so they never contend for scratch slots.
//!
//! The `KCORE_BACKEND` environment override (parsed by
//! [`env_backend`], same unknown-token-panics convention as
//! `KCORE_TECHNIQUES`) lets CI force the compressed backend through
//! every plain-CSR entry point.

use crate::csr::{CsrGraph, VertexId};
use crate::stats::MemoryFootprint;
use rayon::prelude::*;

/// Read-only graph storage the peeling algorithms can run over.
///
/// Implementations must present the same *logical* graph contract as
/// [`CsrGraph`]: symmetric arcs, strictly increasing per-vertex
/// neighbor lists, no self-loops. Algorithms over any two backends of
/// the same logical graph produce bit-identical results (enforced by
/// `proptest_backends` in `kcore`).
pub trait GraphBackend: Sync {
    /// Number of vertices `n`.
    fn num_vertices(&self) -> usize;

    /// Number of directed arcs `m` (twice the undirected edges).
    fn num_arcs(&self) -> usize;

    /// Degree of `v`. Must be O(1) — peel work accounting calls it on
    /// hot paths instead of materializing neighbor lists.
    fn degree(&self, v: VertexId) -> usize;

    /// The sorted neighbor list of `v` as a slice.
    ///
    /// For decode-on-the-fly backends the slice lives in per-thread
    /// scratch: hold at most one per thread, and prefer
    /// [`GraphBackend::for_each_neighbor`] inside nested traversals.
    fn neighbors_slice(&self, v: VertexId) -> &[VertexId];

    /// Number of undirected edges (`num_arcs / 2`).
    fn num_edges(&self) -> usize {
        self.num_arcs() / 2
    }

    /// Calls `f` for every neighbor of `v` in increasing order, without
    /// materializing a slice. Safe to nest arbitrarily.
    #[inline]
    fn for_each_neighbor(&self, v: VertexId, f: &mut dyn FnMut(VertexId)) {
        for &u in self.neighbors_slice(v) {
            f(u);
        }
    }

    /// Calls `f` once per undirected edge `(u, v)` with `u < v`, in
    /// vertex order. Sequential; used by result assembly post-passes.
    fn for_each_edge(&self, f: &mut dyn FnMut(VertexId, VertexId)) {
        for v in 0..self.num_vertices() as VertexId {
            self.for_each_neighbor(v, &mut |u| {
                if v < u {
                    f(v, u);
                }
            });
        }
    }

    /// Degrees of all vertices as a vector (parallel).
    fn degrees(&self) -> Vec<u32> {
        (0..self.num_vertices())
            .into_par_iter()
            .map(|v| self.degree(v as VertexId) as u32)
            .collect()
    }

    /// The backend's memory footprint (see [`MemoryFootprint`]).
    fn memory(&self) -> MemoryFootprint;

    /// Downcast to the plain CSR backend, when that is what this is.
    ///
    /// The facade uses this to apply the `KCORE_BACKEND` override (a
    /// plain graph is re-encoded through the forced backend); every
    /// other backend keeps the `None` default and runs as-is.
    fn as_plain(&self) -> Option<&CsrGraph> {
        None
    }
}

/// Adjacency backend selected by the `KCORE_BACKEND` environment
/// variable (see [`env_backend`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Plain uncompressed CSR arrays — the default.
    Plain,
    /// Delta + varint byte-compressed adjacency
    /// ([`crate::CompressedCsr`]).
    Compressed,
}

impl BackendKind {
    /// Human name, as accepted by `KCORE_BACKEND`.
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::Plain => "plain",
            BackendKind::Compressed => "compressed",
        }
    }
}

/// The backend forced by `KCORE_BACKEND`, parsed once per process.
///
/// Accepted values: `plain` (or empty/unset) and `compressed`. Unknown
/// tokens panic listing the valid set — same convention as
/// `KCORE_TECHNIQUES`, so a typo in CI fails
/// loudly instead of silently testing the default.
pub fn env_backend() -> BackendKind {
    static KIND: std::sync::OnceLock<BackendKind> = std::sync::OnceLock::new();
    *KIND.get_or_init(|| match std::env::var("KCORE_BACKEND") {
        Ok(raw) => match raw.trim() {
            "" | "plain" => BackendKind::Plain,
            "compressed" => BackendKind::Compressed,
            other => {
                panic!("KCORE_BACKEND: unknown backend {other:?} (valid: plain, compressed)")
            }
        },
        Err(_) => BackendKind::Plain,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn default_methods_match_csr_natives() {
        let g = gen::barabasi_albert(200, 3, 7);
        let b: &dyn GraphBackend = &g;
        assert_eq!(b.num_edges(), g.num_edges());
        assert_eq!(b.degrees(), g.degrees());
        let mut streamed = Vec::new();
        b.for_each_neighbor(5, &mut |u| streamed.push(u));
        assert_eq!(streamed, g.neighbors(5));
        let mut edges = Vec::new();
        b.for_each_edge(&mut |u, v| edges.push((u, v)));
        assert_eq!(edges, g.edges().collect::<Vec<_>>());
    }

    #[test]
    fn backend_kind_names() {
        assert_eq!(BackendKind::Plain.as_str(), "plain");
        assert_eq!(BackendKind::Compressed.as_str(), "compressed");
    }
}
