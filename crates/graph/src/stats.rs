//! Degree statistics and memory accounting for benchmark tables.
//!
//! The paper's Tab. 2 reports `n`, `m`, `k_max`, and the peeling
//! complexity ρ per graph. `k_max` and ρ come from running the
//! decomposition itself; everything degree-shaped lives here, plus the
//! [`MemoryFootprint`] report every [`crate::GraphBackend`] produces so
//! bytes-per-edge is a tracked number rather than a guess (the
//! repository benchmark reports a graph's total as `graph.bytes`).

use crate::backend::GraphBackend;
use crate::csr::{CsrGraph, VertexId};
use rayon::prelude::*;

/// Byte-level memory accounting of one graph backend.
///
/// Produced by [`GraphBackend::memory`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryFootprint {
    /// Short backend name (`"csr"` or `"overlay"`).
    pub backend: &'static str,
    /// Bytes in the per-vertex offset array.
    pub offsets_bytes: usize,
    /// Bytes holding the adjacency itself: the `u32` neighbor targets.
    pub neighbor_bytes: usize,
    /// Everything else the backend keeps per graph (the overlay's
    /// delta lists).
    pub aux_bytes: usize,
    /// Directed arc count, for the per-edge ratios.
    pub arcs: usize,
}

impl MemoryFootprint {
    /// Total bytes across all sections.
    pub fn total_bytes(&self) -> usize {
        self.offsets_bytes + self.neighbor_bytes + self.aux_bytes
    }

    /// Total bytes per undirected edge; 0.0 for edgeless graphs.
    pub fn bytes_per_edge(&self) -> f64 {
        if self.arcs == 0 {
            0.0
        } else {
            self.total_bytes() as f64 / (self.arcs as f64 / 2.0)
        }
    }
}

impl std::fmt::Display for MemoryFootprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} B total ({} offsets + {} neighbors + {} aux), {:.2} B/edge",
            self.backend,
            self.total_bytes(),
            self.offsets_bytes,
            self.neighbor_bytes,
            self.aux_bytes,
            self.bytes_per_edge(),
        )
    }
}

/// Summary statistics of a graph's degree structure.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of vertices.
    pub n: usize,
    /// Number of directed arcs (2x undirected edges).
    pub arcs: usize,
    /// Number of undirected edges.
    pub edges: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Average degree in arcs per vertex (`arcs / n`).
    pub avg_degree: f64,
    /// Number of isolated (degree-0) vertices.
    pub isolated: usize,
    /// Degree at the 99th percentile.
    pub p99_degree: usize,
}

impl GraphStats {
    /// The memory footprint of any backend — a convenience forwarding
    /// to [`GraphBackend::memory`] so stats and memory reporting live
    /// in one module.
    pub fn memory<G: GraphBackend + ?Sized>(g: &G) -> MemoryFootprint {
        g.memory()
    }

    /// Computes statistics for `g` in one parallel pass plus a sort.
    pub fn compute(g: &CsrGraph) -> Self {
        let n = g.num_vertices();
        if n == 0 {
            return Self {
                n: 0,
                arcs: 0,
                edges: 0,
                max_degree: 0,
                avg_degree: 0.0,
                isolated: 0,
                p99_degree: 0,
            };
        }
        let mut degrees: Vec<usize> =
            (0..n).into_par_iter().map(|v| g.degree(v as VertexId)).collect();
        let isolated = degrees.par_iter().filter(|&&d| d == 0).count();
        degrees.par_sort_unstable();
        let p99 = degrees[((n - 1) as f64 * 0.99) as usize];
        Self {
            n,
            arcs: g.num_arcs(),
            edges: g.num_edges(),
            max_degree: *degrees.last().unwrap(),
            avg_degree: g.avg_degree(),
            isolated,
            p99_degree: p99,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn stats_of_grid() {
        let g = gen::grid2d(10, 10);
        let s = GraphStats::compute(&g);
        assert_eq!(s.n, 100);
        assert_eq!(s.edges, 180);
        assert_eq!(s.arcs, 360);
        assert_eq!(s.max_degree, 4);
        assert_eq!(s.isolated, 0);
        assert!((s.avg_degree - 3.6).abs() < 1e-9);
    }

    #[test]
    fn stats_of_empty() {
        let s = GraphStats::compute(&crate::CsrGraph::empty());
        assert_eq!(s.n, 0);
        assert_eq!(s.max_degree, 0);
    }

    #[test]
    fn stats_count_isolated() {
        let g = crate::GraphBuilder::new(5).edge(0, 1).build();
        let s = GraphStats::compute(&g);
        assert_eq!(s.isolated, 3);
    }
}
