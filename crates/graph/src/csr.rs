//! Compressed-sparse-row graph representation.
//!
//! [`CsrGraph`] is the single graph type consumed by every algorithm in
//! this workspace. It stores an undirected graph as a symmetric set of
//! arcs: every undirected edge `{u, v}` appears both as `u -> v` and
//! `v -> u`. This matches the convention of the paper (directed inputs
//! are symmetrized, and `m` counts arcs, as in GBBS / Ligra).

use rayon::prelude::*;

/// Vertex identifier.
///
/// `u32` keeps adjacency arrays half the size of `usize` indices, which
/// matters for the memory-bandwidth-bound peeling loops. Laptop-scale
/// reproductions never approach the 2^32 vertex limit.
pub type VertexId = u32;

/// An immutable undirected graph in compressed-sparse-row form.
///
/// Construction goes through [`crate::GraphBuilder`] /
/// [`crate::StreamBuilder`], the generators in [`crate::gen`], or the
/// readers in [`crate::io`]; all of them guarantee the structural
/// invariants listed on [`CsrGraph::from_parts`].
// Serde derives were dropped with the offline dependency set; the
// binary/text formats in `crate::io` cover (de)serialization needs.
#[derive(Clone, PartialEq, Eq)]
pub struct CsrGraph {
    /// `n + 1` entries ending at the arc count: `offsets[v]..offsets[v + 1]`
    /// indexes `edges` with the neighbors of `v`.
    offsets: Box<[usize]>,
    /// The concatenated per-vertex-sorted adjacency lists.
    edges: Box<[VertexId]>,
}

impl CsrGraph {
    /// Builds a graph directly from CSR arrays.
    ///
    /// # Invariants (checked)
    ///
    /// * `offsets` is non-empty, starts at 0, is non-decreasing, and ends
    ///   at `edges.len()`.
    /// * every target in `edges` is `< n`.
    /// * no self-loops.
    /// * each adjacency list is strictly increasing (sorted, no duplicate
    ///   edges).
    /// * the arc set is symmetric (`u -> v` implies `v -> u`).
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated. Use the builder for untrusted
    /// input; this constructor is for generators that produce CSR form
    /// directly.
    pub fn from_parts(offsets: Vec<usize>, edges: Vec<VertexId>) -> Self {
        Self::try_from_parts(offsets, edges).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a graph from CSR arrays, checking the invariants listed on
    /// [`CsrGraph::from_parts`]; returns a description of the first
    /// violation instead of panicking. The whole offsets array is
    /// checked before any adjacency list is sliced, so arbitrary arrays
    /// (a malformed file, say) are safe to pass.
    pub fn try_from_parts(offsets: Vec<usize>, edges: Vec<VertexId>) -> Result<Self, String> {
        let g = Self { offsets: offsets.into_boxed_slice(), edges: edges.into_boxed_slice() };
        g.check()?;
        Ok(g)
    }

    /// Builds a graph from CSR arrays without checking invariants.
    ///
    /// Intended for deserialization of data this crate wrote itself and
    /// for generators whose output is validated by construction (and by
    /// their unit tests). Violating the invariants does not cause memory
    /// unsafety — neighbor access is bounds-checked — but algorithms may
    /// return wrong corenesses.
    pub fn from_parts_unchecked(offsets: Vec<usize>, edges: Vec<VertexId>) -> Self {
        debug_assert!(!offsets.is_empty() && *offsets.last().unwrap() == edges.len());
        Self { offsets: offsets.into_boxed_slice(), edges: edges.into_boxed_slice() }
    }

    /// The empty graph (no vertices, no edges).
    pub fn empty() -> Self {
        Self::from_parts_unchecked(vec![0], Vec::new())
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed arcs `m` (twice the number of undirected edges).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.edges.len()
    }

    /// Number of undirected edges (`num_arcs / 2`).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len() / 2
    }

    /// Degree of vertex `v` in the original graph.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// The sorted neighbor list of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.edges[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The range of arc positions belonging to `v` — indexes any array
    /// laid out parallel to the arc array, such as
    /// [`crate::EdgeIndex`]'s arc→edge-id map.
    #[inline]
    pub fn arc_range(&self, v: VertexId) -> std::ops::Range<usize> {
        let v = v as usize;
        self.offsets[v]..self.offsets[v + 1]
    }

    /// Whether the undirected edge `{u, v}` is present (binary search).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Iterator over undirected edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u).iter().copied().filter(move |&v| u < v).map(move |v| (u, v))
        })
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices())
            .into_par_iter()
            .map(|v| self.degree(v as VertexId))
            .max()
            .unwrap_or(0)
    }

    /// Average degree `m / n` (arcs per vertex); 0.0 for the empty graph.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_arcs() as f64 / self.num_vertices() as f64
        }
    }

    /// Degrees of all vertices as a vector (parallel).
    pub fn degrees(&self) -> Vec<u32> {
        (0..self.num_vertices())
            .into_par_iter()
            .map(|v| self.degree(v as VertexId) as u32)
            .collect()
    }

    /// The subgraph induced by the vertices for which `keep` is true.
    ///
    /// Returns the induced subgraph together with the mapping from new
    /// vertex ids to original ids. Vertices keep their relative order.
    pub fn induced_subgraph(&self, keep: &[bool]) -> (CsrGraph, Vec<VertexId>) {
        assert_eq!(keep.len(), self.num_vertices(), "keep mask length mismatch");
        // Old-id -> new-id mapping; u32::MAX marks dropped vertices.
        let mut remap = vec![VertexId::MAX; self.num_vertices()];
        let mut back = Vec::new();
        for v in 0..self.num_vertices() {
            if keep[v] {
                remap[v] = back.len() as VertexId;
                back.push(v as VertexId);
            }
        }
        let mut offsets = Vec::with_capacity(back.len() + 1);
        offsets.push(0usize);
        let mut edges = Vec::new();
        for &old in &back {
            for &nbr in self.neighbors(old) {
                if keep[nbr as usize] {
                    edges.push(remap[nbr as usize]);
                }
            }
            offsets.push(edges.len());
        }
        (CsrGraph::from_parts_unchecked(offsets, edges), back)
    }

    /// Checks all structural invariants; panics with a description on
    /// the first violation. Used by tests.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }

    /// Checks all structural invariants, returning a description of the
    /// first violation.
    pub(crate) fn check(&self) -> Result<(), String> {
        let offsets = &self.offsets;
        if offsets.first() != Some(&0) {
            return Err("offsets must start at 0".into());
        }
        if offsets.last() != Some(&self.edges.len()) {
            return Err("offsets must end at the arc count".into());
        }
        if let Some(v) = offsets.windows(2).position(|w| w[0] > w[1]) {
            return Err(format!("offsets must be non-decreasing at vertex {v}"));
        }
        // Every adjacency slice is now in range.
        let n = self.num_vertices();
        for v in 0..n {
            let nbrs = self.neighbors(v as VertexId);
            if let Some(w) = nbrs.windows(2).find(|w| w[0] >= w[1]) {
                let (a, b) = (w[0], w[1]);
                return Err(format!("adjacency of {v} must be strictly increasing: {a} !< {b}"));
            }
            if let Some(&u) = nbrs.iter().find(|&&u| u as usize >= n) {
                return Err(format!("neighbor {u} of {v} out of range"));
            }
            if nbrs.binary_search(&(v as VertexId)).is_ok() {
                return Err(format!("self-loop at {v}"));
            }
        }
        // Symmetry: u -> v implies v -> u.
        let asymmetric = (0..n as VertexId)
            .into_par_iter()
            .any(|u| self.neighbors(u).iter().any(|&v| !self.has_edge(v, u)));
        if asymmetric {
            return Err("arc set must be symmetric".into());
        }
        Ok(())
    }
}

impl crate::backend::GraphBackend for CsrGraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.num_vertices()
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        self.degree(v)
    }

    #[inline]
    fn neighbors_slice(&self, v: VertexId) -> &[VertexId] {
        self.neighbors(v)
    }

    fn memory(&self) -> crate::stats::MemoryFootprint {
        crate::stats::MemoryFootprint {
            backend: "csr",
            offsets_bytes: std::mem::size_of_val(&*self.offsets),
            neighbor_bytes: self.num_arcs() * std::mem::size_of::<VertexId>(),
            aux_bytes: 0,
            arcs: self.num_arcs(),
        }
    }
}

impl std::fmt::Debug for CsrGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CsrGraph")
            .field("n", &self.num_vertices())
            .field("arcs", &self.num_arcs())
            .field("max_degree", &self.max_degree())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle() -> CsrGraph {
        GraphBuilder::new(3).edges([(0, 1), (1, 2), (0, 2)]).build()
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_arcs(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        g.validate();
    }

    #[test]
    fn triangle_basics() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_arcs(), 6);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 0));
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.avg_degree(), 2.0);
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn degrees_vector_matches_degree() {
        let g = triangle();
        assert_eq!(g.degrees(), vec![2, 2, 2]);
    }

    #[test]
    fn induced_subgraph_drops_vertices_and_their_edges() {
        // Path 0-1-2-3; keep {0, 1, 3}.
        let g = GraphBuilder::new(4).edges([(0, 1), (1, 2), (2, 3)]).build();
        let (sub, back) = g.induced_subgraph(&[true, true, false, true]);
        assert_eq!(back, vec![0, 1, 3]);
        assert_eq!(sub.num_vertices(), 3);
        // Only edge {0, 1} survives.
        assert_eq!(sub.num_edges(), 1);
        assert!(sub.has_edge(0, 1));
        assert_eq!(sub.degree(2), 0);
        sub.validate();
    }

    #[test]
    fn induced_subgraph_of_everything_is_identity() {
        let g = triangle();
        let (sub, back) = g.induced_subgraph(&[true; 3]);
        assert_eq!(back, vec![0, 1, 2]);
        assert_eq!(sub, g);
    }

    #[test]
    fn memory_footprint_counts_both_arrays() {
        use crate::backend::GraphBackend;
        let g = triangle();
        let m = GraphBackend::memory(&g);
        assert_eq!(m.offsets_bytes, 4 * std::mem::size_of::<usize>());
        assert_eq!(m.neighbor_bytes, 6 * 4);
        assert_eq!(m.aux_bytes, 0);
        assert_eq!(m.total_bytes(), m.offsets_bytes + m.neighbor_bytes);
        assert!((m.bytes_per_edge() - m.total_bytes() as f64 / 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn from_parts_rejects_self_loops() {
        CsrGraph::from_parts(vec![0, 1], vec![0]);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn from_parts_rejects_asymmetric_arcs() {
        CsrGraph::from_parts(vec![0, 1, 1], vec![1]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_parts_rejects_duplicate_arcs() {
        CsrGraph::from_parts(vec![0, 2, 4], vec![1, 1, 0, 0]);
    }
}
