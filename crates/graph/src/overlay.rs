//! Mutable edge-delta overlay over an immutable CSR base.
//!
//! [`OverlayGraph`] is the graph type behind batch-dynamic maintenance:
//! an immutable [`CsrGraph`] base plus a per-vertex delta layer. Vertices
//! whose adjacency never changed serve their neighbor slice straight from
//! the base CSR; a vertex touched by an insert or delete gets its merged,
//! sorted adjacency materialized once in the overlay and mutated in place
//! thereafter. The logical graph therefore always answers `neighbors(v)`
//! as a contiguous sorted slice — exactly the contract the peel engine's
//! unit-incidence path needs — without rebuilding the CSR per batch.
//!
//! The overlay grows with the touched set, not the batch count: repeated
//! edits to the same vertices reuse their materialized lists. When the
//! overlay's arc footprint becomes a large fraction of the logical graph,
//! callers *compact*: [`OverlayGraph::compact`] rebuilds the base through
//! the parallel builder ([`crate::builder::from_symmetric_arcs`]) and
//! drops the delta layer.

use crate::builder::from_symmetric_arcs;
use crate::csr::{CsrGraph, VertexId};
use rayon::prelude::*;

/// An undirected graph stored as an immutable CSR base plus a mutable
/// edge-delta overlay.
///
/// Invariants mirror [`CsrGraph`]: no self-loops, symmetric arcs, and
/// every adjacency list strictly increasing. Both are maintained by
/// construction on every [`OverlayGraph::insert_edge`] /
/// [`OverlayGraph::delete_edge`].
#[derive(Clone)]
pub struct OverlayGraph {
    /// Immutable snapshot most vertices still read from.
    base: CsrGraph,
    /// `touched[v]` is `Some(list)` once `v`'s adjacency diverged from
    /// the base (or `v` is a grown vertex); `list` is the full merged
    /// adjacency of `v`, sorted strictly increasing. Length is the
    /// logical vertex count, which may exceed the base's.
    touched: Vec<Option<Vec<VertexId>>>,
    /// Arcs held in materialized overlay lists (compaction pressure).
    overlay_arcs: usize,
    /// Arcs in the logical graph (base arcs ± applied deltas).
    logical_arcs: usize,
}

impl OverlayGraph {
    /// Wraps a base graph with an empty delta layer.
    pub fn new(base: CsrGraph) -> Self {
        let n = base.num_vertices();
        let logical_arcs = base.num_arcs();
        Self { base, touched: vec![None; n], overlay_arcs: 0, logical_arcs }
    }

    /// The immutable base snapshot (ignores pending deltas).
    pub fn base(&self) -> &CsrGraph {
        &self.base
    }

    /// Number of vertices in the logical graph.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.touched.len()
    }

    /// Number of directed arcs in the logical graph.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.logical_arcs
    }

    /// Number of undirected edges in the logical graph.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.logical_arcs / 2
    }

    /// Arcs currently materialized in the overlay layer. This is the
    /// compaction pressure gauge: it grows with the set of touched
    /// vertices (each materialization copies that vertex's base
    /// adjacency), not with the number of applied edits.
    pub fn overlay_arcs(&self) -> usize {
        self.overlay_arcs
    }

    /// Overlay arc footprint as a fraction of the logical arc count
    /// (0.0 for a pristine overlay; can exceed 1.0 after heavy deletion).
    pub fn dirty_fraction(&self) -> f64 {
        self.overlay_arcs as f64 / self.logical_arcs.max(1) as f64
    }

    /// The sorted neighbor list of `v` in the logical graph.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        match &self.touched[v as usize] {
            Some(list) => list,
            None => self.base.neighbors(v),
        }
    }

    /// Degree of `v` in the logical graph.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.neighbors(v).len()
    }

    /// Degrees of all vertices as a vector (parallel).
    pub fn degrees(&self) -> Vec<u32> {
        (0..self.num_vertices() as VertexId)
            .into_par_iter()
            .map(|v| self.degree(v) as u32)
            .collect()
    }

    /// Whether the undirected edge `{u, v}` is present in the logical
    /// graph (binary search).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        (u as usize) < self.num_vertices()
            && (v as usize) < self.num_vertices()
            && self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over the logical graph's undirected edges as `(u, v)`
    /// with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices() as VertexId).flat_map(move |u| {
            self.neighbors(u).iter().copied().filter(move |&v| u < v).map(move |v| (u, v))
        })
    }

    /// Extends the vertex universe to at least `n` vertices; new
    /// vertices start isolated.
    pub fn grow_to(&mut self, n: usize) {
        assert!(n <= VertexId::MAX as usize, "vertex count {n} exceeds the u32 id space");
        if n > self.touched.len() {
            // Grown vertices are "touched" with an empty list so that
            // `neighbors` never indexes past the base's offsets.
            self.touched.resize_with(n, || Some(Vec::new()));
        }
    }

    /// Materializes `v`'s adjacency in the overlay, copying the base
    /// slice on first touch.
    fn materialize(&mut self, v: VertexId) -> &mut Vec<VertexId> {
        let slot = &mut self.touched[v as usize];
        if slot.is_none() {
            let list = self.base.neighbors(v).to_vec();
            self.overlay_arcs += list.len();
            *slot = Some(list);
        }
        slot.as_mut().expect("just materialized")
    }

    /// Inserts the undirected edge `{u, v}`, growing the vertex universe
    /// if an endpoint is new. Returns `false` (and changes nothing) for
    /// self-loops and edges already present.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return false;
        }
        self.grow_to(u.max(v) as usize + 1);
        if self.has_edge(u, v) {
            return false;
        }
        for (a, b) in [(u, v), (v, u)] {
            let list = self.materialize(a);
            let pos = list.binary_search(&b).expect_err("edge known absent");
            list.insert(pos, b);
        }
        self.overlay_arcs += 2;
        self.logical_arcs += 2;
        true
    }

    /// Deletes the undirected edge `{u, v}`. Returns `false` (and
    /// changes nothing) if the edge is not present.
    pub fn delete_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if !self.has_edge(u, v) {
            return false;
        }
        for (a, b) in [(u, v), (v, u)] {
            let list = self.materialize(a);
            let pos = list.binary_search(&b).expect("edge known present");
            list.remove(pos);
        }
        self.overlay_arcs -= 2;
        self.logical_arcs -= 2;
        true
    }

    /// Renders the logical graph as a standalone [`CsrGraph`] via the
    /// parallel builder. The overlay is unchanged.
    pub fn to_csr(&self) -> CsrGraph {
        let n = self.num_vertices();
        let mut arcs = Vec::with_capacity(self.logical_arcs);
        for u in 0..n as VertexId {
            arcs.extend(self.neighbors(u).iter().map(|&v| (u, v)));
        }
        from_symmetric_arcs(n, arcs)
    }

    /// Rebuilds the base CSR from the logical graph (parallel builder)
    /// and drops the delta layer, resetting [`OverlayGraph::overlay_arcs`]
    /// to zero.
    pub fn compact(&mut self) {
        self.base = self.to_csr();
        self.touched = vec![None; self.base.num_vertices()];
        self.overlay_arcs = 0;
        debug_assert_eq!(self.logical_arcs, self.base.num_arcs());
    }
}

impl crate::backend::GraphBackend for OverlayGraph {
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
        let base = crate::backend::GraphBackend::memory(&self.base);
        // Delta layer: one Option slot per logical vertex plus the
        // materialized lists (capacity unknown; count live arcs).
        let aux = self.touched.len() * std::mem::size_of::<Option<Vec<VertexId>>>()
            + self.overlay_arcs * std::mem::size_of::<VertexId>();
        crate::stats::MemoryFootprint {
            backend: "overlay",
            offsets_bytes: base.offsets_bytes,
            neighbor_bytes: base.neighbor_bytes,
            aux_bytes: base.aux_bytes + aux,
            arcs: self.num_arcs(),
        }
    }
}

impl std::fmt::Debug for OverlayGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OverlayGraph")
            .field("n", &self.num_vertices())
            .field("arcs", &self.num_arcs())
            .field("overlay_arcs", &self.overlay_arcs)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn path4() -> CsrGraph {
        GraphBuilder::new(4).edges([(0, 1), (1, 2), (2, 3)]).build()
    }

    #[test]
    fn pristine_overlay_mirrors_base() {
        let g = OverlayGraph::new(path4());
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.overlay_arcs(), 0);
        assert_eq!(g.dirty_fraction(), 0.0);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.degrees(), vec![1, 2, 2, 1]);
        assert!(g.has_edge(2, 1));
        assert_eq!(g.to_csr(), path4());
    }

    #[test]
    fn insert_materializes_endpoints_only() {
        let mut g = OverlayGraph::new(path4());
        assert!(g.insert_edge(0, 3));
        assert_eq!(g.neighbors(0), &[1, 3]);
        assert_eq!(g.neighbors(3), &[0, 2]);
        assert_eq!(g.neighbors(1), &[0, 2], "untouched vertex still reads the base");
        // Each endpoint copied its base adjacency (1 arc each) plus the
        // two new arcs.
        assert_eq!(g.overlay_arcs(), 4);
        assert_eq!(g.num_edges(), 4);
        assert!(!g.insert_edge(0, 3), "duplicate insert is a no-op");
        assert!(!g.insert_edge(2, 2), "self-loop rejected");
        assert_eq!(g.num_edges(), 4);
        g.to_csr().validate();
    }

    #[test]
    fn delete_then_reinsert_round_trips() {
        let mut g = OverlayGraph::new(path4());
        assert!(g.delete_edge(1, 2));
        assert!(!g.has_edge(2, 1));
        assert!(!g.delete_edge(1, 2), "double delete is a no-op");
        assert_eq!(g.num_edges(), 2);
        assert!(g.insert_edge(2, 1));
        assert_eq!(g.to_csr(), path4());
    }

    #[test]
    fn insert_grows_vertex_universe() {
        let mut g = OverlayGraph::new(path4());
        assert!(g.insert_edge(3, 6));
        assert_eq!(g.num_vertices(), 7);
        assert_eq!(g.degree(5), 0, "grown vertices start isolated");
        assert_eq!(g.neighbors(6), &[3]);
        let csr = g.to_csr();
        assert_eq!(csr.num_vertices(), 7);
        csr.validate();
    }

    #[test]
    fn compact_resets_overlay_and_preserves_graph() {
        let mut g = OverlayGraph::new(path4());
        g.insert_edge(0, 2);
        g.delete_edge(2, 3);
        g.insert_edge(1, 5);
        let before = g.to_csr();
        assert!(g.overlay_arcs() > 0);
        g.compact();
        assert_eq!(g.overlay_arcs(), 0);
        assert_eq!(g.dirty_fraction(), 0.0);
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.to_csr(), before);
        assert_eq!(g.base(), &before);
        // Still editable after compaction.
        assert!(g.delete_edge(0, 2));
        assert_eq!(g.num_edges(), before.num_edges() - 1);
    }

    #[test]
    fn edges_iterator_matches_csr() {
        let mut g = OverlayGraph::new(path4());
        g.insert_edge(0, 3);
        g.delete_edge(0, 1);
        let listed: Vec<_> = g.edges().collect();
        let csr: Vec<_> = g.to_csr().edges().collect();
        assert_eq!(listed, csr);
    }

    #[test]
    fn overlay_on_empty_base() {
        let mut g = OverlayGraph::new(CsrGraph::empty());
        assert_eq!(g.num_vertices(), 0);
        assert!(g.insert_edge(0, 1));
        assert_eq!(g.num_vertices(), 2);
        assert_eq!(g.num_edges(), 1);
        g.compact();
        assert!(g.has_edge(0, 1));
    }
}
