//! Edge-id view over a CSR graph.
//!
//! Vertex peeling works on the CSR arrays directly, but *edge* peeling
//! (k-truss decomposition) needs a dense id space over the undirected
//! edges: each edge `{u, v}` gets one id shared by both of its arcs, so
//! per-edge state (triangle support, settle round) lives in flat arrays
//! and the bucket structures can treat edges as opaque elements.
//!
//! [`EdgeIndex`] materializes that view in `O(n + m)` work: an
//! arc-position → edge-id map laid out parallel to the graph's arc
//! array, plus an edge-id → endpoints table. Ids are assigned in arc
//! order of the `u < v` direction, so they are deterministic for a given
//! graph and iteration over `0..num_edges()` visits edges sorted by
//! `(min endpoint, max endpoint)`.

use crate::csr::{CsrGraph, VertexId};
use kcore_parallel::primitives::{exclusive_scan, SendPtr};
use rayon::prelude::*;

/// Dense undirected-edge ids over a [`CsrGraph`].
///
/// Built once per graph ([`EdgeIndex::build`]); immutable afterwards.
/// All lookups are `O(1)` except [`EdgeIndex::edge_id`], which binary
/// searches an adjacency list.
#[derive(Debug, Clone)]
pub struct EdgeIndex {
    /// `arc_edge[p]` is the edge id of the arc stored at position `p` of
    /// the graph's arc array (both directions of an edge map to the same
    /// id). Indexed via [`CsrGraph::arc_range`].
    arc_edge: Box<[u32]>,
    /// `endpoints[e]` is the edge's vertex pair with `endpoints[e][0] <
    /// endpoints[e][1]`.
    endpoints: Box<[[VertexId; 2]]>,
}

impl EdgeIndex {
    /// Assigns ids to every undirected edge of `g`.
    ///
    /// Parallel over vertices: forward arcs (`u -> v` with `u < v`) take
    /// consecutive ids from a per-vertex base computed by prefix scan;
    /// backward arcs find their id by binary searching the forward
    /// direction.
    pub fn build(g: &CsrGraph) -> Self {
        let n = g.num_vertices();
        // Forward-arc counts per vertex: neighbors above the vertex id.
        // Adjacency lists are strictly increasing, so this is a suffix.
        let fwd: Vec<usize> = (0..n)
            .into_par_iter()
            .map(|u| {
                let nbrs = g.neighbors(u as VertexId);
                nbrs.len() - nbrs.partition_point(|&w| w < u as VertexId)
            })
            .collect();
        let (base, m) = exclusive_scan(&fwd);
        debug_assert_eq!(m, g.num_edges());

        let mut arc_edge = vec![0u32; g.num_arcs()].into_boxed_slice();
        let mut endpoints = vec![[0 as VertexId; 2]; m].into_boxed_slice();
        // Disjoint per-vertex writes: vertex u owns its own arc range and
        // the endpoint slots of its forward ids [base[u], base[u]+fwd[u]).
        let arc_ptr = SendPtr::new(arc_edge.as_mut_ptr());
        let end_ptr = SendPtr::new(endpoints.as_mut_ptr());
        (0..n).into_par_iter().for_each(|u| {
            let nbrs = g.neighbors(u as VertexId);
            let range = g.arc_range(u as VertexId);
            let first_fwd = nbrs.partition_point(|&w| w < u as VertexId);
            for (i, &v) in nbrs.iter().enumerate() {
                let id = if i >= first_fwd {
                    // Forward arc: mint the id and record the endpoints.
                    let id = (base[u] + (i - first_fwd)) as u32;
                    // SAFETY: slot `id` is owned by vertex u (see above).
                    unsafe { end_ptr.slot(id as usize).write([u as VertexId, v]) };
                    id
                } else {
                    // Backward arc: the forward direction lives in v's
                    // list, at v's forward offset of u. The split point
                    // is already known from the counts pass.
                    let vn = g.neighbors(v);
                    let v_first_fwd = vn.len() - fwd[v as usize];
                    let pos = vn.binary_search(&(u as VertexId)).expect("arc set is symmetric");
                    debug_assert!(pos >= v_first_fwd, "u > v must be a forward target of v");
                    (base[v as usize] + (pos - v_first_fwd)) as u32
                };
                // SAFETY: arc position `range.start + i` is owned by u.
                unsafe { arc_ptr.slot(range.start + i).write(id) };
            }
        });
        Self { arc_edge, endpoints }
    }

    /// Assembles an index from pre-built arrays — the fused
    /// orientation+index pass in [`crate::dodg`] mints ids in exactly
    /// the order [`EdgeIndex::build`] would.
    #[inline]
    pub(crate) fn from_raw(arc_edge: Box<[u32]>, endpoints: Box<[[VertexId; 2]]>) -> Self {
        Self { arc_edge, endpoints }
    }

    /// Number of undirected edges (the size of the id space).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.endpoints.len()
    }

    /// Edge ids of `v`'s arcs, aligned with `g.neighbors(v)`:
    /// `edge_ids(g, v)[i]` is the id of edge `{v, g.neighbors(v)[i]}`.
    #[inline]
    pub fn edge_ids(&self, g: &CsrGraph, v: VertexId) -> &[u32] {
        &self.arc_edge[g.arc_range(v)]
    }

    /// Edge ids of every arc, laid out parallel to the graph's arc
    /// array: [`EdgeIndex::edge_ids`] of `v` is the
    /// [`CsrGraph::arc_range`] slice of it.
    #[inline]
    pub fn arc_edge_ids(&self) -> &[u32] {
        &self.arc_edge
    }

    /// The edge's endpoints `(u, v)` with `u < v`.
    #[inline]
    pub fn endpoints(&self, e: u32) -> (VertexId, VertexId) {
        let [u, v] = self.endpoints[e as usize];
        (u, v)
    }

    /// Id of edge `{u, v}`, or `None` if the edge is absent.
    pub fn edge_id(&self, g: &CsrGraph, u: VertexId, v: VertexId) -> Option<u32> {
        let pos = g.neighbors(u).binary_search(&v).ok()?;
        Some(self.arc_edge[g.arc_range(u).start + pos])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, GraphBuilder};

    fn check_invariants(g: &CsrGraph) {
        let idx = EdgeIndex::build(g);
        assert_eq!(idx.num_edges(), g.num_edges());
        // Every arc maps to an id whose endpoints are the arc's ends,
        // and both directions agree.
        for u in g.vertices() {
            let ids = idx.edge_ids(g, u);
            assert_eq!(ids.len(), g.degree(u));
            for (&v, &e) in g.neighbors(u).iter().zip(ids) {
                let (a, b) = idx.endpoints(e);
                assert_eq!((a, b), (u.min(v), u.max(v)), "arc {u}->{v} got edge {e}");
                assert_eq!(idx.edge_id(g, u, v), Some(e));
                assert_eq!(idx.edge_id(g, v, u), Some(e));
            }
        }
        // Ids are a permutation of 0..m: every id minted exactly once.
        let mut seen = vec![false; idx.num_edges()];
        for (u, v) in g.edges() {
            let e = idx.edge_id(g, u, v).unwrap() as usize;
            assert!(!seen[e], "edge id {e} assigned twice");
            seen[e] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn triangle_ids() {
        let g = GraphBuilder::new(3).edges([(0, 1), (1, 2), (0, 2)]).build();
        let idx = EdgeIndex::build(&g);
        // Arc order of forward arcs: (0,1), (0,2), (1,2).
        assert_eq!(idx.endpoints(0), (0, 1));
        assert_eq!(idx.endpoints(1), (0, 2));
        assert_eq!(idx.endpoints(2), (1, 2));
        check_invariants(&g);
    }

    #[test]
    fn absent_edges_have_no_id() {
        let g = GraphBuilder::new(4).edges([(0, 1), (2, 3)]).build();
        let idx = EdgeIndex::build(&g);
        assert_eq!(idx.edge_id(&g, 0, 2), None);
        assert_eq!(idx.edge_id(&g, 1, 3), None);
    }

    #[test]
    fn generator_families_index_cleanly() {
        check_invariants(&gen::grid2d(7, 9));
        check_invariants(&gen::complete(12));
        check_invariants(&gen::barabasi_albert(300, 3, 5));
        check_invariants(&gen::hcns(15));
        check_invariants(&gen::star(20));
        check_invariants(&CsrGraph::empty());
        check_invariants(&GraphBuilder::new(5).build());
    }
}
