//! Degree-ordered directed graph view and the fused triangle setup.
//!
//! Triangle work on the raw symmetric CSR pays for hub vertices twice:
//! every intersection touches full adjacency lists (so any edge
//! incident to a hub costs `O(d_hub)`), and the initial k-truss support
//! computation re-intersects both endpoints of all `m` edges — the
//! `Σ d(u)·d(v)` term that dominated setup on the power-law benches.
//! The standard fix (kClist / GBBS truss lineage) is to **orient** each
//! undirected edge from its lower-ranked endpoint to its higher-ranked
//! one under the total order `rank(v) = (degree(v), v)`. The resulting
//! DAG's out-degrees are bounded by `O(√m)` on any graph (and are tiny
//! on power-law families), so:
//!
//! * every triangle `{a, b, c}` with `rank(a) < rank(b) < rank(c)` is
//!   discovered **exactly once**, as `c ∈ N⁺(a) ∩ N⁺(b)` at the
//!   oriented arc `a → b`;
//! * the per-pair intersections run over out-lists instead of full
//!   adjacency lists.
//!
//! [`TriangleCtx`] is the k-truss setup: a **fused one-pass build** of
//! the [`EdgeIndex`], the oriented arcs annotated with edge ids, and
//! the per-edge supports (computed from the oriented view by one
//! discovery sweep, replacing the full re-intersection).
//! Everything it stores is `O(n + m)`; no per-triangle state is
//! materialized.
//!
//! The sweep counts where it can own the count (as in Shun &
//! Tangwongsan, ICDE'15, and PKT, Kabir & Madduri, HPEC'17). The
//! source `u` of a triangle's lowest-ranked arc `u → v` owns two of
//! its three edges, the arc's own `{u, v}` and the companion `{u, w}`:
//! both are out-arcs of `u`, so `u` counts them with plain writes in
//! its own out-arc slots. Only the third edge `{v, w}` takes a shared
//! atomic add, and one pass at the end folds the slots into the
//! supports: at most `T + m` shared adds for `T` triangles instead of
//! `3T`. (When `u` is the hub the bitset kernel probes, the companion
//! is found by its position in `u`'s full list, not its out-list, and
//! takes a shared add too.)
//!
//! The peel's per-death enumeration intersects its own
//! live incidence lists through
//! [`TriangleCtx::for_each_common_neighbor`]. Lazily built per-hub
//! membership maps serve the bitset kernel; only a vertex of degree
//! at least [`BITSET_MIN_LEN`] can be a hub, so only those vertices
//! get a map slot. This is what `kcore`'s
//! k-truss client runs on; it can be built once and reused across
//! peels (`Decomposition::ktruss(&g).with_ctx(&ctx)`), and
//! [`crate::triangles::triangle_count`] reads its supports.
//!
//! Every intersection, in the discovery sweep and in the per-edge
//! enumeration, goes through one dispatch over the kernel that
//! [`kcore_parallel::intersect::choose`] resolves from the two list
//! lengths: the linear merge, or the packed-bitset probe of the longer
//! side's hub map. Both enumerate the same matches of two full lists
//! in the same (increasing-vertex) order, so supports and trussness do
//! not depend on which kernel ran.

use crate::csr::{CsrGraph, VertexId};
use crate::edges::EdgeIndex;
use kcore_check::sync::atomic::{AtomicU32, Ordering};
use kcore_obs::{counter, span};
use kcore_parallel::intersect::{
    choose, intersect_bitset_positions, ChosenKernel, PackedBitset, BITSET_MIN_LEN,
};
use kcore_parallel::primitives::{exclusive_scan, intersect_sorted_positions, SendPtr};
use rayon::prelude::*;
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

/// The hub-slot index of a vertex below [`BITSET_MIN_LEN`], which has
/// no hub-map slot.
const NO_HUB: u32 = u32::MAX;

/// Rank comparison of the degree ordering: `a` precedes `b` when
/// `(degree(a), a) < (degree(b), b)`. Ties on degree are broken by id,
/// so the order is total and the orientation acyclic.
#[inline]
fn rank_lt(g: &CsrGraph, a: VertexId, b: VertexId) -> bool {
    (g.degree(a), a) < (g.degree(b), b)
}

/// A hub vertex's membership structure: a packed bitmap over its full
/// neighborhood plus a per-word popcount prefix, so a probe resolves
/// both the match and the member's *position* in the sorted adjacency
/// list in `O(1)` — the companion edge id is then one index into the
/// hub's arc-aligned [`EdgeIndex::edge_ids`] slice, no table and no
/// search. Build cost is `O(n/64 + d)` (not `O(n)`), which keeps the
/// break-even degree low enough to map the whole hub tail. Built
/// lazily per hub and reused across every intersection the hub
/// participates in (supports build *and* peel).
#[derive(Clone)]
struct HubMap {
    /// Membership of `N(v)` over the vertex universe.
    bits: PackedBitset,
    /// `rank[i]` = number of members below word `i` (cumulative
    /// popcount of `bits.words()[..i]`).
    rank: Box<[u32]>,
}

impl HubMap {
    fn build(g: &CsrGraph, v: VertexId) -> Self {
        counter!("tri.bitmap.build", 1);
        let mut bits = PackedBitset::new(g.num_vertices());
        for &w in g.neighbors(v) {
            bits.set(w);
        }
        let mut acc = 0u32;
        let rank = bits
            .words()
            .iter()
            .map(|&word| {
                let r = acc;
                acc += word.count_ones();
                r
            })
            .collect();
        Self { bits, rank }
    }

    /// Position of member `w` within the hub's sorted adjacency list
    /// (only meaningful when `bits.contains(w)`).
    #[inline]
    fn position_of(&self, w: VertexId) -> usize {
        let wi = (w >> 6) as usize;
        let below = self.bits.words()[wi] & ((1u64 << (w & 63)) - 1);
        self.rank[wi] as usize + below.count_ones() as usize
    }
}

/// The fused k-truss triangle setup over one graph: edge ids, oriented
/// arcs annotated with those ids, initial per-edge supports, and the
/// lazily built hub maps. Its memory is `O(n + m)` on every graph (the
/// hub maps add `O(n/64 + d(v))` per hub the bitset kernel probes).
/// See the module docs for the construction.
pub struct TriangleCtx {
    /// Shared with every k-truss result assembled over this context.
    idx: Arc<EdgeIndex>,
    /// Out-CSR over the degree ordering; `out_eids` is laid out
    /// parallel to `out_targets` with each arc's undirected edge id.
    out_offsets: Box<[usize]>,
    out_targets: Box<[VertexId]>,
    out_eids: Box<[u32]>,
    supports: Vec<u32>,
    /// Per vertex, its slot in `hubs`, or [`NO_HUB`] below
    /// [`BITSET_MIN_LEN`].
    hub_slot: Box<[u32]>,
    hubs: Box<[OnceLock<HubMap>]>,
}

impl TriangleCtx {
    /// Builds the full triangle setup.
    ///
    /// One parallel pass assigns edge ids *and* writes the oriented
    /// arcs; a second parallel pass over the oriented arcs counts the
    /// supports: each triangle's two edges out of its source with plain
    /// writes in the source's own out-arc slots, the third with one
    /// relaxed atomic add, then one fold of the slots (see the module
    /// docs). Every count commutes, so the result is bit-identical to
    /// the reference [`crate::triangles::edge_supports`] recount for
    /// every kernel and schedule.
    pub fn build(g: &CsrGraph) -> Self {
        let _root = span!("tri.build", g.num_edges() as u64);
        let n = g.num_vertices();

        // Pass 1 (fused): per-vertex forward counts for the id order
        // (edge-id assignment, identical to `EdgeIndex::build`) and
        // out-counts for the degree order.
        let orient = span!("tri.orient", g.num_edges() as u64);
        let counts: Vec<[usize; 2]> = (0..n)
            .into_par_iter()
            .map(|u| {
                let u = u as VertexId;
                let nbrs = g.neighbors(u);
                let fwd = nbrs.len() - nbrs.partition_point(|&w| w < u);
                let odeg = nbrs.iter().filter(|&&w| rank_lt(g, u, w)).count();
                [fwd, odeg]
            })
            .collect();
        let fwd: Vec<usize> = counts.iter().map(|c| c[0]).collect();
        let odeg: Vec<usize> = counts.iter().map(|c| c[1]).collect();
        let (ebase, m) = exclusive_scan(&fwd);
        let (obase, m2) = exclusive_scan(&odeg);
        debug_assert_eq!(m, g.num_edges());
        debug_assert_eq!(m2, m);

        let mut arc_edge = vec![0u32; g.num_arcs()].into_boxed_slice();
        let mut endpoints = vec![[0 as VertexId; 2]; m].into_boxed_slice();
        let mut out_targets = vec![0 as VertexId; m].into_boxed_slice();
        let mut out_eids = vec![0u32; m].into_boxed_slice();
        let arc_ptr = SendPtr::new(arc_edge.as_mut_ptr());
        let end_ptr = SendPtr::new(endpoints.as_mut_ptr());
        let tgt_ptr = SendPtr::new(out_targets.as_mut_ptr());
        let eid_ptr = SendPtr::new(out_eids.as_mut_ptr());
        (0..n).into_par_iter().for_each(|u| {
            let uv = u as VertexId;
            let nbrs = g.neighbors(uv);
            let range = g.arc_range(uv);
            let first_fwd = nbrs.partition_point(|&w| w < uv);
            let mut o = obase[u];
            for (i, &v) in nbrs.iter().enumerate() {
                let id = if i >= first_fwd {
                    // Forward arc in id order: mint the id, record the
                    // endpoints.
                    let id = (ebase[u] + (i - first_fwd)) as u32;
                    // SAFETY: endpoint slot `id` is owned by vertex u.
                    unsafe { end_ptr.slot(id as usize).write([uv, v]) };
                    id
                } else {
                    // Backward arc: the id was minted by v at its
                    // forward offset of u.
                    let vn = g.neighbors(v);
                    let v_first_fwd = vn.len() - fwd[v as usize];
                    let pos = vn.binary_search(&uv).expect("arc set is symmetric");
                    debug_assert!(pos >= v_first_fwd, "u > v must be a forward target of v");
                    (ebase[v as usize] + (pos - v_first_fwd)) as u32
                };
                // SAFETY: arc position `range.start + i` is owned by u.
                unsafe { arc_ptr.slot(range.start + i).write(id) };
                if rank_lt(g, uv, v) {
                    // SAFETY: out slots obase[u]..obase[u]+odeg[u] are
                    // owned by vertex u.
                    unsafe {
                        tgt_ptr.slot(o).write(v);
                        eid_ptr.slot(o).write(id);
                    }
                    o += 1;
                }
            }
            debug_assert_eq!(o, obase[u] + odeg[u]);
        });
        drop(orient);

        let mut offsets = Vec::with_capacity(n + 1);
        offsets.extend_from_slice(&obase);
        offsets.push(m);
        // Only a list of at least BITSET_MIN_LEN entries is probed as a
        // hub, and every list is a subsequence of the vertex's
        // adjacency, so only such degrees get a map slot.
        let mut hubs = 0u32;
        let hub_slot = (0..n as VertexId)
            .map(|v| {
                if g.degree(v) < BITSET_MIN_LEN {
                    return NO_HUB;
                }
                hubs += 1;
                hubs - 1
            })
            .collect();
        let mut ctx = Self {
            idx: Arc::new(EdgeIndex::from_raw(arc_edge, endpoints)),
            out_offsets: offsets.into_boxed_slice(),
            out_targets,
            out_eids,
            supports: Vec::new(),
            hub_slot,
            hubs: (0..hubs).map(|_| OnceLock::new()).collect(),
        };

        // Pass 2: discovery. Nothing per triangle is stored.
        let sup_span = span!("tri.supports", m as u64);
        ctx.supports = ctx.oriented_supports(g, choose);
        counter!("tri.triangles", ctx.supports.iter().map(|&s| s as u64).sum::<u64>() / 3);
        drop(sup_span);
        ctx
    }

    /// The per-edge supports from one discovery sweep over the oriented
    /// view, parallel over source vertices. Each triangle is found once,
    /// at its lowest-ranked arc `u → v`, as `w` common to both
    /// out-lists. `u` counts the edges `{u, v}` and `{u, w}` in its own
    /// out-arc slots with plain writes, `{v, w}` takes a relaxed atomic
    /// add, and a final pass adds each slot to its edge. `pick` resolves
    /// each pair's kernel from the two out-list lengths
    /// ([`build`](Self::build) passes [`choose`]).
    fn oriented_supports<P>(&self, g: &CsrGraph, pick: P) -> Vec<u32>
    where
        P: Fn(usize, usize) -> ChosenKernel + Sync,
    {
        let m = self.out_targets.len();
        let shared: Vec<AtomicU32> = (0..m).map(|_| AtomicU32::new(0)).collect();
        let mut owned = vec![0u32; m];
        let owned_ptr = SendPtr::new(owned.as_mut_ptr());
        // A hub-map hit `w` is in the hub's out-list iff it outranks
        // the hub.
        let in_out_list = |hub, w| rank_lt(g, hub, w);
        let ids = self.idx.arc_edge_ids();
        (0..g.num_vertices()).into_par_iter().for_each(|u| {
            let (ou, eu) = self.out(u as VertexId);
            // SAFETY: vertex u owns its out-arc slots
            // out_offsets[u]..out_offsets[u + 1], the `ou.len()` slots
            // from out_offsets[u].
            let mine = unsafe {
                std::slice::from_raw_parts_mut(owned_ptr.slot(self.out_offsets[u]), ou.len())
            };
            for (p, &v) in ou.iter().enumerate() {
                let (ov, ev) = self.out(v);
                let (a, b) = ((u as VertexId, ou, eu), (v, ov, ev));
                let kernel = pick(ou.len(), ov.len());
                let mut found = 0u32;
                self.intersect_at(g, kernel, ids, a, b, in_out_list, |at_u, fe, ge, _| {
                    found += 1;
                    match at_u {
                        Some(i) => mine[i] += 1,
                        None => _ = shared[fe as usize].fetch_add(1, Ordering::Relaxed),
                    }
                    shared[ge as usize].fetch_add(1, Ordering::Relaxed);
                });
                mine[p] += found;
            }
        });
        // Every edge has exactly one out-arc slot; most slots of a
        // sparse graph count nothing.
        (0..m).into_par_iter().filter(|&s| owned[s] != 0).for_each(|s| {
            shared[self.out_eids[s] as usize].fetch_add(owned[s], Ordering::Relaxed);
        });
        shared.into_iter().map(AtomicU32::into_inner).collect()
    }

    /// The edge-id space built alongside the orientation.
    #[inline]
    pub fn edge_index(&self) -> &EdgeIndex {
        &self.idx
    }

    /// The edge-id space as a shared handle, for results that outlive
    /// the context (cloning it copies a pointer, not the index).
    #[inline]
    pub fn shared_edge_index(&self) -> Arc<EdgeIndex> {
        Arc::clone(&self.idx)
    }

    /// Initial triangle supports, indexed by edge id — the k-truss
    /// starting priorities.
    #[inline]
    pub fn supports(&self) -> &[u32] {
        &self.supports
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.supports.len()
    }

    /// Number of vertices of the graph the context was built from.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.hub_slot.len()
    }

    /// The oriented out-arcs of `u`: `(targets, edge ids)`, id-sorted.
    #[inline]
    pub fn out(&self, u: VertexId) -> (&[VertexId], &[u32]) {
        let u = u as usize;
        let r = self.out_offsets[u]..self.out_offsets[u + 1];
        (&self.out_targets[r.clone()], &self.out_eids[r])
    }

    /// The lazily built hub map of `v` (first caller pays the
    /// `O(n/64 + d(v))` build; `OnceLock` publishes it to everyone
    /// else). [`choose`] never probes a vertex below [`BITSET_MIN_LEN`],
    /// which has no slot; a forced probe of one builds a map for that
    /// call only.
    fn hub_map(&self, g: &CsrGraph, v: VertexId) -> Cow<'_, HubMap> {
        match self.hub_slot[v as usize] {
            NO_HUB => Cow::Owned(HubMap::build(g, v)),
            slot => Cow::Borrowed(self.hubs[slot as usize].get_or_init(|| HubMap::build(g, v))),
        }
    }

    /// Calls `f(fe, ge, w)` for every `w` common to two incidence
    /// lists of the endpoints `u` and `v`, where `fe` is the id of
    /// `{u, w}` and `ge` the id of `{v, w}`. Each list `(x, nx, ex)`
    /// is an id-sorted subsequence of `x`'s adjacency list (`nx`) with
    /// the matching ids (`ex`): the full lists with their edge ids, or
    /// the k-truss peel's live lists with settled edges compacted out
    /// and the peel's own element ids.
    ///
    /// `ids` holds the same id space per arc, laid out parallel to the
    /// graph's arc array ([`EdgeIndex::arc_edge_ids`] for edge ids).
    /// Only the bitset kernel reads it: a companion found through a
    /// hub's map is known by its position in the hub's full adjacency
    /// list, so its id comes from the hub's [`CsrGraph::arc_range`]
    /// slice of `ids`. Such a companion `{hub, w}` closes the triangle
    /// `{u, v, w}` in the graph, so `ids` need only be meaningful on
    /// arcs of edges that lie in a triangle.
    ///
    /// [`choose`] picks the kernel from the two list lengths. The merge
    /// intersects the two lists. The bitset kernel drives the shorter
    /// list through the other endpoint's (the hub's)
    /// *full-neighborhood* map and resolves the companion id by
    /// popcount rank, never by binary search; on subsequence input it
    /// therefore also reports every `w` of the shorter list whose edge
    /// to the hub is missing from the hub's list. Matches arrive in
    /// increasing `w`.
    #[inline]
    pub fn for_each_common_neighbor<F>(
        &self,
        g: &CsrGraph,
        ids: &[u32],
        a: (VertexId, &[VertexId], &[u32]),
        b: (VertexId, &[VertexId], &[u32]),
        f: F,
    ) where
        F: FnMut(u32, u32, VertexId),
    {
        self.intersect(g, choose(a.1.len(), b.1.len()), ids, a, b, |_, _| true, f);
    }

    /// The one kernel dispatch behind the discovery sweep and the
    /// per-edge enumeration: runs `kernel` over the incidence lists
    /// `(u, nu, eu)` and `(v, nv, ev)` with the arc-aligned `ids` (as
    /// in [`Self::for_each_common_neighbor`]) and calls `f(fe, ge, w)`
    /// per match. A bitset hit `w` on the hub `x` is reported only when
    /// `in_hub_list(x, w)`, the caller's test that `x`'s list holds the
    /// edge `{x, w}`.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn intersect<L, F>(
        &self,
        g: &CsrGraph,
        kernel: ChosenKernel,
        ids: &[u32],
        a: (VertexId, &[VertexId], &[u32]),
        b: (VertexId, &[VertexId], &[u32]),
        in_hub_list: L,
        mut f: F,
    ) where
        L: Fn(VertexId, VertexId) -> bool,
        F: FnMut(u32, u32, VertexId),
    {
        self.intersect_at(g, kernel, ids, a, b, in_hub_list, |_, fe, ge, w| f(fe, ge, w));
    }

    /// [`Self::intersect`], with `f(at_u, fe, ge, w)` also told where
    /// in `u`'s list the match sits: `Some(i)` when `nu[i] == w`, `None`
    /// when `u` is the probed hub (its map gives `w`'s position in
    /// `u`'s full adjacency list instead).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn intersect_at<L, F>(
        &self,
        g: &CsrGraph,
        kernel: ChosenKernel,
        ids: &[u32],
        (u, nu, eu): (VertexId, &[VertexId], &[u32]),
        (v, nv, ev): (VertexId, &[VertexId], &[u32]),
        in_hub_list: L,
        mut f: F,
    ) where
        L: Fn(VertexId, VertexId) -> bool,
        F: FnMut(Option<usize>, u32, u32, VertexId),
    {
        match kernel {
            ChosenKernel::Merge => {
                intersect_sorted_positions(nu, nv, |i, j| f(Some(i), eu[i], ev[j], nu[i]))
            }
            ChosenKernel::Bitset => {
                let mut hits = 0u64;
                if nu.len() <= nv.len() {
                    let map = self.hub_map(g, v);
                    let (hub, ev_full) = (&*map, &ids[g.arc_range(v)]);
                    intersect_bitset_positions(nu, &hub.bits, |i| {
                        let w = nu[i];
                        if in_hub_list(v, w) {
                            hits += 1;
                            f(Some(i), eu[i], ev_full[hub.position_of(w)], w);
                        }
                    });
                } else {
                    let map = self.hub_map(g, u);
                    let (hub, eu_full) = (&*map, &ids[g.arc_range(u)]);
                    intersect_bitset_positions(nv, &hub.bits, |j| {
                        let w = nv[j];
                        if in_hub_list(u, w) {
                            hits += 1;
                            f(None, eu_full[hub.position_of(w)], ev[j], w);
                        }
                    });
                }
                counter!("tri.bitmap.hit", hits);
            }
        }
    }
}

impl std::fmt::Debug for TriangleCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TriangleCtx").field("edges", &self.num_edges()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triangles::{edge_supports, for_each_triangle_of_edge};
    use crate::{gen, GraphBuilder};
    use kcore_parallel::pool::with_threads;

    type Pick = fn(usize, usize) -> ChosenKernel;

    /// The production choice, then each kernel forced on every pair.
    const PICKS: [(&str, Pick); 3] = [
        ("choose", choose),
        ("merge", |_, _| ChosenKernel::Merge),
        ("bitset", |_, _| ChosenKernel::Bitset),
    ];

    /// A wheel: hub 0 of degree `n - 1` over the rim cycle `1..n`.
    fn wheel(n: u32) -> CsrGraph {
        let rim = (1..n).map(|i| (i, if i + 1 < n { i + 1 } else { 1 }));
        GraphBuilder::new(n as usize).edges(rim.chain((1..n).map(|i| (0, i)))).build()
    }

    /// `K60` plus 30 pendants, pendant `60 + p` joined to clique
    /// vertices `2p` and `2p + 1`. Every clique vertex has degree 60,
    /// so the clique ranks by id and its out-lists run 59 long: arcs
    /// inside the clique probe the source's hub map, and the arc from a
    /// pendant to `2p + 1` probes the target's map, where the rank
    /// filter must reject `2p` (the triangle was found at `pendant →
    /// 2p`).
    fn clique_with_pendants() -> CsrGraph {
        let clique = (0..60u32).flat_map(|a| (a + 1..60).map(move |b| (a, b)));
        let pendants = (0..30u32).flat_map(|p| [(60 + p, 2 * p), (60 + p, 2 * p + 1)]);
        GraphBuilder::new(90).edges(clique.chain(pendants)).build()
    }

    fn test_graphs() -> Vec<(&'static str, CsrGraph)> {
        vec![
            ("empty", CsrGraph::empty()),
            ("edgeless", GraphBuilder::new(5).build()),
            ("triangle", GraphBuilder::new(3).edges([(0, 1), (1, 2), (0, 2)]).build()),
            ("k7", gen::complete(7)),
            ("star", gen::star(40)),
            ("wheel", wheel(80)),
            ("clique+pendants", clique_with_pendants()),
            ("ba", gen::barabasi_albert(250, 4, 9)),
            ("rmat", gen::rmat(8, 6, 0.57, 0.19, 0.19, 3)),
            ("planted", gen::planted_core(150, 2, 30, 4)),
            ("hcns", gen::hcns(12)),
            ("grid", gen::grid2d(9, 7)),
        ]
    }

    /// `v`'s full incidence list, as the dispatch takes it.
    fn full<'a>(
        g: &'a CsrGraph,
        idx: &'a EdgeIndex,
        v: VertexId,
    ) -> (VertexId, &'a [VertexId], &'a [u32]) {
        (v, g.neighbors(v), idx.edge_ids(g, v))
    }

    #[test]
    fn orientation_is_acyclic_and_covers_every_edge() {
        for (name, g) in test_graphs() {
            let ctx = TriangleCtx::build(&g);
            let mut arcs = 0usize;
            for u in g.vertices() {
                let (targets, eids) = ctx.out(u);
                let mut prev = None;
                for (&w, &e) in targets.iter().zip(eids) {
                    assert!(rank_lt(&g, u, w), "{name}: arc {u}->{w} violates the order");
                    assert_eq!(ctx.edge_index().edge_id(&g, u, w), Some(e), "{name}: {u}->{w}");
                    assert!(prev.is_none_or(|p| p < w), "{name}: out({u}) not id-sorted");
                    prev = Some(w);
                    arcs += 1;
                }
            }
            assert_eq!(arcs, g.num_edges(), "{name}");
        }
    }

    #[test]
    fn fused_edge_index_matches_the_reference_build() {
        for (name, g) in test_graphs() {
            let want = EdgeIndex::build(&g);
            let ctx = TriangleCtx::build(&g);
            let got = ctx.edge_index();
            assert_eq!(got.num_edges(), want.num_edges(), "{name}");
            for u in g.vertices() {
                assert_eq!(got.edge_ids(&g, u), want.edge_ids(&g, u), "{name}: vertex {u}");
            }
            for e in 0..want.num_edges() as u32 {
                assert_eq!(got.endpoints(e), want.endpoints(e), "{name}: edge {e}");
            }
        }
    }

    #[test]
    fn fused_supports_match_the_reference_for_every_kernel() {
        for (name, g) in test_graphs() {
            let want = edge_supports(&g, &EdgeIndex::build(&g));
            let ctx = TriangleCtx::build(&g);
            assert_eq!(ctx.supports(), want.as_slice(), "{name}: built supports drifted");
            for (kernel, pick) in PICKS {
                let got = ctx.oriented_supports(&g, pick);
                assert_eq!(got, want, "{name}: {kernel} supports drifted");
            }
        }
    }

    #[test]
    fn supports_match_the_reference_when_the_sweep_forks() {
        // Past the rayon shim's 2048-item inline cutoff on a 2-worker
        // pool, so sources sweep concurrently and their shared adds on
        // the third edge, and the fold of the owned slots, race for
        // real. The planted clique's arcs probe its members' hub maps.
        let graphs = [
            ("rmat", gen::rmat(12, 8, 0.57, 0.19, 0.19, 21)),
            ("planted", gen::planted_core(5000, 4, 80, 22)),
        ];
        with_threads(2, || {
            for (name, g) in &graphs {
                assert!(g.num_vertices() > 2048 && g.num_edges() > 2048, "{name} must fork");
                let want = edge_supports(g, &EdgeIndex::build(g));
                let ctx = TriangleCtx::build(g);
                assert_eq!(ctx.supports(), want.as_slice(), "{name}: built supports drifted");
                for (kernel, pick) in PICKS {
                    for rep in 0..4 {
                        let got = ctx.oriented_supports(g, pick);
                        assert!(got == want, "{name}: {kernel} supports drifted (repeat {rep})");
                    }
                }
            }
        });
    }

    #[test]
    fn oriented_enumeration_matches_the_reference_for_every_kernel() {
        for (name, g) in test_graphs() {
            let ctx = TriangleCtx::build(&g);
            let idx = ctx.edge_index();
            let ids = idx.arc_edge_ids();
            for e in 0..idx.num_edges() as u32 {
                let mut want = Vec::new();
                for_each_triangle_of_edge(&g, idx, e, |fe, ge, w| want.push((fe, ge, w)));
                let (u, v) = idx.endpoints(e);
                let (a, b) = (full(&g, idx, u), full(&g, idx, v));
                let mut got = Vec::new();
                ctx.for_each_common_neighbor(&g, ids, a, b, |fe, ge, w| got.push((fe, ge, w)));
                assert_eq!(got, want, "{name}: edge {e} through the public entry");
                for (kernel, pick) in PICKS {
                    let mut got = Vec::new();
                    let k = pick(a.1.len(), b.1.len());
                    ctx.intersect(&g, k, ids, a, b, |_, _| true, |fe, ge, w| got.push((fe, ge, w)));
                    assert_eq!(got, want, "{name}: edge {e} under {kernel}");
                }
            }
        }
    }

    #[test]
    fn triangle_count_fold_matches_supports_sum_for_every_kernel() {
        // The sweep charges each triangle to its three edges exactly
        // once under every kernel, so `triangles::triangle_count`
        // (supports / 3) holds. The count here is a brute-force one:
        // every `u < v < w` with all three edges.
        for (name, g) in test_graphs() {
            let mut want = 0u64;
            for (u, v) in g.edges() {
                want +=
                    g.neighbors(u).iter().filter(|&&w| w > v && g.has_edge(v, w)).count() as u64;
            }
            let ctx = TriangleCtx::build(&g);
            for (kernel, pick) in PICKS {
                let sum: u64 = ctx.oriented_supports(&g, pick).iter().map(|&s| s as u64).sum();
                assert_eq!((sum / 3, sum % 3), (want, 0), "{name}: {kernel} count");
            }
        }
    }

    #[test]
    fn hub_maps_resolve_companion_ids() {
        // A wheel: the hub has degree n-1, every rim edge's triangles
        // go through the hub's map under the bitset kernel. The lists
        // and the arc-aligned ids carry a relabelled id space (`!e`),
        // so a companion id must come from the `ids` argument.
        let g = wheel(200);
        let ctx = TriangleCtx::build(&g);
        let idx = ctx.edge_index();
        assert_eq!(ctx.supports(), edge_supports(&g, idx).as_slice());
        let ids: Vec<u32> = idx.arc_edge_ids().iter().map(|&e| !e).collect();
        for e in 0..idx.num_edges() as u32 {
            let (u, v) = idx.endpoints(e);
            let list = |x| (x, g.neighbors(x), &ids[g.arc_range(x)]);
            let mut seen = 0u32;
            ctx.intersect(
                &g,
                ChosenKernel::Bitset,
                &ids,
                list(u),
                list(v),
                |_, _| true,
                |fe, ge, w| {
                    assert_eq!(idx.edge_id(&g, u, w), Some(!fe));
                    assert_eq!(idx.edge_id(&g, v, w), Some(!ge));
                    seen += 1;
                },
            );
            assert_eq!(seen, ctx.supports()[e as usize], "edge {e}");
        }
    }

    #[test]
    fn common_neighbors_on_subsequence_lists_follow_the_hub_contract() {
        // Live lists as the k-truss peel keeps them: each vertex's list
        // drops some of its edges, and the two endpoints of an edge need
        // not agree on whether it is listed.
        let listed = |x: VertexId, e: u32| !(x as u64 * 7 + e as u64 * 13).is_multiple_of(5);
        for (name, g) in test_graphs() {
            let ctx = TriangleCtx::build(&g);
            let idx = ctx.edge_index();
            let ids = idx.arc_edge_ids();
            let live: Vec<(Vec<VertexId>, Vec<u32>)> = g
                .vertices()
                .map(|x| {
                    let keep = |&(_, e): &(&VertexId, &u32)| listed(x, *e);
                    g.neighbors(x).iter().zip(idx.edge_ids(&g, x)).filter(keep).unzip()
                })
                .collect();
            let list = |x: VertexId| {
                let (nx, ex) = &live[x as usize];
                (x, nx.as_slice(), ex.as_slice())
            };
            let mut probed = false;
            for e in 0..idx.num_edges() as u32 {
                let (u, v) = idx.endpoints(e);
                let (a, b) = (list(u), list(v));
                let run = |kernel| {
                    let mut out = Vec::new();
                    ctx.intersect(
                        &g,
                        kernel,
                        ids,
                        a,
                        b,
                        |_, _| true,
                        |fe, ge, w| out.push((fe, ge, w)),
                    );
                    out
                };
                let merged = run(ChosenKernel::Merge);
                let probed_hits = run(ChosenKernel::Bitset);
                // The merge reports exactly the `w` both lists hold.
                let in_list = |x: VertexId, w| list(x).1.binary_search(&w).is_ok();
                let both: Vec<VertexId> = a.1.iter().copied().filter(|&w| in_list(v, w)).collect();
                assert_eq!(merged.iter().map(|t| t.2).collect::<Vec<_>>(), both, "{name}: {e}");
                // Where both edges are listed, the probe reports the
                // same matches, with the same ids.
                for t in &merged {
                    assert!(probed_hits.contains(t), "{name}: edge {e}, {t:?}");
                }
                // Its extra matches are exactly the shorter list's `w`
                // adjacent to the hub whose edge the hub's list misses,
                // with the true companion ids.
                let (drive, hub) = if a.1.len() <= b.1.len() { (a, v) } else { (b, u) };
                let missing: Vec<VertexId> = drive
                    .1
                    .iter()
                    .copied()
                    .filter(|&w| g.has_edge(hub, w) && !in_list(hub, w))
                    .collect();
                let extra: Vec<VertexId> =
                    probed_hits.iter().filter(|t| !merged.contains(t)).map(|t| t.2).collect();
                assert_eq!(extra, missing, "{name}: edge {e}");
                probed |= !extra.is_empty();
                for &(fe, ge, w) in &probed_hits {
                    assert_eq!(idx.edge_id(&g, u, w), Some(fe), "{name}: edge {e}");
                    assert_eq!(idx.edge_id(&g, v, w), Some(ge), "{name}: edge {e}");
                }
                // The public entry runs whichever kernel `choose` picks.
                let mut got = Vec::new();
                ctx.for_each_common_neighbor(&g, ids, a, b, |fe, ge, w| got.push((fe, ge, w)));
                match choose(a.1.len(), b.1.len()) {
                    ChosenKernel::Merge => assert_eq!(got, merged, "{name}: edge {e}"),
                    ChosenKernel::Bitset => assert_eq!(got, probed_hits, "{name}: edge {e}"),
                }
            }
            if name == "clique+pendants" {
                assert!(probed, "{name}: the probe must report a missing hub edge");
            }
        }
    }
}
