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
//! Two types implement the view:
//!
//! * [`Dodg`] — the bare orientation (out-targets only), enough for
//!   [`Dodg::triangle_count`]'s allocation-free parallel fold.
//! * [`TriangleCtx`] — the k-truss setup: a **fused one-pass build** of
//!   the [`EdgeIndex`], the oriented arcs annotated with edge ids, and
//!   the per-edge supports (computed from the oriented view by one
//!   buffer-free discovery sweep, replacing the full re-intersection).
//!   Everything it stores is `O(n + m)`; no per-triangle state is
//!   materialized. The peel's per-death enumeration intersects its own
//!   live incidence lists through
//!   [`TriangleCtx::for_each_common_neighbor`]. Lazily built per-hub
//!   membership maps serve the bitset kernel. This is what
//!   `kcore`'s k-truss client runs on; it can be built once and reused
//!   across peels (`Decomposition::ktruss(&g).with_ctx(&ctx)`).
//!
//! Intersections pick a kernel per pair — linear merge, galloping, or
//! packed-bitset probe — through [`kcore_parallel::intersect::choose`];
//! the policy is overridable via `KCORE_TRI_KERNEL`. All kernels
//! enumerate the same matches in the same (increasing-vertex) order,
//! so supports and trussness are bit-identical across kernels.

use crate::csr::{CsrGraph, VertexId};
use crate::edges::EdgeIndex;
use kcore_check::sync::atomic::{AtomicU32, Ordering};
use kcore_obs::{counter, span};
use kcore_parallel::intersect::{
    choose, intersect_bitset_positions, intersect_gallop_positions, ChosenKernel, PackedBitset,
    TriKernel,
};
use kcore_parallel::primitives::{exclusive_scan, intersect_sorted_positions, SendPtr};
use rayon::prelude::*;
use std::sync::OnceLock;

/// Rank comparison of the degree ordering: `a` precedes `b` when
/// `(degree(a), a) < (degree(b), b)`. Ties on degree are broken by id,
/// so the order is total and the orientation acyclic.
#[inline]
fn rank_lt(g: &CsrGraph, a: VertexId, b: VertexId) -> bool {
    (g.degree(a), a) < (g.degree(b), b)
}

/// The bare degree-ordered orientation: for every vertex, its
/// higher-ranked neighbors (sorted by id, as a subsequence of the CSR
/// adjacency list). Each undirected edge appears exactly once.
#[derive(Debug, Clone)]
pub struct Dodg {
    /// `offsets[u]..offsets[u + 1]` indexes `targets` with `N⁺(u)`.
    offsets: Box<[usize]>,
    /// Concatenated out-neighbor lists, per-vertex sorted by id.
    targets: Box<[VertexId]>,
}

impl Dodg {
    /// Orients `g` by degree order, in parallel.
    pub fn build(g: &CsrGraph) -> Self {
        let _s = span!("tri.orient", g.num_edges() as u64);
        let n = g.num_vertices();
        let counts: Vec<usize> = (0..n)
            .into_par_iter()
            .map(|u| {
                let u = u as VertexId;
                g.neighbors(u).iter().filter(|&&w| rank_lt(g, u, w)).count()
            })
            .collect();
        let (base, m) = exclusive_scan(&counts);
        debug_assert_eq!(m, g.num_edges());
        let mut targets = vec![0 as VertexId; m].into_boxed_slice();
        let ptr = SendPtr::new(targets.as_mut_ptr());
        (0..n).into_par_iter().for_each(|u| {
            let u = u as VertexId;
            let mut o = base[u as usize];
            for &w in g.neighbors(u) {
                if rank_lt(g, u, w) {
                    // SAFETY: vertex u owns slots base[u]..base[u]+counts[u].
                    unsafe { ptr.slot(o).write(w) };
                    o += 1;
                }
            }
        });
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.extend_from_slice(&base);
        offsets.push(m);
        Self { offsets: offsets.into_boxed_slice(), targets }
    }

    /// The out-neighbors (higher-ranked, id-sorted) of `u`.
    #[inline]
    pub fn out(&self, u: VertexId) -> &[VertexId] {
        let u = u as usize;
        &self.targets[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Number of oriented arcs (== number of undirected edges).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Total triangle count of `g`: a parallel fold of
    /// `|N⁺(u) ∩ N⁺(v)|` over the oriented arcs — each triangle is
    /// counted exactly once at its lowest-ranked edge, and no per-edge
    /// array is materialized.
    ///
    /// Kernel selection follows `kernel`; the forced `Bitset` policy
    /// probes lazily built packed bitmaps of the larger out-list.
    pub fn triangle_count(&self, g: &CsrGraph, kernel: TriKernel) -> u64 {
        let bitmaps: Box<[OnceLock<PackedBitset>]> =
            (0..g.num_vertices()).map(|_| OnceLock::new()).collect();
        let out_bitmap = |v: VertexId| -> &PackedBitset {
            bitmaps[v as usize].get_or_init(|| {
                counter!("tri.bitmap.build", 1);
                PackedBitset::from_members(self.out(v), g.num_vertices())
            })
        };
        (0..g.num_vertices())
            .into_par_iter()
            .map(|u| {
                let u = u as VertexId;
                let ou = self.out(u);
                let mut local = 0u64;
                for &v in ou {
                    let ov = self.out(v);
                    let mut cnt = 0u64;
                    match choose(kernel, ou.len(), ov.len()) {
                        ChosenKernel::Merge => intersect_sorted_positions(ou, ov, |_, _| cnt += 1),
                        ChosenKernel::Gallop => intersect_gallop_positions(ou, ov, |_, _| cnt += 1),
                        ChosenKernel::Bitset => {
                            // Probe the larger out-list's bitmap with
                            // the smaller list.
                            let (drive, probe) =
                                if ou.len() <= ov.len() { (ou, v) } else { (ov, u) };
                            intersect_bitset_positions(drive, out_bitmap(probe), |_| cnt += 1);
                            counter!("tri.bitmap.hit", cnt);
                        }
                    }
                    local += cnt;
                }
                local
            })
            .sum()
    }
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
    idx: EdgeIndex,
    /// Out-CSR over the degree ordering; `out_eids` is laid out
    /// parallel to `out_targets` with each arc's undirected edge id.
    out_offsets: Box<[usize]>,
    out_targets: Box<[VertexId]>,
    out_eids: Box<[u32]>,
    supports: Vec<u32>,
    hubs: Box<[OnceLock<HubMap>]>,
    kernel: TriKernel,
}

impl TriangleCtx {
    /// Builds the full triangle setup with the process-wide
    /// (`KCORE_TRI_KERNEL`) kernel policy.
    pub fn build(g: &CsrGraph) -> Self {
        Self::build_with_kernel(g, TriKernel::from_env())
    }

    /// Builds the full triangle setup with an explicit kernel policy
    /// (the testing/bench entry point for the kernel ablation).
    ///
    /// One parallel pass assigns edge ids *and* writes the oriented
    /// arcs; a second parallel pass over the oriented arcs accumulates
    /// the supports with relaxed atomic adds (commutative, so the
    /// result is bit-identical to the reference
    /// [`crate::triangles::edge_supports`] recount for every kernel and
    /// schedule).
    pub fn build_with_kernel(g: &CsrGraph, kernel: TriKernel) -> Self {
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
        let mut ctx = Self {
            idx: EdgeIndex::from_raw(arc_edge, endpoints),
            out_offsets: offsets.into_boxed_slice(),
            out_targets,
            out_eids,
            supports: Vec::new(),
            hubs: (0..n).map(|_| OnceLock::new()).collect(),
            kernel,
        };

        // Pass 2: discovery. Every triangle is found once (at its
        // lowest-ranked arc) and charged to all three of its edges by
        // relaxed adds, which commute, so the supports are kernel- and
        // schedule-independent. Nothing per triangle is stored.
        let sup_span = span!("tri.supports", m as u64);
        let supports: Vec<AtomicU32> = (0..m).map(|_| AtomicU32::new(0)).collect();
        (0..n).into_par_iter().for_each(|u| {
            ctx.for_each_oriented_triangle_of(g, u as VertexId, &mut |e, fe, ge| {
                supports[e as usize].fetch_add(1, Ordering::Relaxed);
                supports[fe as usize].fetch_add(1, Ordering::Relaxed);
                supports[ge as usize].fetch_add(1, Ordering::Relaxed);
            });
        });
        ctx.supports = supports.into_iter().map(AtomicU32::into_inner).collect();
        counter!("tri.triangles", ctx.supports.iter().map(|&s| s as u64).sum::<u64>() / 3);
        drop(sup_span);
        ctx
    }

    /// Discovery sweep from one source vertex of the oriented view:
    /// calls `f(e, fe, ge)` exactly once per triangle whose
    /// lowest-ranked arc `u → v` starts at `u`, where `e` is the edge
    /// id of `{u, v}`, `fe` of `{u, w}`, and `ge` of `{v, w}`.
    fn for_each_oriented_triangle_of<F>(&self, g: &CsrGraph, u: VertexId, f: &mut F)
    where
        F: FnMut(u32, u32, u32),
    {
        let (ou, eu) = self.out(u);
        for (p, &v) in ou.iter().enumerate() {
            let (ov, ev) = self.out(v);
            let euv = eu[p];
            match choose(self.kernel, ou.len(), ov.len()) {
                ChosenKernel::Merge => {
                    intersect_sorted_positions(ou, ov, |i, j| f(euv, eu[i], ev[j]))
                }
                ChosenKernel::Gallop => {
                    intersect_gallop_positions(ou, ov, |i, j| f(euv, eu[i], ev[j]))
                }
                ChosenKernel::Bitset => {
                    let mut hits = 0u64;
                    if ou.len() <= ov.len() {
                        // Probe v's full-neighborhood map with u's
                        // out-list; a hit `w` is in N⁺(v) iff it also
                        // outranks v.
                        let hub = self.hub_map(g, v);
                        let ev_full = self.idx.edge_ids(g, v);
                        intersect_bitset_positions(ou, &hub.bits, |i| {
                            let w = ou[i];
                            if rank_lt(g, v, w) {
                                hits += 1;
                                f(euv, eu[i], ev_full[hub.position_of(w)]);
                            }
                        });
                    } else {
                        // Probe u's map with v's out-list; every
                        // w ∈ N⁺(v) already outranks v (and hence u),
                        // so a membership hit is in N⁺(u).
                        let hub = self.hub_map(g, u);
                        let eu_full = self.idx.edge_ids(g, u);
                        intersect_bitset_positions(ov, &hub.bits, |j| {
                            hits += 1;
                            f(euv, eu_full[hub.position_of(ov[j])], ev[j]);
                        });
                    }
                    counter!("tri.bitmap.hit", hits);
                }
            }
        }
    }

    /// The edge-id space built alongside the orientation.
    #[inline]
    pub fn edge_index(&self) -> &EdgeIndex {
        &self.idx
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
        self.hubs.len()
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
    /// else).
    fn hub_map(&self, g: &CsrGraph, v: VertexId) -> &HubMap {
        self.hubs[v as usize].get_or_init(|| HubMap::build(g, v))
    }

    /// Calls `f(fe, ge, w)` for every triangle `{u, v, w}` containing
    /// edge `e = {u, v}`, where `fe` is the id of `{u, w}` and `ge`
    /// the id of `{v, w}`: [`Self::for_each_common_neighbor`] over the
    /// two endpoints' full adjacency lists. Matches arrive in
    /// increasing `w` for every kernel.
    #[inline]
    pub fn for_each_triangle_of_edge<F>(&self, g: &CsrGraph, e: u32, f: F)
    where
        F: FnMut(u32, u32, VertexId),
    {
        let (u, v) = self.idx.endpoints(e);
        let (nu, nv) = (g.neighbors(u), g.neighbors(v));
        let (eu, ev) = (self.idx.edge_ids(g, u), self.idx.edge_ids(g, v));
        self.for_each_common_neighbor(g, (u, nu, eu), (v, nv, ev), f);
    }

    /// Calls `f(fe, ge, w)` for every `w` common to two incidence
    /// lists of the endpoints `u` and `v`, where `fe` is the id of
    /// `{u, w}` and `ge` the id of `{v, w}`. Each list `(x, nx, ex)`
    /// is an id-sorted subsequence of `x`'s adjacency list (`nx`) with
    /// the matching edge ids (`ex`): the full lists, or the k-truss
    /// peel's live lists with settled edges compacted out.
    ///
    /// The kernel is chosen from the two list lengths. Merge and
    /// gallop intersect the two lists. The bitset kernel drives the
    /// shorter list through the other endpoint's *full-neighborhood*
    /// hub map (fetched once per call) and resolves the companion id
    /// by popcount rank, never by binary search; on subsequence input
    /// it can therefore also report a `w` whose edge to the hub is
    /// missing from the hub's list. Matches arrive in increasing `w`.
    #[inline]
    pub fn for_each_common_neighbor<F>(
        &self,
        g: &CsrGraph,
        (u, nu, eu): (VertexId, &[VertexId], &[u32]),
        (v, nv, ev): (VertexId, &[VertexId], &[u32]),
        mut f: F,
    ) where
        F: FnMut(u32, u32, VertexId),
    {
        match choose(self.kernel, nu.len(), nv.len()) {
            ChosenKernel::Merge => {
                intersect_sorted_positions(nu, nv, |i, j| f(eu[i], ev[j], nu[i]))
            }
            ChosenKernel::Gallop => {
                intersect_gallop_positions(nu, nv, |i, j| f(eu[i], ev[j], nu[i]))
            }
            ChosenKernel::Bitset => {
                let mut hits = 0u64;
                if nu.len() <= nv.len() {
                    let (hub, ev_full) = (self.hub_map(g, v), self.idx.edge_ids(g, v));
                    intersect_bitset_positions(nu, &hub.bits, |i| {
                        hits += 1;
                        f(eu[i], ev_full[hub.position_of(nu[i])], nu[i]);
                    });
                } else {
                    let (hub, eu_full) = (self.hub_map(g, u), self.idx.edge_ids(g, u));
                    intersect_bitset_positions(nv, &hub.bits, |j| {
                        hits += 1;
                        f(eu_full[hub.position_of(nv[j])], ev[j], nv[j]);
                    });
                }
                counter!("tri.bitmap.hit", hits);
            }
        }
    }
}

impl std::fmt::Debug for TriangleCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TriangleCtx")
            .field("edges", &self.num_edges())
            .field("kernel", &self.kernel)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triangles::{edge_supports, for_each_triangle_of_edge};
    use crate::{gen, GraphBuilder};

    const ALL_KERNELS: [TriKernel; 4] =
        [TriKernel::Auto, TriKernel::Merge, TriKernel::Gallop, TriKernel::Bitset];

    fn test_graphs() -> Vec<(&'static str, CsrGraph)> {
        vec![
            ("empty", CsrGraph::empty()),
            ("edgeless", GraphBuilder::new(5).build()),
            ("triangle", GraphBuilder::new(3).edges([(0, 1), (1, 2), (0, 2)]).build()),
            ("k7", gen::complete(7)),
            ("star", gen::star(40)),
            ("ba", gen::barabasi_albert(250, 4, 9)),
            ("rmat", gen::rmat(8, 6, 0.57, 0.19, 0.19, 3)),
            ("planted", gen::planted_core(150, 2, 30, 4)),
            ("hcns", gen::hcns(12)),
            ("grid", gen::grid2d(9, 7)),
        ]
    }

    #[test]
    fn orientation_is_acyclic_and_covers_every_edge() {
        for (name, g) in test_graphs() {
            let d = Dodg::build(&g);
            assert_eq!(d.num_arcs(), g.num_edges(), "{name}");
            let mut arcs = 0usize;
            for u in g.vertices() {
                let mut prev = None;
                for &w in d.out(u) {
                    assert!(rank_lt(&g, u, w), "{name}: arc {u}->{w} violates the order");
                    assert!(g.has_edge(u, w), "{name}: phantom arc {u}->{w}");
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
            let ctx = TriangleCtx::build_with_kernel(&g, TriKernel::Auto);
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
            let idx = EdgeIndex::build(&g);
            let want = edge_supports(&g, &idx);
            for kernel in ALL_KERNELS {
                let ctx = TriangleCtx::build_with_kernel(&g, kernel);
                assert_eq!(
                    ctx.supports(),
                    want.as_slice(),
                    "{name}: {} supports drifted",
                    kernel.as_str()
                );
            }
        }
    }

    #[test]
    fn oriented_enumeration_matches_the_reference_for_every_kernel() {
        for (name, g) in test_graphs() {
            let idx = EdgeIndex::build(&g);
            for kernel in ALL_KERNELS {
                let ctx = TriangleCtx::build_with_kernel(&g, kernel);
                for e in 0..idx.num_edges() as u32 {
                    let mut want = Vec::new();
                    for_each_triangle_of_edge(&g, &idx, e, |fe, ge, w| want.push((fe, ge, w)));
                    let mut got = Vec::new();
                    ctx.for_each_triangle_of_edge(&g, e, |fe, ge, w| got.push((fe, ge, w)));
                    assert_eq!(got, want, "{name}: edge {e} under {}", kernel.as_str());
                }
            }
        }
    }

    #[test]
    fn triangle_count_fold_matches_supports_sum_for_every_kernel() {
        for (name, g) in test_graphs() {
            let idx = EdgeIndex::build(&g);
            let per_edge: u64 = edge_supports(&g, &idx).iter().map(|&s| s as u64).sum();
            let want = per_edge / 3;
            let d = Dodg::build(&g);
            for kernel in ALL_KERNELS {
                assert_eq!(d.triangle_count(&g, kernel), want, "{name}: {}", kernel.as_str());
            }
        }
    }

    #[test]
    fn hub_maps_resolve_companion_ids() {
        // A wheel: the hub has degree n-1, every rim edge's triangles
        // go through the hub's map under the forced bitset policy.
        let n = 200u32;
        let rim: Vec<(u32, u32)> = (1..n).map(|i| (i, if i + 1 < n { i + 1 } else { 1 })).collect();
        let spokes: Vec<(u32, u32)> = (1..n).map(|i| (0, i)).collect();
        let g = GraphBuilder::new(n as usize).edges(rim.into_iter().chain(spokes)).build();
        let idx = EdgeIndex::build(&g);
        let ctx = TriangleCtx::build_with_kernel(&g, TriKernel::Bitset);
        assert_eq!(ctx.supports(), edge_supports(&g, &idx).as_slice());
        for e in 0..idx.num_edges() as u32 {
            ctx.for_each_triangle_of_edge(&g, e, |fe, ge, w| {
                let (u, v) = idx.endpoints(e);
                assert_eq!(idx.edge_id(&g, u, w), Some(fe));
                assert_eq!(idx.edge_id(&g, v, w), Some(ge));
            });
        }
    }
}
