//! k-truss decomposition as a [`PeelProblem`] — *edge* peeling, the
//! workload that forces the engine beyond unit incidences.
//!
//! The **k-truss** of a graph is the maximal subgraph in which every
//! edge participates in at least `k - 2` triangles (within the
//! subgraph); an edge's **trussness** is the largest `k` for which it
//! belongs to the k-truss. Peeling computes it exactly like coreness:
//! elements are undirected edges, the initial priority is the edge's
//! triangle support, and round `r` peels every edge whose surviving
//! support is `r` — its trussness is `r + 2`.
//!
//! Setup (edge ids + supports) comes from the fused
//! [`TriangleCtx`] build over the degree-ordered orientation, whose
//! discovery sweep picks an intersection kernel per pair from the two
//! list lengths. A context built once can be supplied via
//! [`crate::Decomposition::with_ctx`], dropping setup out of the
//! peel's critical path.
//!
//! Only the edges that lie in a triangle are peeled. An edge of
//! support 0 has trussness 2 by definition (Wang & Cheng, VLDB'12),
//! and it can neither emit nor receive a decrement: a triangle's three
//! edges all start with support at least 1. The elements are therefore
//! the edges of positive support, numbered in increasing
//! [`kcore_graph::EdgeIndex`] id order, so comparing element ids
//! compares edge ids and the rule's tie-break is unchanged; `assemble`
//! writes trussness 2 for every other edge. Run statistics count only
//! these elements.
//!
//! Per-death triangle enumeration intersects the endpoints' **live
//! adjacency lists** (PKT-style; Kabir & Madduri, HPEC'17; Wang &
//! Cheng, VLDB'12). The peel keeps a compact CSR of every vertex's
//! triangle incidences, `(neighbor, element id)` pairs in neighbor
//! order, plus the element id of every arc (which the bitset kernel
//! reads on the hub side, see
//! [`TriangleCtx::for_each_common_neighbor`]). At the sequential point
//! after each subround's rule phase ([`PeelProblem::after_rule_phase`]),
//! it compacts a list in place once the edges it lost since its last
//! compaction reach half its length: `O(d(v))` work per vertex over the
//! peel, and a dying edge stops paying for its endpoints' dead edges.
//! The kernel is chosen on the live lengths.
//!
//! Compaction drops only dead edges, and the rule below skips every
//! triangle with a dead edge, so every kernel and every compaction
//! schedule emit the same decrement multiset: the decomposition is
//! bit-identical across them.
//!
//! The decrement rule is *not* a unit incidence: when edge `e` dies,
//! the two other edges of each triangle through `e` lose one support
//! unit — but only if that triangle was still alive, and a triangle
//! losing several edges in the same subround must be charged to the
//! survivors exactly once. This is exactly the [`SnapshotRule`]
//! contract: the engine settles the whole frontier, globally
//! synchronizes, and then evaluates the rule against the frozen
//! [`SettleView`]:
//!
//! * any triangle edge settled in an *earlier* subround already charged
//!   this triangle when it died — skip;
//! * both other edges settling *now* ([`ElementState::Peer`]): no
//!   survivor to charge;
//! * one peer, one survivor: the dying pair `{e, peer}` would both see
//!   the triangle, so only the smaller edge id emits the decrement;
//! * two survivors: `e` is the only death — charge both.
//!
//! Because the snapshot is identical for every worker, the emitted
//! multiset — and therefore the whole decomposition — is deterministic.

use crate::peel::engine::{ElementState, Incidence, PeelProblem, SettleView, SnapshotRule};
use kcore_check::cell::UnsafeCell;
use kcore_graph::triangles::for_each_triangle_of_edge;
use kcore_graph::{CsrGraph, EdgeIndex, TriangleCtx, VertexId};
use kcore_obs::span;
use kcore_parallel::primitives::{pack_index, SendPtr};
use kcore_parallel::RunStats;
use rayon::prelude::*;

/// The element id of an arc whose edge lies in no triangle.
const NO_ELEMENT: u32 = u32::MAX;

/// The k-truss decomposition problem over one graph and its triangle
/// setup (built by [`TriangleCtx::build`] from the same graph).
pub(crate) struct KTrussProblem<'g> {
    g: &'g CsrGraph,
    ctx: &'g TriangleCtx,
    /// The elements: the edge ids of positive support, increasing, so
    /// element `x` is edge `edges[x]`.
    edges: Vec<u32>,
    /// The element id of every arc's edge, laid out parallel to the
    /// graph's arc array ([`NO_ELEMENT`] for an edge in no triangle).
    arc_elems: Box<[u32]>,
    /// The per-death enumeration's live adjacency.
    live: LiveLists,
}

impl<'g> KTrussProblem<'g> {
    /// The problem over `g` and its triangle setup `ctx`.
    ///
    /// # Panics
    ///
    /// Panics when `ctx` was built from a graph with another vertex or
    /// edge count than `g`.
    pub(crate) fn new(g: &'g CsrGraph, ctx: &'g TriangleCtx) -> Self {
        assert!(
            ctx.num_vertices() == g.num_vertices() && ctx.num_edges() == g.num_edges(),
            "k-truss: the TriangleCtx was built from another graph \
             ({} vertices, {} edges; this graph has {} vertices, {} edges)",
            ctx.num_vertices(),
            ctx.num_edges(),
            g.num_vertices(),
            g.num_edges()
        );
        let supports = ctx.supports();
        let edges = pack_index(supports.len(), |e| supports[e] > 0);
        let mut elem_of_edge = vec![NO_ELEMENT; supports.len()];
        for (x, &e) in edges.iter().enumerate() {
            elem_of_edge[e as usize] = x as u32;
        }
        let (arc_elems, live) = LiveLists::build(g, ctx.edge_index(), &elem_of_edge);
        Self { g, ctx, edges, arc_elems, live }
    }

    /// The endpoints of element `x`'s edge.
    #[inline]
    fn endpoints(&self, x: u32) -> (VertexId, VertexId) {
        self.ctx.edge_index().endpoints(self.edges[x as usize])
    }
}

impl PeelProblem for KTrussProblem<'_> {
    type Output = TrussnessResult;

    fn name(&self) -> &'static str {
        "k-truss"
    }

    fn num_elements(&self) -> usize {
        self.edges.len()
    }

    fn init_priorities(&self) -> Vec<u32> {
        let supports = self.ctx.supports();
        self.edges.iter().map(|&e| supports[e as usize]).collect()
    }

    fn incidence(&self) -> Incidence<'_> {
        Incidence::Snapshot(self)
    }

    fn after_rule_phase(&self, frontier: &[u32], view: &SettleView<'_>) {
        self.live.compact(frontier, view, |x| self.endpoints(x));
    }

    fn assemble(&self, rounds: Vec<u32>, stats: RunStats) -> TrussnessResult {
        let mut trussness = vec![2; self.ctx.num_edges()];
        for (&e, r) in self.edges.iter().zip(rounds) {
            trussness[e as usize] = r + 2;
        }
        TrussnessResult { index: self.ctx.edge_index().clone(), trussness, stats }
    }
}

impl SnapshotRule for KTrussProblem<'_> {
    fn for_each_decrement(
        &self,
        e: u32,
        _k: u32,
        view: &SettleView<'_>,
        emit: &mut dyn FnMut(u32),
    ) {
        let mut consider = |fe: u32, ge: u32| match (view.state(fe), view.state(ge)) {
            // Triangle already destroyed by an earlier death, which
            // charged the survivors then.
            (ElementState::Dead, _) | (_, ElementState::Dead) => {}
            // All three edges die this subround: no survivor.
            (ElementState::Peer, ElementState::Peer) => {}
            // {e, fe} die together; the smaller id charges ge.
            (ElementState::Peer, ElementState::Alive) => {
                if e < fe {
                    emit(ge);
                }
            }
            // {e, ge} die together; the smaller id charges fe.
            (ElementState::Alive, ElementState::Peer) => {
                if e < ge {
                    emit(fe);
                }
            }
            // e is the only death: both survivors lose the triangle.
            (ElementState::Alive, ElementState::Alive) => {
                emit(fe);
                emit(ge);
            }
        };
        // The rule skips every triangle with a dead edge, so the live
        // lists (which may miss only such triangles) emit the same
        // multiset as the full adjacency would.
        let (u, v) = self.endpoints(e);
        let lists = self.live.read();
        self.ctx.for_each_common_neighbor(
            self.g,
            &self.arc_elems,
            lists.of(u),
            lists.of(v),
            |fe, ge, _w| {
                debug_assert!(
                    fe != NO_ELEMENT && ge != NO_ELEMENT,
                    "a triangle's edges all have positive support"
                );
                consider(fe, ge)
            },
        );
    }
}

/// Live adjacency for the per-death enumeration (PKT-style; Kabir &
/// Madduri, HPEC'17): every vertex's triangle incidences, `(neighbor,
/// element id)` pairs in neighbor order, in a compact CSR from which
/// settled edges are compacted out.
///
/// A vertex's list is compacted in place, sorted order kept, once the
/// edges it lost since its last compaction reach half its length, so
/// each list costs `O(d(v))` compaction work over the whole peel.
/// Compaction runs in [`PeelProblem::after_rule_phase`] and visits only
/// the settled edges' endpoints.
struct LiveLists {
    lists: UnsafeCell<Lists>,
}

struct Lists {
    /// `v`'s live list is the `len[v]` slots of `nbrs` and `elems`
    /// from `start[v]`.
    start: Box<[usize]>,
    nbrs: Box<[VertexId]>,
    /// Element ids, parallel to `nbrs`.
    elems: Box<[u32]>,
    len: Box<[u32]>,
    /// Edges of the list settled since its last compaction.
    since: Box<[u32]>,
}

impl Lists {
    /// The live incidence list of `v`, as
    /// [`TriangleCtx::for_each_common_neighbor`] takes it.
    #[inline]
    fn of(&self, v: VertexId) -> (VertexId, &[VertexId], &[u32]) {
        let start = self.start[v as usize];
        let live = start..start + self.len[v as usize] as usize;
        (v, &self.nbrs[live.clone()], &self.elems[live])
    }
}

impl LiveLists {
    /// The triangle incidences of every vertex, from the element id of
    /// every edge (`elem_of_edge`, [`NO_ELEMENT`] for an edge in no
    /// triangle). Also returns the element id of every arc, laid out
    /// parallel to the graph's arc array.
    fn build(g: &CsrGraph, idx: &EdgeIndex, elem_of_edge: &[u32]) -> (Box<[u32]>, Self) {
        let n = g.num_vertices();
        let arc_edges = idx.arc_edge_ids();
        // One pass over the arcs: each arc's element id, and each
        // vertex's count of triangle incidences.
        let mut arc_elems = vec![0u32; g.num_arcs()].into_boxed_slice();
        let mut len = vec![0u32; n].into_boxed_slice();
        let (arc_ptr, len_ptr) =
            (SendPtr::new(arc_elems.as_mut_ptr()), SendPtr::new(len.as_mut_ptr()));
        (0..n).into_par_iter().for_each(|v| {
            let mut count = 0;
            for p in g.arc_range(v as VertexId) {
                let x = elem_of_edge[arc_edges[p] as usize];
                // SAFETY: vertex v owns its arc range.
                unsafe { arc_ptr.slot(p).write(x) };
                count += u32::from(x != NO_ELEMENT);
            }
            // SAFETY: vertex v owns its count slot.
            unsafe { len_ptr.slot(v).write(count) };
        });
        let mut start = Vec::with_capacity(n);
        let mut total = 0;
        for &c in len.iter() {
            start.push(total);
            total += c as usize;
        }
        let mut nbrs = vec![0 as VertexId; total].into_boxed_slice();
        let mut elems = vec![0u32; total].into_boxed_slice();
        let (nbr_ptr, elem_ptr) =
            (SendPtr::new(nbrs.as_mut_ptr()), SendPtr::new(elems.as_mut_ptr()));
        (0..n).into_par_iter().filter(|&v| len[v] > 0).for_each(|v| {
            let mut o = start[v];
            let arcs =
                g.neighbors(v as VertexId).iter().zip(&arc_elems[g.arc_range(v as VertexId)]);
            for (&w, &x) in arcs {
                if x != NO_ELEMENT {
                    // SAFETY: vertex v writes one slot per arc it
                    // counted above, so only its own slots
                    // start[v]..start[v] + len[v].
                    unsafe {
                        nbr_ptr.slot(o).write(w);
                        elem_ptr.slot(o).write(x);
                    }
                    o += 1;
                }
            }
        });
        let lists = Lists {
            start: start.into_boxed_slice(),
            nbrs,
            elems,
            len,
            since: vec![0; n].into_boxed_slice(),
        };
        (arc_elems, Self { lists: UnsafeCell::new(lists) })
    }

    /// Shared access for the rule phase.
    #[inline]
    fn read(&self) -> &Lists {
        // SAFETY: the lists are written only by `compact`, which the
        // engine calls between subrounds, never while a rule
        // evaluation (the only holder of this borrow) runs.
        self.lists.with(|p| unsafe { &*p })
    }

    /// Counts the settled `frontier` against both endpoints' lists
    /// (`endpoints` maps an element to its edge's endpoints) and
    /// compacts every list whose settled count reached half its length.
    /// Drops exactly the elements not alive in `view`, which stay dead
    /// in every later view, so the rule loses only triangles it skips.
    fn compact<E>(&self, frontier: &[u32], view: &SettleView<'_>, endpoints: E)
    where
        E: Fn(u32) -> (VertexId, VertexId),
    {
        // SAFETY: called from `after_rule_phase`, at the engine's
        // sequential point between subrounds: no `read` borrow is live.
        let lists = self.lists.with_mut(|p| unsafe { &mut *p });
        let mut due = Vec::new();
        for &x in frontier {
            let (u, v) = endpoints(x);
            for w in [u, v] {
                let (since, len) = (&mut lists.since[w as usize], lists.len[w as usize]);
                *since += 1;
                // Queue w once, as its count crosses half the length.
                if 2 * *since >= len && 2 * (*since - 1) < len {
                    due.push(w);
                }
            }
        }
        if due.is_empty() {
            return;
        }
        let _compact = span!("truss.compact", due.len());
        for w in due {
            let start = lists.start[w as usize];
            let live = start..start + lists.len[w as usize] as usize;
            let mut kept = start;
            for i in live {
                let x = lists.elems[i];
                if view.alive(x) {
                    lists.nbrs[kept] = lists.nbrs[i];
                    lists.elems[kept] = x;
                    kept += 1;
                }
            }
            let kept = (kept - start) as u32;
            debug_assert_eq!(kept, lists.len[w as usize] - lists.since[w as usize]);
            lists.len[w as usize] = kept;
            lists.since[w as usize] = 0;
        }
    }
}

/// The result of a k-truss decomposition: per-edge trussness (indexed
/// by [`EdgeIndex`] edge id) plus the run's instrumentation counters.
#[derive(Debug, Clone)]
pub struct TrussnessResult {
    index: EdgeIndex,
    trussness: Vec<u32>,
    stats: RunStats,
}

impl TrussnessResult {
    /// Trussness of every edge, indexed by edge id. Edges in no
    /// triangle have trussness 2 (every edge is trivially a 2-truss).
    pub fn trussness(&self) -> &[u32] {
        &self.trussness
    }

    /// The edge-id space the trussness array is indexed by.
    pub fn edge_index(&self) -> &EdgeIndex {
        &self.index
    }

    /// Number of edges decomposed.
    pub fn num_edges(&self) -> usize {
        self.trussness.len()
    }

    /// The largest trussness of any edge (0 for an edgeless graph).
    pub fn max_trussness(&self) -> u32 {
        self.trussness.iter().copied().max().unwrap_or(0)
    }

    /// Iterator over `((u, v), trussness)` for every edge.
    pub fn edges(&self) -> impl Iterator<Item = ((u32, u32), u32)> + '_ {
        self.trussness.iter().enumerate().map(|(e, &t)| (self.index.endpoints(e as u32), t))
    }

    /// Run counters (rounds, subrounds, work, burdened span, ...) of
    /// the peel, which runs over the edges that lie in a triangle only:
    /// a graph without triangles opens no round.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }
}

/// Sequential triangle-recount peeler: the k-truss oracle.
///
/// Maintains no incremental support state at all — every peel decision
/// re-counts the candidate edge's surviving triangles from the alive
/// set, so a bookkeeping bug in the parallel rule cannot be mirrored
/// here. Quadratic-ish (`O(m)` recounts per removal); use on test-sized
/// graphs only.
pub fn sequential_trussness(g: &CsrGraph) -> Vec<u32> {
    let idx = EdgeIndex::build(g);
    let m = idx.num_edges();
    let mut alive = vec![true; m];
    let mut trussness = vec![0u32; m];
    let recount = |e: u32, alive: &[bool]| -> u32 {
        let mut support = 0u32;
        for_each_triangle_of_edge(g, &idx, e, |fe, ge, _w| {
            if alive[fe as usize] && alive[ge as usize] {
                support += 1;
            }
        });
        support
    };
    let mut removed = 0usize;
    let mut k = 0u32;
    while removed < m {
        // Remove, one at a time, any alive edge whose recounted support
        // is <= k; when none remains, advance the round.
        'peel: loop {
            for e in 0..m as u32 {
                if alive[e as usize] && recount(e, &alive) <= k {
                    alive[e as usize] = false;
                    trussness[e as usize] = k + 2;
                    removed += 1;
                    continue 'peel;
                }
            }
            break;
        }
        k += 1;
    }
    trussness
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Techniques;
    use crate::{Config, Decomposition};
    use kcore_buckets::BucketStrategy;
    use kcore_check::sync::atomic::{AtomicU32, Ordering};
    use kcore_graph::{gen, GraphBuilder};

    /// Every bucket strategy, through the internally built context and
    /// through one supplied context reused across the strategies. The
    /// techniques block does not matter: edge peeling ignores it.
    fn assert_matches_oracle(g: &CsrGraph, label: &str) {
        let want = sequential_trussness(g);
        let ctx = TriangleCtx::build(g);
        for strategy in BucketStrategy::ALL {
            let config = Config::with_strategy(strategy);
            let got = Decomposition::ktruss(g).config(config).run();
            let supplied = Decomposition::ktruss(g).with_ctx(&ctx).config(config).run();
            for (path, got) in [("built", got), ("supplied", supplied)] {
                assert_eq!(
                    got.trussness(),
                    want.as_slice(),
                    "{label}: {strategy} ({path} context) disagrees with the recount oracle"
                );
            }
        }
    }

    #[test]
    fn empty_and_edgeless() {
        let r = Decomposition::ktruss(&CsrGraph::empty()).run();
        assert_eq!(r.num_edges(), 0);
        assert_eq!(r.max_trussness(), 0);
        let r = Decomposition::ktruss(&GraphBuilder::new(5).build()).run();
        assert_eq!(r.num_edges(), 0);
    }

    #[test]
    fn triangle_free_graphs_are_all_twos() {
        for g in [gen::path(30), gen::star(20), gen::complete_bipartite(4, 6)] {
            let r = Decomposition::ktruss(&g).run();
            assert_eq!(r.num_edges(), g.num_edges());
            assert!(r.trussness().iter().all(|&t| t == 2), "no triangles => trussness 2");
            // No edge lies in a triangle, so nothing is peeled.
            assert_eq!((r.stats().rounds, r.stats().subrounds), (0, 0), "{:?}", r.stats());
        }
    }

    #[test]
    fn complete_graph_trussness_is_n() {
        // Every edge of K_n sits in n-2 triangles and the whole clique
        // peels in one round: trussness n for every edge.
        for n in [3usize, 5, 8] {
            let r = Decomposition::ktruss(&gen::complete(n)).run();
            assert!(r.trussness().iter().all(|&t| t as usize == n), "K{n}");
            assert_eq!(r.max_trussness() as usize, n);
        }
    }

    #[test]
    fn two_triangles_sharing_an_edge() {
        // 0-1 shared by triangles {0,1,2} and {0,1,3}: the shared edge
        // has support 2, the outer edges support 1. All peel at round 1
        // (removing any outer edge drops the rest), trussness 3.
        let g = GraphBuilder::new(4).edges([(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]).build();
        let r = Decomposition::ktruss(&g).run();
        assert_eq!(r.trussness(), sequential_trussness(&g).as_slice());
        assert!(r.trussness().iter().all(|&t| t == 3));
    }

    #[test]
    fn generator_families_match_oracle() {
        assert_matches_oracle(&gen::complete(7), "K7");
        assert_matches_oracle(&gen::planted_core(60, 2, 12, 3), "planted_core");
        assert_matches_oracle(&gen::barabasi_albert(80, 3, 7), "barabasi_albert");
        assert_matches_oracle(&gen::rmat(6, 6, 0.57, 0.19, 0.19, 1), "rmat");
        assert_matches_oracle(&gen::grid2d(6, 7), "grid2d");
        assert_matches_oracle(&gen::mesh(7, 7), "mesh");
        assert_matches_oracle(&gen::hcns(8), "hcns");
        assert_matches_oracle(&gen::road(12, 12, 0.15, 0.05, 1), "road");
    }

    #[test]
    fn truss_is_deterministic() {
        let g = gen::barabasi_albert(150, 4, 2);
        let a = Decomposition::ktruss(&g).run();
        let b = Decomposition::ktruss(&g).run();
        assert_eq!(a.trussness(), b.trussness());
    }

    #[test]
    fn trussness_satisfies_the_truss_property() {
        // Within the subgraph of edges with trussness >= t(e), edge e
        // must sit in >= t(e) - 2 triangles.
        let g = gen::planted_core(80, 2, 15, 5);
        let r = Decomposition::ktruss(&g).run();
        let idx = r.edge_index();
        for e in 0..r.num_edges() as u32 {
            let t = r.trussness()[e as usize];
            let mut within = 0u32;
            for_each_triangle_of_edge(&g, idx, e, |fe, ge, _w| {
                if r.trussness()[fe as usize] >= t && r.trussness()[ge as usize] >= t {
                    within += 1;
                }
            });
            assert!(within >= t - 2, "edge {e} has only {within} triangles in its own {t}-truss");
        }
    }

    #[test]
    fn sampling_and_vgc_requests_are_ignored_for_edge_peeling() {
        // Unit-incidence techniques cannot apply to the snapshot rule;
        // requesting them must not change the output.
        let g = gen::planted_core(60, 2, 12, 3);
        let want = Decomposition::ktruss(&g).config(Config::default()).run();
        let forced = Config::with_techniques(Techniques::all_online());
        let got = Decomposition::ktruss(&g).config(forced).run();
        let s = got.stats();
        assert_eq!(got.trussness(), want.trussness());
        assert_eq!(s.sampled_vertices, 0);
        assert_eq!(s.resamples, 0);
        assert_eq!(s.global_syncs, 2 * s.subrounds, "settle + rule phases");
    }

    #[test]
    fn two_phase_subrounds_charge_two_syncs() {
        let g = gen::planted_core(60, 2, 12, 3);
        let r = Decomposition::ktruss(&g).config(Config::default()).run();
        let s = r.stats();
        assert!(s.subrounds > 0);
        assert_eq!(s.global_syncs, 2 * s.subrounds, "settle + rule phases");
    }

    #[test]
    fn compaction_keeps_exactly_the_surviving_incidences_sorted() {
        // A wheel: hub 0 with spokes to the rim 1..n, plus pendant
        // spokes to n..n+8, which lie in no triangle. Kill rim spokes in
        // two waves; each wave passes half the hub's live list, so the
        // hub compacts after both. A rim vertex loses one of its three
        // edges per wave at most, which stays below its threshold.
        let (n, pendants) = (41u32, 8u32);
        let rim = (1..n).map(|i| (i, if i + 1 < n { i + 1 } else { 1 }));
        let spokes = (1..n + pendants).map(|i| (0, i));
        let g = GraphBuilder::new((n + pendants) as usize).edges(rim.chain(spokes)).build();
        let ctx = TriangleCtx::build(&g);
        let idx = ctx.edge_index();
        let problem = KTrussProblem::new(&g, &ctx);
        let live = &problem.live;
        let elem = |e: u32| problem.edges.binary_search(&e).unwrap() as u32;
        // The hub's triangle incidences, in element ids, that `alive`
        // keeps.
        let hub_list = |alive: &dyn Fn(u32) -> bool| -> Vec<(u32, u32)> {
            g.neighbors(0)
                .iter()
                .zip(idx.edge_ids(&g, 0))
                .filter(|&(_, &e)| ctx.supports()[e as usize] > 0)
                .map(|(&w, &e)| (w, elem(e)))
                .filter(|&(_, x)| alive(x))
                .collect()
        };
        let list = |v| {
            let (_, nbrs, elems) = live.read().of(v);
            nbrs.iter().copied().zip(elems.iter().copied()).collect::<Vec<_>>()
        };
        // The hub's list starts without its pendant spokes.
        let start = list(0);
        assert_eq!(start, hub_list(&|_| true));
        assert_eq!(start.iter().map(|&(w, _)| w).collect::<Vec<_>>(), (1..n).collect::<Vec<_>>());
        let stamps: Vec<AtomicU32> =
            (0..problem.num_elements()).map(|_| AtomicU32::new(0)).collect();
        let spoke = |i: u32| elem(idx.edge_id(&g, 0, i).unwrap());
        let waves: [Vec<u32>; 2] = [(2..n).step_by(2).collect(), (1..20).step_by(2).collect()];
        for (wave, rims) in (1u32..).zip(waves) {
            let frontier: Vec<u32> = rims.iter().map(|&i| spoke(i)).collect();
            for &x in &frontier {
                stamps[x as usize].store(wave, Ordering::Relaxed);
            }
            let view = SettleView::new(&stamps, wave);
            problem.after_rule_phase(&frontier, &view);
            let got = list(0);
            assert_eq!(got, hub_list(&|x| view.alive(x)), "wave {wave}: the hub's list");
            assert!(got.windows(2).all(|p| p[0].0 < p[1].0), "wave {wave}: sorted");
        }
        // Rim vertex 2 lost its spoke in wave 1 (1 of 3): not compacted.
        let (_, nbrs, _) = live.read().of(2);
        assert_eq!(nbrs, g.neighbors(2));
    }

    #[test]
    #[should_panic(expected = "the TriangleCtx was built from another graph")]
    fn a_context_from_another_graph_is_rejected() {
        let ctx = TriangleCtx::build(&gen::complete(5));
        let _ = Decomposition::ktruss(&gen::complete(6)).with_ctx(&ctx).run();
    }
}
