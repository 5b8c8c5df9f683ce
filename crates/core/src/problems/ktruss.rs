//! k-truss decomposition as a [`PeelProblem`] — *edge* peeling, the
//! workload that forces the engine beyond unit incidences.
//!
//! The **k-truss** of a graph is the maximal subgraph in which every
//! edge participates in at least `k - 2` triangles (within the
//! subgraph); an edge's **trussness** is the largest `k` for which it
//! belongs to the k-truss. Peeling computes it exactly like coreness:
//! elements are undirected edges ([`kcore_graph::EdgeIndex`] provides
//! the dense id space), the initial priority is the edge's triangle
//! support, and round `r` peels every edge whose surviving support is
//! `r` — its trussness is `r + 2`.
//!
//! Setup (edge ids + supports) comes from the fused
//! [`TriangleCtx`] build over the degree-ordered orientation, whose
//! discovery sweep dispatches the hybrid intersection kernels
//! (`KCORE_TRI_KERNEL`). Per-death triangle enumeration walks the
//! context's cached companion lists when materialized and re-derives
//! them through the kernels otherwise; every kernel enumerates
//! identically, so the decomposition is kernel-independent bit for
//! bit. A context built once can be supplied via
//! [`crate::Decomposition::with_ctx`], dropping setup out of the
//! peel's critical path.
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
use kcore_graph::triangles::for_each_triangle_of_edge;
use kcore_graph::{CsrGraph, EdgeIndex, TriangleCtx};
use kcore_parallel::RunStats;

/// The k-truss decomposition problem over one graph and its triangle
/// setup (built by [`TriangleCtx::build`] from the same graph; a
/// mismatched context yields meaningless trussness).
pub(crate) struct KTrussProblem<'g> {
    pub(crate) g: &'g CsrGraph,
    pub(crate) ctx: &'g TriangleCtx,
}

impl PeelProblem for KTrussProblem<'_> {
    type Output = TrussnessResult;

    fn name(&self) -> &'static str {
        "k-truss"
    }

    fn num_elements(&self) -> usize {
        self.ctx.num_edges()
    }

    fn init_priorities(&self) -> Vec<u32> {
        self.ctx.supports().to_vec()
    }

    fn incidence(&self) -> Incidence<'_> {
        Incidence::Snapshot(self)
    }

    fn assemble(&self, rounds: Vec<u32>, stats: RunStats) -> TrussnessResult {
        let trussness = rounds.into_iter().map(|r| r + 2).collect();
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
        // The rule is order-insensitive over e's triangle set, so the
        // cached flat list and the kernel enumeration are equivalent;
        // the cache keeps re-intersection off the peel's critical path.
        if let Some(triangles) = self.ctx.edge_triangles(e) {
            for &[fe, ge] in triangles {
                consider(fe, ge);
            }
        } else {
            self.ctx.for_each_triangle_of_edge(self.g, e, |fe, ge, _w| consider(fe, ge));
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

    /// Run counters (rounds, subrounds, work, burdened span, ...).
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
    use kcore_graph::{gen, GraphBuilder};

    fn all_configs() -> Vec<Config> {
        let mut out = Vec::new();
        for strategy in BucketStrategy::ALL {
            for techniques in [Techniques::default(), Techniques::offline()] {
                out.push(Config { bucket_strategy: strategy, techniques, ..Config::default() });
            }
        }
        out
    }

    fn assert_matches_oracle(g: &CsrGraph, label: &str) {
        let want = sequential_trussness(g);
        for config in all_configs() {
            let got = Decomposition::ktruss(g).exact_config(config).run();
            assert_eq!(
                got.trussness(),
                want.as_slice(),
                "{label}: {} + {:?} disagrees with the recount oracle",
                config.bucket_strategy,
                config.techniques.mode
            );
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
            assert!(r.trussness().iter().all(|&t| t == 2), "no triangles => trussness 2");
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
        // forcing them on must not change the output (this is what the
        // KCORE_TECHNIQUES=sampling,vgc CI leg exercises).
        let g = gen::planted_core(60, 2, 12, 3);
        let want = Decomposition::ktruss(&g).exact_config(Config::default()).run();
        let forced = Config::with_techniques(Techniques::all_online());
        let got = Decomposition::ktruss(&g).exact_config(forced).run();
        assert_eq!(got.trussness(), want.trussness());
        assert_eq!(got.stats().sampled_vertices, 0);
        assert_eq!(got.stats().resamples, 0);
    }

    #[test]
    fn two_phase_subrounds_charge_two_syncs() {
        let g = gen::planted_core(60, 2, 12, 3);
        let r = Decomposition::ktruss(&g).exact_config(Config::default()).run();
        let s = r.stats();
        assert!(s.subrounds > 0);
        assert_eq!(s.global_syncs, 2 * s.subrounds, "settle + rule phases");
    }
}
