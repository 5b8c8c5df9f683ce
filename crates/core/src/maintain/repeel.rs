//! Subset re-peel: run the peel engine on an induced region with exact
//! boundary priorities.
//!
//! Re-peeling only the affected region requires the boundary — region
//! vertices' neighbors *outside* the region — to behave exactly as in a
//! global peel: a neighbor `u` with (unchanged) coreness `c(u)` supports
//! its region neighbor `v` through round `c(u)` and withdraws its unit
//! within that round, clamped at `c(u)`. The withdrawal time is known
//! before the peel starts, so the boundary needs no elements of its
//! own: each boundary *arc* `(v ∈ R, u ∉ R)` becomes a **scheduled
//! decrement** of `v` at round `c(u)`, handed to the engine through
//! [`PeelProblem::round_decrements`]. The engine applies it clamped
//! before the round's drain, so `v` settles in the same round the
//! withdrawal would have put it in. The engine skips keys that hold no
//! live vertex, so [`PeelProblem::next_decrement_round`] names the next
//! withdrawal round and caps the skip there. Arcs with `c(u) >= deg v` are
//! dropped: by round `deg v` the vertex has settled or is settling, so
//! such a withdrawal can never lower it.
//!
//! Arcs that withdraw from the same vertex in the same round collapse
//! into one weighted decrement, so a hub with thousands of boundary
//! leaves costs one CAS per distinct boundary coreness, not one
//! decrement per leaf. The peel universe is exactly the
//! region: an ordinary unit-incidence [`PeelProblem`] over the internal
//! edges, so every bucket strategy and every Sec. 4 technique
//! (sampling, VGC, offline histogram peeling) applies to the
//! maintenance path unchanged. Under the default config a re-peel
//! chases peel chains (VGC) like a full decomposition does; a
//! scheduled decrement lands at round start, before any chain of that
//! round runs. A vertex with boundary arcs starts above its internal
//! incidence count, so sampling keeps it exact.

use super::region::old_coreness;
use crate::peel::engine::{Incidence, PeelEngine, PeelProblem, UnitIncidence};
use crate::Config;
use kcore_graph::{OverlayGraph, VertexId};
use kcore_parallel::RunStats;

/// Outcome of a subset re-peel.
pub(crate) struct SubsetPeel {
    /// New coreness values, parallel to the `region` slice passed in.
    pub(crate) coreness: Vec<u32>,
    /// Boundary arcs of the region (region vertex, neighbor outside).
    pub(crate) boundary_arcs: usize,
    /// Engine counters of the re-peel run.
    pub(crate) stats: RunStats,
}

/// The region re-indexed as a compact peel universe: region vertices
/// take ids `0..r` in ascending original-id order, so re-mapped
/// adjacency stays sorted.
struct RegionProblem {
    offsets: Vec<usize>,
    edges: Vec<u32>,
    /// Full degree in the logical graph: internal plus boundary arcs.
    prio: Vec<u32>,
    /// Boundary withdrawals by round: round `p`'s `(vertex, units)`
    /// pairs are `withdrawals[by_round[p]..by_round[p + 1]]`.
    by_round: Vec<usize>,
    withdrawals: Vec<(u32, u32)>,
}

impl UnitIncidence for RegionProblem {
    #[inline]
    fn incident(&self, e: u32) -> &[u32] {
        let e = e as usize;
        &self.edges[self.offsets[e]..self.offsets[e + 1]]
    }
}

impl PeelProblem for RegionProblem {
    type Output = (Vec<u32>, RunStats);

    fn name(&self) -> &'static str {
        "k-core/region"
    }

    fn num_elements(&self) -> usize {
        self.prio.len()
    }

    fn init_priorities(&self) -> Vec<u32> {
        self.prio.clone()
    }

    fn incidence(&self) -> Incidence<'_> {
        Incidence::Unit(self)
    }

    fn round_decrements(&self, k: u32, emit: &mut dyn FnMut(u32, u32)) {
        let k = k as usize;
        if k + 1 < self.by_round.len() {
            for &(v, units) in &self.withdrawals[self.by_round[k]..self.by_round[k + 1]] {
                emit(v, units);
            }
        }
    }

    fn next_decrement_round(&self, from: u32) -> Option<u32> {
        // The first withdrawal of a round `>= from`, if any, starts that
        // round's run; its round is the last one starting at or before it.
        let first = *self.by_round.get(from as usize)?;
        if first == self.withdrawals.len() {
            return None;
        }
        Some((self.by_round.partition_point(|&start| start <= first) - 1) as u32)
    }

    fn assemble(&self, rounds: Vec<u32>, stats: RunStats) -> Self::Output {
        (rounds, stats)
    }
}

/// Peels the subgraph induced by `region` (sorted ascending vertex ids)
/// on the logical graph `g`, with each boundary neighbor pinned to its
/// standing coreness from `coreness`. Returns the region's new coreness
/// values.
///
/// Exact whenever the boundary coreness is exact — which the affected
/// region computation guarantees for maintenance, since every vertex
/// whose coreness changed is inside the region.
///
/// `remap` is scratch the caller keeps across calls (4 bytes per
/// vertex): all `u32::MAX` between calls, grown here to the universe.
pub(crate) fn peel_subset(
    g: &OverlayGraph,
    coreness: &[u32],
    region: &[VertexId],
    config: Config,
    remap: &mut Vec<u32>,
) -> SubsetPeel {
    let r = region.len();
    if r == 0 {
        return SubsetPeel { coreness: Vec::new(), boundary_arcs: 0, stats: RunStats::default() };
    }
    if remap.len() < g.num_vertices() {
        remap.resize(g.num_vertices(), u32::MAX);
    }
    for (i, &v) in region.iter().enumerate() {
        debug_assert!(i == 0 || region[i - 1] < v, "region must be sorted and duplicate-free");
        remap[v as usize] = i as u32;
    }

    let mut offsets = Vec::with_capacity(r + 1);
    offsets.push(0usize);
    let mut edges = Vec::new();
    let mut prio = Vec::with_capacity(r);
    // One `(round, vertex)` key per boundary arc that can withdraw.
    let mut arcs = Vec::new();
    for (i, &v) in region.iter().enumerate() {
        let nbrs = g.neighbors(v);
        let deg = nbrs.len() as u32;
        for &w in nbrs {
            // `region` ascending makes the remap monotone, so internal
            // neighbors stay strictly increasing.
            match remap[w as usize] {
                u32::MAX => {
                    let p = old_coreness(coreness, w);
                    if p < deg {
                        arcs.push((p, i as u32));
                    }
                }
                j => edges.push(j),
            }
        }
        offsets.push(edges.len());
        prio.push(deg);
    }
    for &v in region {
        remap[v as usize] = u32::MAX;
    }

    let boundary_arcs = prio.iter().map(|&d| d as usize).sum::<usize>() - edges.len();
    let (by_round, withdrawals) = schedule(&arcs);
    let problem = RegionProblem { offsets, edges, prio, by_round, withdrawals };
    let (coreness, stats) = PeelEngine::new(&problem, config).run();
    SubsetPeel { coreness, boundary_arcs, stats }
}

/// Buckets `(round, vertex)` arcs, generated in ascending vertex order,
/// into the by-round CSR of [`RegionProblem`]. A stable counting sort
/// by round keeps each round's vertices ascending, so a vertex's arcs
/// in one round sit together and run-length into one weighted
/// decrement. Linear in the arcs plus the rounds they span.
fn schedule(arcs: &[(u32, u32)]) -> (Vec<usize>, Vec<(u32, u32)>) {
    let rounds = arcs.iter().map(|&(p, _)| p as usize + 1).max().unwrap_or(0);
    let mut next = vec![0usize; rounds + 1];
    for &(p, _) in arcs {
        next[p as usize + 1] += 1;
    }
    for p in 0..rounds {
        next[p + 1] += next[p];
    }
    let mut sorted = vec![0u32; arcs.len()];
    for &(p, v) in arcs {
        sorted[next[p as usize]] = v;
        next[p as usize] += 1;
    }
    // `next[p]` now ends round `p`'s run of `sorted`.
    let mut by_round = vec![0];
    let mut withdrawals = Vec::new();
    let mut start = 0;
    for &end in &next[..rounds] {
        let runs = sorted[start..end].chunk_by(|a, b| a == b);
        withdrawals.extend(runs.map(|run| (run[0], run.len() as u32)));
        by_round.push(withdrawals.len());
        start = end;
    }
    (by_round, withdrawals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bz::bz_coreness;
    use crate::config::{Sampling, Techniques};
    use kcore_graph::{gen, GraphBuilder};

    /// Full-graph subset (no boundary) must reproduce plain k-core.
    #[test]
    fn whole_graph_subset_matches_bz() {
        let g = gen::barabasi_albert(300, 3, 7);
        let want = bz_coreness(&g);
        let region: Vec<u32> = (0..g.num_vertices() as u32).collect();
        let overlay = OverlayGraph::new(g);
        let sub = peel_subset(&overlay, &[], &region, Config::default(), &mut Vec::new());
        assert_eq!(sub.boundary_arcs, 0);
        assert_eq!(sub.coreness, want);
    }

    /// Re-peel one triangle of a barbell with the rest as boundary.
    #[test]
    fn boundary_arcs_pin_external_support() {
        // Triangle {0,1,2} + pendant chain 2-3-4; coreness [2,2,2,1,1].
        let g = GraphBuilder::new(5).edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]).build();
        let coreness = bz_coreness(&g);
        let overlay = OverlayGraph::new(g);
        // Region {0, 1, 2}: vertex 2 has one boundary arc, to 3.
        let sub = peel_subset(&overlay, &coreness, &[0, 1, 2], Config::default(), &mut Vec::new());
        assert_eq!(sub.boundary_arcs, 1);
        assert_eq!(sub.coreness, &[2, 2, 2]);
        // Region {3}: two boundary arcs (2 and 4), both at coreness >= 1.
        let sub = peel_subset(&overlay, &coreness, &[3], Config::default(), &mut Vec::new());
        assert_eq!(sub.boundary_arcs, 2);
        assert_eq!(sub.coreness, &[1]);
    }

    /// Every region of every size must agree with global coreness when
    /// the boundary is exact — sweep contiguous windows of a random
    /// graph under all bucket strategies and every peel design.
    #[test]
    fn arbitrary_regions_with_exact_boundaries_match_global() {
        let g = gen::erdos_renyi(60, 150, 5);
        let want = bz_coreness(&g);
        let overlay = OverlayGraph::new(g);
        // One remap serves every call, as in maintenance.
        let mut remap = Vec::new();
        for start in [0usize, 13, 37] {
            for len in [1usize, 7, 25, 60] {
                let region: Vec<u32> = (start..(start + len).min(60)).map(|v| v as u32).collect();
                for strategy in kcore_buckets::BucketStrategy::ALL {
                    for techniques in
                        [Techniques::default(), Techniques::all_online(), Techniques::offline()]
                    {
                        let config =
                            Config { bucket_strategy: strategy, techniques, ..Config::default() };
                        let sub = peel_subset(&overlay, &want, &region, config, &mut remap);
                        let expect: Vec<u32> = region.iter().map(|&v| want[v as usize]).collect();
                        assert_eq!(
                            sub.coreness, expect,
                            "window {start}+{len} under {strategy}, {techniques:?}"
                        );
                    }
                }
            }
        }
    }

    /// A boundary at coreness 0 withdraws before round 0's drain, so the
    /// region peels exactly as its induced subgraph, whichever bucket
    /// structure files the round-0 decrements.
    #[test]
    fn zero_coreness_boundary_leaves_the_induced_subgraph() {
        let g = gen::barabasi_albert(200, 3, 7);
        let region: Vec<u32> = (0..100).collect();
        let induced = GraphBuilder::new(100).edges(g.edges().filter(|&(u, v)| u < 100 && v < 100));
        let want = bz_coreness(&induced.build());
        let overlay = OverlayGraph::new(g);
        for strategy in kcore_buckets::BucketStrategy::ALL {
            let sub = peel_subset(
                &overlay,
                &[],
                &region,
                Config::with_strategy(strategy),
                &mut Vec::new(),
            );
            assert!(sub.boundary_arcs > 0);
            assert_eq!(sub.coreness, want, "under {strategy}");
        }
    }

    /// Boundary support raises a region vertex's priority above its
    /// internal incidence list, so sampling must leave it exact: a
    /// recount would see only the internal neighbors and settle it
    /// rounds early.
    #[test]
    fn boundary_support_stays_out_of_sample_mode() {
        let g = gen::complete(20);
        let want = bz_coreness(&g);
        let overlay = OverlayGraph::new(g);
        let techniques =
            Techniques { sampling: Some(Sampling::with_threshold(4)), ..Default::default() };
        let sub = peel_subset(
            &overlay,
            &want,
            &[0],
            Config::with_techniques(techniques),
            &mut Vec::new(),
        );
        assert_eq!(sub.boundary_arcs, 19);
        assert_eq!(sub.coreness, &[19]);
        assert_eq!(sub.stats.sampled_vertices, 0, "priority 19 over no internal incidences");
    }

    /// A withdrawal scheduled inside a range of empty keys caps the
    /// skip: the engine must open its round, not jump to the next live
    /// key. Vertex 15 has degree 6 and coreness 3 (a 5-cycle of
    /// coreness-3 vertices plus clique vertex 0); vertex 0 sits in a
    /// 10-clique (coreness 9). In the region {0, 15}, nothing lives
    /// below key 6 until the cycle withdraws from 15 at round 3.
    #[test]
    fn withdrawal_inside_empty_keys_opens_its_round() {
        let mut b = GraphBuilder::new(16);
        for u in 0..10 {
            b = b.edges((u + 1..10).map(|v| (u, v)));
        }
        b = b.edges((10..15).map(|u| (u, if u == 14 { 10 } else { u + 1 })));
        b = b.edges((10..15).chain([0]).map(|u| (u, 15)));
        let g = b.build();
        let want = bz_coreness(&g);
        assert_eq!((want[0], want[15]), (9, 3));
        let overlay = OverlayGraph::new(g);
        for strategy in kcore_buckets::BucketStrategy::ALL {
            for techniques in
                [Techniques::default(), Techniques::all_online(), Techniques::offline()]
            {
                let config = Config { bucket_strategy: strategy, techniques, ..Config::default() };
                let sub = peel_subset(&overlay, &want, &[0, 15], config, &mut Vec::new());
                assert_eq!(sub.coreness, [9, 3], "under {strategy}, {techniques:?}");
                // Rounds 3 and 9 open; keys 0-2 and 4-8 are skipped.
                assert_eq!((sub.stats.rounds, sub.stats.keys_skipped), (2, 8));
            }
        }
    }

    #[test]
    fn next_decrement_round_finds_the_next_non_empty_round() {
        let (by_round, withdrawals) = schedule(&[(2, 0), (1, 0), (2, 1), (4, 3)]);
        let problem =
            RegionProblem { offsets: vec![0], edges: vec![], prio: vec![], by_round, withdrawals };
        let next: Vec<_> = (0..7).map(|k| problem.next_decrement_round(k)).collect();
        assert_eq!(next, [Some(1), Some(1), Some(2), Some(4), Some(4), None, None]);
    }

    #[test]
    fn schedule_buckets_by_round_and_merges_runs() {
        // Arcs arrive in ascending vertex order, rounds in any order.
        let (by_round, withdrawals) = schedule(&[(2, 0), (1, 0), (2, 0), (2, 1), (0, 3), (4, 3)]);
        assert_eq!(by_round, [0, 1, 2, 4, 4, 5], "round 3 is empty");
        assert_eq!(withdrawals, [(3, 1), (0, 1), (0, 2), (1, 1), (3, 1)]);
        assert_eq!(schedule(&[]), (vec![0], vec![]));
    }

    /// Withdrawals from one vertex in one round collapse into a single
    /// weighted decrement: a star's hub keeps 3 of its leaves in the
    /// region and withdraws the other 40 (all coreness 1) in round 1.
    #[test]
    fn same_round_withdrawals_collapse_into_one_decrement() {
        let g = gen::star(44);
        let want = bz_coreness(&g);
        let overlay = OverlayGraph::new(g);
        let sub = peel_subset(&overlay, &want, &[0, 1, 2, 3], Config::default(), &mut Vec::new());
        assert_eq!(sub.boundary_arcs, 40);
        assert_eq!(sub.coreness, &[1, 1, 1, 1]);
        assert_eq!(sub.stats.work, 4 + 6 + 1, "4 settles, 6 internal arcs, 1 scheduled pair");
    }
}
