//! Subset re-peel: run the peel engine on an induced region with exact
//! boundary priorities.
//!
//! Re-peeling only the affected region requires the boundary — region
//! vertices' neighbors *outside* the region — to behave exactly as in a
//! global peel: a neighbor `u` with (unchanged) coreness `c(u)` supports
//! its region neighbor through round `c(u)` and withdraws its unit
//! within that round, clamped at `c(u)`. That is precisely how a settled
//! element behaves in the engine, so the boundary needs no new engine
//! machinery: each boundary *arc* `(v ∈ R, u ∉ R)` becomes a **ghost
//! element** whose incidence list is just `[v]` and whose initial
//! priority is `c(u)` — the ghost settles in round `c(u)` and delivers
//! the clamped decrement at exactly the right time. Ghost priorities are
//! capped at `deg(v)`: a region vertex settles no later than round
//! `deg(v)`, after which its ghosts' decrements hit a settled element
//! and are ignored anyway, and the cap keeps the subproblem's round
//! range bounded by the region's degrees.
//!
//! The result is an ordinary unit-incidence [`PeelProblem`], so every
//! bucket strategy and every Sec. 4 technique (sampling, VGC, offline
//! histogram peeling) applies to the maintenance path unchanged.

use super::region::old_coreness;
use crate::peel::engine::{Incidence, PeelEngine, PeelProblem, UnitIncidence};
use crate::Config;
use kcore_graph::{OverlayGraph, VertexId};
use kcore_parallel::RunStats;

/// Outcome of a subset re-peel.
pub(crate) struct SubsetPeel {
    /// New coreness values, parallel to the `region` slice passed in.
    pub(crate) coreness: Vec<u32>,
    /// Ghost elements created (boundary arcs of the region).
    pub(crate) ghosts: usize,
    /// Engine counters of the re-peel run.
    pub(crate) stats: RunStats,
}

/// The region re-indexed as a compact peel universe: region vertices
/// take ids `0..r` (in ascending original-id order, so re-mapped
/// adjacency stays sorted), ghosts take ids `r..`.
struct RegionProblem {
    offsets: Vec<usize>,
    edges: Vec<u32>,
    prio: Vec<u32>,
    /// Number of real region vertices; elements `>= region_len` are
    /// ghosts.
    region_len: usize,
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

    fn assemble(&self, mut rounds: Vec<u32>, stats: RunStats) -> Self::Output {
        // Ghost settle rounds are scaffolding; only the region's matter.
        rounds.truncate(self.region_len);
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
pub(crate) fn peel_subset(
    g: &OverlayGraph,
    coreness: &[u32],
    region: &[VertexId],
    config: Config,
) -> SubsetPeel {
    let r = region.len();
    if r == 0 {
        return SubsetPeel { coreness: Vec::new(), ghosts: 0, stats: RunStats::default() };
    }
    let mut remap = vec![u32::MAX; g.num_vertices()];
    for (i, &v) in region.iter().enumerate() {
        debug_assert!(i == 0 || region[i - 1] < v, "region must be sorted and duplicate-free");
        remap[v as usize] = i as u32;
    }

    let mut offsets = Vec::with_capacity(r + 1);
    offsets.push(0usize);
    let mut edges = Vec::new();
    let mut prio = Vec::with_capacity(r);
    // Ghost id `r + i` owns region vertex `ghost_owner[i]` with initial
    // priority `ghost_prio[i]`.
    let mut ghost_owner: Vec<u32> = Vec::new();
    let mut ghost_prio: Vec<u32> = Vec::new();
    for (i, &v) in region.iter().enumerate() {
        let nbrs = g.neighbors(v);
        let deg = nbrs.len() as u32;
        // Internal neighbors first: `region` ascending makes the remap
        // monotone, so these stay strictly increasing.
        edges.extend(nbrs.iter().map(|&w| remap[w as usize]).filter(|&w| w != u32::MAX));
        // Then this vertex's ghosts: ids are assigned in increasing
        // order and all exceed the internal range `0..r`.
        for &w in nbrs {
            if remap[w as usize] == u32::MAX {
                edges.push((r + ghost_owner.len()) as u32);
                ghost_owner.push(i as u32);
                ghost_prio.push(old_coreness(coreness, w).min(deg));
            }
        }
        offsets.push(edges.len());
        prio.push(deg);
    }
    let ghosts = ghost_owner.len();
    for owner in ghost_owner {
        edges.push(owner);
        offsets.push(edges.len());
    }
    prio.extend(ghost_prio);

    let problem = RegionProblem { offsets, edges, prio, region_len: r };
    let (coreness, stats) = PeelEngine::new(&problem, config).run();
    SubsetPeel { coreness, ghosts, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bz::bz_coreness;
    use crate::config::{Sampling, Techniques};
    use kcore_graph::{gen, GraphBuilder};

    /// Full-graph subset (no ghosts) must reproduce plain k-core.
    #[test]
    fn whole_graph_subset_matches_bz() {
        let g = gen::barabasi_albert(300, 3, 7);
        let want = bz_coreness(&g);
        let region: Vec<u32> = (0..g.num_vertices() as u32).collect();
        let overlay = OverlayGraph::new(g);
        let sub = peel_subset(&overlay, &[], &region, Config::default());
        assert_eq!(sub.ghosts, 0);
        assert_eq!(sub.coreness, want);
    }

    /// Re-peel one triangle of a barbell with the rest as boundary.
    #[test]
    fn boundary_ghosts_pin_external_support() {
        // Triangle {0,1,2} + pendant chain 2-3-4; coreness [2,2,2,1,1].
        let g = GraphBuilder::new(5).edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]).build();
        let coreness = bz_coreness(&g);
        let overlay = OverlayGraph::new(g);
        // Region {0, 1, 2}: vertex 2 gets one ghost for neighbor 3.
        let sub = peel_subset(&overlay, &coreness, &[0, 1, 2], Config::default());
        assert_eq!(sub.ghosts, 1);
        assert_eq!(sub.coreness, &[2, 2, 2]);
        // Region {3}: two ghosts (2 and 4), both at coreness >= 1.
        let sub = peel_subset(&overlay, &coreness, &[3], Config::default());
        assert_eq!(sub.ghosts, 2);
        assert_eq!(sub.coreness, &[1]);
    }

    /// Every region of every size must agree with global coreness when
    /// the boundary is exact — sweep contiguous windows of a random
    /// graph under all bucket strategies.
    #[test]
    fn arbitrary_regions_with_exact_boundaries_match_global() {
        let g = gen::erdos_renyi(60, 150, 5);
        let want = bz_coreness(&g);
        let overlay = OverlayGraph::new(g);
        for start in [0usize, 13, 37] {
            for len in [1usize, 7, 25, 60] {
                let region: Vec<u32> = (start..(start + len).min(60)).map(|v| v as u32).collect();
                for strategy in [
                    kcore_buckets::BucketStrategy::Single,
                    kcore_buckets::BucketStrategy::Fixed(16),
                    kcore_buckets::BucketStrategy::Hierarchical,
                    kcore_buckets::BucketStrategy::Adaptive,
                ] {
                    let config = Config { bucket_strategy: strategy, ..Config::default() };
                    let sub = peel_subset(&overlay, &want, &region, config);
                    let got: Vec<u32> = sub.coreness;
                    let expect: Vec<u32> = region.iter().map(|&v| want[v as usize]).collect();
                    assert_eq!(got, expect, "window {start}+{len} under {strategy}");
                }
            }
        }
    }

    /// Ghosts carry a priority (the boundary coreness) above their
    /// one-element incidence list, so sampling must leave them exact: a
    /// recount would settle them rounds early.
    #[test]
    fn ghosts_stay_out_of_sample_mode() {
        let g = gen::complete(20);
        let want = bz_coreness(&g);
        let overlay = OverlayGraph::new(g);
        let techniques =
            Techniques { sampling: Some(Sampling::with_threshold(4)), ..Default::default() };
        let sub = peel_subset(&overlay, &want, &[0], Config::with_techniques(techniques));
        assert_eq!(sub.ghosts, 19);
        assert_eq!(sub.coreness, &[19]);
        assert_eq!(sub.stats.sampled_vertices, 1, "only the region vertex samples");
        assert_eq!(sub.stats.restarts, 0);
    }
}
