//! Batch-dynamic coreness maintenance.
//!
//! The engine answers one-shot decompositions; this module keeps a
//! coreness decomposition *standing* under edge insert/delete batches,
//! re-peeling only what a batch can actually change:
//!
//! 1. [`DynamicGraph`] owns the logical graph as a
//!    [`kcore_graph::OverlayGraph`] — an immutable CSR base plus a
//!    mergeable edge-delta overlay that the engine peels directly
//!    (no CSR rebuild per batch), compacted through the parallel
//!    builder once the overlay outgrows its threshold.
//! 2. [`DynamicGraph::apply_batch`] applies the changes, computes the
//!    **affected region** — the vertices a lazy search from the
//!    changed-edge endpoints cannot rule out, searching only through
//!    vertices whose standing coreness lies in the batch's confinement
//!    range and that survive elimination (see the `region` module docs
//!    for the theorem and the search) — and re-peels just that induced
//!    subgraph on the work-stealing pool, with each boundary neighbor's
//!    support withdrawn at the round of its standing coreness as a
//!    scheduled decrement (see the `repeel` module).
//! 3. The re-peeled values are spliced into a standing versioned
//!    [`CorenessResult`] (copy-on-write, so readers holding
//!    [`CorenessResult::shared`] snapshots are never torn), and
//!    [`MaintainStats`] reports what the batch cost.
//!
//! Oversized regions (more than half the graph) fall back to a full
//! re-peel of the logical graph — never slower than a fresh
//! decomposition by more than the region computation itself.
//!
//! Between batches a [`DynamicGraph`] keeps 13 bytes of scratch per
//! vertex — the region search's flags, counts and links (9) and the
//! re-peel's vertex index map (4) — allocated by its first batch, so a
//! batch costs what it touches rather than the size of the graph.
//!
//! ```
//! use kcore::maintain::DynamicGraph;
//! use kcore::Config;
//! use kcore_graph::gen;
//!
//! let mut dynamic = DynamicGraph::new(gen::grid2d(30, 30), Config::default());
//! assert_eq!(dynamic.result().kmax(), 2);
//!
//! // Deleting an edge re-peels only the affected region.
//! let v1 = dynamic.apply_batch(&[], &[(0, 1)]);
//! assert_eq!(v1.get(), 1);
//! assert!(dynamic.last_stats().region <= 900);
//!
//! // Re-inserting restores the original decomposition.
//! dynamic.apply_batch(&[(0, 1)], &[]);
//! assert_eq!(dynamic.result().kmax(), 2);
//! assert_eq!(dynamic.version().get(), 2);
//! ```

mod region;
mod repeel;

use crate::env;
use crate::peel::engine::PeelEngine;
use crate::problems::kcore::KCoreProblem;
use crate::{Config, CorenessResult};
use kcore_graph::{CsrGraph, OverlayGraph, VertexId};
use kcore_obs::span;
use kcore_parallel::RunStats;

/// Monotone version of a maintained decomposition: 0 right after
/// construction, bumped once per batch that changed anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Version(u64);

impl Version {
    /// The raw counter.
    pub fn get(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for Version {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// What the last [`DynamicGraph::apply_batch`] call did and cost.
/// Extends the engine's [`RunStats`] plumbing with the
/// maintenance-specific quantities.
#[derive(Debug, Clone, Default)]
pub struct MaintainStats {
    /// Version the batch produced.
    pub version: u64,
    /// Inserts actually applied (duplicates and self-loops don't count).
    pub inserted: usize,
    /// Deletes actually applied (absent edges don't count).
    pub deleted: usize,
    /// Distinct endpoints of applied changes (the region search's
    /// seeds).
    pub seeds: usize,
    /// Vertices examined before elimination pruned them down to the
    /// region: those whose qualified neighbors the gain search counted
    /// (it counts a vertex only when a surviving, seed-connected vertex
    /// reaches it, unless it finishes as the eager sweep), or those
    /// whose support the loss cascade counted — whichever pool was
    /// larger.
    pub candidates: usize,
    /// Affected-region size (vertices re-peeled). Bounded by the vertex
    /// count; typically a vanishing fraction of it for small batches.
    pub region: usize,
    /// Inclusive old-coreness range the confinement theorem restricted
    /// the region to.
    pub confinement: (u32, u32),
    /// Boundary arcs of the region (region vertex, neighbor outside),
    /// whose withdrawals the re-peel schedules as round-start
    /// decrements (0 on the full recompute path).
    pub boundary_arcs: usize,
    /// Whether the region was large enough that the batch fell back to
    /// a full re-peel of the logical graph.
    pub full_recompute: bool,
    /// Whether the batch triggered overlay compaction.
    pub compacted: bool,
    /// Engine counters of the re-peel run (region or full).
    pub repeel: RunStats,
    /// Time spent computing the affected region.
    pub region_nanos: u64,
    /// Time spent re-peeling.
    pub repeel_nanos: u64,
    /// Time spent splicing results into the standing [`CorenessResult`].
    pub splice_nanos: u64,
}

/// A graph under edge-batch mutation with its coreness decomposition
/// maintained incrementally. See the [module docs](self) for the
/// lifecycle and the algorithm.
#[derive(Debug)]
pub struct DynamicGraph {
    graph: OverlayGraph,
    config: Config,
    result: CorenessResult,
    last: MaintainStats,
    compaction_fraction: f64,
    /// Scratch of the region search and the re-peel, kept across
    /// batches (see the module docs).
    scratch: region::Scratch,
    remap: Vec<u32>,
}

impl DynamicGraph {
    /// Default overlay-footprint fraction beyond which a batch compacts
    /// the overlay back into a fresh CSR base.
    pub const DEFAULT_COMPACTION_FRACTION: f64 = 0.5;

    /// Wraps `base` and computes its initial decomposition (version 0)
    /// with the given configuration plus the `KCORE_TECHNIQUES`
    /// environment override, as [`crate::Decomposition::config`] does.
    pub fn new(base: CsrGraph, config: Config) -> Self {
        Self::build(base, config, false)
    }

    /// Like [`DynamicGraph::new`] but takes `config` exactly as given,
    /// bypassing the environment override.
    pub fn with_exact_config(base: CsrGraph, config: Config) -> Self {
        Self::build(base, config, true)
    }

    fn build(base: CsrGraph, config: Config, exact: bool) -> Self {
        // The overlay serves merged adjacency slices, so the logical
        // graph peels as an ordinary k-core problem.
        let graph = OverlayGraph::new(base);
        let problem = KCoreProblem { g: &graph };
        let config = if exact { config } else { env::resolve(config, &problem) };
        let result = PeelEngine::new(&problem, config).run();
        Self {
            graph,
            config,
            result,
            last: MaintainStats::default(),
            compaction_fraction: Self::DEFAULT_COMPACTION_FRACTION,
            scratch: region::Scratch::default(),
            remap: Vec::new(),
        }
    }

    /// The logical graph being maintained.
    pub fn graph(&self) -> &OverlayGraph {
        &self.graph
    }

    /// The standing decomposition. Its [`CorenessResult::version`]
    /// matches [`DynamicGraph::version`]; take
    /// [`CorenessResult::shared`] for a snapshot that survives later
    /// batches.
    pub fn result(&self) -> &CorenessResult {
        &self.result
    }

    /// Coreness of every vertex at the current version.
    pub fn coreness(&self) -> &[u32] {
        self.result.coreness()
    }

    /// Current version: one bump per batch that applied any change.
    pub fn version(&self) -> Version {
        Version(self.result.version())
    }

    /// Statistics of the most recent [`DynamicGraph::apply_batch`].
    pub fn last_stats(&self) -> &MaintainStats {
        &self.last
    }

    /// The configuration every (re-)peel runs with.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Renders the current logical graph as a standalone [`CsrGraph`]
    /// (for oracles, persistence, or handing off to one-shot
    /// decompositions).
    pub fn snapshot(&self) -> CsrGraph {
        self.graph.to_csr()
    }

    /// Overrides the compaction threshold: a batch ending with
    /// [`OverlayGraph::dirty_fraction`] above `fraction` rebuilds the
    /// base CSR. `f64::INFINITY` disables compaction.
    pub fn set_compaction_fraction(&mut self, fraction: f64) {
        assert!(fraction >= 0.0, "compaction fraction must be non-negative");
        self.compaction_fraction = fraction;
    }

    /// Applies a batch of edge changes — deletes first, then inserts —
    /// and brings the standing coreness up to date by re-peeling the
    /// affected region. Inserts may name vertices beyond the current
    /// universe; the universe grows to fit.
    ///
    /// Changes that don't alter the logical graph (inserting a present
    /// edge or a self-loop, deleting an absent edge) are skipped; a
    /// batch in which *nothing* applied leaves the version unchanged.
    ///
    /// Returns the version the graph is now at.
    pub fn apply_batch(
        &mut self,
        inserts: &[(VertexId, VertexId)],
        deletes: &[(VertexId, VertexId)],
    ) -> Version {
        let mut stats = MaintainStats::default();
        let mut changed: Vec<(VertexId, VertexId)> =
            Vec::with_capacity(inserts.len() + deletes.len());
        for &(u, v) in deletes {
            if self.graph.delete_edge(u, v) {
                changed.push((u, v));
                stats.deleted += 1;
            }
        }
        for &(u, v) in inserts {
            if self.graph.insert_edge(u, v) {
                changed.push((u, v));
                stats.inserted += 1;
            }
        }
        if changed.is_empty() {
            stats.version = self.result.version();
            self.last = stats;
            return self.version();
        }
        let n = self.graph.num_vertices();
        let _batch = span!("maintain.apply_batch", changed.len());

        // The phase timings always run off the obs monotonic clock;
        // with tracing enabled each phase is also a visible child span.
        let (region, region_nanos) = kcore_obs::timed("maintain.region", || {
            region::affected_region(
                &self.graph,
                self.result.coreness(),
                &changed,
                stats.inserted > 0,
                &mut self.scratch,
            )
        });
        stats.region_nanos = region_nanos;
        stats.seeds = region.seeds;
        stats.candidates = region.candidates;
        stats.region = region.vertices.len();
        stats.confinement = (region.lo, region.hi);

        // An oversized region forfeits the locality win; peel the whole
        // logical graph instead of building a subproblem of most of it.
        stats.full_recompute = 2 * region.vertices.len() > n;
        let ((region_vertices, coreness), repeel_nanos) =
            kcore_obs::timed("maintain.repeel", || {
                if stats.full_recompute {
                    let full = PeelEngine::new(&KCoreProblem { g: &self.graph }, self.config).run();
                    stats.repeel = full.stats().clone();
                    (None, full.into_coreness())
                } else {
                    let sub = repeel::peel_subset(
                        &self.graph,
                        self.result.coreness(),
                        &region.vertices,
                        self.config,
                        &mut self.remap,
                    );
                    stats.boundary_arcs = sub.boundary_arcs;
                    stats.repeel = sub.stats;
                    (Some(region.vertices), sub.coreness)
                }
            });
        stats.repeel_nanos = repeel_nanos;

        let result = &mut self.result;
        let (version, splice_nanos) = kcore_obs::timed("maintain.splice", || {
            let version = match region_vertices {
                Some(vertices) => result.splice(n, vertices.into_iter().zip(coreness)),
                None => result.splice(n, (0u32..).zip(coreness)),
            };
            result.set_stats(stats.repeel.clone());
            version
        });
        stats.version = version;
        stats.splice_nanos = splice_nanos;

        if self.graph.dirty_fraction() > self.compaction_fraction {
            self.graph.compact();
            stats.compacted = true;
        }
        self.last = stats;
        self.version()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bz::bz_coreness;
    use kcore_graph::{gen, GraphBuilder};

    fn assert_current(dynamic: &DynamicGraph) {
        let want = bz_coreness(&dynamic.snapshot());
        assert_eq!(dynamic.coreness(), want.as_slice(), "standing coreness must match oracle");
    }

    #[test]
    fn construction_matches_one_shot_decomposition() {
        let g = gen::barabasi_albert(500, 3, 9);
        let dynamic = DynamicGraph::new(g.clone(), Config::default());
        assert_eq!(dynamic.coreness(), bz_coreness(&g).as_slice());
        assert_eq!(dynamic.version().get(), 0);
        assert!(dynamic.result().stats().rounds > 0);
    }

    #[test]
    fn default_config_stays_exact_across_delete_and_restore() {
        // The default config re-peels with VGC: one batch deleting every
        // 17th edge of a road graph, one batch restoring them.
        let g = gen::road(30, 30, 0.1, 0.1, 4);
        let mut dynamic = DynamicGraph::with_exact_config(g.clone(), Config::default());
        assert_eq!(dynamic.config().techniques.vgc, Some(crate::Vgc::default()));
        assert_current(&dynamic);
        let batch: Vec<(VertexId, VertexId)> = g.edges().step_by(17).collect();
        dynamic.apply_batch(&[], &batch);
        assert_eq!(dynamic.last_stats().deleted, batch.len());
        assert!(dynamic.last_stats().region > 0, "the deletes must lower some coreness");
        assert!(dynamic.last_stats().repeel.peak_chain > 1, "the re-peel must chase a chain");
        assert_current(&dynamic);
        dynamic.apply_batch(&batch, &[]);
        assert_eq!(dynamic.last_stats().inserted, batch.len());
        assert_current(&dynamic);
        assert_eq!(dynamic.coreness(), bz_coreness(&g).as_slice());
    }

    #[test]
    fn inserts_deletes_and_growth_stay_exact() {
        let g = gen::grid2d(12, 12);
        let mut dynamic = DynamicGraph::new(g, Config::default());
        dynamic.apply_batch(&[(0, 13), (5, 40)], &[]);
        assert_current(&dynamic);
        dynamic.apply_batch(&[], &[(0, 1), (12, 13)]);
        assert_current(&dynamic);
        // Growth: vertex 200 is beyond the 144-vertex grid.
        let v = dynamic.apply_batch(&[(3, 200)], &[]);
        assert_eq!(v.get(), 3);
        assert_eq!(dynamic.graph().num_vertices(), 201);
        assert_current(&dynamic);
    }

    #[test]
    fn mixed_batch_deletes_before_inserts() {
        // The batch both deletes {0,1} and inserts {0,2}: deletes apply
        // first, so inserting an edge the same batch deletes would
        // re-add it.
        let g = GraphBuilder::new(3).edges([(0, 1), (1, 2)]).build();
        let mut dynamic = DynamicGraph::new(g, Config::default());
        dynamic.apply_batch(&[(0, 2), (0, 1)], &[(0, 1)]);
        assert!(dynamic.graph().has_edge(0, 1), "deleted then re-inserted");
        assert!(dynamic.graph().has_edge(0, 2));
        assert_current(&dynamic);
        assert_eq!(dynamic.last_stats().deleted, 1);
        assert_eq!(dynamic.last_stats().inserted, 2);
    }

    #[test]
    fn noop_batches_keep_the_version() {
        let g = gen::cycle(10);
        let mut dynamic = DynamicGraph::new(g, Config::default());
        let v = dynamic.apply_batch(&[(0, 1), (4, 4)], &[(2, 7)]);
        assert_eq!(v.get(), 0, "present insert + self-loop + absent delete all skip");
        assert_eq!(dynamic.last_stats().inserted, 0);
        assert_eq!(dynamic.last_stats().deleted, 0);
        assert_eq!(dynamic.last_stats().region, 0);
    }

    #[test]
    fn region_never_exceeds_the_graph_and_shrinks_for_far_edges() {
        // 50 four-cliques (coreness 3) strung on a chain of coreness-1
        // connector vertices: clique i is vertices 5i..5i+3, connector
        // 5i+4 links 5i+3 to 5(i+1).
        let mut b = GraphBuilder::new(250);
        for i in 0..50u32 {
            let base = 5 * i;
            for u in 0..4u32 {
                for v in (u + 1)..4 {
                    b.push_edge(base + u, base + v);
                }
            }
            b.push_edge(base + 3, base + 4);
            if i < 49 {
                b.push_edge(base + 4, base + 5);
            }
        }
        let mut dynamic = DynamicGraph::new(b.build(), Config::default());
        let n = dynamic.graph().num_vertices();

        // A single edge change deep inside one clique: the connectors'
        // coreness 1 is outside the confinement range [3, 3], so the
        // region is that one clique — not the other 49.
        dynamic.apply_batch(&[], &[(100, 101)]);
        let far = dynamic.last_stats().region;
        assert_eq!(dynamic.last_stats().confinement, (3, 3));
        assert!(far <= 4, "one clique's worth of vertices, got {far}");
        assert!(!dynamic.last_stats().full_recompute);
        assert_current(&dynamic);

        // A scattered batch widens the range but still never exceeds n.
        dynamic.apply_batch(&[(100, 101), (0, 249)], &[(10, 11)]);
        assert!(dynamic.last_stats().region <= n);
        assert_current(&dynamic);
    }

    #[test]
    fn oversized_regions_fall_back_to_full_recompute() {
        // Breaking a cycle drops every vertex from coreness 2 to 1: the
        // loss cascade keeps the whole graph in the region, which
        // triggers the full-recompute fallback.
        let mut dynamic = DynamicGraph::new(gen::cycle(50), Config::default());
        dynamic.apply_batch(&[], &[(0, 1)]);
        assert_eq!(dynamic.last_stats().region, 50);
        assert!(dynamic.last_stats().full_recompute);
        assert_eq!(dynamic.last_stats().boundary_arcs, 0);
        assert_current(&dynamic);
    }

    #[test]
    fn eliminated_regions_skip_the_repeel() {
        // Splitting a path leaves every coreness at 1: a delete-only
        // batch skips the gain side entirely, and the loss cascade
        // certifies after examining just the two endpoints that nothing
        // moves — so no re-peel runs at all.
        let mut b = GraphBuilder::new(50);
        for v in 0..49u32 {
            b.push_edge(v, v + 1);
        }
        let mut dynamic = DynamicGraph::new(b.build(), Config::default());
        dynamic.apply_batch(&[], &[(10, 11)]);
        let s = dynamic.last_stats();
        assert_eq!(s.candidates, 2, "only the endpoints were examined");
        assert_eq!(s.region, 0, "elimination proved no coreness moves");
        assert!(!s.full_recompute);
        assert_eq!(s.version, 1, "the graph still changed");
        assert_current(&dynamic);
    }

    #[test]
    fn compaction_triggers_and_preserves_results() {
        let mut dynamic = DynamicGraph::new(gen::grid2d(8, 8), Config::default());
        dynamic.set_compaction_fraction(0.01);
        dynamic.apply_batch(&[(0, 63), (5, 17)], &[(0, 1)]);
        assert!(dynamic.last_stats().compacted);
        assert_eq!(dynamic.graph().overlay_arcs(), 0);
        assert_current(&dynamic);
        // And the graph keeps maintaining correctly after compaction.
        dynamic.apply_batch(&[(0, 1)], &[(5, 17)]);
        assert_current(&dynamic);
    }

    #[test]
    fn shared_snapshots_survive_later_batches() {
        let mut dynamic = DynamicGraph::new(gen::grid2d(10, 10), Config::default());
        let before = dynamic.result().shared();
        let kmax_before = dynamic.result().kmax();
        // Row 0 of the grid is vertices 0..10; peel its edges off one
        // batch at a time.
        for v in 0..9 {
            dynamic.apply_batch(&[], &[(v, v + 1)]);
        }
        assert_eq!(before.len(), 100, "snapshot pinned at version 0");
        assert_eq!(before.iter().copied().max(), Some(kmax_before));
        assert_eq!(dynamic.version().get(), 9);
    }

    #[test]
    fn hub_heavy_batches_match_the_oracle_under_every_strategy() {
        // A power-law graph, where a region's hubs carry most of their
        // support across the boundary: delete 32 spread-out edges, then
        // restore them, three times over.
        let g = gen::rmat(10, 8, 0.57, 0.19, 0.19, 7);
        let edges: Vec<(u32, u32)> = g.edges().collect();
        let stride = (edges.len() / 32) | 1;
        for strategy in kcore_buckets::BucketStrategy::ALL {
            let mut dynamic = DynamicGraph::new(g.clone(), Config::with_strategy(strategy));
            let (mut region, mut boundary_arcs) = (0, 0);
            for start in [0usize, 11, 29] {
                let batch: Vec<(u32, u32)> =
                    (0..32).map(|i| edges[(start + i * stride) % edges.len()]).collect();
                for (inserts, deletes) in [(&[][..], &batch[..]), (&batch[..], &[][..])] {
                    dynamic.apply_batch(inserts, deletes);
                    assert_current(&dynamic);
                    let s = dynamic.last_stats();
                    if !s.full_recompute {
                        region += s.region;
                        boundary_arcs += s.boundary_arcs;
                    }
                }
            }
            assert!(region > 0, "some batch re-peels a region under {strategy}");
            assert!(
                boundary_arcs > region,
                "{boundary_arcs} boundary arcs vs {region} region vertices under {strategy}"
            );
        }
    }

    #[test]
    fn maintain_stats_are_populated() {
        // Two 4-cliques joined by a path; deleting an edge inside one
        // clique re-peels exactly that clique, with the path as its
        // boundary.
        let mut b = GraphBuilder::new(10);
        for base in [0u32, 6] {
            for u in 0..4u32 {
                for v in (u + 1)..4 {
                    b.push_edge(base + u, base + v);
                }
            }
        }
        b.push_edge(3, 4);
        b.push_edge(4, 5);
        b.push_edge(5, 6);
        let mut dynamic = DynamicGraph::new(b.build(), Config::default());
        dynamic.apply_batch(&[], &[(0, 1)]);
        let s = dynamic.last_stats();
        assert_eq!(s.version, 1);
        assert_eq!(s.deleted, 1);
        assert_eq!(s.seeds, 2);
        assert!(s.candidates >= s.region);
        assert_eq!(s.region, 4, "the touched clique re-peels");
        assert!(!s.full_recompute);
        assert_eq!(s.boundary_arcs, 1, "the clique meets the path at one arc");
        assert!(s.repeel.rounds > 0, "RunStats must be threaded through");
        assert_current(&dynamic);
    }
}
