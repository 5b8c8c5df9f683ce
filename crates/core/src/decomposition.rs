//! The unified decomposition facade.
//!
//! Every decomposition in this crate is launched the same way: pick the
//! problem, optionally adjust the configuration, run.
//!
//! ```
//! use kcore::{BucketStrategy, Config, Decomposition};
//! use kcore_graph::gen;
//!
//! let g = gen::grid2d(40, 40);
//!
//! // A 40x40 grid is a 2-core once the boundary peels inward.
//! let coreness = Decomposition::kcore(&g).run();
//! assert_eq!(coreness.kmax(), 2);
//!
//! // Same entry point for every problem; builder methods tweak the
//! // config without spelling out a whole `Config`.
//! let truss = Decomposition::ktruss(&g).strategy(BucketStrategy::Hierarchical).run();
//! assert_eq!(truss.max_trussness(), 2, "grids are triangle-free");
//! assert!(Decomposition::densest(&g).run().density() > 1.9);
//! ```
//!
//! # Configuration
//!
//! A run uses exactly the configuration its caller staged:
//! [`Decomposition::config`] replaces it whole, and the field
//! shortcuts [`Decomposition::strategy`] / [`Decomposition::techniques`]
//! set one field of it. Nothing is read from the environment.

use crate::config::Techniques;
use crate::peel::engine::{PeelEngine, PeelProblem};
use crate::problems::kcore::{range_membership, KCoreProblem};
use crate::problems::ktruss::KTrussProblem;
use crate::{Config, CorenessResult, DensestResult, TrussnessResult};
use kcore_buckets::BucketStrategy;
use kcore_graph::{CsrGraph, TriangleCtx};
use std::fmt;

/// Problem selector for k-core (see [`Decomposition::kcore`]).
#[derive(Debug, Clone, Copy)]
pub struct KcoreSpec(());

/// Problem selector for k-truss (see [`Decomposition::ktruss`]).
#[derive(Debug, Clone, Copy)]
pub struct KtrussSpec<'g> {
    /// Pre-built triangle setup supplied by [`Decomposition::with_ctx`];
    /// `None` builds one inside `run`.
    ctx: Option<&'g TriangleCtx>,
}

/// Problem selector for greedy densest subgraph (see
/// [`Decomposition::densest`]).
#[derive(Debug, Clone, Copy)]
pub struct DensestSpec(());

/// A decomposition about to run: one graph, one problem, one
/// configuration. Construct through the problem selectors
/// ([`Decomposition::kcore`], [`Decomposition::ktruss`],
/// [`Decomposition::densest`]), then `run`.
///
/// Every problem runs over a [`CsrGraph`], owned or mmapped
/// ([`kcore_graph::io::map_binary`]). For a *maintained* k-core
/// decomposition under edge batches, see
/// [`crate::maintain::DynamicGraph`] instead.
#[derive(Clone)]
#[must_use = "a Decomposition does nothing until `run`"]
pub struct Decomposition<'g, P> {
    g: &'g CsrGraph,
    problem: P,
    config: Config,
}

// Manual impl: the graph is left out of the output.
impl<P: fmt::Debug> fmt::Debug for Decomposition<'_, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Decomposition")
            .field("problem", &self.problem)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl<'g, P> Decomposition<'g, P> {
    fn with(g: &'g CsrGraph, problem: P) -> Self {
        Self { g, problem, config: Config::default() }
    }

    /// Replaces the whole configuration (bucket strategy and
    /// techniques).
    pub fn config(mut self, config: Config) -> Self {
        self.config = config;
        self
    }

    // Old name of `config`, kept only for the repository benchmark
    // (`perfbench/`), its one caller; no workspace crate calls it.
    #[doc(hidden)]
    pub fn exact_config(self, config: Config) -> Self {
        self.config(config)
    }

    /// Sets just the bucket strategy.
    pub fn strategy(mut self, strategy: BucketStrategy) -> Self {
        self.config.bucket_strategy = strategy;
        self
    }

    /// Sets just the techniques block.
    pub fn techniques(mut self, techniques: Techniques) -> Self {
        self.config.techniques = techniques;
        self
    }

    /// Peels `problem` on the engine with the staged config.
    fn peel<Q: PeelProblem>(&self, problem: &Q) -> Q::Output {
        PeelEngine::new(problem, self.config).run()
    }
}

impl<'g> Decomposition<'g, KcoreSpec> {
    /// k-core decomposition of `g`: per-vertex coreness.
    pub fn kcore(g: &'g CsrGraph) -> Self {
        Self::with(g, KcoreSpec(()))
    }

    /// Runs the decomposition.
    pub fn run(self) -> CorenessResult {
        self.peel(&KCoreProblem { g: self.g })
    }

    /// Membership of the `k`-core (`true` = coreness `>= k`), computed
    /// directly by range peeling: every vertex of degree below `k`
    /// leaves in one bulk step and atomic decrements drive the cascade
    /// — much cheaper than a full decomposition when only one core is
    /// needed. The staged config is not read.
    pub fn members(self, k: u32) -> Vec<bool> {
        range_membership(self.g, k)
    }
}

impl<'g> Decomposition<'g, KtrussSpec<'g>> {
    /// k-truss decomposition of `g`: per-edge trussness.
    pub fn ktruss(g: &'g CsrGraph) -> Self {
        Self::with(g, KtrussSpec { ctx: None })
    }

    /// Supplies a pre-built [`TriangleCtx`] (edge ids + supports +
    /// orientation), so `run` goes straight to the peel — the setup
    /// drops out of the critical path and one context can be reused
    /// across several configurations.
    ///
    /// The context must have been built from the same graph passed to
    /// [`Decomposition::ktruss`].
    ///
    /// # Panics
    ///
    /// `run` panics when the context's vertex or edge count differs
    /// from the graph's. A context from another graph of the same
    /// sizes is not detected and yields meaningless trussness.
    pub fn with_ctx(mut self, ctx: &'g TriangleCtx) -> Self {
        self.problem.ctx = Some(ctx);
        self
    }

    /// Runs the decomposition.
    pub fn run(self) -> TrussnessResult {
        let built;
        let ctx = match self.problem.ctx {
            Some(ctx) => ctx,
            None => {
                built = TriangleCtx::build(self.g);
                &built
            }
        };
        self.peel(&KTrussProblem::new(self.g, ctx))
    }
}

impl<'g> Decomposition<'g, DensestSpec> {
    /// Charikar's greedy densest subgraph on `g` (a 2-approximation).
    pub fn densest(g: &'g CsrGraph) -> Self {
        Self::with(g, DensestSpec(()))
    }

    /// Runs the decomposition: the k-core peel under the staged config,
    /// then the density post-pass over its coreness.
    pub fn run(self) -> DensestResult {
        let core = self.peel(&KCoreProblem { g: self.g });
        DensestResult::from_coreness(self.g, core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bz::bz_coreness;
    use crate::config::{Sampling, Vgc};
    use kcore_graph::gen;

    #[test]
    fn builder_shortcuts_stage_config_fields() {
        // A planted 40-clique: its members' degrees pass the sampling
        // threshold, so the run's stats show the techniques block
        // arrived; the shortcuts' run must match the whole-config run
        // counter for counter.
        let g = gen::planted_core(200, 2, 40, 9);
        let techniques =
            Techniques { sampling: Some(Sampling::with_threshold(8)), vgc: Some(Vgc::default()) };
        let r = Decomposition::kcore(&g)
            .strategy(BucketStrategy::Hierarchical)
            .techniques(techniques)
            .run();
        assert_eq!(r.coreness(), bz_coreness(&g).as_slice());
        assert!(r.stats().sampled_vertices > 0, "the shortcut's sampling must run");
        let config = Config { bucket_strategy: BucketStrategy::Hierarchical, techniques };
        let whole = Decomposition::kcore(&g).config(config).run();
        assert_eq!(format!("{:?}", r.stats()), format!("{:?}", whole.stats()));
    }

    #[test]
    fn members_agree_with_coreness() {
        let g = gen::planted_core(200, 2, 40, 9);
        let coreness = Decomposition::kcore(&g).run();
        let members = Decomposition::kcore(&g).members(3);
        let want: Vec<bool> = coreness.coreness().iter().map(|&c| c >= 3).collect();
        assert_eq!(members, want);
    }
}
