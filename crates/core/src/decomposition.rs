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
//! assert!(Decomposition::approx_densest(&g, 0.5).run().density() * 2.5 >= 1.9);
//! assert!(Decomposition::khcore(&g, 2).run().kmax() >= 2);
//! ```
//!
//! # Configuration resolution
//!
//! [`Decomposition::config`] (or the field shortcuts
//! [`Decomposition::strategy`] / [`Decomposition::techniques`]) applies
//! the `KCORE_TECHNIQUES` environment override at [`Decomposition::run`]
//! — filtered to the techniques the chosen problem's axes admit, so
//! CI's forced-techniques matrix reaches every code path without
//! panicking on inapplicable tokens. [`Decomposition::exact_config`]
//! opts out of the override for callers (and tests) that assert
//! technique-specific behavior.

use crate::config::Techniques;
use crate::env;
use crate::peel::engine::{PeelEngine, PeelProblem};
use crate::problems::approx_densest::ApproxDensestProblem;
use crate::problems::kcore::{self, KCoreProblem};
use crate::problems::khcore::KhCoreProblem;
use crate::problems::ktruss::KTrussProblem;
use crate::{
    ApproxDensestResult, Config, CorenessResult, DensestResult, KhCoreResult, TrussnessResult,
};
use kcore_buckets::BucketStrategy;
use kcore_graph::{CsrGraph, GraphBackend, TriangleCtx};
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

/// Problem selector for the (k,h)-core (see [`Decomposition::khcore`]).
#[derive(Debug, Clone, Copy)]
pub struct KhCoreSpec {
    h: u32,
}

/// Problem selector for the batched (2+ε)-approximate densest subgraph
/// (see [`Decomposition::approx_densest`]).
#[derive(Debug, Clone, Copy)]
pub struct ApproxDensestSpec {
    epsilon: f64,
}

/// A decomposition about to run: one graph, one problem, one
/// configuration. Construct through the problem selectors
/// ([`Decomposition::kcore`], [`Decomposition::ktruss`],
/// [`Decomposition::densest`], [`Decomposition::khcore`],
/// [`Decomposition::approx_densest`]), then `run`.
///
/// For a *maintained* k-core decomposition under edge batches, see
/// [`crate::maintain::DynamicGraph`] instead.
///
/// The k-core and densest-subgraph selectors accept any
/// [`GraphBackend`] (plain/mmapped CSR, [`kcore_graph::CompressedCsr`])
/// — the backend defaults to [`CsrGraph`] and is inferred from the
/// graph argument. Triangle-based problems (k-truss) and the BFS-ball
/// problems (kh-core, approx-densest) require plain CSR.
#[must_use = "a Decomposition does nothing until `run`"]
pub struct Decomposition<'g, P, G = CsrGraph> {
    g: &'g G,
    problem: P,
    config: Config,
    exact: bool,
}

// Manual impls: deriving would bound `G: Debug`/`G: Clone`, but only a
// reference to `G` is held (and graphs are intentionally not `Clone`).
impl<P: fmt::Debug, G> fmt::Debug for Decomposition<'_, P, G> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Decomposition")
            .field("problem", &self.problem)
            .field("config", &self.config)
            .field("exact", &self.exact)
            .finish_non_exhaustive()
    }
}

impl<P: Clone, G> Clone for Decomposition<'_, P, G> {
    fn clone(&self) -> Self {
        Self { g: self.g, problem: self.problem.clone(), config: self.config, exact: self.exact }
    }
}

impl<'g, P, G> Decomposition<'g, P, G> {
    fn with(g: &'g G, problem: P) -> Self {
        Self { g, problem, config: Config::default(), exact: false }
    }

    /// Replaces the whole configuration (bucket strategy, techniques,
    /// stats collection). The `KCORE_TECHNIQUES` environment override
    /// still applies at `run`; use [`Decomposition::exact_config`] to
    /// bypass it.
    pub fn config(mut self, config: Config) -> Self {
        self.config = config;
        self
    }

    /// Replaces the whole configuration and bypasses the
    /// `KCORE_TECHNIQUES` environment override — for callers (and
    /// tests) that assert technique-specific behavior.
    pub fn exact_config(mut self, config: Config) -> Self {
        self.config = config;
        self.exact = true;
        self
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

    /// Disables run-statistics collection (benchmark timings).
    pub fn without_stats(mut self) -> Self {
        self.config.collect_stats = false;
        self
    }

    /// The configuration as currently staged (before env resolution).
    pub fn staged_config(&self) -> &Config {
        &self.config
    }

    /// The effective config for `problem`: the staged one, plus the
    /// `KCORE_TECHNIQUES` techniques its axes admit unless exact.
    fn resolve(&self, problem: &impl PeelProblem) -> Config {
        if self.exact {
            self.config
        } else {
            env::resolve(self.config, problem)
        }
    }

    /// Peels `problem` on the engine with the effective config.
    fn peel<Q: PeelProblem>(&self, problem: &Q) -> Q::Output {
        PeelEngine::new(problem, self.resolve(problem)).run()
    }
}

impl<'g, G: GraphBackend> Decomposition<'g, KcoreSpec, G> {
    /// k-core decomposition of `g`: per-vertex coreness. Accepts any
    /// [`GraphBackend`]; the `KCORE_BACKEND` environment variable
    /// re-encodes plain CSR inputs through the forced backend at `run`.
    pub fn kcore(g: &'g G) -> Self {
        Self::with(g, KcoreSpec(()))
    }

    /// Runs the decomposition.
    pub fn run(self) -> CorenessResult {
        // The axes, and so the resolved config, do not depend on the
        // backend `run_kcore` ends up peeling.
        kcore::run_kcore(self.g, self.resolve(&KCoreProblem { g: self.g }))
    }

    /// Membership of the `k`-core (`true` = coreness `>= k`), computed
    /// directly by offline range peeling — much cheaper than a full
    /// decomposition when only one core is needed. The staged config
    /// is not read.
    pub fn members(self, k: u32) -> Vec<bool> {
        kcore::members(self.g, k)
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

impl<'g, G: GraphBackend> Decomposition<'g, DensestSpec, G> {
    /// Charikar's greedy densest subgraph on `g` (a 2-approximation).
    /// Accepts any [`GraphBackend`], like [`Decomposition::kcore`].
    pub fn densest(g: &'g G) -> Self {
        Self::with(g, DensestSpec(()))
    }

    /// Runs the decomposition: the k-core peel (same axes, so the same
    /// config resolution and `KCORE_BACKEND` override), then the
    /// density post-pass over its coreness.
    pub fn run(self) -> DensestResult {
        let core = kcore::run_kcore(self.g, self.resolve(&KCoreProblem { g: self.g }));
        DensestResult::from_coreness(self.g, core)
    }
}

impl<'g> Decomposition<'g, KhCoreSpec> {
    /// (k,h)-core decomposition of `g` with hop bound `h`.
    ///
    /// # Panics
    ///
    /// Panics if `h == 0` (a 0-hop ball is always empty).
    pub fn khcore(g: &'g CsrGraph, h: u32) -> Self {
        assert!(h > 0, "the (k,h)-core needs a positive hop bound h");
        Self::with(g, KhCoreSpec { h })
    }

    /// Runs the decomposition.
    pub fn run(self) -> KhCoreResult {
        self.peel(&KhCoreProblem { g: self.g, h: self.problem.h })
    }
}

impl<'g> Decomposition<'g, ApproxDensestSpec> {
    /// Batched (2+ε)-approximate densest subgraph on `g`.
    ///
    /// # Panics
    ///
    /// Panics unless `epsilon` is finite and non-negative (`0.0` is
    /// allowed: it degenerates to per-average rounds with the plain
    /// factor 2).
    pub fn approx_densest(g: &'g CsrGraph, epsilon: f64) -> Self {
        assert!(epsilon.is_finite() && epsilon >= 0.0, "epsilon must be finite and >= 0");
        Self::with(g, ApproxDensestSpec { epsilon })
    }

    /// Runs the decomposition.
    pub fn run(self) -> ApproxDensestResult {
        self.peel(&ApproxDensestProblem::new(self.g, self.problem.epsilon))
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
        let g = gen::cycle(12);
        let d = Decomposition::kcore(&g)
            .strategy(BucketStrategy::Hierarchical)
            .techniques(Techniques {
                sampling: Some(Sampling::with_threshold(8)),
                vgc: Some(Vgc::default()),
                ..Techniques::default()
            })
            .without_stats();
        assert_eq!(d.staged_config().bucket_strategy, BucketStrategy::Hierarchical);
        assert!(d.staged_config().techniques.sampling.is_some());
        assert!(!d.staged_config().collect_stats);
        let r = d.run();
        assert_eq!(r.coreness(), bz_coreness(&g).as_slice());
        assert_eq!(r.stats().rounds, 0, "stats disabled");
    }

    #[test]
    fn members_agree_with_coreness() {
        let g = gen::planted_core(200, 2, 40, 9);
        let coreness = Decomposition::kcore(&g).run();
        let members = Decomposition::kcore(&g).members(3);
        let want: Vec<bool> = coreness.coreness().iter().map(|&c| c >= 3).collect();
        assert_eq!(members, want);
    }

    #[test]
    #[should_panic(expected = "positive hop bound")]
    fn khcore_rejects_zero_hops() {
        let g = gen::cycle(4);
        let _ = Decomposition::khcore(&g, 0);
    }

    #[test]
    #[should_panic(expected = "finite and >= 0")]
    fn approx_densest_rejects_negative_epsilon() {
        let g = gen::cycle(4);
        let _ = Decomposition::approx_densest(&g, -1.0);
    }
}
