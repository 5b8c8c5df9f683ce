//! Peeling algorithms on the work-efficient parallel engine.
//!
//! This crate began as a k-core reproduction and now hosts a
//! **problem-agnostic peeling engine** with k-core as its first client.
//! The paper's framework (Alg. 1 + the Sec. 4 techniques) peels any
//! element universe by monotone integer priorities; the engine owns the
//! loop and the techniques, and problems plug in through a trait:
//!
//! * [`PeelEngine`] / [`PeelProblem`] — the generic core: round `k`
//!   repeatedly peels the frontier of elements with priority `k`, using
//!   atomic clamped decrements for `DecreaseKey` and a parallel hash
//!   bag for intra-round frontier collection. Per-round initial
//!   frontiers come from a pluggable [`BucketStrategy`] (single bucket,
//!   HBS, or the adaptive hybrid).
//! * **k-core** ([`Decomposition::kcore`]) — vertices by induced
//!   degree, bit-compatible with the pre-engine implementation. [`bz`]
//!   is the sequential Batagelj–Zaveršnik oracle it is tested against.
//!   It is the crate's only degree-by-adjacency problem: densest
//!   subgraph and [`DynamicGraph`] peel it too.
//! * **k-truss** ([`Decomposition::ktruss`]) — edges by triangle
//!   support, the snapshot-rule client: a dying edge charges the
//!   surviving edges of its triangles under a consistent settle
//!   snapshot. [`sequential_trussness`] is its recount oracle.
//! * **densest subgraph** ([`Decomposition::densest`]) — Charikar's
//!   greedy as the k-core peel plus a per-round density post-pass over
//!   the coreness; a 2-approximation. [`sequential_greedy_density`] is
//!   its oracle.
//!
//! The paper's Sec. 4 practical techniques plug into the engine through
//! the [`Techniques`] block of [`Config`]. [`Config::default`] runs VGC;
//! sampling is opt-in, and [`Techniques::default()`] is the plain
//! framework of Alg. 1:
//!
//! * **Sampling** ([`Sampling`], Sec. 4.1) — high-priority elements
//!   track an approximate priority over a hashed incidence sample,
//!   shedding decrement contention on hubs. When a round's frontier
//!   drains, a hub whose sampled counter reached the round is recounted
//!   exactly, once: it settles or returns to exact counting. That keeps
//!   every live hub's stored priority an upper bound at or above the
//!   next round, so every hub settle is exact and the output
//!   oracle-identical. Unit-incidence problems only.
//! * **Vertical granularity control** ([`Vgc`], Sec. 4.2) — workers
//!   chase local peel chains sequentially instead of bouncing every
//!   frontier hit through the hash bag, collapsing the tiny subrounds
//!   that dominate sparse inputs' burdened span. Unit-incidence
//!   problems only.
//!
//! [`Decomposition::members`] answers a single-core query by bulk range
//! peeling, without the round order of a full decomposition.
//!
//! Every problem is launched through the unified [`Decomposition`]
//! builder; for standing results maintained under edge insertions and
//! deletions, see [`DynamicGraph`].
//!
//! ```
//! use kcore::{Decomposition, Techniques};
//! use kcore_graph::gen;
//!
//! // A 100x100 grid is a 2-core once the boundary peels inward.
//! let g = gen::grid2d(100, 100);
//! let result = Decomposition::kcore(&g).run();
//! assert_eq!(result.kmax(), 2);
//!
//! // Same answer with the full online techniques or the plain framework.
//! for techniques in [Techniques::all_online(), Techniques::default()] {
//!     let r = Decomposition::kcore(&g).techniques(techniques).run();
//!     assert_eq!(r.coreness(), result.coreness());
//! }
//!
//! // The same engine peels edges (k-truss) and tracks densities.
//! let truss = Decomposition::ktruss(&g).run();
//! assert_eq!(truss.max_trussness(), 2, "grids are triangle-free");
//! let densest = Decomposition::densest(&g).run();
//! assert!(densest.density() > 1.9, "the 2-core has ~2 edges per vertex");
//! ```

pub mod bz;
mod config;
mod decomposition;
pub mod maintain;
mod peel;
mod problems;
mod result;

pub use config::{Config, Sampling, Techniques, Vgc};
pub use decomposition::{Decomposition, DensestSpec, KcoreSpec, KtrussSpec};
pub use kcore_buckets::BucketStrategy;
pub use kcore_graph::TriangleCtx;
pub use maintain::{DynamicGraph, MaintainStats, Version};
pub use peel::{
    ElementState, Incidence, PeelEngine, PeelProblem, SettleView, SnapshotRule, UnitIncidence,
};
pub use problems::{
    sequential_greedy_density, sequential_trussness, DensestResult, TrussnessResult,
};
pub use result::CorenessResult;
