//! # parallel-kcore
//!
//! A Rust implementation of *“Parallel k-Core Decomposition: Theory and
//! Practice”* (SIGMOD 2025): a simple, work-efficient (`O(n + m)`) parallel
//! framework for k-core decomposition, together with the paper's three
//! practical techniques — a **sampling scheme** that reduces contention on
//! high-degree vertices, **vertical granularity control (VGC)** that
//! collapses peeling subrounds on sparse graphs, and a **hierarchical
//! bucketing structure (HBS)** that manages the active set on graphs with
//! large coreness.
//!
//! The framework is not k-core-specific: the workspace factors it into
//! a problem-agnostic **peel engine** (`kcore::PeelEngine` +
//! `kcore::PeelProblem`) with k-core as its first client, plus
//! **k-truss** decomposition (edge peeling by triangle support),
//! **greedy densest subgraph** (min-degree peeling with running density
//! tracking, a 2-approximation), the **(k,h)-core**
//! (distance-generalized cores with recomputed h-hop priorities), and
//! the batched **(2+ε)-approximate densest subgraph**
//! (threshold-batched rounds, `O(log₁₊ε n)` of them) on the same
//! engine, techniques, and bucket structures.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`graph`] — CSR graphs, builders, synthetic generators, I/O, and
//!   the edge-id / triangle primitives behind edge peeling
//!   ([`kcore_graph`]).
//! * [`parallel`] — parallel primitives: pack, scan, sorted
//!   intersection, the parallel hash bag, and scheduling
//!   instrumentation ([`kcore_parallel`]).
//! * [`buckets`] — bucketing structures over opaque elements and
//!   priorities, including HBS ([`kcore_buckets`]).
//! * [`obs`] — first-party tracing: `span!`/`counter!` macros over
//!   lock-free per-thread rings, `KCORE_TRACE` runtime gating,
//!   Chrome-trace export ([`kcore_obs`]).
//! * [`core`] — the peel engine and its problems: k-core, k-truss,
//!   densest subgraph, and the sequential oracles they are tested
//!   against ([`kcore`]).
//!
//! ## Quickstart
//!
//! Every decomposition starts from the [`core::Decomposition`] builder;
//! [`core::DynamicGraph`] maintains a standing k-core decomposition
//! under batches of edge insertions and deletions.
//!
//! ```
//! use parallel_kcore::core::Decomposition;
//! use parallel_kcore::graph::gen;
//!
//! // A 100x100 grid: interior vertices have degree 4, the whole graph is a
//! // 2-core after the corners peel away.
//! let g = gen::grid2d(100, 100);
//! let result = Decomposition::kcore(&g).run();
//! assert_eq!(result.kmax(), 2);
//!
//! // The same engine peels edges and tracks densities.
//! assert_eq!(Decomposition::ktruss(&g).run().max_trussness(), 2);
//! assert!(Decomposition::densest(&g).run().density() > 1.9);
//!
//! // ...and runs other round structures: threshold-batched rounds
//! // ((2+ε)-approx densest, O(log n) rounds) and recomputed h-hop
//! // priorities (the (k,h)-core).
//! let approx = Decomposition::approx_densest(&g, 0.5).run();
//! assert!(approx.density() * 2.5 >= 1.9);
//! assert!(Decomposition::khcore(&g, 2).run().kmax() >= 2);
//!
//! // Maintenance: delete an edge, splice only the affected region.
//! use parallel_kcore::core::DynamicGraph;
//! let mut dyn_g = DynamicGraph::new(gen::grid2d(30, 30), Default::default());
//! let v1 = dyn_g.apply_batch(&[], &[(0, 1)]);
//! assert_eq!(v1.get(), 1);
//! ```
pub use kcore as core;
pub use kcore_buckets as buckets;
pub use kcore_graph as graph;
pub use kcore_obs as obs;
pub use kcore_parallel as parallel;

/// Convenience re-export of the most common entry points.
pub mod prelude {
    pub use kcore::{
        ApproxDensestResult, Config, CorenessResult, Decomposition, DensestResult, DynamicGraph,
        KhCoreResult, MaintainStats, PeelEngine, PeelProblem, TrussnessResult, Version,
    };
    pub use kcore_graph::{CsrGraph, EdgeIndex, GraphBuilder, VertexId};
}
