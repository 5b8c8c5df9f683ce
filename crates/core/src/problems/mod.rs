//! The peeling problems shipped on the [`crate::PeelEngine`].
//!
//! Each module backs one [`crate::Decomposition`] selector with its
//! result type and, where useful, a sequential oracle for testing.
//! Every module but [`densest`] also holds the selector's
//! [`crate::PeelProblem`] implementation:
//!
//! * [`kcore`] — vertex peeling by induced degree (the paper's
//!   subject); unit incidence, every technique applies. The only
//!   degree-by-adjacency problem: densest subgraph and maintenance
//!   peel it too.
//! * [`ktruss`] — edge peeling by triangle support; the snapshot-rule
//!   client that exercises the two-phase driver.
//! * [`densest`] — no problem of its own: the k-core peel plus a
//!   density post-pass over the coreness; Charikar's greedy
//!   2-approximation at round granularity.
//! * [`khcore`] — (k,h)-core / distance-generalized core; the
//!   recompute-incidence client, h-hop ball priorities recomputed over
//!   survivors through the generalized CAS clamp.
//! * [`approx_densest`] — (2+ε)-approximate densest subgraph; the
//!   threshold-policy client, peeling everything at or below
//!   `(1+ε/2)·`avg-degree per round in `O(log₁₊ε n)` rounds.
//!
//! ## Adding a problem
//!
//! 1. Define the element universe (anything countable: vertices, edges,
//!    hyperedges, cells) and a monotone integer priority.
//! 2. Implement [`crate::PeelProblem`]: sizes, initial priorities, and
//!    the decrement rule — [`crate::Incidence::Unit`] if settling an
//!    element costs each incident element exactly one unit (you get
//!    sampling + VGC for free), [`crate::Incidence::Snapshot`] if the
//!    rule needs to observe settle states (you get the two-phase
//!    driver; make the rule deterministic under the snapshot and
//!    tie-break shared charges by element id), or
//!    [`crate::Incidence::Recompute`] if a death invalidates incident
//!    priorities outright (emit a superset of affected elements and
//!    recompute each from the settle snapshot; the engine deduplicates
//!    and clamps).
//! 3. Pick the round structure via [`crate::PeelProblem::round_policy`]:
//!    the default [`crate::RoundPolicy::MinBucket`] peels exact
//!    priorities; [`crate::RoundPolicy::Threshold`] batches whole
//!    priority ranges from a threshold you compute out of the live
//!    [`crate::RoundAggregates`] (unit incidences only — see
//!    [`approx_densest`] for the worked example).
//! 4. Assemble your result from the per-element settle rounds. If the
//!    peel is an existing problem's, reuse that problem and post-process
//!    its result instead (as [`densest`] does with k-core).
//! 5. Add a [`crate::Decomposition`] selector whose `run` builds the
//!    problem and peels it under the staged config; the engine panics
//!    on sampling requests your axes refuse. Test against a
//!    sequential oracle across all bucket strategies (see
//!    `tests/proptest_problems.rs`).

pub mod approx_densest;
pub mod densest;
pub mod kcore;
pub mod khcore;
pub mod ktruss;

pub use approx_densest::{ApproxDensestResult, SWEPT_EPSILONS};
pub use densest::{sequential_greedy_density, DensestResult};
pub use khcore::{sequential_kh_coreness, KhCoreResult};
pub use ktruss::{sequential_trussness, TrussnessResult};
