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
//!
//! ## Adding a problem
//!
//! 1. Define the element universe (anything countable: vertices, edges,
//!    hyperedges, cells) and a monotone integer priority.
//! 2. Implement [`crate::PeelProblem`]: sizes, initial priorities, and
//!    the decrement rule — [`crate::Incidence::Unit`] if settling an
//!    element costs each incident element exactly one unit (you get
//!    sampling + VGC for free), or [`crate::Incidence::Snapshot`] if the
//!    rule needs to observe settle states (you get the two-phase
//!    driver; make the rule deterministic under the snapshot and
//!    tie-break shared charges by element id). Rounds open at the
//!    smallest live priority and take every element of exactly that
//!    priority (Alg. 1).
//! 3. Assemble your result from the per-element settle rounds. If the
//!    peel is an existing problem's, reuse that problem and post-process
//!    its result instead (as [`densest`] does with k-core).
//! 4. Add a [`crate::Decomposition`] selector whose `run` builds the
//!    problem and peels it under the staged config. Test against a
//!    sequential oracle across all bucket strategies (see
//!    `tests/proptest_problems.rs`).

pub mod densest;
pub mod kcore;
pub mod ktruss;

pub use densest::{sequential_greedy_density, DensestResult};
pub use ktruss::{sequential_trussness, TrussnessResult};
