//! The work-efficient parallel peeling layer: the problem-agnostic
//! [`engine`] plus the paper's Sec. 4 techniques.
//!
//! Each round takes a frontier from the bucket structure: every element
//! of the minimum live priority `k`. Within a round, each *subround*
//! peels the current frontier in parallel:
//!
//! 1. every frontier element settles (its settle round is `k`),
//! 2. the problem's update rule lowers other elements' priorities
//!    through atomic **clamped decrements** — a priority decreases only
//!    while it exceeds `k`, so it never drops below the round and
//!    every intermediate value is observed by exactly one updating
//!    thread,
//! 3. the unique thread that moves an element *to* `k` inserts it
//!    into the parallel hash bag, which becomes the next subround's
//!    frontier; updates that stay above it are reported to the bucket
//!    structure instead.
//!
//! Initial per-round frontiers come from a pluggable
//! [`kcore_buckets::BucketStructure`]; total work is `O(n + m)` plus
//! the structure's maintenance cost (Thm. 3.1).
//!
//! The modules:
//!
//! * [`engine`] — [`engine::PeelProblem`] and [`engine::PeelEngine`]:
//!   the one round/subround loop, parameterized by a subround step
//!   (fused, or two-phase). The concrete problems, k-core and k-truss,
//!   live in [`crate::problems`].
//! * [`sampling`] — Sec. 4.1's sampling scheme: high-priority elements
//!   track an approximate priority over a hashed incidence sample until
//!   one exact recount settles them or returns them to exact counting.
//! * [`vgc`] — Sec. 4.2's vertical granularity control: a worker chases
//!   the local peel chain sequentially instead of bouncing every
//!   frontier hit through the hash bag.

pub mod engine;
pub mod sampling;
pub mod vgc;

pub use engine::{
    ElementState, Incidence, PeelEngine, PeelProblem, SettleView, SnapshotRule, UnitIncidence,
};
