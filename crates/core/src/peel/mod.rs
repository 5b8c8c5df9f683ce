//! The work-efficient parallel peeling layer: the problem-agnostic
//! [`engine`] plus the paper's Sec. 4 techniques.
//!
//! Each round takes a frontier from the bucket structure (the minimum
//! priority `k`, or everything up to a threshold) and fixes the round's
//! clamp. Within a round, each *subround* peels the current frontier
//! in parallel:
//!
//! 1. every frontier element settles (its settle round is the round
//!    index),
//! 2. the problem's update rule lowers other elements' priorities
//!    through atomic **clamped updates** — a priority decreases only
//!    while it exceeds the clamp, so it never drops below the round and
//!    every intermediate value is observed by exactly one updating
//!    thread,
//! 3. the unique thread that moves an element *to* the clamp inserts it
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
//!   the one round/subround loop, parameterized by a frontier source
//!   ([`engine::RoundPolicy`]) and a subround step (fused, two-phase or
//!   offline). The concrete problems — k-core, k-truss, (k,h)-core
//!   and approximate densest subgraph — live in [`crate::problems`].
//! * [`sampling`] — Sec. 4.1's sampling scheme: high-priority elements
//!   track an approximate priority over a hashed incidence sample until
//!   one exact recount settles them or returns them to exact counting.
//! * [`vgc`] — Sec. 4.2's vertical granularity control: a worker chases
//!   the local peel chain sequentially instead of bouncing every
//!   frontier hit through the hash bag.
//! * [`offline`] — the gather and histogram helpers of the
//!   Julienne-style offline step (gather the frontier's decrements,
//!   histogram them, apply bulk updates without per-target atomics),
//!   and offline range peeling for single-core queries.

pub mod engine;
pub mod offline;
pub mod sampling;
pub mod vgc;

pub use engine::{
    ElementState, Incidence, PeelEngine, PeelProblem, RecomputeRule, RoundAggregates, RoundPolicy,
    SettleView, SnapshotRule, ThresholdPolicy, UnitIncidence,
};
