//! Parallel primitives for k-core decomposition.
//!
//! This crate is the substrate layer under the decomposition algorithms
//! (the role parlaylib/GBBS utilities play for the original
//! implementation):
//!
//! * [`primitives`] — `pack_index`, the fused flat-array drain
//!   `split_at_min`, prefix scans, and counting, the building
//!   blocks the paper assumes in Sec. 2 (“Parallel Primitives”).
//! * [`intersect`] — hybrid sorted-adjacency intersection kernels
//!   (merge / packed-bitset probe) with a per-pair choice from the list
//!   lengths, the sequential core of triangle counting and k-truss
//!   peeling.
//! * [`hashbag`] — the **parallel hash bag** (Sec. 2): concurrent inserts
//!   into geometrically growing chunks with `O(λ + t)` extraction; used
//!   for frontiers and, inside HBS, for bucket contents.
//! * [`instrument`] — work / subround / burdened-span accounting, a
//!   substitute for Cilkview's burdened-span analysis (He, Leiserson,
//!   Leiserson, SPAA'10).
//! * [`pool`] — helpers for running under a fixed rayon thread count
//!   plus the scheduler's steal/split counters (used by the scalability
//!   experiments).
//!
//! Scheduling is delegated to rayon's work-stealing fork–join runtime
//! (offline: the shim's persistent Chase–Lev pool), which matches the
//! paper's binary fork–join model (Sec. 2).

pub mod hashbag;
pub mod instrument;
pub mod intersect;
pub mod pool;
pub mod primitives;

pub use hashbag::HashBag;
pub use instrument::{AtomicMax, RunStats, TechniqueCounters, OMEGA};
