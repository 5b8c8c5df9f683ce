//! Bucketing structures for peeling algorithms (paper Sec. 5).
//!
//! A bucketing structure manages the *active set* of a peeling algorithm:
//! at each round `k` it must produce the initial frontier — every active
//! element whose priority equals `k` — and absorb concurrent
//! `DecreaseKey` notifications while a round is being peeled. The
//! elements are opaque `u32` ids and the priority is whatever monotone
//! key the peeling problem maintains — vertex induced degree for k-core,
//! edge triangle support for k-truss, and so on; the structures never
//! interpret either. Three strategies are implemented behind the
//! [`BucketStructure`] trait:
//!
//! * [`SingleBucket`] — the plain framework (Alg. 1): keep the active set
//!   as a flat array, `pack` the frontier out of it every round. `O(|A|)`
//!   work per round, optimal in total (Thm. 3.1) but with a large
//!   constant on dense graphs.
//! * [`FixedBuckets`] — Julienne's strategy: materialize the next `b`
//!   frontiers every `b` rounds (`b = 16` by default) and keep the rest
//!   in an overflow list. `O(d(v)/b + b)` per vertex.
//! * [`HierarchicalBuckets`] — the paper's **HBS**: eight single-key
//!   buckets followed by exponentially ranged buckets, redistributing
//!   lazily in the style of a monotone radix heap. `O(log d(v))` per
//!   vertex.
//!
//! The structures are deliberately decomposition-agnostic — they form a
//! parallel priority structure over integer keys (the paper notes HBS
//! "is also of independent interest") — and are reused by the `kcore`
//! crate for every peeling variant.

pub mod fixed;
pub mod hbs;
pub mod single;

pub use fixed::FixedBuckets;
pub use hbs::HierarchicalBuckets;
pub use single::SingleBucket;

/// Read-only view of the live peeling state that bucket structures use
/// to filter stale entries.
///
/// `v` is an opaque element id — a vertex for k-core peeling, an edge
/// for k-truss peeling — and `key` is its current priority under the
/// problem's monotone decrement rule.
pub trait PriorityView: Sync {
    /// Current (stored) priority of element `v`. For elements in sample
    /// mode this is the value from the last resample — the bucket
    /// structures only ever see the stored value, which is exactly the
    /// key they were told about through `on_decrease`.
    fn key(&self, v: u32) -> u32;
    /// Whether `v` is still active (not yet peeled).
    fn alive(&self, v: u32) -> bool;
}

/// A structure producing per-round initial frontiers for peeling.
///
/// Contract expected by the `kcore` peel engine (any `kcore::PeelProblem`
/// client, not just k-core; this crate only sees opaque element ids and
/// keys):
/// * `next_frontier(k, view)` is called once per round with strictly
///   increasing `k`, between peels (exclusive access).
/// * `on_decrease(v, old_key, new_key, k)` may be called concurrently
///   during a peel, with `old_key > new_key > k` (keys that drop *to*
///   `k` go directly to the in-round frontier, never through the bucket
///   structure) and each `(v, new_key)` pair at most once (decrements
///   are atomic, so every observed value is distinct). `old_key` lets a
///   structure skip updates that do not move the element between buckets
///   — the step that brings HBS down to its `O(log d(v))` per-element
///   bound.
pub trait BucketStructure: Send + Sync {
    /// Returns every active element with priority exactly `k`.
    fn next_frontier(&mut self, k: u32, view: &dyn PriorityView) -> Vec<u32>;

    /// Returns every active element with priority in `[lo, hi)` —
    /// the bulk form used by offline range peeling (extracting the
    /// sub-`k`-core prefix in one step rather than round by round).
    ///
    /// The default implementation concatenates the per-key frontiers;
    /// the calls participate in the structure's usual monotone key
    /// sequence, so a range extraction counts as having advanced the
    /// structure to round `hi - 1`. Scan-based structures override this
    /// with a single pass.
    fn next_frontier_range(&mut self, lo: u32, hi: u32, view: &dyn PriorityView) -> Vec<u32> {
        let mut out = Vec::new();
        for k in lo..hi {
            out.extend(self.next_frontier(k, view));
        }
        out
    }

    /// Threshold extraction: returns every active element with priority
    /// `<= t` in one step — the batched round form used by
    /// `RoundPolicy::Threshold` peeling (e.g. the (2+ε)-approximate
    /// densest-subgraph rounds, which peel everything at or below
    /// `(1+ε/2)·`avg-degree at once).
    ///
    /// Contract: thresholds across calls are strictly increasing, and a
    /// threshold extraction at `t` participates in the monotone key
    /// sequence as if the structure had advanced past round `t` — any
    /// later `next_frontier(k)` / `drain_threshold(t')` call must use
    /// `k > t` / `t' > t`. Each element is surfaced at most once per
    /// call (duplicate stale copies are collapsed), and elements left
    /// behind all have priority `> t`.
    ///
    /// Required (no default): a generic fallback cannot know how far
    /// the structure's key sequence has advanced, so it could only
    /// replay `next_frontier_range` from key 0 — violating the
    /// monotone contract on the second drain of a run. Every strategy
    /// implements the drain natively (building on its
    /// [`BucketStructure::next_frontier_range`] machinery), so a
    /// threshold round is never simulated by repeated min-bucket pops.
    fn drain_threshold(&mut self, t: u32, view: &dyn PriorityView) -> Vec<u32>;

    /// Notifies the structure that `v`'s priority dropped from
    /// `old_key` to `new_key` while the algorithm is peeling round `k`.
    fn on_decrease(&self, v: u32, old_key: u32, new_key: u32, k: u32);

    /// Human-readable strategy name (for benchmark tables).
    fn name(&self) -> &'static str;
}

/// Which bucketing strategy a decomposition run should use. This is the
/// third axis of the paper's Tab. 3 ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BucketStrategy {
    /// No bucket structure (equivalently, one bucket): scan the active
    /// array each round.
    Single,
    /// Julienne-style fixed window of `b` single-key buckets plus an
    /// overflow list.
    Fixed(u32),
    /// The hierarchical bucketing structure of Sec. 5.
    Hierarchical,
    /// The paper's final design (Sec. 5.3): start with a single bucket
    /// and switch to HBS once the θ-core is reached (θ = 16), adapting
    /// to graph density.
    Adaptive,
}

impl BucketStrategy {
    /// Instantiates the strategy over elements whose initial priorities
    /// are `priorities` (induced degrees for k-core, triangle supports
    /// for k-truss, ...).
    pub fn build(self, priorities: &[u32]) -> Box<dyn BucketStructure> {
        match self {
            BucketStrategy::Single => Box::new(SingleBucket::new(priorities)),
            BucketStrategy::Fixed(b) => Box::new(FixedBuckets::new(priorities, b)),
            BucketStrategy::Hierarchical => Box::new(HierarchicalBuckets::new(priorities)),
            // Adaptive switching is orchestrated by the framework (it
            // owns the live priority state needed to rebuild); it starts
            // with a single bucket.
            BucketStrategy::Adaptive => Box::new(SingleBucket::new(priorities)),
        }
    }
}

impl std::fmt::Display for BucketStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BucketStrategy::Single => write!(f, "1-bucket"),
            BucketStrategy::Fixed(b) => write!(f, "{b}-bucket"),
            BucketStrategy::Hierarchical => write!(f, "HBS"),
            BucketStrategy::Adaptive => write!(f, "adaptive-HBS"),
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::PriorityView;
    use kcore_check::sync::atomic::{AtomicBool, AtomicU32, Ordering};

    /// A mutable priority table for driving bucket structures in tests.
    pub struct TestView {
        pub keys: Vec<AtomicU32>,
        pub dead: Vec<AtomicBool>,
    }

    impl TestView {
        pub fn new(keys: &[u32]) -> Self {
            Self {
                keys: keys.iter().map(|&k| AtomicU32::new(k)).collect(),
                dead: keys.iter().map(|_| AtomicBool::new(false)).collect(),
            }
        }

        pub fn set_key(&self, v: u32, k: u32) {
            self.keys[v as usize].store(k, Ordering::Relaxed);
        }

        pub fn kill(&self, v: u32) {
            self.dead[v as usize].store(true, Ordering::Relaxed);
        }
    }

    impl PriorityView for TestView {
        fn key(&self, v: u32) -> u32 {
            self.keys[v as usize].load(Ordering::Relaxed)
        }
        fn alive(&self, v: u32) -> bool {
            !self.dead[v as usize].load(Ordering::Relaxed)
        }
    }

    /// Checks that a bulk range extraction over `[0, max_key]` surfaces
    /// every vertex exactly once (the offline range-peeling contract).
    pub fn run_range_extraction(structure: &mut dyn super::BucketStructure, keys: &[u32]) {
        let view = TestView::new(keys);
        let maxk = keys.iter().copied().max().unwrap_or(0);
        let mut got = structure.next_frontier_range(0, maxk + 1, &view);
        got.sort_unstable();
        let mut want: Vec<u32> = (0..keys.len() as u32).collect();
        want.sort_unstable();
        assert_eq!(got, want, "range extraction must surface every vertex once");
    }

    /// Drives a bucket structure through an increasing sequence of
    /// threshold drains and checks the threshold-extraction contract:
    /// each drain surfaces exactly the live vertices with key `<= t`,
    /// exactly once across the whole schedule. Keys are static.
    pub fn run_threshold_schedule(
        structure: &mut dyn super::BucketStructure,
        keys: &[u32],
        thresholds: &[u32],
    ) {
        let view = TestView::new(keys);
        let mut seen = vec![false; keys.len()];
        let mut prev: Option<u32> = None;
        for &t in thresholds {
            assert!(prev.is_none_or(|p| t > p), "thresholds must increase");
            let mut got = structure.drain_threshold(t, &view);
            got.sort_unstable();
            let floor = prev.map_or(0, |p| p + 1);
            let mut want: Vec<u32> = (0..keys.len() as u32)
                .filter(|&v| keys[v as usize] >= floor && keys[v as usize] <= t)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "drain at threshold {t} (floor {floor})");
            for &v in &got {
                assert!(!seen[v as usize], "vertex {v} surfaced twice");
                seen[v as usize] = true;
                view.kill(v);
            }
            prev = Some(t);
        }
        let maxk = keys.iter().copied().max().unwrap_or(0);
        if prev.is_some_and(|p| p >= maxk) {
            assert!(seen.iter().all(|&s| s), "some vertex never surfaced: {seen:?}");
        }
    }

    /// Drives a bucket structure through a full synthetic peeling
    /// schedule and checks that every vertex is surfaced exactly at its
    /// key's round. Keys are static (no decrements) — decrement flows
    /// are exercised by the per-structure tests.
    pub fn run_static_schedule(structure: &mut dyn super::BucketStructure, keys: &[u32]) {
        let view = TestView::new(keys);
        let maxk = keys.iter().copied().max().unwrap_or(0);
        let mut seen = vec![false; keys.len()];
        for k in 0..=maxk {
            let frontier = structure.next_frontier(k, &view);
            for &v in &frontier {
                assert_eq!(keys[v as usize], k, "vertex {v} surfaced at wrong round {k}");
                assert!(!seen[v as usize], "vertex {v} surfaced twice");
                seen[v as usize] = true;
                view.kill(v);
            }
        }
        assert!(seen.iter().all(|&s| s), "some vertex never surfaced: {seen:?}");
    }
}
