//! Bucketing structures for peeling algorithms (paper Sec. 5).
//!
//! A bucketing structure manages the *active set* of a peeling algorithm:
//! each round it must produce the initial frontier — every active
//! element whose priority equals the smallest live key `k` — and absorb concurrent
//! `DecreaseKey` notifications while a round is being peeled. The
//! elements are opaque `u32` ids and the priority is whatever monotone
//! key the peeling problem maintains — vertex induced degree for k-core,
//! edge triangle support for k-truss, and so on; the structures never
//! interpret either. Three strategies are implemented behind the
//! [`BucketStructure`] trait:
//!
//! * [`SingleBucket`] — the plain framework (Alg. 1): keep the active set
//!   as a flat array and split each round's frontier and survivors out
//!   of it in one fused two-pass drain. `O(|A|)` work per round, optimal
//!   in total (Thm. 3.1) but with a large constant on dense graphs.
//! * [`FixedBuckets`] — Julienne's strategy: materialize the next `b`
//!   frontiers every `b` rounds and keep the rest in an overflow list.
//!   `O(d(v)/b + b)` per vertex; [`BucketStrategy::Fixed`] uses
//!   Julienne's `b = 16`.
//! * [`HierarchicalBuckets`] — the paper's **HBS**: eight single-key
//!   buckets followed by exponentially ranged buckets, redistributing
//!   lazily in the style of a monotone radix heap. `O(log d(v))` per
//!   vertex.
//!
//! The structures are deliberately decomposition-agnostic — they form a
//! parallel priority structure over integer keys (the paper notes HBS
//! "is also of independent interest") — and are reused by the `kcore`
//! crate for every peeling variant. Each offers two extractions: the
//! per-round frontier at the smallest live key
//! ([`BucketStructure::next_frontier`]) and the batched threshold drain
//! ([`BucketStructure::drain_threshold`]).
//! [`BucketStrategy`] names the four ablation choices (the three
//! structures plus the adaptive single-to-HBS switch).

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
/// * `next_frontier(floor, cap, view)` opens a round between peels
///   (exclusive access), with `floor < cap` and every live key
///   `>= floor`. It returns the round's key `k`: the smallest live key
///   in `[floor, cap)`, or `cap` when none lies below it. Rounds
///   increase but need not be consecutive: the keys between `floor`
///   and `k` hold no live element and are skipped without a round.
/// * The cap rule: nothing at or above `cap` is drained. A `(cap, [])`
///   answer only advances the structure to `cap`; the caller re-opens
///   with `floor = cap` once whatever the cap stood for (scheduled
///   decrements, an approximate key that must be checked) is done.
/// * After a call returns key `k`, the next `next_frontier` floor is
///   `> k`, or `>= cap` after a `(cap, [])` answer. Threshold-policy
///   rounds call [`BucketStructure::drain_threshold`] instead, under
///   the same monotone key sequence.
/// * `on_decrease(v, old_key, new_key, k)` may be called concurrently
///   during a peel of round `k`, with `old_key > new_key > k` (keys
///   that drop *to* `k` go directly to the in-round frontier, never
///   through the bucket structure) and each `(v, new_key)` pair at most
///   once (decrements are atomic, so every observed value is distinct).
///   `old_key` lets a structure skip updates that do not move the
///   element between buckets — the step that brings HBS down to its
///   `O(log d(v))` per-element bound.
/// * `on_decrease(v, old_key, new_key, floor)` may also be called
///   between rounds, before `next_frontier(floor, ..)` (scheduled
///   decrements), with `old_key > new_key >= floor`. An element filed
///   at `floor` this way is in that call's frontier, exactly once.
pub trait BucketStructure: Send + Sync {
    /// Opens the next round: returns `(k, frontier)`, where `k` is the
    /// smallest live key in `[floor, cap)` and `frontier` is every
    /// active element with priority exactly `k`, or `(cap, [])` when no
    /// live key lies below `cap`. Requires `floor < cap`.
    ///
    /// Required (no default): each strategy finds the next non-empty
    /// key natively — a scan for the flat array, a re-anchor at the
    /// smallest key for HBS and the fixed window — so an empty key
    /// costs no round.
    fn next_frontier(&mut self, floor: u32, cap: u32, view: &dyn PriorityView) -> (u32, Vec<u32>);

    /// Threshold extraction: returns every active element with priority
    /// `<= t` in one step — the batched round form used by
    /// `RoundPolicy::Threshold` peeling (e.g. the (2+ε)-approximate
    /// densest-subgraph rounds, which peel everything at or below
    /// `(1+ε/2)·`avg-degree at once).
    ///
    /// Contract: thresholds across calls are strictly increasing, and a
    /// threshold extraction at `t` participates in the monotone key
    /// sequence as if the structure had advanced past round `t` — any
    /// later `next_frontier(floor, ..)` / `drain_threshold(t')` call
    /// must use `floor > t` / `t' > t`. Each element is surfaced at most once per
    /// call (duplicate stale copies are collapsed), and elements left
    /// behind all have priority `> t`.
    ///
    /// Required (no default): a generic fallback cannot know how far
    /// the structure's key sequence has advanced, so it could only
    /// replay per-key frontiers from key 0 — violating the monotone
    /// contract on the second drain of a run. Every strategy implements
    /// the drain natively in one bulk pass over its buckets, so a
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
    /// Julienne-style fixed window of 16 single-key buckets plus an
    /// overflow list.
    Fixed,
    /// The hierarchical bucketing structure of Sec. 5.
    Hierarchical,
    /// The paper's final design (Sec. 5.3): start with a single bucket
    /// and switch to HBS once the θ-core is reached (θ = 16), adapting
    /// to graph density.
    Adaptive,
}

impl BucketStrategy {
    /// Every strategy, in ablation order — the list tests and
    /// benchmarks sweep.
    pub const ALL: [BucketStrategy; 4] = [
        BucketStrategy::Single,
        BucketStrategy::Fixed,
        BucketStrategy::Hierarchical,
        BucketStrategy::Adaptive,
    ];

    /// Instantiates the strategy over elements whose initial priorities
    /// are `priorities` (induced degrees for k-core, triangle supports
    /// for k-truss, ...).
    pub fn build(self, priorities: &[u32]) -> Box<dyn BucketStructure> {
        match self {
            BucketStrategy::Single => Box::new(SingleBucket::new(priorities)),
            BucketStrategy::Fixed => Box::new(FixedBuckets::new(priorities, 16)),
            BucketStrategy::Hierarchical => Box::new(HierarchicalBuckets::new(priorities)),
            // Adaptive switching is orchestrated by the framework (it
            // owns the live priority state needed to rebuild); it starts
            // with a single bucket, whose survivors seed HBS
            // (`SingleBucket::into_hierarchical`).
            BucketStrategy::Adaptive => Box::new(SingleBucket::new(priorities)),
        }
    }
}

impl std::fmt::Display for BucketStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BucketStrategy::Single => write!(f, "1-bucket"),
            BucketStrategy::Fixed => write!(f, "16-bucket"),
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

    /// The per-key drain: opens round `k` with cap `k + 1`, so the
    /// answer is `k`'s frontier or nothing.
    pub fn at(structure: &mut dyn super::BucketStructure, k: u32, view: &TestView) -> Vec<u32> {
        let (key, frontier) = structure.next_frontier(k, k + 1, view);
        assert!(
            key == k || (key == k + 1 && frontier.is_empty()),
            "cap {} overrun at {key}",
            k + 1
        );
        frontier
    }

    /// Opens rounds the way the peel engine does: each round's cap is
    /// the next scheduled round (or one past the largest key), the
    /// schedule's between-round decreases `(round, vertex, new key)`
    /// are filed when the floor reaches their round, and the in-round
    /// decreases are filed while their round is open (if it opens).
    /// Checks that every round opens at the smallest live key, that a
    /// `(cap, [])` answer leaves nothing live below the cap, and that
    /// every vertex surfaces exactly once, at its live key. Returns the
    /// keys of the rounds opened.
    pub fn run_engine_schedule(
        structure: &mut dyn super::BucketStructure,
        keys: &[u32],
        scheduled: &[(u32, u32, u32)],
        in_round: &[(u32, u32, u32)],
    ) -> Vec<u32> {
        let view = TestView::new(keys);
        let end = keys.iter().copied().max().unwrap_or(0) + 1;
        let mut seen = vec![false; keys.len()];
        let mut opened = Vec::new();
        let live_below = |view: &TestView, seen: &[bool], lo: u32, hi: u32| {
            (0..keys.len() as u32).find(|&v| !seen[v as usize] && (lo..hi).contains(&view.key(v)))
        };
        let mut floor = 0;
        while floor < end {
            for &(_, v, nk) in scheduled.iter().filter(|&&(r, _, _)| r == floor) {
                let old = view.key(v);
                view.set_key(v, nk);
                structure.on_decrease(v, old, nk, floor);
            }
            let cap =
                scheduled.iter().map(|&(r, _, _)| r).filter(|&r| r > floor).fold(end, u32::min);
            let (k, frontier) = structure.next_frontier(floor, cap, &view);
            assert!(k <= cap, "round {k} past cap {cap}");
            assert_eq!(
                live_below(&view, &seen, floor, k),
                None,
                "a live key in [{floor}, {k}) skipped"
            );
            if k == cap {
                assert!(frontier.is_empty(), "drained at cap {cap}");
                floor = cap;
                continue;
            }
            let mut want: Vec<u32> =
                (0..keys.len() as u32).filter(|&v| !seen[v as usize] && view.key(v) == k).collect();
            let mut got = frontier.clone();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "frontier of round {k}");
            for &v in &frontier {
                seen[v as usize] = true;
                view.kill(v);
            }
            for &(_, v, nk) in in_round.iter().filter(|&&(r, _, _)| r == k) {
                let old = view.key(v);
                view.set_key(v, nk);
                structure.on_decrease(v, old, nk, k);
            }
            opened.push(k);
            floor = k + 1;
        }
        assert!(seen.iter().all(|&s| s), "some vertex never surfaced: {seen:?}");
        opened
    }

    /// Files decreases *between* rounds (a round's scheduled decrements,
    /// including ones landing on the floor itself and ones before the
    /// very first call) and checks that every vertex surfaces once, at
    /// its final key.
    pub fn run_round_start_decreases<S: super::BucketStructure>(build: impl Fn(&[u32]) -> S) {
        let keys = [5, 3, 9, 20, 1, 30, 25];
        let mut structure = build(&keys);
        // (round, vertex, new key) filed as the floor reaches the round.
        let scheduled = [(0, 0, 0), (0, 2, 2), (2, 3, 6), (6, 5, 6), (8, 6, 8)];
        let opened = run_engine_schedule(&mut structure, &keys, &scheduled, &[]);
        assert_eq!(opened, [0, 1, 2, 3, 6, 8]);
    }

    /// Drives a bucket structure through a full synthetic peeling
    /// schedule with no cap but the end and checks that every vertex is
    /// surfaced exactly at its key's round, and empty keys open none.
    /// Keys are static (no decrements) — decrement flows are exercised
    /// by the per-structure tests.
    pub fn run_static_schedule(structure: &mut dyn super::BucketStructure, keys: &[u32]) {
        let opened = run_engine_schedule(structure, keys, &[], &[]);
        let mut distinct = keys.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(opened, distinct, "one round per distinct key");
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::run_engine_schedule;
    use super::*;

    /// Keys with wide gaps, and caps at an empty key (20), at a live key
    /// (41) and just below a ranged one (299): every strategy opens
    /// exactly the keys that hold a live element, never drains at a
    /// cap, and surfaces each element once at its key.
    #[test]
    fn gapped_keys_open_only_live_rounds_and_honour_the_cap() {
        let keys = [0, 3, 40, 41, 300, 300, 41, 1000];
        // Scheduled: vertex 3 lands on the empty floor 20, vertex 4
        // moves inside the ranged span, vertex 7 lands on floor 299.
        let scheduled = [(20, 3, 20), (41, 4, 100), (299, 7, 299)];
        // In round 3, vertex 5 drops from 300 to 45.
        let in_round = [(3, 5, 45)];
        let want = [0, 3, 20, 40, 41, 45, 100, 299];
        for strategy in BucketStrategy::ALL {
            let mut s = strategy.build(&keys);
            let opened = run_engine_schedule(&mut *s, &keys, &scheduled, &in_round);
            assert_eq!(opened, want, "under {strategy}");
        }
        for b in [1, 4] {
            let mut s = FixedBuckets::new(&keys, b);
            let opened = run_engine_schedule(&mut s, &keys, &scheduled, &in_round);
            assert_eq!(opened, want, "under a width-{b} window");
        }
    }
}
