//! Bucketing structures for peeling algorithms (paper Sec. 5).
//!
//! A bucketing structure manages the *active set* of a peeling algorithm:
//! each round it must produce the initial frontier — every active
//! element whose priority equals the smallest live key `k` — and absorb concurrent
//! `DecreaseKey` notifications while a round is being peeled. The
//! elements are opaque `u32` ids and the priority is whatever monotone
//! key the peeling problem maintains — vertex induced degree for k-core,
//! edge triangle support for k-truss, and so on; the structures never
//! interpret either. Two structures implement the [`BucketStructure`]
//! contract:
//!
//! * [`SingleBucket`] — the plain framework (Alg. 1): keep the active set
//!   as a flat array and split each round's frontier and survivors out
//!   of it in one fused two-pass drain. `O(|A|)` work per round, optimal
//!   in total (Thm. 3.1) but with a large constant on dense graphs.
//! * [`HierarchicalBuckets`] — the paper's **HBS**: eight single-key
//!   buckets for the anchor's aligned 8-key block, then one ranged
//!   bucket per highest bit in which a key differs from the anchor,
//!   re-anchored one bucket at a time as a monotone radix heap.
//!   `O(log d(v))` per vertex, re-anchoring included.
//!
//! The structures are deliberately decomposition-agnostic — they form a
//! parallel priority structure over integer keys (the paper notes HBS
//! "is also of independent interest") — and are reused by the `kcore`
//! crate for every peeling variant. Each offers one extraction: the
//! per-round frontier at the smallest live key
//! ([`BucketStructure::next_frontier`]), reading the engine's live
//! priorities and settle marks through one concrete [`LiveView`].
//! [`BucketStrategy`] names the three ablation choices (the flat array,
//! HBS, and the paper's adaptive flat-to-HBS switch), and
//! [`BucketStrategy::build`] returns the one concrete type a run peels
//! with, [`Buckets`], which owns the adaptive upgrade.

pub mod hbs;
pub mod single;

pub use hbs::HierarchicalBuckets;
pub use single::SingleBucket;

use kcore_check::sync::atomic::{AtomicU32, Ordering};

/// Settle-round sentinel: the value an element's settle slot holds
/// until it is peeled.
pub const UNSET: u32 = u32::MAX;

/// Read-only view of the live peeling state that bucket structures use
/// to filter stale entries: the peel engine's priority and settle-round
/// arrays, indexed by element id.
///
/// `v` is an opaque element id — a vertex for k-core peeling, an edge
/// for k-truss peeling — and `key` is its current priority under the
/// problem's monotone decrement rule. The view is concrete (not a
/// trait object) so the per-entry reads inline into each drain loop.
pub struct LiveView<'a> {
    /// Current priority of each element.
    pub prio: &'a [AtomicU32],
    /// Settle round of each element, [`UNSET`] while it is active.
    pub settled: &'a [AtomicU32],
}

impl LiveView<'_> {
    /// Current (stored) priority of element `v`. For elements in sample
    /// mode this is the value from the last resample — the bucket
    /// structures only ever see the stored value, which is exactly the
    /// key they were told about through `on_decrease`.
    #[inline]
    pub fn key(&self, v: u32) -> u32 {
        self.prio[v as usize].load(Ordering::Relaxed)
    }

    /// Whether `v` is still active (not yet peeled).
    #[inline]
    pub fn alive(&self, v: u32) -> bool {
        self.settled[v as usize].load(Ordering::Relaxed) == UNSET
    }
}

/// A structure producing per-round initial frontiers for peeling.
///
/// Contract expected by the `kcore` peel engine (any `kcore::PeelProblem`
/// client, not just k-core; this crate only sees opaque element ids and
/// keys):
/// * `next_frontier(floor, cap, view)` opens a round between peels
///   (exclusive access), with `floor < cap` and every live key
///   `>= floor`. `view` is the [`LiveView`] of the engine's priority
///   and settle arrays: an element is live while it is not settled,
///   and its key is its stored priority. It returns the round's key
///   `k`: the smallest live key in `[floor, cap)`, or `cap` when none
///   lies below it. Rounds
///   increase but need not be consecutive: the keys between `floor`
///   and `k` hold no live element and are skipped without a round.
/// * The cap rule: nothing at or above `cap` is drained. A `(cap, [])`
///   answer only advances the structure to `cap`; the caller re-opens
///   with `floor = cap` once whatever the cap stood for (scheduled
///   decrements, an approximate key that must be checked) is done.
/// * After a call returns key `k`, the next `next_frontier` floor is
///   `> k`, or `>= cap` after a `(cap, [])` answer.
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
    /// Required (no default): each structure finds the next non-empty
    /// key natively — a scan for the flat array, a re-anchor at the
    /// smallest key for HBS — so an empty key costs no round.
    fn next_frontier(&mut self, floor: u32, cap: u32, view: &LiveView<'_>) -> (u32, Vec<u32>);

    /// Notifies the structure that `v`'s priority dropped from
    /// `old_key` to `new_key` while the algorithm is peeling round `k`.
    fn on_decrease(&self, v: u32, old_key: u32, new_key: u32, k: u32);
}

/// Which bucketing strategy a decomposition run should use. This is the
/// third axis of the paper's Tab. 3 ablation: the flat array, HBS, and
/// the paper's switch from the first to the second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BucketStrategy {
    /// No bucket structure (equivalently, one bucket): scan the active
    /// array each round.
    Single,
    /// The hierarchical bucketing structure of Sec. 5.
    Hierarchical,
    /// The paper's final design (Sec. 5.3): start with a single bucket
    /// and switch to HBS once the θ-core is reached (θ = 16), adapting
    /// to graph density.
    Adaptive,
}

/// Floor at which [`BucketStrategy::Adaptive`] hands the flat array's
/// survivors to HBS: the paper's θ (Sec. 5.3).
const ADAPTIVE_THETA: u32 = 16;

impl BucketStrategy {
    /// Every strategy, in ablation order — the list tests and
    /// benchmarks sweep.
    pub const ALL: [BucketStrategy; 3] =
        [BucketStrategy::Single, BucketStrategy::Hierarchical, BucketStrategy::Adaptive];

    /// Instantiates the strategy over elements whose initial priorities
    /// are `priorities` (induced degrees for k-core, triangle supports
    /// for k-truss, ...).
    pub fn build(self, priorities: &[u32]) -> Buckets {
        let flat = |adaptive| Buckets::Flat { array: SingleBucket::new(priorities), adaptive };
        match self {
            BucketStrategy::Single => flat(false),
            BucketStrategy::Hierarchical => {
                Buckets::Hierarchical(HierarchicalBuckets::new(priorities))
            }
            BucketStrategy::Adaptive => flat(true),
        }
    }
}

impl std::fmt::Display for BucketStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BucketStrategy::Single => write!(f, "1-bucket"),
            BucketStrategy::Hierarchical => write!(f, "HBS"),
            BucketStrategy::Adaptive => write!(f, "adaptive-HBS"),
        }
    }
}

/// The bucket structure of one run, as [`BucketStrategy::build`]
/// returns it: the flat array or HBS, one concrete type, so a peel's
/// `on_decrease` is a `match` rather than a virtual call.
pub enum Buckets {
    /// The flat active array. Under the adaptive strategy it hands its
    /// survivors to HBS, via [`SingleBucket::into_hierarchical`], at
    /// the first `next_frontier` whose floor reaches θ = 16.
    Flat {
        /// The active array.
        array: SingleBucket,
        /// Whether the array upgrades at θ: [`BucketStrategy::Adaptive`].
        adaptive: bool,
    },
    /// HBS, built as such or upgraded from the flat array.
    Hierarchical(HierarchicalBuckets),
}

impl BucketStructure for Buckets {
    fn next_frontier(&mut self, floor: u32, cap: u32, view: &LiveView<'_>) -> (u32, Vec<u32>) {
        // The upgrade reads each survivor's live key, so decrements filed
        // at this floor before the call (a no-op on the flat array) are
        // in HBS at their lowered keys.
        if let Buckets::Flat { array, adaptive: true } = self {
            if floor >= ADAPTIVE_THETA {
                let flat = std::mem::take(array);
                *self = Buckets::Hierarchical(flat.into_hierarchical(floor, view));
            }
        }
        match self {
            Buckets::Flat { array, .. } => array.next_frontier(floor, cap, view),
            Buckets::Hierarchical(hbs) => hbs.next_frontier(floor, cap, view),
        }
    }

    #[inline]
    fn on_decrease(&self, v: u32, old_key: u32, new_key: u32, k: u32) {
        // The flat array rescans every round: only HBS files decreases.
        if let Buckets::Hierarchical(hbs) = self {
            hbs.on_decrease(v, old_key, new_key, k);
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::{BucketStructure, LiveView, UNSET};
    use kcore_check::sync::atomic::{AtomicU32, Ordering};

    /// A mutable priority table for driving bucket structures in tests:
    /// owns the two arrays a [`LiveView`] borrows.
    pub struct TestView {
        prio: Vec<AtomicU32>,
        settled: Vec<AtomicU32>,
    }

    impl TestView {
        pub fn new(keys: &[u32]) -> Self {
            Self {
                prio: keys.iter().map(|&k| AtomicU32::new(k)).collect(),
                settled: keys.iter().map(|_| AtomicU32::new(UNSET)).collect(),
            }
        }

        pub fn view(&self) -> LiveView<'_> {
            LiveView { prio: &self.prio, settled: &self.settled }
        }

        pub fn key(&self, v: u32) -> u32 {
            self.view().key(v)
        }

        pub fn set_key(&self, v: u32, k: u32) {
            self.prio[v as usize].store(k, Ordering::Relaxed);
        }

        pub fn kill(&self, v: u32) {
            self.settled[v as usize].store(0, Ordering::Relaxed);
        }
    }

    /// The re-anchor bound HBS keeps: `Σ_v (⌈log₂(key₀(v) + 1)⌉ + 1)`
    /// re-filed entries over a run from initial keys `keys`.
    pub fn refile_bound(keys: &[u32]) -> u64 {
        keys.iter().map(|&k| u64::from((u64::from(k) + 1).next_power_of_two().ilog2()) + 1).sum()
    }

    /// The per-key drain: opens round `k` with cap `k + 1`, so the
    /// answer is `k`'s frontier or nothing.
    pub fn at(structure: &mut dyn BucketStructure, k: u32, view: &TestView) -> Vec<u32> {
        let (key, frontier) = structure.next_frontier(k, k + 1, &view.view());
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
    /// decreases are filed while their round is open (if it opens). A
    /// decrease that is none when its turn comes (the vertex surfaced
    /// already, or its key is at or below the new one, or the new key
    /// lies below what the contract allows) is skipped, so a random
    /// schedule can be fed in as it is.
    /// Checks that every round opens at the smallest live key, that a
    /// `(cap, [])` answer leaves nothing live below the cap, and that
    /// every vertex surfaces exactly once, at its live key. Returns the
    /// keys of the rounds opened.
    pub fn run_engine_schedule(
        structure: &mut dyn BucketStructure,
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
                lower(structure, &view, v, nk, floor, floor);
            }
            let cap =
                scheduled.iter().map(|&(r, _, _)| r).filter(|&r| r > floor).fold(end, u32::min);
            let (k, frontier) = structure.next_frontier(floor, cap, &view.view());
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
                lower(structure, &view, v, nk, k + 1, k);
            }
            opened.push(k);
            floor = k + 1;
        }
        assert!(seen.iter().all(|&s| s), "some vertex never surfaced: {seen:?}");
        opened
    }

    /// Lowers `v`'s key to `new_key` during round `k` and files the
    /// decrease, unless it is none or `new_key < lowest`. A vertex that
    /// surfaced holds a key below `lowest`, so it is skipped too.
    fn lower(
        structure: &dyn BucketStructure,
        view: &TestView,
        v: u32,
        new_key: u32,
        lowest: u32,
        k: u32,
    ) {
        let old = view.key(v);
        if old > new_key && new_key >= lowest {
            view.set_key(v, new_key);
            structure.on_decrease(v, old, new_key, k);
        }
    }

    /// Files decreases *between* rounds (a round's scheduled decrements,
    /// including ones landing on the floor itself and ones before the
    /// very first call) and checks that every vertex surfaces once, at
    /// its final key.
    pub fn run_round_start_decreases<S: BucketStructure>(build: impl Fn(&[u32]) -> S) {
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
    pub fn run_static_schedule(structure: &mut dyn BucketStructure, keys: &[u32]) {
        let opened = run_engine_schedule(structure, keys, &[], &[]);
        let mut distinct = keys.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(opened, distinct, "one round per distinct key");
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{refile_bound, run_engine_schedule};
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

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
            let opened = run_engine_schedule(&mut s, &keys, &scheduled, &in_round);
            assert_eq!(opened, want, "under {strategy}");
        }
    }

    /// The adaptive strategy as it ships: a flat array until the first
    /// floor at or past θ, HBS from there on, and the same rounds as
    /// the flat array throughout. The single bucket never upgrades,
    /// and neither does an adaptive run whose keys all lie below θ.
    #[test]
    fn adaptive_upgrades_to_hbs_at_theta() {
        let keys: Vec<u32> = (0..500).map(|i| (i * i) % 300).collect();
        let in_round: Vec<(u32, u32, u32)> =
            (0..200).map(|v| (v % 40, v, v % 40 + 1 + v % 7)).collect();
        let want = run_engine_schedule(&mut SingleBucket::new(&keys), &keys, &[], &in_round);
        let mut single = BucketStrategy::Single.build(&keys);
        assert_eq!(run_engine_schedule(&mut single, &keys, &[], &in_round), want);
        assert!(matches!(single, Buckets::Flat { .. }), "the single bucket upgraded");
        let mut adaptive = BucketStrategy::Adaptive.build(&keys);
        assert_eq!(run_engine_schedule(&mut adaptive, &keys, &[], &in_round), want);
        let Buckets::Hierarchical(hbs) = &adaptive else {
            panic!("keys up to 299 never reached HBS");
        };
        assert!(hbs.refiled_entries() > 0, "HBS never re-anchored past the handoff");
        assert!(hbs.refiled_entries() <= refile_bound(&keys));
        let low = [3, 15, 0, 9];
        let mut adaptive = BucketStrategy::Adaptive.build(&low);
        run_engine_schedule(&mut adaptive, &low, &[], &[]);
        assert!(matches!(adaptive, Buckets::Flat { .. }), "upgraded below θ");
    }

    proptest! {
        /// Every strategy, the adaptive upgrade included, on random keys
        /// spanning the exact block and several ranged buckets, with
        /// random scheduled decreases (some onto the floor) and in-round
        /// decreases, and caps at the unaligned keys 13 and 299: each
        /// opens the same rounds as the flat array and keeps the
        /// contract, and whichever run ends on HBS re-filed within its
        /// log bound.
        #[test]
        fn every_strategy_keeps_the_contract_on_random_schedules(
            raw in vec(any::<u32>(), 1..120),
            scheduled in vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..32),
            in_round in vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..64),
        ) {
            // Keys below 2048, an eighth of them shifted down by each
            // of 0..=7 bits, so small keys are common too.
            let keys: Vec<u32> = raw.iter().map(|&r| (r % 2048) >> (r >> 29)).collect();
            let n = keys.len() as u32;
            let rounds = keys.iter().max().map_or(1, |&m| m + 1);
            let mut sched = vec![(13, 0, 13), (299, n - 1, 299)];
            sched.extend(scheduled.iter().map(|&(r, v, d)| {
                let r = r % rounds;
                (r, v % n, r + (d % 80).saturating_sub(16))
            }));
            let in_round: Vec<(u32, u32, u32)> = in_round
                .iter()
                .map(|&(r, v, d)| (r % rounds, v % n, r % rounds + 1 + d % 512))
                .collect();
            let want = run_engine_schedule(&mut SingleBucket::new(&keys), &keys, &sched, &in_round);
            for strategy in BucketStrategy::ALL {
                let mut s = strategy.build(&keys);
                let opened = run_engine_schedule(&mut s, &keys, &sched, &in_round);
                prop_assert_eq!(&opened, &want, "under {}", strategy);
                if let Buckets::Hierarchical(hbs) = &s {
                    prop_assert!(hbs.refiled_entries() <= refile_bound(&keys), "under {}", strategy);
                }
            }
        }
    }
}
