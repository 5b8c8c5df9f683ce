//! The hierarchical bucketing structure (HBS, paper Sec. 5.2).
//!
//! HBS manages the active set as a monotone radix heap (Ahuja,
//! Mehlhorn, Orlin, Tarjan, JACM'90) over induced priorities, laid out
//! around a moving anchor `base`:
//!
//! * a key in `base`'s aligned 8-key block (`key ^ base < 8`) sits in
//!   the exact single-key bucket `key & 7`;
//! * any other key sits in the ranged bucket
//!   `8 + floor(log2(key ^ base)) - 3`, named by the highest bit in
//!   which it differs from `base`.
//!
//! `DecreaseKey` is a single push into the bucket owning the new key,
//! and only when that bucket differs from the old key's: `O(1)`, and
//! `O(log d(v))` pushes per vertex across the run, because its bucket
//! index only ever goes down.
//!
//! Laziness: nothing moves while the round walks the anchor's block; a
//! round opens at the first exact bucket holding a live element, so an
//! empty key costs one empty pop. When the walk leaves the block,
//! [`HierarchicalBuckets::next_frontier`] re-anchors: it pops the
//! first ranged bucket holding a live entry, drops its dead entries
//! and the stale copies whose live key maps to another bucket, moves
//! the anchor to its smallest live key (or to the caller's cap, if
//! that is lower) and re-files only that bucket's entries. Every bucket
//! below it can hold only dead or stale entries, so it is cleared. The
//! new anchor shares with the old one every bit above the popped
//! bucket's, so every ranged bucket above it keeps its index, and each
//! re-filed entry lands in a strictly lower bucket: re-anchoring stays
//! inside the `O(log d(v))` per-vertex bound
//! ([`HierarchicalBuckets::refiled_entries`] counts it).

use crate::{BucketStructure, LiveView};
use crossbeam::queue::SegQueue;
use kcore_check::sync::atomic::{AtomicU32, Ordering};

/// Exact single-key buckets: one per key of the anchor's aligned block
/// (the paper uses eight).
const NUM_SINGLE: u32 = 8;

/// Bucket count: 8 exact + one per differing high bit. The highest
/// differing bit of two `u32` keys outside one 8-key block is one of
/// bits 3..=31, so 29 ranged buckets suffice.
const NUM_BUCKETS: usize = NUM_SINGLE as usize + 29;

/// Bucket owning `key` when the layout is anchored at `base`.
fn bucket_index(base: u32, key: u32) -> usize {
    debug_assert!(key >= base, "key {key} below anchor {base}");
    let d = key ^ base;
    if d < NUM_SINGLE {
        (key % NUM_SINGLE) as usize
    } else {
        (NUM_SINGLE + d.ilog2() - NUM_SINGLE.ilog2()) as usize
    }
}

/// The hierarchical bucketing structure.
pub struct HierarchicalBuckets {
    /// Anchor of the current bucket layout. Written only inside
    /// `next_frontier` (`&mut self`); read concurrently by
    /// `on_decrease` during peels, hence atomic.
    base: AtomicU32,
    buckets: Vec<SegQueue<u32>>,
    /// Entries re-filed by re-anchoring so far.
    refiled: u64,
}

impl HierarchicalBuckets {
    /// Builds the structure over all vertices with the given initial
    /// keys (`priorities[v]` is element `v`'s starting priority).
    pub fn new(priorities: &[u32]) -> Self {
        Self::with_entries(0, priorities.iter().copied().enumerate().map(|(v, d)| (v as u32, d)))
    }

    /// Builds the structure anchored at `base` from explicit
    /// `(vertex, key)` entries — the handoff constructor used by the
    /// adaptive strategy when it upgrades from a single bucket
    /// mid-decomposition. Every key must be `>= base`.
    pub fn with_entries(base: u32, entries: impl IntoIterator<Item = (u32, u32)>) -> Self {
        let buckets: Vec<SegQueue<u32>> = (0..NUM_BUCKETS).map(|_| SegQueue::new()).collect();
        for (v, key) in entries {
            buckets[bucket_index(base, key)].push(v);
        }
        Self { base: AtomicU32::new(base), buckets, refiled: 0 }
    }

    /// Stored entries across all buckets (diagnostic; includes stale
    /// copies awaiting lazy cleanup).
    pub fn stored_entries(&self) -> usize {
        self.buckets.iter().map(SegQueue::len).sum()
    }

    /// Entries re-filed by re-anchoring over the structure's lifetime
    /// (diagnostic): each one moved to a strictly lower bucket, so a
    /// vertex is re-filed at most `O(log d(v))` times.
    pub fn refiled_entries(&self) -> u64 {
        self.refiled
    }

    /// Re-anchors once the walk has left the anchor's block: the
    /// smallest live key, or `cap` if that is lower, becomes the new
    /// anchor, which is returned. Requires every live key and `cap` to
    /// lie outside the old block.
    fn reanchor(&mut self, cap: u32, view: &LiveView<'_>) -> u32 {
        let base = self.base.load(Ordering::Relaxed);
        let cap_bucket = bucket_index(base, cap);
        // The exact buckets hold keys below the walk: dead or stale.
        for bucket in &self.buckets[..NUM_SINGLE as usize] {
            while bucket.pop().is_some() {}
        }
        let mut anchor = cap;
        for (j, bucket) in self.buckets.iter().enumerate().skip(NUM_SINGLE as usize) {
            if j > cap_bucket {
                // Every key of this bucket and above lies past `cap`,
                // and none of them changes bucket under an anchor at it.
                break;
            }
            let mut live = Vec::new();
            while let Some(v) = bucket.pop() {
                if view.alive(v) && bucket_index(base, view.key(v)) == j {
                    live.push(v);
                }
            }
            let Some(min) = live.iter().map(|&v| view.key(v)).min() else {
                continue;
            };
            anchor = min.min(cap);
            self.refiled += live.len() as u64;
            for v in live {
                self.buckets[bucket_index(anchor, view.key(v))].push(v);
            }
            break;
        }
        self.base.store(anchor, Ordering::Relaxed);
        anchor
    }

    /// Pops exact bucket `k & 7`: the live entries still at key `k`.
    /// Entries for vertices that moved to a lower key have a fresher
    /// copy elsewhere; entries already peeled are dead — both are
    /// dropped, never re-filed.
    fn pop_single(&self, k: u32, view: &LiveView<'_>) -> Vec<u32> {
        let bucket = &self.buckets[(k % NUM_SINGLE) as usize];
        let mut frontier = Vec::with_capacity(bucket.len());
        while let Some(v) = bucket.pop() {
            if view.alive(v) && view.key(v) == k {
                frontier.push(v);
            }
        }
        // Concurrent decrements push in any order; sorting keeps the
        // frontier (and so the peel's schedule) deterministic. A vertex
        // enters the bucket of key `k` once: when its key becomes `k`.
        frontier.sort_unstable();
        debug_assert!(frontier.windows(2).all(|w| w[0] < w[1]), "a vertex filed twice at {k}");
        frontier
    }
}

impl BucketStructure for HierarchicalBuckets {
    fn next_frontier(&mut self, floor: u32, cap: u32, view: &LiveView<'_>) -> (u32, Vec<u32>) {
        let mut base = self.base.load(Ordering::Relaxed);
        debug_assert!(floor >= base, "rounds must be non-decreasing");
        let mut k = floor;
        while k < cap {
            if k ^ base >= NUM_SINGLE {
                // Past the anchor's block: jump straight to the
                // smallest live key (every key in between is empty).
                base = self.reanchor(cap, view);
                k = base;
                continue;
            }
            let frontier = self.pop_single(k, view);
            if !frontier.is_empty() {
                return (k, frontier);
            }
            k += 1;
        }
        (cap, Vec::new())
    }

    fn on_decrease(&self, v: u32, old_key: u32, new_key: u32, _k: u32) {
        let base = self.base.load(Ordering::Relaxed);
        let target = bucket_index(base, new_key);
        // Same-bucket moves are free: the copy filed when v entered
        // this bucket (at construction, a re-anchor, or the last
        // boundary crossing) still covers it. Exponential ranges make
        // this the common case — a vertex crosses only O(log d(v))
        // boundaries, which is the whole point of HBS.
        if target != bucket_index(base, old_key) {
            self.buckets[target].push(v);
        }
    }

    fn name(&self) -> &'static str {
        "HBS"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{
        at, refile_bound, run_engine_schedule, run_round_start_decreases, run_static_schedule,
        TestView,
    };

    #[test]
    fn round_start_decreases_surface_once() {
        run_round_start_decreases(HierarchicalBuckets::new);
    }

    #[test]
    fn bucket_index_layout() {
        // Anchored at 0: the block [0, 8) is exact, then one bucket per
        // highest set bit.
        assert_eq!(bucket_index(0, 0), 0);
        assert_eq!(bucket_index(0, 7), 7);
        assert_eq!(bucket_index(0, 8), 8);
        assert_eq!(bucket_index(0, 15), 8);
        assert_eq!(bucket_index(0, 16), 9);
        assert_eq!(bucket_index(0, 31), 9);
        assert_eq!(bucket_index(0, 32), 10);
        assert_eq!(bucket_index(0, u32::MAX), NUM_BUCKETS - 1);
        // Anchored at 100 (block [96, 104)): exact keys sit at `key & 7`,
        // and the ranges follow the highest bit differing from 100.
        assert_eq!(bucket_index(100, 100), 4);
        assert_eq!(bucket_index(100, 103), 7);
        assert_eq!(bucket_index(100, 104), 8); // 104 ^ 100 = 12
        assert_eq!(bucket_index(100, 120), 9); // 120 ^ 100 = 28
        assert_eq!(bucket_index(100, 127), 9);
        assert_eq!(bucket_index(100, 128), 12); // 128 ^ 100 = 228
        assert_eq!(bucket_index(100, u32::MAX), NUM_BUCKETS - 1);
        // An unaligned anchor leaves fewer exact keys: 13's block ends
        // at 16, and bit 3 of 13 is set, so bucket 8 holds no key >= 13.
        assert_eq!(bucket_index(13, 13), 5);
        assert_eq!(bucket_index(13, 15), 7);
        assert_eq!(bucket_index(13, 16), 9);
        // Re-anchoring inside bucket 8 (at 104) leaves higher buckets
        // alone and moves bucket 8's keys down.
        assert_eq!(bucket_index(104, 128), 12);
        assert_eq!(bucket_index(104, 106), 2);
    }

    /// A fixed schedule of 3000 keys below 5000, each vertex lowered
    /// in up to three rounds: the entries re-anchoring re-files stay
    /// within `Σ_v (⌈log₂(key₀(v) + 1)⌉ + 1)`.
    #[test]
    fn refiles_stay_within_the_log_bound() {
        let hash = |i: u32| i.wrapping_mul(2654435761) >> 8;
        let keys: Vec<u32> = (0..3000).map(|i| hash(i) % 5000).collect();
        let in_round: Vec<(u32, u32, u32)> = (0..9000)
            .map(|j| {
                let (v, r) = (j / 3, hash(j + 1) % 2000);
                (r, v, r + 1 + hash(j + 2) % (keys[v as usize] / 2 + 1))
            })
            .collect();
        let mut s = HierarchicalBuckets::new(&keys);
        run_engine_schedule(&mut s, &keys, &[], &in_round);
        let (refiled, bound) = (s.refiled_entries(), refile_bound(&keys));
        assert!(refiled > 1000, "only {refiled} entries re-filed");
        assert!(refiled <= bound, "{refiled} re-filed entries, bound {bound}");
    }

    #[test]
    fn static_schedule_small_keys() {
        let keys = vec![3, 0, 1, 1, 2, 5, 0, 3];
        let mut s = HierarchicalBuckets::new(&keys);
        run_static_schedule(&mut s, &keys);
    }

    #[test]
    fn static_schedule_wide_key_span() {
        // Keys spread across single and many ranged buckets.
        let keys: Vec<u32> = (0..500).map(|i| (i * i) % 4093).collect();
        let mut s = HierarchicalBuckets::new(&keys);
        run_static_schedule(&mut s, &keys);
    }

    #[test]
    fn decrease_into_single_span_is_found() {
        let keys = vec![100, 2];
        let view = TestView::new(&keys);
        let mut s = HierarchicalBuckets::new(&keys);
        assert!(at(&mut s, 0, &view).is_empty());
        assert!(at(&mut s, 1, &view).is_empty());
        assert_eq!(at(&mut s, 2, &view), vec![1]);
        view.kill(1);
        // Key 100 drops to 5 during round 2 (> k, so via on_decrease).
        view.set_key(0, 5);
        s.on_decrease(0, 100, 5, 2);
        assert!(at(&mut s, 3, &view).is_empty());
        assert!(at(&mut s, 4, &view).is_empty());
        assert_eq!(at(&mut s, 5, &view), vec![0]);
    }

    #[test]
    fn multi_step_decrease_leaves_no_ghosts() {
        let keys = vec![60];
        let view = TestView::new(&keys);
        let mut s = HierarchicalBuckets::new(&keys);
        assert!(at(&mut s, 0, &view).is_empty());
        for (old, nk) in [(60, 40), (40, 22), (22, 9)] {
            view.set_key(0, nk);
            s.on_decrease(0, old, nk, 0);
        }
        for k in 1..9 {
            assert!(at(&mut s, k, &view).is_empty(), "ghost at {k}");
        }
        assert_eq!(at(&mut s, 9, &view), vec![0]);
        view.kill(0);
        for k in 10..=60 {
            assert!(at(&mut s, k, &view).is_empty(), "stale ghost at {k}");
        }
    }

    #[test]
    fn redistribution_collapses_duplicate_copies() {
        // A bucket-crossing decrease (20 -> 9) files a second copy; after
        // re-anchoring the vertex must surface exactly once.
        let keys = vec![20];
        let view = TestView::new(&keys);
        let mut s = HierarchicalBuckets::new(&keys);
        assert!(at(&mut s, 0, &view).is_empty());
        view.set_key(0, 9);
        s.on_decrease(0, 20, 9, 0);
        assert_eq!(s.stored_entries(), 2, "crossing buckets files a fresh copy");
        let mut surfaced = Vec::new();
        for k in 1..=20 {
            surfaced.extend(at(&mut s, k, &view));
            for &v in &surfaced {
                view.kill(v);
            }
        }
        assert_eq!(surfaced, vec![0], "vertex must surface exactly once");
    }

    #[test]
    fn same_bucket_moves_file_no_copy() {
        // 20 -> 17 stays inside the ranged bucket [16, 32): the copy
        // filed at construction still covers the vertex, so on_decrease
        // must not push (the O(log d) refile bound).
        let keys = vec![20];
        let view = TestView::new(&keys);
        let mut s = HierarchicalBuckets::new(&keys);
        assert!(at(&mut s, 0, &view).is_empty());
        view.set_key(0, 17);
        s.on_decrease(0, 20, 17, 0);
        assert_eq!(s.stored_entries(), 1, "same-bucket move must be free");
        let mut surfaced = Vec::new();
        for k in 1..=20 {
            surfaced.extend(at(&mut s, k, &view));
            for &v in &surfaced {
                view.kill(v);
            }
        }
        assert_eq!(surfaced, vec![0], "vertex surfaces at its live key once");
    }

    #[test]
    fn with_entries_anchors_midstream() {
        let view = TestView::new(&[0, 18, 16, 25]);
        let mut s = HierarchicalBuckets::with_entries(16, [(1u32, 18u32), (2, 16), (3, 25)]);
        assert_eq!(at(&mut s, 16, &view), vec![2]);
        view.kill(2);
        assert!(at(&mut s, 17, &view).is_empty());
        assert_eq!(at(&mut s, 18, &view), vec![1]);
        view.kill(1);
        for k in 19..25 {
            assert!(at(&mut s, k, &view).is_empty());
        }
        assert_eq!(at(&mut s, 25, &view), vec![3]);
    }

    #[test]
    fn empty_structure() {
        let mut s = HierarchicalBuckets::new(&[]);
        let view = TestView::new(&[]);
        for k in 0..20 {
            assert!(at(&mut s, k, &view).is_empty());
        }
    }
}
