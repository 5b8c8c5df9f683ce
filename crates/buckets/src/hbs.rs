//! The hierarchical bucketing structure (HBS, paper Sec. 5.2).
//!
//! HBS manages the active set as a monotone radix heap over induced
//! priorities: relative to a moving anchor `base`, the first
//! `NUM_SINGLE` buckets each hold one exact key (`base`, `base + 1`,
//! ...), and the buckets after them hold exponentially growing key
//! ranges (`[base + 8, base + 16)`, `[base + 16, base + 32)`, ...).
//! `DecreaseKey` is a single push into the bucket owning the new key —
//! `O(1)`, and `O(log d(v))` total per vertex across the run, because a
//! vertex entry migrates toward bucket 0 through at most
//! logarithmically many redistributions.
//!
//! Laziness: nothing moves while the round walks the single-key span;
//! a round opens at the first of those buckets holding a live element,
//! so empty keys cost one empty pop each. When the walk runs past the
//! span, [`HierarchicalBuckets::next_frontier`] re-anchors at the
//! smallest live key (or at the caller's cap, if that is lower) and
//! redistributes every stored entry by its *live* key (stale copies
//! from earlier decrements are deduplicated here; dead entries are
//! dropped). Keys only decrease and never drop below the current
//! round, so every entry re-files at or after the anchor — the
//! monotone-heap invariant.
//!
//! The redistribution itself is outside that per-vertex bound: it
//! pops, sorts and re-files all `S` stored entries, `O(S log S)` work,
//! including entries that do not move. It runs only when a round's walk
//! leaves the single-key span, and the anchor then jumps to a live key
//! (or the cap) at least `NUM_SINGLE` past the old one — so at most
//! once per round opened (or cap reached), and at most `kmax / 8 + 1`
//! times in a run, however many empty keys lie between the rounds.

use crate::{BucketStructure, PriorityView};
use crossbeam::queue::SegQueue;
use kcore_check::sync::atomic::{AtomicU32, Ordering};

/// Exact single-key buckets before the exponential tail (the paper uses
/// eight).
const NUM_SINGLE: u32 = 8;

/// Bucket count: 8 single + one per power-of-two range. Key offsets
/// are `< 2^32`, so `floor(log2((2^32 - 1) / 8)) = 28` is the largest
/// ranged index and 29 ranged buckets suffice.
const NUM_BUCKETS: usize = NUM_SINGLE as usize + 29;

/// Bucket owning `key` when the layout is anchored at `base`.
fn bucket_index(base: u32, key: u32) -> usize {
    debug_assert!(key >= base, "key {key} below anchor {base}");
    let d = key - base;
    if d < NUM_SINGLE {
        d as usize
    } else {
        let ranged = 31 - (d / NUM_SINGLE).leading_zeros(); // floor(log2(d / 8))
        NUM_SINGLE as usize + ranged as usize
    }
}

/// The hierarchical bucketing structure.
pub struct HierarchicalBuckets {
    /// Anchor of the current bucket layout. Written only inside
    /// `next_frontier` (`&mut self`); read concurrently by
    /// `on_decrease` during peels, hence atomic.
    base: AtomicU32,
    buckets: Vec<SegQueue<u32>>,
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
        Self { base: AtomicU32::new(base), buckets }
    }

    /// Stored entries across all buckets (diagnostic; includes stale
    /// copies awaiting lazy cleanup).
    pub fn stored_entries(&self) -> usize {
        self.buckets.iter().map(SegQueue::len).sum()
    }

    /// Re-anchors the layout at the smallest live key, or at `cap` if
    /// that is lower, re-filing every entry by its live key; returns
    /// the new anchor. Duplicate copies of a vertex (one per historical
    /// decrement) collapse to one; dead entries drop out.
    fn redistribute(&mut self, cap: u32, view: &dyn PriorityView) -> u32 {
        let mut live: Vec<u32> = Vec::new();
        for bucket in &self.buckets {
            while let Some(v) = bucket.pop() {
                if view.alive(v) {
                    live.push(v);
                }
            }
        }
        live.sort_unstable();
        live.dedup();
        let anchor = live.iter().map(|&v| view.key(v)).min().map_or(cap, |k| k.min(cap));
        self.base.store(anchor, Ordering::Relaxed);
        for v in live {
            self.buckets[bucket_index(anchor, view.key(v))].push(v);
        }
        anchor
    }

    /// Pops single-key bucket `k - base`: the live entries still at
    /// key `k`. Entries for vertices that moved to a lower key have a
    /// fresher copy elsewhere; entries already peeled are dead — both
    /// are dropped, never re-filed.
    fn pop_single(&self, k: u32, base: u32, view: &dyn PriorityView) -> Vec<u32> {
        let bucket = &self.buckets[(k - base) as usize];
        let mut frontier = Vec::with_capacity(bucket.len());
        while let Some(v) = bucket.pop() {
            if view.alive(v) && view.key(v) == k {
                frontier.push(v);
            }
        }
        // A vertex can appear twice in one single-key bucket only if it
        // was filed here both by redistribution and by an `on_decrease`
        // racing an earlier round's extraction; dedup to keep the
        // exactly-once frontier contract.
        frontier.sort_unstable();
        frontier.dedup();
        frontier
    }
}

impl BucketStructure for HierarchicalBuckets {
    fn next_frontier(&mut self, floor: u32, cap: u32, view: &dyn PriorityView) -> (u32, Vec<u32>) {
        let mut base = self.base.load(Ordering::Relaxed);
        debug_assert!(floor >= base, "rounds must be non-decreasing");
        let mut k = floor;
        while k < cap {
            if k - base >= NUM_SINGLE {
                // Past the single-key span: jump straight to the
                // smallest live key (every key in between is empty).
                base = self.redistribute(cap, view);
                k = base;
                continue;
            }
            let frontier = self.pop_single(k, base, view);
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
        // this bucket (at construction, redistribution, or the last
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
    use crate::testutil::{at, run_round_start_decreases, run_static_schedule, TestView};

    #[test]
    fn round_start_decreases_surface_once() {
        run_round_start_decreases(HierarchicalBuckets::new);
    }

    #[test]
    fn bucket_index_layout() {
        assert_eq!(bucket_index(0, 0), 0);
        assert_eq!(bucket_index(0, 7), 7);
        assert_eq!(bucket_index(0, 8), 8);
        assert_eq!(bucket_index(0, 15), 8);
        assert_eq!(bucket_index(0, 16), 9);
        assert_eq!(bucket_index(0, 31), 9);
        assert_eq!(bucket_index(0, 32), 10);
        assert_eq!(bucket_index(0, u32::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_index(100, 103), 3);
        assert_eq!(bucket_index(100, 120), 9);
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
