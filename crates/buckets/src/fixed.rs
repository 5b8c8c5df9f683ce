//! Julienne's fixed-window bucketing strategy.
//!
//! Whenever a round walks past its window, the structure scans the
//! overflow list once and materializes the next `b` frontiers into
//! single-key buckets, starting at the smallest live overflow key so
//! that empty keys are skipped rather than windowed; vertices with keys
//! beyond the window stay in overflow (the paper's description of
//! Julienne, Sec. 5.1). `DecreaseKey` inserts the vertex into the
//! in-window bucket for its new key. Per-vertex cost is
//! `O(d(v)/b + b)`, minimized at `b = Θ(sqrt(d_avg))`; Julienne fixes
//! `b = 16`.
//!
//! Duplicate-freedom argument: a vertex enters bucket `key` only when its
//! priority becomes exactly `key` (priorities decrease monotonically
//! and atomic decrements return distinct values, so each `(v, key)` pair
//! occurs at most once), or once per window rebuild. Stale copies — the
//! vertex peeled earlier or moved lower — are filtered at extraction by
//! re-reading the live key.

use crate::{BucketStructure, LiveView};
use crossbeam::queue::SegQueue;
use kcore_parallel::primitives::{pack, par_min_by};

/// Fixed window of `b` single-key buckets plus an overflow list.
pub struct FixedBuckets {
    /// Base key of the current window: bucket `i` holds key `base + i`.
    base: u32,
    /// Whether the window has been materialized for the current base.
    built: bool,
    buckets: Vec<SegQueue<u32>>,
    overflow: Vec<u32>,
    b: u32,
}

impl FixedBuckets {
    /// Creates the structure with window width `b` over all vertices.
    pub fn new(priorities: &[u32], b: u32) -> Self {
        assert!(b >= 1, "window width must be at least 1");
        Self {
            base: 0,
            built: false,
            buckets: (0..b).map(|_| SegQueue::new()).collect(),
            overflow: (0..priorities.len() as u32).collect(),
            b,
        }
    }

    /// Scans overflow and distributes the window `[base, base + b)`,
    /// anchored at the smallest live overflow key or at `cap` if that
    /// is lower; returns the new base.
    fn rebuild(&mut self, cap: u32, view: &LiveView<'_>) -> u32 {
        // Overflow holds every live vertex at or past the new window, so
        // the buckets have nothing to add: after the first build they
        // hold only dead entries, and before it only early
        // `on_decrease` files that overflow would duplicate.
        for q in &self.buckets {
            while q.pop().is_some() {}
        }
        let overflow = &self.overflow;
        let live_key = |i: usize| {
            let v = overflow[i];
            if view.alive(v) {
                view.key(v)
            } else {
                u32::MAX
            }
        };
        let base = par_min_by(overflow.len(), live_key).map_or(cap, |k| k.min(cap));
        let end = base.saturating_add(self.b);
        // Keep only live out-of-window vertices in overflow; in-window
        // ones move to their key's bucket.
        let keep = pack(&self.overflow, |&v| view.alive(v) && view.key(v) >= end);
        for &v in &self.overflow {
            if view.alive(v) {
                let key = view.key(v);
                if key < end {
                    self.buckets[(key - base) as usize].push(v);
                }
            }
        }
        self.overflow = keep;
        self.base = base;
        self.built = true;
        base
    }
}

impl BucketStructure for FixedBuckets {
    fn next_frontier(&mut self, floor: u32, cap: u32, view: &LiveView<'_>) -> (u32, Vec<u32>) {
        let mut k = floor;
        while k < cap {
            if !self.built || k >= self.base.saturating_add(self.b) {
                // Past the window: rebuild it at the smallest live key
                // (every key in between is empty).
                k = self.rebuild(cap, view);
                continue;
            }
            let q = &self.buckets[(k - self.base) as usize];
            let mut frontier = Vec::with_capacity(q.len());
            while let Some(v) = q.pop() {
                // Stale copies (peeled, or moved to a lower key and
                // peeled there) fail the filter and are dropped.
                if view.alive(v) && view.key(v) == k {
                    frontier.push(v);
                }
            }
            if !frontier.is_empty() {
                return (k, frontier);
            }
            k += 1;
        }
        (cap, Vec::new())
    }

    fn on_decrease(&self, v: u32, _old_key: u32, new_key: u32, _k: u32) {
        // Only in-window keys are tracked eagerly; out-of-window keys
        // are rediscovered from overflow at the next rebuild. Every
        // in-window bucket holds a single key, so the old key never
        // saves a push here.
        if new_key >= self.base && new_key < self.base.saturating_add(self.b) {
            self.buckets[(new_key - self.base) as usize].push(v);
        }
    }

    fn name(&self) -> &'static str {
        "fixed-buckets"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{
        at, run_engine_schedule, run_round_start_decreases, run_static_schedule, TestView,
    };

    #[test]
    fn round_start_decreases_surface_once() {
        // Width 4 rebuilds the window at rounds 0, 4 and 8; the first
        // decreases are filed before the first build.
        for b in [4, 16] {
            run_round_start_decreases(|keys| FixedBuckets::new(keys, b));
        }
    }

    #[test]
    fn static_schedule_small_window() {
        let keys = vec![3, 0, 1, 1, 2, 5, 0, 3, 40, 17, 16, 15];
        let mut s = FixedBuckets::new(&keys, 4);
        run_static_schedule(&mut s, &keys);
    }

    #[test]
    fn static_schedule_julienne_width() {
        let keys: Vec<u32> = (0..200).map(|i| (i * 7) % 64).collect();
        let mut s = FixedBuckets::new(&keys, 16);
        run_static_schedule(&mut s, &keys);
    }

    #[test]
    fn decrease_into_window_is_tracked() {
        let keys = vec![10, 2, 30];
        let view = TestView::new(&keys);
        let mut s = FixedBuckets::new(&keys, 16);
        // Nothing lives below round 0's cap 1, so the window is built at
        // the cap, [1, 17): vertex 1 (key 2) in bucket 1, vertex 0 (key
        // 10) in bucket 9, vertex 2 in overflow.
        assert!(at(&mut s, 0, &view).is_empty());
        assert!(at(&mut s, 1, &view).is_empty());
        assert_eq!(at(&mut s, 2, &view), vec![1]);
        view.kill(1);
        // Vertex 2's key drops from 30 into the window during round 2.
        view.set_key(2, 5);
        s.on_decrease(2, 30, 5, 2);
        assert!(at(&mut s, 3, &view).is_empty());
        assert!(at(&mut s, 4, &view).is_empty());
        assert_eq!(at(&mut s, 5, &view), vec![2]);
        view.kill(2);
        // Vertex 0 still surfaces at its key.
        for k in 6..10 {
            assert!(at(&mut s, k, &view).is_empty());
        }
        assert_eq!(at(&mut s, 10, &view), vec![0]);
    }

    #[test]
    fn multi_step_decrease_leaves_no_ghosts() {
        let keys = vec![12];
        let view = TestView::new(&keys);
        let mut s = FixedBuckets::new(&keys, 16);
        assert!(at(&mut s, 0, &view).is_empty());
        // Key walks down 12 -> 9 -> 7 -> 4 during round 0's peel.
        for (old, nk) in [(12, 9), (9, 7), (7, 4)] {
            view.set_key(0, nk);
            s.on_decrease(0, old, nk, 0);
        }
        for k in 1..4 {
            assert!(at(&mut s, k, &view).is_empty(), "ghost at {k}");
        }
        assert_eq!(at(&mut s, 4, &view), vec![0]);
        view.kill(0);
        // Stale copies at 7, 9, 12 must be filtered.
        for k in 5..=12 {
            assert!(at(&mut s, k, &view).is_empty(), "stale ghost at {k}");
        }
    }

    #[test]
    fn window_rebuild_picks_up_overflow_decreases() {
        // Key decreases while still beyond the window; the rebuild past
        // it must find the new value.
        let keys = vec![100];
        let view = TestView::new(&keys);
        let mut s = FixedBuckets::new(&keys, 16);
        assert!(at(&mut s, 0, &view).is_empty());
        view.set_key(0, 20); // drops but stays out of [1, 17)
        s.on_decrease(0, 100, 20, 0);
        for k in 1..16 {
            assert!(at(&mut s, k, &view).is_empty());
        }
        // The walk past 16 rebuilds at its cap, [18, 34), and must
        // place it at 20.
        for k in 16..20 {
            assert!(at(&mut s, k, &view).is_empty());
        }
        assert_eq!(at(&mut s, 20, &view), vec![0]);
    }

    #[test]
    fn a_window_reaching_past_u32_max_files_decreases() {
        // The window opens at u32::MAX - 8 and its end saturates; a
        // decrease into it is filed, not overflowed.
        let keys = [u32::MAX - 2, u32::MAX - 8];
        let in_round = [(u32::MAX - 8, 0, u32::MAX - 5)];
        let mut s = FixedBuckets::new(&keys, 16);
        let opened = run_engine_schedule(&mut s, &keys, &[], &in_round);
        assert_eq!(opened, [u32::MAX - 8, u32::MAX - 5]);
    }

    #[test]
    fn width_one_degenerates_to_single_bucket_behavior() {
        let keys = vec![2, 0, 1];
        let mut s = FixedBuckets::new(&keys, 1);
        run_static_schedule(&mut s, &keys);
    }
}
