//! The no-bucket strategy: the plain framework of Alg. 1.
//!
//! Keeps the active set as a flat array. Each round packs the frontier
//! (`key == k`) out of it and compacts away peeled vertices. The total
//! cost over all rounds is `Σ|A_i| = O(n + m)` (Thm. 3.1) — work-optimal
//! but with one full active-set scan per round, which is what HBS
//! improves on dense graphs. Only when the round's floor comes back
//! empty does one more pass find the smallest live key, so rounds that
//! settle something pay nothing for skipping empty keys.

use crate::{BucketStructure, PriorityView};
use kcore_parallel::primitives::{pack, par_min_by};

/// Flat active-array frontier source.
pub struct SingleBucket {
    active: Vec<u32>,
}

impl SingleBucket {
    /// Builds the structure over all vertices with the given initial
    /// keys (only the count matters; keys are re-read via the view).
    pub fn new(priorities: &[u32]) -> Self {
        Self { active: (0..priorities.len() as u32).collect() }
    }

    /// Remaining active vertices (diagnostic; exact after each round).
    pub fn active_len(&self) -> usize {
        self.active.len()
    }
}

impl BucketStructure for SingleBucket {
    fn next_frontier(&mut self, floor: u32, cap: u32, view: &dyn PriorityView) -> (u32, Vec<u32>) {
        // Refine A (drop everything peeled in earlier rounds), then pack
        // the frontier. Both are O(|A|), matching Thm. 3.1's assumption.
        self.active = pack(&self.active, |&v| view.alive(v) && view.key(v) >= floor);
        let frontier = pack(&self.active, |&v| view.key(v) == floor);
        if !frontier.is_empty() {
            return (floor, frontier);
        }
        // The floor is empty: one more pass finds the smallest live key.
        let active = &self.active;
        let k = par_min_by(active.len(), |i| view.key(active[i])).map_or(cap, |k| k.min(cap));
        if k == cap {
            return (cap, Vec::new());
        }
        (k, pack(&self.active, |&v| view.key(v) == k))
    }

    fn drain_threshold(&mut self, t: u32, view: &dyn PriorityView) -> Vec<u32> {
        // Threshold extraction is the native operation of a flat array:
        // one pass splits the active set at the threshold.
        let frontier = pack(&self.active, |&v| view.alive(v) && view.key(v) <= t);
        self.active = pack(&self.active, |&v| view.alive(v) && view.key(v) > t);
        frontier
    }

    fn on_decrease(&self, _v: u32, _old_key: u32, _new_key: u32, _k: u32) {
        // Nothing to maintain: frontiers are recomputed by scanning.
    }

    fn name(&self) -> &'static str {
        "1-bucket"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{at, run_round_start_decreases, run_static_schedule, TestView};

    #[test]
    fn round_start_decreases_surface_once() {
        run_round_start_decreases(SingleBucket::new);
    }

    #[test]
    fn static_schedule_surfaces_everyone_once() {
        let keys = vec![3, 0, 1, 1, 2, 5, 0, 3];
        let mut s = SingleBucket::new(&keys);
        run_static_schedule(&mut s, &keys);
    }

    #[test]
    fn active_set_shrinks_monotonically() {
        let keys = vec![0, 1, 2, 3, 4];
        let view = TestView::new(&keys);
        let mut s = SingleBucket::new(&keys);
        for k in 0..=4u32 {
            let f = at(&mut s, k, &view);
            assert_eq!(f, vec![k]);
            view.kill(k);
        }
        let f = at(&mut s, 5, &view);
        assert!(f.is_empty());
        assert_eq!(s.active_len(), 0);
    }

    #[test]
    fn decreased_keys_are_picked_up_by_scan() {
        let keys = vec![5, 5, 5];
        let view = TestView::new(&keys);
        let mut s = SingleBucket::new(&keys);
        assert!(at(&mut s, 0, &view).is_empty());
        // Vertex 1's key drops to 2 during some round.
        view.set_key(1, 2);
        s.on_decrease(1, 5, 2, 0); // no-op for this strategy
        assert!(at(&mut s, 1, &view).is_empty());
        assert_eq!(at(&mut s, 2, &view), vec![1]);
    }

    #[test]
    fn empty_structure() {
        let mut s = SingleBucket::new(&[]);
        let view = TestView::new(&[]);
        assert!(at(&mut s, 0, &view).is_empty());
    }

    #[test]
    fn threshold_drains_split_the_active_set() {
        let keys: Vec<u32> = (0..200).map(|i| (i * 13) % 61).collect();
        let mut s = SingleBucket::new(&keys);
        crate::testutil::run_threshold_schedule(&mut s, &keys, &[0, 7, 8, 30, 60]);
    }

    #[test]
    fn threshold_drain_then_frontier_keeps_working() {
        let keys = vec![1, 4, 9, 12];
        let view = TestView::new(&keys);
        let mut s = SingleBucket::new(&keys);
        let mut got = s.drain_threshold(5, &view);
        got.sort_unstable();
        assert_eq!(got, vec![0, 1]);
        for &v in &got {
            view.kill(v);
        }
        for k in 6..9 {
            assert!(at(&mut s, k, &view).is_empty());
        }
        assert_eq!(at(&mut s, 9, &view), vec![2]);
    }
}
