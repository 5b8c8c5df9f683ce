//! The no-bucket strategy: the plain framework of Alg. 1.
//!
//! Keeps the active set as a flat array. Each round drains it in one
//! fused [`split_at_min`]: two passes over the array, each forking
//! across its 4096-item blocks. Pass 1 finds the smallest live key at
//! or above the floor (capped) and pass 2 writes that key's frontier
//! and the survivors, dropping peeled vertices, so the frontier leaves
//! the active set in the same pass. The total cost over all rounds is
//! `Σ|A_i| = O(n + m)` (Thm. 3.1) — work-optimal but with one full
//! active-set scan per round, which is what HBS improves on dense
//! graphs. Skipping empty keys costs nothing extra: pass 1 finds the
//! smallest live key whether or not it is the floor.

use crate::{BucketStructure, HierarchicalBuckets, LiveView};
use kcore_parallel::primitives::split_at_min;

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

    /// Vertices the last drain left active (diagnostic): the survivors,
    /// not counting the frontier it returned.
    pub fn active_len(&self) -> usize {
        self.active.len()
    }

    /// Hands the survivors to an HBS anchored at `base`: the adaptive
    /// strategy's upgrade at the θ-core (Sec. 5.3). Entries settled
    /// since the last drain are skipped (their keys may sit below
    /// `base`); every live one must have key `>= base`. Costs one pass
    /// over the survivors, not over the whole universe, and files them
    /// in id order.
    pub fn into_hierarchical(self, base: u32, view: &LiveView<'_>) -> HierarchicalBuckets {
        let live = self.active.into_iter().filter(|&v| view.alive(v));
        HierarchicalBuckets::with_entries(base, live.map(|v| (v, view.key(v))))
    }
}

impl BucketStructure for SingleBucket {
    fn next_frontier(&mut self, floor: u32, cap: u32, view: &LiveView<'_>) -> (u32, Vec<u32>) {
        // Refine A (drop everything peeled in earlier rounds) and take
        // the frontier at the smallest live key, O(|A|) as Thm. 3.1
        // assumes.
        let split = split_at_min(&self.active, cap, |&v| {
            view.alive(v).then(|| view.key(v)).filter(|&k| k >= floor)
        });
        self.active = split.rest;
        (split.key, split.frontier)
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
    use crate::testutil::{
        at, run_engine_schedule, run_round_start_decreases, run_static_schedule, TestView,
    };
    use crate::LiveView;
    use kcore_parallel::pool::{per_worker_stats, with_threads};

    /// A [`SingleBucket`] that checks, after every drain, that the
    /// active set holds exactly the live vertices at or above the floor
    /// minus the frontier just returned.
    struct CountsSurvivors {
        inner: SingleBucket,
        n: u32,
    }

    impl BucketStructure for CountsSurvivors {
        fn next_frontier(&mut self, floor: u32, cap: u32, view: &LiveView<'_>) -> (u32, Vec<u32>) {
            let live = (0..self.n).filter(|&v| view.alive(v) && view.key(v) >= floor).count();
            let (k, frontier) = self.inner.next_frontier(floor, cap, view);
            assert_eq!(self.inner.active_len(), live - frontier.len(), "survivors of round {k}");
            (k, frontier)
        }

        fn on_decrease(&self, v: u32, old_key: u32, new_key: u32, k: u32) {
            self.inner.on_decrease(v, old_key, new_key, k);
        }

        fn name(&self) -> &'static str {
            self.inner.name()
        }
    }

    /// Three blocks and more of the fused drain, forked on two workers:
    /// scheduled decreases (some onto the floor itself) and in-round
    /// decreases, spread across the blocks.
    #[test]
    fn multi_block_schedule_keeps_the_contract_on_two_workers() {
        let n = 3 * 4096 + 100;
        let hash = |i: u32| i.wrapping_mul(2654435761) >> 8;
        let keys: Vec<u32> = (0..n).map(|i| 20 + hash(i) % 180).collect();
        // Rounds 0, 2, .., 18 lie below every key, so only the cap
        // rule reaches them; rounds 0, 4, .., 16 land their decreases
        // on the floor itself.
        let scheduled: Vec<(u32, u32, u32)> =
            (0..50).map(|j| (j % 10 * 2, j * 241, j % 10 * 2 + j % 2)).collect();
        let in_round: Vec<(u32, u32, u32)> = (0..50)
            .map(|j| (20 + j, j * 241 + 1, 21 + j + j % 4))
            .filter(|&(_, v, nk)| keys[v as usize] > nk)
            .collect();
        assert!(in_round.len() > 10, "too few in-round decreases");
        let mut s = CountsSurvivors { inner: SingleBucket::new(&keys), n };
        // The pool's own split count: no test running alongside can
        // leak a split into it.
        let (opened, splits) = with_threads(2, || {
            let opened = run_engine_schedule(&mut s, &keys, &scheduled, &in_round);
            (opened, per_worker_stats().iter().map(|w| w.splits).sum::<u64>())
        });
        assert!(opened.starts_with(&[0, 3, 4, 7]), "opened {opened:?}");
        assert!(splits > 0, "drains over {n} vertices never split");
        assert_eq!(s.inner.active_len(), 0);
    }

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
}
